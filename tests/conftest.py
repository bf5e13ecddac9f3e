from __future__ import annotations

import numpy as np
import pytest

import symform as sf

# one line per acceptance criterion, shown in the terminal summary
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def path_system():
    """Factory: cycle-minus-one-edge system for a given n (the canonical path tree)."""

    def make(n: int, removed: tuple[int, int] | None = None):
        tau = sf.assignment(n)
        graph = sf.cycle_minus_edge(n, removed or (n, 1))
        lap = sf.build_laplacian(graph, tau)
        chain = sf.null_basis(graph, tau)
        return graph, tau, lap, chain

    return make


def path_eigenvalues(n: int, dim: int) -> np.ndarray:
    """Closed-form spectrum oracle for the canonical path tree.

    Conjugating the constraint matrix by the block-diagonal chain rotations
    reduces it to (scalar path Laplacian) (x) I_d, whose eigenvalues are the
    textbook values 2 - 2 cos(k pi / n), each appearing d times.
    """
    lam = np.array([2.0 - 2.0 * np.cos(k * np.pi / n) for k in range(n)])
    return np.sort(np.repeat(lam, dim))


def slowest_rate(n: int) -> float:
    """Closed-form smallest positive eigenvalue: 4 sin^2(pi / 2n)."""
    return float(4.0 * np.sin(np.pi / (2 * n)) ** 2)
