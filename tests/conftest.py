from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

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
        graph = sf.cycle_minus_edge(n, removed or (n, 1))
        return graph, sf.build_laplacian(graph), sf.null_basis(graph)

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


def random_tree(n: int, cut: int, shifts: list[int], flips: list[bool]) -> sf.InteractionGraph:
    """C_n without its edge (cut, cut + 1), each kept edge with its own shift and orientation."""
    edges = []
    for k, (i, j) in enumerate(e for e in sf.CycleGraph(n).edges if e[0] != cut):
        g = sf.CyclicAutomorphism(n, shifts[k])
        edges.append((j, i, g) if flips[k] else (i, j, g))
    return sf.InteractionGraph(n=n, edges=tuple(edges))


def random_tree_cases(n_max: int) -> st.SearchStrategy:
    """(n, cut, shifts, flips) arguments of :func:`random_tree` for 3 <= n <= n_max."""
    return st.integers(3, n_max).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(1, n),
        st.lists(st.integers(0, n - 1), min_size=n - 1, max_size=n - 1),
        st.lists(st.booleans(), min_size=n - 1, max_size=n - 1)))
