from __future__ import annotations

import importlib.util
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

import symform as sf
from symform import topology

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


@pytest.fixture(scope="session")
def solver_costs():
    """scripts/solver_costs.py as a module, the environment it pins for its own process kept."""
    spec = importlib.util.spec_from_file_location("solver_costs", Path(__file__).parents[1] / "scripts" / "solver_costs.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


# a cube tree whose cross edge (2, 6) gives nodes 2 and 6 degree 3, so it is not a path
CROSS_CUBE = {"cross_edge": [2, 6]}


def random_tree(n: int, cut: int, shifts: list[int], flips: list[bool]) -> sf.InteractionGraph:
    """C_n without its edge (cut, cut + 1), each kept edge with its own shift and orientation."""
    edges = []
    for k, (i, j) in enumerate(e for e in sf.CycleGraph(n).edges if e[0] != cut):
        edges.append((j, i, shifts[k]) if flips[k] else (i, j, shifts[k]))
    return topology.planar_tree(n, edges)


def random_tree_cases(n_max: int) -> st.SearchStrategy:
    """(n, cut, shifts, flips) arguments of :func:`random_tree` for 3 <= n <= n_max."""
    return st.integers(3, n_max).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(1, n),
        st.lists(st.integers(0, n - 1), min_size=n - 1, max_size=n - 1),
        st.lists(st.booleans(), min_size=n - 1, max_size=n - 1)))


def parse_trace_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Read back a trace CSV into arrays keyed times/states/edge_errors/potentials."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln]
    header = lines[0].split(",")
    if header[0] != "t" or header[-1] != "potential":
        raise ValueError(f"unrecognized trace header in {path}")
    n_err = sum(1 for h in header if h.startswith("err_"))
    n_state = len(header) - 2 - n_err
    data = np.array([[float(tok) for tok in ln.split(",")] for ln in lines[1:]])
    return {
        "times": data[:, 0],
        "states": data[:, 1:1 + n_state],
        "edge_errors": data[:, 1 + n_state:1 + n_state + n_err],
        "potentials": data[:, -1],
        "header": header,
    }
