#!/usr/bin/env python3
"""Fit simulated decay rates against the closed-form slowest eigenvalue.

For each formation size the gradient flow is run from a seeded random start
and the tail of log total error is fit with a line. The slope should match
-4 sin^2(pi / 2n), the smallest positive eigenvalue of the path-tree
constraint matrix; the table reports the relative gap.
"""
from __future__ import annotations

import argparse
import math
import sys

import numpy as np

import symform as sf


def study_row(n: int, seed: int) -> dict:
    lap = sf.build_laplacian(sf.cycle_minus_edge(n, (n, 1)))
    p0 = np.random.default_rng(seed).uniform(-2.0, 2.0, 2 * n)
    trace = sf.integrate(lap, p0)
    fitted = sf.fit_rate(trace)
    expected = -4.0 * math.sin(math.pi / (2 * n)) ** 2
    return {
        "n": n,
        "fitted": fitted,
        "expected": expected,
        "rel_gap": abs(fitted - expected) / abs(expected),
        "steps": trace.steps,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-from", type=int, default=3, dest="n_from")
    parser.add_argument("--n-to", type=int, default=10, dest="n_to")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.n_from < 3 or args.n_to < args.n_from:
        parser.error("need 3 <= n-from <= n-to")

    print(f"{'n':>3} {'fitted rate':>14} {'closed form':>14} {'rel gap':>10} {'steps':>7}")
    worst = 0.0
    for n in range(args.n_from, args.n_to + 1):
        row = study_row(n, args.seed)
        worst = max(worst, row["rel_gap"])
        print(f"{row['n']:>3} {row['fitted']:>14.8f} {row['expected']:>14.8f} "
              f"{row['rel_gap']:>9.3%} {row['steps']:>7}")
    print(f"worst relative gap: {worst:.3%}")
    return 0 if worst <= 0.05 else 1


if __name__ == "__main__":
    sys.exit(main())
