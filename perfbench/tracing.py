"""Spans and exact counts recorded around symform's public functions, from outside.

The tracer replaces every binding of a traced function in every loaded
``symform`` module (the defining module and each ``from .x import y`` copy),
so a call is seen whichever name it is reached through. Spans are kept in
memory as (name, start, end, parent) and reduced to per-layer metrics after
the pass; nothing inside ``src/`` is changed.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, attribute) of every function timed as a span; the span name is
# "<module>.<attribute>" and the module is the layer it is charged to.
SPANNED = (
    ("cli", "main"),
    ("cli", "load_scenario"),
    ("cli", "build_system"),
    ("cli", "run_scenario"),
    ("cli", "compute_metrics"),
    ("cli", "write_outputs"),
    ("cli", "verify_scenario"),
    ("cli", "verification_checks"),
    ("cli", "sweep_sizes"),
    ("laplacian", "build_laplacian"),
    ("laplacian", "product_laplacian"),
    ("laplacian", "null_basis"),
    ("laplacian", "spectrum"),
    ("topology", "rotation_chain"),
    ("dynamics", "integrate"),
    ("dynamics", "resolve_grid"),
    ("dynamics", "fit_rate"),
    ("maneuver", "simulate_maneuver"),
    ("maneuver", "propagate_reference"),
    ("maneuver", "zeta_consistency_residual"),
    ("spatial3d", "build_cube"),
    ("spatial3d", "simulate_cube"),
    ("output", "trace_csv_text"),
    ("output", "reference_csv_text"),
    ("output", "svg_paths"),
    ("output", "svg_errors"),
)

# Called once per RK4 step or per rotation built: counted, not timed, so the
# tracer does not swamp the pass it measures.
COUNTED = (("dynamics", "rk4_step"),)
COUNTED_METHODS = (("symgroup", "Rotation", "__post_init__"),)

LAYERS = ("cli", "laplacian", "topology", "dynamics", "maneuver", "spatial3d", "output")

_INTEGRATORS = {"dynamics.integrate", "maneuver.simulate_maneuver"}
_TRACE_ARRAYS = ("times", "states", "edge_errors", "potentials",
                 "ref_positions", "ref_rotations", "ref_scales", "zeta")


class Tracer:
    """Records spans and counts while installed; restores every binding on uninstall."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------------- wiring

    def install(self) -> None:
        mods = {name.partition(".")[2]: mod for name, mod in list(sys.modules.items())
                if (name == "symform" or name.startswith("symform.")) and mod is not None}
        for mod_name, attr in SPANNED:
            self._rebind(mods, getattr(mods[mod_name], attr), self._span(f"{mod_name}.{attr}"))
        for mod_name, attr in COUNTED:
            self._rebind(mods, getattr(mods[mod_name], attr), self._counter(f"{mod_name}.{attr}"))
        for mod_name, cls_name, attr in COUNTED_METHODS:
            cls = getattr(mods[mod_name], cls_name)
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._counter(f"{mod_name}.{cls_name}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _rebind(self, mods: dict, original, wrapper) -> None:
        functools.update_wrapper(wrapper, original)
        wrapper.__wrapped_original__ = original
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _counter(self, name: str, original=None):
        counts = self.counts
        key = f"{name}.calls"

        def counted(*args, **kwargs):
            counts[key] += 1
            return counted.__wrapped_original__(*args, **kwargs)

        if original is not None:
            counted.__wrapped_original__ = original
        return counted

    def _span(self, name: str):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = spanned.__wrapped_original__(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            counts[f"{name}.calls"] += 1
            _computed_counts(name, args, result, counts)
            return result

        return spanned

    # ------------------------------------------------------------- reduction

    def totals(self) -> tuple[Counter, Counter]:
        """Total and self seconds per span name (self excludes child spans)."""
        total: Counter = Counter()
        child: Counter = Counter()
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        for idx, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[idx]
        return total, self_s


def _computed_counts(name: str, args: tuple, result, counts: Counter) -> None:
    """Counts derived from array sizes at the span boundary (labelled computed)."""
    if name == "laplacian.spectrum":
        counts["laplacian.spectrum.n3"] += int(args[0].shape[0]) ** 3
    elif name in _INTEGRATORS:
        steps, width = result.states.shape[0] - 1, result.states.shape[1]
        # four field evaluations per RK4 step, each one dense (dn x dn) matvec
        counts["dynamics.matvec_flops"] += 4 * steps * 2 * width * width
        counts["dynamics.trace_bytes"] += sum(
            getattr(result, a).nbytes for a in _TRACE_ARRAYS if getattr(result, a, None) is not None)
