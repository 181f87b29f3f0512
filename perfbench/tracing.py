"""In-memory spans around the public functions of each ``specnorm`` layer.

Modules import one another's functions by name, so a function is wrapped
in every ``specnorm`` namespace that binds it, its own included (for the
calls a module makes to itself, such as ``b_statistic`` to ``b_kernel``).
Spans are kept in flat arrays while the run lasts and aggregated at the
end; a span's self time is its duration minus the durations of its direct
children. Wrappers are removed when the ``Tracer`` context exits. A traced
module or function the package no longer has, or a step count a result
no longer carries, is skipped and reads as zero.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# layer -> public functions whose calls become spans
TRACED = {
    "cli": ("main",),
    "montecarlo": ("paired_bound_experiment", "collect_samples"),
    "sinekernel": ("k_table", "k_estimate", "principal_right_singular"),
    "norms": ("spectral_norm_fast",),
    "extremes": ("b_statistic", "b_kernel", "gumbel_model"),
    "structured": ("build_symbol", "matvec", "rmatvec"),
    "dft": ("dft_forward", "dft_inverse", "convolve_full"),
}

# span -> solver step count read from the returned value
ITERATIONS = {
    "norms.spectral_norm_fast": lambda result: result.iterations,
    "sinekernel.principal_right_singular": lambda result: result.iterations,
    "sinekernel.k_estimate": lambda result: result[0].outer_iterations,
}


class Tracer:
    """Context manager that records a span per call of every traced function."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.iterations: dict[str, list[int]] = {}
        self.product_sizes: list[int] = []  # embedding size of each matvec
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, span: str):
        nid = len(self.names)
        self.names.append(span)
        steps = ITERATIONS.get(span)
        counts = self.iterations.setdefault(span, []) if steps else None
        start, end, name_id, parent, stack = (
            self.start, self.end, self.name_id, self.parent, self._stack)
        sizes = self.product_sizes if span == "structured.matvec" else None
        perf = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            start.append(0.0)
            end.append(0.0)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf()
                start[idx] = t0
                stack.pop()
            if sizes is not None:
                sym = args[0] if args else kwargs.get("sym")
                if hasattr(sym, "size"):
                    sizes.append(sym.size)
            if steps is not None:
                try:
                    counts.append(steps(result))
                except (AttributeError, IndexError, TypeError):
                    pass
            return result

        return traced

    def __enter__(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "specnorm" or name.startswith("specnorm.")]
        for layer, functions in TRACED.items():
            home = sys.modules.get(f"specnorm.{layer}")
            for fname in functions:
                original = getattr(home, fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(original, f"{layer}.{fname}")
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, value))
                            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
        return False

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, duration quantiles."""
        n = len(self.start)
        dur = np.array(self.end, dtype=float) - np.array(self.start, dtype=float)
        names = np.array(self.name_id)
        parent = np.array(self.parent)
        has_parent = parent >= 0
        child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child_sum
        out = {}
        for nid, span in enumerate(self.names):
            mask = names == nid
            d = dur[mask]
            out[span] = {
                "calls": int(d.size),
                "total_s": float(d.sum()),
                "self_s": float(self_time[mask].sum()),
                "p50_s": float(np.quantile(d, 0.5)) if d.size else 0.0,
                "p90_s": float(np.quantile(d, 0.9)) if d.size else 0.0,
            }
        return out
