"""Layer spans and work counters, recorded from outside the package.

Tracing replaces each public layer function listed in LAYERS by a wrapper
in every ``logcone`` module namespace that binds it (``report`` imports
functions by name, ``cone`` binds ``extreme_rays`` and ``build_rho``,
``tropical`` binds ``solve_lp``, and calls through a module alias such as
``il.rank`` go through the patched module attribute).  The package itself
is not modified, and nothing is wrapped unless a Tracer is installed.

A span is (name, start, end, parent, op).  Spans are kept in memory and
written out by the caller when the run ends.  A function's self time is its
span's duration minus the time covered by its child spans; the counters'
own bookkeeping time is charged to the enclosing span's children, so it
does not inflate any self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

LAYERS = {
    "serialize": ("graph_from_dict", "context_from_dict", "dump_json"),
    "graph": ("validate_graph",),
    "lattice": ("build_rho", "lattice_summary", "component_count"),
    "intlinalg": ("smith_normal_form", "hermite_row_basis", "kernel_basis", "elementary_divisors", "rank"),
    "simplex": ("solve_lp",),
    "tropical": ("tropical_feasibility", "tropical_certificate"),
    "dd": ("extreme_rays",),
    "cone": (
        "sigma_cone",
        "gluing_equations",
        "toric_ideal_generators",
        "eliminate_unit_entries",
        "obstruction_test",
    ),
    "dims": ("expected_dim_stratum",),
    "report": ("build_report",),
}

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# Work counters derived from the arguments and results of wrapped calls.
COUNTERS = (
    "simplex.solve_lp.tableau_cells",
    "intlinalg.smith_normal_form.max_bits",
    "dd.extreme_rays.halfspaces",
    "dd.extreme_rays.rays_out",
    "cone.obstruction_test.char_max_bits",
)


def _max_bits(*matrices) -> int:
    return max((abs(x).bit_length() for M in matrices for row in M for x in row), default=0)


def _count_solve_lp(tracer, args, kwargs, result):
    c, a_eq, _, a_ub = args[:4]
    n, m = len(c), len(a_eq) + len(a_ub)
    # the dense tableau: x+ and x- columns, one slack per inequality, one
    # artificial per row, plus the right-hand side; one objective row
    tracer.counts["simplex.solve_lp.tableau_cells"] += (m + 1) * (2 * n + len(a_ub) + m + 1)


def _count_snf(tracer, args, kwargs, result):
    key = "intlinalg.smith_normal_form.max_bits"
    tracer.counts[key] = max(tracer.counts[key], _max_bits(*result))


def _count_extreme_rays(tracer, args, kwargs, result):
    tracer.counts["dd.extreme_rays.halfspaces"] += len(args[0])
    tracer.counts["dd.extreme_rays.rays_out"] += len(result)


def _count_kernel_basis(tracer, args, kwargs, result):
    # inside obstruction_test the only kernel computed is the character
    # lattice (the left kernel of rho)
    if tracer.parent_name() == "cone.obstruction_test":
        key = "cone.obstruction_test.char_max_bits"
        tracer.counts[key] = max(tracer.counts[key], _max_bits(result))


_COUNTER_HOOKS = {
    "simplex.solve_lp": _count_solve_lp,
    "intlinalg.smith_normal_form": _count_snf,
    "dd.extreme_rays": _count_extreme_rays,
    "intlinalg.kernel_basis": _count_kernel_basis,
}


class Tracer:
    """In-memory span recorder.  Use as a context manager: entering patches
    the package's namespaces, leaving restores the original functions."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = {k: 0 for k in COUNTERS}
        self.op = -1
        self._stack: list[list] = []  # [name, index, child seconds]
        self._patched: list[tuple] = []

    def parent_name(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def _wrap(self, name, fn):
        hook = _COUNTER_HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][1] if self._stack else -1
            frame = [name, len(self.spans), 0.0]
            self.spans.append(None)
            self._stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans[frame[1]] = (name, start, end, parent, self.op)
                self.calls[name] += 1
                self.self_s[name] += (end - start) - frame[2]
                if self._stack:
                    self._stack[-1][2] += end - start
            if hook is not None:
                hook_start = clock()
                hook(self, args, kwargs, result)
                if self._stack:
                    self._stack[-1][2] += clock() - hook_start
            return result

        return wrapper

    def __enter__(self):
        modules = [m for key, m in list(sys.modules.items()) if key == "logcone" or key.startswith("logcone.")]
        for mod_name, fns in LAYERS.items():
            owner = sys.modules[f"logcone.{mod_name}"]
            for fn_name in fns:
                original = getattr(owner, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False
