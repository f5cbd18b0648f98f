"""Per-layer spans for the traced benchmark run.

``install`` wraps each layer's public functions where they are bound: in
every loaded ``weightlab`` module namespace (and in module-level dicts such
as the suite table), plus the ``GridFunction`` cube-sum methods and the
exact-prefix method on the class.  A wrapper records one span
(id, layer, name, start, end, parent id, op id) per call and may add to a
counter; ``uninstall`` puts the originals back.  Untraced runs never call
``install``.  A listed name that a later version of the package no longer
has is skipped, so its metrics read 0.

Self time of a span is its duration minus the union of its child spans.
The only threads in the package are the workers of ``run_suites``; a span
opened on a worker thread with no open span of its own takes the main
thread's innermost open span (``run_suites`` itself) as its parent.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

LAYERS = {
    "funcspace": ["segment_mass", "weight_mass", "compose_matrix",
                  "sample_to_grid", "sample_product_to_grid",
                  "sample_callable_to_grid", "load_weight", "load_matrix",
                  "load_family", "GridFunction.cube_sum",
                  "GridFunction.cube_average", "GridFunction.cube_mass",
                  "GridFunction._ensure_exact_prefix"],
    "young": ["luxemburg_norm", "luxemburg_norm_of_values", "complementary",
              "bp_integral", "holder_defect"],
    "maximal": ["hl_maximal", "fractional_maximal", "dyadic_maximal",
                "orlicz_maximal", "matrix_compose"],
    "weightclass": ["ap_product", "aap_product", "rh_ratio",
                    "class_constant", "finite_order_reduction",
                    "subset_mass_ratio_check", "rh_inclusion_check"],
    "czlab": ["cz_decompose", "level_sets", "ekj_expansion_check",
              "theorem_chain_check"],
    "suites": ["suite_prop41", "suite_prop42", "suite_prop43",
               "suite_theorems", "run_suites"],
    "cli": ["main"],
    "report": ["canonical_json", "write_report"],
}
SUITES = ("prop41", "prop42", "prop43", "theorems")
SWEEPS = ("hl_maximal", "fractional_maximal", "dyadic_maximal",
          "orlicz_maximal")
NORMS = ("luxemburg_norm", "luxemburg_norm_of_values")
CUBE_PRODUCTS = ("ap_product", "aap_product", "rh_ratio")
EXACT_PREFIX = "_ensure_exact_prefix"

# per-layer metrics in report order: (name, unit)
METRICS = [
    ("funcspace.self_s", "s"), ("funcspace.exact_prefix_s", "s"),
    ("funcspace.exact_prefix_cells", "count"),
    ("maximal.self_s", "s"), ("maximal.calls", "count"),
    ("maximal.cell_lengths", "count"), ("maximal.ns_per_cell_length", "ns"),
    ("maximal.compose_s", "s"),
    ("czlab.self_s", "s"), ("czlab.cz_decompose_s", "s"),
    ("czlab.stopping_cubes", "count"), ("czlab.levels", "count"),
    ("young.self_s", "s"), ("young.norm_calls", "count"),
    ("young.us_per_norm", "us"),
    ("weightclass.self_s", "s"), ("weightclass.cubes", "count"),
    *((f"suites.{s}_s", "s") for s in SUITES), ("suites.self_s", "s"),
    ("cli.self_s", "s"), ("report.self_s", "s"),
    ("trace.overhead_s", "s"),
]


def _dyadic_count(n):
    """Number of side lengths in the library's "dyadic" length list."""
    count = 1
    while n > 1 and n % 2 == 0:
        n //= 2
        count += 1
    return count + (n != 1)


def _cell_lengths(name, bound):
    """Cells times window lengths swept by one maximal call."""
    f = bound["f"]
    n = f.shape[0]
    if name == "dyadic_maximal":
        return f.values.size * _dyadic_count(n)
    family = bound.get("family")
    if family is not None:
        return f.values.size * (family.levels[1] - family.levels[0] + 1)
    lengths = bound.get("lengths", "all")
    if lengths == "all":
        return f.values.size * n
    if lengths == "dyadic":
        return f.values.size * _dyadic_count(n)
    return f.values.size * len(set(lengths))


class Tracer:
    def __init__(self):
        self.spans = []            # (id, layer, name, t0, t1, parent, op)
        self.counters = defaultdict(float)
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def wrap(self, layer, name, fn, after=None):
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else None
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append((sid, layer, name, t0, t1, parent, self.op))
            if after is not None:
                after(args, kwargs, out)
            return out
        return traced

    def _after(self, name, fn):
        """Counter hook for one wrapped function, or None."""
        c = self.counters
        if name in SWEEPS:
            sig = inspect.signature(fn)

            def sweep(args, kwargs, out):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                c["maximal.calls"] += 1
                c["maximal.cell_lengths"] += _cell_lengths(name, bound.arguments)
            return sweep
        if name == "cz_decompose":
            def stopping(args, kwargs, out):
                c["czlab.levels"] += len(out.ks)
                c["czlab.stopping_cubes"] += sum(len(v) for v in out.cubes.values())
            return stopping
        if name in NORMS:
            def norm(args, kwargs, out):
                c["young.norm_calls"] += 1
            return norm
        if name == "class_constant":
            sig = inspect.signature(fn)

            def family(args, kwargs, out):
                c["weightclass.cubes"] += sig.bind(*args, **kwargs) \
                    .arguments["family"].count()
            return family
        if name in CUBE_PRODUCTS:
            def one(args, kwargs, out):
                c["weightclass.cubes"] += 1
            return one
        if name == EXACT_PREFIX:
            def cells(args, kwargs, out):
                c["funcspace.exact_prefix_cells"] += args[0].values.size
            return cells
        return None

    def _exact_prefix(self, fn):
        """Span only the calls that build the prefix, not the cache hits."""
        build = self.wrap("funcspace", EXACT_PREFIX, fn,
                          self._after(EXACT_PREFIX, fn))

        @functools.wraps(fn)
        def ensure(grid):
            if getattr(grid, "_int_prefix", None) is not None:
                return fn(grid)
            return build(grid)
        return ensure

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "weightlab" or key.startswith("weightlab.")]
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"weightlab.{layer}")
            for qual in names:
                owner_name, _, name = qual.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                fn = getattr(owner, name, None)
                if fn is None:
                    continue
                if name == EXACT_PREFIX:
                    wrapper = self._exact_prefix(fn)
                else:
                    wrapper = self.wrap(layer, name, fn, self._after(name, fn))
                if owner_name:
                    self._patch(setattr, owner, name, fn, wrapper)
                    continue
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            self._patch(setattr, m, key, fn, wrapper)
                        elif isinstance(val, dict):
                            for k, v in list(val.items()):
                                if v is fn:
                                    self._patch(dict.__setitem__, val, k,
                                                fn, wrapper)

    def _patch(self, assign, owner, key, fn, wrapper):
        assign(owner, key, wrapper)
        self._undo.append(functools.partial(assign, owner, key, fn))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def metrics(self, n_ops, overhead_s):
        """Per-layer metrics, per op over the traced ops."""
        children = defaultdict(list)
        for sid, layer, name, t0, t1, parent, op in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        self_s = defaultdict(float)
        incl = defaultdict(float)
        for sid, layer, name, t0, t1, parent, op in self.spans:
            self_s[layer] += (t1 - t0) - _covered(t0, t1, children.get(sid, ()))
            incl[name] += t1 - t0
        c = self.counters
        per_op = {
            "funcspace.exact_prefix_s": incl[EXACT_PREFIX],
            "funcspace.exact_prefix_cells": c["funcspace.exact_prefix_cells"],
            "maximal.calls": c["maximal.calls"],
            "maximal.cell_lengths": c["maximal.cell_lengths"],
            "maximal.compose_s": incl["matrix_compose"],
            "czlab.cz_decompose_s": incl["cz_decompose"],
            "czlab.stopping_cubes": c["czlab.stopping_cubes"],
            "czlab.levels": c["czlab.levels"],
            "young.norm_calls": c["young.norm_calls"],
            "weightclass.cubes": c["weightclass.cubes"],
            **{f"{layer}.self_s": self_s[layer] for layer in LAYERS},
            **{f"suites.{s}_s": incl[f"suite_{s}"] for s in SUITES},
        }
        out = {k: v / n_ops for k, v in per_op.items()}
        sweep_s = self_s["maximal"] - incl["matrix_compose"]
        cl = c["maximal.cell_lengths"]
        out["maximal.ns_per_cell_length"] = sweep_s / cl * 1e9 if cl else 0.0
        calls = c["young.norm_calls"]
        norm_s = sum(incl[nm] for nm in NORMS)
        out["young.us_per_norm"] = norm_s / calls * 1e6 if calls else 0.0
        out["trace.overhead_s"] = overhead_s
        return {name: out[name] for name, _ in METRICS}


def _covered(t0, t1, intervals):
    """Length of [t0, t1] covered by the union of the intervals."""
    total = 0.0
    end = t0
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, t1)
        if b > a:
            total += b - a
            end = b
    return total
