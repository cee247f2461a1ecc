"""Per-layer tracing from outside the program.

Each layer is a module of genpi; its coarse public callables are wrapped
while a traced round runs and restored afterwards.  A function is rebound
in every genpi module that holds it, because modules bind names at import
(actions imports multiplier_violation, codim imports is_identity).  A name
that no longer exists is reported as absent, never as an error.

Times are inclusive: a traced call made inside another traced call counts
for both layers.  codim.self_s is the query time outside every traced call.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (metric, module, class or None, attribute)
TIMED = [
    ("_fastrank.add_rows_s", "genpi._fastrank", "FastIntRowSpace", "add_rows"),
    ("_fastrank.reduce_rows_s", "genpi._fastrank", "FastIntRowSpace", "reduce_rows"),
    ("linalg.echelon_s", "genpi.linalg", "IntRowEchelon", "add_row"),
    ("linalg.subspace_s", "genpi.linalg", "Subspace", "from_vectors"),
    ("actions.validate_s", "genpi.actions", "Action", "validate"),
    ("multipliers.violation_s", "genpi.multipliers", None, "multiplier_violation"),
    ("algebras.validate_s", "genpi.algebras", "StructureAlgebra", "validate"),
    ("polynomials.is_identity_s", "genpi.polynomials", None, "is_identity"),
]
# evaluation-row producers of codim; generators are counted as they yield
ROW_SOURCES = ["_iter_rows_int", "_iter_rows", "_grassmann_reduced_rows"]
DEDUP_SCOPE = "_rank_of_row_arrays"

LAYER_METRICS = [m for m, *_ in TIMED] + [
    "codim.self_s",
    "codim.rows_generated",
    "codim.duplicates_skipped",
    "_fastrank.rows_fed",
    "_fastrank.overflows",
    "linalg.echelon_rows",
]
UNITS = {m: ("s" if m.endswith("_s") else "count") for m in LAYER_METRICS}


class Tracer:
    def __init__(self):
        self.values = defaultdict(float)
        self.active: list[str] = []
        self.outermost_s = 0.0
        self.absent: list[str] = []
        self._restore: list[tuple] = []

    # -- recording -------------------------------------------------------------

    def reset(self):
        self.values.clear()
        self.outermost_s = 0.0

    def _timed(self, metric: str, fn):
        tracer = self
        fast = metric.startswith("_fastrank")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # reduce_rows inside add_rows is part of add_rows
            if metric == "_fastrank.reduce_rows_s" and "_fastrank.add_rows_s" in tracer.active:
                return fn(*args, **kwargs)
            if metric == "_fastrank.add_rows_s":
                tracer.values["_fastrank.rows_fed"] += len(args[1])
            elif metric == "linalg.echelon_s":
                tracer.values["linalg.echelon_rows"] += 1
            outer_fast = fast and not any(a.startswith("_fastrank") for a in tracer.active)
            tracer.active.append(metric)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if outer_fast and type(exc).__name__ == "IntOverflow":
                    tracer.values["_fastrank.overflows"] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                tracer.active.pop()
                tracer.values[metric] += dt
                if not tracer.active:
                    tracer.outermost_s += dt

        return wrapper

    def _counted_rows(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if isinstance(out, list):
                tracer.values["codim.rows_generated"] += len(out)
                return out
            return tracer._count_yields(out)

        return wrapper

    def _count_yields(self, gen):
        for row in gen:
            self.values["codim.rows_generated"] += 1
            yield row

    def _dedup_scope(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            v = tracer.values
            gen0 = v["codim.rows_generated"]
            fed0 = v["_fastrank.rows_fed"] + v["linalg.echelon_rows"]
            try:
                return fn(*args, **kwargs)
            finally:
                fed = v["_fastrank.rows_fed"] + v["linalg.echelon_rows"] - fed0
                v["codim.duplicates_skipped"] += v["codim.rows_generated"] - gen0 - fed

        return wrapper

    # -- patching -----------------------------------------------------------------

    def install(self):
        self.absent = []
        for metric, modname, clsname, attr in TIMED:
            mod = sys.modules.get(modname)
            owner = getattr(mod, clsname, None) if clsname else mod
            if owner is None or attr not in vars(owner):
                self.absent.append(f"{modname}.{clsname + '.' if clsname else ''}{attr}")
                continue
            if clsname:
                self._patch_method(owner, attr, lambda fn, m=metric: self._timed(m, fn))
            else:
                self._patch_function(vars(owner)[attr], lambda fn, m=metric: self._timed(m, fn))
        codim = sys.modules.get("genpi.codim")
        for name in ROW_SOURCES:
            if codim is None or name not in vars(codim):
                self.absent.append(f"genpi.codim.{name}")
            else:
                self._patch_function(vars(codim)[name], self._counted_rows)
        if codim is None or DEDUP_SCOPE not in vars(codim):
            self.absent.append(f"genpi.codim.{DEDUP_SCOPE}")
        else:
            self._patch_function(vars(codim)[DEDUP_SCOPE], self._dedup_scope)

    def _patch_method(self, cls, attr, make):
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._restore.append((cls, attr, raw))
        setattr(cls, attr, new)

    def _patch_function(self, fn, make):
        wrapped = make(fn)
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != "genpi" or mod is None:
                continue
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self._restore.append((mod, name, fn))
                    setattr(mod, name, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # -- results -------------------------------------------------------------------

    def snapshot(self, query_s: float) -> dict:
        """Metrics of one traced query that took query_s seconds."""
        out = {m: self.values.get(m, 0.0) for m in LAYER_METRICS}
        out["codim.self_s"] = query_s - self.outermost_s
        return out
