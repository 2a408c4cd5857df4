"""Span recorder wrapped around the public entry points of each layer.

Nothing in the package is edited: ``install`` rebinds every module
attribute (and the two class methods and the harness stage table entries)
that holds a traced function to a wrapper that records a span, and
``Tracer.restore`` puts every original object back. Rebinding goes by
object identity across all loaded ``dyadica`` modules, because
``from .x import f`` leaves a second binding of ``f`` in the importing
module, and a call through that binding must be traced too.

A span is (key, start, end, parent) with perf_counter times, kept in
memory. Per-layer figures are derived from the spans after a round.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# layer -> traced entry points of that module; "Class.method" for methods
ENTRY_POINTS = {
    "space": ["generate_space", "build_space", "estimate_geometric_doubling",
              "replay_doubling_cover", "load_space", "space_from_dict"],
    "dyadic": ["build_adjacent_systems", "build_system", "check_system",
               "check_ball_coverage", "replay_coverage", "generalize",
               "maximal_cubes"],
    "kernel": ["build_kernel", "kernel_growth_constant",
               "kernel_bound_constant", "phi_table", "check_kernel_estimates"],
    "operators": ["build_dyadic_operator", "weighted_apply", "apply_direct",
                  "apply_dyadic_partition", "cube_sums", "check_forms_agree",
                  "check_self_adjoint", "check_shifted_sandwich",
                  "check_dyadic_below_direct", "check_direct_below_family",
                  "check_family_domination", "check_point_cube_testing"],
    "norms": ["verdict_theorem_b", "verdict_weak_type", "testing_constants",
              "operator_norm_strong", "operator_norm_weak", "lp_norm",
              "weak_quasinorm"],
    "maximal": ["verdict_theorem_a", "measure_doubling_constant",
                "maximal_params", "apply_M", "apply_M_dyadic",
                "testing_constant_maximal", "check_maximal_equivalence",
                "dual_weight"],
    "stopping": ["decompose_level_set", "rho_grid", "check_max_principle_1",
                 "check_max_principle_2", "build_principal_cubes",
                 "check_mainlemma", "check_universal_maximal"],
    "harness": ["run_scenario", "sweep", "random_measure"],
    "reporting": ["Scenario.from_dict", "content_hash", "Report.to_dict",
                  "reports_to_csv"],
    "cli": ["main"],
}

STAGE_PREFIX = "stage."


def _observers(counts: dict, modules: dict) -> dict:
    """Counters read off the arguments or result of a traced call."""
    norms = modules.get("norms")

    def doubling(args, result):
        counts["space.doubling_covers"] += len(result.covers)

    def system(args, result):
        counts["dyadic.accepted_systems"] += 1
        counts["dyadic.generations"] += result.num_generations
        counts["dyadic.cubes"] += len(result.cubes)

    def family(args, result):
        counts["dyadic.systems"] += len(result)

    def coverage(args, result):
        cert = result[1]
        if cert is not None:
            counts["dyadic.coverage_entries"] += len(cert.entries)

    def weighted(args, result):
        n = args[0].shape[0]
        # the off-diagonal copy, the fill and the product each touch n*n
        # doubles
        counts["operators.weighted_apply.bytes_computed"] += 3 * 8 * n * n

    def testing(args, result):
        counts["norms.testing.convention_hits"] += result.convention_hits
        counts["norms.testing.cubes_swept"] += \
            2 * len(norms.standard_cubes(args[1]))

    def levels(args, result):
        counts["stopping.rho_grid.levels"] += len(result)

    return {
        "space.estimate_geometric_doubling": doubling,
        "dyadic.build_system": system,
        "dyadic.build_adjacent_systems": family,
        "dyadic.check_ball_coverage": coverage,
        "operators.weighted_apply": weighted,
        "norms.testing_constants": testing,
        "stopping.rho_grid": levels,
    }


class Recorder:
    """In-memory spans; parents link each span to the one open around it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # observers hold this dict, so clear() empties it in place
        self.counts: defaultdict = defaultdict(int)
        self.clear()

    def clear(self) -> None:
        self.keys: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts.clear()
        self._stack: list[int] = []

    def key_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, key: int) -> int:
        i = len(self.keys)
        self.keys.append(key)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def dump(self, path: str) -> None:
        spans = [[self.names[k], s, e, p] for k, s, e, p in
                 zip(self.keys, self.starts, self.ends, self.parents)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": spans, "counts": dict(self.counts)}, fh)


def _wrap(fn, key: int, rec: Recorder, observe):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = rec.open(key)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if observe is not None:
            observe(args, result)
        return result
    traced.span_wrapper = True  # functools.wraps copied the wrapped name
    return traced


def _is_wrapper(value) -> bool:
    return getattr(getattr(value, "__func__", value), "span_wrapper", False)


class Tracer:
    """Installs span wrappers and remembers how to take every one out."""

    def __init__(self):
        self.rec = Recorder()
        self.missing: list[str] = []
        self._patches: list[tuple] = []

    @staticmethod
    def _modules() -> dict:
        return {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                if name.startswith("dyadica.") and mod is not None}

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        owners = [modules[name] for name in sorted(modules)]
        owners.append(sys.modules["dyadica"])
        observers = _observers(self.rec.counts, modules)
        self.missing = []
        for layer, entries in ENTRY_POINTS.items():
            mod = modules.get(layer)
            for entry in entries:
                key = f"{layer}.{entry}"
                if "." in entry:
                    self._patch_method(mod, entry, key)
                else:
                    self._patch_function(mod, entry, key, owners,
                                         observers.get(key))
        # run_scenario looks stages up in this table, so its entries are
        # rebound in place
        stages = getattr(modules.get("harness"), "_STAGES", None)
        if stages is None:
            self.missing.append("harness._STAGES")
            stages = {}
        for name, fn in list(stages.items()):
            key = self.rec.key_id(STAGE_PREFIX + name)
            self._patches.append((stages, name, fn, "item"))
            stages[name] = _wrap(fn, key, self.rec, None)

    def _patch_function(self, mod, entry: str, key: str, owners: list,
                        observe) -> None:
        fn = getattr(mod, entry, None)
        if fn is None:
            self.missing.append(key)
            return
        wrapper = _wrap(fn, self.rec.key_id(key), self.rec, observe)
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is fn:
                    self._set(owner, attr, wrapper)

    def _patch_method(self, mod, entry: str, key: str) -> None:
        cls_name, meth = entry.split(".")
        cls = getattr(mod, cls_name, None)
        raw = None if cls is None else cls.__dict__.get(meth)
        if raw is None:
            self.missing.append(key)
            return
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        wrapper = _wrap(fn, self.rec.key_id(key), self.rec, None)
        self._set(cls, meth, staticmethod(wrapper) if is_static else wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr], "attr"))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original, how = self._patches.pop()
            if how == "item":
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def leftovers(self) -> list[str]:
        """Bindings in the package that still point at a span wrapper."""
        found = []
        owners = dict(self._modules(), dyadica=sys.modules["dyadica"])
        for name, owner in owners.items():
            for attr, value in vars(owner).items():
                if _is_wrapper(value):
                    found.append(f"{name}.{attr}")
                if isinstance(value, type):
                    found += [f"{name}.{attr}.{meth}"
                              for meth, raw in vars(value).items()
                              if _is_wrapper(raw)]
        stages = getattr(owners.get("harness"), "_STAGES", {})
        found += [f"harness._STAGES[{k}]" for k, v in stages.items()
                  if _is_wrapper(v)]
        return found


def calls_under(rec: Recorder, child: str, parent: str) -> int:
    """Spans of ``child`` opened directly inside a span of ``parent``."""
    names = rec.names
    return sum(1 for k, p in zip(rec.keys, rec.parents)
               if p >= 0 and names[k] == child and names[rec.keys[p]] == parent)


def layer_figures(rec: Recorder) -> dict:
    """Busy ms, self ms and calls per traced entry point, plus counters.

    Busy time counts only the outermost span of a key, so a traced function
    reached again below itself is not counted twice. Self time subtracts
    the time covered by direct child spans.
    """
    n = len(rec.keys)
    dur = [rec.ends[i] - rec.starts[i] for i in range(n)]
    child = [0.0] * n
    for i, p in enumerate(rec.parents):
        if p >= 0:
            child[p] += dur[i]
    out: dict[str, float] = defaultdict(float)
    for i in range(n):
        name = rec.names[rec.keys[i]]
        out[name + ".calls"] += 1
        out[name + ".self_ms"] += 1e3 * (dur[i] - child[i])
        p, nested = rec.parents[i], False
        while p >= 0:
            if rec.keys[p] == rec.keys[i]:
                nested = True
                break
            p = rec.parents[p]
        if not nested:
            out[name + ".ms"] += 1e3 * dur[i]
        if name.startswith(STAGE_PREFIX):
            out[name + ".child_ms"] += 1e3 * child[i]
    out.update(rec.counts)
    return dict(out)
