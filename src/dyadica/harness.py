"""Scenario execution and parameter sweeps.

run_scenario resolves a Scenario into concrete objects (space, measures,
adjacent systems, kernel, model operators) and executes the requested
checks in dependency order: space, dyadic, kernel, operators, then the
leaf suites (theorem-b, weak-type, stopping, theorem-a). A check failure
is recorded as a "fail" row and the suite continues; only malformed input
aborts, with a ConfigError naming the offending field. Every check row is
built by one rule from the check's report, or from its reports over many
trials; only the verdict rows are written by hand. What two stages
need is a shared product built once: the envelopes (one PhiTable per
system, carrying C_K) serve the kernel checks and the dyadic operators,
and the theorem-B verdict serves the weak-type stage. When a shared
product cannot be built (say the kernel rejects the measure), the first
check that needed it fails with the builder's witness and every later
check depending on it reports "vacuous" with a blocked_by marker and
the failed check's name.

sweep replays a scenario template over the cross-product of a parameter
grid and a seed list, collecting per-run reports plus a summary that
aggregates the maximal empirical constants per geometry class. Errors
inside sweep combinations are collected, not raised.

All randomness is drawn from named SeedSequence channels, so identical
scenarios replay to byte-identical deterministic report views.
"""

from __future__ import annotations

import copy
import itertools
import math
import os
import time

import numpy as np

from .dyadic import (
    build_adjacent_systems,
    dyadic_parameters,
    replay_coverage,
)
from .errors import BadParams, ConfigError, DyadicaError
from .kernel import build_kernel, check_kernel_estimates, phi_table
from .maximal import check_maximal_equivalence, verdict_theorem_a
from .norms import verdict_theorem_b, verdict_weak_type
from .operators import (
    build_dyadic_operator,
    check_direct_below_family,
    check_dyadic_below_direct,
    check_family_domination,
    check_forms_agree,
    check_point_cube_testing,
    check_self_adjoint,
    check_shifted_sandwich,
)
from .policy import CheckReport
from .reporting import Report, Scenario, content_hash, jsonable, row
from .space import (
    PointMeasure,
    estimate_geometric_doubling,
    generate_space,
    load_space,
    replay_doubling_cover,
    space_from_dict,
)
from .stopping import (
    build_principal_cubes,
    check_mainlemma,
    check_max_principle_1,
    check_max_principle_2,
    check_universal_maximal,
    rho_grid,
)

HARNESS_SALT = 0x0ACE
MEASURE_SALT = 0x5EED


def random_measure(n: int, seed: int = 0, zero_fraction: float = 0.0,
                   extra: tuple[int, ...] = ()) -> PointMeasure:
    """Seeded small-integer masses; sums of these stay exact in floats."""
    if not 0.0 <= zero_fraction < 1.0:
        raise ConfigError(f"zero_fraction: need [0, 1), got {zero_fraction}")
    rng = np.random.default_rng(
        np.random.SeedSequence([MEASURE_SALT, int(seed), *map(int, extra)]))
    masses = rng.integers(1, 9, size=n).astype(float)
    if zero_fraction > 0.0:
        masses[rng.random(n) < zero_fraction] = 0.0
        if not masses.any():
            masses[int(rng.integers(0, n))] = 1.0
    return PointMeasure(masses)


def build_family(space, dyadic: dict, seed: int, relaxed_delta: bool):
    """Validate the ``dyadic`` fields of a scenario and build its family.

    An out-of-range field is malformed input, not a failed check: it raises
    a ConfigError naming ``dyadic.<field>``.
    """
    delta = dyadic.get("delta")
    if delta is not None:
        try:
            delta, _, _, strict = dyadic_parameters(space.a0, float(delta))
        except BadParams as exc:
            raise ConfigError(f"dyadic.delta: {exc}") from exc
        if not strict and not relaxed_delta:
            raise ConfigError(
                "dyadic.delta: exceeds the strict bound "
                f"1/(96 a0^6) = {1.0 / (96.0 * space.a0**6):.3e}; "
                "pass relaxed_delta to proceed with non-strict constants")
    for key in ("num_systems", "max_systems"):
        if dyadic.get(key) is not None and dyadic[key] < 1:
            raise ConfigError(f"dyadic.{key}: need at least 1, "
                              f"got {dyadic[key]}")
    x0 = dyadic.get("x0")
    if x0 is not None and not 0 <= x0 < space.n:
        raise ConfigError(f"dyadic.x0: need 0 <= x0 < {space.n}, got {x0}")
    return build_adjacent_systems(
        space, seed=seed, delta=delta,
        num_systems=dyadic.get("num_systems"),
        max_systems=dyadic.get("max_systems", 12), x0=x0)


class _Blocked(Exception):
    """A shared product already failed to build in an earlier stage."""

    def __init__(self, stage: str, error: DyadicaError):
        super().__init__(f"blocked by {stage}: {error}")
        self.stage = stage
        self.error = error


def _error_witness(exc: DyadicaError) -> dict:
    """The failed check's name (a BadParams has none: its class name), the
    message and the error's witness."""
    out = {"error": getattr(exc, "check", type(exc).__name__),
           "message": str(exc)}
    if getattr(exc, "witness", None):
        out["witness"] = jsonable(exc.witness)
    return out


class _Run:
    """Mutable state of one scenario execution."""

    def __init__(self, sc: Scenario, base_dir: str = ""):
        self.sc, self.base_dir = sc, base_dir
        self.rows: list[dict] = []
        self.constants: dict = {}
        self.timings: dict = {}
        self._cache: dict = {}

    # ---- lazy shared products -------------------------------------------

    def _product(self, name: str, build):
        hit = self._cache.get(name)
        if hit is not None:
            if hit[0] == "ok":
                return hit[1]
            raise _Blocked(name, hit[1])
        try:
            value = build()
        except ConfigError:
            raise
        except DyadicaError as exc:
            self._cache[name] = ("err", exc)
            raise
        self._cache[name] = ("ok", value)
        return value

    @property
    def space_bundle(self):
        return self._product("space", self._build_space)

    @property
    def space(self):
        return self.space_bundle[0]

    @property
    def roles(self) -> dict[str, PointMeasure]:
        return self.space_bundle[1]

    @property
    def family(self):
        return self._product("family", lambda: build_family(
            self.space, self.sc.dyadic, self.sc.seed, self.sc.relaxed_delta))

    @property
    def kernel(self):
        return self._product("kernel", self._build_kernel)

    @property
    def envelopes(self):
        return self._product("envelopes", self._build_envelopes)

    @property
    def ops(self):
        return self._product("operators", self._build_ops)

    @property
    def strong(self):
        return self._product("theorem-b", self._build_strong)

    @property
    def strict(self) -> bool:
        return self.family[0].strict_delta

    # ---- builders ---------------------------------------------------------

    def _build_space(self):
        spec = self.sc.space
        if "kind" in spec:
            params = {k: v for k, v in spec.items() if k not in ("kind", "seed")}
            seed = spec.get("seed", self.sc.seed)
            try:
                space, counting = generate_space(spec["kind"], seed=seed,
                                                 **params)
            except (DyadicaError, TypeError, ValueError) as exc:
                raise ConfigError(f"space: {exc}") from exc
            loaded = {"counting": counting, "mu": counting}
        elif "file" in spec:
            space, named = load_space(os.path.join(self.base_dir, spec["file"]))
            loaded = dict(named)
            loaded.setdefault("counting", PointMeasure(np.ones(space.n)))
        else:
            space, named = space_from_dict(spec)
            loaded = dict(named)
            loaded.setdefault("counting", PointMeasure(np.ones(space.n)))
        roles = {}
        for i, role in enumerate(("mu", "sigma", "omega")):
            spec_m = self.sc.measures.get(role)
            if spec_m is None:
                roles[role] = roles.get("mu") or loaded.get("mu") \
                    or loaded["counting"]
            else:
                roles[role] = self._resolve_measure(role, spec_m, space.n,
                                                    loaded, i)
        return space, {**loaded, **roles}

    def _resolve_measure(self, role: str, spec, n: int, loaded: dict,
                         index: int) -> PointMeasure:
        path = f"measures.{role}"
        if isinstance(spec, str):
            if spec not in loaded:
                raise ConfigError(
                    f"{path}: unknown measure {spec!r}; "
                    f"available: {sorted(loaded)}")
            return loaded[spec]
        if isinstance(spec, list):
            masses = np.asarray(spec, dtype=float)
            if masses.shape != (n,):
                raise ConfigError(f"{path}: expected {n} masses, "
                                  f"got {masses.shape}")
            try:
                return PointMeasure(masses)
            except DyadicaError as exc:
                raise ConfigError(f"{path}: {exc}") from exc
        params = spec["random"]
        extra = (int(params.get("seed", 0)), index)
        zf = float(params.get("zero_fraction", 0.0))
        try:
            return random_measure(n, seed=self.sc.seed, zero_fraction=zf,
                                  extra=extra)
        except ConfigError as exc:
            raise ConfigError(f"{path}.random.{exc}") from exc

    def _build_kernel(self):
        spec = self.sc.kernel
        if spec is None:
            raise ConfigError("kernel: required but not configured")
        space, roles = self.space_bundle
        kind = spec["type"]
        try:
            if kind == "frac_rho":
                return build_kernel(space, None, "frac_rho",
                                    alpha=spec["alpha"], n_dim=spec["n"],
                                    diag=spec.get("diag"))
            if kind == "ball_volume":
                name = spec.get("measure", "mu")
                if name not in roles:
                    raise ConfigError(f"kernel.measure: unknown measure "
                                      f"{name!r}; available: {sorted(roles)}")
                ball = spec.get("ball", "closed")
                if ball not in ("closed", "strict"):
                    raise ConfigError("kernel.ball: expected closed or "
                                      f"strict, got {ball!r}")
                variant = "ball_volume_closed" if ball == "closed" \
                    else "ball_volume"
                return build_kernel(space, roles[name], variant,
                                    gamma=spec["gamma"])
            values = np.array(spec["values"], dtype=float)
            if values.shape != (space.n, space.n):
                raise ConfigError(
                    f"kernel.values: expected {space.n}x{space.n}, "
                    f"got {values.shape}")
            if "diag" in spec:
                diag = np.asarray(spec["diag"], dtype=float)
                if diag.shape != (space.n,):
                    raise ConfigError(f"kernel.diag: expected {space.n} "
                                      f"values, got {diag.shape}")
                np.fill_diagonal(values, diag)
            return build_kernel(space, None, "matrix", values=values)
        except (TypeError, ValueError, BadParams) as exc:
            raise ConfigError(f"kernel: {exc}") from exc

    def _build_envelopes(self):
        kernel = self.kernel
        return tuple(phi_table(kernel, sys) for sys in self.family)

    def _build_ops(self):
        kernel, roles = self.kernel, self.roles
        return tuple(build_dyadic_operator(kernel, sys, roles["sigma"],
                                           roles["omega"], phi)
                     for sys, phi in zip(self.family, self.envelopes))

    def _build_strong(self):
        roles, ex = self.roles, self.sc.exponents
        return verdict_theorem_b(self.kernel, self.family, roles["sigma"],
                                 roles["omega"], ex["p"], ex["q"],
                                 budget=self.sc.budget, seed=self.sc.seed)

    # ---- row helpers ------------------------------------------------------

    def add(self, r: dict) -> None:
        self.rows.append(r)

    def check(self, name: str, reports, key: str | None = None) -> None:
        """One row for one check report or an iterable of them, drawn only
        up to the first fail: that fail, with details.get(key); else pass
        (non-strict if a passing report is) with the largest details[key]
        if any passed; else vacuous, with the first report's witness."""
        if isinstance(reports, CheckReport):
            reports = (reports,)
        first, status, constant = None, "vacuous", None
        for rep in reports:
            first = first or rep
            if rep.status == "fail":
                self.add(row(name, "fail", rep.details.get(key), rep.witness))
                return
            if rep.status == "pass":
                if status != "non-strict":
                    status = "pass" if rep.strict_mode else "non-strict"
                value = rep.details.get(key)
                if value is not None and (constant is None or value > constant):
                    constant = value
        witness = first.witness if status == "vacuous" and first else None
        self.add(row(name, status, constant, witness))

    def manual(self, name: str, ok: bool, constant=None,
               witness=None) -> None:
        """A verdict row: pass (non-strict under a relaxed delta) or fail."""
        status = ("pass" if self.strict else "non-strict") if ok else "fail"
        self.add(row(name, status, constant, witness))

    def trial_rng(self, *channel: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(
            [HARNESS_SALT, self.sc.seed, *channel]))

    def gamma(self) -> float:
        if self.sc.gamma is not None:
            return self.sc.gamma
        spec = self.sc.kernel
        if spec is not None and spec.get("type") == "ball_volume":
            return float(spec["gamma"])
        return 0.5


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def _stage_space(run: _Run) -> None:
    space = run.space
    run.add(row("space.quasi_triangle", "pass", constant=space.a0))
    est = estimate_geometric_doubling(space)
    ok = replay_doubling_cover(space, est)
    run.add(row("space.doubling_cover", "pass" if ok else "fail",
                constant=est.a1_upper,
                witness=None if ok else {"method": est.method}))
    run.constants.update(n_points=space.n, a0=space.a0,
                         a1_upper=est.a1_upper)


def _stage_dyadic(run: _Run) -> None:
    family = run.family
    for t, sys in enumerate(family):
        for rep in sys.property_reports:
            run.check(f"dyadic.t{t}.{rep.name}", rep)
    cert = family.certificate
    ok = cert.observed_C <= cert.C_bound and replay_coverage(family.systems, cert)
    run.manual("dyadic.coverage", ok, constant=cert.observed_C,
               witness=None if ok else {"observed_C": cert.observed_C,
                                        "C_bound": cert.C_bound})
    sys0 = family[0]
    run.constants.update(delta=sys0.delta, num_systems=len(family),
                         k_min=sys0.k_min, k_max=sys0.k_max,
                         observed_C=cert.observed_C,
                         coverage_bound=cert.C_bound)


def _stage_kernel(run: _Run) -> None:
    kernel = run.kernel
    for t, (sys, phi) in enumerate(zip(run.family, run.envelopes)):
        for rep in check_kernel_estimates(kernel, sys, phi):
            run.check(f"kernel.t{t}.{rep.name}", rep, "worst_ratio")
    # the constants depend on the kernel and delta only, not the system
    run.constants.update(k1=phi.k1, k2=phi.k2, C_K=phi.C_K)


def _stage_operators(run: _Run) -> None:
    ops = run.ops
    budget = run.sc.budget
    for t, op in enumerate(ops):
        run.check(f"operators.t{t}.forms_agree", check_forms_agree(op),
                  "worst_rel_err")
        run.check(
            f"operators.t{t}.self_adjoint",
            check_self_adjoint(op, seed=run.sc.seed, trials=max(budget, 8)),
            "worst_rel_err")
        rng = run.trial_rng(1, t)
        for m in (1, 2, 3):
            run.check(f"operators.t{t}.sandwich_m{m}",
                      check_shifted_sandwich(op, rng.random((budget, op.n)), m),
                      "worst_ratio")
        run.check(f"operators.t{t}.dyadic_below_direct",
                  check_dyadic_below_direct(op), "worst_ratio")
    run.check("operators.direct_below_family",
              check_direct_below_family(ops), "worst_margin")
    run.check("operators.family_domination", check_family_domination(
        ops, run.trial_rng(2).random((budget, ops[0].n))))
    run.constants.setdefault("C_K", ops[0].C_K)


def _stage_theorem_b(run: _Run) -> None:
    verdict = run.strong
    p, q = run.sc.exponents["p"], run.sc.exponents["q"]
    run.manual("theorem-b.testing_below_norm", True, constant=verdict.n_lb)
    run.manual("theorem-b.equivalence_ratio",
               math.isfinite(verdict.ratio) or verdict.testing_sum == 0.0,
               constant=verdict.ratio,
               witness=None if math.isfinite(verdict.ratio) else
               {"n_lb": verdict.n_lb, "testing_sum": verdict.testing_sum})
    for t, op in enumerate(run.ops):
        run.check(f"theorem-b.t{t}.point_cubes",
                  check_point_cube_testing(op, p, q, verdict.testing.strong,
                                           verdict.testing.dual),
                  "worst_ratio")
    run.constants.update(testing_strong=verdict.testing.strong,
                         testing_dual=verdict.testing.dual,
                         norm_lb=verdict.n_lb,
                         ratio_strong=verdict.ratio)


def _stage_weak_type(run: _Run) -> None:
    verdict = verdict_weak_type(run.strong, run.ops, budget=run.sc.budget,
                                seed=run.sc.seed)
    run.manual("weak-type.testing_below_norm", True,
               constant=verdict.weak_norm.lower)
    run.manual("weak-type.equivalence_ratio", True, constant=verdict.ratio)
    for entry in verdict.per_system:
        run.manual(f"weak-type.t{entry['system']}.dual_testing", True,
                   constant=entry["ratio"])
    run.constants.update(weak_norm_lb=verdict.weak_norm.lower,
                         weak_ratio=verdict.ratio)


def _stage_stopping(run: _Run) -> None:
    ops = run.ops
    sigma = run.roles["sigma"]
    budget = run.sc.budget
    p = run.sc.exponents["p"]
    for t, op in enumerate(ops):
        sys = op.system
        F = run.trial_rng(3, t).random((budget, op.n))
        cases = [(f, image, rho_grid(op, f, image))
                 for f, image in zip(F, op.apply(F))]
        for key, checker in (("max_principle_1", check_max_principle_1),
                             ("max_principle_2", check_max_principle_2)):
            run.check(f"stopping.t{t}.{key}",
                      (checker(op, f, grid, image=image)
                       for f, image, grid in cases))
        draws = run.trial_rng(4, t).random((budget, op.n))
        run.check(f"stopping.t{t}.principal_mainlemma",
                  (check_mainlemma(sys, build_principal_cubes(
                      sys, sigma, f).cubes, sigma, f, p) for f in draws))
        run.check(f"stopping.t{t}.universal_maximal",
                  check_universal_maximal(sys, sigma, p,
                                          trials=max(20, 2 * budget),
                                          seed=run.sc.seed),
                  "max_ratio_of_p_prime")


def _stage_theorem_a(run: _Run) -> None:
    roles = run.roles
    gamma = run.gamma()
    p, q = run.sc.exponents["p"], run.sc.exponents["q"]
    verdict = verdict_theorem_a(run.family, roles["mu"], roles["sigma"],
                                roles["omega"], gamma, p, q,
                                budget=run.sc.budget, seed=run.sc.seed)
    run.constants.update(gamma=gamma,
                         doubling_constant=verdict.params.doubling_constant)
    if verdict.branch == "necessity":
        ok = bool(verdict.confirmed)
        run.manual("theorem-a.necessity", ok,
                   witness={"violating_set": verdict.violating_set,
                            "lhs": verdict.lhs, "rhs": verdict.rhs})
        run.add(row("theorem-a.dual_weight", "vacuous",
                    witness={"reason": "mu is not absolutely continuous"}))
    else:
        run.manual("theorem-a.testing_below_norm", True,
                   constant=verdict.norm.lower)
        run.manual("theorem-a.equivalence_ratio", True,
                   constant=verdict.ratio)
        run.manual("theorem-a.dual_weight", True)
        run.constants.update(maximal_testing=verdict.testing.value,
                             maximal_norm_lb=verdict.norm.lower,
                             maximal_ratio=verdict.ratio,
                             maximal_testing_dyadic=verdict.dyadic_testing.value)
    eq = check_maximal_equivalence(run.family, verdict.params,
                                   trials=max(10, 2 * run.sc.budget),
                                   seed=run.sc.seed)
    run.check("theorem-a.ball_dyadic_equivalence", eq, "dyadic_over_ball")
    if eq.status != "vacuous":
        d = eq.details
        run.constants.update(equiv_dyadic_over_ball=d["dyadic_over_ball"],
                             equiv_ball_over_sum=d["ball_over_sum"])


_STAGES = {
    "space": _stage_space,
    "dyadic": _stage_dyadic,
    "kernel": _stage_kernel,
    "operators": _stage_operators,
    "theorem-b": _stage_theorem_b,
    "weak-type": _stage_weak_type,
    "stopping": _stage_stopping,
    "theorem-a": _stage_theorem_a,
}


def run_scenario(scenario: Scenario | dict, base_dir: str = "") -> Report:
    """Execute every requested check; failures are rows, not exceptions.
    A relative ``space.file`` is read from base_dir, and echoed as written."""
    if not isinstance(scenario, Scenario):
        scenario = Scenario.from_dict(scenario)
    run = _Run(scenario, base_dir)
    for name in scenario.checks:
        t0 = time.perf_counter()
        try:
            _STAGES[name](run)
        except _Blocked as blocked:
            run.add(row(name, "vacuous",
                        witness={"blocked_by": blocked.stage, "error":
                                 _error_witness(blocked.error)["error"]}))
        except ConfigError:
            raise
        except DyadicaError as exc:
            run.add(row(name, "fail", witness=_error_witness(exc)))
        run.timings[name] = round(time.perf_counter() - t0, 6)
    return Report(scenario=scenario.to_dict(), scenario_hash=scenario.hash,
                  checks=run.rows, constants=run.constants,
                  timings=run.timings)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def set_by_path(doc: dict, dotted: str, value) -> None:
    """Write a value at a dotted path, creating intermediate objects."""
    parts = dotted.split(".")
    cur = doc
    for part in parts[:-1]:
        nxt = cur.setdefault(part, {})
        if not isinstance(nxt, dict):
            raise ConfigError(f"{dotted}: path runs through a non-object "
                              f"at {part!r}")
        cur = nxt
    cur[parts[-1]] = value


def _space_label(space_spec: dict) -> str:
    if "kind" in space_spec:
        base = str(space_spec["kind"])
    elif "file" in space_spec:
        base = "file:" + str(space_spec["file"]).rsplit("/", 1)[-1]
    else:
        base = "inline"
    return f"{base}#{content_hash(space_spec)[:8]}"


def summarize(reports: list[Report], errors: list[dict]) -> dict:
    groups: dict[str, dict] = {}
    for rep in reports:
        label = _space_label(rep.scenario.get("space", {}))
        g = groups.setdefault(label, {
            "runs": 0, "counts": {"pass": 0, "fail": 0, "vacuous": 0,
                                  "non-strict": 0},
            "constants_max": {}})
        g["runs"] += 1
        for status, k in rep.counts.items():
            g["counts"][status] += k
        for key, value in rep.constants.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                prev = g["constants_max"].get(key)
                v = float(value)
                if prev is None or v > prev:
                    g["constants_max"][key] = v
    return {
        "runs": len(reports),
        "groups": groups,
        "errors": errors,
        "any_fail": any(rep.failed for rep in reports),
    }


def sweep(template: dict, grid: dict, seeds=None,
          base_dir: str = "") -> tuple[list[Report], dict]:
    """Cross-product execution of template x grid x seeds.

    Config errors in individual combinations are collected into the
    summary's errors list rather than raised; an entirely empty execution
    plan is a ConfigError.
    """
    if not isinstance(template, dict):
        raise ConfigError("template: expected a scenario object")
    if not isinstance(grid, dict):
        raise ConfigError("grid: expected an object of value lists")
    for key, values in grid.items():
        if not isinstance(values, (list, tuple)):
            raise ConfigError(f"grid.{key}: expected a list of values")
        if len(values) == 0:
            raise ConfigError(f"grid.{key}: empty value list")
    if seeds is None:
        seeds = [template.get("seed", 0)]
    if not (isinstance(seeds, (list, tuple)) and all(
            isinstance(s, int) and not isinstance(s, bool) for s in seeds)):
        raise ConfigError(f"seeds: expected a list of integers, got {seeds!r}")
    if not grid and not seeds:
        raise ConfigError("grid: empty sweep, nothing to run")
    if not seeds:
        raise ConfigError("seeds: empty seed list")
    keys = sorted(grid)
    reports: list[Report] = []
    errors: list[dict] = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        for seed in seeds:
            doc = copy.deepcopy(template)
            for key, value in zip(keys, combo):
                set_by_path(doc, key, value)
            doc["seed"] = seed
            try:
                reports.append(run_scenario(doc, base_dir))
            except ConfigError as exc:
                errors.append({"grid": jsonable(dict(zip(keys, combo))),
                               "seed": seed, "error": str(exc)})
    return reports, summarize(reports, errors)
