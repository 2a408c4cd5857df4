"""Scenario descriptions and run reports.

A Scenario is a plain JSON-able description of one verification run: where
the space comes from, which measures play mu / sigma / omega, the kernel,
dyadic construction parameters, exponents, the list of requested checks,
and the seed and search budget. Identical scenarios replay to identical
reports; the report hash is taken over a canonical JSON encoding with the
environment stamp and wall-clock timings stripped, so golden-file tests
compare bytes.

Report rows carry {name, status, constant, witness}. Status is one of
"pass", "fail", "vacuous" (nothing satisfied the hypothesis, visibly
distinct from pass), and "non-strict" (the check passed but was computed
under a relaxed delta, outside the range its guarantees are proved for).
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .policy import TOLERANCES

KNOWN_CHECKS = ("space", "dyadic", "kernel", "operators", "theorem-b",
                "weak-type", "stopping", "theorem-a")
STATUSES = ("pass", "fail", "vacuous", "non-strict")

# checks that cannot run without a kernel spec
_KERNEL_CHECKS = frozenset({"kernel", "operators", "theorem-b", "weak-type",
                            "stopping"})
# checks whose norms need a finite target exponent
_FINITE_Q_CHECKS = frozenset({"theorem-b", "weak-type"})

_SCENARIO_KEYS = frozenset({"space", "measures", "kernel", "dyadic",
                            "exponents", "checks", "seed", "budget", "gamma",
                            "relaxed_delta"})
_DYADIC_KEYS = frozenset({"delta", "num_systems", "max_systems", "x0"})
_EXPONENT_KEYS = frozenset({"p", "q"})
_RANDOM_KEYS = frozenset({"seed", "zero_fraction"})
_KERNEL_KEYS = {"frac_rho": {"type", "alpha", "n", "diag"},
                "ball_volume": {"type", "measure", "ball", "gamma"},
                "matrix": {"type", "values", "diag"}}
_KERNEL_REQUIRED = {"frac_rho": ("alpha", "n"), "ball_volume": ("gamma",),
                    "matrix": ("values",)}
_MEASURE_ROLES = ("mu", "sigma", "omega")


def jsonable(obj):
    """Recursively convert to plain JSON types; non-finite floats to strings."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isfinite(v):
            return v
        return "inf" if v == math.inf else ("-inf" if v == -math.inf else "nan")
    if obj is None or isinstance(obj, str):
        return obj
    return str(obj)


def canonical_json(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def content_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def _expect(cond: bool, path: str, why: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {why}")


def _known_fields(doc: dict, allowed, prefix: str) -> None:
    for key in doc:
        _expect(key in allowed, f"{prefix}{key}",
                f"unknown field, expected one of {sorted(allowed)}")


def _read_json(path: str, label: str):
    """The JSON document at path, else a ConfigError starting with label."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{label}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{label}: invalid JSON ({exc})") from exc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_exponent(value, path: str) -> float:
    if value in ("inf", "Infinity"):
        return math.inf
    _expect(_is_number(value), path, f"expected a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Scenario:
    """One fully determined verification run."""

    space: dict
    measures: dict
    kernel: dict | None
    dyadic: dict
    exponents: dict
    checks: tuple[str, ...]
    seed: int
    budget: int
    gamma: float | None
    relaxed_delta: bool

    @staticmethod
    def from_dict(doc: dict) -> "Scenario":
        _expect(isinstance(doc, dict), "scenario", "expected an object")
        _known_fields(doc, _SCENARIO_KEYS, "")

        space = doc.get("space")
        _expect(isinstance(space, dict), "space",
                "required object with kind, file, or metric")
        forms = [k for k in ("kind", "file", "metric") if k in space]
        _expect(len(forms) == 1, "space",
                f"need exactly one of kind/file/metric, got {forms or 'none'}")
        if "file" in space:
            _expect(isinstance(space["file"], str), "space.file",
                    f"expected a path, got {space['file']!r}")
            _known_fields(space, ("file",), "space.")

        measures = doc.get("measures", {})
        _expect(isinstance(measures, dict), "measures", "expected an object")
        for role, spec in measures.items():
            _expect(role in _MEASURE_ROLES, f"measures.{role}",
                    f"unknown role, expected one of {_MEASURE_ROLES}")
            ok = isinstance(spec, (str, list)) or (
                isinstance(spec, dict) and set(spec) == {"random"})
            _expect(ok, f"measures.{role}",
                    "expected a measure name, a mass list, or {'random': {...}}")
            if isinstance(spec, list):
                _expect(all(map(_is_number, spec)), f"measures.{role}",
                        f"expected a list of numbers, got {spec!r}")
            if isinstance(spec, dict):
                path, random = f"measures.{role}.random", spec["random"]
                _expect(isinstance(random, dict), path, "expected an object")
                _known_fields(random, _RANDOM_KEYS, f"{path}.")
                seed = random.get("seed", 0)
                _expect(_is_int(seed) and seed >= 0, f"{path}.seed",
                        f"expected an integer >= 0, got {seed!r}")
                zf = random.get("zero_fraction", 0.0)
                _expect(_is_number(zf), f"{path}.zero_fraction",
                        f"expected a number, got {zf!r}")

        kernel = doc.get("kernel")
        if kernel is not None:
            _expect(isinstance(kernel, dict) and "type" in kernel, "kernel",
                    "expected an object with a type field")
            _expect(isinstance(kernel["type"], str)
                    and kernel["type"] in _KERNEL_KEYS,
                    "kernel.type", f"unknown kernel type {kernel['type']!r}")
            _known_fields(kernel, _KERNEL_KEYS[kernel["type"]], "kernel.")
            for key in _KERNEL_REQUIRED[kernel["type"]]:
                _expect(kernel.get(key) is not None, f"kernel.{key}",
                        f"required for a {kernel['type']} kernel")

        dyadic = doc.get("dyadic", {})
        _expect(isinstance(dyadic, dict), "dyadic", "expected an object")
        _known_fields(dyadic, _DYADIC_KEYS, "dyadic.")
        for key, value in dyadic.items():
            # every field but max_systems defaults to null
            if key == "delta":
                ok, want = value is None or _is_number(value), "a number"
            else:
                ok, want = _is_int(value) or (
                    value is None and key != "max_systems"), "an integer"
            _expect(ok, f"dyadic.{key}", f"expected {want}, got {value!r}")

        exponents = doc.get("exponents", {"p": 2.0, "q": 2.0})
        _expect(isinstance(exponents, dict), "exponents", "expected an object")
        _known_fields(exponents, _EXPONENT_KEYS, "exponents.")
        p = _as_exponent(exponents.get("p", 2.0), "exponents.p")
        q = _as_exponent(exponents.get("q", 2.0), "exponents.q")
        _expect(1.0 < p < math.inf, "exponents.p", "need 1 < p < inf")
        _expect(p <= q, "exponents.q", "need p <= q")

        checks = doc.get("checks", KNOWN_CHECKS)
        _expect(isinstance(checks, (list, tuple)), "checks",
                f"expected a list of check names, got {checks!r}")
        _expect(len(checks) > 0, "checks", "need at least one check")
        for name in checks:
            _expect(name in KNOWN_CHECKS, f"checks.{name}",
                    f"unknown check, expected one of {KNOWN_CHECKS}")
        requested = [c for c in KNOWN_CHECKS if c in checks]
        if kernel is None:
            needy = sorted(set(requested) & _KERNEL_CHECKS)
            _expect(not needy, "kernel",
                    f"required for check {needy[0]!r}" if needy else "")
        if q == math.inf:
            needy = sorted(set(requested) & _FINITE_Q_CHECKS)
            _expect(not needy, "exponents.q",
                    f"must be finite for check {needy[0]!r}" if needy else "")

        seed = doc.get("seed", 0)
        _expect(_is_int(seed) and 0 <= seed < 2**64, "seed",
                "expected an integer in [0, 2^64)")
        budget = doc.get("budget", 8)
        _expect(_is_int(budget) and budget >= 1, "budget",
                "expected an integer >= 1")

        gamma = doc.get("gamma")
        if gamma is not None:
            _expect(_is_number(gamma) and 0.0 <= gamma < 1.0,
                    "gamma", "expected a number in [0, 1)")
            gamma = float(gamma)
        relaxed = doc.get("relaxed_delta", False)
        _expect(isinstance(relaxed, bool), "relaxed_delta", "expected a bool")

        return Scenario(space=dict(space), measures=dict(measures),
                        kernel=None if kernel is None else dict(kernel),
                        dyadic=dict(dyadic),
                        exponents={"p": p, "q": q},
                        checks=tuple(requested), seed=seed, budget=budget,
                        gamma=gamma, relaxed_delta=relaxed)

    def to_dict(self) -> dict:
        return jsonable({
            "space": self.space, "measures": self.measures,
            "kernel": self.kernel, "dyadic": self.dyadic,
            "exponents": self.exponents, "checks": list(self.checks),
            "seed": self.seed, "budget": self.budget, "gamma": self.gamma,
            "relaxed_delta": self.relaxed_delta,
        })

    @property
    def hash(self) -> str:
        return content_hash(self.to_dict())


def row(name: str, status: str, constant: float | None = None,
        witness: dict | None = None) -> dict:
    if status not in STATUSES:
        raise ValueError(f"unknown status {status!r}")
    return {"name": name, "status": status,
            "constant": None if constant is None else float(constant),
            "witness": None if witness is None else jsonable(witness)}


def environment_stamp() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


@dataclass
class Report:
    """Outcome of one scenario run.

    checks is the flat row list; constants collects the named empirical
    quantities for sweep aggregation; tolerances echoes the central policy
    table so the report interprets itself. environment and timings are
    excluded from the hash and from the determinism contract.
    """

    scenario: dict
    scenario_hash: str
    checks: list[dict]
    constants: dict
    tolerances: dict = field(default_factory=lambda: dict(TOLERANCES))
    timings: dict = field(default_factory=dict)
    environment: dict = field(default_factory=environment_stamp)

    @property
    def counts(self) -> dict:
        out = {s: 0 for s in STATUSES}
        for r in self.checks:
            out[r["status"]] += 1
        return out

    @property
    def failed(self) -> bool:
        return any(r["status"] == "fail" for r in self.checks)

    @property
    def exit_code(self) -> int:
        return 1 if self.failed else 0

    def to_dict(self) -> dict:
        return {
            "scenario": jsonable(self.scenario),
            "scenario_hash": self.scenario_hash,
            "checks": jsonable(self.checks),
            "constants": jsonable(self.constants),
            "counts": self.counts,
            "tolerances": jsonable(self.tolerances),
            "timings": jsonable(self.timings),
            "environment": jsonable(self.environment),
            "report_hash": self.hash,
        }

    @property
    def hash(self) -> str:
        return content_hash(deterministic_view({
            "scenario": self.scenario, "scenario_hash": self.scenario_hash,
            "checks": self.checks, "constants": self.constants,
            "counts": self.counts, "tolerances": self.tolerances,
        }))


def deterministic_view(doc: dict) -> dict:
    """The hashed portion of a report dict: no stamp, no clock."""
    return {k: v for k, v in jsonable(doc).items()
            if k not in ("environment", "timings", "report_hash")}


def _csv_cell(value) -> str:
    if value is None:
        return ""
    text = value if isinstance(value, str) else canonical_json(value)
    if any(c in text for c in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def report_to_csv(report: Report) -> str:
    lines = ["name,status,constant,witness"]
    for r in report.checks:
        lines.append(",".join([_csv_cell(r["name"]), _csv_cell(r["status"]),
                               _csv_cell(r["constant"]),
                               _csv_cell(r["witness"])]))
    return "\n".join(lines) + "\n"


def reports_to_csv(reports: list[Report]) -> str:
    """One row per report: identity columns plus the union of constants."""
    keys: list[str] = []
    for rep in reports:
        for k in rep.constants:
            if k not in keys:
                keys.append(k)
    keys.sort()
    lines = ["scenario_hash,seed,fail,non_strict," + ",".join(keys)]
    for rep in reports:
        counts = rep.counts
        cells = [rep.scenario_hash[:16], str(rep.scenario.get("seed", "")),
                 str(counts["fail"]), str(counts["non-strict"])]
        cells += [_csv_cell(rep.constants.get(k)) for k in keys]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"

