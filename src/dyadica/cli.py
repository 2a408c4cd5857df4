"""Command line front end.

Subcommands mirror the pipeline: gen-space writes a space file, build-dyadic
writes a cube/certificate dump, and the check commands (verify-dyadic,
kernel-check, operators-check, theorem-b, weak-type, theorem-a) assemble a
scenario from flags (optionally seeded from --config) and run it through the
harness. sweep replays a template over a parameter grid and seed list.

Exit codes: 0 when every executed check passed or was vacuous, 1 when any
check failed, 2 on malformed input (argparse uses 2 for flag errors too).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import ConfigError, DyadicaError
from .harness import build_family, random_measure, run_scenario, sweep
from .reporting import (
    Report,
    jsonable,
    report_to_csv,
    reports_to_csv,
)
from .space import PointMeasure, generate_space, load_space, save_space

_CHECKS_BY_COMMAND = {
    "verify-dyadic": ["space", "dyadic"],
    "kernel-check": ["kernel"],
    "operators-check": ["operators"],
    "theorem-b": ["theorem-b"],
    "weak-type": ["weak-type"],
    "theorem-a": ["theorem-a"],
}


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE",
                   help="scenario JSON; flags override its fields")
    p.add_argument("--seed", type=int, default=None, metavar="U64")
    p.add_argument("--out", metavar="PATH",
                   help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--relaxed-delta", action="store_true",
                   help="allow delta above the strict bound; downstream "
                        "constants are reported non-strict")


def _scenario_flags(p: argparse.ArgumentParser, kernel: bool = True) -> None:
    p.add_argument("--space", metavar="FILE", help="space JSON file")
    if kernel:
        p.add_argument("--kernel", metavar="SPEC",
                       help="kernel spec file, or inline JSON starting with {")
    p.add_argument("--measures", metavar="SIGMA,OMEGA",
                   help="measure names from the space file")
    p.add_argument("--mu", metavar="NAME",
                   help="reference measure name (default mu, else counting)")
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--q", default=None,
                   help="target exponent, a number or inf")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--systems", type=int, default=None, metavar="L_MAX",
                   help="cap on the number of adjacent systems")
    p.add_argument("--x0", type=int, default=None,
                   help="pin this point as a cube center at every scale")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--gamma", type=float, default=None,
                   help="fractional order for the maximal operator")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dyadica",
        description="Adjacent dyadic systems and two-weight testing "
                    "conditions on finite quasi-metric spaces.")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-space", help="generate a space file")
    g.add_argument("--kind", required=True,
                   choices=("integer_segment_counting",
                            "euclidean_random_points", "snowflake_power",
                            "ultrametric_tree"))
    g.add_argument("--n", type=int, default=None)
    g.add_argument("--dim", type=int, default=None)
    g.add_argument("--power", type=float, default=None)
    g.add_argument("--depth", type=int, default=None)
    g.add_argument("--branching", type=int, default=None)
    g.add_argument("--ratio", type=float, default=None)
    g.add_argument("--measure", action="append", default=[],
                   metavar="NAME=SPEC",
                   help="attach a measure: NAME=counting, NAME=random[:SEED"
                        "[:ZERO_FRACTION]], or NAME=m0,m1,...")
    _common_flags(g)

    b = sub.add_parser("build-dyadic",
                       help="build adjacent systems and dump cubes plus the "
                            "coverage certificate")
    b.add_argument("--space", required=True, metavar="FILE")
    b.add_argument("--delta", type=float, default=None)
    b.add_argument("--x0", type=int, default=None)
    b.add_argument("--systems", type=int, default=None, metavar="L_MAX")
    _common_flags(b)

    for name, checks in _CHECKS_BY_COMMAND.items():
        p = sub.add_parser(name, help=f"run the {'/'.join(checks)} checks")
        _scenario_flags(p, kernel=name not in ("verify-dyadic", "theorem-a"))
        _common_flags(p)

    s = sub.add_parser("sweep", help="grid x seed cross-product of a "
                                     "scenario template")
    s.add_argument("--reports", metavar="PATH",
                   help="also write every per-run report to this JSON file")
    _common_flags(s)
    return ap


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{what}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{what}: expected a JSON object")
    return doc


def _parse_kernel_arg(text: str) -> dict:
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"kernel: invalid inline JSON ({exc})") from exc
        if not isinstance(doc, dict):
            raise ConfigError("kernel: expected a JSON object")
        return doc
    return _load_json(text, "kernel")


def _parse_exponent(text: str) -> float:
    if text in ("inf", "Infinity"):
        return float("inf")
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"q: expected a number or inf, got {text!r}") \
            from exc


def _object_field(doc: dict, key: str) -> dict:
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key}: expected an object, got {value!r}")
    return dict(value)


def _assemble_scenario(args, checks: list[str]) -> dict:
    doc = _load_json(args.config, "config") if args.config else {}
    if getattr(args, "space", None):
        doc["space"] = {"file": args.space}
    if "space" not in doc:
        raise ConfigError("space: required (pass --space or a config file)")
    if getattr(args, "kernel", None):
        doc["kernel"] = _parse_kernel_arg(args.kernel)
    measures = _object_field(doc, "measures")
    if getattr(args, "measures", None):
        parts = [s.strip() for s in args.measures.split(",")]
        if len(parts) != 2 or not all(parts):
            raise ConfigError("measures: expected two names, SIGMA,OMEGA")
        measures["sigma"], measures["omega"] = parts
    if getattr(args, "mu", None):
        measures["mu"] = args.mu
    if measures:
        doc["measures"] = measures
    exponents = _object_field(doc, "exponents")
    if getattr(args, "p", None) is not None:
        exponents["p"] = args.p
    if getattr(args, "q", None) is not None:
        exponents["q"] = _parse_exponent(str(args.q))
    if exponents:
        doc["exponents"] = exponents
    dyadic = _object_field(doc, "dyadic")
    for key in ("delta", "x0"):
        value = getattr(args, key, None)
        if value is not None:
            dyadic[key] = value
    if getattr(args, "systems", None) is not None:
        dyadic["max_systems"] = args.systems
    if dyadic:
        doc["dyadic"] = dyadic
    if args.seed is not None:
        doc["seed"] = args.seed
    if getattr(args, "budget", None) is not None:
        doc["budget"] = args.budget
    if getattr(args, "gamma", None) is not None:
        doc["gamma"] = args.gamma
    if args.relaxed_delta:
        doc["relaxed_delta"] = True
    doc["checks"] = checks
    return doc


def _write(payload: str, path: str | None) -> None:
    """Write to the file at path, or else to stdout ending in a newline."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload if payload.endswith("\n") else payload + "\n")


def _emit_report(report: Report, args) -> int:
    if args.format == "csv":
        _write(report_to_csv(report), args.out)
    else:
        _write(json.dumps(report.to_dict(), indent=1, sort_keys=True),
               args.out)
    counts = report.counts
    print(f"checks: {counts['pass']} pass, {counts['fail']} fail, "
          f"{counts['vacuous']} vacuous, {counts['non-strict']} non-strict",
          file=sys.stderr)
    return report.exit_code


# ---------------------------------------------------------------------------
# gen-space
# ---------------------------------------------------------------------------

def _parse_measure_spec(name: str, spec: str, n: int, seed: int,
                        index: int) -> PointMeasure:
    path = f"measure.{name}"
    if spec == "counting":
        return PointMeasure(np.ones(n))
    if spec == "random" or spec.startswith("random:"):
        fields = spec.split(":")
        try:
            mseed = int(fields[1]) if len(fields) > 1 else 0
            zf = float(fields[2]) if len(fields) > 2 else 0.0
        except ValueError as exc:
            raise ConfigError(f"{path}: bad random spec {spec!r}") from exc
        if len(fields) > 3:
            raise ConfigError(f"{path}: bad random spec {spec!r}")
        return random_measure(n, seed=seed, zero_fraction=zf,
                              extra=(mseed, index))
    try:
        masses = np.asarray([float(v) for v in spec.split(",")])
    except ValueError as exc:
        raise ConfigError(f"{path}: expected counting, random[:seed[:zf]], "
                          f"or a comma list of masses") from exc
    if masses.size != n:
        raise ConfigError(f"{path}: expected {n} masses, got {masses.size}")
    try:
        return PointMeasure(masses)
    except DyadicaError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _cmd_gen_space(args) -> int:
    if not args.out:
        raise ConfigError("out: required for gen-space")
    params = {}
    for key in ("n", "dim", "power", "depth", "branching", "ratio"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    seed = args.seed if args.seed is not None else 0
    try:
        space, counting = generate_space(args.kind, seed=seed, **params)
    except DyadicaError as exc:
        raise ConfigError(f"space: {exc}") from exc
    measures = {"mu": counting}
    for i, item in enumerate(args.measure):
        name, sep, spec = item.partition("=")
        if not sep or not name:
            raise ConfigError(f"measure: expected NAME=SPEC, got {item!r}")
        measures[name] = _parse_measure_spec(name, spec, space.n, seed, i)
    save_space(args.out, space, measures)
    print(f"wrote {args.out}: n={space.n} a0={space.a0} "
          f"measures={sorted(measures)}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# build-dyadic
# ---------------------------------------------------------------------------

def _alpha(sys_, i: int) -> int:
    """Index of cube i among the cubes of its generation."""
    return i - sys_.generation(sys_.cubes[i].k).start


def _dump_family(family) -> dict:
    systems = []
    for sys_ in family:
        systems.append([{"k": cube.k, "alpha": _alpha(sys_, cube.id),
                         "center": cube.center, "members": list(cube.members),
                         "parent": None if sys_.parent[cube.id] < 0
                         else _alpha(sys_, sys_.parent[cube.id])}
                        for cube in sys_.cubes])
    cert = family.certificate
    entries = []
    for e in cert.entries:
        cube = family[e.t].containing_cube(e.cube_k, e.cube_center)
        entries.append({
            "ball": {"center": e.x, "radius": e.hi},
            "system": e.t,
            "cube": [e.cube_k, _alpha(family[e.t], cube.id)],
            "ratio": e.diameter / e.lo if e.lo > 0 else None,
        })
    sys0 = family[0]
    return jsonable({
        "delta": sys0.delta, "strict": sys0.strict_delta,
        "k_min": sys0.k_min, "k_max": sys0.k_max,
        "num_systems": len(family),
        "systems": systems,
        "certificate": {"C_bound": cert.C_bound,
                        "observed_C": cert.observed_C,
                        "r_large_ok": cert.r_large_ok,
                        "r_small_ok": cert.r_small_ok,
                        "entries": entries},
    })


def _cmd_build_dyadic(args) -> int:
    if not args.out:
        raise ConfigError("out: required for build-dyadic")
    space, _ = load_space(args.space)
    fields = {"delta": args.delta, "max_systems": args.systems, "x0": args.x0}
    family = build_family(
        space, {k: v for k, v in fields.items() if v is not None},
        seed=args.seed if args.seed is not None else 0,
        relaxed_delta=args.relaxed_delta)
    _write(json.dumps(_dump_family(family), indent=1, sort_keys=True),
           args.out)
    cert = family.certificate
    print(f"wrote {args.out}: systems={len(family)} "
          f"observed_C={cert.observed_C:.6g} bound={cert.C_bound:.6g}",
          file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _cmd_sweep(args) -> int:
    if not args.config:
        raise ConfigError("config: required for sweep "
                          "(JSON with template/grid/seeds)")
    doc = _load_json(args.config, "config")
    for key in doc:
        if key not in ("template", "grid", "seeds"):
            raise ConfigError(f"{key}: unknown sweep field")
    template = doc.get("template")
    if not isinstance(template, dict):
        raise ConfigError("template: required object")
    if args.relaxed_delta:
        template = dict(template, relaxed_delta=True)
    if args.seed is not None:
        template = dict(template, seed=args.seed)
    reports, summary = sweep(template, doc.get("grid", {}), doc.get("seeds"))
    if args.reports:
        _write(json.dumps([r.to_dict() for r in reports], indent=1,
                          sort_keys=True), args.reports)
    if args.format == "csv":
        payload = reports_to_csv(reports)
    else:
        payload = json.dumps({"summary": jsonable(summary)}, indent=1,
                             sort_keys=True)
    _write(payload, args.out)
    print(f"sweep: {summary['runs']} runs, "
          f"{len(summary['errors'])} errors, any_fail="
          f"{summary['any_fail']}", file=sys.stderr)
    if summary["any_fail"]:
        return 1
    if summary["errors"]:
        return 2
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen-space":
            return _cmd_gen_space(args)
        if args.command == "build-dyadic":
            return _cmd_build_dyadic(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        scenario = _assemble_scenario(args, _CHECKS_BY_COMMAND[args.command])
        return _emit_report(run_scenario(scenario), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DyadicaError as exc:
        # builder commands have no report to carry the failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
