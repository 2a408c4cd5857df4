"""Command line front end.

Every run that checks or builds is configured by one JSON file, the same
scenario document the harness takes and every report echoes and hashes;
the flags only pick a subcommand's input and output files. gen-space
writes a space file from its generator flags, build-dyadic writes the cube
family and coverage certificate of a scenario, the check commands
(verify-dyadic, kernel-check, operators-check, theorem-b, weak-type,
theorem-a) run a scenario with its checks replaced by their own, and sweep
replays a plan's template over a parameter grid and seed list. A relative
``space.file`` is read from the directory of the file that names it.

Exit codes: 0 when every executed check passed or was vacuous, 1 when any
check failed, 2 on malformed input (argparse uses 2 for flag errors too).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .errors import ConfigError, DyadicaError
from .harness import _Run, random_measure, run_scenario, sweep
from .reporting import (
    Report,
    Scenario,
    _read_json,
    jsonable,
    report_to_csv,
    reports_to_csv,
)
from .space import _SPACE_PARAMS, PointMeasure, generate_space, save_space

_CHECKS_BY_COMMAND = {
    "verify-dyadic": ["space", "dyadic"],
    "kernel-check": ["kernel"],
    "operators-check": ["operators"],
    "theorem-b": ["theorem-b"],
    "weak-type": ["weak-type"],
    "theorem-a": ["theorem-a"],
}
_GEN_FLAGS = {key: cast for params in _SPACE_PARAMS.values()
              for key, cast in params.items()}


def _io_flags(p: argparse.ArgumentParser, config: str | None,
              formats: bool = True) -> None:
    if config:
        p.add_argument("--config", metavar="FILE", help=config)
    p.add_argument("--out", metavar="PATH",
                   help="write the output here instead of stdout")
    if formats:
        p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dyadica",
        description="Adjacent dyadic systems and two-weight testing "
                    "conditions on finite quasi-metric spaces.")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-space", help="generate a space file")
    g.add_argument("--kind", required=True, choices=tuple(_SPACE_PARAMS))
    for key, cast in _GEN_FLAGS.items():
        g.add_argument(f"--{key}", type=cast, default=None)
    g.add_argument("--measure", action="append", default=[],
                   metavar="NAME=SPEC",
                   help="attach a measure: NAME=counting, NAME=random[:SEED"
                        "[:ZERO_FRACTION]], or NAME=m0,m1,...")
    g.add_argument("--seed", type=int, default=0, metavar="U64")
    _io_flags(g, None, formats=False)

    b = sub.add_parser("build-dyadic",
                       help="build a scenario's adjacent systems and dump "
                            "cubes plus the coverage certificate")
    _io_flags(b, "scenario JSON; its space, measures, dyadic, seed and "
                 "relaxed_delta fields are read", formats=False)

    for name, checks in _CHECKS_BY_COMMAND.items():
        p = sub.add_parser(name, help=f"run the {'/'.join(checks)} checks")
        _io_flags(p, f"scenario JSON; its checks become {checks}")

    s = sub.add_parser("sweep", help="grid x seed cross-product of a "
                                     "scenario template")
    _io_flags(s, "sweep plan JSON with template, grid and seeds")
    s.add_argument("--reports", metavar="PATH",
                   help="also write every per-run report to this JSON file")
    return ap


def _load_config(path: str | None) -> dict:
    if not path:
        raise ConfigError("config: required (--config FILE)")
    doc = _read_json(path, "config")
    if not isinstance(doc, dict):
        raise ConfigError("config: expected a JSON object")
    return doc


def _write(payload: str, path: str | None, flag: str = "out") -> None:
    """Write to the file at path, or else to stdout ending in a newline."""
    if not path:
        sys.stdout.write(payload if payload.endswith("\n") else payload + "\n")
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


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
        if len(fields) > 3 or mseed < 0:
            raise ConfigError(f"{path}: bad random spec {spec!r}")
        try:
            return random_measure(n, seed=seed, zero_fraction=zf,
                                  extra=(mseed, index))
        except ConfigError as exc:
            raise ConfigError(f"{path}.{exc}") from exc
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
    if not 0 <= args.seed < 2**64:
        raise ConfigError("seed: expected an integer in [0, 2^64)")
    params = {key: getattr(args, key) for key in _GEN_FLAGS
              if getattr(args, key) is not None}
    try:
        space, counting = generate_space(args.kind, seed=args.seed, **params)
    except DyadicaError as exc:
        raise ConfigError(f"space: {exc}") from exc
    measures = {"mu": counting}
    for i, item in enumerate(args.measure):
        name, sep, spec = item.partition("=")
        if not sep or not name:
            raise ConfigError(f"measure: expected NAME=SPEC, got {item!r}")
        measures[name] = _parse_measure_spec(name, spec, space.n, args.seed,
                                             i)
    try:
        save_space(args.out, space, measures)
    except OSError as exc:
        raise ConfigError(f"out: {exc}") from exc
    print(f"wrote {args.out}: n={space.n} a0={space.a0} "
          f"measures={sorted(measures)}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# build-dyadic
# ---------------------------------------------------------------------------

def _alpha(sys_) -> np.ndarray:
    """Each cube's index among the cubes of its generation, by id."""
    return np.arange(len(sys_.cubes)) - np.searchsorted(sys_.cubes.k,
                                                        sys_.cubes.k)


def _dump_family(family) -> dict:
    systems, alphas = [], [_alpha(s) for s in family]
    for sys_, alpha in zip(family, alphas):
        systems.append([{"k": k, "alpha": alpha[i], "center": z,
                         "members": np.flatnonzero(sys_.incidence[i]),
                         "parent": None if up < 0 else alpha[up]}
                        for i, (k, z, up) in enumerate(zip(
                            sys_.cubes.k, sys_.cubes.center, sys_.parent))])
    cert = family.certificate
    rows = cert.entries
    alpha = np.zeros(len(rows), dtype=int)  # each row's cube among its generation
    for t, sys_ in enumerate(family):
        sel = rows.t == t
        alpha[sel] = alphas[t][sys_.label[rows.cube_k[sel] - sys_.k_min,
                                          rows.cube_center[sel]]]
    entries = [{"ball": {"center": x, "radius": hi}, "system": t, "cube": [k, a],
                "ratio": diam / lo if lo > 0 else None}
               for x, hi, t, k, a, diam, lo in zip(*(c.tolist() for c in (
                   rows.x, rows.hi, rows.t, rows.cube_k, alpha, rows.diameter,
                   rows.lo)))]
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


def _cmd_build_dyadic(doc: dict, args) -> int:
    if not args.out:
        raise ConfigError("out: required for build-dyadic")
    sc = Scenario.from_dict(dict(doc, checks=["dyadic"]))
    family = _Run(sc, os.path.dirname(args.config)).family
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
    doc = _load_config(args.config)
    for key in doc:
        if key not in ("template", "grid", "seeds"):
            raise ConfigError(f"{key}: unknown sweep field")
    reports, summary = sweep(doc.get("template"), doc.get("grid", {}),
                             doc.get("seeds"), os.path.dirname(args.config))
    if args.reports:
        _write(json.dumps([r.to_dict() for r in reports], indent=1,
                          sort_keys=True), args.reports, "reports")
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
        if args.command == "sweep":
            return _cmd_sweep(args)
        doc = _load_config(args.config)
        if args.command == "build-dyadic":
            return _cmd_build_dyadic(doc, args)
        doc["checks"] = _CHECKS_BY_COMMAND[args.command]
        return _emit_report(run_scenario(doc, os.path.dirname(args.config)), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DyadicaError as exc:
        # builder commands have no report to carry the failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
