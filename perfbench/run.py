"""dyadica benchmark: per-stage scenario wall time, and a traced per-layer run.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a list of sweep plans written from the seed (see
workloads.py). One round is one ``dyadica sweep`` call through ``cli.main``
per plan, with the per-run reports written next to it. Rounds repeat,
closed loop and one caller, until the next one would end past ``--seconds``
(which defaults to BENCHMARK.json's ``run_seconds``). With ``--trace 0``
the end-to-end metrics of BENCHMARK.json are reported: the round's wall
time (the sum over its calls of each call's median), per-stage sums of
``Report.timings`` over the scenarios, the set-up time (a fresh
interpreter's import plus input generation, one sample before each round)
and peak RSS. With ``--trace 1`` untraced and traced rounds alternate; span
wrappers go in before each traced round and come out after it, and the
per-layer metrics are medians over the traced rounds.

Times are given at a reference host speed. On a shared host, work from
outside the machine slows the process by up to 2.5x, in phases of seconds
to minutes, so raw times of one program differ by a third between runs.
A fixed piece of work shaped like dyadica's own (``host_probe``: Python
dict, tuple and sort churn and small numpy arrays, no dyadica code) is
timed in a block of ``PROBE_BLOCK`` runs before and after every sweep call
and set-up sample. Each timed piece is divided by the median probe time of
the two blocks around it and multiplied by ``PROBE_REFERENCE_S``, the
probe's time on the reference machine; a metric is the median of these
over the rounds (calls and stages: each on its own, then summed). A change
to dyadica moves the metrics by its own factor, while a slower host phase
moves the probe as well and cancels. Raw times and probe times are kept in the result file.

Every run is gated: a scenario fails if the sweep raises, if its report has
a fail row, if its outcome digest changes between rounds, or, at the
default seed on a BLAS core type with recorded goldens, if the digest
differs from golden.json. Any failure names the scenario on stderr and
makes the exit code 1. The last stdout line is the JSON result.
"""

from __future__ import annotations

import os

PINNED_THREADS = 1
# before numpy loads: one BLAS thread keeps rounds comparable on a small box
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(PINNED_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
GOLDEN = HERE / "golden.json"
STAGES = ("space", "dyadic", "kernel", "operators", "theorem-b", "weak-type",
          "stopping", "theorem-a")
MIN_ROUNDS = 3
MIN_TRACED_PAIRS = 2
PROBE_BLOCK = 5
# median host_probe time on the reference machine (2-vCPU SkylakeX VM,
# OpenBLAS pinned to one thread) in its fast phases, where probe blocks
# took 27-30 ms; in its slow phases they took 45-55 ms
PROBE_REFERENCE_S = 0.029
# whatever the round count, no round may end past this, so a much slower
# program still exits well inside 180 s
ROUND_CUTOFF_S = 120.0
SETUP_MIN_SAMPLES = 5

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import dyadica.cli, workloads
workloads.write_plans({name!r}, {seed!r}, {stem!r})
print(time.perf_counter() - t0)
"""


# ---------------------------------------------------------------------------
# machine stamp
# ---------------------------------------------------------------------------

def _openblas_runtime() -> tuple[str, int | None]:
    """Core type and thread count of the OpenBLAS numpy loaded, if any."""
    import ctypes
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            try:
                corename = getattr(lib, f"{prefix}_get_corename{suffix}")
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            except AttributeError:
                continue
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            threads.argtypes, threads.restype = [], ctypes.c_int
            return corename().decode(), int(threads())
    return "unknown", None


def host_probe() -> float:
    """Seconds taken by fixed work shaped like dyadica's (about 35 ms).

    Python containers, tuples and sorting, then distance matrices, radius
    sweeps and masks on a 24-point cloud: the allocation-heavy mix that
    host contention slows most. Pure arithmetic loops and large BLAS
    products were tried too and barely slow when dyadica slows 2x.
    """
    import numpy

    pts = (numpy.arange(48.0).reshape(24, 2) * 0.37) % 1.0
    t0 = time.perf_counter()
    for _ in range(40):
        table = {}
        for i in range(600):
            table[(i % 37, i)] = [i, i * 0.5, str(i)]
        ranked = sorted(table.items(), key=lambda kv: (kv[0][0], -kv[0][1]))
        sum(v[1] for _, v in ranked)
    for _ in range(60):
        d = numpy.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        for radius in numpy.unique(d)[::14]:
            inside = d <= radius
            inside.sum(1).max()
            pts[inside.any(0)].mean(0)
    return time.perf_counter() - t0


def probe_block() -> list[float]:
    return [host_probe() for _ in range(PROBE_BLOCK)]


def machine_stamp() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core, threads = _openblas_runtime()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_core": core, "blas_threads": threads,
            "pinned_threads": PINNED_THREADS}


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def outcome_digest(report: dict) -> str:
    """Hash of row names, statuses and constants plus the constants dict.

    The tolerance echo, timings, the environment and any other row field
    stay out, so the digest moves only when a verdict or a number does.
    """
    rows = [[r["name"], r["status"], r["constant"]] for r in report["checks"]]
    doc = json.dumps({"rows": rows, "constants": report["constants"]},
                     sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def load_golden(workload: str, seed: int, core: str) -> dict | None:
    if seed != workloads.DEFAULT_SEED or not GOLDEN.is_file():
        return None
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh).get(core, {}).get(workload)


class Gate:
    """Tracks every scenario run and the first reason each one failed."""

    def __init__(self, golden: dict | None):
        self.golden = golden
        self.digests: dict[str, str] = {}
        self.failures: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def _fail(self, label: str, why: str) -> None:
        self.failed += 1
        self.failures.setdefault(label, why)

    def check(self, reports: list[dict] | None, error: str | None,
              expected: int) -> None:
        self.attempted += expected
        reports = reports or []
        for report in reports:
            label = workloads.scenario_label(report["scenario"])
            bad = [r["name"] for r in report["checks"]
                   if r["status"] == "fail"]
            digest = outcome_digest(report)
            ref = self.digests.setdefault(label, digest)
            if bad:
                self._fail(label, f"fail rows: {', '.join(bad)}")
            elif digest != ref:
                self._fail(label, f"digest changed between rounds: "
                                  f"{ref[:12]} -> {digest[:12]}")
            elif self.golden is not None and \
                    self.golden.get(label) != digest:
                self._fail(label, f"digest {digest[:12]} differs from golden "
                                  f"{str(self.golden.get(label))[:12]}")
        for _ in range(expected - len(reports)):
            self._fail("<sweep>", error or "sweep returned too few reports")


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

class Call:
    """One timed ``dyadica sweep`` call and the reports it wrote."""

    def __init__(self, plan: str, stem: str):
        with open(plan, encoding="utf-8") as fh:
            self.expected = workloads.scenario_count(json.load(fh))
        self.argv = ["sweep", "--config", plan, "--format", "csv",
                     "--out", str(OUT / f"{stem}.csv"),
                     "--reports", str(OUT / f"{stem}.reports.json")]
        self.reports_path = OUT / f"{stem}.reports.json"

    def run(self) -> tuple[float, list[dict] | None, str | None]:
        from dyadica import cli

        self.reports_path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            code = cli.main(self.argv)
        except Exception as exc:  # the gate records it; the run goes on
            return time.perf_counter() - t0, None, \
                f"sweep raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        if not self.reports_path.is_file():
            return wall, None, f"sweep exited {code} without reports"
        with open(self.reports_path, encoding="utf-8") as fh:
            reports = json.load(fh)
        return wall, reports, None if code == 0 else f"sweep exited {code}"


def host_factor(before: list[float], after: list[float]) -> float:
    """Host slowness around a timed piece, in multiples of the reference:
    the median probe time of the blocks before and after it."""
    return statistics.median(before + after) / PROBE_REFERENCE_S


def stage_sums(per_call: list[list[dict]],
               factors: list[float]) -> dict[str, float]:
    """Per stage: the sum over scenarios of each one's median adjusted
    time over the rounds; a call's reports share the call's factor."""
    samples: dict[tuple[str, str], list[float]] = {}
    for reports, factor in zip(per_call, factors):
        for report in reports:
            label = workloads.scenario_label(report["scenario"])
            for stage, t in report["timings"].items():
                samples.setdefault((stage, label), []).append(t / factor)
    sums = {stage: 0.0 for stage in STAGES}
    for (stage, _), ts in samples.items():
        sums[stage] = sums.get(stage, 0.0) + statistics.median(ts)
    return sums


def setup_sample(workload: str, seed: int) -> float:
    """One fresh interpreter's time to import dyadica and write the
    workload's plan; interpreter start-up itself is not counted."""
    code = SETUP_CODE.format(src=str(SRC), here=str(HERE), name=workload,
                             seed=seed,
                             stem=str(OUT / f"{workload}-{seed}.setup"))
    done = subprocess.run([sys.executable, "-c", code], cwd=str(ROOT),
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, names: list[str]) -> dict[str, float]:
    rec = tracer.rec
    fig = tracing.layer_figures(rec)
    fig["dyadic.attempts_per_system"] = _ratio(
        tracing.calls_under(rec, "dyadic.check_system", "dyadic.build_system"),
        fig.get("dyadic.accepted_systems", 0))
    fig["norms.testing_skipped_frac"] = _ratio(
        fig.get("norms.testing.convention_hits", 0),
        fig.get("norms.testing.cubes_swept", 0))
    for stage in STAGES:
        key = tracing.STAGE_PREFIX + stage
        fig[f"{key}.cover_frac"] = _ratio(fig.get(f"{key}.child_ms", 0.0),
                                          fig.get(f"{key}.ms", 0.0))
    return {name: float(fig.get(name, 0.0)) for name in names}


def _median_dicts(rows: list[dict]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dyadica" / "__init__.py").is_file():
        print(f"error: no dyadica sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from dyadica import cli  # noqa: F401  (imported before timing starts)

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    OUT.mkdir(parents=True, exist_ok=True)
    stamp = machine_stamp()

    stem = f"{args.workload}-{seed}"
    plans = workloads.write_plans(args.workload, seed, str(OUT / stem))
    golden = load_golden(args.workload, seed, stamp["blas_core"])
    if seed == workloads.DEFAULT_SEED and golden is None:
        print(f"note: no golden digests for BLAS core {stamp['blas_core']}; "
              f"gating on fail rows and repeatability only", file=sys.stderr)
    gate = Gate(golden)
    calls = [Call(plan, f"{stem}.{i}") for i, plan in enumerate(plans)]
    tracer = tracing.Tracer() if args.trace else None
    per_layer = [m["name"] for m in spec["per_layer"]]
    start = time.perf_counter()
    blocks = [probe_block()]
    # (kind, call index, raw seconds, index of the probe block before it);
    # a piece's host factor comes from that block and the next one
    pieces: list[tuple[str, int, float, int]] = []
    reports_of: list[list[dict]] = []  # per untraced call piece
    layer_rows = []

    def timed(kind: str, j: int, seconds: float) -> None:
        pieces.append((kind, j, seconds, len(blocks) - 1))
        blocks.append(probe_block())

    def timed_round(kind: str) -> None:
        for j, call in enumerate(calls):
            wall, reports, error = call.run()
            gate.check(reports, error, call.expected)
            if kind == "call":
                reports_of.append(reports or [])
            timed(kind, j, wall)

    rounds = 0
    while True:
        if tracer is None:
            timed("setup", 0, setup_sample(args.workload, seed))
        timed_round("call")
        if tracer is not None:
            tracer.rec.clear()
            tracer.install()
            try:
                timed_round("traced")
            finally:
                tracer.restore()
            layer_rows.append(layer_metrics(tracer, per_layer))
        rounds += 1
        elapsed = time.perf_counter() - start
        next_end = elapsed + elapsed / rounds
        enough = rounds >= (MIN_TRACED_PAIRS if tracer else MIN_ROUNDS)
        # stop before a round that would end past the deadline
        if next_end > ROUND_CUTOFF_S or (enough and next_end > args.seconds):
            break

    while tracer is None and \
            sum(p[0] == "setup" for p in pieces) < SETUP_MIN_SAMPLES:
        timed("setup", 0, setup_sample(args.workload, seed))

    def factor(i: int) -> float:
        return host_factor(blocks[i], blocks[i + 1])

    def adjusted(kind: str) -> float:
        """Sum over call indices of the median adjusted time."""
        per_j: dict[int, list[float]] = {}
        for k, j, raw, i in pieces:
            if k == kind:
                per_j.setdefault(j, []).append(raw / factor(i))
        return sum(statistics.median(ts) for ts in per_j.values())

    raw = {kind: [t for k, _, t, _ in pieces if k == kind]
           for kind in ("call", "traced", "setup")}
    factors = [factor(i) for k, _, _, i in pieces if k == "call"]
    probes = [t for block in blocks for t in block]
    stamp["probe_best_s"] = min(probes)
    stamp["probe_median_s"] = statistics.median(probes)
    stamp["host_factor_median"] = statistics.median(factors)

    if tracer is not None:
        leftovers = tracer.leftovers()
        if leftovers:
            print(f"error: span wrappers left behind: {leftovers}",
                  file=sys.stderr)
            return 1
        tracer.rec.dump(str(OUT / f"{stem}.spans.json"))
        metrics = _median_dicts(layer_rows)
        metrics["trace_overhead_frac"] = \
            adjusted("traced") / adjusted("call") - 1.0
        metrics["failed_frac"] = gate.failed / gate.attempted
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = {"wall_s": adjusted("call"), "setup_s": adjusted("setup")}
        for stage, total in stage_sums(reports_of, factors).items():
            metrics[f"stage.{stage}_s"] = total
        metrics["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    result = {"correct": gate.failed == 0, "attempted": gate.attempted,
              "failed": gate.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    detail = dict(result, workload=args.workload, seed=seed,
                  trace=args.trace, stamp=stamp, raw_calls=raw["call"],
                  raw_setups=raw["setup"], raw_traced_calls=raw["traced"],
                  host_factors=factors, probe_blocks=blocks,
                  digests=gate.digests,
                  failures=gate.failures, golden_checked=golden is not None,
                  untraced_entry_points=tracer.missing if tracer else [],
                  failed_frac=gate.failed / gate.attempted,
                  raw_call_stages=[stage_sums([r], [1.0])
                                   for r in reports_of])
    with open(OUT / f"{stem}-trace{args.trace}.result.json", "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}",
              file=sys.stderr)
    print(f"{args.workload} failed_frac = {detail['failed_frac']:.6g} "
          f"ratio ({gate.failed}/{gate.attempted})", file=sys.stderr)
    for label, why in gate.failures.items():
        print(f"FAILED {args.workload} {label}: {why}", file=sys.stderr)
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    print(json.dumps(result))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
