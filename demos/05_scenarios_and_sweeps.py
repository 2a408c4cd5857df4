"""Drive the whole pipeline from a plain dictionary.

A scenario names a space, measures, a kernel, and a list of checks; the
runner builds everything, executes the checks in dependency order, and
returns a report whose deterministic part hashes identically on every
rerun on one machine. Across machines the hash can still move with the
OpenBLAS core type and with numpy's SIMD level (see the README and item 4
of ROADMAP.md). The same documents drive the command line; the files
under demos/cli/ are a scenario and a plan like the ones below:

    dyadica theorem-b --config demos/cli/segment.json
    dyadica sweep --config demos/cli/plan.json --format csv
"""

import json

from dyadica import run_scenario, sweep
from dyadica.reporting import report_to_csv

scenario = {
    "space": {"kind": "integer_segment_counting", "n": 12},
    "kernel": {"type": "ball_volume", "gamma": 0.5,
               "measure": "mu", "ball": "closed"},
    "measures": {"sigma": {"random": {}},
                 "omega": {"random": {"seed": 1}}},
    "exponents": {"p": 2, "q": 2},
    "checks": ["space", "dyadic", "kernel", "operators", "theorem-b"],
    "seed": 7,
    "budget": 4,
}

report = run_scenario(scenario)
print(f"scenario {report.scenario_hash[:12]}  "
      f"counts: {report.counts}  exit code: {report.exit_code}")
for line in report_to_csv(report).splitlines()[1:8]:
    print(f"  {line}")
print(f"  ... {len(report.checks)} rows total")
shown = {k: round(v, 4) for k, v in report.constants.items()
         if k in ("testing_strong", "norm_lb", "ratio_strong")}
print(f"constants: {shown}")

# A sweep re-runs one template over a parameter grid and a seed list and
# aggregates per-geometry maxima, which is how the equivalence constants
# are checked for stability.
template = {k: v for k, v in scenario.items() if k != "checks"}
template["checks"] = ["theorem-b"]
reports, summary = sweep(template, {"exponents.q": [2.0, 3.0]},
                         seeds=[0, 1, 2])
print(f"\nsweep: {summary['runs']} runs, any_fail={summary['any_fail']}")
for label, group in summary["groups"].items():
    top = group["constants_max"]["ratio_strong"]
    print(f"  {label}: max equivalence ratio {top:.4f}")

# Reports serialize to JSON; the deterministic view excludes timings and
# the environment stamp, so the hash repeats on every rerun on one machine.
doc = json.loads(json.dumps({"hash": report.hash}))
print(f"\nreport hash: {doc['hash'][:16]}... (stable across reruns)")
