"""Record the golden outcome digests of every workload at the default seed.

    python3 perfbench/record_golden.py

Runs each workload's sweep calls once and stores one digest per scenario in
golden.json under this machine's OpenBLAS core type; entries for other
core types are kept. Record only on a commit whose reports are known good:
the benchmark fails any later run at the default seed whose digests differ.
"""

from __future__ import annotations

import json
import sys

import run  # pins the BLAS threads before numpy loads
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(parents=True, exist_ok=True)
    core = run.machine_stamp()["blas_core"]
    golden = {}
    if run.GOLDEN.is_file():
        with open(run.GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
    entry = golden.setdefault(core, {})
    seed = workloads.DEFAULT_SEED
    for name in workloads.WORKLOADS:
        stem = f"{name}-{seed}"
        gate = run.Gate(golden=None)
        plans = workloads.write_plans(name, seed, str(run.OUT / stem))
        for i, plan in enumerate(plans):
            call = run.Call(plan, f"{stem}.{i}")
            gate.check(*call.run()[1:], call.expected)
        if gate.failed:
            for label, why in gate.failures.items():
                print(f"error: {name} {label}: {why}", file=sys.stderr)
            return 1
        entry[name] = gate.digests
        print(f"{core} {name}: {len(gate.digests)} digests", file=sys.stderr)
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
