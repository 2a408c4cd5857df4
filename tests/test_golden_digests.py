"""The benchmark's seed-0 scenarios still give the digests in
``perfbench/golden.json``.

``perfbench/run.py`` gates each benchmark run on these outcome digests, so
until now a drift showed only in a benchmark run. This test runs every
plan of both workloads at the default seed through ``cli.main``, as the
benchmark does, and hashes each report with the benchmark's own
``outcome_digest``. The benchmark's modules and ``golden.json`` are loaded
by path, without importing the benchmark package. The digests are recorded
per OpenBLAS core type, so the test skips on a core type with none.
"""

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

from dyadica import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str, monkeypatch):
    """perfbench/<name>.py as the top-level module ``name``, which is how
    run.py imports its siblings."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["euclid-tree", "sweep-small"])
def test_seed_zero_digests_match_golden(workload, tmp_path, monkeypatch):
    # run.py pins the BLAS thread variables when it is loaded; monkeypatch
    # puts them back afterwards
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    workloads = _load("workloads", monkeypatch)
    _load("tracing", monkeypatch)
    run = _load("run", monkeypatch)
    core = run._openblas_runtime()[0]
    golden = run.load_golden(workload, workloads.DEFAULT_SEED, core)
    if golden is None:
        pytest.skip(f"golden.json has no digests for BLAS core {core}")
    digests = {}
    plans = workloads.write_plans(workload, workloads.DEFAULT_SEED,
                                  str(tmp_path / workload))
    for i, plan in enumerate(plans):
        reports = tmp_path / f"{i}.reports.json"
        assert cli.main(["sweep", "--config", plan, "--format", "csv",
                         "--out", str(tmp_path / f"{i}.csv"),
                         "--reports", str(reports)]) == 0
        for report in json.loads(reports.read_text()):
            label = workloads.scenario_label(report["scenario"])
            digests[label] = run.outcome_digest(report)
    assert digests == golden
