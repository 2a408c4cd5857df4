"""Command line subcommands, file formats, and exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from dyadica.cli import main
from dyadica.dyadic import dyadic_parameters
from dyadica.errors import ConfigError
from dyadica.harness import run_scenario
from dyadica.space import load_space

BV_KERNEL = ('{"type":"ball_volume","gamma":0.5,'
             '"measure":"mu","ball":"closed"}')


@pytest.fixture
def space_file(tmp_path):
    path = tmp_path / "seg12.json"
    rc = main(["gen-space", "--kind", "integer_segment_counting",
               "--n", "12", "--measure", "sigma=random:3",
               "--measure", "omega=random:5:0.25", "--out", str(path)])
    assert rc == 0
    return str(path)


class TestGenSpace:
    def test_writes_loadable_file(self, space_file):
        space, measures = load_space(space_file)
        assert space.n == 12
        assert set(measures) == {"mu", "sigma", "omega"}
        assert np.all(measures["mu"].masses == 1.0)
        assert measures["sigma"].total > 0

    def test_deterministic_bytes(self, tmp_path):
        paths = []
        for name in ("a.json", "b.json"):
            p = tmp_path / name
            main(["gen-space", "--kind", "snowflake_power", "--n", "6",
                  "--power", "2", "--measure", "sigma=random:1",
                  "--out", str(p)])
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_explicit_mass_list(self, tmp_path):
        p = tmp_path / "m.json"
        rc = main(["gen-space", "--kind", "integer_segment_counting",
                   "--n", "3", "--measure", "w=2,0,1", "--out", str(p)])
        assert rc == 0
        _, measures = load_space(str(p))
        assert list(measures["w"].masses) == [2.0, 0.0, 1.0]

    def test_bad_measure_spec_is_config_error(self, tmp_path):
        rc = main(["gen-space", "--kind", "integer_segment_counting",
                   "--n", "3", "--measure", "w=nonsense",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2

    def test_missing_out(self):
        assert main(["gen-space", "--kind", "integer_segment_counting",
                     "--n", "3"]) == 2

    def test_bad_params(self, tmp_path):
        rc = main(["gen-space", "--kind", "ultrametric_tree", "--depth", "0",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2

    def test_parameter_the_kind_does_not_take(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        rc = main(["gen-space", "--kind", "integer_segment_counting",
                   "--n", "4", "--ratio", "0.5", "--out", str(out)])
        assert rc == 2
        assert "space: ratio: unknown parameter" in capsys.readouterr().err
        assert not out.exists()


class TestBuildDyadic:
    def test_dump_structure(self, space_file, tmp_path):
        out = tmp_path / "dy.json"
        rc = main(["build-dyadic", "--space", space_file, "--seed", "1",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["strict"] is True
        for cubes in doc["systems"]:
            by_key = {(c["k"], c["alpha"]): c for c in cubes}
            for c in cubes:
                if c["k"] == doc["k_min"]:
                    assert c["parent"] is None
                else:
                    parent = by_key[(c["k"] - 1, c["parent"])]
                    assert set(c["members"]) <= set(parent["members"])
        cert = doc["certificate"]
        assert cert["observed_C"] <= cert["C_bound"]
        for entry in cert["entries"]:
            k, alpha = entry["cube"]
            cube = next(c for c in doc["systems"][entry["system"]]
                        if c["k"] == k and c["alpha"] == alpha)
            assert entry["ball"]["center"] in cube["members"]
            if entry["ratio"] is not None:
                assert entry["ratio"] <= cert["C_bound"]

    def test_unknown_space_file_key_exits_2(self, space_file, tmp_path,
                                            capsys):
        doc = json.loads(Path(space_file).read_text())
        doc["measure"] = doc.pop("measures")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = main(["build-dyadic", "--space", str(bad),
                   "--out", str(tmp_path / "dy.json")])
        assert rc == 2
        assert "measure: unknown field" in capsys.readouterr().err

    def test_x0_center_at_every_scale(self, space_file, tmp_path):
        out = tmp_path / "dy.json"
        rc = main(["build-dyadic", "--space", space_file, "--x0", "7",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        cubes = doc["systems"][0]
        for k in range(doc["k_min"], doc["k_max"] + 1):
            assert any(c["k"] == k and c["center"] == 7 for c in cubes)

    def test_relaxed_delta_gate(self, space_file, tmp_path):
        args = ["build-dyadic", "--space", space_file, "--delta", "0.02",
                "--out", str(tmp_path / "dy.json")]
        assert main(args) == 2
        assert main(args + ["--relaxed-delta"]) == 0
        doc = json.loads((tmp_path / "dy.json").read_text())
        assert doc["strict"] is False

    @pytest.mark.parametrize("ulps,strict", [(0, True), (3, True),
                                             (10_000, False)])
    def test_strict_bound_classed_alike(self, space_file, tmp_path, ulps,
                                        strict):
        # on the segment a0 = 1, so the bound is delta = 1/96; a few ulps
        # above it stay inside the roundoff guard, ten thousand do not
        space, _ = load_space(space_file)
        delta = 1.0 / 96.0
        for _ in range(ulps):
            delta = float(np.nextafter(delta, 1.0))
        assert dyadic_parameters(space.a0, delta)[3] is strict

        out = tmp_path / "dy.json"
        rc = main(["build-dyadic", "--space", space_file, "--delta",
                   repr(delta), "--out", str(out)])
        assert rc == (0 if strict else 2)
        if strict:
            assert json.loads(out.read_text())["strict"] is True

        doc = {"space": {"file": space_file}, "dyadic": {"delta": delta},
               "checks": ["dyadic"]}
        if strict:
            rep = run_scenario(doc)
            assert rep.counts["pass"] > 0 and rep.counts["non-strict"] == 0
        else:
            with pytest.raises(ConfigError, match="strict bound"):
                run_scenario(doc)

    def test_delta_out_of_range_is_a_config_error(self, space_file, tmp_path):
        rc = main(["build-dyadic", "--space", space_file, "--delta", "1.5",
                   "--relaxed-delta", "--out", str(tmp_path / "dy.json")])
        assert rc == 2
        with pytest.raises(ConfigError, match="dyadic.delta"):
            run_scenario({"space": {"file": space_file},
                          "dyadic": {"delta": 0.0}, "checks": ["dyadic"],
                          "relaxed_delta": True})


class TestCheckCommands:
    def test_verify_dyadic(self, space_file, tmp_path):
        out = tmp_path / "rep.json"
        rc = main(["verify-dyadic", "--space", space_file,
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        names = [c["name"] for c in doc["checks"]]
        assert "dyadic.coverage" in names
        assert doc["counts"]["fail"] == 0

    def test_verify_dyadic_csv(self, space_file, tmp_path):
        out = tmp_path / "rep.csv"
        rc = main(["verify-dyadic", "--space", space_file, "--format", "csv",
                   "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("name,status,constant,witness")

    def test_kernel_check(self, space_file):
        assert main(["kernel-check", "--space", space_file,
                     "--kernel", BV_KERNEL]) == 0

    def test_operators_check(self, space_file):
        assert main(["operators-check", "--space", space_file,
                     "--kernel", BV_KERNEL, "--budget", "2"]) == 0

    def test_theorem_b_report_schema(self, space_file, tmp_path):
        out = tmp_path / "tb.json"
        rc = main(["theorem-b", "--space", space_file, "--kernel", BV_KERNEL,
                   "--measures", "sigma,omega", "--p", "2", "--q", "2",
                   "--budget", "3", "--seed", "0", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["scenario_hash"]
        for key in ("testing_strong", "testing_dual", "norm_lb",
                    "ratio_strong"):
            assert key in doc["constants"]
        assert "theorem-b" in doc["timings"]

    def test_weak_type(self, space_file):
        rc = main(["weak-type", "--space", space_file, "--kernel", BV_KERNEL,
                   "--measures", "sigma,omega", "--p", "2", "--q", "2",
                   "--budget", "2"])
        assert rc == 0

    def test_theorem_a_with_gamma_and_infinite_q(self, space_file):
        rc = main(["theorem-a", "--space", space_file,
                   "--measures", "sigma,omega", "--gamma", "0.25",
                   "--p", "2", "--q", "inf", "--budget", "2"])
        assert rc == 0

    def test_infinite_q_rejected_for_theorem_b(self, space_file):
        rc = main(["theorem-b", "--space", space_file, "--kernel", BV_KERNEL,
                   "--measures", "sigma,omega", "--p", "2", "--q", "inf"])
        assert rc == 2

    def test_missing_space(self):
        assert main(["theorem-b", "--kernel", BV_KERNEL]) == 2

    @pytest.mark.parametrize("field", ["measures", "exponents", "dyadic"])
    def test_config_field_not_an_object_exits_two(self, space_file, tmp_path,
                                                  capsys, field):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({"space": {"file": space_file},
                                      field: 5}))
        assert main(["verify-dyadic", "--config", str(config)]) == 2
        assert f"config error: {field}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify-dyadic", "build-dyadic"])
    def test_missing_space_file_exits_two(self, tmp_path, capsys, command):
        missing = str(tmp_path / "absent.json")
        argv = [command, "--space", missing]
        if command == "build-dyadic":
            argv += ["--out", str(tmp_path / "dump.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {missing}")

    @pytest.mark.parametrize("command", ["verify-dyadic", "build-dyadic"])
    @pytest.mark.parametrize("flag,value,field", [
        ("--x0", "99", "dyadic.x0"),
        ("--x0", "-1", "dyadic.x0"),
        ("--systems", "0", "dyadic.max_systems"),
    ])
    def test_out_of_range_dyadic_field_exits_two(self, space_file, tmp_path,
                                                 capsys, command, flag,
                                                 value, field):
        out = tmp_path / "dump.json"
        assert main([command, "--space", space_file, flag, value,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}")
        assert not out.exists()

    def test_failing_check_exits_one(self, space_file):
        rc = main(["theorem-b", "--space", space_file,
                   "--kernel", '{"type":"frac_rho","alpha":0.5,"n":1.0}',
                   "--measures", "sigma,omega"])
        assert rc == 1

    def test_config_file_with_flag_override(self, space_file, tmp_path):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({
            "space": {"file": space_file},
            "kernel": json.loads(BV_KERNEL),
            "exponents": {"p": 2, "q": 4},
            "budget": 2,
        }))
        out = tmp_path / "rep.json"
        rc = main(["theorem-b", "--config", str(config), "--p", "3",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["scenario"]["exponents"]["p"] == 3.0
        assert doc["scenario"]["exponents"]["q"] == 4.0

    def test_determinism_across_invocations(self, space_file, tmp_path):
        views = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            main(["theorem-b", "--space", space_file, "--kernel", BV_KERNEL,
                  "--measures", "sigma,omega", "--budget", "2",
                  "--out", str(out)])
            doc = json.loads(out.read_text())
            doc.pop("environment")
            doc.pop("timings")
            views.append(json.dumps(doc, sort_keys=True))
        assert views[0] == views[1]


class TestSweepCommand:
    def test_sweep_summary_and_reports(self, space_file, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "template": {
                "space": {"file": space_file},
                "kernel": json.loads(BV_KERNEL),
                "measures": {"sigma": {"random": {}},
                             "omega": {"random": {"seed": 1}}},
                "checks": ["theorem-b"],
                "budget": 2,
            },
            "grid": {"exponents.p": [1.5, 2.0]},
            "seeds": [0, 1],
        }))
        out = tmp_path / "summary.json"
        reports = tmp_path / "reports.json"
        rc = main(["sweep", "--config", str(config), "--out", str(out),
                   "--reports", str(reports)])
        assert rc == 0
        summary = json.loads(out.read_text())["summary"]
        assert summary["runs"] == 4
        group = next(iter(summary["groups"].values()))
        assert group["constants_max"]["ratio_strong"] > 0
        assert len(json.loads(reports.read_text())) == 4

    def test_sweep_csv(self, space_file, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "template": {"space": {"file": space_file},
                         "checks": ["space"]},
            "grid": {},
            "seeds": [0, 1],
        }))
        out = tmp_path / "runs.csv"
        rc = main(["sweep", "--config", str(config), "--format", "csv",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3

    def test_sweep_all_combos_erroring_exits_two(self, space_file, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "template": {"space": {"file": space_file},
                         "kernel": json.loads(BV_KERNEL),
                         "checks": ["kernel"]},
            "grid": {"kernel.gamma": [7.0]},
        }))
        assert main(["sweep", "--config", str(config)]) == 2

    def test_sweep_requires_config(self):
        assert main(["sweep"]) == 2

    def test_unknown_sweep_field(self, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"template": {}, "grids": {}}))
        assert main(["sweep", "--config", str(config)]) == 2


class TestArgparseBehavior:
    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["theorem-b", "--bogus"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()
