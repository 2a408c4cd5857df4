"""Command line subcommands, file formats, and exit codes."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from dyadica.cli import build_parser, main
from dyadica.dyadic import dyadic_parameters
from dyadica.errors import ConfigError
from dyadica.harness import run_scenario
from dyadica.space import _SPACE_PARAMS, load_space

BV_KERNEL = {"type": "ball_volume", "gamma": 0.5, "measure": "mu",
             "ball": "closed"}
PAIR = {"sigma": "sigma", "omega": "omega"}


@pytest.fixture
def space_file(tmp_path):
    path = tmp_path / "seg12.json"
    rc = main(["gen-space", "--kind", "integer_segment_counting",
               "--n", "12", "--measure", "sigma=random:3",
               "--measure", "omega=random:5:0.25", "--out", str(path)])
    assert rc == 0
    return str(path)


@pytest.fixture
def scenario(tmp_path, space_file):
    """Write a scenario file over the fixture space and return its path;
    keyword fields are added to it, and a field given as None is left out."""
    names = (f"scenario{i}.json" for i in itertools.count())

    def write(**fields):
        doc = {"space": {"file": space_file}, **fields}
        path = tmp_path / next(names)
        path.write_text(json.dumps(
            {k: v for k, v in doc.items() if v is not None}))
        return str(path)

    return write


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

    @pytest.mark.parametrize("spec,message", [
        ("random:1:1.5", "measure.w.zero_fraction: need [0, 1), got 1.5"),
        ("random:-1", "measure.w: bad random spec"),
    ])
    def test_measure_error_names_its_field(self, tmp_path, capsys, spec,
                                           message):
        rc = main(["gen-space", "--kind", "integer_segment_counting",
                   "--n", "3", "--measure", f"w={spec}",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    def test_missing_out(self):
        assert main(["gen-space", "--kind", "integer_segment_counting",
                     "--n", "3"]) == 2

    def test_bad_params(self, tmp_path):
        rc = main(["gen-space", "--kind", "ultrametric_tree", "--depth", "0",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        rc = main(["gen-space", "--kind", "euclidean_random_points",
                   "--n", "4", "--seed", "-1",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: seed")

    def test_parameter_the_kind_does_not_take(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        rc = main(["gen-space", "--kind", "integer_segment_counting",
                   "--n", "4", "--ratio", "0.5", "--out", str(out)])
        assert rc == 2
        assert "space: ratio: unknown parameter" in capsys.readouterr().err
        assert not out.exists()


class TestBuildDyadic:
    def test_dump_structure(self, scenario, tmp_path):
        out = tmp_path / "dy.json"
        rc = main(["build-dyadic", "--config", scenario(seed=1),
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

    def test_unknown_space_file_key_exits_2(self, space_file, scenario,
                                            tmp_path, capsys):
        doc = json.loads(Path(space_file).read_text())
        doc["measure"] = doc.pop("measures")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = main(["build-dyadic", "--config",
                   scenario(space={"file": str(bad)}),
                   "--out", str(tmp_path / "dy.json")])
        assert rc == 2
        assert "measure: unknown field" in capsys.readouterr().err

    def test_x0_center_at_every_scale(self, scenario, tmp_path):
        out = tmp_path / "dy.json"
        rc = main(["build-dyadic", "--config", scenario(dyadic={"x0": 7}),
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        cubes = doc["systems"][0]
        for k in range(doc["k_min"], doc["k_max"] + 1):
            assert any(c["k"] == k and c["center"] == 7 for c in cubes)

    @pytest.mark.parametrize("space", [
        {"kind": "integer_segment_counting", "n": 12},
        {"n": 12, "metric": {"type": "euclidean",
                             "coords": [[i] for i in range(12)]}},
    ], ids=["kind", "metric"])
    def test_every_space_form_and_family_field(self, scenario, tmp_path,
                                               space):
        out = tmp_path / "dy.json"
        rc = main(["build-dyadic", "--config", scenario(
            space=space, dyadic={"x0": 7, "num_systems": 2}),
            "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["num_systems"] == 2
        cubes = doc["systems"][0]
        for k in range(doc["k_min"], doc["k_max"] + 1):
            assert any(c["k"] == k and c["center"] == 7 for c in cubes)

    def test_relaxed_delta_gate(self, scenario, tmp_path):
        out = str(tmp_path / "dy.json")
        dyadic = {"delta": 0.02}
        assert main(["build-dyadic", "--config", scenario(dyadic=dyadic),
                     "--out", out]) == 2
        assert main(["build-dyadic", "--config",
                     scenario(dyadic=dyadic, relaxed_delta=True),
                     "--out", out]) == 0
        doc = json.loads((tmp_path / "dy.json").read_text())
        assert doc["strict"] is False

    @pytest.mark.parametrize("ulps,strict", [(0, True), (3, True),
                                             (10_000, False)])
    def test_strict_bound_classed_alike(self, space_file, scenario, tmp_path,
                                        ulps, strict):
        # on the segment a0 = 1, so the bound is delta = 1/96; a few ulps
        # above it stay inside the roundoff guard, ten thousand do not
        space, _ = load_space(space_file)
        delta = 1.0 / 96.0
        for _ in range(ulps):
            delta = float(np.nextafter(delta, 1.0))
        assert dyadic_parameters(space.a0, delta)[3] is strict

        out = tmp_path / "dy.json"
        rc = main(["build-dyadic", "--config",
                   scenario(dyadic={"delta": delta}), "--out", str(out)])
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

    def test_delta_out_of_range_is_a_config_error(self, space_file, scenario,
                                                  tmp_path):
        rc = main(["build-dyadic", "--config",
                   scenario(dyadic={"delta": 1.5}, relaxed_delta=True),
                   "--out", str(tmp_path / "dy.json")])
        assert rc == 2
        with pytest.raises(ConfigError, match="dyadic.delta"):
            run_scenario({"space": {"file": space_file},
                          "dyadic": {"delta": 0.0}, "checks": ["dyadic"],
                          "relaxed_delta": True})


class TestCheckCommands:
    def test_verify_dyadic(self, scenario, tmp_path):
        out = tmp_path / "rep.json"
        rc = main(["verify-dyadic", "--config", scenario(),
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        names = [c["name"] for c in doc["checks"]]
        assert "dyadic.coverage" in names
        assert doc["counts"]["fail"] == 0

    def test_verify_dyadic_csv(self, scenario, tmp_path):
        out = tmp_path / "rep.csv"
        rc = main(["verify-dyadic", "--config", scenario(),
                   "--format", "csv", "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("name,status,constant,witness")

    def test_kernel_check(self, scenario):
        assert main(["kernel-check", "--config",
                     scenario(kernel=BV_KERNEL)]) == 0

    def test_operators_check(self, scenario):
        assert main(["operators-check", "--config",
                     scenario(kernel=BV_KERNEL, budget=2)]) == 0

    def test_theorem_b_report_schema(self, scenario, tmp_path):
        # the subcommand replaces the file's checks with its own
        out = tmp_path / "tb.json"
        config = scenario(kernel=BV_KERNEL, measures=PAIR,
                          exponents={"p": 2, "q": 2}, budget=3, seed=0,
                          checks=["space"])
        rc = main(["theorem-b", "--config", config, "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["scenario_hash"]
        assert doc["scenario"]["checks"] == ["theorem-b"]
        for key in ("testing_strong", "testing_dual", "norm_lb",
                    "ratio_strong"):
            assert key in doc["constants"]
        assert "theorem-b" in doc["timings"]

    def test_weak_type(self, scenario):
        rc = main(["weak-type", "--config", scenario(
            kernel=BV_KERNEL, measures=PAIR, exponents={"p": 2, "q": 2},
            budget=2)])
        assert rc == 0

    def test_theorem_a_with_gamma_and_infinite_q(self, scenario):
        rc = main(["theorem-a", "--config", scenario(
            measures=PAIR, gamma=0.25, exponents={"p": 2, "q": "inf"},
            budget=2)])
        assert rc == 0

    def test_infinite_q_rejected_for_theorem_b(self, scenario):
        rc = main(["theorem-b", "--config", scenario(
            kernel=BV_KERNEL, measures=PAIR, exponents={"p": 2, "q": "inf"})])
        assert rc == 2

    def test_missing_space(self, scenario):
        assert main(["theorem-b", "--config",
                     scenario(space=None, kernel=BV_KERNEL)]) == 2

    @pytest.mark.parametrize("field", ["measures", "exponents", "dyadic"])
    def test_config_field_not_an_object_exits_two(self, scenario, capsys,
                                                  field):
        assert main(["verify-dyadic", "--config",
                     scenario(**{field: 5})]) == 2
        assert f"config error: {field}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify-dyadic", "build-dyadic"])
    def test_missing_space_file_exits_two(self, scenario, tmp_path, capsys,
                                          command):
        missing = str(tmp_path / "absent.json")
        argv = [command, "--config", scenario(space={"file": missing})]
        if command == "build-dyadic":
            argv += ["--out", str(tmp_path / "dump.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {missing}")

    # the ids name the flags these fields were once set by, so that the
    # test names stay the same
    @pytest.mark.parametrize("command", ["verify-dyadic", "build-dyadic"])
    @pytest.mark.parametrize("dyadic,field", [
        ({"x0": 99}, "dyadic.x0"),
        ({"x0": -1}, "dyadic.x0"),
        ({"max_systems": 0}, "dyadic.max_systems"),
    ], ids=["--x0-99-dyadic.x0", "--x0--1-dyadic.x0",
            "--systems-0-dyadic.max_systems"])
    def test_out_of_range_dyadic_field_exits_two(self, scenario, tmp_path,
                                                 capsys, command, dyadic,
                                                 field):
        out = tmp_path / "dump.json"
        assert main([command, "--config", scenario(dyadic=dyadic),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}")
        assert not out.exists()

    def test_failing_check_exits_one(self, scenario):
        rc = main(["theorem-b", "--config", scenario(
            kernel={"type": "frac_rho", "alpha": 0.5, "n": 1.0},
            measures=PAIR)])
        assert rc == 1

    def test_determinism_across_invocations(self, scenario, tmp_path):
        config = scenario(kernel=BV_KERNEL, measures=PAIR, budget=2)
        views = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            main(["theorem-b", "--config", config, "--out", str(out)])
            doc = json.loads(out.read_text())
            doc.pop("environment")
            doc.pop("timings")
            views.append(json.dumps(doc, sort_keys=True))
        assert views[0] == views[1]

    @pytest.mark.parametrize("command", ["verify-dyadic", "build-dyadic",
                                         "sweep"])
    def test_relative_space_file_is_read_next_to_its_file(
            self, space_file, tmp_path, monkeypatch, command):
        # the scenario (or plan) and its space file sit in sub/, the run
        # starts in tmp_path, and the report echoes the path as written
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "space.json").write_text(Path(space_file).read_text())
        doc = {"space": {"file": "space.json"}, "checks": ["space"]}
        if command == "sweep":
            doc = {"template": doc, "seeds": [0]}
        (sub / "doc.json").write_text(json.dumps(doc))
        monkeypatch.chdir(tmp_path)
        argv = [command, "--config", "sub/doc.json", "--out", "out.json"]
        if command == "sweep":
            argv += ["--reports", "reports.json"]
        assert main(argv) == 0
        if command == "build-dyadic":
            assert json.loads((tmp_path / "out.json").read_text())
            return
        report = json.loads((tmp_path / ("out.json" if command != "sweep"
                                         else "reports.json")).read_text())
        report = report[0] if command == "sweep" else report
        assert report["scenario"]["space"] == {"file": "space.json"}
        assert report["scenario_hash"] == run_scenario(
            dict(report["scenario"]), str(sub)).scenario_hash

    def test_missing_config_exits_two(self, capsys):
        assert main(["verify-dyadic"]) == 2
        assert capsys.readouterr().err.startswith("config error: config")

    @pytest.mark.parametrize("command,flag", [
        ("verify-dyadic", "--out"), ("sweep", "--out"),
        ("sweep", "--reports"), ("gen-space", "--out"),
        ("build-dyadic", "--out"),
    ])
    def test_unwritable_output_exits_two(self, scenario, tmp_path, capsys,
                                         command, flag):
        bad = str(tmp_path / "absent" / "out.json")
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"template": json.loads(
            Path(scenario(checks=["space"])).read_text())}))
        argv = {"verify-dyadic": ["--config", scenario()],
                "build-dyadic": ["--config", scenario()],
                "sweep": ["--config", str(plan)],
                "gen-space": ["--kind", "integer_segment_counting",
                              "--n", "3"]}[command]
        assert main([command, *argv, flag, bad]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: {flag[2:]}: ")


class TestSweepCommand:
    def test_sweep_summary_and_reports(self, space_file, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "template": {
                "space": {"file": space_file},
                "kernel": BV_KERNEL,
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
                         "kernel": BV_KERNEL,
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


# every option of every subcommand; a flag its command never reads would
# have to be added here to pass
SURFACE = {
    "gen-space": ["--kind", "--n", "--dim", "--power", "--depth",
                  "--branching", "--ratio", "--measure", "--seed", "--out"],
    "build-dyadic": ["--config", "--out"],
    **{name: ["--config", "--out", "--format"]
       for name in ("verify-dyadic", "kernel-check", "operators-check",
                    "theorem-b", "weak-type", "theorem-a")},
    "sweep": ["--config", "--reports", "--out", "--format"],
}


def _subparsers():
    ap = build_parser()
    return next(a for a in ap._actions if a.dest == "command").choices


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

    def test_gen_space_follows_the_generator_table(self):
        # a kind added to space._SPACE_PARAMS reaches gen-space with no CLI
        # edit: its name as a --kind choice, its parameters as typed flags
        actions = {a.dest: a for a in _subparsers()["gen-space"]._actions}
        assert actions["kind"].choices == tuple(_SPACE_PARAMS)
        flags = {}
        for params in _SPACE_PARAMS.values():
            flags.update(params)
        assert {key: actions[key].type for key in flags} == flags
        assert set(actions) - set(flags) == {"help", "kind", "measure",
                                             "seed", "out"}

    def test_surface_has_34_options(self):
        assert sorted(_subparsers()) == sorted(SURFACE)
        assert sum(map(len, SURFACE.values())) == 34

    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_options_of_each_command_are_pinned(self, command):
        parser = _subparsers()[command]
        options = [opt for action in parser._actions
                   for opt in action.option_strings
                   if opt not in ("-h", "--help")]
        assert sorted(options) == sorted(SURFACE[command])

    @pytest.mark.parametrize("command,flags", [
        ("gen-space", ["--config", "c.json"]),
        ("gen-space", ["--format", "csv"]),
        ("gen-space", ["--relaxed-delta"]),
        ("build-dyadic", ["--format", "csv"]),
        ("build-dyadic", ["--relaxed-delta"]),
        ("build-dyadic", ["--x0", "3"]),
        ("verify-dyadic", ["--p", "2"]),
        ("verify-dyadic", ["--gamma", "0.5"]),
        ("verify-dyadic", ["--budget", "2"]),
        ("verify-dyadic", ["--measures", "sigma,omega"]),
        ("theorem-b", ["--seed", "1"]),
        ("sweep", ["--relaxed-delta"]),
    ])
    def test_flags_once_ignored_exit_two(self, capsys, command, flags):
        if command == "gen-space":
            flags = ["--kind", "integer_segment_counting", *flags]
        with pytest.raises(SystemExit) as exc:
            main([command, *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
