"""Scenario plumbing, report determinism, and sweeps."""

import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import dyadica
from dyadica.errors import ConfigError
from dyadica.harness import (
    _Run,
    random_measure,
    run_scenario,
    set_by_path,
    summarize,
    sweep,
)
from dyadica.policy import CheckReport
from dyadica.reporting import (
    KNOWN_CHECKS,
    Report,
    Scenario,
    canonical_json,
    content_hash,
    deterministic_view,
    jsonable,
    report_to_csv,
    reports_to_csv,
    row,
)

from conftest import with_C_K


def segment_scenario(n=8, budget=2, **extra):
    doc = {
        "space": {"kind": "integer_segment_counting", "n": n},
        "kernel": {"type": "ball_volume", "gamma": 0.5, "measure": "mu",
                   "ball": "closed"},
        "budget": budget,
    }
    doc.update(extra)
    return doc


def theorem_a_doc(doc):
    return dict(doc, checks=["theorem-a"], seed=0, budget=3)


def kernel_doc(doc):
    return dict(doc, checks=["kernel"], seed=0)


_OMEGA = {"random": {"seed": 2, "zero_fraction": 0.2}}

# theorem-a-only reports: the testing branch with a doubling mu, at p=q=2
# and at p=1.5, q=3; the necessity branch; a mu with null points, whose
# ball/dyadic comparison is vacuous
THEOREM_A_PINS = [
    ({"space": {"kind": "integer_segment_counting", "n": 16},
      "measures": {"omega": _OMEGA}},
     "82d08274e278aa7a083b8b07e1fd5b58d7905c251c6a8ccf3bede266cd13739c"),
    ({"space": {"kind": "euclidean_random_points", "n": 16},
      "measures": {"omega": _OMEGA}, "exponents": {"p": 1.5, "q": 3.0}},
     "4a07b66160d8b545ac68c61742b72e644ad758bc2eae0101ab0a14928c8950c3"),
    ({"space": {"kind": "ultrametric_tree", "depth": 3, "branching": 3},
      "measures": {"sigma": {"random": {"seed": 1, "zero_fraction": 0.2}},
                   "omega": _OMEGA}},
     "59910bcf867dc9ac2c622f4a4664830df9a8a27e6420e7c4cc7c33f7c9cd99ab"),
    ({"space": {"kind": "integer_segment_counting", "n": 12},
      "measures": {"mu": {"random": {"seed": 3, "zero_fraction": 0.3}},
                   "omega": _OMEGA}},
     "6cd10e1d40d37e2559a208ba0d0108172bf2ba9a9a847041a9de102f0778a610"),
]

# kernel-only reports: strict and closed ball-volume kernels (their growth
# constants and envelopes), one whose strict ball (7, dist(7, 11)) has no
# mu mass, and a frac_rho kernel
KERNEL_PINS = [
    ({"space": {"kind": "euclidean_random_points", "n": 20},
      "kernel": {"type": "ball_volume", "gamma": 0.5, "ball": "strict"}},
     "69b207568e0b678481215c0ba4ef79f2b243e127bda93dc45d8404ea9c9b6361"),
    ({"space": {"kind": "ultrametric_tree", "depth": 3, "branching": 3},
      "kernel": {"type": "ball_volume", "gamma": 0.25},
      "measures": {"mu": {"random": {"seed": 4}}}},
     "382cc498ff4de37c6297b092e9d68ab9d15356666d83db4644698de74509a70f"),
    ({"space": {"kind": "euclidean_random_points", "n": 12},
      "kernel": {"type": "ball_volume", "gamma": 0.5, "ball": "strict"},
      "measures": {"mu": {"random": {"seed": 14, "zero_fraction": 0.3}}}},
     "32218db950dcdcbb16bace79a45c02d48647003598aae150f7961d23bb5203e0"),
    ({"space": {"kind": "euclidean_random_points", "n": 16},
      "kernel": {"type": "frac_rho", "alpha": 0.5, "n": 1, "diag": 1.0}},
     "6ebf7fe21da3c9328fcb26604c42aa23ac08c2dc6a0411858290a9456a3ea6e1"),
]


_PIN_MEASURES = {"sigma": {"random": {"seed": 5}},
                 "omega": {"random": {"seed": 6, "zero_fraction": 0.25}}}


def pin_doc(space, **extra):
    doc = {"space": space,
           "kernel": {"type": "ball_volume", "ball": "closed", "gamma": 0.5},
           "measures": _PIN_MEASURES, "seed": 0, "budget": 2}
    doc.update(extra)
    return doc


def segment(n):
    return {"kind": "integer_segment_counting", "n": n}


# an all-ones kernel has C_K = 1, so the maximum principles run at
# C = C_m = 2 and cover some level sets by proper cubes
PROPER_COVER_PIN = pin_doc(segment(12), checks=["stopping"], kernel={
    "type": "matrix", "values": (1.0 - np.eye(12)).tolist(),
    "diag": [1.0] * 12})

# whole reports on the paths that only some rows take: non-strict rows
# under a relaxed delta (on a segment, and on a tree at p=1.5, q=3), two
# systems, a frac_rho kernel, a mu with null points (theorem-b fails and
# the ball/dyadic comparison is vacuous), and theorem-a alone on a sigma
# with a null point (the necessity branch) and on a non-doubling mu, and
# the stopping rows on proper cover cubes. The
# digests hold under the OpenBLAS Haswell and SkylakeX core types; under
# Prescott the first four differ, since full reports include the
# matrix-vector products whose rounding depends on the core type.
SCENARIO_PINS = [
    (pin_doc(segment(12), dyadic={"delta": 0.25}, relaxed_delta=True),
     "276ec08fdce31ef3f5d33486a97ef32898799fffaa2955a946020f9bf13ae0b8"),
    (pin_doc({"kind": "ultrametric_tree", "depth": 2, "branching": 3,
              "ratio": 0.3}, dyadic={"delta": 0.3}, relaxed_delta=True,
             exponents={"p": 1.5, "q": 3}),
     "59a87b09e01bae68b897e01aa697c8d3eaaccd66065323ff3ed259bf97dd940d"),
    (pin_doc(segment(12), dyadic={"num_systems": 2}),
     "6035d358d62f7054a32c47d2e50a1d0f8b3bde35fb66fd4dfd426b9c49fd39e3"),
    (pin_doc(segment(10), kernel={"type": "frac_rho", "alpha": 0.5, "n": 1,
                                  "diag": 1}),
     "8050240b113e0965ed96b39591d466930ea61f607fac8e561d13d8df0486c414"),
    (pin_doc(segment(10), measures={
        "mu": [1, 0, 1, 1, 0, 1, 1, 1, 1, 1], "sigma": "counting",
        "omega": {"random": {"seed": 3, "zero_fraction": 0.3}}}),
     "114274ad19efd6c4cbd09b8bd25b557fc972890ca1acfa5cf714b098b69cb55b"),
    (pin_doc(segment(8), checks=["theorem-a"],
             measures=dict(_PIN_MEASURES, sigma=[1, 0, 1, 1, 1, 1, 1, 1])),
     "67de6848175754ad15dc676be48807f89600cf34bd223dc3bc65e8abf27991d5"),
    (pin_doc(segment(4), checks=["theorem-a"],
             measures=dict(_PIN_MEASURES, mu=[1, 0, 0, 0])),
     "33031335e496374e0a512f3ba0a115052ab5fa25c6d8c22ef096cb7f40ccdc38"),
    (PROPER_COVER_PIN,
     "dadff35c8cc20fd9debebf0abda297f056536cd33c71dda2a619b219723dd3f9"),
]


class TestJsonable:
    def test_numpy_and_tuples(self):
        doc = jsonable({"a": np.float64(2.5), "b": (1, np.int32(2)),
                        "c": np.arange(3.0)})
        assert doc == {"a": 2.5, "b": [1, 2], "c": [0.0, 1.0, 2.0]}

    def test_nonfinite_become_strings(self):
        assert jsonable([math.inf, -math.inf, math.nan]) == \
            ["inf", "-inf", "nan"]

    def test_canonical_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_content_hash_ignores_input_order(self):
        assert content_hash({"x": 1, "y": [2, 3]}) == \
            content_hash({"y": [2, 3], "x": 1})


class TestScenarioValidation:
    def test_defaults(self):
        sc = Scenario.from_dict(segment_scenario())
        assert sc.checks == KNOWN_CHECKS
        assert sc.exponents == {"p": 2.0, "q": 2.0}
        assert sc.seed == 0 and sc.budget == 2
        assert not sc.relaxed_delta

    def test_unknown_field(self):
        with pytest.raises(ConfigError, match="bogus"):
            Scenario.from_dict(segment_scenario(bogus=1))

    def test_space_required(self):
        with pytest.raises(ConfigError, match="space"):
            Scenario.from_dict({"kernel": {"type": "matrix"}})

    def test_space_single_form(self):
        doc = segment_scenario()
        doc["space"]["file"] = "also.json"
        with pytest.raises(ConfigError, match="exactly one"):
            Scenario.from_dict(doc)

    def test_unknown_check(self):
        with pytest.raises(ConfigError, match="theorem-c"):
            Scenario.from_dict(segment_scenario(checks=["theorem-c"]))

    def test_kernel_required_for_kernel_checks(self):
        doc = segment_scenario(checks=["kernel"])
        del doc["kernel"]
        with pytest.raises(ConfigError, match="kernel"):
            Scenario.from_dict(doc)

    @pytest.mark.parametrize("checks", [["kernel"], ["theorem-a"]])
    @pytest.mark.parametrize("kernel,field", [
        ({"type": "ball_volume"}, "gamma"),
        ({"type": "ball_volume", "gamma": None}, "gamma"),
        ({"type": "frac_rho", "n": 1}, "alpha"),
        ({"type": "frac_rho", "alpha": 0.5, "diag": 1}, "n"),
        ({"type": "matrix", "diag": 1}, "values"),
    ])
    def test_missing_kernel_field_is_refused(self, kernel, field, checks):
        # unrefused, the kernel stage failed on a TypeError's text, and a
        # theorem-a run took gamma = 0.5 for a ball_volume kernel without it
        with pytest.raises(ConfigError, match=f"^kernel.{field}: required "
                                              f"for a {kernel['type']} kernel$"):
            Scenario.from_dict(segment_scenario(kernel=kernel, checks=checks))

    def test_kernel_not_required_for_theorem_a(self):
        doc = segment_scenario(checks=["space", "dyadic", "theorem-a"])
        del doc["kernel"]
        sc = Scenario.from_dict(doc)
        assert sc.kernel is None

    def test_infinite_q_blocked_for_strong_type(self):
        doc = segment_scenario(exponents={"p": 2, "q": "inf"})
        with pytest.raises(ConfigError, match="exponents.q"):
            Scenario.from_dict(doc)

    def test_infinite_q_allowed_for_theorem_a(self):
        doc = segment_scenario(exponents={"p": 2, "q": "inf"},
                               checks=["theorem-a"])
        sc = Scenario.from_dict(doc)
        assert sc.exponents["q"] == math.inf

    def test_bad_exponents(self):
        with pytest.raises(ConfigError, match="exponents.p"):
            Scenario.from_dict(segment_scenario(exponents={"p": 1.0}))
        with pytest.raises(ConfigError, match="exponents.q"):
            Scenario.from_dict(segment_scenario(exponents={"p": 3, "q": 2}))

    def test_bad_measure_role(self):
        with pytest.raises(ConfigError, match="measures.weight"):
            Scenario.from_dict(segment_scenario(measures={"weight": "mu"}))

    def test_checks_run_in_dependency_order(self):
        doc = segment_scenario(checks=["kernel", "space", "dyadic"])
        sc = Scenario.from_dict(doc)
        assert sc.checks == ("space", "dyadic", "kernel")

    def test_hash_stable_under_key_order(self):
        a = Scenario.from_dict(segment_scenario())
        shuffled = dict(reversed(list(segment_scenario().items())))
        b = Scenario.from_dict(shuffled)
        assert a.hash == b.hash

    @pytest.mark.parametrize("path,value,field", [
        ("exponents", {"p": 1.5, "Q": 3}, "exponents.Q"),
        ("measures", {"sigma": {"random": {"zero_frac": 0.5}}},
         "measures.sigma.random.zero_frac"),
        ("kernel", {"type": "ball_volume", "gamma": 0.5, "bal": "strict"},
         "kernel.bal"),
        ("kernel", {"type": "frac_rho", "alpha": 0.5, "n": 1, "gamma": 0.5},
         "kernel.gamma"),
        ("kernel", {"type": "matrix", "values": [[0.0]], "alpha": 0.5},
         "kernel.alpha"),
        ("space", {"kind": "euclidean_random_points", "n": 6, "dims": 3},
         "space: dims"),
        ("kernel", {"type": "frac_rho", "alpha": 0.5, "n_dim": 1},
         "kernel.n_dim"),
        ("kernel", {"type": "matrix", "offdiag": [[0.0]]}, "kernel.offdiag"),
    ])
    def test_misspelled_field_is_rejected(self, path, value, field):
        # unchecked, each would run on the default of the field it misspells
        doc = segment_scenario(checks=["space"])
        doc[path] = value
        with pytest.raises(ConfigError, match=f"^{field}: unknown"):
            run_scenario(doc)

    @pytest.mark.parametrize("space,field", [
        ({"kind": "snowflake_power", "n": 4, "power": "2"}, "power"),
        ({"kind": "snowflake_power", "n": 4, "power": True}, "power"),
        ({"kind": "snowflake_power", "n": 4, "power": "x"}, "power"),
        ({"kind": "snowflake_power", "n": 4, "power": math.nan}, "power"),
        ({"kind": "euclidean_random_points", "n": 4, "power": math.inf},
         "power"),
        ({"kind": "ultrametric_tree", "depth": 2, "branching": 2,
          "ratio": None}, "ratio"),
    ])
    def test_float_space_parameter_is_typed(self, space, field):
        # unchecked, "2" and true ran as 2.0 and 1.0 but hashed as given
        with pytest.raises(ConfigError,
                           match=f"^space: '{field}' must be a finite number"):
            run_scenario(segment_scenario(checks=["space"], space=space))

    @pytest.mark.parametrize("kind,digest", [
        ("snowflake_power",
         "55f5be05f555302f415ded0519da9492b1ae162a18cf1c329f0ec59208fe823c"),
        ("euclidean_random_points",
         "d56500b71d429f5fabe5ef04544e483276ccafbdb9c8b3218c8d17d9773fdade"),
    ])
    def test_integer_float_parameter_runs_as_before(self, kind, digest):
        doc = segment_scenario(space={"kind": kind, "n": 6, "power": 2})
        assert run_scenario(doc).hash == digest

    def test_row_rejects_unknown_status(self):
        with pytest.raises(ValueError):
            row("x", "maybe")


class TestRandomMeasure:
    def test_deterministic_small_integers(self):
        a = random_measure(10, seed=3)
        b = random_measure(10, seed=3)
        assert np.array_equal(a.masses, b.masses)
        assert np.all(a.masses >= 1) and np.all(a.masses <= 8)
        assert a.masses.dtype == np.float64

    def test_extra_channel_separates_roles(self):
        a = random_measure(10, seed=3, extra=(0, 1))
        b = random_measure(10, seed=3, extra=(0, 2))
        assert not np.array_equal(a.masses, b.masses)

    def test_zero_fraction_zeroes_but_keeps_mass(self):
        found_zero = False
        for seed in range(40):
            m = random_measure(3, seed=seed, zero_fraction=0.95)
            assert m.total > 0.0
            found_zero = found_zero or bool(np.any(m.masses == 0.0))
        assert found_zero

    def test_bad_fraction(self):
        with pytest.raises(ConfigError):
            random_measure(4, zero_fraction=1.0)


class TestRunScenario:
    def test_one_point_space_all_checks(self):
        rep = run_scenario(segment_scenario(n=1))
        assert {r["status"] for r in rep.checks} <= {"pass", "vacuous"}
        assert rep.exit_code == 0

    def test_segment_full_suite_constants(self):
        rep = run_scenario(segment_scenario())
        assert not rep.failed
        for key in ("a0", "delta", "num_systems", "observed_C", "C_K",
                    "k1", "testing_strong", "testing_dual", "norm_lb",
                    "ratio_strong", "weak_ratio", "maximal_testing",
                    "maximal_ratio", "doubling_constant"):
            assert key in rep.constants, key
        assert rep.constants["a0"] == 1.0
        assert math.isfinite(rep.constants["ratio_strong"])
        assert set(rep.timings) == set(KNOWN_CHECKS)

    def test_malformed_kernel_spec_names_field(self):
        doc = segment_scenario()
        doc["kernel"]["gamma"] = 2.0
        with pytest.raises(ConfigError, match="kernel"):
            run_scenario(doc)

    def test_unknown_measure_name(self):
        doc = segment_scenario(measures={"sigma": "missing"})
        with pytest.raises(ConfigError, match="measures.sigma"):
            run_scenario(doc)

    def test_inline_space_and_explicit_masses(self):
        doc = {
            "space": {"n": 3,
                      "metric": {"type": "matrix",
                                 "values": [[0, 1, 2], [1, 0, 1],
                                            [2, 1, 0]]},
                      "measures": {"w": [1, 2, 1]}},
            "measures": {"mu": "w", "sigma": [1, 1, 0], "omega": "counting"},
            "kernel": {"type": "ball_volume", "gamma": 0.5,
                       "measure": "mu", "ball": "closed"},
            "budget": 2,
        }
        rep = run_scenario(doc)
        assert not rep.failed

    def test_wrong_mass_count(self):
        doc = segment_scenario(measures={"sigma": [1.0, 2.0]})
        with pytest.raises(ConfigError, match="measures.sigma"):
            run_scenario(doc)

    def test_strict_run_has_no_non_strict_rows(self):
        rep = run_scenario(segment_scenario())
        assert rep.counts["non-strict"] == 0

    def test_relaxed_delta_gate_and_marking(self):
        doc = segment_scenario(dyadic={"delta": 1.0 / 48.0})
        with pytest.raises(ConfigError, match="dyadic.delta"):
            run_scenario(doc)
        rep = run_scenario(dict(doc, relaxed_delta=True))
        assert rep.exit_code == 0
        assert rep.counts["non-strict"] > 0

    def test_blocked_stage_reports_vacuous(self):
        # strict ball at the minimal pair distance holds only the massless
        # center, so the kernel build fails and operators are blocked
        doc = {
            "space": {"n": 4,
                      "metric": {"type": "matrix",
                                 "values": [[0, 1, 2, 3], [1, 0, 1, 2],
                                            [2, 1, 0, 1], [3, 2, 1, 0]]},
                      "measures": {"m": [0, 1, 1, 1]}},
            "measures": {"mu": "m"},
            "kernel": {"type": "ball_volume", "gamma": 0.5, "measure": "mu",
                       "ball": "strict"},
            "checks": ["kernel", "operators"],
            "budget": 2,
        }
        rep = run_scenario(doc)
        by_name = {r["name"]: r for r in rep.checks}
        assert by_name["kernel"]["status"] == "fail"
        assert by_name["kernel"]["witness"]["error"] == "empty_ball_mass"
        assert by_name["operators"]["status"] == "vacuous"
        assert by_name["operators"]["witness"]["blocked_by"] == "kernel"
        assert rep.exit_code == 1

    def test_frac_rho_infinite_diagonal_fails_testing(self):
        doc = segment_scenario(checks=["theorem-b"])
        doc["kernel"] = {"type": "frac_rho", "alpha": 0.5, "n": 1.0}
        rep = run_scenario(doc)
        assert rep.failed
        assert rep.checks[-1]["witness"]["error"] == "infinite_testing"
        # one flat list per sweep, each cube named as (k, center)
        cubes = rep.checks[-1]["witness"]["witness"]
        assert set(cubes) == {"strong", "dual"} and cubes["strong"]

    def test_frac_rho_diag_override_passes(self):
        doc = segment_scenario(checks=["theorem-b"])
        doc["kernel"] = {"type": "frac_rho", "alpha": 0.5, "n": 1.0,
                         "diag": 1.0}
        assert not run_scenario(doc).failed

    def test_ball_dyadic_equivalence_fail_row_names_first_violation(
            self, monkeypatch):
        import dyadica.maximal as maximal

        monkeypatch.setattr(maximal, "_containment_ratio_bound",
                            lambda *args: 1e-6)
        rep = run_scenario(segment_scenario(checks=["theorem-a"]))
        by_name = {r["name"]: r for r in rep.checks}
        witness = by_name["theorem-a.ball_dyadic_equivalence"]["witness"]
        assert by_name["theorem-a.ball_dyadic_equivalence"]["status"] == "fail"
        assert witness["violations"] >= 1
        assert witness["first"]["trial"] == 0
        assert witness["first"]["system"] == 0
        assert witness["first"]["lhs"] > witness["first"]["rhs"]

    def test_universal_maximal_fail_row_comes_from_the_report(
            self, monkeypatch):
        import dyadica.stopping as stopping

        real = stopping.apply_M_dyadic
        monkeypatch.setattr(stopping, "apply_M_dyadic",
                            lambda *args, **kw: 4.0 * real(*args, **kw))
        rep = run_scenario(segment_scenario(checks=["stopping"]))
        by_name = {r["name"]: r for r in rep.checks}
        row = by_name["stopping.t0.universal_maximal"]
        assert row["status"] == "fail"
        assert row["witness"]["trial"] == 0
        assert row["witness"]["lhs"] > row["witness"]["rhs"]

    def test_x0_pin_via_dyadic_params(self):
        rep = run_scenario(segment_scenario(checks=["dyadic"],
                                            dyadic={"x0": 3}))
        assert not rep.failed

    @pytest.mark.parametrize("path,value,match", [
        ("exponents", 5, "exponents"),
        ("checks", 5, "checks"),
        ("dyadic.max_systems", "twelve", "dyadic.max_systems"),
        ("dyadic.num_systems", "two", "dyadic.num_systems"),
        ("dyadic.x0", "three", "dyadic.x0"),
        ("dyadic.delta", "small", "dyadic.delta"),
        ("space.n", "eight", "'n'"),
        ("space.n", 8.5, "'n'"),
        ("space", {"file": 5}, "space.file"),
        ("seeds", 5, "seeds"),
        ("seeds", ["a"], "seeds"),
        ("dyadic.num_systems", 0, "dyadic.num_systems"),
        ("dyadic.max_systems", 0, "dyadic.max_systems"),
        ("dyadic.x0", 99, "dyadic.x0"),
        ("dyadic.x0", 8, "dyadic.x0"),
        ("dyadic.x0", -1, "dyadic.x0"),
        ("space", {"file": "s.json", "measures": {}}, "space.measures"),
        ("measures.sigma", ["a", 1, 1, 1, 1, 1, 1, 1], "measures.sigma"),
        ("measures.sigma.random.seed", "x", "measures.sigma.random.seed"),
        ("measures.sigma.random.seed", -1, "measures.sigma.random.seed"),
        ("measures.sigma.random.seed", 1.7, "measures.sigma.random.seed"),
        ("measures.sigma.random.zero_fraction", "x",
         "measures.sigma.random.zero_fraction"),
    ])
    def test_malformed_field_is_a_config_error(self, path, value, match):
        doc = segment_scenario()
        if path == "seeds":
            with pytest.raises(ConfigError, match=match):
                sweep(doc, {}, value)
            return
        set_by_path(doc, path, value)
        with pytest.raises(ConfigError, match=match):
            run_scenario(doc)

    def test_unbounded_kernel_blocks_operators_on_the_envelopes(self):
        doc = {"space": {"kind": "integer_segment_counting", "n": 3},
               "kernel": {"type": "matrix",
                          "values": [[0.0, 1.0, 1.0], [1.0, 0.0, 0.0],
                                     [1.0, 0.0, 0.0]]},
               "checks": ["kernel", "operators"], "budget": 1}
        rep = run_scenario(doc)
        by_name = {r["name"]: r for r in rep.checks}
        assert by_name["kernel"]["status"] == "fail"
        assert by_name["kernel"]["witness"]["error"] == "unbounded"
        assert by_name["operators"]["status"] == "vacuous"
        assert by_name["operators"]["witness"]["blocked_by"] == "envelopes"

    @pytest.mark.parametrize("checks,weak_status", [
        (["theorem-b", "weak-type"], "vacuous"),
        (["weak-type"], "fail"),
    ])
    def test_infinite_testing_blocks_weak_type_on_theorem_b(self, checks,
                                                            weak_status):
        doc = segment_scenario(checks=checks)
        doc["kernel"] = {"type": "frac_rho", "alpha": 0.5, "n": 1.0}
        by_name = {r["name"]: r for r in run_scenario(doc).checks}
        if "theorem-b" in checks:
            assert by_name["theorem-b"]["status"] == "fail"
            assert by_name["theorem-b"]["witness"]["error"] == \
                "infinite_testing"
        # a blocked row and a fail row both name the failed check
        weak = by_name["weak-type"]
        assert weak["status"] == weak_status
        assert weak["witness"]["error"] == "infinite_testing"
        if weak_status == "vacuous":
            assert weak["witness"]["blocked_by"] == "theorem-b"


class TestSharedProducts:
    def test_each_quantity_is_computed_once(self, monkeypatch):
        # one growth constant per system (the envelope table), one direct
        # testing sweep and two norm searches for theorem B, and for
        # weak-type one lockstep search of every weak norm and one of every
        # dyadic adjoint's pool bound, whatever the number of systems (its
        # dual-only cube sweep is not a testing_constants call)
        import dyadica.kernel as kernel
        import dyadica.norms as norms

        calls = Counter()
        for mod, name in ((kernel, "kernel_growth_constant"),
                          (norms, "testing_constants"),
                          (norms, "operator_norm_strong"),
                          (norms, "_norm_search")):
            def counted(*args, _real=getattr(mod, name), _name=name, **kw):
                calls[_name] += 1
                return _real(*args, **kw)

            monkeypatch.setattr(mod, name, counted)
        doc = {"space": {"kind": "ultrametric_tree", "depth": 3,
                         "branching": 3, "ratio": 1.0 / 96.0},
               "kernel": {"type": "ball_volume", "gamma": 0.5,
                          "measure": "mu", "ball": "closed"},
               "dyadic": {"num_systems": 2},
               "checks": [c for c in KNOWN_CHECKS if c != "theorem-a"],
               "budget": 1}
        rep = run_scenario(doc)
        assert not rep.failed
        L = rep.constants["num_systems"]
        assert L == 2
        assert calls == {"kernel_growth_constant": L,
                         "testing_constants": 1,
                         "operator_norm_strong": 2,
                         "_norm_search": 2 + 2}


    def test_theorem_a_builds_one_params_and_one_ball_table(self,
                                                             monkeypatch):
        # the verdict's params carry gamma and the measured doubling
        # constant to the testing sweeps and the ball/dyadic comparison
        from dyadica.maximal import MaximalParams

        made, tables = [], []
        real_post = MaximalParams.__post_init__
        prop = vars(MaximalParams)["ball_powers"]
        real_table = prop.func

        def post_init(params):
            made.append(params)
            real_post(params)

        def table(params):
            tables.append(params)
            return real_table(params)

        monkeypatch.setattr(MaximalParams, "__post_init__", post_init)
        monkeypatch.setattr(prop, "func", table)
        rep = run_scenario(segment_scenario(
            n=12, checks=["theorem-a"],
            measures={"omega": {"random": {"seed": 2}}}))
        assert not rep.failed
        names = [r["name"] for r in rep.checks]
        assert "theorem-a.testing_below_norm" in names
        assert [r["status"] for r in rep.checks
                if r["name"] == "theorem-a.ball_dyadic_equivalence"] == ["pass"]
        assert len(made) == 1
        assert tables == made


    def test_structural_checks_run_once_per_system(self, monkeypatch):
        # build_system checks each attempt and the dyadic stage reads the
        # accepted system's reports from it, so no system is checked twice
        import dyadica.dyadic as dyadic

        checked, real = [], dyadic.check_system

        def recorded(sys):
            checked.append(sys)
            return real(sys)

        monkeypatch.setattr(dyadic, "check_system", recorded)
        rep = run_scenario(segment_scenario(n=12, checks=["dyadic"],
                                            dyadic={"num_systems": 2}))
        rows = [r for r in rep.checks if r["name"].startswith("dyadic.t")]
        assert len(rows) == 2 * 5 and all(r["status"] == "pass" for r in rows)
        assert len({id(s) for s in checked}) == len(checked) >= 2


class TestTrials:
    # the one row rule of _Run.check, for one report or many
    def report(self, status, worst=None, witness=None, strict_mode=True):
        details = {} if worst is None else {"worst": worst}
        return CheckReport("probe", status, strict_mode, witness, details)

    def rows(self, reports, key=None):
        run = _Run(Scenario.from_dict(segment_scenario(n=4)))
        run.check("probe", reports, key)
        assert len(run.rows) == 1
        return run.rows[0]

    def test_all_vacuous_is_vacuous(self):
        r = self.rows([self.report("vacuous"), self.report("vacuous")])
        assert (r["status"], r["constant"], r["witness"]) == \
            ("vacuous", None, None)

    def test_any_pass_is_a_pass_with_the_largest_constant(self):
        r = self.rows([self.report("vacuous"), self.report("pass", 2.0),
                       self.report("pass", 1.0)], key="worst")
        assert (r["status"], r["constant"]) == ("pass", 2.0)

    def test_first_fail_is_the_row_and_stops_the_trials(self):
        drawn = []

        def reports():
            for rep in (self.report("pass", 5.0),
                        self.report("fail", witness={"x": 1}),
                        self.report("fail", witness={"x": 2})):
                drawn.append(rep)
                yield rep

        r = self.rows(reports(), key="worst")
        assert (r["status"], r["witness"]) == ("fail", {"x": 1})
        assert len(drawn) == 2

    def test_single_report(self):
        assert self.rows(self.report("pass", -0.5), key="worst") == \
            row("probe", "pass", -0.5)
        assert self.rows(self.report("pass", 3.0)) == row("probe", "pass")
        # a failed report keeps its constant next to the witness
        assert self.rows(self.report("fail", 4.0, {"x": 0}), key="worst") \
            == row("probe", "fail", 4.0, {"x": 0})

    def test_non_strict_pass(self):
        r = self.rows([self.report("pass", 1.0),
                       self.report("pass", 2.0, strict_mode=False),
                       self.report("pass", 0.5)], key="worst")
        assert (r["status"], r["constant"]) == ("non-strict", 2.0)
        # non-strict marks passes only: vacuous and failed rows keep theirs
        assert self.rows(self.report("vacuous", strict_mode=False))[
            "status"] == "vacuous"
        assert self.rows(self.report("fail", witness={"x": 3},
                                     strict_mode=False))["status"] == "fail"

    def test_vacuous_row_keeps_the_first_witness(self):
        r = self.rows([self.report("vacuous", witness={"reason": "a"}),
                       self.report("vacuous", witness={"reason": "b"})])
        assert (r["status"], r["witness"]) == ("vacuous", {"reason": "a"})
        assert self.rows([]) == row("probe", "vacuous")


class TestSpaceIndexReuse:
    def test_one_index_serves_every_apply_M_call(self, monkeypatch):
        # the norm search, the testing sweep and the ball/dyadic comparison
        # evaluate their functions in blocks, so the 261 functions of this
        # scenario go to apply_M in fewer calls; every call reads one index
        # object
        import dyadica.maximal as maximal

        indexes, rows = [], []
        real = maximal.apply_M

        def recorded(params, f, *args, **kw):
            indexes.append(params.space.index)
            rows.append(len(np.atleast_2d(f)))
            return real(params, f, *args, **kw)

        monkeypatch.setattr(maximal, "apply_M", recorded)
        rep = run_scenario(segment_scenario(
            checks=list(KNOWN_CHECKS),
            measures={"sigma": {"random": {"seed": 1}},
                      "omega": {"random": {"seed": 2}}},
            exponents={"p": 1.5, "q": 3.0}))
        assert not rep.failed
        assert sum(rows) == 261
        assert len(indexes) == 67
        assert all(idx is indexes[0] for idx in indexes)


class TestStoppingImages:
    @staticmethod
    def record(monkeypatch, doc):
        """Run a stopping scenario; return its trial-function blocks and
        every array MatrixOperator.apply was called on."""
        import dyadica.harness as harness
        from dyadica.operators import MatrixOperator

        trials, applied = [], []
        real_rng, real_apply = harness._Run.trial_rng, MatrixOperator.apply

        def trial_rng(self, *channel):
            rng = real_rng(self, *channel)
            if channel[0] != 3:
                return rng

            class Recorded:
                def random(self, shape):
                    trials.append(rng.random(shape))
                    return trials[-1]

            return Recorded()

        def apply(self, f):
            applied.append(f)
            return real_apply(self, f)

        monkeypatch.setattr(harness._Run, "trial_rng", trial_rng)
        monkeypatch.setattr(MatrixOperator, "apply", apply)
        rep = run_scenario(dict(doc, checks=["stopping"]))
        assert not rep.failed
        return trials, applied

    def test_one_apply_on_each_trial_function(self, monkeypatch):
        # rho_grid and both principles at every threshold share one image
        # T f per trial function; the budget's trial functions are drawn
        # and applied as one block, and on the segment every cover cube is
        # the whole space, so nothing else is applied
        trials, applied = self.record(monkeypatch, segment_scenario(n=16))
        assert [f.shape for f in trials] == [(2, 16)]
        assert len(applied) == 1 and applied[0] is trials[0]

    def test_whole_space_cube_needs_no_localized_apply(self, monkeypatch):
        # on a whole-space cover cube principle 2 reads the decomposition's
        # image and principle 1's input f killed on the cube is zero, with
        # image zero: one apply in all, of the two trial functions as one
        # block, at the 96 thresholds, not 194
        _, applied = self.record(monkeypatch, segment_scenario(n=16))
        assert len(applied) == 1

    def test_proper_cover_cube_is_applied(self, monkeypatch):
        # every stock cover cube is the whole space; understating C_K lowers
        # the thresholds until proper cubes appear, and each principle then
        # applies op once per trial function, to one block holding f off
        # (or on) each distinct proper cover cube of the grid, never the
        # whole space
        from dyadica.operators import MatrixOperator
        from dyadica.stopping import (check_max_principle_1,
                                      check_max_principle_2,
                                      decompose_level_set, rho_grid)

        op = _Run(Scenario.from_dict(segment_scenario(
            space={"kind": "euclidean_random_points", "n": 16}))).ops[0]
        op = with_C_K(op, 0.5)
        f = np.random.default_rng(0).random(op.n)
        image = op.apply(f)
        grid = rho_grid(op, f, image)
        sizes = op.system.incidence.sum(axis=1)
        proper = {cube for rho in grid.tolist()
                  for cube in decompose_level_set(op, f, rho, image).q_rho
                  if sizes[cube] < op.n}
        assert proper
        calls, real_apply = [], MatrixOperator.apply

        def apply(self, g):
            calls.append(g)
            return real_apply(self, g)

        monkeypatch.setattr(MatrixOperator, "apply", apply)
        for check in (check_max_principle_1, check_max_principle_2):
            calls.clear()
            assert check(op, f, grid, 1.0, image).status in ("pass", "fail")
            assert len(calls) == 1 and calls[0].shape == (len(proper), op.n)
            assert all(0 < np.count_nonzero(g) < op.n for g in calls[0])


    def test_pinned_principles_apply_proper_cover_cubes(self, monkeypatch):
        # past the one block of trial functions, every apply is a principle
        # applying op off or on proper cover cubes
        trials, applied = self.record(monkeypatch, PROPER_COVER_PIN)
        assert len(applied) > 1 and applied[0] is trials[0]
        assert all(0 < np.count_nonzero(g) < 12
                   for block in applied[1:] for g in block)


class TestDeterminism:
    def test_identical_scenarios_identical_views(self):
        a = run_scenario(segment_scenario(n=6))
        b = run_scenario(segment_scenario(n=6))
        va = canonical_json(deterministic_view(a.to_dict()))
        vb = canonical_json(deterministic_view(b.to_dict()))
        assert va == vb
        assert a.hash == b.hash

    def test_view_strips_stamp_and_clock(self):
        rep = run_scenario(segment_scenario(n=4, checks=["space"]))
        view = deterministic_view(rep.to_dict())
        assert "environment" not in view and "timings" not in view
        assert "report_hash" not in view

    def test_seed_changes_measures_and_report(self):
        doc = segment_scenario(n=6, checks=["theorem-b"],
                               measures={"sigma": {"random": {}},
                                         "omega": {"random": {"seed": 1}}})
        a = run_scenario(dict(doc, seed=0))
        b = run_scenario(dict(doc, seed=1))
        assert a.constants["testing_strong"] != b.constants["testing_strong"]

    # stopping-only reports; the same digests come out under the OpenBLAS
    # Haswell, Prescott and SkylakeX core types, so they hold on any host
    @pytest.mark.parametrize("space,digest", [
        ({"kind": "integer_segment_counting", "n": 16},
         "3b46178e75f737212f5b495727bc41d386ce3077d68af9affc550355924ea571"),
        ({"kind": "euclidean_random_points", "n": 24},
         "ff6cbf5f3c94d65223b46b5ec152fd0bed9ef4cde97a098138398ee463f16c3b"),
        ({"kind": "ultrametric_tree", "depth": 3, "branching": 3},
         "3ec1bcd6ec63dcfae08e5b452450e973f5dbb1466a79e333eb3f931e6bdbe553"),
    ])
    def test_stopping_report_hash_is_pinned(self, space, digest):
        doc = {"space": space,
               "kernel": {"type": "ball_volume", "gamma": 0.5},
               "measures": {"sigma": {"random": {"seed": 1,
                                                 "zero_fraction": 0.2}},
                            "omega": {"random": {"seed": 2,
                                                 "zero_fraction": 0.2}}},
               "checks": ["stopping"], "seed": 0, "budget": 3}
        assert run_scenario(doc).hash == digest

    # weak-type reports at p=1.5, q=3 (no spectral norm); the same digests
    # come out under the OpenBLAS Haswell, Prescott and SkylakeX core types.
    # The 16-point segment is not pinned: under Prescott its matrix-vector
    # products round differently and weak_norm_lb moves by one ulp.
    @pytest.mark.parametrize("space,digest", [
        ({"kind": "euclidean_random_points", "n": 24},
         "bf2f16e19aa8fcb0771014c5a0715de2b5bc90f0b1e100ee079ce1e01e797488"),
        ({"kind": "ultrametric_tree", "depth": 3, "branching": 3},
         "b3c92cf72f29b7efccbd4a006ff77ca513c183473b454dbaec26b7e1ab47a9f2"),
        ({"kind": "ultrametric_tree", "depth": 2, "branching": 4},
         "8a998e4cf279b1d7ce7c3e6ee9f85a8ff5cfb11d3d509e03d466754e14344c7a"),
    ])
    def test_weak_type_report_hash_is_pinned(self, space, digest):
        doc = {"space": space,
               "kernel": {"type": "ball_volume", "gamma": 0.5},
               "measures": {"sigma": {"random": {"seed": 1,
                                                 "zero_fraction": 0.2}},
                            "omega": {"random": {"seed": 2,
                                                 "zero_fraction": 0.2}}},
               "exponents": {"p": 1.5, "q": 3.0},
               "checks": ["weak-type"], "seed": 0, "budget": 3}
        assert run_scenario(doc).hash == digest


    @pytest.mark.parametrize("doc,digest", THEOREM_A_PINS)
    def test_theorem_a_report_hash_is_pinned(self, doc, digest):
        assert run_scenario(theorem_a_doc(doc)).hash == digest

    @pytest.mark.parametrize("doc,digest", KERNEL_PINS)
    def test_kernel_report_hash_is_pinned(self, doc, digest):
        assert run_scenario(kernel_doc(doc)).hash == digest

    @pytest.mark.parametrize("doc,digest", SCENARIO_PINS)
    def test_scenario_report_hash_is_pinned(self, doc, digest):
        assert run_scenario(doc).hash == digest

    def test_pins_hold_under_each_blas_core_type(self):
        # the theorem-a and kernel pins above, in child processes that each
        # pin one OpenBLAS core type before numpy loads
        script = (
            "import json, sys\n"
            "sys.path[:0] = json.loads(sys.argv[1])\n"
            "from dyadica.harness import run_scenario\n"
            "from test_harness import (KERNEL_PINS, THEOREM_A_PINS,\n"
            "                          kernel_doc, theorem_a_doc)\n"
            "print(json.dumps([run_scenario(theorem_a_doc(d)).hash\n"
            "                  for d, _ in THEOREM_A_PINS]\n"
            "                 + [run_scenario(kernel_doc(d)).hash\n"
            "                    for d, _ in KERNEL_PINS]))\n")
        paths = json.dumps([str(Path(__file__).parent),
                            str(Path(dyadica.__file__).parents[1])])
        want = [d for _, d in THEOREM_A_PINS + KERNEL_PINS]
        children = {
            core: subprocess.Popen(
                [sys.executable, "-c", script, paths], text=True,
                stdout=subprocess.PIPE,
                env=dict(os.environ, OPENBLAS_CORETYPE=core,
                         OPENBLAS_NUM_THREADS="1"))
            for core in ("Haswell", "Prescott", "SkylakeX")}
        for core, child in children.items():
            out, _ = child.communicate(timeout=300)
            assert child.returncode == 0, core
            assert json.loads(out) == want, core


class TestReportOutput:
    def test_counts_and_exit(self):
        rep = Report(scenario={}, scenario_hash="x",
                     checks=[row("a", "pass"), row("b", "vacuous")],
                     constants={})
        assert rep.counts["pass"] == 1 and rep.exit_code == 0
        rep.checks.append(row("c", "fail", witness={"x": 1}))
        assert rep.exit_code == 1

    def test_csv_roundtrip_shape(self):
        rep = run_scenario(segment_scenario(n=4, checks=["space", "dyadic"]))
        text = report_to_csv(rep)
        lines = text.strip().split("\n")
        assert lines[0] == "name,status,constant,witness"
        assert len(lines) == len(rep.checks) + 1

    def test_csv_quotes_commas(self):
        rep = Report(scenario={}, scenario_hash="x",
                     checks=[row("a", "fail", witness={"k": [1, 2]})],
                     constants={})
        line = report_to_csv(rep).strip().split("\n")[1]
        assert '"' in line and "[1,2]" in line.replace('""', '"')

    def test_tolerances_echoed(self):
        rep = run_scenario(segment_scenario(n=4, checks=["space"]))
        doc = rep.to_dict()
        assert doc["tolerances"]["exact_guard_rel"] == 1e-12


class TestSweep:
    def test_grid_cross_product(self):
        reports, summary = sweep(segment_scenario(n=6, checks=["theorem-b"]),
                                 {"exponents.p": [1.5, 2.0],
                                  "exponents.q": [3.0]},
                                 seeds=[0, 1])
        assert len(reports) == 4
        assert summary["runs"] == 4 and not summary["any_fail"]
        (label, group), = summary["groups"].items()
        assert label.startswith("integer_segment_counting#")
        assert group["runs"] == 4
        best = max(r.constants["ratio_strong"] for r in reports)
        assert group["constants_max"]["ratio_strong"] == best

    def test_empty_grid_list_errors(self):
        with pytest.raises(ConfigError, match="grid.exponents.p"):
            sweep(segment_scenario(), {"exponents.p": []})

    def test_fully_empty_plan_errors(self):
        with pytest.raises(ConfigError, match="empty"):
            sweep(segment_scenario(), {}, seeds=[])

    def test_trivial_grid_with_seeds_runs(self):
        doc = segment_scenario(n=6, checks=["theorem-b"],
                               measures={"sigma": {"random": {}},
                                         "omega": {"random": {"seed": 1}}})
        reports, summary = sweep(doc, {}, seeds=[0, 1, 2])
        assert summary["runs"] == 3
        values = {r.constants["testing_strong"] for r in reports}
        assert len(values) == 3

    def test_config_errors_collected_not_raised(self):
        reports, summary = sweep(segment_scenario(n=4, checks=["kernel"]),
                                 {"kernel.gamma": [0.5, 2.0]})
        assert len(reports) == 1
        assert len(summary["errors"]) == 1
        assert "kernel" in summary["errors"][0]["error"]
        assert not summary["any_fail"]

    def test_set_by_path_nested_and_collision(self):
        doc = {"a": {"b": 1}}
        set_by_path(doc, "a.c.d", 5)
        assert doc["a"]["c"]["d"] == 5
        with pytest.raises(ConfigError):
            set_by_path({"a": 3}, "a.b", 1)

    def test_reports_csv_header_unions_constants(self):
        reports, _ = sweep(segment_scenario(n=4, checks=["space"]),
                           {}, seeds=[0, 1])
        text = reports_to_csv(reports)
        head = text.split("\n", 1)[0]
        assert head.startswith("scenario_hash,seed,fail,non_strict")
        assert "a0" in head

    def test_summarize_counts_statuses(self):
        rep = run_scenario(segment_scenario(n=4, checks=["space"]))
        summary = summarize([rep, rep], [])
        group = next(iter(summary["groups"].values()))
        assert group["counts"]["pass"] == 2 * rep.counts["pass"]
