"""Every entry point the benchmark's span tracer rebinds still exists, and
every counter it reads off a traced call still reads.

``perfbench/tracing.py`` rebinds traced functions by name and records a
name it cannot find as missing, and its observers read attributes off
the arguments and results of traced calls; both would break only inside
a traced benchmark run. This loads the module by path, without importing
the benchmark package, resolves each name in its ``dyadica`` module, and
runs each observer on the real result of its traced function.
"""

import importlib
import importlib.util
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _entry_points() -> dict:
    return _tracing().ENTRY_POINTS


@pytest.mark.parametrize("layer,entry", [
    (layer, entry) for layer, entries in _entry_points().items()
    for entry in entries])
def test_traced_name_resolves(layer, entry):
    owner = importlib.import_module(f"dyadica.{layer}")
    if "." in entry:
        cls_name, entry = entry.split(".")
        owner = getattr(owner, cls_name)
        assert entry in vars(owner), f"{layer}.{cls_name}.{entry}"
    assert callable(getattr(owner, entry, None)), f"{layer}.{entry}"


def test_observers_read_real_results():
    from dyadica.dyadic import (build_adjacent_systems, build_system,
                                check_ball_coverage)
    from dyadica.kernel import build_kernel
    from dyadica.norms import testing_constants
    from dyadica.operators import MatrixOperator, split_diagonal, \
        weighted_apply
    from dyadica.space import (PointMeasure, estimate_geometric_doubling,
                               generate_space)
    from dyadica.stopping import rho_grid

    space, mu = generate_space("integer_segment_counting", n=16)
    omega = PointMeasure(np.random.default_rng(6).random(16))
    family = build_adjacent_systems(space)
    op = MatrixOperator(build_kernel(space, mu, "ball_volume",
                                     gamma=0.5).matrix, mu, omega)
    off, diag = split_diagonal(op.matrix)
    f = np.random.default_rng(5).random(16)
    # each traced function, with the arguments it is called with
    calls = {
        "space.estimate_geometric_doubling":
            (estimate_geometric_doubling, (space,)),
        "dyadic.build_system": (build_system, (space,)),
        "dyadic.build_adjacent_systems": (build_adjacent_systems, (space,)),
        "dyadic.check_ball_coverage": (check_ball_coverage,
                                       (family.systems,)),
        "operators.weighted_apply": (weighted_apply, (off, diag, f, mu)),
        "norms.testing_constants": (testing_constants,
                                    (op, family, 2.0, 2.0)),
        "stopping.rho_grid": (rho_grid, (op, f)),
    }
    counts = defaultdict(int)
    modules = {name.split(".", 1)[1]: module
               for name, module in sys.modules.items()
               if name.startswith("dyadica.")}
    observers = _tracing()._observers(counts, modules)
    assert set(observers) == set(calls)
    results = {}
    for key, (function, args) in calls.items():
        results[key] = function(*args)
        observers[key](args, results[key])
    system = results["dyadic.build_system"]
    cubes = sum(len(s.cubes) for s in family)
    assert dict(counts) == {
        "space.doubling_covers":
            len(results["space.estimate_geometric_doubling"].covers),
        "dyadic.accepted_systems": 1,
        "dyadic.generations": system.num_generations,
        "dyadic.cubes": len(system.cubes),
        "dyadic.systems": len(family),
        "dyadic.coverage_entries":
            len(results["dyadic.check_ball_coverage"][1].entries),
        "operators.weighted_apply.bytes_computed": 3 * 8 * 16 * 16,
        "norms.testing.convention_hits":
            results["norms.testing_constants"].convention_hits,
        "norms.testing.cubes_swept": 2 * cubes,
        "stopping.rho_grid.levels": len(results["stopping.rho_grid"]),
    }
