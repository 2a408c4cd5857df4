"""Adjacent dyadic systems and two-weight testing conditions on finite
quasi-metric measure spaces.

The pipeline: build a space (``build_space`` / ``generate_space``), a family
of adjacent cube systems (``build_adjacent_systems``), a potential-type
kernel (``build_kernel``), and the dyadic model operators
(``build_dyadic_operator``). The verdict functions then compare exact
testing constants against certified operator-norm lower bounds:
``verdict_theorem_b`` for the strong-type inequality, ``verdict_weak_type``
for the weak-type one (on a theorem-B verdict and the dyadic operators of
the same instance), and ``verdict_theorem_a`` for the fractional maximal
operator. ``harness.run_scenario`` drives everything from a plain JSON
scenario; the ``dyadica`` command line exposes the same entry points.
"""

from types import ModuleType as _ModuleType

from .dyadic import (
    AdjacentSystems,
    CubeTable,
    DyadicSystem,
    build_adjacent_systems,
    build_system,
    check_ball_coverage,
    check_system,
    coverage_bound,
    generalize,
    maximal_cubes,
    replay_coverage,
)
from .errors import BadParams, CheckFailed, ConfigError, DyadicaError
from .harness import random_measure, run_scenario, sweep
from .kernel import (
    Kernel,
    build_kernel,
    check_kernel_estimates,
    kernel_bound_constant,
    phi_table,
)
from .maximal import (
    apply_M,
    apply_M_dyadic,
    check_maximal_equivalence,
    dual_weight,
    maximal_params,
    measure_doubling_constant,
    testing_constant_maximal,
    verdict_theorem_a,
)
from .norms import (
    Exponents,
    lp_norm,
    operator_norm_strong,
    operator_norm_weak,
    testing_constants,
    verdict_theorem_b,
    verdict_weak_type,
    weak_quasinorm,
)
from .operators import (
    DyadicOperator,
    MatrixOperator,
    apply_direct,
    build_dyadic_operator,
    check_direct_below_family,
    check_dyadic_below_direct,
    check_family_domination,
    check_forms_agree,
    check_point_cube_testing,
    check_self_adjoint,
    check_shifted_sandwich,
)
from .policy import TOLERANCES, CheckReport, require
from .reporting import Report, Scenario
from .space import (
    PointMeasure,
    QuasiMetricSpace,
    build_space,
    estimate_geometric_doubling,
    generate_space,
    load_space,
    save_space,
)
from .stopping import (
    build_principal_cubes,
    check_mainlemma,
    check_max_principle_1,
    check_max_principle_2,
    check_universal_maximal,
    decompose_level_set,
    rho_grid,
)

__version__ = "0.1.0"

# every public name imported above, so the list cannot drift from them
__all__ = sorted(n for n, v in globals().items()
                 if not n.startswith("_") and not isinstance(v, _ModuleType))
