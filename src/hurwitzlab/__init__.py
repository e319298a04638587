"""hurwitzlab: numerical verification of reverse isoperimetric inequalities
on planar convex bodies represented by trigonometric support functions."""

from .bodies import (
    Harmonic,
    HypocycloidSpec,
    TrigSupport,
    astroid_parallel,
    body_from_dict,
    body_to_dict,
    deltoid_parallel,
    eval_support,
    hypocycloid_parallel,
    is_constant_width,
    min_curvature_radius,
    minkowski_sum,
    offset,
    random_body,
    recenter_to_steiner,
    rigid_motion,
    steiner_point,
    validate_convex,
)
from .functionals import (
    FunctionalSet,
    functionals_quadrature,
    functionals_spectral,
    generalized_area,
)
from .quadrature import grid_for_degree, periodic_integral
from .render import (
    Polyline,
    Scene,
    Style,
    count_cusps,
    sample_curve,
    sample_hypocycloid,
    shoelace_area,
    write_svg,
)
from .verdicts import (
    EqualityClass,
    SuiteConfig,
    SuiteReport,
    TheoremId,
    Verdict,
    classify_equality,
    expected_equality,
    run_suite,
    run_suites,
    verify,
)
from .visual_angle import (
    ExteriorConfig,
    IntegralResult,
    Kernel,
    TangentPair,
    crofton_kernel,
    exterior_integral,
    exterior_integral_grid,
    exterior_point,
    moment_kernel,
    sin_cubed_kernel,
    spectral_integral,
    support_line_angles,
    visual_deficit_cw_kernel,
    visual_deficit_kernel,
)

__version__ = "0.1.0"
