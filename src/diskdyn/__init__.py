"""Iteration of holomorphic self-maps of the unit disk.

Core objects: finite Blaschke products and their compositions, the
attracting-point trichotomy, grand orbits, half-plane linearizers, and
eigenfunction candidates for the composition action Psi o f = tau Psi.
"""

from .geometry import (
    Horodisk,
    cayley_from_rhp,
    cayley_to_rhp,
    halfplane_pseudo_hyperbolic,
    hyperbolic_distance,
    julia_quotient,
    mobius_factor,
    pseudo_hyperbolic,
)
from .selfmap import (
    CompositeMap,
    FiniteBlaschkeProduct,
    RootFindingError,
    angular_derivative,
    compose,
    critical_points,
    derivative,
    evaluate,
    identity_map,
    iterate,
    preimages,
)
from .dynamics import (
    ClassificationError,
    ContainmentReport,
    MapClass,
    StepReport,
    classify,
    denjoy_wolff,
    hyperbolic_step,
    julia_containment_check,
    orbit_merging,
)
from .orbits import (
    GrandOrbitNode,
    GrandOrbitTruncation,
    blaschke_sum,
    conjugation_closure_check,
    critical_orbit_intersection,
    grand_orbit,
)
from .abel import (
    HalfPlaneMap,
    MobiusFit,
    abel_residual,
    baker_pommerenke_h,
    extract_semiconjugacy,
    pommerenke_g,
    translation_abel,
)
from .eigen import (
    SingularEigenfunction,
    TauEstimate,
    build_truncated_eigenfunction,
    eigen_residual,
    estimate_tau,
    frostman_shift,
    prefix_samples,
    ring_samples,
    square_trick_check,
    translation_abel_disk,
    u_theta,
)
from .counting import (
    CountingSample,
    inner_comparability_scan,
    lm_functional,
    nevanlinna,
)
from .presets import example61, example62, map_from_dict, map_to_dict, power_map, translation

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
