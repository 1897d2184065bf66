"""Exact computation over finite set families on a fixed ground set:
clutters and blockers, increasing families, long f-/h-vectors, star and
Alexander duality, cascade shadow bounds, and exhaustive enumeration of
self-dual clutters at desk scale."""

from .complexes import (
    AlexanderDual,
    Complex,
    alexander_dual,
    down_closure,
    is_alexander_self_dual,
    is_star_self_dual,
)
from .enumeration import (
    EnumerationResult,
    complement_complex,
    enumerate_self_dual,
    verify_universe,
)
from .errors import (
    EmptyVertexSet,
    GroundSetTooLarge,
    InconsistentResult,
    InvalidLevel,
    NotAnFVector,
    NotSelfDual,
    NotStarSelfDual,
    TrivialClutter,
)
from .identities import StarSelfDualFamily, check_appendix, family_report, random_star_selfdual
from .kks import (
    BoundRow,
    BoundTable,
    CascadeExpansion,
    cascade,
    lemma2_table,
    shadow_lower_bound,
    shadow_upper_bound,
    theorem3_table,
    verify_lemma2,
    verify_theorem3,
)
from .sets import (
    Clutter,
    SetFamily,
    blocker,
    blocker_berge,
    blocker_dense,
    is_self_dual,
    min_elements,
    self_dual_criterion,
    star,
    up_closure,
)
from .vectors import (
    FVector,
    HVector,
    binom,
    f_from_h,
    f_vector,
    h_from_f,
    h_vector,
)

__version__ = "0.1.0"
