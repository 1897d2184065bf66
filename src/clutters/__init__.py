"""Exact computation over finite set families on a fixed ground set:
clutters and blockers, increasing families, long f-/h-vectors, star and
Alexander duality, cascade shadow bounds, and exhaustive enumeration of
self-dual clutters at desk scale."""

from .complexes import (
    AlexanderDual,
    Complex,
    alexander_dual,
    check_star_selfdual_facts,
    down_closure,
    facets,
    is_alexander_self_dual,
    is_star_self_dual,
)
from .enumeration import (
    EnumerationResult,
    complement_complex,
    enumerate_self_dual,
    enumerate_star_selfdual_complexes,
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
    OddGroundSet,
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
    UpFamily,
    blocker,
    blocker_berge,
    blocker_dense,
    complement_family,
    complement_set,
    is_self_dual,
    max_elements,
    min_elements,
    principal_upset,
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
