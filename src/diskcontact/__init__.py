"""Contact category of a marked disk over the field of two elements.

Dividing sets and bypass moves on a disk with 2(n+1) marked boundary
points, the arc algebra of its basic objects, and the functor sending
each dividing set to a bounded complex of projective modules, together
with machinery to verify the structural theorems (chain maps, bypass
triangles mapping to distinguished triangles, rotation/Calabi-Yau
identities, faithfulness) exhaustively at small n.
"""

from .divset import (
    STAR,
    DividingSet,
    basic_of,
    basic_sets,
    enumerate_objects,
    from_matching,
    nesting_sets,
    to_matching,
    validate,
)
from .homs import (
    composition_nonzero,
    hom_nonzero,
    rounded_components,
    tight_basic,
)
from .bypass import (
    BypassMove,
    Triangle,
    attach,
    canonical_bypass,
    enumerate_bypasses,
    obar,
    serre_rotate,
    triangle,
    zero_region,
)
from .algebra import (
    AlgebraElement,
    BasisElem,
    algebra_dimension,
    arrows_from,
    multiply,
    verify_presentation,
)
from .kom import (
    ChainMap,
    Complex,
    Homotopy,
    ProjSummand,
    cone,
    compose,
    equivalent,
    find_homotopy,
    hom_dim,
    is_homotopy_equivalence,
    serre_resolution,
    serre_transform,
    shift,
    simplify,
    verify_complex,
)
from .functor import (
    GradedObject,
    OmittingIndex,
    F_of_morphism,
    build_F,
    canonical_grading_shift,
    chain_map_F,
    coh_degree,
    deg_F,
    differential_data,
    gamma_chain_map,
    gamma_of,
    index_image,
    lift_F,
    lift_morphism,
    omitting_indices,
    split_indices,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
