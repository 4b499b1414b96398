"""Contact category of a marked disk over the field of two elements.

Dividing sets and bypass moves on a disk with 2(n+1) marked boundary
points, the arc algebra of its basic objects, and the functor sending
each dividing set to a bounded complex of projective modules, together
with machinery to verify the structural theorems (chain maps, bypass
triangles mapping to distinguished triangles, rotation/Calabi-Yau
identities, faithfulness) exhaustively at small n.

The exported names are resolved on first access (PEP 562): importing
the package loads no layer, and `diskcontact.hom_nonzero` loads `homs`
and the modules it imports, not `kom`, `functor` or `algebra`.  Each access returns the defining module's current
attribute, and nothing is copied into the package namespace.
"""

from importlib import import_module as _import_module

# submodule -> the names it exports; each submodule is exported under its
# own name too
_NAMES = {
    "divset": (
        "STAR", "DividingSet", "basic_of", "basic_sets", "enumerate_objects",
        "from_matching", "nesting_sets", "to_matching", "validate",
    ),
    "homs": (
        "composition_nonzero", "composition_nonzero_right", "hom_nonzero",
        "rounded_components", "tight_basic",
    ),
    "bypass": (
        "BypassMove", "Triangle", "attach", "canonical_bypass", "enumerate_bypasses",
        "obar", "serre_rotate", "triangle", "zero_region",
    ),
    "algebra": (
        "AlgebraElement", "BasisElem", "algebra_dimension", "arrows_from", "multiply",
        "verify_presentation",
    ),
    "kom": (
        "ChainMap", "Complex", "ProjSummand", "cone", "compose", "equivalent",
        "hom_dim", "hom_total", "is_homotopy_equivalence",
        "serre_resolution", "serre_transform", "shift", "simplify", "verify_complex",
    ),
    "functor": (
        "GradedObject", "F_of_morphism", "build_F", "canonical_grading_shift",
        "chain_map_F", "deg_F", "gamma_chain_map", "lift_F", "lift_morphism",
    ),
    "errors": (),
    "gf2": (),
}
# exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _NAMES.items() for name in (module, *names)}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    mod = _import_module(f"{__name__}.{module}")
    return mod if name == module else getattr(mod, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
