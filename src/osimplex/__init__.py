"""Exact computation with oriented simplexes.

The library implements the simplex category of monotone maps, its integer
linearization, the simplicial chain complexes with their unital and strongly
loop-free bases, the omega-categories of cells built on them, the decidable
membership test for morphisms between oriented simplexes, and the
factorization of every such morphism into filler and pasting operations over
plain monotone maps.

The names below are loaded from their submodules on first use, so importing
one submodule (as the command line does) loads no other.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_SUBMODULE = {
    name: module
    for module, names in {
        "chains": "BasisElt Chain ChainMapTable apply_map basis_elements check_strongly_loopfree "
        "check_unital from_chain_map iterated_boundary_part loopfree_less to_chain_map",
        "errors": "ArityError CellConditionError EnumerationLimitError InvalidExpressionError "
        "NotComposableError OsimplexError ParseError PreconditionError",
        "nu": "Cell act atom check_atom_generation enumerate_cells from_set_pairs violations",
        "oriental": "ComposeMap Expr Filler Leaf Pasting eliminate_pastings eval_expr "
        "expr_from_json factorize filler first_last parse_expr pasting simplify split_finish "
        "split_middle split_start",
        "simplex": "MonotoneMap compose degeneracy_generator enumerate_injective_into "
        "face_generator identity parse_map",
        "zdelta": "MembershipResult ZMorphism check_membership is_oriental_morphism "
        "parse_zmorphism",
    }.items()
    for name in names.split()
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
