"""Exact computation with finite-dimensional Leibniz algebras over the rationals.

Importing the package registers its twelve layers in `sys.modules` behind
`importlib.util.LazyLoader`: a layer is compiled and run on first attribute
access, and any `import` statement that reaches it loads it. So a process
compiles only the layers it uses, while `sys.modules` holds every layer from
the start. The public names resolve on first use through `__getattr__`
(PEP 562), from one table of their home layers. No layer is bound onto the
package: `leibnizalg.decompose` is the function, and every other
`leibnizalg.<layer>` is the layer module.
"""

import importlib.machinery
import importlib.util
import sys

# layer -> its public names; the layers are registered in this order
_EXPORTS = {
    "linalg": (
        "QQ", "Matrix", "Subspace", "envelope_dimension", "nullspace", "rref",
        "subspace_intersect", "subspace_sum",
    ),
    "poly": ("char_poly", "minimal_polynomial", "rational_roots"),
    "equations": ("matrix_commutant", "solve"),
    "algebra": (
        "InternalCheckError", "InvalidAlgebraError", "LeibnizAlgebra", "algebra_from_brackets",
    ),
    "structure": ("SeriesReport", "SimplicityVerdict", "StructureReport"),
    "reps": ("AxiomViolationError", "Representation", "spin_submodule"),
    "irreducible": ("IrreducibilityVerdict", "irreducibility"),
    "sl2": (
        "ExtensionSolution", "Sl2ConstraintReport", "check_sl2_constraints",
        "classify_extension_irreps", "extension_rep_solve", "simple_ext_algebra",
        "sl2_algebra", "sl2_irrep_rho", "sl2_leibniz_irrep",
    ),
    "conic": ("ternary_zero",),
    "decompose": (
        "DecompositionResult", "KernelActionReport", "commutant",
        "complete_reducibility_necessary", "decompose",
    ),
    "modules": (
        "EquivalenceVerdict", "abelian_algebra", "adjoint_rep", "dichotomy_classify",
        "direct_sum", "direct_sum_algebra", "equivalence", "example_5_3", "example_5_5",
        "from_lie_rep", "h_gap_positions", "is_invariant", "module_restriction", "restrict",
        "solve_lowering_left", "sym_span",
    ),
    "fileio": (
        "ParseError", "frac_str", "parse_algebra", "parse_rep", "serialize_algebra",
        "serialize_rep",
    ),
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)
__version__ = "0.1.0"

for _layer in _EXPORTS:
    _spec = importlib.machinery.PathFinder.find_spec(f"{__name__}.{_layer}", __path__)
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _layer, _spec


def __getattr__(name):
    if name in _HOME:
        return getattr(sys.modules[f"{__name__}.{_HOME[name]}"], name)
    if name in _EXPORTS:
        return sys.modules[f"{__name__}.{name}"]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
