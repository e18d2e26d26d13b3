"""Module constructions and comparisons on top of `reps`: the Lie-module
lift, the adjoint module, direct sums, restrictions to a subalgebra and to an
invariant subspace, invariance, the symmetric-span dichotomy and equivalence,
with the two benchmark modules of dimension five, the lowering-left
constraint, and the abelian and direct-sum algebra constructors. Neither
decision a module job asks for, `rep irreducible` or `rep decompose`,
compiles this layer. `equations` and `irreducible` are bound without
loading them, so the constructions alone compile neither; the dichotomy
runs `irreducible`.

The two benchmark modules are the adjoint module of example 5.3,
`simple_ext(5)` with its tail labelled x, y, which admits no irreducible
decomposition, and one that splits as 3 + 2.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import equations, irreducible
from .algebra import InternalCheckError, LeibnizAlgebra
from .linalg import Matrix, Subspace, _eliminate, _matrix_of, _solutions, linear_combination
from .reps import _VARIANTS, Representation, _variant_rep


# -- constructions --

def from_lie_rep(
    algebra: LeibnizAlgebra, phi: Sequence[Matrix], variant: str
) -> Representation:
    """Turn a classical Lie representation phi into a two-sided one.

    phi must satisfy phi_[x,y] = phi_x phi_y - phi_y phi_x over a Lie table.
    The right action is -phi, for which that is pairing axiom (1), so the
    first violation of axiom (1) in the built representation names the pair
    where phi fails. variant "anti_symmetric" sets the left action to the
    negative of the right one; "zero_lambda" sets it to zero.
    """
    algebra._require_valid()
    if not algebra.is_lie():
        raise ValueError("from_lie_rep needs a Lie table")
    if len(phi) != algebra.dim:
        raise ValueError("need one matrix per basis element")
    rep = _variant_rep(algebra, [-m for m in phi], variant, f"lie[{variant}]")
    for axiom, i, j in rep.axiom_violations:
        if axiom == 1:
            raise ValueError(f"phi is not a Lie homomorphism at pair ({i},{j})")
    return rep


def adjoint_rep(algebra: LeibnizAlgebra) -> Representation:
    """The algebra acting on itself by right and left multiplications."""
    algebra._require_valid()
    right = [algebra.right_mult_matrix_basis(j) for j in range(algebra.dim)]
    left = [algebra.left_mult_matrix_basis(j) for j in range(algebra.dim)]
    return Representation(algebra, right, left, name="adjoint")


def direct_sum(a: Representation, b: Representation, name: str = "") -> Representation:
    """Block-diagonal sum of two representations of the same algebra."""
    if not a.algebra.same_table(b.algebra):
        raise ValueError("direct sum needs a common algebra")
    a._require_valid()
    b._require_valid()

    def block(x: Matrix, y: Matrix) -> Matrix:
        n, d = x.rows, x.rows + y.rows
        low = {n + r: {n + c: v for c, v in row.items()} for r, row in y.nz.items()}
        return _matrix_of({**x.nz, **low}, d, d)

    right = [block(a.right[j], b.right[j]) for j in range(a.algebra.dim)]
    left = [block(a.left[j], b.left[j]) for j in range(a.algebra.dim)]
    return Representation(a.algebra, right, left, name=name or "sum")


def restrict(rep: Representation, span: Subspace) -> Representation:
    """Same module, smaller algebra: restrict the actions to a subalgebra."""
    rep._require_valid()
    sub = rep.algebra.subalgebra_on(span)
    basis = span.basis.data
    right = [rep.rho_of(v) for v in basis]
    left = [rep.lambda_of(v) for v in basis]
    return Representation(sub, right, left, name=rep.name)


def is_invariant(rep: Representation, w: Subspace) -> bool:
    """Both actions map the subspace into itself."""
    return all(w.induced(m) is not None for m in rep.action_matrices())


def module_restriction(rep: Representation, w: Subspace) -> Representation:
    """Same algebra, smaller module: actions induced on an invariant subspace."""
    rep._require_valid()
    if w.ambient_dim != rep.space_dim:
        raise ValueError("subspace lives in the wrong ambient space")
    induced = [w.induced(m) for m in rep.action_matrices()]
    if any(m is None for m in induced):
        raise ValueError("subspace is not invariant under both actions")
    n = rep.algebra.dim
    return Representation(rep.algebra, induced[:n], induced[n:], name=rep.name)


# -- the dichotomy and equivalence --

class EquivalenceVerdict(NamedTuple):
    value: str  # "equivalent", "not_equivalent", "undetermined"
    certificate: Matrix | None = None
    detail: str = ""


def sym_span(rep: Representation) -> Subspace:
    """Span of the images of all symmetrized actions (left plus right)."""
    rep._require_valid()
    columns = ((rep.left[j] + rep.right[j]).transpose().nz.values()
               for j in range(rep.algebra.dim))
    return _eliminate((v for cols in columns for v in cols), rep.space_dim).subspace()


def dichotomy_classify(rep: Representation) -> str:
    """Classify an absolutely irreducible representation by its left action.

    Returns "anti_symmetric" when the left action is the negative of the
    right one and "zero_lambda" when the left action vanishes. For an
    absolutely irreducible module one of the two must hold; anything else is
    an internal error, as is calling this on a module that is not certified
    absolutely irreducible.
    """
    verdict = irreducible.irreducibility(rep)
    if verdict.value != "abs_irreducible":
        raise ValueError("dichotomy needs an absolutely irreducible module")
    v = sym_span(rep)
    if v.is_zero():
        variant, failure = "anti_symmetric", "zero symmetrized span without lambda = -rho"
    elif v.is_full():
        variant, failure = "zero_lambda", "full symmetrized span without lambda = 0"
    else:
        raise InternalCheckError("symmetrized span is a proper nonzero submodule")
    a = _VARIANTS[variant]
    if any(left != right.scale(a) for right, left in zip(rep.right, rep.left)):
        raise InternalCheckError(failure)
    return variant


_COMBO_COEFFS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(3))


def equivalence(a: Representation, b: Representation) -> EquivalenceVerdict:
    """Decide whether two representations are intertwined by an invertible map.

    The intertwiner space is computed exactly. An empty space settles the
    negative; an invertible element (searched over the basis and a bounded
    deterministic set of small combinations) settles the positive; a nonzero
    space with no invertible element found is reported as undetermined.
    """
    a._require_valid()
    b._require_valid()
    if not a.algebra.same_table(b.algebra):
        raise ValueError("equivalence needs a common algebra")
    if a.space_dim != b.space_dim:
        return EquivalenceVerdict("not_equivalent", None, "dimensions differ")
    pairs = [(a.right[j], b.right[j]) for j in range(a.algebra.dim)]
    pairs += [(a.left[j], b.left[j]) for j in range(a.algebra.dim)]
    basis = equations.intertwiner_space(pairs, b.space_dim, a.space_dim)
    if not basis:
        return EquivalenceVerdict("not_equivalent", None,
                                  "no nonzero intertwiner exists")
    for t in basis:
        if t.is_invertible():
            return EquivalenceVerdict("equivalent", t)
    if len(basis) > 1:
        for coeffs in itertools.islice(
                itertools.product(_COMBO_COEFFS, repeat=len(basis)), 64):
            combo = linear_combination(coeffs, basis, a.space_dim, a.space_dim)
            if combo.is_invertible():
                return EquivalenceVerdict("equivalent", combo)
    return EquivalenceVerdict(
        "undetermined", None,
        "intertwiners exist but none of the sampled ones is invertible")


# -- benchmark five-dimensional cases --

def example_5_3() -> tuple[LeibnizAlgebra, Representation]:
    """The five-dimensional simple algebra whose adjoint module cannot be
    written as a direct sum of irreducible components, with that adjoint
    module: the simple extension of dimension five, with its tail labelled
    x, y. The kernel is spanned by the last two basis vectors and the left
    action on it is nonzero.
    """
    from .sl2 import simple_ext_algebra  # only the examples need the sl2 layer

    alg = LeibnizAlgebra(["e", "f", "h", "x", "y"], simple_ext_algebra(5).table,
                         name="example-5-3")
    return alg, adjoint_rep(alg)


def example_5_5(top_variant: str = "zero_lambda",
                bottom_variant: str = "zero_lambda") -> Representation:
    """A five-dimensional non-irreducible module over the (e, f, h) algebra:
    the size-3 ladder stacked over the size-2 ladder, each block carrying
    its own left-action flavor. It splits back into those blocks.
    """
    from .sl2 import sl2_leibniz_irrep

    top = sl2_leibniz_irrep(2, top_variant)
    bottom = sl2_leibniz_irrep(1, bottom_variant)
    return direct_sum(
        top, bottom,
        name=f"ladder2[{top_variant}]+ladder1[{bottom_variant}]")


def h_gap_positions(rho_h: Matrix, gap: int = 2) -> list[tuple[int, int]]:
    """Positions (i, j) where the diagonal weight difference equals the gap.

    For a diagonal weight matrix, the lowering left-action entry (i, j) can
    be nonzero only where (rho_h)_jj - (rho_h)_ii equals 2; this helper
    enumerates those positions (0-based).
    """
    d = rho_h.rows
    return [(i, j) for i in range(d) for j in range(d)
            if rho_h.entry(j, j) - rho_h.entry(i, i) == gap]


def solve_lowering_left(rho_h: Matrix) -> Subspace:
    """All X with 2X = X rho_h - rho_h X, as flattened matrices.

    This is the linear constraint that pins the lowering left action; its
    solutions are supported exactly on the gap-2 positions when rho_h is
    diagonal with distinct weight differences.
    """
    d = rho_h.rows
    return _solutions(equations._axiom_rows([((-2,), 0, rho_h, rho_h)], d, d), d * d)


# -- algebra constructions --

def abelian_algebra(n: int, name: str = "") -> LeibnizAlgebra:
    return LeibnizAlgebra._of([f"a{i}" for i in range(n)], {}, name=name or f"abelian{n}")


def direct_sum_algebra(a: LeibnizAlgebra, b: LeibnizAlgebra, name: str = "") -> LeibnizAlgebra:
    """External direct sum; clashing labels get _1 and _2 suffixes."""
    clash = set(a.basis_names) & set(b.basis_names)
    names_a = [f"{s}_1" if clash else s for s in a.basis_names]
    names_b = [f"{s}_2" if clash else s for s in b.basis_names]
    cells = {}
    for alg, shift in ((a, 0), (b, a.dim)):
        for i, row in enumerate(alg._int_table):
            for j, cell in enumerate(row):
                cells[shift + i, shift + j] = {shift + t: Fraction(c, alg._den) for t, c in cell}
    return LeibnizAlgebra._of(names_a + names_b, cells, name=name)
