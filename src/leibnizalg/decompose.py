"""Complete-reducibility analysis for two-sided modules.

A module that splits into irreducible components must kill the algebra's
kernel on both action sides; the right action kills it in every module, so
the left action on the kernel is checked first.
Splitting itself goes through the commutant: primary components of a
deterministic commutant element are invariant, and recursion refines them
until every leaf has commutant dimension one. A piece is split on the action
matrices induced on it, which prove it invariant; as a submodule of a valid
module it needs no axiom check. The sum of the leaves is proved direct by
its dimensions. Two benchmark modules of dimension five round out the
catalogue: the adjoint module of example 5.3, `simple_ext(5)` with its tail
labelled x, y, which admits no irreducible decomposition, and one that
splits as 3 + 2.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .algebra import InternalCheckError, LeibnizAlgebra
from .linalg import (
    Matrix, Subspace, _axiom_rows, _eliminate, _poly_at, _rational_factors, _solutions,
    _sparse_matmul, linear_combination, matrix_commutant, minimal_polynomial, nullspace,
)
from .reps import Representation, adjoint_rep, direct_sum


class KernelActionReport(NamedTuple):
    """Whether every kernel basis vector acts by zero on both sides."""
    ok: bool
    witness_vector: tuple | None = None
    witness_side: str | None = None  # "lambda": rho vanishes on the kernel
    witness_matrix: Matrix | None = None


def complete_reducibility_necessary(rep: Representation) -> KernelActionReport:
    """Necessary condition for a direct sum of irreducible components.

    On every irreducible component the left action is zero or the negative
    of the right one, and the right action kills the kernel; summing over
    components, both actions of every kernel element vanish. The right action
    kills it in every module: axiom (1) gives rho_[x,x] = rho_x rho_x -
    rho_x rho_x = 0, and the kernel is spanned by squares. So only the left
    action is checked, and a nonzero one is returned as a witness.
    """
    rep._require_valid()
    kern = rep.algebra.leibniz_kernel()
    for v in kern.basis.data:
        l = rep.lambda_of(v)
        if not l.is_zero():
            return KernelActionReport(False, v, "lambda", l)
    return KernelActionReport(True)


def commutant(rep: Representation) -> list[Matrix]:
    """Basis of all matrices commuting with both actions of every basis element."""
    rep._require_valid()
    return matrix_commutant(rep.action_matrices(), rep.space_dim)


class DecompositionResult(NamedTuple):
    """Verdict on splitting a module into invariant direct summands.

    verdict "decomposed" comes with at least two components, each with a
    trivial commutant; "indecomposable" means no decomposition into
    irreducible components exists (the obstruction says whether the kernel
    action or a trivial commutant proved it); "undetermined" means some
    piece has a nontrivial commutant but no rational primary splitting was
    found. Components always partition the module.
    """
    verdict: str
    components: tuple[Subspace, ...]
    obstruction: str | None = None


def _primary_components(c: Matrix) -> list[Subspace]:
    """Primary decomposition of the space under c, as far as rational roots go.

    The minimal polynomial is split into (t - a)^e factors for each rational
    root a plus a rootless leftover; the space is the direct sum of the
    kernels of the factors at c, none zero: each divides the minimal polynomial.
    """
    roots, rest = _rational_factors(minimal_polynomial(c))
    # (t - a)^e by the binomial theorem, then the leftover without rational roots
    factors = [[comb(e, k) * (-a) ** (e - k) for k in range(e + 1)] for a, e in roots]
    if len(rest) > 1:
        factors.append(rest)
    pieces = [nullspace(_poly_at(f, c)) for f in factors]
    if sum(p.dim for p in pieces) != c.rows:
        raise InternalCheckError("primary components do not fill the space")
    return pieces


def _try_split(mats: list[Matrix], d: int) -> list[Subspace] | None:
    """One commutant splitting round on the action matrices of a piece.

    Returns None when the commutant is trivial (certified indecomposable),
    an empty list when it is nontrivial but no candidate splits rationally,
    and otherwise at least two primary components.
    """
    basis = matrix_commutant(mats, d)
    if len(basis) == 1:
        return None
    generic = linear_combination(range(1, len(basis) + 1), basis, d, d)
    for cand in [generic] + basis:
        pieces = _primary_components(cand)
        if len(pieces) >= 2:
            return pieces
    return []


def _lift(sub: Subspace, piece: Subspace) -> Subspace:
    """Rewrite a subspace given in piece coordinates as an ambient subspace."""
    # both are reduced, so the product of their rows is: row k has pivot
    # piece.pivots[sub.pivots[k]] and is 0 at every other product pivot
    rows = _sparse_matmul(sub.rows, piece.rows)
    return Subspace._of(piece.ambient_dim,
                        [(piece.pivots[p], rows[k]) for k, p in enumerate(sub.pivots)])


def decompose(rep: Representation) -> DecompositionResult:
    """Split the module into invariant components as far as the commutant allows.

    The kernel-action condition rules out any decomposition into
    irreducible components outright when it fails. Otherwise pieces are
    refined through commutant primary splitting until every leaf has a
    trivial commutant; a direct-sum splitting of a leaf would put the
    projection onto a summand into its commutant, so such leaves are
    indecomposable. Leaves that resist rational splitting leave the
    verdict undetermined rather than guessed.
    """
    rep._require_valid()
    d = rep.space_dim
    full = Subspace.full(d)
    check = complete_reducibility_necessary(rep)
    if not check.ok:
        return DecompositionResult(
            "indecomposable", (full,), "kernel acts nontrivially")
    mats = rep.action_matrices()
    leaves: list[Subspace] = []
    stuck = False
    stack = [full]
    while stack:
        piece = stack.pop()
        induced = [piece.induced(m) for m in mats]
        if any(m is None for m in induced):
            raise InternalCheckError("component is not invariant")
        split = _try_split(induced, piece.dim)
        if split is None:
            leaves.append(piece)
        elif not split:
            stuck = True
            leaves.append(piece)
        else:
            stack.extend(_lift(s, piece) for s in split)
    leaves.sort(key=lambda p: (-p.dim, p.pivots))
    _verify_partition(leaves, d)
    if stuck:
        return DecompositionResult(
            "undetermined", tuple(leaves),
            "commutant splitting found no rational idempotent")
    if len(leaves) == 1:
        return DecompositionResult(
            "indecomposable", tuple(leaves), "commutant dimension 1")
    return DecompositionResult("decomposed", tuple(leaves))


def _verify_partition(leaves: list[Subspace], d: int) -> None:
    """Dimensions adding up to d with a union of rank d make the sum direct."""
    total = _eliminate([row for piece in leaves for row in piece.rows.values()], d)
    if sum(piece.dim for piece in leaves) != d or total.dim != d:
        raise InternalCheckError("components do not partition the module")


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
    return _solutions(_axiom_rows([((-2,), 0, rho_h, rho_h)], d, d), d * d)
