"""Complete reducibility on top of `reps`: the kernel-action condition, the
commutant and the splitter, which is all a `rep decompose` job compiles of
module theory. The constructions and comparisons of modules live in
`modules`. `equations` is bound without loading it.

A module that splits into irreducible components must kill the algebra's
kernel on both action sides; the right action kills it in every module, so
the left action on the kernel is checked first.
Splitting itself runs the commutant splitter of `equations`, `_try_split`,
on each piece, and recursion refines the pieces until every leaf has
commutant dimension one or a quaternion division commutant. A proper piece
is split on the action matrices induced on it, which prove it invariant; as
a submodule of a valid module it needs no axiom check. The first piece, the
whole module, is split on its own action matrices. The sum of the leaves is
proved direct by its dimensions.
"""

from __future__ import annotations

from typing import NamedTuple

from . import equations
from .algebra import InternalCheckError
from .linalg import Matrix, Subspace, _eliminate, _sparse_matmul
from .reps import Representation


# -- complete reducibility --

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
    return equations.matrix_commutant(rep.action_matrices(), rep.space_dim)


class DecompositionResult(NamedTuple):
    """Verdict on splitting a module into invariant direct summands.

    verdict "decomposed" comes with at least two components, each
    indecomposable, with a trivial or a division commutant; "indecomposable"
    means no decomposition into irreducible components exists (the
    obstruction says whether the kernel action, a trivial commutant or a
    quaternion division commutant proved it); "undetermined" means some
    piece has a nontrivial commutant that neither a rational primary
    splitting nor the quaternion step decided. Components always partition
    the module.
    """
    verdict: str
    components: tuple[Subspace, ...]
    obstruction: str | None = None


KERNEL_OBSTRUCTION = "kernel acts nontrivially"


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
    refined through commutant primary splitting, and the idempotents of the
    quaternion step, until every leaf has a trivial or a division
    commutant; a direct-sum splitting of a leaf would put the projection
    onto a summand, an idempotent other than 0 and 1, into its commutant, so
    such leaves are indecomposable. Leaves that resist both leave the
    verdict undetermined rather than guessed.
    """
    rep._require_valid()
    d = rep.space_dim
    full = Subspace.full(d)
    check = complete_reducibility_necessary(rep)
    if not check.ok:
        return DecompositionResult("indecomposable", (full,), KERNEL_OBSTRUCTION)
    mats = rep.action_matrices()
    leaves: list[Subspace] = []
    stuck = False
    stack = [full]
    while stack:
        piece = stack.pop()
        # the first piece is the whole module, whose actions are mats themselves
        induced = mats if piece is full else [piece.induced(m) for m in mats]
        if any(m is None for m in induced):
            raise InternalCheckError("component is not invariant")
        split = equations._try_split(induced, piece.dim)
        if isinstance(split, str):
            leaves.append(piece)
            obstruction = split
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
        return DecompositionResult("indecomposable", tuple(leaves), obstruction)
    return DecompositionResult("decomposed", tuple(leaves))


def _verify_partition(leaves: list[Subspace], d: int) -> None:
    """Dimensions adding up to d with a union of rank d make the sum direct."""
    total = _eliminate([row for piece in leaves for row in piece.rows.values()], d)
    if sum(piece.dim for piece in leaves) != d or total.dim != d:
        raise InternalCheckError("components do not partition the module")
