"""The three-valued irreducibility test, the question `rep irreducible`
asks and the dichotomy of `modules` starts from.

The yes side is Norton's certificate with the envelope as its fallback; the
no side spins coordinate vectors and, after the envelope, the rational
eigenvectors of the action matrices, which load `poly` when they run. The
module type and `spin_submodule` stay in `reps`, which parsing, `rep check`
and `rep decompose` run without compiling this layer.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

from . import poly
from .linalg import Matrix, Subspace, Vector, _norton, envelope_dimension, nullspace
from .reps import Representation, spin_submodule


class IrreducibilityVerdict(NamedTuple):
    value: str  # "abs_irreducible", "reducible", "undetermined"
    witness: Subspace | None = None
    detail: str = ""


def irreducibility(rep: Representation) -> IrreducibilityVerdict:
    """Three-valued irreducibility test.

    The yes side is Norton's certificate (`linalg._norton`), with the
    full-matrix-algebra envelope check as its fallback; both certify
    absolute irreducibility and report the full envelope. The no side spins
    the coordinate vectors before the envelope and the rational
    eigenvectors of the action matrices after it, for a proper invariant
    subspace. Neither firing leaves the question open.
    """
    rep._require_valid()
    d = rep.space_dim
    if d == 0:
        return IrreducibilityVerdict("reducible", Subspace.zero(0),
                                     "zero module")
    mats = rep.action_matrices()
    full = IrreducibilityVerdict("abs_irreducible", None, f"envelope dimension {d * d}")
    if _norton(mats, d):
        return full
    sub = _proper_spin(rep, Matrix.identity(d).data)
    if sub is None:
        env = envelope_dimension(mats, d)
        if env == d * d:
            return full
        sub = _proper_spin(rep, _eigenvectors(mats))
        if sub is None:
            return IrreducibilityVerdict(
                "undetermined", None,
                f"envelope dimension {env} below {d * d} but no witness found")
    return IrreducibilityVerdict("reducible", sub, "proper invariant subspace found")


def _proper_spin(rep: Representation, vectors: Iterable[Vector]) -> Subspace | None:
    """The first spin of one of the vectors that is a proper nonzero subspace."""
    spins = (spin_submodule(rep, [v]) for v in vectors)
    return next((sub for sub in spins if 0 < sub.dim < rep.space_dim), None)


def _eigenvectors(mats: Sequence[Matrix]) -> Iterator[Vector]:
    """The rational eigenvectors of each matrix, generated lazily."""
    for m in mats:
        for root in poly.rational_roots(poly.minimal_polynomial(m)):
            yield from nullspace(poly._shift(m, -root)).basis.data
