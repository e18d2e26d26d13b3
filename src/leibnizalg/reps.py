"""Bimodule representations of Leibniz algebras.

A representation on a space M assigns to every algebra element x a right
action rho_x and a left action lambda_x on M, subject to three pairing
axioms (checked over the structure constants, basis pair by basis pair):

    (1) rho_[x,y]    = rho_y rho_x - rho_x rho_y
    (2) lambda_[x,y] = rho_y lambda_x - lambda_x rho_y
    (3) lambda_[x,y] = rho_y lambda_x + lambda_x lambda_y

Axiom (1) forces the right action of the algebra's kernel to vanish; the
left action of the kernel is genuinely extra data, which is what separates
this theory from Lie module theory. On an irreducible module the left action
is 0 or -rho (the dichotomy): `_VARIANTS` maps the two variants to their a
in lambda = a * rho, and `_variant_rep` builds every catalogue module from it.

Every Representation checks the axioms when it is built, on integers: the
action matrices are scaled by one common denominator D to sparse integer
matrices R_k, L_k, the structure constants by theirs, E, to C_ij^k, and
axiom (1) at (i, j) is checked as D sum_k C_ij^k R_k = E (R_j R_i - R_i R_j),
axioms (2) and (3) the same way. Axiom (1) is `linalg._pairing_defects`,
which also checks the Leibniz identity: one pair at a time in O(d^2) memory,
each product R_a R_b formed once for both orders. Products with a zero left
action are never formed.

This layer holds only what parsing and `rep check` run, with the catalogue
variants, which `sl2` and `modules` build on, and spinning, which the
irreducibility test runs. The irreducibility test lives in `irreducible`,
and the constructions, the dichotomy and equivalence in `modules`. The bench scripts read `direct_sum`,
`module_restriction` and `irreducibility` here, which `__getattr__`
(PEP 562) resolves through the package table from their home layers on
first access.
"""

from __future__ import annotations

import sys
from typing import Sequence

from .algebra import LeibnizAlgebra
from .linalg import (
    Matrix,
    _int_matrices,
    _pairing_defects,
    _sparse,
    _sparse_combination,
    _sparse_matmul,
    _span_closure,
    Subspace,
    linear_combination,
    vec,
)


class AxiomViolationError(ValueError):
    """Raised when an operation needs a representation that failed its axioms."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        head = ", ".join(f"axiom {a} at pair ({i},{j})"
                         for a, i, j in self.violations[:3])
        super().__init__(f"representation axioms fail: {head}")


class Representation:
    """Pair of action tuples over a fixed algebra basis.

    right[j] is the matrix of the right action of basis element j, left[j]
    the matrix of its left action. Axioms are checked eagerly; the violating
    (axiom, i, j) triples are kept on the instance.
    """

    def __init__(
        self,
        algebra: LeibnizAlgebra,
        right: Sequence[Matrix],
        left: Sequence[Matrix],
        name: str = "",
    ):
        algebra._require_valid()
        if len(right) != algebra.dim or len(left) != algebra.dim:
            raise ValueError("need one action matrix per basis element on each side")
        if algebra.dim == 0:
            raise ValueError("representations of the zero algebra are not supported")
        d = right[0].rows
        for m in list(right) + list(left):
            if m.rows != d or m.cols != d:
                raise ValueError("action matrices must be square and of equal size")
        self.algebra = algebra
        self.right = tuple(right)
        self.left = tuple(left)
        self.space_dim = d
        self.name = name
        self.axiom_violations = self._check_axioms()

    def _check_axioms(self) -> tuple[tuple[int, int, int], ...]:
        """Violating (axiom, i, j) triples, pair by pair, axioms in order;
        the integer form of the check is described in the module docstring."""
        alg = self.algebra
        n, e = alg.dim, alg._den
        den, mats = _int_matrices(self.right + self.left)
        right, left = mats[:n], mats[n:]
        one = {(i, j) for i, j, _ in _pairing_defects(right, alg._int_table, e, den)}
        bad = []
        for i in range(n):
            for j in range(n):
                if (i, j) in one:
                    bad.append((1, i, j))
                lam = _sparse_combination([(den * c, left[k]) for k, c in alg._int_table[i][j]])
                two = three = {}
                if left[i]:
                    rl = _sparse_matmul(right[j], left[i])
                    lr = _sparse_matmul(left[i], right[j])
                    two = _sparse_combination([(e, rl), (-e, lr)])
                    three = _sparse_combination([(e, rl), (e, _sparse_matmul(left[i], left[j]))])
                if lam != two:
                    bad.append((2, i, j))
                if lam != three:
                    bad.append((3, i, j))
        return tuple(bad)

    @property
    def is_valid(self) -> bool:
        return not self.axiom_violations

    def _require_valid(self) -> None:
        if not self.is_valid:
            raise AxiomViolationError(self.axiom_violations)

    def rho_of(self, x: Sequence) -> Matrix:
        """Right action of an arbitrary algebra vector."""
        return self._action(x, self.right)

    def lambda_of(self, x: Sequence) -> Matrix:
        """Left action of an arbitrary algebra vector."""
        return self._action(x, self.left)

    def _action(self, x: Sequence, mats: tuple[Matrix, ...]) -> Matrix:
        x = vec(x)
        if len(x) != self.algebra.dim:
            raise ValueError("coordinate vector must match the algebra dimension")
        d = self.space_dim
        return linear_combination(x, mats, d, d)

    def action_matrices(self) -> list[Matrix]:
        return list(self.right) + list(self.left)

    def __repr__(self) -> str:
        label = self.name or "Representation"
        return f"<{label} dim={self.space_dim} over {self.algebra!r}>"


# the two left actions of the catalogue modules, in catalogue order: variant
# -> a, where the left action is a times the right one
_VARIANTS = {"zero_lambda": 0, "anti_symmetric": -1}


def _variant_rep(algebra: LeibnizAlgebra, right: Sequence[Matrix], variant: str,
                 name: str) -> Representation:
    """The module with the given right action and the variant's left action."""
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    a = _VARIANTS[variant]
    return Representation(algebra, right, [m.scale(a) for m in right], name=name)


def spin_submodule(rep: Representation, seeds: Sequence[Sequence]) -> Subspace:
    """Smallest subspace containing the seeds and invariant under both actions."""
    d = rep.space_dim
    maps = [m.nz for m in rep.action_matrices()]
    return _span_closure([_sparse(s, d) for s in seeds], maps, d).subspace()


_FORWARDED = ("direct_sum", "irreducibility", "module_restriction")


def __getattr__(name):
    if name in _FORWARDED:
        return getattr(sys.modules[__package__], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
