"""Structure theory of a Leibniz algebra: ideals, quotients, series, the
Killing form, the Levi chain, simplicity and derivations.

Each public function here is the body of the `LeibnizAlgebra` method of the
same name, which states its contract and calls it with the algebra first.
A module job (`rep irreducible`, `rep decompose`) runs only the constructor
path of `algebra`, so it never compiles this layer. Operations call one
another through the algebra's methods, so a patch or a wrapper on a method
sees every call.

The Levi chain, the kernel K, the Lie quotient Q = L/K and the radical, is
computed and verified once per algebra (`_levi_chain`, cached as
`LeibnizAlgebra._levi_data`); `radical`, `is_semisimple`, `is_simple`,
`levi_subalgebra` and `structure_report` read it. The radical is K plus the
lift of the radical of Q by the section e_k -> b_comp[k]. `quotient` reads
its projection off the RREF rows of the ideal, and `subalgebra_on` its table
off the pivot entries of the products.

The Killing form, `derivations`, `inner_derivations` and `_generators`
read the algebra's integer multiplication matrices R_k and L_k.
`_generators` picks the generating set on which `derivations` imposes its
rule, with one `linalg._span_closure` per pick.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import equations
from .algebra import InternalCheckError, LeibnizAlgebra
from .linalg import (
    Echelon, Matrix, Subspace, Vector, _eliminate, _flat, _integral, _matrix_of, _norton,
    _solutions, _span_closure, _sparse_combination, _sparse_matmul, envelope_dimension, nullspace,
    subspace_sum,
)

ONE = Fraction(1)


class SeriesReport(NamedTuple):
    kind: str  # "lower_central" or "derived"
    terms: tuple[Subspace, ...]
    stabilized: bool

    @property
    def terminal(self) -> Subspace:
        return self.terms[-1]


class SimplicityVerdict(NamedTuple):
    value: str  # "yes", "no", "undetermined"
    witness: Subspace | None = None
    reason: str = ""


class StructureReport(NamedTuple):
    is_lie: bool
    kernel: Subspace
    radical: Subspace
    solvable: bool
    nilpotent: bool
    semisimple: bool
    simple: SimplicityVerdict
    witnesses: tuple[tuple[str, Subspace], ...]


def product_space(alg: LeibnizAlgebra, u: Subspace, w: Subspace) -> Subspace:
    alg._require_valid(u, w)
    n = alg.dim
    us = [_integral(a) for a in u.rows.values()]
    ws = [_integral(b) for b in w.rows.values()]
    return _eliminate((alg._product(a, b) for a in us for b in ws), n).subspace()


def is_subalgebra(alg: LeibnizAlgebra, u: Subspace) -> bool:
    alg._require_valid()
    return u.contains_subspace(alg.product_space(u, u))


def is_ideal(alg: LeibnizAlgebra, u: Subspace) -> bool:
    alg._require_valid()
    full = alg.full_space()
    return (u.contains_subspace(alg.product_space(u, full))
            and u.contains_subspace(alg.product_space(full, u)))


# -- quotients and subalgebras --

def quotient(alg: LeibnizAlgebra, ideal: Subspace) -> tuple[LeibnizAlgebra, Matrix]:
    alg._require_valid()
    if not alg.is_ideal(ideal):
        raise ValueError("subspace is not an ideal")
    pivots = set(ideal.pivots)
    index = {c: k for k, c in enumerate(c for c in range(alg.dim) if c not in pivots)}
    images = {c: {k: ONE} for c, k in index.items()}  # images[t]: column t of proj
    for p, row in zip(ideal.pivots, ideal.rows.values()):
        images[p] = {index[c]: -x for c, x in row.items() if c != p}
    # [b_a, b_b] = sum_t c_ab^t b_t projects to sum_t c_ab^t images[t]
    cells = {}
    for ca, a in index.items():
        for cb, b in index.items():
            acc = cells[a, b] = {}
            for t, c in alg._int_table[ca][cb]:
                for k, x in images[t].items():
                    acc[k] = acc.get(k, 0) + Fraction(c, alg._den) * x
    out = LeibnizAlgebra._of([alg.basis_names[c] for c in index], cells)
    if not out.is_valid:
        raise InternalCheckError("quotient by an ideal produced an invalid table")
    proj = _matrix_of({t: col for t, col in images.items() if col}, alg.dim, len(index))
    return out, proj.transpose()


def subalgebra_on(alg: LeibnizAlgebra, u: Subspace) -> LeibnizAlgebra:
    alg._require_valid(u)
    rows = list(u.rows.values())
    cells = {}
    for a, x in enumerate(rows):
        for b, y in enumerate(rows):
            w = alg._product(x, y)
            if u._remainder(w):
                raise ValueError("subspace is not closed under the bracket")
            cells[a, b] = {k: w[p] / alg._den for k, p in enumerate(u.pivots) if p in w}
    # an RREF row with one entry is the unit vector at its pivot; where its
    # label is also a generated name, every row gets the generated one
    names = [alg.basis_names[p] if len(u.rows[a]) == 1 else f"u{a}"
             for a, p in enumerate(u.pivots)]
    if len(set(names)) < len(names):
        names = [f"u{a}" for a in range(len(names))]
    return LeibnizAlgebra._of(names, cells)


# -- series --

def _series(alg: LeibnizAlgebra, term: Subspace,
            against: Subspace | None = None) -> tuple[Subspace, ...]:
    """term, [term, against], [[term, against], against], ... up to the
    first repeat; without against each term is bracketed with itself."""
    terms = [term]
    while True:
        nxt = alg.product_space(term, term if against is None else against)
        if nxt == term:
            return tuple(terms)
        terms.append(nxt)
        term = nxt


def lower_central_series(alg: LeibnizAlgebra) -> SeriesReport:
    alg._require_valid()
    full = alg.full_space()
    return SeriesReport("lower_central", _series(alg, full, full), True)


def derived_series(alg: LeibnizAlgebra) -> SeriesReport:
    alg._require_valid()
    return SeriesReport("derived", _series(alg, alg.full_space()), True)


def is_solvable(alg: LeibnizAlgebra) -> bool:
    return alg.derived_series().terminal.is_zero()


def is_nilpotent(alg: LeibnizAlgebra) -> bool:
    return alg.lower_central_series().terminal.is_zero()


# -- Killing form, radical, semisimplicity --

def killing_form(alg: LeibnizAlgebra) -> Matrix:
    alg._require_valid()
    if not alg.is_lie():
        raise ValueError("Killing form is only computed on Lie tables")
    # trace(ad b_i ad b_j), with ad b_i = L_i
    return Matrix([[Fraction(sum(c * b.get(k, {}).get(s, 0)
                                 for s, row in a.items() for k, c in row.items()),
                             alg._den ** 2) for b in alg._left] for a in alg._left])


def _levi_chain(alg: LeibnizAlgebra) -> tuple[
        Subspace, tuple[int, ...], LeibnizAlgebra, Subspace]:
    """The kernel K, its non-pivot columns comp, the Lie quotient Q = L/K,
    whose basis vector k is the coset of b_comp[k], and the radical: the
    preimage of the radical of Q, so K plus the rows of the radical of Q
    read at comp. The chain is computed and verified here, once per algebra."""
    kernel = alg.leibniz_kernel()
    quo, _ = alg.quotient(kernel)
    if not quo.is_lie():
        raise InternalCheckError("quotient by the kernel is not Lie")
    comp = tuple(c for c in range(alg.dim) if c not in kernel.pivots)
    lifts = ({comp[k]: x for k, x in row.items()} for row in _lie_radical(quo).rows.values())
    rad = _eliminate([*kernel.rows.values(), *lifts], alg.dim).subspace()
    if not alg.is_ideal(rad):
        raise InternalCheckError("computed radical is not an ideal")
    if not _series(alg, rad)[-1].is_zero():
        raise InternalCheckError("computed radical is not solvable")
    return kernel, comp, quo, rad


def radical(alg: LeibnizAlgebra) -> Subspace:
    alg._require_valid()
    return alg._levi_data[3]


def is_semisimple(alg: LeibnizAlgebra) -> bool:
    return alg.radical() == alg._levi_data[0]


def _lie_radical(lie: LeibnizAlgebra) -> Subspace:
    """Killing-orthogonal complement of the derived algebra (Cartan criterion)."""
    derived = lie.product_space(lie.full_space(), lie.full_space())
    if derived.is_zero():
        return lie.full_space()
    # kappa is symmetric, so row k of derived.basis * kappa is kappa d_k
    return nullspace(derived.basis * lie.killing_form())


# -- simplicity --

def is_simple(alg: LeibnizAlgebra) -> SimplicityVerdict:
    alg._require_valid()
    kernel, _, quo, rad = alg._levi_data
    full = alg.full_space()
    derived = alg.product_space(full, full)
    if derived == kernel:
        return SimplicityVerdict("no", derived, "[L,L] equals the kernel")
    if rad != kernel:
        return SimplicityVerdict("no", rad, "radical exceeds the kernel")
    # rad == kernel: [Q,Q]^perp = 0 in Q, so the Killing form of Q is nondegenerate
    ads = [quo.right_mult_matrix_basis(j) for j in range(quo.dim)]
    reason = ""
    if len(equations.matrix_commutant(ads, quo.dim)) != 1:
        reason = "adjoint commutant of the Lie quotient has dimension above one"
    elif kernel.dim:
        mats, k = _kernel_action_matrices(alg, kernel), kernel.dim
        if not _norton(mats, k) and envelope_dimension(mats, k) != k * k:
            reason = "kernel module envelope is short of the full matrix algebra"
    if not reason:
        # Q = L/K is simple and K an irreducible module, so a proper ideal
        # I other than K would have I + K = L and I meet K in 0. Then
        # [K, L] = [K, I] = 0 and [L, K] = 0, so every square lies in I
        # and K = 0: no seed can find one. The seed search runs only past
        # a failed certificate, whose reason it keeps if it finds none.
        return SimplicityVerdict("yes", None, "")
    for seed in _ideal_seed_candidates(alg):
        closure = alg.ideal_closure([seed])
        if closure != kernel and not closure.is_zero() and closure != full:
            return SimplicityVerdict(
                "no", closure, "closure of a sampled vector is a proper ideal")
    return SimplicityVerdict("undetermined", None, reason)


def _ideal_seed_candidates(alg: LeibnizAlgebra) -> list[Vector]:
    """The unit vectors, then the sums of two of them."""
    units = Matrix.identity(alg.dim).data
    return list(units) + [tuple(a + b for a, b in zip(units[i], units[j]))
                          for i in range(alg.dim) for j in range(i + 1, alg.dim)]


def _kernel_action_matrices(alg: LeibnizAlgebra, kernel: Subspace) -> list[Matrix]:
    """Right actions of every basis element on the kernel; the left ones
    vanish there, since [x, [y, y]] = 0."""
    mats = [kernel.induced(alg.right_mult_matrix_basis(j)) for j in range(alg.dim)]
    if any(m is None for m in mats):
        raise InternalCheckError("kernel is not acting into itself")
    return mats


# -- derivations --

def _generators(alg: LeibnizAlgebra) -> list[int]:
    """Basis indices that generate the algebra, picked in label order: each
    one lies outside the span closure of those before it under their right
    multiplications. That closure of a set G is the subalgebra G generates,
    as R_[y,z] = R_z R_y - R_y R_z makes it closed under brackets."""
    n, gens, span = alg.dim, [], Echelon(alg.dim)
    for k in range(n):
        if span.dim == n:
            break
        if span._add({k: 1}):
            gens.append(k)
            span = _span_closure([{g: 1} for g in gens], [alg._right[g] for g in gens], n)
    return gens


def derivations(alg: LeibnizAlgebra) -> Subspace:
    alg._require_valid()
    n, nz, right, left = alg.dim, alg._int_table, alg._right, alg._left
    # entry (r, s) of d is unknown r*n + s; the equation at (p, q, r) is
    # sum_s c_pq^s d_rs - c_sq^r d_sp - c_ps^r d_sq = 0, in integers, where
    # c_sq^r and c_ps^r are the entries (r, s) of R_q and of L_p.
    # The rule D[y, z] = [Dy, z] + [y, Dz] holds for every z once it holds
    # on generators: the z where [D, R_z] = R_{Dz} form a subalgebra, since
    # R_[y,z] = R_z R_y - R_y R_z. So q runs over generators only, and only
    # a triple where nz[p][q], row r of R_q or row r of L_p is nonempty can
    # give a nonzero row; sorted, the rows keep their (p, q, r) order
    every, gens = range(n), _generators(alg)
    triples = {(p, q, r) for p in every for q in gens if nz[p][q] for r in every}
    triples.update((p, q, r) for q in gens for r in right[q] for p in every)
    triples.update((p, q, r) for p in every for r in left[p] for q in gens)
    rows = []
    for p, q, r in sorted(triples):
        row = {r * n + s: c for s, c in nz[p][q]}
        terms = [(s * n + p, c) for s, c in right[q].get(r, {}).items()]
        terms += [(s * n + q, c) for s, c in left[p].get(r, {}).items()]
        for col, c in terms:
            y = row.get(col, 0) - c
            if y:
                row[col] = y
            else:
                del row[col]
        if row:
            rows.append(row)
    return _solutions(rows, n * n)


def inner_derivations(alg: LeibnizAlgebra) -> Subspace:
    alg._require_valid()
    n = alg.dim
    return _eliminate((_flat(m, n) for m in alg._right), n * n).subspace()


def check_inn_ideal(alg: LeibnizAlgebra) -> bool:
    return alg.derivations().contains_subspace(alg.inner_derivations())


# -- Levi complement --

def levi_subalgebra(alg: LeibnizAlgebra) -> Subspace:
    alg._require_valid()
    kernel, comp, quo, rad = alg._levi_data
    if rad != kernel:
        raise ValueError("Levi complement is computed on semisimple algebras only")
    if kernel.is_zero():
        return alg.full_space()
    q, r = len(comp), kernel.dim
    # X A_b^T - C_b X = -Gamma_b, one row per (b, a, m), with the
    # right-hand side in column q r
    rights = _kernel_action_matrices(alg, kernel)
    rows = equations._axiom_rows([((), 0, rights[c].transpose(),
                                   Matrix([quo._cell(a, b) for a in range(q)]))
                                  for b, c in enumerate(comp)], q, r)
    nz = alg._int_table
    cells = [dict(nz[comp[a]][comp[b]]) for b in range(q) for a in range(q)]
    gammas = (cell.get(p, 0) for cell in cells for p in kernel.pivots)
    for row, g in zip(rows, gammas):
        if g:
            row[q * r] = Fraction(-g, alg._den)
    particular, _ = equations._particular(rows, q * r)
    if particular is None:
        raise InternalCheckError("Levi correction system is unsolvable")
    section = {a: {c: ONE} for a, c in enumerate(comp)}
    correction = _sparse_matmul(Matrix.from_flat(particular, q, r).nz, kernel.rows)
    levi = _eliminate(_sparse_combination([(1, section), (1, correction)]).values(),
                      alg.dim).subspace()
    if levi.dim != q:
        raise InternalCheckError("Levi complement has wrong dimension")
    # the dimensions add up to q + r = n, so spanning makes the sum direct
    if subspace_sum(levi, kernel).dim != alg.dim:
        raise InternalCheckError("Levi complement and kernel do not span")
    try:
        table = alg.subalgebra_on(levi)
    except ValueError:
        raise InternalCheckError("Levi complement is not a subalgebra") from None
    if not table.is_lie():
        raise InternalCheckError("Levi complement table is not Lie")
    return levi


# -- aggregate report --

def structure_report(alg: LeibnizAlgebra) -> StructureReport:
    alg._require_valid()
    kernel, _, _, rad = alg._levi_data
    simple = alg.is_simple()
    witnesses: list[tuple[str, Subspace]] = [("kernel", kernel), ("radical", rad)]
    if simple.witness is not None:
        witnesses.append(("simplicity", simple.witness))
    return StructureReport(
        is_lie=alg.is_lie(),
        kernel=kernel,
        radical=rad,
        solvable=alg.is_solvable(),
        nilpotent=alg.is_nilpotent(),
        semisimple=rad == kernel,
        simple=simple,
        witnesses=tuple(witnesses),
    )
