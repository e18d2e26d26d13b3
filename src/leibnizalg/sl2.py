"""The sl2 family: weight-ladder representations and simple extensions.

This module hosts the explicit catalogue: the 3-dimensional simple Lie
algebra on (e, f, h), its (m+1)-dimensional ladder representations in the
two left-action variants, the twelve constraint identities the ladder
matrices satisfy (each read off the module's pairing-axiom check at fixed
basis pairs), and the n-dimensional simple Leibniz extensions whose tail
representations are forced to zero. Every catalogue module, a ladder or a
ladder extended by zero on the tail, is built from the variant table by
`reps._variant_rep`. `catalogue_irreps` alone recognises a catalogue table:
it gives the family and the modules with their variants, which `rep
classify` prints and the forcing solver checks its roots against. The
forcing argument runs in two stages: a linear stage pairing tail elements
with e, f, h, and a quadratic stage for the tail-tail pairs that peels
equations of the perfect-square form q*(linear)^2 = 0 into linear ones.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import equations, poly
from .algebra import InternalCheckError, LeibnizAlgebra, algebra_from_brackets
from .linalg import Matrix, Subspace, _matrix_of, _solutions, _sparse_matmul
from .reps import _VARIANTS, Representation, _variant_rep

ZERO = Fraction(0)
ONE = Fraction(1)


# the brackets of (e, f, h), which the simple extensions keep
_SL2_BRACKETS = {
    ("e", "h"): {"e": 2}, ("h", "e"): {"e": -2},
    ("h", "f"): {"f": 2}, ("f", "h"): {"f": -2},
    ("e", "f"): {"h": 1}, ("f", "e"): {"h": -1},
}


@lru_cache(maxsize=None)
def sl2_algebra() -> LeibnizAlgebra:
    """The simple 3-dimensional Lie algebra on basis (e, f, h).

    Cached; treat the returned object as immutable.
    """
    return algebra_from_brackets(["e", "f", "h"], _SL2_BRACKETS, name="sl2")


def sl2_irrep_rho(m: int) -> tuple[Matrix, Matrix, Matrix]:
    """Right-action matrices (for e, f, h) on the ladder of size m + 1.

    The defining formulas are 1-based; this is the single place where they
    are shifted to 0-based storage. Entry patterns: e raises along the
    superdiagonal with weight i(m+1-i), f lowers with constant -1, h is
    diagonal with m+2-2i.
    """
    if m < 0:
        raise ValueError("ladder size parameter must be nonnegative")
    d = m + 1
    e = {i - 1: {i: Fraction(i * (m + 1 - i))} for i in range(1, d)}
    f = {i - 1: {i - 2: Fraction(-1)} for i in range(2, d + 1)}
    h = {i - 1: {i - 1: Fraction(m + 2 - 2 * i)} for i in range(1, d + 1) if m + 2 != 2 * i}
    return _matrix_of(e, d, d), _matrix_of(f, d, d), _matrix_of(h, d, d)


def _ladder_variants(m: int) -> tuple[str, ...]:
    """The distinct left actions of the ladder; they coincide at m = 0."""
    return tuple(_VARIANTS)[:1] if m == 0 else tuple(_VARIANTS)


def sl2_leibniz_irrep(m: int, variant: str) -> Representation:
    """The (m+1)-dimensional two-sided ladder representation.

    variant "zero_lambda" has vanishing left action; "anti_symmetric" has
    left action equal to the negative of the right one. At m = 0 the two
    coincide (everything is zero).
    """
    rep = _variant_rep(sl2_algebra(), sl2_irrep_rho(m), variant, f"ladder{m}[{variant}]")
    if not rep.is_valid:
        raise InternalCheckError("ladder construction failed its own axioms")
    return rep


# -- the twelve constraint identities --

class Sl2ConstraintReport(NamedTuple):
    identity_ok: tuple[bool, ...]  # twelve flags, index 0 is identity 1
    failing_identities: tuple[int, ...]  # 1-based indices


# the printed forms of each identity as (axiom, i, j), with e, f, h = 0, 1, 2
_IDENTITY_AXIOMS = (
    ((1, 0, 1),), ((1, 0, 2),), ((1, 2, 1),),
    ((2, 0, 1), (2, 1, 0)), ((3, 0, 1), (3, 1, 0)), ((2, 2, 2), (3, 2, 2)),
    ((2, 0, 2), (2, 2, 0)), ((3, 0, 2), (3, 2, 0)), ((2, 0, 0), (3, 0, 0)),
    ((2, 2, 1), (2, 1, 2)), ((3, 2, 1), (3, 1, 2)), ((2, 1, 1), (3, 1, 1)),
)


def check_sl2_constraints(rep: Representation) -> Sl2ConstraintReport:
    """Evaluate the twelve identities on a representation of the (e, f, h) table.

    Identities 1-3 constrain the right action alone; 4-12 tie the left
    action to it, and each of those carries two printed forms which are
    checked jointly. Each printed form is one pairing axiom at one basis
    pair, so an identity holds when none of its forms is among the
    representation's axiom violations. Invalid input representations are
    allowed: the report simply shows which identities break.
    """
    if not rep.algebra.same_table(sl2_algebra()):
        raise ValueError("constraint check runs over the (e, f, h) table only")
    bad = set(rep.axiom_violations)
    ok = tuple(bad.isdisjoint(forms) for forms in _IDENTITY_AXIOMS)
    failing = tuple(i + 1 for i, flag in enumerate(ok) if not flag)
    return Sl2ConstraintReport(ok, failing)


# -- the simple extension family --

@lru_cache(maxsize=None)
def simple_ext_algebra(n: int) -> LeibnizAlgebra:
    """The n-dimensional simple Leibniz algebra over the (e, f, h) quotient.

    Basis (e, f, h, x0, ..., x_{n-4}); the tail spans the kernel and carries
    the ladder action from the right: brackets [x_k, h] = (n-4-2k) x_k,
    [x_k, f] = x_{k+1}, [x_k, e] = k(k+3-n) x_{k-1}, everything else with a
    tail factor is zero. Cached; treat the returned object as immutable.
    """
    if n < 5:
        raise ValueError("the extension family starts at dimension 5")
    names = ["e", "f", "h"] + [f"x{k}" for k in range(n - 3)]
    brackets: dict = dict(_SL2_BRACKETS)
    for k in range(n - 3):
        w = n - 4 - 2 * k
        if w:
            brackets[(f"x{k}", "h")] = {f"x{k}": w}
        if k <= n - 5:
            brackets[(f"x{k}", "f")] = {f"x{k + 1}": 1}
        if k >= 1:
            brackets[(f"x{k}", "e")] = {f"x{k - 1}": k * (k + 3 - n)}
    alg = algebra_from_brackets(names, brackets, name=f"simple_ext{n}")
    if not alg.is_valid:
        raise InternalCheckError("extension table violates the bracket identity")
    return alg


class ExtensionSolution(NamedTuple):
    """Outcome of forcing the tail actions of a simple extension.

    forced_rho_I / forced_lambda_I hold the unique tail action matrices
    (expected all zero) when the solve pins everything; they are None when
    free parameters or an obstruction remain. stage1_free_parameters counts
    the solution dimension of the linear stage per tail block (the left
    block has the same dimension by symmetry of the equations).
    """
    n: int
    m: int
    forced_rho_I: tuple[Matrix, ...] | None
    forced_lambda_I: tuple[Matrix, ...] | None
    free_parameters: int
    stage1_free_parameters: int
    used_quadratic_stage: bool
    lambda_sl2_coefficients: tuple[Fraction, ...]
    obstruction: str | None = None


def _tail_stage1_basis(n: int, m: int) -> list[list[Matrix]]:
    """Nullspace basis of the linear tail system, as lists of tail matrices.

    The unknowns are the tail right actions X_0, ..., X_{n-4}. Axiom (1) on
    each pair (x_k, y), y in (e, f, h), with [x_k, y] = sum_t c_t x_t, reads
    sum_t c_t X_t + X_k rho_y - rho_y X_k = 0.
    """
    alg = simple_ext_algebra(n)
    rho = sl2_irrep_rho(m)
    d = m + 1
    nx = n - 3
    system = []
    for k in range(nx):
        for y in range(3):
            cvec = alg._cell(3 + k, y)
            if any(cvec[:3]):
                raise InternalCheckError("tail bracket left the kernel span")
            system.append((cvec[3:], k, rho[y], rho[y]))
    space = _solutions(equations._axiom_rows(system, d, d), nx * d * d)
    return [[Matrix.from_flat(v[k * d * d:(k + 1) * d * d], d, d) for k in range(nx)]
            for v in space.basis.data]


def _sl2_left_block_check(m: int) -> Subspace:
    """Verify the linear left-action block over sl2 is exactly the rho line.

    The unknowns are the three left matrices, flattened one after the
    other; axiom (2) on each of the nine (e, f, h) pairs (x, y), with
    [x, y] = sum_t c_t b_t, reads sum_t c_t L_t + L_x rho_y - rho_y L_x = 0.
    For m >= 1 the solution space must be one-dimensional, spanned by the
    right-action triple. Returns the verified solution space.
    """
    rho = sl2_irrep_rho(m)
    d = m + 1
    sl2 = sl2_algebra()
    system = [(sl2._cell(x, y), x, rho[y], rho[y]) for x in range(3) for y in range(3)]
    space = _solutions(equations._axiom_rows(system, d, d), 3 * d * d)
    expected_dim = 1 if m >= 1 else 0
    if space.dim != expected_dim:
        raise InternalCheckError(
            f"left sl2 block has dimension {space.dim}, expected {expected_dim}")
    if m >= 1 and not space.contains([x for r in rho for x in r.flatten()]):
        raise InternalCheckError("left sl2 block does not contain the rho line")
    return space


def _tail_quadratic_matrices(basis_mats: list[list[Matrix]], nx: int) -> list[Matrix]:
    """Symmetric coefficient matrices of the tail-tail quadratic equations.

    Parameters are (t_1..t_p) for the right tail block and (u_1..u_p) for
    the left one, sharing the stage-1 basis. Equations come from the three
    axioms on every ordered tail pair; all are homogeneous quadratics. The
    equation at entry (r, s) of the pair (x_k, x_l) has three coefficient
    grids; each nonzero entry of a product B_ik B_jl is added into the grids
    it enters, and the nonzero grids come out in (k, l, r, s) order.
    """
    p = len(basis_mats)
    dim = 2 * p
    half = Fraction(1, 2)
    sparse = [[m.nz for m in mats] for mats in basis_mats]
    grids: dict[tuple[int, int, int, int], tuple[dict, dict, dict]] = {}

    def add(grid: dict, u: int, v: int, x: Fraction) -> None:
        grid[u, v] = grid.get((u, v), 0) + x
        grid[v, u] = grid.get((v, u), 0) + x

    for i in range(p):
        for k in range(nx):
            for j in range(p):
                for l in range(nx):
                    for r, row in _sparse_matmul(sparse[i][k], sparse[j][l]).items():
                        for s, x in row.items():
                            # B_ik B_jl at (r, s) on the pair (x_k, x_l): it
                            # enters the commutator of t_i t_j and of u_i t_j
                            # with -x, and the left-times-left piece u_i u_j
                            s1, s2, s3 = grids.setdefault((k, l, r, s), ({}, {}, {}))
                            add(s1, i, j, -x)
                            add(s2, p + i, j, -x)
                            add(s3, p + i, p + j, x)
                            # on the pair (x_l, x_k) it is B_jl B_ik, which
                            # enters the commutator of t_j t_i and of u_j t_i
                            # with +x, and the right-times-left piece u_j t_i
                            s1, s2, s3 = grids.setdefault((l, k, r, s), ({}, {}, {}))
                            add(s1, j, i, x)
                            add(s2, p + j, i, x)
                            add(s3, p + j, i, x)
    out = []
    for key in sorted(grids):
        for grid in grids[key]:
            rows: dict = {}
            for (u, v), x in grid.items():
                if x:
                    rows.setdefault(u, {})[v] = x * half
            if rows:
                out.append(_matrix_of(rows, dim, dim))
    return out


def _reduce_quadratics(mats: list[Matrix], dim: int) -> tuple[int, str | None]:
    """Peel rank-one homogeneous quadratics into linear constraints.

    A symmetric rank-one coefficient matrix means the equation reads
    q*(w.v)^2 = 0 with q nonzero, so w.v = 0 exactly. Each round collects
    every such w, projects the parameter space onto their common kernel and
    rewrites the remaining equations there. If nonzero equations survive
    with no rank-one among them, the pattern assumption failed and the
    caller must not conclude anything.
    """
    current = [m for m in mats if not m.is_zero()]
    free = dim
    while current:
        # the first nonzero row of a rank-one matrix spans its row space
        constraints = [s.nz[min(s.nz)] for s in current if s.rank() == 1]
        if not constraints:
            return free, ("a quadratic constraint of rank above one resisted "
                          "the square-pattern reduction")
        space = _solutions(constraints, free)
        if space.dim == 0:
            return 0, None
        nb = space.basis
        fresh = []
        for s in current:
            t = nb * s * nb.transpose()
            if not t.is_zero():
                fresh.append(t)
        if space.dim == free and fresh:
            raise InternalCheckError("quadratic reduction made no progress")
        current = fresh
        free = space.dim
    return free, None


def _left_coefficient_roots(m: int) -> tuple[Fraction, ...]:
    """Roots pinning the left sl2 block coefficient a in lambda = a * rho.

    Substituting lambda = a*rho into the third-axiom identities leaves
    (a + a^2) times a product of right-action matrices; for m >= 1 at least
    one product is nonzero, so a + a^2 = 0.
    """
    rho = sl2_irrep_rho(m)
    if all((x * y).is_zero() for x in rho for y in rho):
        raise InternalCheckError("every action product vanished; nothing pins a")
    return poly.rational_roots((ZERO, ONE, ONE))


def extension_rep_solve(n: int, m: int) -> ExtensionSolution:
    """Force the tail actions of the n-dimensional extension on a ladder.

    The right action restricted to (e, f, h) is fixed to the ladder
    matrices. Stage 1 solves the linear equations from pairing each tail
    element with e, f, h (on both action sides; the two blocks share one
    coefficient matrix). Stage 2 feeds the tail-tail pair equations, which
    are homogeneous quadratics in the surviving parameters, through the
    rank-one peeling loop. The left block over (e, f, h) is handled
    separately: it is verified to be the line through the right action, and
    its coefficient is pinned by the third-axiom identities. The forced
    candidates are the catalogue modules with those coefficients, so they are
    not rebuilt: the end-to-end check matches the coefficients against the
    catalogue and builds it, which checks its axioms.
    """
    if n < 5:
        raise ValueError("the extension family starts at dimension 5")
    if m < 1:
        raise ValueError("the forcing argument needs a ladder of size at least 2")
    d = m + 1
    nx = n - 3
    basis_mats = _tail_stage1_basis(n, m)
    p = len(basis_mats)
    _sl2_left_block_check(m)
    free, obstruction = _reduce_quadratics(_tail_quadratic_matrices(basis_mats, nx), 2 * p)
    coeffs = _left_coefficient_roots(m)
    if obstruction is None and free == 0:
        zero = Matrix.zeros(d, d)
        forced_r: tuple[Matrix, ...] | None = tuple(zero for _ in range(nx))
        forced_l: tuple[Matrix, ...] | None = tuple(zero for _ in range(nx))
        _cross_check_against_catalog(n, m, coeffs)
    else:
        forced_r = forced_l = None
    return ExtensionSolution(
        n=n, m=m,
        forced_rho_I=forced_r,
        forced_lambda_I=forced_l,
        free_parameters=free,
        stage1_free_parameters=p,
        used_quadratic_stage=p > 0,
        lambda_sl2_coefficients=coeffs,
        obstruction=obstruction,
    )


def classify_extension_irreps(n: int, m: int) -> list[Representation]:
    """All irreducible two-sided representations of the extension on a ladder.

    Each is a ladder representation of the (e, f, h) part extended by zero
    on the tail; the left action is zero or the negative of the right one.
    At m = 0 the two coincide, so the list has a single entry.
    """
    alg = simple_ext_algebra(n)
    right = list(sl2_irrep_rho(m)) + [Matrix.zeros(m + 1, m + 1)] * (n - 3)
    reps = [_variant_rep(alg, right, v, f"ext{n}-ladder{m}[{v}]") for v in _ladder_variants(m)]
    if not all(rep.is_valid for rep in reps):
        raise InternalCheckError("catalogue representation failed the axioms")
    return reps


def catalogue_irreps(alg: LeibnizAlgebra,
                     m: int) -> tuple[str, list[tuple[str, Representation]]]:
    """The family of a catalogue table and its irreducible modules on the
    ladder of size m + 1, each paired with its variant, in `_VARIANTS` order:
    one at m = 0, where the variants coincide. The family is "sl2" on the
    (e, f, h) table and "simple_ext" on `simple_ext_algebra(n)`, n >= 5; any
    other table raises ValueError."""
    variants = _ladder_variants(m)
    if alg.same_table(sl2_algebra()):
        return "sl2", [(v, sl2_leibniz_irrep(m, v)) for v in variants]
    if alg.dim >= 5 and alg.same_table(simple_ext_algebra(alg.dim)):
        return "simple_ext", list(zip(variants, classify_extension_irreps(alg.dim, m)))
    raise ValueError("classification covers the (e, f, h) table and its simple extensions only")


def _cross_check_against_catalog(n: int, m: int, coeffs: tuple[Fraction, ...]) -> None:
    _, modules = catalogue_irreps(simple_ext_algebra(n), m)
    if sorted(coeffs) != sorted(_VARIANTS[v] for v, _ in modules):
        raise InternalCheckError("solver roots differ from the catalogue coefficients")
