"""Generate one workload's input files and job list from a seed.

    python bench/inputs.py --workload NAME --seed N --out DIR [--trace DIR]

Catalog objects come from `leibnizalg gen`, each call in a fresh
interpreter; the library's own constructors (`parse_rep`, `direct_sum`,
`serialize_rep`, ...) then build sums and seeded changes of basis. The seed
fixes every random choice, so one seed always gives byte-identical files.
DIR receives the files and `jobs.json`, a list of jobs:

    {"id": str, "kind": "cli" | "lib", "argv": [...], "expect": {...}}

An argv entry "@name" stands for the input file DIR/name. "expect" holds
only facts fixed by the construction, for the oracle in run.py.
With --trace, the `gen` calls and this process record spans into DIR.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys

# fileio functions are called through the module, so that the tracer's
# wrappers (bench/child.py) reach the set-up's own serialization too
from leibnizalg import fileio
from leibnizalg.algebra import LeibnizAlgebra
from leibnizalg.linalg import Matrix
from leibnizalg.reps import Representation, direct_sum

HERE = os.path.dirname(os.path.abspath(__file__))
ZERO_L, ANTI = "zero_lambda", "anti_symmetric"
DENSE_BASES_SEED = 0  # the dense workload's bases; the run seed signs them
# (variant, algebra basis, module basis) of ladder1 + ladder1 on which
# `rep decompose` answers "undetermined" where the canonical basis gives
# [2, 2]: none of the splitter's commutant candidates has a rational
# eigenvalue (ROADMAP item 4). Kept in the dense workload on purpose.
UNDETERMINED_BASES = (
    (ZERO_L, [[-2, -1, 2], [2, -1, -1], [-1, 1, 1]],
     [[-1, -1, 2, 2], [0, 2, -1, 1], [-1, -1, -2, 0], [0, -2, 2, 2]]),
    (ANTI, [[1, 1, -2], [-2, -2, 1], [-1, 0, -2]],
     [[1, 0, 2, 2], [1, -1, 1, -1], [-1, 1, 1, 2], [2, -1, 2, 1]]),
)


class Inputs:
    """Writes input files and collects the job list."""

    def __init__(self, out: str, seed: int, trace_dir: str | None):
        self.out = out
        self.rng = random.Random(seed)
        self.dense_rng = random.Random(DENSE_BASES_SEED)
        self.trace_dir = trace_dir
        self.jobs: list[dict] = []
        self._gen_cache: dict[tuple, str] = {}

    def gen(self, *args: str) -> str:
        """Text printed by `leibnizalg gen ARGS`, one fresh process per call."""
        if args not in self._gen_cache:
            if self.trace_dir is None:
                cmd = [sys.executable, "-m", "leibnizalg.cli", "gen", *args]
            else:
                out = os.path.join(self.trace_dir,
                                   f"gen-{len(self._gen_cache)}.trace.json")
                cmd = [sys.executable, os.path.join(HERE, "child.py"),
                       "--trace", out, "cli", "gen", *args]
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  check=True, timeout=120)
            self._gen_cache[args] = done.stdout
        return self._gen_cache[args]

    def ladder(self, m: int, variant: str) -> Representation:
        text = self.gen("sl2-irrep", "--m", str(m), "--variant", variant)
        return fileio.parse_rep(text)

    def ladder_sum(self, ms, variant: str) -> Representation:
        rep = self.ladder(ms[0], variant)
        for m in ms[1:]:
            rep = direct_sum(rep, self.ladder(m, variant))
        return rep

    def write(self, name: str, text: str) -> str:
        with open(os.path.join(self.out, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        return "@" + name

    def job(self, job_id: str, argv: list, expect: dict, kind: str = "cli") -> None:
        self.jobs.append({"id": job_id, "kind": kind, "argv": argv,
                          "expect": expect})

    # -- seeded changes of basis --

    def random_signs(self, d: int) -> Matrix:
        """Diagonal change of basis b_i -> +-b_i.

        Every entry keeps its size and position, so the program does the
        same work on every seed; only the signs differ.
        """
        return Matrix([[self.rng.choice((1, -1)) if i == j else 0 for j in range(d)]
                       for i in range(d)])

    def dense_basis(self, d: int) -> Matrix:
        """Invertible integer matrix with entries in [-2, 2], columns signed.

        The matrix comes from a fixed stream and the seed picks the column
        signs. Sign changes kept every verdict, "undetermined" included, in
        every case tried (bench/README.md), so the set of undetermined jobs,
        and with it decided_frac, is the same on every seed.
        """
        while True:
            p = Matrix([[self.dense_rng.randint(-2, 2) for _ in range(d)]
                        for _ in range(d)])
            if p.is_invertible():
                return p * self.random_signs(d)


def change_algebra_basis(alg: LeibnizAlgebra, q: Matrix) -> LeibnizAlgebra:
    """Structure constants in the basis given by the columns of q."""
    qi = q.inverse()
    cols = [q.col(i) for i in range(alg.dim)]
    table = [[qi.apply(alg.bracket(a, b)) for b in cols] for a in cols]
    return LeibnizAlgebra(alg.basis_names, table, name=alg.name)


def change_rep_basis(rep: Representation, q: Matrix | None, p: Matrix) -> Representation:
    """Module basis changed by p; algebra basis changed by q when given."""
    pi = p.inverse()
    alg = rep.algebra
    right, left = list(rep.right), list(rep.left)
    if q is not None:
        alg = change_algebra_basis(alg, q)
        right = [rep.rho_of(q.col(i)) for i in range(alg.dim)]
        left = [rep.lambda_of(q.col(i)) for i in range(alg.dim)]
    return Representation(alg, [pi * m * p for m in right],
                          [pi * m * p for m in left], name=rep.name)


# -- workloads --
# Sizes keep one pass over a job list at a few seconds on one core, so a
# run holds several passes.

def extension(b: Inputs) -> None:
    """Algebra layer and the sl2 forcing solver on the extension family."""
    for n in (5, 7, 10):
        text = b.gen("simple-ext", "--n", str(n))
        canonical = b.write(f"ext{n}.alg.json", text)
        signed = b.write(f"ext{n}-signed.alg.json", fileio.serialize_algebra(
            change_algebra_basis(fileio.parse_algebra(text), b.random_signs(n))))
        b.job(f"simple-ext{n}", ["simple", signed, "--json"],
              {"check": "simple", "verdicts": ["yes"]})
        b.job(f"radical-ext{n}", ["radical", signed, "--json"],
              {"check": "radical", "radical_dim": n - 3})
        b.job(f"levi-ext{n}", ["levi", signed, "--json"],
              {"check": "levi", "levi_dim": 3})
        b.job(f"derivations-ext{n}", ["derivations", signed, "--json"],
              {"check": "derivations", "inner_dim": 3})
        b.job(f"classify-ext{n}-m3", ["rep", "classify", canonical, "--m", "3", "--json"],
              {"check": "classify", "n": n, "m": 3})
    for n, m in ((6, 2), (9, 3), (12, 4)):
        b.job(f"solve-ext{n}-m{m}", ["extension_rep_solve", str(n), str(m)],
              {"check": "solve", "n": n}, kind="lib")


def irreducible(b: Inputs) -> None:
    """Envelope closure on ladders; the "no" path on sums of ladders."""
    for m in (5, 10, 16):
        for variant in (ZERO_L, ANTI):
            rep = b.ladder(m, variant)
            rep = change_rep_basis(rep, None, b.random_signs(m + 1))
            name = b.write(f"ladder{m}-{variant}.rep.json", fileio.serialize_rep(rep))
            b.job(f"irreducible-ladder{m}-{variant}", ["rep", "irreducible", name, "--json"],
                  {"check": "irreducible", "verdicts": ["abs_irreducible"],
                   "dim": m + 1})
    # summands reuse the ladder files above, so set-up makes no extra gen calls
    for ms, variant in (((5, 5), ANTI), ((5, 10), ZERO_L)):
        rep = b.ladder_sum(ms, variant)
        rep = change_rep_basis(rep, None, b.random_signs(rep.space_dim))
        tag = "+".join(map(str, ms))
        name = b.write(f"sum{tag}-{variant}.rep.json", fileio.serialize_rep(rep))
        b.job(f"irreducible-sum{tag}-{variant}", ["rep", "irreducible", name, "--json"],
              {"check": "irreducible", "verdicts": ["reducible"],
               "dim": rep.space_dim})


def decompose(b: Inputs) -> None:
    """Commutant eliminations on sums with repeated summands."""
    for ms, variant in (((2, 3, 4, 4), ZERO_L), ((2, 3, 4), ZERO_L),
                        ((1, 1), ANTI), ((2, 2), ANTI), ((0, 3), ZERO_L)):
        rep = b.ladder_sum(ms, variant)
        rep = change_rep_basis(rep, None, b.random_signs(rep.space_dim))
        tag = "+".join(map(str, ms))
        name = b.write(f"sum{tag}-{variant}.rep.json", fileio.serialize_rep(rep))
        b.job(f"decompose-sum{tag}-{variant}", ["rep", "decompose", name, "--json"],
              {"check": "decompose", "verdicts": ["decomposed"],
               "dims": sorted((m + 1 for m in ms), reverse=True)})
    for top in (ZERO_L, ANTI):
        for bottom in (ZERO_L, ANTI):
            rep = fileio.parse_rep(b.gen("example-5-5", "--top", top, "--bottom", bottom))
            rep = change_rep_basis(rep, None, b.random_signs(5))
            name = b.write(f"e55-{top}-{bottom}.rep.json", fileio.serialize_rep(rep))
            b.job(f"decompose-e55-{top}-{bottom}", ["rep", "decompose", name, "--json"],
                  {"check": "decompose", "verdicts": ["decomposed"], "dims": [3, 2]})
    name = b.write("e53-adjoint.rep.json", b.gen("example-5-3", "--adjoint"))
    b.job("decompose-e53-adjoint", ["rep", "decompose", name, "--json"],
          {"check": "decompose", "verdicts": ["indecomposable"], "dims": [5],
           "kernel_acts_trivially": False})


def dense(b: Inputs) -> None:
    """The same questions after a dense integer change of basis.

    Verdicts must match the canonical basis or be "undetermined"; the
    undetermined ones (UNDETERMINED_BASES) are a known weakness and stay in
    on purpose.
    """
    for k, n in enumerate((5, 5, 5, 5)):
        alg = fileio.parse_algebra(b.gen("simple-ext", "--n", str(n)))
        alg = change_algebra_basis(alg, b.dense_basis(n))
        name = b.write(f"ext{n}-dense{k}.alg.json", fileio.serialize_algebra(alg))
        b.job(f"simple-ext{n}-dense{k}", ["simple", name, "--json"],
              {"check": "simple", "verdicts": ["yes", "undetermined"]})
    for k, (ms, variant, question) in enumerate((
            ((3,), ZERO_L, "irreducible"), ((4,), ANTI, "irreducible"),
            ((5,), ZERO_L, "irreducible"), ((1, 2), ZERO_L, "irreducible"),
            ((2, 2), ANTI, "irreducible"),
            ((1, 1), ZERO_L, "decompose"), ((1, 1), ANTI, "decompose"),
            ((1, 1), ZERO_L, "decompose"), ((1, 2), ANTI, "decompose"))):
        rep = b.ladder_sum(ms, variant)
        rep = change_rep_basis(rep, b.dense_basis(3),
                               b.dense_basis(rep.space_dim))
        tag = "+".join(map(str, ms))
        name = b.write(f"dense{k}-{tag}-{variant}-{question}.rep.json",
                       fileio.serialize_rep(rep))
        if question == "decompose":
            expect = {"check": "decompose", "verdicts": ["decomposed", "undetermined"],
                      "dims": sorted((m + 1 for m in ms), reverse=True)}
        else:
            verdict = "abs_irreducible" if len(ms) == 1 else "reducible"
            expect = {"check": "irreducible", "verdicts": [verdict, "undetermined"],
                      "dim": rep.space_dim}
        b.job(f"{question}-dense{k}-{tag}-{variant}", ["rep", question, name, "--json"],
              expect)
    rep = fileio.parse_rep(b.gen("example-5-5", "--top", ANTI, "--bottom", ZERO_L))
    rep = change_rep_basis(rep, b.dense_basis(3), b.dense_basis(5))
    name = b.write("e55-dense.rep.json", fileio.serialize_rep(rep))
    b.job("decompose-e55-dense", ["rep", "decompose", name, "--json"],
          {"check": "decompose", "verdicts": ["decomposed", "undetermined"],
           "dims": [3, 2]})
    for variant, q, p in UNDETERMINED_BASES:
        rep = change_rep_basis(b.ladder_sum((1, 1), variant),
                               Matrix(q) * b.random_signs(3),
                               Matrix(p) * b.random_signs(4))
        name = b.write(f"undetermined-1+1-{variant}.rep.json", fileio.serialize_rep(rep))
        b.job(f"decompose-undetermined-1+1-{variant}", ["rep", "decompose", name, "--json"],
              {"check": "decompose", "verdicts": ["decomposed", "undetermined"],
               "dims": [2, 2]})


WORKLOADS = {"extension": extension, "irreducible": irreducible,
             "decompose": decompose, "dense": dense}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", help="directory for span totals")
    args = ap.parse_args()
    tracer = None
    if args.trace:
        sys.path.insert(0, HERE)
        import child
        tracer = child.Tracer()
        child._install(tracer)
    os.makedirs(args.out, exist_ok=True)
    inputs = Inputs(args.out, args.seed, args.trace)
    WORKLOADS[args.workload](inputs)
    with open(os.path.join(args.out, "jobs.json"), "w", encoding="utf-8") as fh:
        json.dump(inputs.jobs, fh, indent=1)
    if tracer is not None:
        with open(os.path.join(args.trace, "setup.trace.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    main()
