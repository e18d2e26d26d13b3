"""One benchmark job in a fresh interpreter: library calls and the tracer.

    python bench/child.py [--trace OUT] cli ARGV...
    python bench/child.py [--trace OUT] lib extension_rep_solve N M

`cli` runs `leibnizalg.cli.run_command(ARGV)` and exits with its code, as
`python -m leibnizalg.cli ARGV...` does. `lib` calls a library function that
has no subcommand and prints its result as one JSON object.

With `--trace OUT` this script times the package import, then replaces the
layer entry points listed in `_install` by wrappers that record spans, and
writes per-layer totals to OUT as JSON when the job ends. A span is
(name, start, end, parent); its self time is its duration minus the time
covered by its child spans. Spans close in stack order, so each one is
folded into the totals of its name when it closes, and memory stays
proportional to the call depth rather than to the (up to millions of)
spans a job records.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

perf = time.perf_counter
LAYERS = ("algebra", "cli", "decompose", "fileio", "linalg", "reps", "sl2")


class Tracer:
    """Span stack and per-name totals for one job."""

    def __init__(self):
        self.stack: list[list] = []  # [name, start, child_time]
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}  # work counters, e.g. elim cells
        self.errors: dict[str, int] = {}  # per layer
        self.max_bits = 0

    def open(self, name: str) -> None:
        self.stack.append([name, perf(), 0.0])

    def close(self, failed: bool = False) -> None:
        name, start, child = self.stack.pop()
        dur = perf() - start
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        self.calls[name] = self.calls.get(name, 0) + 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        layer = name.split(".", 1)[0]
        # count an exception once, where it leaves its layer
        if failed and (parent is None or parent[0].split(".", 1)[0] != layer):
            self.errors[layer] = self.errors.get(layer, 0) + 1

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def span(self, name: str, fn, before=None, after=None):
        """Wrap fn in a span; `before(args)` and `after(result)` count work."""
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(failed=True)
                raise
            tracer.close()
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self) -> dict:
        return {"self_s": self.self_s, "calls": self.calls,
                "counts": self.counts, "errors": self.errors,
                "max_bits": self.max_bits}


def _bits(x) -> int:
    if isinstance(x, int):
        return x.bit_length()
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _rebind(package_modules, original, replacement) -> None:
    """Replace every module-level name bound to `original`.

    The package imports functions by name (`from .linalg import nullspace`),
    so patching the defining module alone would miss the copies.
    """
    for module in package_modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _install(tracer: Tracer) -> None:
    import leibnizalg.cli  # noqa: F401  (imports every layer)

    modules = [m for name, m in sys.modules.items()
               if name == "leibnizalg" or name.startswith("leibnizalg.")]
    # via sys.modules: the package attribute `leibnizalg.decompose` is the function
    algebra, cli, decompose, fileio, linalg, reps, sl2 = (
        sys.modules[f"leibnizalg.{name}"] for name in LAYERS)
    Matrix, Subspace, Echelon = linalg.Matrix, linalg.Subspace, linalg.Echelon

    def function(module, attr, name, before=None, after=None):
        original = getattr(module, attr)
        _rebind(modules, original, tracer.span(name, original, before, after))

    def method(cls, attr, name, before=None, after=None):
        setattr(cls, attr, tracer.span(name, getattr(cls, attr), before, after))

    # -- elimination: count requests from outside the elimination entry
    # points, with the shape, density and entry size of the input
    def elim_rows(rows, cols: int) -> None:
        if tracer.inside("linalg.elim"):
            return
        tracer.add("elim.calls", 1)
        nnz = 0
        bits = tracer.max_bits
        for row in rows:
            for x in row:
                if x != 0:
                    nnz += 1
                    b = _bits(x)
                    if b > bits:
                        bits = b
        tracer.max_bits = bits
        tracer.add("elim.cells", len(rows) * cols)
        tracer.add("elim.nnz", nnz)

    def matrix_arg(args):
        elim_rows(args[0].data, args[0].cols)
        return args

    def from_vectors_args(args):
        n, vectors = args
        vectors = list(vectors)  # may be a one-shot iterable
        elim_rows(vectors, n)
        return (n, vectors)

    for attr in ("rref", "nullspace", "solve"):
        function(linalg, attr, "linalg.elim", before=matrix_arg)
    Subspace.from_vectors = staticmethod(tracer.span(
        "linalg.elim", Subspace.from_vectors, before=from_vectors_args))
    method(Matrix, "rank", "linalg.elim", before=matrix_arg)
    method(Matrix, "inverse", "linalg.elim", before=matrix_arg)

    # -- span closure and products
    method(Echelon, "insert", "linalg.echelon",
           after=lambda grew: tracer.add("echelon.grew", int(grew)))
    function(linalg, "envelope_dimension", "linalg.envelope")
    matmul = tracer.span("linalg.matmul", Matrix.__mul__)
    scalar_mul = Matrix.__mul__

    def mul(self, other):
        if isinstance(other, Matrix):
            return matmul(self, other)
        return scalar_mul(self, other)

    Matrix.__mul__ = mul
    function(linalg, "matrix_commutant", "linalg.commutant")
    function(linalg, "minimal_polynomial", "linalg.minpoly")
    function(linalg, "char_poly", "linalg.charpoly")

    # -- the layers above linalg
    def parse_bytes(args):
        tracer.add("parse.bytes", len(args[0]))
        return args

    function(fileio, "parse_algebra", "fileio.parse", before=parse_bytes)
    function(fileio, "parse_rep", "fileio.parse", before=parse_bytes)
    function(fileio, "serialize_algebra", "fileio.serialize")
    function(fileio, "serialize_rep", "fileio.serialize")
    method(algebra.LeibnizAlgebra, "__init__", "algebra.init")
    method(algebra.LeibnizAlgebra, "bracket", "algebra.bracket")
    method(algebra.LeibnizAlgebra, "ideal_closure", "algebra.ideal_closure")
    method(reps.Representation, "__init__", "reps.init")
    function(reps, "spin_submodule", "reps.spin_submodule")
    function(reps, "module_restriction", "reps.module_restriction")
    function(sl2, "extension_rep_solve", "sl2.extension_rep_solve")
    function(decompose, "decompose", "decompose.decompose")
    function(decompose, "commutant", "decompose.commutant")
    function(cli, "run_command", "cli.run_command")


def _frac_rows(m) -> list:
    return [[f"{x.numerator}/{x.denominator}" for x in row] for row in m.data]


def _extension_rep_solve(n: str, m: str) -> dict:
    from leibnizalg.sl2 import extension_rep_solve

    sol = extension_rep_solve(int(n), int(m))
    forced = None
    if sol.forced_rho_I is not None:
        forced = [_frac_rows(x) for x in sol.forced_rho_I + sol.forced_lambda_I]
    return {
        "free_parameters": sol.free_parameters,
        "used_quadratic_stage": sol.used_quadratic_stage,
        "obstruction": sol.obstruction,
        "forced": forced,
        "lambda_sl2_coefficients": [str(c) for c in sol.lambda_sl2_coefficients],
    }


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace"]:
        trace_out, argv = argv[1], argv[2:]
    kind, rest = argv[0], argv[1:]
    tracer = None
    start = perf()
    import leibnizalg.cli
    import_s = perf() - start
    if trace_out is not None:
        tracer = Tracer()
        _install(tracer)
    try:
        if kind == "cli":
            code = leibnizalg.cli.run_command(rest)
            if code != 0 and tracer is not None:
                # run_command turns exceptions into exit codes
                tracer.errors["cli"] = tracer.errors.get("cli", 0) + 1
        elif kind == "lib" and rest[0] == "extension_rep_solve":
            fn = _extension_rep_solve
            if tracer is not None:
                fn = tracer.span("cli.run_command", fn)
            print(json.dumps(fn(*rest[1:]), sort_keys=True))
            code = 0
        else:
            raise SystemExit(f"unknown job {argv!r}")
    finally:
        if tracer is not None:
            record = tracer.summary()
            record["import_s"] = import_s
            with open(trace_out, "w", encoding="utf-8") as fh:
                json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
