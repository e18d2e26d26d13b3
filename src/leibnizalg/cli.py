"""Command-line interface.

Structural reports go to standard output, deterministically (sorted keys,
no timestamps); diagnostics go to standard error. Exit codes: 0 when a
verdict was computed (including "no" and "undetermined"), 1 on input
errors, 2 when an internal consistency check failed.

Each subcommand is a row of `_COMMANDS`, and `_build_parser(argv)` adds only
the path that argv names; where argv names none, it adds all of them below,
so help and usage errors read as from the whole tree. The handlers that
need `sl2` or `decompose` import them when they run, so a job compiles only
the layers its subcommand uses (see the package docstring).
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import InternalCheckError, LeibnizAlgebra
from .fileio import (
    MAX_DIM, ParseError, _matrix_to_rows, parse_algebra, parse_rep, serialize_algebra,
    serialize_rep, rep_to_object,
)
from .linalg import Subspace
from .reps import _VARIANTS, Representation, equivalence, irreducibility, restrict


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 for bad usage, not argparse's 2
        raise _UsageError(f"{self.prog}: {message}")


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_algebra(path: str) -> LeibnizAlgebra:
    return parse_algebra(_read_source(path))


def _load_rep(path: str) -> Representation:
    import os
    base = "." if path == "-" else (os.path.dirname(path) or ".")
    return parse_rep(_read_source(path), base_dir=base)


def _check_dim(flag: str, dim: int) -> None:
    if dim > MAX_DIM:
        raise ParseError(f"{flag}: dimension {dim} is above {MAX_DIM}")


# -- report handlers; each returns a JSON-ready dict --

def _cmd_check(args):
    alg = _load_algebra(args.file)
    report = {"name": alg.name, "dim": alg.dim, "leibniz": alg.is_valid}
    if alg.is_valid:
        report["lie"] = alg.is_lie()
        report["kernel_dim"] = alg.leibniz_kernel().dim
    else:
        names = alg.basis_names
        report["violation_count"] = len(alg.leibniz_violations)
        report["violations"] = [
            [names[i], names[j], names[k]]
            for (i, j, k) in alg.leibniz_violations[:10]]
    return report


def _cmd_kernel(args):
    kern = _load_algebra(args.file).leibniz_kernel()
    return {"kernel_dim": kern.dim, "basis": _matrix_to_rows(kern.basis)}


def _cmd_series(args):
    alg = _load_algebra(args.file)
    lower = alg.lower_central_series()
    derived = alg.derived_series()
    return {
        "lower_central_dims": [t.dim for t in lower.terms],
        "lower_central_stabilized": lower.stabilized,
        "derived_dims": [t.dim for t in derived.terms],
        "derived_stabilized": derived.stabilized,
        "solvable": derived.terminal.is_zero(),
        "nilpotent": lower.terminal.is_zero(),
    }


def _cmd_radical(args):
    alg = _load_algebra(args.file)
    rad = alg.radical()
    return {
        "radical_dim": rad.dim,
        "basis": _matrix_to_rows(rad.basis),
        "equals_kernel": alg.is_semisimple(),
    }


def _cmd_semisimple(args):
    alg = _load_algebra(args.file)
    rad, kernel = alg.radical(), alg.leibniz_kernel()
    return {
        "semisimple": rad == kernel,
        "radical_dim": rad.dim,
        "kernel_dim": kernel.dim,
    }


def _cmd_simple(args):
    verdict = _load_algebra(args.file).is_simple()
    report = {"verdict": verdict.value}
    if verdict.reason:
        report["reason"] = verdict.reason
    if verdict.witness is not None:
        report["witness_dim"] = verdict.witness.dim
    return report


def _cmd_derivations(args):
    alg = _load_algebra(args.file)
    der, inner = alg.derivations(), alg.inner_derivations()
    return {"derivation_dim": der.dim, "inner_dim": inner.dim,
            "inner_is_ideal": der.contains_subspace(inner)}


def _cmd_levi(args):
    levi = _load_algebra(args.file).levi_subalgebra()
    return {"levi_dim": levi.dim, "basis": _matrix_to_rows(levi.basis)}


def _cmd_rep_check(args):
    rep = _load_rep(args.file)
    report = {"valid": rep.is_valid, "module_dim": rep.space_dim}
    if not rep.is_valid:
        names = rep.algebra.basis_names
        report["violation_count"] = len(rep.axiom_violations)
        report["violations"] = [
            {"axiom": a, "left": names[i], "right": names[j]}
            for (a, i, j) in rep.axiom_violations[:10]]
    return report


def _cmd_rep_irreducible(args):
    verdict = irreducibility(_load_rep(args.file))
    report = {"verdict": verdict.value}
    if verdict.detail:
        report["detail"] = verdict.detail
    if verdict.witness is not None:
        report["witness_dim"] = verdict.witness.dim
    return report


def _cmd_rep_classify(args):
    from .sl2 import (
        _ladder_variants, classify_extension_irreps, simple_ext_algebra, sl2_algebra,
        sl2_leibniz_irrep,
    )

    m = args.m
    _check_dim("--m", m + 1)
    alg = _load_algebra(args.file)
    if m < 0:
        raise ParseError("--m must be nonnegative")
    variants = _ladder_variants(m)
    if alg.same_table(sl2_algebra()):
        family, reps = "sl2", [sl2_leibniz_irrep(m, v) for v in variants]
    elif alg.dim >= 5 and alg.same_table(simple_ext_algebra(alg.dim)):
        family, reps = "simple_ext", classify_extension_irreps(alg.dim, m)
    else:
        raise ParseError(
            "classification covers the (e, f, h) table and its simple extensions only")
    out = []
    for variant, rep in zip(variants, reps):
        obj = rep_to_object(rep)
        del obj["algebra"]
        obj["variant"] = variant
        out.append(obj)
    return {"family": family, "n": alg.dim, "m": m,
            "module_dim": m + 1, "reps": out}


def _cmd_rep_equivalent(args):
    a = _load_rep(args.file_a)
    b = _load_rep(args.file_b)
    verdict = equivalence(a, b)
    report = {"verdict": verdict.value}
    if verdict.detail:
        report["detail"] = verdict.detail
    if verdict.certificate is not None:
        report["certificate"] = _matrix_to_rows(verdict.certificate)
    return report


def _cmd_rep_decompose(args):
    from .decompose import complete_reducibility_necessary, decompose

    rep = _load_rep(args.file)
    necessary = complete_reducibility_necessary(rep)
    result = decompose(rep)
    report = {
        "verdict": result.verdict,
        "kernel_acts_trivially": necessary.ok,
        "component_dims": [c.dim for c in result.components],
        "components": [_matrix_to_rows(c.basis) for c in result.components],
    }
    if result.obstruction:
        report["obstruction"] = result.obstruction
    return report


# -- data handlers; each returns file-format text --

def _cmd_rep_restrict(args):
    rep = _load_rep(args.file)
    labels = [x.strip() for x in args.span.split(",") if x.strip()]
    if not labels:
        raise ParseError("--span: expected a comma-separated list of labels")
    names = rep.algebra.basis_names
    pos = {b: i for i, b in enumerate(names)}
    unknown = [x for x in labels if x not in pos]
    if unknown:
        raise ParseError(f"--span: unknown label {unknown[0]!r}")
    n = rep.algebra.dim
    units = []
    for x in labels:
        units.append(tuple(1 if j == pos[x] else 0 for j in range(n)))
    span = Subspace.from_vectors(n, units)
    return serialize_rep(restrict(rep, span))


def _cmd_gen_sl2_irrep(args):
    from .sl2 import sl2_leibniz_irrep

    _check_dim("--m", args.m + 1)
    return serialize_rep(sl2_leibniz_irrep(args.m, args.variant))


def _cmd_gen_simple_ext(args):
    from .sl2 import simple_ext_algebra

    _check_dim("--n", args.n)
    return serialize_algebra(simple_ext_algebra(args.n))


def _cmd_gen_example_5_3(args):
    from .decompose import example_5_3

    alg, rep = example_5_3()
    if args.adjoint:
        return serialize_rep(rep)
    return serialize_algebra(alg)


def _cmd_gen_example_5_5(args):
    from .decompose import example_5_5

    return serialize_rep(example_5_5(args.top, args.bottom))


_DESCRIPTION = "\n\n".join(__doc__.split("\n\n")[:2])  # the top-level help


def _arg(*flags, **kwargs):
    return flags, kwargs


_JSON = _arg("--json", action="store_true")
_FILE_JSON = (_arg("file"), _JSON)
_ALG = (_arg("file", help="algebra file, or - for standard input"),
        _arg("--json", action="store_true", help="structured output"))

# path -> (handler, kind, help, arguments); a group has no handler, and its
# subcommands are the paths one word longer, in table order
_COMMANDS = {
    "check": (_cmd_check, "report", "bracket identity, Lie flag, kernel size", _ALG),
    "kernel": (_cmd_kernel, "report", "kernel dimension and basis", _ALG),
    "series": (_cmd_series, "report", "lower central and derived series", _ALG),
    "radical": (_cmd_radical, "report", "maximal solvable ideal", _ALG),
    "semisimple": (_cmd_semisimple, "report", "radical equals kernel?", _ALG),
    "simple": (_cmd_simple, "report", "simplicity verdict", _ALG),
    "derivations": (_cmd_derivations, "report", "derivation algebra dimensions", _ALG),
    "levi": (_cmd_levi, "report", "Levi complement of a semisimple algebra", _ALG),
    "rep": (None, None, "representation commands", ()),
    "rep check": (_cmd_rep_check, "report", "axiom report",
                  (_arg("file", help="representation file, or -"), _JSON)),
    "rep irreducible": (_cmd_rep_irreducible, "report", "irreducibility verdict", _FILE_JSON),
    "rep classify": (_cmd_rep_classify, "report", "irreducible reps of a catalog algebra",
                     (_arg("file", help="algebra file, or -"), _arg(
                         "--m", type=int, required=True, help="ladder size parameter"), _JSON)),
    "rep equivalent": (_cmd_rep_equivalent, "report", "equivalence of two representations",
                       (_arg("file_a"), _arg("file_b"), _JSON)),
    "rep decompose": (_cmd_rep_decompose, "report", "invariant direct-sum splitting", _FILE_JSON),
    "rep restrict": (_cmd_rep_restrict, "data", "restrict to a spanned subalgebra", (_arg(
        "file"), _arg("--span", required=True, help="comma-separated basis labels, e.g. e,f,h"))),
    "gen": (None, None, "emit catalog objects as files", ()),
    "gen sl2-irrep": (_cmd_gen_sl2_irrep, "data", "ladder representation file", (
        _arg("--m", type=int, required=True),
        _arg("--variant", choices=_VARIANTS, default="zero_lambda"))),
    "gen simple-ext": (_cmd_gen_simple_ext, "data", "simple extension algebra file",
                       (_arg("--n", type=int, required=True),)),
    "gen example-5-3": (_cmd_gen_example_5_3, "data", "benchmark simple algebra", (_arg(
        "--adjoint", action="store_true", help="emit its adjoint representation instead"),)),
    "gen example-5-5": (_cmd_gen_example_5_5, "data", "benchmark split module", (
        _arg("--top", choices=_VARIANTS, default="zero_lambda"),
        _arg("--bottom", choices=_VARIANTS, default="zero_lambda"))),
}


def _build_parser(argv=None) -> _Parser:
    """The parser for argv, built only along the path it names (all of it
    for argv None)."""
    parser = _Parser(prog="leibnizalg", description=_DESCRIPTION)
    _add_subcommands(parser, "", argv)
    return parser


def _add_subcommands(parser: _Parser, path: str, argv) -> None:
    # only a first word picks the subcommand: after a leading option argparse
    # may still dispatch, so every subcommand then comes with its arguments
    prefix = path + " " if path else ""
    sub = parser.add_subparsers(dest=prefix.replace(" ", "_") + "command", required=True)
    names = [key[len(prefix):] for key in _COMMANDS if key.rpartition(" ")[0] == path]
    names, argv = (argv[:1], argv[1:]) if argv and argv[0] in names else (names, None)
    for name in names:
        handler, kind, help_text, arguments = _COMMANDS[prefix + name]
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        if handler is None:
            _add_subcommands(p, prefix + name, argv)
        else:
            p.set_defaults(handler=handler, kind=kind)


def _human_lines(obj, indent=0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for key in sorted(obj):
            value = obj[key]
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_human_lines(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {json.dumps(value)}")
    elif isinstance(obj, list):
        if all(not isinstance(x, (dict, list)) for x in obj):
            lines.append(pad + "[" + ", ".join(json.dumps(x) for x in obj) + "]")
        else:
            for x in obj:
                lines.extend(_human_lines(x, indent))
    else:
        lines.append(pad + json.dumps(obj))
    return lines


def run_command(argv) -> int:
    try:
        args = _build_parser(argv).parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    try:
        out = args.handler(args)
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 2
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.kind == "data":
        sys.stdout.write(out)
    elif getattr(args, "json", False):
        sys.stdout.write(json.dumps(out, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write("\n".join(_human_lines(out)) + "\n")
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
