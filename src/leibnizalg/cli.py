"""Command-line interface.

Structural reports go to standard output, deterministically (sorted keys,
no timestamps); diagnostics go to standard error. Exit codes: 0 when a
verdict was computed (including "no" and "undetermined"), 1 on input
errors, 2 when an internal consistency check failed.

Each subcommand is a row of `_COMMANDS`. `_parse(argv)` reads a plain
command line straight off the table: the words of one path, then each
positional once and each option by its exact name at most once. Any other
argv, help and usage errors among them, goes to argparse: `_build_parser()`
adds every row of the table, in table order. So a valid command line
imports neither argparse nor gettext, while argparse stays the only source
of help and usage text. A handler returns file text, written as it is, or a
report dict, written as JSON under `--json` and as indented text without.
A handler only reads its arguments and formats what a library layer
decided, a verdict record through `_verdict_report`. The arguments of a row
are a zero-argument callable, called when its subcommand is read, so the
`--variant` choices read `reps._VARIANTS` only then. `reps` and
`irreducible` are bound with `from . import`, which does not load them, and
the handlers import `sl2`, `decompose` and `modules` when they run, so a job
compiles only the layers its subcommand uses (see the package docstring).
"""

from __future__ import annotations

import json
import sys
import types

from . import irreducible, reps
from .algebra import InternalCheckError, LeibnizAlgebra
from .fileio import (
    MAX_DIM, ParseError, _matrix_to_rows, parse_algebra, parse_rep, serialize_algebra,
    serialize_rep, rep_to_object,
)
from .linalg import Subspace


class _UsageError(Exception):
    pass


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_algebra(path: str) -> LeibnizAlgebra:
    return parse_algebra(_read_source(path))


def _load_rep(path: str) -> reps.Representation:
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
    return {"semisimple": alg.is_semisimple(), "radical_dim": alg.radical().dim,
            "kernel_dim": alg.leibniz_kernel().dim}


def _cmd_simple(args):
    return _verdict_report(_load_algebra(args.file).is_simple())


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
    return _verdict_report(irreducible.irreducibility(_load_rep(args.file)))


def _cmd_rep_classify(args):
    from .sl2 import catalogue_irreps

    m = args.m
    _check_dim("--m", m + 1)
    alg = _load_algebra(args.file)
    if m < 0:
        raise ParseError("--m must be nonnegative")
    family, modules = catalogue_irreps(alg, m)
    out = []
    for variant, rep in modules:
        obj = rep_to_object(rep)
        del obj["algebra"]
        out.append(dict(obj, variant=variant))
    return {"family": family, "n": alg.dim, "m": m, "module_dim": m + 1, "reps": out}


def _cmd_rep_equivalent(args):
    from .modules import equivalence

    return _verdict_report(equivalence(_load_rep(args.file_a), _load_rep(args.file_b)))


def _cmd_rep_decompose(args):
    from .decompose import KERNEL_OBSTRUCTION, decompose

    result = decompose(_load_rep(args.file))
    report = {
        "verdict": result.verdict,
        "kernel_acts_trivially": result.obstruction != KERNEL_OBSTRUCTION,
        "component_dims": [c.dim for c in result.components],
        "components": [_matrix_to_rows(c.basis) for c in result.components],
    }
    if result.obstruction:
        report["obstruction"] = result.obstruction
    return report


def _verdict_report(verdict) -> dict:
    """The report of a verdict record: its value, its reason or detail when
    not empty, the dimension of its witness and the rows of its certificate."""
    report = {"verdict": verdict.value}
    for key, x in verdict._asdict().items():
        if key in ("reason", "detail") and x:
            report[key] = x
        elif key == "witness" and x is not None:
            report["witness_dim"] = x.dim
        elif key == "certificate" and x is not None:
            report[key] = _matrix_to_rows(x)
    return report


# -- data handlers; each returns file-format text --

def _cmd_rep_restrict(args):
    from .modules import restrict

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
    from .modules import example_5_3

    alg, rep = example_5_3()
    if args.adjoint:
        return serialize_rep(rep)
    return serialize_algebra(alg)


def _cmd_gen_example_5_5(args):
    from .modules import example_5_5

    return serialize_rep(example_5_5(args.top, args.bottom))


_DESCRIPTION = "\n\n".join(__doc__.split("\n\n")[:2])  # the top-level help


def _arg(*flags, **kwargs):
    return flags, kwargs


def _variants(*flags):
    return tuple(_arg(flag, choices=reps._VARIANTS, default="zero_lambda") for flag in flags)


_JSON = _arg("--json", action="store_true")


def _alg():
    return (_arg("file", help="algebra file, or - for standard input"),
            _arg("--json", action="store_true", help="structured output"))


def _file_json():
    return _arg("file"), _JSON


# path -> (handler, help, arguments); a handler returns file text, or a
# report dict on exactly the rows with --json. arguments is a zero-argument
# callable giving the (flag, kwargs) pairs, called when the row is read, with
# one flag each and no keywords but action="store_true", type, choices,
# required, default and help, the ones `_parse` knows. A group has no
# handler and no arguments, and its subcommands are the paths one word
# longer, in table order
_COMMANDS = {
    "check": (_cmd_check, "bracket identity, Lie flag, kernel size", _alg),
    "kernel": (_cmd_kernel, "kernel dimension and basis", _alg),
    "series": (_cmd_series, "lower central and derived series", _alg),
    "radical": (_cmd_radical, "maximal solvable ideal", _alg),
    "semisimple": (_cmd_semisimple, "radical equals kernel?", _alg),
    "simple": (_cmd_simple, "simplicity verdict", _alg),
    "derivations": (_cmd_derivations, "derivation algebra dimensions", _alg),
    "levi": (_cmd_levi, "Levi complement of a semisimple algebra", _alg),
    "rep": (None, "representation commands", tuple),
    "rep check": (_cmd_rep_check, "axiom report",
                  lambda: (_arg("file", help="representation file, or -"), _JSON)),
    "rep irreducible": (_cmd_rep_irreducible, "irreducibility verdict", _file_json),
    "rep classify": (_cmd_rep_classify, "irreducible reps of a catalog algebra",
                     lambda: (_arg("file", help="algebra file, or -"), _arg(
                         "--m", type=int, required=True, help="ladder size parameter"), _JSON)),
    "rep equivalent": (_cmd_rep_equivalent, "equivalence of two representations",
                       lambda: (_arg("file_a"), _arg("file_b"), _JSON)),
    "rep decompose": (_cmd_rep_decompose, "invariant direct-sum splitting", _file_json),
    "rep restrict": (_cmd_rep_restrict, "restrict to a spanned subalgebra", lambda: (
        _arg("file"),
        _arg("--span", required=True, help="comma-separated basis labels, e.g. e,f,h"))),
    "gen": (None, "emit catalog objects as files", tuple),
    "gen sl2-irrep": (_cmd_gen_sl2_irrep, "ladder representation file", lambda: (
        _arg("--m", type=int, required=True), *_variants("--variant"))),
    "gen simple-ext": (_cmd_gen_simple_ext, "simple extension algebra file",
                       lambda: (_arg("--n", type=int, required=True),)),
    "gen example-5-3": (_cmd_gen_example_5_3, "benchmark simple algebra", lambda: (
        _arg("--adjoint", action="store_true", help="emit its adjoint representation instead"),)),
    "gen example-5-5": (_cmd_gen_example_5_5, "benchmark split module",
                        lambda: _variants("--top", "--bottom")),
}


def _parse(argv):
    """The namespace argparse gives for a plain command line, else None.

    A plain command line is the words of one path of `_COMMANDS`, then each
    positional of its leaf once and each option by its exact name at most
    once, as `--flag` or `--opt value`, in any order, with no value that
    starts with `-` but `-` itself; the values must pass the row's type and
    choices, and every positional and required option must be there. None
    for anything else (`-h`, abbreviations, `--opt=value`, repeats, `--`),
    which goes to argparse.
    """
    words, args, prefix, handler = list(argv or ()), {}, "", None
    while handler is None:  # down the groups to a leaf
        word = words.pop(0) if words else ""
        if " " in word or prefix + word not in _COMMANDS:
            return None
        args[prefix.replace(" ", "_") + "command"] = word
        handler, _, arguments = _COMMANDS[prefix + word]
        prefix += word + " "
    rows = {flags[0]: kwargs for flags, kwargs in arguments()}
    positionals = iter(name for name in rows if not name.startswith("-"))
    given = {}
    while words:
        word = words.pop(0)
        if word == "-" or not word.startswith("-"):
            name = next(positionals, None)
            if name is None:
                return None
            given[name] = word
        elif word not in rows or word in given:
            return None
        elif rows[word].get("action") == "store_true":
            given[word] = True
        elif words and (words[0] == "-" or not words[0].startswith("-")):
            given[word] = words.pop(0)
        else:
            return None
    for name, kwargs in rows.items():
        dest = name.lstrip("-").replace("-", "_") if name.startswith("-") else name
        if name not in given:
            if kwargs.get("required") or not name.startswith("-"):
                return None
            args[dest] = kwargs.get("default", False if kwargs.get("action") else None)
            continue
        value = given[name]
        if "type" in kwargs:
            try:
                value = kwargs["type"](value)
            except ValueError:
                return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        args[dest] = value
    return types.SimpleNamespace(**args, handler=handler)


def _build_parser():
    """The argparse parser of the whole command table, for help, usage
    errors and every argv that `_parse` declines."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # exit code 1 for bad usage, not argparse's 2
            raise _UsageError(f"{self.prog}: {message}")

    parser = _Parser(prog="leibnizalg", description=_DESCRIPTION)
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for path, (handler, help_text, arguments) in _COMMANDS.items():
        parent, _, name = path.rpartition(" ")
        p = groups[parent].add_parser(name, help=help_text)
        for flags, kwargs in arguments():
            p.add_argument(*flags, **kwargs)
        if handler is None:
            groups[path] = p.add_subparsers(
                dest=path.replace(" ", "_") + "_command", required=True)
        else:
            p.set_defaults(handler=handler)
    return parser


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
    args = _parse(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
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
    if isinstance(out, str):
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
