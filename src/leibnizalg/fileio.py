"""JSON-shaped file formats for algebras and representations.

Rationals travel as strings "p/q" (a bare "p" is accepted on input) so
round-trips stay exact; input must match -?[0-9]+(/[0-9]+)? exactly, with at
most MAX_DIGITS digits in each of p and q. An algebra has at most MAX_DIM
basis labels and a module at most MAX_DIM dimensions; the CLI bounds its
size flags by the same constant. Algebra files list only the nonzero
brackets, and the parser hands them to `algebra_from_brackets`, so no dense
table is built. Representation files carry one dense matrix per basis label
and side, and may reference the algebra inline or by file path.

`parse_rep` keeps one memo from entry string to value per file, inline
algebra included, so each distinct string is checked and converted once
(the m = 16 ladder has 1734 entries and 33 strings); any other value raises
with its own locus.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction

from . import reps
from .algebra import LeibnizAlgebra, algebra_from_brackets
from .linalg import Matrix, _matrix_of

MAX_DIGITS = 1000
MAX_DIM = 128
_RATIONAL = re.compile(r"-?([0-9]+)(?:/([0-9]+))?")


class ParseError(ValueError):
    """Malformed input file; the message carries the field locus."""


def frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _parse_frac(text, locus: str) -> Fraction:
    if not isinstance(text, str):
        raise ParseError(f"{locus}: rational values must be strings like \"p/q\"")
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ParseError(f"{locus}: expected an integer or \"p/q\"")
    if any(len(part) > MAX_DIGITS for part in match.groups() if part):
        raise ParseError(f"{locus}: more than {MAX_DIGITS} digits")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ParseError(f"{locus}: {exc}") from None


def _load_json(text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ParseError("top level: values are nested too deeply") from None
    if not isinstance(obj, dict):
        raise ParseError("top level: expected an object")
    return obj


def _algebra_from_object(obj: dict, memo: dict, locus: str = "") -> LeibnizAlgebra:
    prefix = locus + "." if locus else ""
    basis = obj.get("basis")
    if not isinstance(basis, list) or not basis:
        raise ParseError(f"{prefix}basis: expected a nonempty list of labels")
    if len(basis) > MAX_DIM:
        raise ParseError(f"{prefix}basis: more than {MAX_DIM} labels")
    if any(not isinstance(b, str) or not b for b in basis):
        raise ParseError(f"{prefix}basis: labels must be nonempty strings")
    labels = set(basis)
    if len(labels) != len(basis):
        raise ParseError(f"{prefix}basis: duplicate label")
    n = len(basis)
    dim = obj.get("dim")
    if dim is not None and (type(dim) is not int or dim != n):  # bool is no count
        raise ParseError(f"{prefix}dim: {dim!r} does not match {n} basis labels")
    parsed = {}
    brackets = obj.get("brackets", [])
    if not isinstance(brackets, list):
        raise ParseError(f"{prefix}brackets: expected a list")
    for k, entry in enumerate(brackets):
        here = f"{prefix}brackets[{k}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{here}: expected an object")
        left = entry.get("left")
        right = entry.get("right")
        for side, label in (("left", left), ("right", right)):
            if not isinstance(label, str):
                raise ParseError(f"{here}.{side}: expected a label string")
            if label not in labels:
                raise ParseError(f"{here}.{side}: unknown label {label!r}")
        if (left, right) in parsed:
            raise ParseError(f"{here}: duplicate bracket ({left}, {right})")
        result = entry.get("result")
        if not isinstance(result, dict):
            raise ParseError(f"{here}.result: expected an object")
        cell = parsed[left, right] = {}
        for label, value in result.items():
            if label not in labels:
                raise ParseError(f"{here}.result: unknown label {label!r}")
            if type(value) is not str or value not in memo:
                memo[value] = _parse_frac(value, f"{here}.result.{label}")
            cell[label] = memo[value]
    name = obj.get("name", "")
    if not isinstance(name, str):
        raise ParseError(f"{prefix}name: expected a string")
    return algebra_from_brackets(basis, parsed, name=name)


def parse_algebra(text: str) -> LeibnizAlgebra:
    return _algebra_from_object(_load_json(text), {})


def algebra_to_object(alg: LeibnizAlgebra) -> dict:
    brackets = []
    names = alg.basis_names
    for i, row in enumerate(alg._int_table):
        for j, cell in enumerate(row):
            if cell:
                result = {names[t]: frac_str(Fraction(c, alg._den)) for t, c in cell}
                brackets.append(
                    {"left": names[i], "right": names[j], "result": result})
    return {
        "name": alg.name,
        "dim": alg.dim,
        "basis": list(names),
        "brackets": brackets,
    }


def serialize_algebra(alg: LeibnizAlgebra) -> str:
    return json.dumps(algebra_to_object(alg), indent=2, sort_keys=True) + "\n"


def _matrix_from_rows(rows, d: int, locus: str, memo: dict) -> Matrix:
    """The d x d matrix of JSON rows of entry strings, built sparse; memo
    maps each entry string read so far to its value."""
    if not isinstance(rows, list) or len(rows) != d:
        raise ParseError(f"{locus}: expected {d} rows")
    nz = {}
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != d:
            raise ParseError(f"{locus}[{r}]: expected {d} entries")
        out = {}
        for c, x in enumerate(row):
            if type(x) is not str or x not in memo:
                memo[x] = _parse_frac(x, f"{locus}[{r}][{c}]")
            if memo[x]:
                out[c] = memo[x]
        if out:
            nz[r] = out
    return _matrix_of(nz, d, d)


def _matrix_to_rows(m: Matrix) -> list:
    return [[frac_str(x) for x in row] for row in m.data]


def parse_rep(text: str, base_dir: str = ".") -> reps.Representation:
    obj = _load_json(text)
    memo: dict = {}
    source = obj.get("algebra")
    if isinstance(source, dict):
        alg = _algebra_from_object(source, memo, "algebra")
    elif isinstance(source, str):
        path = source if os.path.isabs(source) else os.path.join(base_dir, source)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                alg = parse_algebra(fh.read())
        except OSError as exc:
            raise ParseError(f"algebra: cannot read {source!r}: {exc}") from None
    else:
        raise ParseError("algebra: expected an inline object or a file path")
    d = obj.get("module_dim")
    if type(d) is not int or d < 1:
        raise ParseError("module_dim: expected a positive count")
    if d > MAX_DIM:
        raise ParseError(f"module_dim: more than {MAX_DIM}")
    sides = {}
    for key in ("rho", "lambda"):
        block = obj.get(key)
        if not isinstance(block, dict):
            raise ParseError(f"{key}: expected an object with one matrix per label")
        extra = set(block) - set(alg.basis_names)
        if extra:
            raise ParseError(f"{key}: unknown label {sorted(extra)[0]!r}")
        missing = set(alg.basis_names) - set(block)
        if missing:
            raise ParseError(f"{key}: missing matrix for {sorted(missing)[0]!r}")
        sides[key] = tuple(
            _matrix_from_rows(block[b], d, f"{key}.{b}", memo) for b in alg.basis_names)
    name = obj.get("name", "")
    if not isinstance(name, str):
        raise ParseError("name: expected a string")
    return reps.Representation(alg, sides["rho"], sides["lambda"], name=name)


def rep_to_object(rep: reps.Representation) -> dict:
    names = rep.algebra.basis_names
    return {
        "name": rep.name,
        "algebra": algebra_to_object(rep.algebra),
        "module_dim": rep.space_dim,
        "rho": {b: _matrix_to_rows(rep.right[i]) for i, b in enumerate(names)},
        "lambda": {b: _matrix_to_rows(rep.left[i]) for i, b in enumerate(names)},
    }


def serialize_rep(rep: reps.Representation) -> str:
    return json.dumps(rep_to_object(rep), indent=2, sort_keys=True) + "\n"
