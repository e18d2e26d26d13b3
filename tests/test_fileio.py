"""File-format round trips and parse diagnostics."""

import contextlib
import io
import json
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from leibnizalg import cli, fileio
from leibnizalg.algebra import abelian_algebra, direct_sum_algebra
from leibnizalg.decompose import example_5_3, example_5_5
from leibnizalg.fileio import (
    MAX_DIGITS,
    MAX_DIM,
    ParseError,
    _matrix_from_rows,
    frac_str,
    parse_algebra,
    parse_rep,
    serialize_algebra,
    serialize_rep,
)
from leibnizalg.linalg import Matrix
from leibnizalg.reps import Representation, adjoint_rep
from leibnizalg.sl2 import (
    classify_extension_irreps,
    simple_ext_algebra,
    sl2_algebra,
    sl2_leibniz_irrep,
)


def catalog_algebras():
    out = [sl2_algebra(), example_5_3()[0], abelian_algebra(3),
           direct_sum_algebra(sl2_algebra(), abelian_algebra(2))]
    out += [simple_ext_algebra(n) for n in range(5, 10)]
    return out


def catalog_reps():
    out = []
    for m in range(0, 4):
        out.append(sl2_leibniz_irrep(m, "zero_lambda"))
        out.append(sl2_leibniz_irrep(m, "anti_symmetric"))
    out += list(classify_extension_irreps(6, 1))
    out.append(example_5_5())
    out.append(adjoint_rep(example_5_3()[0]))
    return out


def test_algebra_round_trip_is_identity():
    for alg in catalog_algebras():
        back = parse_algebra(serialize_algebra(alg))
        assert back == alg
        assert back.name == alg.name


def test_rep_round_trip_is_identity():
    for rep in catalog_reps():
        back = parse_rep(serialize_rep(rep))
        assert back.algebra == rep.algebra
        assert back.right == rep.right
        assert back.left == rep.left
        assert back.name == rep.name


def test_serialization_is_stable_bytes():
    # serialize . parse . serialize = serialize, byte for byte
    for alg in catalog_algebras():
        text = serialize_algebra(alg)
        assert serialize_algebra(parse_algebra(text)) == text
    rep = sl2_leibniz_irrep(2, "anti_symmetric")
    text = serialize_rep(rep)
    assert serialize_rep(parse_rep(text)) == text


def test_rationals_serialize_with_explicit_denominator():
    text = serialize_algebra(sl2_algebra())
    obj = json.loads(text)
    values = [v for entry in obj["brackets"] for v in entry["result"].values()]
    assert set(values) == {"2/1", "-2/1", "1/1", "-1/1"}
    assert text.endswith("\n")


def test_frozen_serialized_form_of_a_small_algebra():
    alg = abelian_algebra(1)
    expected = (
        '{\n'
        '  "basis": [\n'
        '    "a0"\n'
        '  ],\n'
        '  "brackets": [],\n'
        '  "dim": 1,\n'
        '  "name": "abelian1"\n'
        '}\n'
    )
    assert serialize_algebra(alg) == expected


def test_result_map_assigns_bracket():
    text = json.dumps({
        "basis": ["e", "f", "h"],
        "brackets": [
            {"left": "e", "right": "f", "result": {"h": "1/1"}},
            {"left": "f", "right": "e", "result": {"h": "-1"}},
        ],
    })
    alg = parse_algebra(text)
    assert alg.bracket((1, 0, 0), (0, 1, 0)) == (0, 0, 1)
    assert alg.bracket((0, 1, 0), (1, 0, 0)) == (0, 0, -1)
    # untouched pairs stay zero
    assert alg.bracket((0, 0, 1), (0, 0, 1)) == (0, 0, 0)


def test_bare_integer_rational_accepted_on_parse():
    text = json.dumps({
        "basis": ["a", "b"],
        "brackets": [{"left": "a", "right": "a", "result": {"b": "2"}}],
    })
    alg = parse_algebra(text)
    assert alg.bracket((1, 0), (1, 0)) == (0, 2)


def test_invalid_table_still_parses():
    # checking validity is the caller's job, not the parser's
    text = json.dumps({
        "basis": ["a", "b"],
        "brackets": [{"left": "a", "right": "a", "result": {"a": "1/1"}}],
    })
    alg = parse_algebra(text)
    assert not alg.is_valid


def test_duplicate_bracket_pair_names_the_pair():
    text = json.dumps({
        "basis": ["e", "f"],
        "brackets": [
            {"left": "e", "right": "f", "result": {}},
            {"left": "e", "right": "f", "result": {}},
        ],
    })
    with pytest.raises(ParseError, match=r"duplicate bracket \(e, f\)"):
        parse_algebra(text)


def test_unknown_labels_are_located():
    base = {"basis": ["e", "f"]}
    bad_left = dict(base, brackets=[{"left": "q", "right": "f", "result": {}}])
    with pytest.raises(ParseError, match=r"brackets\[0\]\.left: unknown label 'q'"):
        parse_algebra(json.dumps(bad_left))
    bad_result = dict(base, brackets=[
        {"left": "e", "right": "f", "result": {"zz": "1"}}])
    with pytest.raises(ParseError, match=r"result: unknown label 'zz'"):
        parse_algebra(json.dumps(bad_result))


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("label", [["x"], {"k": 1}, 1, None], ids=["list", "object", "number", "null"])
def test_non_string_bracket_labels_are_located(tmp_path, capsys, side, label):
    entry = {"left": "a", "right": "a", "result": {}}
    entry[side] = label
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"basis": ["a"], "brackets": [entry]}))
    code = cli.run_command(["check", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == f"error: brackets[0].{side}: expected a label string\n"


def test_basis_validation():
    with pytest.raises(ParseError, match="nonempty list"):
        parse_algebra(json.dumps({"basis": [], "brackets": []}))
    with pytest.raises(ParseError, match="duplicate label"):
        parse_algebra(json.dumps({"basis": ["a", "a"], "brackets": []}))
    with pytest.raises(ParseError, match="nonempty strings"):
        parse_algebra(json.dumps({"basis": ["a", 3], "brackets": []}))


def test_basis_size_is_bounded():
    labels = [f"b{i}" for i in range(MAX_DIM + 1)]
    with pytest.raises(ParseError, match=f"basis: more than {MAX_DIM} labels"):
        parse_algebra(json.dumps({"basis": labels, "brackets": []}))
    inline = {"basis": labels, "brackets": []}
    with pytest.raises(ParseError, match="algebra.basis: more than"):
        parse_rep(json.dumps({"algebra": inline, "module_dim": 1, "rho": {}, "lambda": {}}))


def test_dim_mismatch_is_rejected():
    text = json.dumps({"basis": ["a", "b"], "dim": 4, "brackets": []})
    with pytest.raises(ParseError, match="4 does not match 2 basis labels"):
        parse_algebra(text)


def test_bad_rationals_are_rejected_with_locus():
    entry = {"left": "a", "right": "a", "result": {"a": "1/0"}}
    with pytest.raises(ParseError, match=r"result\.a"):
        parse_algebra(json.dumps({"basis": ["a"], "brackets": [entry]}))
    entry["result"]["a"] = "not-a-number"
    with pytest.raises(ParseError):
        parse_algebra(json.dumps({"basis": ["a"], "brackets": [entry]}))
    entry["result"]["a"] = 1.5  # numbers must arrive as strings
    with pytest.raises(ParseError, match="must be strings"):
        parse_algebra(json.dumps({"basis": ["a"], "brackets": [entry]}))


def test_rationals_follow_the_documented_grammar():
    def parse_value(text):
        entry = {"left": "a", "right": "a", "result": {"a": text}}
        alg = parse_algebra(json.dumps({"basis": ["a"], "brackets": [entry]}))
        return alg.table[0][0][0]

    assert parse_value("-3/4") == Fraction(-3, 4)
    assert parse_value("12") == 12
    assert parse_value("0/5") == 0
    assert parse_value("9" * MAX_DIGITS) == int("9" * MAX_DIGITS)
    hostile = ["1.5", " 1e3 ", "1e999999", "+1", "1/-2", " 1", "1 ", "1/", "/2",
               "", "-", "1_000", "\uff11", "1\n", "9" * (MAX_DIGITS + 1),
               "1/" + "7" * (MAX_DIGITS + 1)]
    for text in hostile:
        with pytest.raises(ParseError, match=r"result\.a"):
            parse_value(text)


def test_boolean_counts_are_rejected():
    with pytest.raises(ParseError, match="dim"):
        parse_algebra(json.dumps({"basis": ["a"], "dim": True, "brackets": []}))
    alg_obj = json.loads(serialize_algebra(abelian_algebra(1)))
    obj = {"algebra": alg_obj, "module_dim": True,
           "rho": {"a0": [["0"]]}, "lambda": {"a0": [["0"]]}}
    with pytest.raises(ParseError, match="module_dim"):
        parse_rep(json.dumps(obj))


def test_json_syntax_errors_carry_line_and_column():
    with pytest.raises(ParseError, match="line 2, column"):
        parse_algebra('{\n  "basis": [}')
    with pytest.raises(ParseError, match="top level: expected an object"):
        parse_algebra("[1, 2]")


def test_rep_requires_positive_module_dim():
    alg_obj = json.loads(serialize_algebra(abelian_algebra(1)))
    for bad in (0, -1, "3", None):
        obj = {"algebra": alg_obj, "module_dim": bad,
               "rho": {"a0": [["0"]]}, "lambda": {"a0": [["0"]]}}
        if bad is None:
            del obj["module_dim"]
        with pytest.raises(ParseError, match="module_dim"):
            parse_rep(json.dumps(obj))


def test_module_dim_is_bounded(tmp_path, capsys):
    def zero_module(d):
        zero = [["0"] * d for _ in range(d)]
        return {"algebra": {"basis": ["a"]}, "module_dim": d,
                "rho": {"a": zero}, "lambda": {"a": zero}}

    assert parse_rep(json.dumps(zero_module(MAX_DIM))).space_dim == MAX_DIM
    with pytest.raises(ParseError, match=f"module_dim: more than {MAX_DIM}"):
        parse_rep(json.dumps(zero_module(MAX_DIM + 1)))
    path = tmp_path / "big.rep.json"
    path.write_text(json.dumps(zero_module(MAX_DIM + 1)))
    code = cli.run_command(["rep", "check", str(path)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", f"error: module_dim: more than {MAX_DIM}\n")


def deeply_nested(depth):
    return "[" * depth + "]" * depth


@pytest.mark.parametrize("command, text", [
    (["check"], "[" * 200_000),
    (["rep", "check"], "[" * 200_000),
    (["check"], '{"basis": ["a"], "brackets": ' + deeply_nested(100_000) + "}"),
    (["rep", "check"], '{"algebra": {"basis": ["a"]}, "module_dim": 1, "rho": {"a": [["0"]]}, '
                       '"lambda": {"a": ' + deeply_nested(100_000) + "}}"),
], ids=["bare-algebra", "bare-rep", "brackets", "lambda"])
def test_deeply_nested_json_fails_cleanly(tmp_path, capsys, command, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    code = cli.run_command([*command, str(path)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", "error: top level: values are nested too deeply\n")


# -- fuzz: any file gives exit code 0 or 1 and no exception --

_KEYS = st.sampled_from(["basis", "brackets", "left", "right", "result", "dim", "name",
                         "algebra", "module_dim", "rho", "lambda", "a", "b"])
_SCALARS = (st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
            | st.sampled_from(["a", "b", "", "0", "1/2", "-3", "1/0", "x"]))
_ANY = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=6),
    max_leaves=12)


def _mostly(good, bad=_ANY):
    """Well-formed values seven times in eight, so the fuzz gets past the top level."""
    return st.sampled_from([good] * 7 + [bad]).flatmap(lambda strategy: strategy)


# values shaped like the two file formats
_LABEL = st.sampled_from(["a", "b", "c"])
_RATIONAL = _mostly(st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/4"]), _SCALARS)
_ALGEBRA = st.fixed_dictionaries(
    {"basis": _mostly(st.lists(_LABEL, min_size=1, max_size=3, unique=True)),
     "brackets": _mostly(st.lists(st.fixed_dictionaries(
         {"left": _mostly(_LABEL), "right": _mostly(_LABEL),
          "result": _mostly(st.dictionaries(_LABEL, _RATIONAL, max_size=3))}), max_size=6))},
    optional={"dim": _mostly(st.integers(1, 3)), "name": _mostly(st.text(max_size=3))})


@st.composite
def _rep(draw):
    labels = draw(st.lists(_LABEL, min_size=1, max_size=2, unique=True))
    d = draw(st.integers(1, 3))
    matrix = st.lists(st.lists(_RATIONAL, min_size=d, max_size=d), min_size=d, max_size=d)
    block = st.fixed_dictionaries({b: _mostly(matrix) for b in labels})
    obj = {"algebra": draw(_mostly(st.just({"basis": labels}), _ALGEBRA | _ANY)),
           "module_dim": draw(_mostly(st.just(d), st.integers(-2, 2 * MAX_DIM) | _ANY)),
           "rho": draw(_mostly(block)), "lambda": draw(_mostly(block))}
    if draw(st.booleans()):
        obj["name"] = draw(_mostly(st.text(max_size=3)))
    return obj


def _run_on(data: bytes, commands) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/input.json"
        with open(path, "wb") as fh:
            fh.write(data)
        for command in commands:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.run_command([*command, path])
            assert code in (0, 1)
            if code == 1:
                assert err.getvalue().startswith("error: ")


_FUZZ = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@_FUZZ
@given(value=_ANY)
def test_parser_fuzz_on_json_values(value):
    _run_on(json.dumps(value).encode(), [["check"], ["rep", "check"]])


@_FUZZ
@given(value=_ALGEBRA)
def test_parser_fuzz_on_algebra_shaped_values(value):
    _run_on(json.dumps(value).encode(), [["check"]])


@_FUZZ
@given(value=_rep())
def test_parser_fuzz_on_rep_shaped_values(value):
    _run_on(json.dumps(value).encode(), [["rep", "check"]])


@_FUZZ
@given(data=st.binary(max_size=200))
def test_parser_fuzz_on_bytes(data):
    _run_on(data, [["check"], ["rep", "check"]])


def test_rep_matrix_block_validation():
    alg_obj = json.loads(serialize_algebra(abelian_algebra(2)))
    good = {"a0": [["0", "0"], ["0", "0"]], "a1": [["0", "0"], ["0", "0"]]}
    obj = {"algebra": alg_obj, "module_dim": 2, "rho": dict(good),
           "lambda": dict(good)}
    parse_rep(json.dumps(obj))  # sanity: the template itself parses

    missing = dict(obj, rho={"a0": good["a0"]})
    with pytest.raises(ParseError, match="rho: missing matrix for 'a1'"):
        parse_rep(json.dumps(missing))

    extra = dict(obj, rho=dict(good, zz=good["a0"]))
    with pytest.raises(ParseError, match="rho: unknown label 'zz'"):
        parse_rep(json.dumps(extra))

    ragged = dict(obj, rho=dict(good, a0=[["0", "0"], ["0"]]))
    with pytest.raises(ParseError, match=r"rho\.a0\[1\]: expected 2 entries"):
        parse_rep(json.dumps(ragged))

    short = dict(obj, rho=dict(good, a0=[["0", "0"]]))
    with pytest.raises(ParseError, match=r"rho\.a0: expected 2 rows"):
        parse_rep(json.dumps(short))


def test_rep_algebra_by_file_reference(tmp_path):
    (tmp_path / "alg.json").write_text(serialize_algebra(sl2_algebra()))
    rep = sl2_leibniz_irrep(1, "zero_lambda")
    obj = json.loads(serialize_rep(rep))
    obj["algebra"] = "alg.json"
    back = parse_rep(json.dumps(obj), base_dir=str(tmp_path))
    assert back.algebra == sl2_algebra()
    assert back.right == rep.right

    obj["algebra"] = "missing.json"
    with pytest.raises(ParseError, match="cannot read 'missing.json'"):
        parse_rep(json.dumps(obj), base_dir=str(tmp_path))


def test_frac_str_examples():
    from fractions import Fraction
    assert frac_str(Fraction(0)) == "0/1"
    assert frac_str(Fraction(-3, 6)) == "-1/2"
    assert frac_str(Fraction(7)) == "7/1"


# -- the entry reader against its dense reference --

def reference_frac(text, locus):
    """Reference: one entry read on its own, by `Fraction(text)`."""
    if not isinstance(text, str):
        raise ParseError(f"{locus}: rational values must be strings like \"p/q\"")
    match = fileio._RATIONAL.fullmatch(text)
    if match is None:
        raise ParseError(f"{locus}: expected an integer or \"p/q\"")
    if any(len(part) > MAX_DIGITS for part in match.groups() if part):
        raise ParseError(f"{locus}: more than {MAX_DIGITS} digits")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ParseError(f"{locus}: {exc}") from None


def reference_matrix(rows, d, locus):
    """Reference: every entry parsed, then the dense rows given to Matrix."""
    if not isinstance(rows, list) or len(rows) != d:
        raise ParseError(f"{locus}: expected {d} rows")
    data = []
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != d:
            raise ParseError(f"{locus}[{r}]: expected {d} entries")
        data.append([reference_frac(x, f"{locus}[{r}][{c}]") for c, x in enumerate(row)])
    return Matrix(data)


def outcome(read, *args):
    try:
        return read(*args)
    except ParseError as exc:
        return str(exc)


def only_fractions(m: Matrix) -> bool:
    return all(type(x) is Fraction for row in m.nz.values() for x in row.values())


_GOOD = ["0", "-0", "0/5", "1", "-1", "2/4", "-3/4", "007", "12/18", "9" * MAX_DIGITS,
         "-1/" + "7" * MAX_DIGITS]
_BAD = ["1/0", "-5/0", "0/0", "1.5", "", "+1", "1/-2", " 1", "9" * (MAX_DIGITS + 1),
        1, 0, 1.5, True, None, [], ["1"], {"a": "1"}]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 4), data=st.data())
def test_matrix_reader_matches_dense_reference(d, data):
    """Two matrices read with one memo, as parse_rep reads a file: the same
    matrix (with Fraction entries and no stored zero) or the same first
    error as the dense reference, whatever the first matrix left in the memo."""
    entry = st.sampled_from(_GOOD) | st.sampled_from(_BAD) if data.draw(st.booleans()) \
        else st.sampled_from(_GOOD)
    row = st.lists(entry, min_size=d, max_size=d) | st.lists(entry, max_size=d + 1)
    rows = st.lists(row, min_size=d, max_size=d) | st.lists(row, max_size=d + 1)
    memo = {}
    for locus in ("rho.e", "lambda.f"):
        value = data.draw(rows)
        ours = outcome(_matrix_from_rows, value, d, locus, memo)
        assert ours == outcome(reference_matrix, value, d, locus)
        if isinstance(ours, Matrix):
            assert only_fractions(ours) and ours.nz == Matrix(ours.data).nz
            assert (ours.rows, ours.cols) == (d, d)
    assert all(type(k) is str and type(v) is Fraction for k, v in memo.items())


def test_parse_errors_after_good_repeats_are_unchanged():
    """A bad entry after many good copies of the same strings still raises
    with its own locus and the message of the one-entry reader."""
    alg_obj = json.loads(serialize_algebra(abelian_algebra(2)))
    d = 6
    cases = [
        (7, 'rational values must be strings like "p/q"'),
        ([], 'rational values must be strings like "p/q"'),
        (None, 'rational values must be strings like "p/q"'),
        ("9" * (MAX_DIGITS + 1), f"more than {MAX_DIGITS} digits"),
        ("1/0", "Fraction(1, 0)"),
        ("-2/0", "Fraction(-2, 0)"),
        ("1/2/3", 'expected an integer or "p/q"'),
    ]
    for bad, message in cases:
        good = [["1", "-1/2", "0"] * 2 for _ in range(d)]
        spoiled = [list(r) for r in good]
        spoiled[4][3] = bad
        obj = {"algebra": alg_obj, "module_dim": d,
               "rho": {"a0": good, "a1": spoiled}, "lambda": {"a0": good, "a1": good}}
        with pytest.raises(ParseError) as info:
            parse_rep(json.dumps(obj))
        assert str(info.value) == f"rho.a1[4][3]: {message}"
        assert str(info.value) == outcome(reference_matrix, spoiled, d, "rho.a1")


def test_inline_algebra_shares_the_memo():
    """A string first read in the inline algebra is a memo hit in a matrix,
    and a bracket entry keeps its own locus when it is bad."""
    rep = sl2_leibniz_irrep(3, "anti_symmetric")
    obj = json.loads(serialize_rep(rep))
    back = parse_rep(json.dumps(obj))
    assert back.right == rep.right and back.left == rep.left
    assert all(only_fractions(m) for m in back.right + back.left)
    obj["algebra"]["brackets"][0]["result"] = {"e": 2}
    with pytest.raises(ParseError, match=r"^algebra\.brackets\[0\]\.result\.e: rational values"):
        parse_rep(json.dumps(obj))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 3), d=st.integers(1, 4), data=st.data())
def test_serialize_parse_round_trip(n, d, data):
    """serialize_rep then parse_rep gives back the module, and serializing
    again gives the same bytes."""
    value = st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12), st.integers(1, 30)) \
        | st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)])
    matrix = st.lists(st.lists(value, min_size=d, max_size=d), min_size=d, max_size=d)
    right = [Matrix(data.draw(matrix)) for _ in range(n)]
    left = [Matrix(data.draw(matrix)) for _ in range(n)]
    rep = Representation(abelian_algebra(n), right, left, name=data.draw(st.text(max_size=4)))
    text = serialize_rep(rep)
    back = parse_rep(text)
    assert back.right == rep.right and back.left == rep.left and back.name == rep.name
    assert all(only_fractions(m) for m in back.right + back.left)
    assert serialize_rep(back) == text
