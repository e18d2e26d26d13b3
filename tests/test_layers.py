"""Lazy layers: which layers a fresh process executes, and the public API in
every import order. Each case runs in a fresh interpreter, since the test
process has long since loaded every layer."""

import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from leibnizalg.algebra import LeibnizAlgebra
from leibnizalg.fileio import serialize_algebra, serialize_rep
from leibnizalg.linalg import Matrix
from leibnizalg.modules import direct_sum, direct_sum_algebra, example_5_5
from leibnizalg.sl2 import simple_ext_algebra, sl2_algebra, sl2_leibniz_irrep

from bases import change_algebra_basis, change_rep_basis, random_invertible

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
LAYERS = ("linalg", "poly", "equations", "algebra", "structure", "reps", "irreducible", "sl2",
          "conic", "decompose", "modules", "fileio")
MODULE_JOB = {"linalg", "algebra", "reps", "fileio"}  # parse a module: what rep check runs
CHECK_JOB = {"linalg", "algebra", "fileio"}  # check and kernel: no module type
ALGEBRA_JOB = CHECK_JOB | {"structure"}  # series, radical, semisimple, derivations

ENTRY_POINTS = {
    # python -m leibnizalg.cli
    "module": "import runpy; runpy.run_module('leibnizalg.cli', run_name='__main__', alter_sys=True)",
    # the installed `leibnizalg` script
    "script": "from leibnizalg.cli import main; main()",
}
# runs a subcommand, then lists the layers the lazy loader has turned into plain modules
RUN_AND_LIST = """
import json, sys, types
sys.argv = ["leibnizalg", *sys.argv[1:]]
try:
    %%s
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "executed": sorted(
    name for name in %r if type(sys.modules["leibnizalg." + name]) is types.ModuleType)}))
""" % (LAYERS,)


def python(code, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True).stdout


def dense_ladder_sum():
    """The ladders of size 2 and 3 in a dense module basis, a module of the
    envelope-first reference test in test_reps: every coordinate vector spins
    to the whole module, so irreducibility reaches its eigenvector fallback."""
    rep = direct_sum(sl2_leibniz_irrep(1, "zero_lambda"), sl2_leibniz_irrep(2, "zero_lambda"))
    p = Matrix([[0, -1, -2, 1, -2], [1, 2, -1, -1, -2], [-1, -1, -1, -2, -1],
                [1, -2, 1, 0, -1], [1, -1, 2, -2, 2]])
    return change_rep_basis(rep, p.inverse())


def dense_sl2_square():
    """sl2 + sl2 in the basis of the columns of the first invertible matrix
    with entries in [-2, 2] from Random(0): the adjoint commutant of the
    Lie quotient has dimension two, so `simple` runs the splitter on it."""
    return change_algebra_basis(direct_sum_algebra(sl2_algebra(), sl2_algebra()),
                                random_invertible(random.Random(0), 6))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("layers")
    files = {"ext5.alg.json": serialize_algebra(simple_ext_algebra(5)),
             "ladder2.rep.json": serialize_rep(sl2_leibniz_irrep(2, "zero_lambda")),
             "e55.rep.json": serialize_rep(example_5_5()),
             "dense12.rep.json": serialize_rep(dense_ladder_sum()),
             "sl2sl2.alg.json": serialize_algebra(dense_sl2_square())}
    for name, text in files.items():
        (root / name).write_text(text)
    return root


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("argv, executed", [
    (["rep", "irreducible", "ladder2.rep.json"], MODULE_JOB | {"irreducible"}),
    (["rep", "irreducible", "dense12.rep.json"], MODULE_JOB | {"irreducible", "poly"}),
    (["rep", "check", "e55.rep.json"], MODULE_JOB),
    (["check", "ext5.alg.json"], CHECK_JOB),
    (["kernel", "ext5.alg.json"], CHECK_JOB),
    (["simple", "ext5.alg.json"], ALGEBRA_JOB | {"equations"}),
    (["simple", "sl2sl2.alg.json"], ALGEBRA_JOB | {"equations", "poly"}),
    (["radical", "ext5.alg.json"], ALGEBRA_JOB),
    (["derivations", "ext5.alg.json"], ALGEBRA_JOB),
    (["levi", "ext5.alg.json"], ALGEBRA_JOB | {"equations"}),
    (["rep", "decompose", "e55.rep.json"], MODULE_JOB | {"decompose", "poly", "equations"}),
    (["rep", "classify", "ext5.alg.json", "--m", "2"], MODULE_JOB | {"sl2"}),
    (["gen", "sl2-irrep", "--m", "2"], MODULE_JOB | {"sl2"}),
    (["gen", "example-5-3"], MODULE_JOB | {"sl2", "modules"}),
    (["gen", "example-5-5"], MODULE_JOB | {"sl2", "modules"}),
    (["rep", "equivalent", "ladder2.rep.json", "ladder2.rep.json"],
     MODULE_JOB | {"modules", "equations"}),
    (["rep", "restrict", "e55.rep.json", "--span", "e,f,h"],
     MODULE_JOB | {"modules", "structure"}),
], ids=["rep irreducible", "rep irreducible eigenvectors", "rep check", "check", "kernel",
        "simple", "simple splitter", "radical", "derivations", "levi", "rep decompose",
        "rep classify", "gen sl2-irrep", "gen example-5-3", "gen example-5-5", "rep equivalent",
        "rep restrict"])
def test_a_subcommand_executes_only_the_layers_it_runs(inputs, entry, argv, executed):
    argv = [str(inputs / a) if a.endswith(".json") else a for a in argv]
    record = json.loads(python(RUN_AND_LIST % ENTRY_POINTS[entry], *argv).splitlines()[-1])
    assert record == {"code": 0, "executed": sorted(executed)}


def pinned_module():
    """ladder1 + ladder1 in dense algebra and module bases where no candidate
    element of the commutant M_2(QQ) has a rational eigenvalue, so only the
    quaternion step of `conic` splits it."""
    rep = direct_sum(sl2_leibniz_irrep(1, "zero_lambda"), sl2_leibniz_irrep(1, "zero_lambda"))
    q = Matrix([[-2, -1, 2], [2, -1, -1], [-1, 1, 1]])
    p = Matrix([[-1, -1, 2, 2], [0, 2, -1, 1], [-1, -1, -2, 0], [0, -2, 2, 2]])
    return change_rep_basis(rep, p, q)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_only_a_stuck_quaternion_commutant_executes_the_conic_layer(inputs, entry):
    path = inputs / "pinned.rep.json"
    path.write_text(serialize_rep(pinned_module()))
    record = json.loads(python(RUN_AND_LIST % ENTRY_POINTS[entry], "rep", "decompose", "--json",
                               str(path)).splitlines()[-1])
    assert record == {"code": 0, "executed": sorted(
        MODULE_JOB | {"decompose", "poly", "equations", "conic"})}


# runs the CLI, then lists which of argparse and gettext the process imported
RUN_AND_LIST_PARSERS = """
import json, runpy, sys
sys.argv = ["leibnizalg", *sys.argv[1:]]
try:
    runpy.run_module("leibnizalg.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "imported": sorted({"argparse", "gettext"} & set(sys.modules))}))
"""
# a valid command line for every leaf of the command table
VALID_RUNS = {
    "check": ["ext5.alg.json"], "kernel": ["ext5.alg.json"], "series": ["ext5.alg.json"],
    "radical": ["ext5.alg.json"], "semisimple": ["ext5.alg.json"],
    "simple": ["ext5.alg.json", "--json"], "derivations": ["ext5.alg.json"],
    "levi": ["ext5.alg.json"], "rep check": ["e55.rep.json"],
    "rep irreducible": ["--json", "ladder2.rep.json"],
    "rep classify": ["--m", "2", "ext5.alg.json"],
    "rep equivalent": ["ladder2.rep.json", "ladder2.rep.json"],
    "rep decompose": ["e55.rep.json"], "rep restrict": ["e55.rep.json", "--span", "e,f,h"],
    "gen sl2-irrep": ["--m", "2", "--variant", "anti_symmetric"], "gen simple-ext": ["--n", "5"],
    "gen example-5-3": ["--adjoint"], "gen example-5-5": ["--top", "anti_symmetric"],
}


def test_every_leaf_has_a_valid_run():
    from leibnizalg.cli import _COMMANDS
    assert sorted(VALID_RUNS) == sorted(path for path, (handler, *_) in _COMMANDS.items()
                                        if handler)


FILE_TEXT_ROWS = {"rep restrict", "gen sl2-irrep", "gen simple-ext", "gen example-5-3",
                  "gen example-5-5"}


@pytest.mark.parametrize("path", VALID_RUNS)
def test_a_handler_returns_file_text_exactly_on_the_rows_without_json(inputs, path):
    # run_command writes a str as it is and formats a dict as a report
    from leibnizalg.cli import _COMMANDS, _parse
    has_json = any(flags == ("--json",) for flags, _ in _COMMANDS[path][2]())
    assert has_json is (path not in FILE_TEXT_ROWS)
    args = _parse(path.split() + [str(inputs / a) if a.endswith(".json") else a
                                  for a in VALID_RUNS[path]])
    out = args.handler(args)
    assert type(out) is (str if path in FILE_TEXT_ROWS else dict), path


@pytest.mark.parametrize("argv, code, imported", [
    *((path.split() + args, 0, []) for path, args in VALID_RUNS.items()),
    (["rep", "irreducible", "--help"], 0, ["argparse", "gettext"]),
    (["gen", "sl2-irrep", "--m", "x"], 1, ["argparse", "gettext"]),
], ids=[*VALID_RUNS, "help", "usage error"])
def test_a_valid_command_line_is_parsed_without_argparse(inputs, argv, code, imported):
    argv = [str(inputs / a) if a.endswith(".json") else a for a in argv]
    record = json.loads(python(RUN_AND_LIST_PARSERS, *argv).splitlines()[-1])
    assert record == {"code": code, "imported": imported}


def test_importing_the_cli_puts_every_layer_in_sys_modules():
    # the benchmark tracer reads the layers from sys.modules right after this import
    out = python("""
import sys
import leibnizalg.cli
layers = {name: sys.modules["leibnizalg." + name] for name in
          ("algebra", "cli", "conic", "decompose", "equations", "fileio", "irreducible", "linalg",
           "modules", "poly", "reps", "sl2", "structure")}
assert layers["cli"].run_command is not None
assert layers["linalg"].Matrix.identity(2).rows == 2
assert layers["poly"].rational_roots((-2, 1)) == (2,)
assert layers["equations"].solve(layers["linalg"].Matrix.identity(1), (1,))[0] == (1,)
assert layers["algebra"].algebra_from_brackets(["a", "b"], {}).dim == 2
assert layers["structure"].SeriesReport._fields[0] == "kind"
assert layers["reps"]._VARIANTS
assert layers["irreducible"].IrreducibilityVerdict._fields[0] == "value"
assert layers["sl2"].sl2_algebra().dim == 3
assert layers["decompose"].KERNEL_OBSTRUCTION
assert layers["modules"].example_5_5().space_dim == 5
assert layers["modules"].abelian_algebra(2).dim == 2
assert callable(layers["fileio"].parse_rep)
print("ok")
""")
    assert out == "ok\n"


CHECK_API = """
import sys, types
import leibnizalg

layer = {name: sys.modules["leibnizalg." + name] for name in %r}
assert len(leibnizalg.__all__) == len(set(leibnizalg.__all__)) == 62
assert {*leibnizalg.__all__, *layer} <= set(dir(leibnizalg))
for name in leibnizalg.__all__:
    home = leibnizalg._HOME[name]
    obj = getattr(leibnizalg, name)
    assert obj is getattr(layer[home], name), name
    if getattr(obj, "__module__", "").startswith("leibnizalg."):
        assert obj.__module__ == "leibnizalg." + home, name
assert isinstance(leibnizalg.decompose, types.FunctionType)
assert leibnizalg.decompose is layer["decompose"].decompose
assert leibnizalg.sl2 is layer["sl2"]
for name in ("linalg", "poly", "equations", "algebra", "structure", "reps", "irreducible", "conic",
             "modules", "fileio"):
    assert getattr(leibnizalg, name) is layer[name], name
try:
    leibnizalg.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown attribute resolved")
namespace = {}
exec("from leibnizalg import *", namespace)
del namespace["__builtins__"]
assert sorted(namespace) == sorted(leibnizalg.__all__)
print("ok")
""" % (LAYERS,)


@pytest.mark.parametrize("first", [
    "import leibnizalg",
    "import leibnizalg.decompose",
    "import leibnizalg.irreducible",
    "from leibnizalg.modules import direct_sum\nassert callable(direct_sum)",
    "from leibnizalg.decompose import decompose\nassert callable(decompose)",
    "import leibnizalg.cli",
    "from leibnizalg import fileio\nimport sys\nassert fileio is sys.modules['leibnizalg.fileio']",
], ids=lambda first: first.splitlines()[0])
def test_public_names_resolve_to_their_home_layer_in_every_import_order(first):
    assert python(first + "\n" + CHECK_API) == "ok\n"


# the names that bench/ reads through their former layer: (old layer, name, home)
FORWARDED = (
    ("linalg", "solve", "equations"), ("linalg", "matrix_commutant", "equations"),
    ("linalg", "minimal_polynomial", "poly"), ("linalg", "char_poly", "poly"),
    ("reps", "module_restriction", "modules"), ("reps", "direct_sum", "modules"),
    ("reps", "irreducibility", "irreducible"),
)
# reading the name executes its home layer and no other
READ_FORWARDED = """
import sys, types
import leibnizalg
old, name, home = sys.argv[1:]
def executed():
    return {layer for layer in %r
            if type(sys.modules["leibnizalg." + layer]) is types.ModuleType}
module = sys.modules["leibnizalg." + old]
assert module.__name__ == "leibnizalg." + old  # any attribute executes the layer itself
before = executed()
obj = getattr(module, name)
assert executed() - before == {home}, executed() - before
assert obj is getattr(sys.modules["leibnizalg." + home], name)
print("ok")
""" % (LAYERS,)


@pytest.mark.parametrize("old, name, home", FORWARDED, ids=[f"{o}.{n}" for o, n, _ in FORWARDED])
def test_a_forwarded_name_is_its_home_object_and_loads_its_home(old, name, home):
    assert python(READ_FORWARDED, old, name, home) == "ok\n"


def test_only_the_forwarded_names_resolve_through_their_former_layer():
    import leibnizalg.linalg as linalg
    import leibnizalg.reps as reps
    for old, module in (("linalg", linalg), ("reps", reps)):
        assert sorted(module._FORWARDED) == sorted(n for o, n, _ in FORWARDED if o == old)
    for module, name in ((linalg, "rational_roots"), (linalg, "_axiom_rows"),
                         (reps, "equivalence"), (reps, "adjoint_rep"),
                         (reps, "IrreducibilityVerdict")):
        with pytest.raises(AttributeError):
            getattr(module, name)


# frozen public API: the public attributes of LeibnizAlgebra and the package's names
ALGEBRA_METHODS = (
    "bracket", "check_inn_ideal", "check_leibniz", "derivations", "derived_series",
    "full_space", "ideal_closure", "inner_derivations", "is_ideal", "is_lie", "is_nilpotent",
    "is_semisimple", "is_simple", "is_solvable", "is_subalgebra", "is_valid", "killing_form",
    "left_mult_matrix_basis", "leibniz_kernel", "levi_subalgebra", "lower_central_series",
    "product_space", "quotient", "radical", "right_mult_matrix_basis", "same_table",
    "structure_report", "subalgebra_on", "table",
)
PUBLIC_NAMES = (
    "AxiomViolationError", "DecompositionResult", "EquivalenceVerdict", "ExtensionSolution",
    "InternalCheckError", "InvalidAlgebraError", "IrreducibilityVerdict", "KernelActionReport",
    "LeibnizAlgebra", "Matrix", "ParseError", "QQ", "Representation", "SeriesReport",
    "SimplicityVerdict", "Sl2ConstraintReport", "StructureReport", "Subspace",
    "abelian_algebra", "adjoint_rep", "algebra_from_brackets", "char_poly",
    "check_sl2_constraints", "classify_extension_irreps", "commutant",
    "complete_reducibility_necessary", "decompose", "dichotomy_classify", "direct_sum",
    "direct_sum_algebra", "envelope_dimension", "equivalence", "example_5_3", "example_5_5",
    "extension_rep_solve", "frac_str", "from_lie_rep", "h_gap_positions", "irreducibility",
    "is_invariant", "matrix_commutant", "minimal_polynomial", "module_restriction", "nullspace",
    "parse_algebra", "parse_rep", "rational_roots", "restrict", "rref", "serialize_algebra",
    "serialize_rep", "simple_ext_algebra", "sl2_algebra", "sl2_irrep_rho", "sl2_leibniz_irrep",
    "solve", "solve_lowering_left", "spin_submodule", "subspace_intersect", "subspace_sum",
    "sym_span", "ternary_zero",
)


def test_the_algebra_keeps_its_methods_and_the_package_its_names():
    import leibnizalg
    from leibnizalg.algebra import LeibnizAlgebra
    public = sorted(name for name in vars(LeibnizAlgebra) if not name.startswith("_"))
    assert public == list(ALGEBRA_METHODS)
    # the benchmark tracer wraps these as class attributes
    assert {"__init__", "bracket", "ideal_closure"} <= set(vars(LeibnizAlgebra))
    assert sorted(leibnizalg.__all__) == list(PUBLIC_NAMES)


# the methods LeibnizAlgebra reads from the structure layer, and the first line
# of the contract each one states there
STRUCTURE_METHODS = (
    "product_space", "is_subalgebra", "is_ideal", "quotient", "subalgebra_on",
    "lower_central_series", "derived_series", "is_solvable", "is_nilpotent", "killing_form",
    "radical", "is_semisimple", "is_simple", "derivations", "inner_derivations",
    "check_inn_ideal", "levi_subalgebra", "structure_report",
)
CONTRACTS = {
    "product_space": "Span of [u', w'] over basis pairs of the two subspaces.",
    "quotient": "Quotient algebra and the projection matrix onto it.",
    "subalgebra_on": "The induced table on a subspace closed under the bracket: a product",
    "killing_form": "Gram matrix of (x, y) -> trace(ad x . ad y), summed from the integer",
    "radical": "Largest solvable ideal, read off the verified Levi chain.",
    "is_semisimple": "Radical equal to the kernel.",
    "is_simple": "Three-valued simplicity test.",
    "derivations": "All d with d[x,y] = [dx,y] + [x,dy], flattened row-major into QQ^(n^2).",
    "inner_derivations": "Span of the right multiplications, flattened row-major.",
    "check_inn_ideal": "Inner derivations form an ideal of the derivation Lie algebra.",
    "levi_subalgebra": "A Lie complement S to the kernel K in a semisimple algebra.",
}
# building an algebra leaves the structure layer unexecuted; reading a method
# executes it, on the class gives its function and on an algebra binds it
READ_STRUCTURE_METHODS = """
import sys, types
from leibnizalg.algebra import LeibnizAlgebra
structure = sys.modules["leibnizalg.structure"]
alg = LeibnizAlgebra(["a", "b"], [[[0, 0], [1, 0]], [[0, 0], [0, 0]]])
assert type(structure) is not types.ModuleType
for name in sys.argv[1:]:
    function = getattr(LeibnizAlgebra, name)
    assert type(structure) is types.ModuleType
    assert function is getattr(structure, name), name
    method = getattr(alg, name)
    assert method.__func__ is function and method.__self__ is alg, name
print("ok")
"""


def test_each_structure_method_is_its_structure_function():
    assert python(READ_STRUCTURE_METHODS, *STRUCTURE_METHODS) == "ok\n"


def test_each_structure_method_has_one_definition_with_its_contract():
    import inspect

    from leibnizalg import structure
    from leibnizalg.algebra import LeibnizAlgebra
    assert set(STRUCTURE_METHODS) <= set(ALGEBRA_METHODS)
    # no forwarder: the class attribute is the lazy reader, not a function
    assert not any(inspect.isfunction(vars(LeibnizAlgebra)[name]) for name in STRUCTURE_METHODS)
    for name, first in CONTRACTS.items():
        assert inspect.getdoc(getattr(structure, name)).splitlines()[0] == first, name
