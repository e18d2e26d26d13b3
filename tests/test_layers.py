"""Lazy layers: which layers a fresh process executes, and the public API in
every import order. Each case runs in a fresh interpreter, since the test
process has long since loaded every layer."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from leibnizalg.decompose import example_5_5
from leibnizalg.fileio import serialize_algebra, serialize_rep
from leibnizalg.sl2 import simple_ext_algebra, sl2_leibniz_irrep

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
LAYERS = ("linalg", "algebra", "reps", "sl2", "decompose", "fileio")
BASE = {"linalg", "algebra", "reps", "fileio"}  # what every subcommand runs

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


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("layers")
    files = {"ext5.alg.json": serialize_algebra(simple_ext_algebra(5)),
             "ladder2.rep.json": serialize_rep(sl2_leibniz_irrep(2, "zero_lambda")),
             "e55.rep.json": serialize_rep(example_5_5())}
    for name, text in files.items():
        (root / name).write_text(text)
    return root


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("argv, extra", [
    (["rep", "irreducible", "ladder2.rep.json"], set()),
    (["simple", "ext5.alg.json"], set()),
    (["rep", "decompose", "e55.rep.json"], {"decompose"}),
    (["gen", "sl2-irrep", "--m", "2"], {"sl2"}),
], ids=["rep irreducible", "simple", "rep decompose", "gen sl2-irrep"])
def test_a_subcommand_executes_only_the_layers_it_runs(inputs, entry, argv, extra):
    argv = [str(inputs / a) if a.endswith(".json") else a for a in argv]
    record = json.loads(python(RUN_AND_LIST % ENTRY_POINTS[entry], *argv).splitlines()[-1])
    assert record == {"code": 0, "executed": sorted(BASE | extra)}


def test_importing_the_cli_puts_every_layer_in_sys_modules():
    # the benchmark tracer reads the layers from sys.modules right after this import
    out = python("""
import sys
import leibnizalg.cli
layers = {name: sys.modules["leibnizalg." + name] for name in
          ("algebra", "cli", "decompose", "fileio", "linalg", "reps", "sl2")}
assert layers["cli"].run_command is not None
assert layers["linalg"].Matrix.identity(2).rows == 2
assert layers["algebra"].abelian_algebra(2).dim == 2
assert layers["reps"]._VARIANTS
assert layers["sl2"].sl2_algebra().dim == 3
assert layers["decompose"].example_5_5().space_dim == 5
assert callable(layers["fileio"].parse_rep)
print("ok")
""")
    assert out == "ok\n"


CHECK_API = """
import sys, types
import leibnizalg

layer = {name: sys.modules["leibnizalg." + name] for name in %r}
assert len(leibnizalg.__all__) == len(set(leibnizalg.__all__)) == 61
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
for name in ("linalg", "algebra", "reps", "fileio"):
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
    "from leibnizalg.decompose import decompose\nassert callable(decompose)",
    "import leibnizalg.cli",
    "from leibnizalg import fileio\nimport sys\nassert fileio is sys.modules['leibnizalg.fileio']",
], ids=lambda first: first.splitlines()[0])
def test_public_names_resolve_to_their_home_layer_in_every_import_order(first):
    assert python(first + "\n" + CHECK_API) == "ok\n"
