"""The result records and Subspace: fields, defaults, immutability, equality."""

import os
import pathlib
import subprocess
import sys

import pytest

from leibnizalg.decompose import DecompositionResult, KernelActionReport
from leibnizalg.irreducible import IrreducibilityVerdict
from leibnizalg.linalg import Matrix, Subspace
from leibnizalg.modules import EquivalenceVerdict
from leibnizalg.sl2 import ExtensionSolution, Sl2ConstraintReport
from leibnizalg.structure import SeriesReport, SimplicityVerdict, StructureReport

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# (record, field names in order, defaults)
RECORDS = [
    (SeriesReport, ("kind", "terms", "stabilized"), {}),
    (SimplicityVerdict, ("value", "witness", "reason"), {"witness": None, "reason": ""}),
    (StructureReport, ("is_lie", "kernel", "radical", "solvable", "nilpotent", "semisimple",
                       "simple", "witnesses"), {}),
    (IrreducibilityVerdict, ("value", "witness", "detail"), {"witness": None, "detail": ""}),
    (EquivalenceVerdict, ("value", "certificate", "detail"),
     {"certificate": None, "detail": ""}),
    (Sl2ConstraintReport, ("identity_ok", "failing_identities"), {}),
    (ExtensionSolution, ("n", "m", "forced_rho_I", "forced_lambda_I", "free_parameters",
                         "stage1_free_parameters", "used_quadratic_stage",
                         "lambda_sl2_coefficients", "obstruction"), {"obstruction": None}),
    (KernelActionReport, ("ok", "witness_vector", "witness_side", "witness_matrix"),
     {"witness_vector": None, "witness_side": None, "witness_matrix": None}),
    (DecompositionResult, ("verdict", "components", "obstruction"), {"obstruction": None}),
]


@pytest.mark.parametrize("record, fields, defaults", RECORDS,
                         ids=[r.__name__ for r, _, _ in RECORDS])
def test_record_fields_defaults_and_immutability(record, fields, defaults):
    assert record._fields == fields
    assert record._field_defaults == defaults
    values = [f"value of {name}" for name in fields]
    rec = record(*values)
    assert rec == tuple(values) and hash(rec) == hash(tuple(values))
    assert record(**dict(zip(fields, values))) == rec
    required = len(fields) - len(defaults)
    assert tuple(record(*values[:required])) == tuple(values[:required]) + tuple(
        defaults[name] for name in fields[required:])
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    with pytest.raises(AttributeError):
        rec.extra = None


def test_subspace_equality_hash_and_pivots():
    basis = Matrix([[1, 2, 0, 0], [0, 0, 1, 0]])
    direct = Subspace(4, basis)
    spanned = Subspace.from_vectors(4, [(2, 4, 6, 0), (1, 2, 1, 0)])
    assert direct == spanned and hash(direct) == hash(spanned)
    assert direct.pivots == spanned.pivots == (0, 2)
    assert direct != Subspace.from_vectors(4, [(1, 2, 0, 0)])
    assert direct != Subspace(5, Matrix([[1, 2, 0, 0, 0], [0, 0, 1, 0, 0]]))
    assert direct != (4, basis)
    assert Subspace.zero(3) == Subspace.from_vectors(3, [(0, 0, 0)])
    assert hash(Subspace.zero(3)) == hash(Subspace.from_vectors(3, []))
    assert Subspace.zero(3).pivots == ()
    full = Subspace.full(3)
    assert full == Subspace.from_vectors(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    assert hash(full) == hash(Subspace(3, Matrix.identity(3)))
    assert full.pivots == (0, 1, 2)
    assert Subspace.full(0) == Subspace.zero(0)
    assert len({direct, spanned, full, Subspace.full(3)}) == 2
    assert repr(direct) == "Subspace(ambient_dim=4, basis=Matrix(2x4: 1 2 0 0; 0 0 1 0))"
    assert not hasattr(direct, "__dict__")


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = ("import sys, leibnizalg.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
