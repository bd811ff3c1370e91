"""The package's plain records: field equality and hashing, the
Name(field=value, ...) repr, slots, and a cold import that loads neither
dataclasses nor inspect."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from homalgebra.algebra import CheckReport, Param, Witness
from homalgebra.catalog import CatalogEntry
from homalgebra.fileio import AlgebraFile, CheckRecord, Report
from homalgebra.identities import BuiltinIdentity
from homalgebra.parser import Alpha, IdentityAST, Mu, Scale, Sum, Var
from homalgebra.scalars import Scalar

X, Y = Var("x"), Var("y")
THREE = Scalar.from_fraction(3)

# class, its fields in order, two field tuples that differ in one field, and
# whether the record is hashable (the frozen ones)
CASES = [
    (Var, ("name",), ("x",), ("y",), True),
    (Alpha, ("power", "child"), (2, X), (3, X), True),
    (Mu, ("left", "right"), (X, Y), (Y, X), True),
    (Scale, ("coeff", "child"), (THREE, X), (THREE, Y), True),
    (Sum, ("terms",), (((1, X), (-1, Y)),), (((1, X), (1, Y)),), True),
    (IdentityAST, ("vars", "body"), (("x",), X), (("x", "y"), X), True),
    (Param, ("name", "nonzero"), ("a", True), ("a", False), True),
    (Witness, ("at", "coordinate", "residual", "residual_vector",
               "specialization"),
     (("e1", "e2"), "e1", THREE, None, None),
     (("e1", "e2"), "e2", THREE, None, None), True),
    (CheckReport, ("verdict", "witness", "assumptions"),
     ("holds", None, ("a != 0",)), ("holds", None, ()), True),
    (AlgebraFile, ("algebra", "maps", "twist"),
     ("A", {"f": 1}, "f"), ("A", {"f": 2}, "f"), False),
    (CheckRecord, ("identity", "strategy", "verdict", "witness",
                   "assumptions", "elapsed", "note"),
     ("i", "basis", "holds", None, (), 0.5, ""),
     ("i", "basis", "fails", None, (), 0.5, ""), False),
    (Report, ("command", "subject", "records", "notes"),
     ("verify", "f", [1], []), ("verify", "f", [1], ["n"]), False),
    (BuiltinIdentity, ("name", "asts", "surfaces", "requires_commutative",
                       "note"),
     ("n", (), (), False, ""), ("n", (), (), True, ""), True),
    (CatalogEntry, ("key", "algebra", "maps", "provenance", "expected"),
     ("k", "A", (), "p", ()), ("k", "A", (), "q", ()), True),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, fields, values, other, hashable", CASES,
                         ids=IDS)
class TestRecord:
    def test_equality_follows_the_fields(self, cls, fields, values, other,
                                         hashable):
        a, b = cls(*values), cls(*values)
        assert a is not b and a == b and not a != b
        assert a != cls(*other)
        # not equal to the tuple of its fields, nor to another class
        assert a != values and a != object()

    def test_hash_follows_the_fields(self, cls, fields, values, other,
                                     hashable):
        a, b = cls(*values), cls(*values)
        if hashable:
            assert hash(a) == hash(b) == hash(values)
            assert {a: 1}[b] == 1
        else:
            with pytest.raises(TypeError):
                hash(a)

    def test_repr_names_every_field(self, cls, fields, values, other,
                                    hashable):
        assert repr(cls(*values)) == "%s(%s)" % (cls.__name__, ", ".join(
            "%s=%r" % pair for pair in zip(fields, values)))

    def test_fields_by_keyword(self, cls, fields, values, other, hashable):
        record = cls(**dict(zip(fields, values)))
        assert tuple(getattr(record, f) for f in fields) == values

    def test_slots_refuse_a_stray_attribute(self, cls, fields, values, other,
                                            hashable):
        record = cls(*values)
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.stray = 1


def test_defaults():
    assert repr(Witness()) == (
        "Witness(at=None, coordinate=None, residual=None, "
        "residual_vector=None, specialization=None)")
    assert repr(Param("a")) == "Param(name='a', nonzero=False)"
    assert repr(CheckReport("holds")) == (
        "CheckReport(verdict='holds', witness=None, assumptions=())")
    assert repr(AlgebraFile(None, {})) == (
        "AlgebraFile(algebra=None, maps={}, twist=None)")
    assert repr(CheckRecord("i", "basis", "holds")) == (
        "CheckRecord(identity='i', strategy='basis', verdict='holds', "
        "witness=None, assumptions=(), elapsed=0.0, note='')")
    assert repr(BuiltinIdentity("n", (), ())) == (
        "BuiltinIdentity(name='n', asts=(), surfaces=(), "
        "requires_commutative=False, note='')")
    assert repr(CatalogEntry("k", None, {}, "p")) == (
        "CatalogEntry(key='k', algebra=None, maps={}, provenance='p', "
        "expected=())")


def test_reports_do_not_share_their_lists():
    first, second = Report("verify", "a"), Report("verify", "b")
    first.add("record")
    first.notes.append("note")
    assert second.records == [] and second.notes == []
    assert repr(second) == ("Report(command='verify', subject='b', "
                            "records=[], notes=[])")


def test_alpha_power_must_be_positive():
    with pytest.raises(ValueError):
        Alpha(0, X)


def test_nodes_of_the_same_shape_differ_by_class():
    assert Alpha(2, X) != Scale(2, X)
    assert Mu(X, Y) != IdentityAST(X, Y)


def test_a_cold_import_loads_neither_dataclasses_nor_inspect():
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, homalgebra.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
