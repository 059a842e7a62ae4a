"""The record types are immutable named tuples: built by keyword, read by
attribute, never assigned, equal and hashed by their fields. The value
types Permutation, Shape and StandardYoungTableau are immutable tuples of
their entries, parts and rows."""

import importlib
import pickle
import pkgutil

import pytest

import rskcheck
from rskcheck.enumeration import VerificationReport
from rskcheck.evacuation import EvacuationTrace, evacuation_trace
from rskcheck.permutations import Permutation
from rskcheck.rsk import InsertionOutcome, TableauPair, row_insert, rsk
from rskcheck.tableaux import Cell, Shape, StandardYoungTableau

P = StandardYoungTableau([[1, 3], [2]])
Q = StandardYoungTableau([[1, 2], [3]])

RECORDS = [
    (Cell, {"row": 2, "col": 1}),
    (TableauPair, {"p": P, "q": Q}),
    (
        InsertionOutcome,
        {"rows": ((1, 2), (3,)), "new_cell": Cell(2, 1), "bump_path": (Cell(1, 2), Cell(2, 1))},
    ),
    (EvacuationTrace, {"vacated_cells": (Cell(1, 2), Cell(2, 1), Cell(1, 1)), "evacuation": Q}),
    (
        VerificationReport,
        {
            "check": "count_R",
            "n": 3,
            "observed": 4,
            "expected": 4,
            "formula": 4,
            "passed": True,
            "elapsed_ms": 0,
            "workers": 1,
            "detail": "a detail",
        },
    ),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
class TestRecordTypes:
    def test_built_by_keyword_and_read_by_attribute(self, cls, fields):
        record = cls(**fields)
        assert {name: getattr(record, name) for name in fields} == fields

    def test_assignment_raises(self, cls, fields):
        record = cls(**fields)
        for name, value in fields.items():
            with pytest.raises(AttributeError):
                setattr(record, name, value)
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_equal_fields_are_equal_and_hash_the_same(self, cls, fields):
        first, second = cls(**fields), cls(**dict(fields))
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)

    def test_pickle_round_trip(self, cls, fields):
        record = cls(**fields)
        assert pickle.loads(pickle.dumps(record)) == record


VALUES = [
    (Permutation([2, 1, 3]), "entries"),
    (Shape([2, 1]), "parts"),
    (StandardYoungTableau([[1, 3], [2]]), "rows"),
]


@pytest.mark.parametrize("value, field", VALUES, ids=[type(value).__name__ for value, _ in VALUES])
def test_values_are_immutable_tuples(value, field):
    plain = tuple(value)
    for name in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, plain[::-1])
    # The value is read as the tuple it is; no alias names it again.
    assert not hasattr(value, field)
    assert value == plain
    assert hash(value) == hash(plain)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(value, protocol))
        assert type(copy) is type(value)
        assert copy == value


class TestRecordBehaviour:
    def test_tableau_pair_checks_shapes_on_every_construction(self):
        square = StandardYoungTableau([[1, 2], [3, 4]])
        with pytest.raises(ValueError, match="shape mismatch"):
            TableauPair(p=P, q=StandardYoungTableau([[1, 2, 3]]))
        with pytest.raises(ValueError, match="shape mismatch"):
            TableauPair(P, Q)._replace(q=square)

    def test_report_detail_defaults_to_none(self):
        fields = dict(RECORDS[-1][1])
        del fields["detail"]
        report = VerificationReport(**fields)
        assert report.detail is None
        assert report.as_dict() == fields

    def test_records_unpack(self):
        p, q = rsk(Permutation([2, 1, 3]))
        assert (p, q) == (((1, 3), (2,)), ((1, 3), (2,)))
        rows, new_cell, bump_path = row_insert([[1, 3]], 2)
        assert (rows, new_cell, bump_path) == (((1, 2), (3,)), (2, 1), ((1, 2), (2, 1)))
        vacated, evacuated = evacuation_trace(Q)
        assert evacuated == evacuation_trace(Q).evacuation
        assert len(vacated) == Q.n


def test_package_exports_its_modules_lists():
    # A package-level copy of a size cap would not reach the code that reads it.
    layers = ("permutations", "tableaux", "rsk", "evacuation", "reverse_maps", "enumeration")
    modules = [importlib.import_module(f"rskcheck.{layer}") for layer in layers]
    assert rskcheck.__all__ == [name for module in modules for name in module.__all__]
    caps = ("MAX_SIZE", "DEFAULT_MAX_COUNT_N", "DEFAULT_MAX_LIST_N", "SYMMETRY_MAX_N", "PHI_THETA_MAX_N")
    assert [cap for cap in caps if hasattr(rskcheck, cap)] == []


def test_every_listed_name_is_exported():
    # A name left in an __all__ after its definition is removed fails here.
    namespace = {}
    exec("from rskcheck import *", namespace)
    assert set(rskcheck.__all__) <= namespace.keys()
    for info in pkgutil.iter_modules(rskcheck.__path__):
        module = importlib.import_module(f"rskcheck.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], info.name
