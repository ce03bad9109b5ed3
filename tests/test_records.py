"""The package's value records keep the behaviour of the frozen and plain
dataclasses they replace: keyword construction and defaults, equality by
value, hashing exactly for the frozen ones, no assignment to a frozen
field, and the dataclass ``repr``.  The reference for each record is a
dataclass made here with the same field names."""

import copy
import dataclasses
import pickle

import pytest

from adjreal.acceptance import CriterionResult
from adjreal.certificates import ReverserCertificate, VerificationReport
from adjreal.gaussian import gr
from adjreal.jordan import JordanPair, jordan_chevalley
from adjreal.liecore import CanonicalSemisimple, LieContext
from adjreal.matrix import ExactMatrix
from adjreal.oracle import ObstructionRecord, SearchOutcome
from adjreal.semisimple import RealityVerdict
from adjreal.symplectic import (
    Sl2Triple,
    SymplecticChainData,
    chain_decomposition,
    nilpotent_from_partition,
    sl2_triple,
)


def _cert_fields():
    return [
        ExactMatrix.diagonal([1, -1]),
        ExactMatrix.from_rows([[0, 1], [-1, 0]]),
        LieContext("sl", "SL", 2),
    ]


def _cert():
    return ReverserCertificate(*_cert_fields())


def _chain_fields():
    cd = chain_decomposition(nilpotent_from_partition([2, 1, 1]))
    return [getattr(cd, name) for name in SymplecticChainData.__slots__]


def _jordan_fields():
    pair = jordan_chevalley(ExactMatrix.from_rows([[2, 1], [0, 2]]))
    return [pair.semisimple_part, pair.nilpotent_part, pair.witness_poly]


def _triple_fields():
    t = sl2_triple(nilpotent_from_partition([2]))
    return [t.x, t.h, t.y]


# class, frozen, a builder of fresh field values, the defaults
CASES = [
    (RealityVerdict, True, lambda: ["yes", "no", "NMod4", _cert()], {"witness": None}),
    (ReverserCertificate, True, lambda: [*_cert_fields(), True], {"claims_involution": False}),
    (VerificationReport, False, lambda: [False, ["InvolutionClaim(g^2 != I)"]], {"failures": []}),
    (LieContext, True, lambda: ["sp", "PSp", 3], {}),
    (CanonicalSemisimple, True, lambda: ["so", (gr(1), gr("1/2-i")), 1], {"zero_block": 0}),
    (JordanPair, True, _jordan_fields, {}),
    (Sl2Triple, True, _triple_fields, {}),
    (SymplecticChainData, True, _chain_fields, {}),
    (SearchOutcome, False, lambda: [True, _cert(), 2, 17, "found"], {}),
    (ObstructionRecord, False, lambda: ["obstruction", [("g^2 = -I", True)]], {"checks": []}),
    (CriterionResult, False, lambda: [4, "symplectic suite", True, "48 spectra"], {}),
]


def _reference(cls, frozen):
    """A dataclass with cls's name and fields."""
    return dataclasses.make_dataclass(cls.__name__, list(cls.__slots__), frozen=frozen)


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("cls, frozen, fields, defaults", CASES, ids=[c[0].__name__ for c in CASES])
def test_record_matches_its_dataclass(cls, frozen, fields, defaults):
    names = cls.__slots__
    a, b = cls(*fields()), cls(**dict(zip(names, fields())))
    ref = _reference(cls, frozen)(*fields())
    assert a == b and not a != b
    subclass = type(cls.__name__, (cls,), {})
    assert a != ref and a != subclass(*fields()) and a != tuple(fields())
    assert repr(a) == repr(b) == repr(ref)
    assert copy.deepcopy(a) == a == pickle.loads(pickle.dumps(a))

    other = copy.copy(a)
    object.__setattr__(other, names[0], "other")  # past any validation
    assert other != a

    if frozen:
        assert _hash_or_error(a) == _hash_or_error(b) == _hash_or_error(ref)
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{names[0]}'$"):
            setattr(a, names[0], "other")
        with pytest.raises(AttributeError, match=f"^cannot delete field '{names[0]}'$"):
            delattr(a, names[0])
    else:
        assert cls.__hash__ is None
        with pytest.raises(TypeError, match="unhashable type"):
            hash(a)
        setattr(a, names[0], "other")
        assert a == other and repr(a).startswith(f"{cls.__name__}({names[0]}='other'")

    if defaults:
        required = fields()[: len(names) - len(defaults)]
        first, second = cls(*required), cls(*required)
        for name, value in defaults.items():
            assert getattr(first, name) == value
            if isinstance(value, list):  # a fresh list per record
                assert getattr(first, name) is not getattr(second, name)
