"""The exported value types: immutable, equal by class and fields, hashed by
their field tuple, and printed as `Name(field=value, ...)`."""
from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from wondersys import (
    CatalogEntry,
    Color,
    Component,
    CriticalityEntry,
    CriticalityReport,
    DistinguishedWitness,
    Functional,
    LatticeVector,
    OrbitPoset,
    RigidityReport,
    RootSystem,
    SphericalSystem,
    ValidationReport,
    Violation,
    catalog_entry,
)
from wondersys.rootlat import Record

ROOT = LatticeVector({"a1": 1, "a2": 2})
WITNESS = DistinguishedWitness(ROOT, 2, "chain a1,a2")
ENTRY = CriticalityEntry(ROOT, False, True)
P1 = catalog_entry("p1")

# (object, its fields in order, the repr the frozen dataclasses printed)
CASES = {
    "Component": (
        Component("B", 2, ("a1", "a2")),
        ("B", 2, ("a1", "a2")),
        "Component(series='B', rank=2, labels=('a1', 'a2'))",
    ),
    "Color": (
        Color("D1", ["a1"], Functional([1, Fraction(-1, 2)])),
        ("D1", frozenset({"a1"}), Functional([1, Fraction(-1, 2)])),
        "Color(id='D1', moved_by=frozenset({'a1'}), phi=(1, -1/2))",
    ),
    "Violation": (
        Violation("P1", "x"),
        ("P1", "x"),
        "Violation(axiom='P1', message='x')",
    ),
    "ValidationReport": (
        ValidationReport((Violation("P1", "x"), Violation("BASE", "it's"))),
        ((Violation("P1", "x"), Violation("BASE", "it's")),),
        "ValidationReport(violations=(Violation(axiom='P1', message='x'), "
        "Violation(axiom='BASE', message=\"it's\")))",
    ),
    "DistinguishedWitness": (
        WITNESS,
        (ROOT, 2, "chain a1,a2"),
        "DistinguishedWitness(root=LatticeVector({'a1': 1, 'a2': 2}), condition=2, "
        "witness='chain a1,a2')",
    ),
    "RigidityReport": (
        RigidityReport((WITNESS,)),
        ((WITNESS,),),
        "RigidityReport(distinguished=(DistinguishedWitness(root=LatticeVector("
        "{'a1': 1, 'a2': 2}), condition=2, witness='chain a1,a2'),))",
    ),
    "CriticalityEntry": (
        CriticalityEntry(ROOT, False, False, True, frozenset({"a1"})),
        (ROOT, False, False, True, frozenset({"a1"})),
        "CriticalityEntry(root=LatticeVector({'a1': 1, 'a2': 2}), distinguished=False, "
        "critical=False, vacuous=True, failing_subset=frozenset({'a1'}))",
    ),
    "CriticalityReport": (
        CriticalityReport((ENTRY,)),
        ((ENTRY,),),
        "CriticalityReport(entries=(CriticalityEntry(root=LatticeVector({'a1': 1, 'a2': 2}), "
        "distinguished=False, critical=True, vacuous=False, failing_subset=None),))",
    ),
    "OrbitPoset": (
        OrbitPoset(1),
        (1,),
        "OrbitPoset(rank=1)",
    ),
    "CatalogEntry": (
        P1,
        (P1.name, P1.description, P1.system, P1.expected),
        "CatalogEntry(name='p1', description='simple spherical root on A1 with two equal "
        "colors', system=SphericalSystem(RootSystem(A1), psi=[a1], colors=['Dp', 'Dm']), "
        "expected={'type_map': {'a1': 'b'}, 'rigid': False, 'distinguished': ((0, 1),), "
        "'critical': ((0, False, False),)})",
    ),
}
NAMES = sorted(CASES)
HASHABLE = [name for name in NAMES if name != "CatalogEntry"]


def _rebuilt(name):
    """An equal object built from copies of the fields, sharing none of them."""
    obj, fields, _ = CASES[name]
    return type(obj)(*copy.deepcopy(fields))


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_the_dataclass_text(name):
    obj, _, text = CASES[name]
    assert repr(obj) == text


@pytest.mark.parametrize("name", NAMES)
def test_fields_in_order(name):
    obj, fields, _ = CASES[name]
    assert tuple(getattr(obj, field) for field in obj.__slots__) == fields


@pytest.mark.parametrize("name", NAMES)
def test_equal_by_fields(name):
    obj, fields, _ = CASES[name]
    assert obj == _rebuilt(name) and not obj != _rebuilt(name)
    assert obj != fields and fields != obj


@pytest.mark.parametrize("name", NAMES)
def test_keyword_construction(name):
    obj, fields, _ = CASES[name]
    assert type(obj)(**dict(zip(obj.__slots__, fields))) == obj


@pytest.mark.parametrize("name", HASHABLE)
def test_hash_is_the_hash_of_the_fields(name):
    obj, fields, _ = CASES[name]
    assert hash(obj) == hash(fields) == hash(_rebuilt(name))


def test_catalog_entry_is_unhashable_like_its_expected_dict():
    with pytest.raises(TypeError):
        hash(P1)


@pytest.mark.parametrize("name", NAMES)
def test_assignment_and_deletion_raise(name):
    obj, fields, _ = CASES[name]
    for field in obj.__slots__:
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert tuple(getattr(obj, field) for field in obj.__slots__) == fields


@pytest.mark.parametrize("name", NAMES)
def test_copy_and_pickle_round_trip(name):
    obj, _, _ = CASES[name]
    assert copy.copy(obj) == obj
    assert copy.deepcopy(obj) == obj
    assert pickle.loads(pickle.dumps(obj)) == obj


# Functional and LatticeVector keep their own ==, hash and text, but are
# immutable like the Record types.
VALUES = {
    "Functional": (Functional([1, Fraction(-1, 2)]), "twice"),
    "LatticeVector": (ROOT, "_coeffs"),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_assignment_and_deletion_raise(name):
    obj, field = VALUES[name]
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, before)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert getattr(obj, field) is before


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_copy_and_pickle_round_trip(name):
    obj, field = VALUES[name]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copied = pickle.loads(pickle.dumps(obj, protocol))
        assert copied == obj and getattr(copied, field) == getattr(obj, field)
    for copied in (copy.copy(obj), copy.deepcopy(obj)):
        assert copied == obj and getattr(copied, field) == getattr(obj, field)
    assert str(copied) == str(obj) and repr(copied) == repr(obj)


def test_same_fields_in_another_class_are_unequal():
    assert RigidityReport(()) != CriticalityReport(())
    assert ValidationReport(()) != RigidityReport(())
    assert Violation("P1", "x") != ("P1", "x")
    assert Violation("P1", "x") != Violation("P1", "y")


def test_color_stores_moved_by_as_a_frozenset():
    color = Color("D", ["a2", "a1", "a2"], Functional([1]))
    assert type(color.moved_by) is frozenset
    assert color.moved_by == frozenset({"a1", "a2"})
    assert color == Color("D", frozenset({"a1", "a2"}), Functional([1]))


def test_criticality_entry_defaults():
    entry = CriticalityEntry(ROOT, distinguished=True, critical=False)
    assert entry.vacuous is False
    assert entry.failing_subset is None
    assert entry == CriticalityEntry(ROOT, True, False, False, None)


# RootSystem and SphericalSystem are Records whose value is some of their
# slots: the components, and the root system, spherical roots and colors.
# The other slots are indexes built from the value.  Both keep their own
# repr.  The induced root system is built without __init__.
C3 = catalog_entry("c3-double-middle").system
SYSTEMS = {
    "RootSystem": C3.rs,
    "induced RootSystem": C3.rs.induced({"a2", "a3"}),
    "SphericalSystem": C3,
}
SYSTEM_REPRS = {
    "RootSystem": "RootSystem(C3)",
    "induced RootSystem": "RootSystem(B2)",
    "SphericalSystem": "SphericalSystem(RootSystem(C3), psi=[a1+2*a2+a3], colors=['D1'])",
}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_system_is_a_record_of_its_value(name):
    obj = SYSTEMS[name]
    assert isinstance(obj, Record)
    value = tuple(getattr(obj, field) for field in obj._value)
    assert hash(obj) == hash(value)
    assert repr(obj) == SYSTEM_REPRS[name]
    rebuilt = type(obj)(*value)
    assert rebuilt == obj and hash(rebuilt) == hash(obj) and repr(rebuilt) == repr(obj)
    for other in (value, C3.rs if obj is C3 else C3, OrbitPoset(1)):
        assert obj.__eq__(other) is NotImplemented
        assert obj != other and other != obj


def test_systems_equal_by_value_only():
    b2, a1 = Component("B", 2, ("b1", "b2")), Component("A", 1, ("a1",))
    rs, reordered = RootSystem([b2, a1]), RootSystem([a1, b2])
    assert rs == reordered and hash(rs) == hash(reordered)
    assert rs.components == (a1, b2)
    induced = C3.rs.induced({"a2", "a3"})
    assert induced == RootSystem(induced.components)
    color = Color("D", ["b2"], Functional([1]))
    psi = [LatticeVector({"a1": 1, "b2": 1})]
    system = SphericalSystem(rs, psi, [color])
    assert system == SphericalSystem(reordered, tuple(psi), (color,))
    assert hash(system) == hash(SphericalSystem(reordered, psi, [color]))
    assert system != SphericalSystem(rs, psi, [Color("D", ["b2"], Functional([2]))])
    assert system != SphericalSystem(rs, [], [color])


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_system_assignment_and_deletion_raise(name):
    obj = SYSTEMS[name]
    before = [getattr(obj, field) for field in obj.__slots__]
    for field in obj.__slots__:
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert all(getattr(obj, f) is v for f, v in zip(obj.__slots__, before))


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_system_copy_and_pickle_round_trip(name):
    obj = SYSTEMS[name]
    copies = [copy.copy(obj), copy.deepcopy(obj)]
    copies += [pickle.loads(pickle.dumps(obj, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for copied in copies:
        assert copied == obj and hash(copied) == hash(obj) and repr(copied) == repr(obj)
        # Every field is rebuilt, the private indexes included.
        for field in obj.__slots__:
            assert getattr(copied, field) == getattr(obj, field), field
