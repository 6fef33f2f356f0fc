"""The records keep the constructors, attributes, equality and hash of the
frozen dataclasses they replaced: equal fields compare equal and hash as the
tuple of the hashed fields, so set and dict orders, and every report, stay."""

import pytest

import bbquiver as bq
from bbquiver.cli import RunConfig
from bbquiver.core import Arrow
from bbquiver.covering import SupportQuiver

K2 = bq.kronecker_quiver(2)
W = bq.WeightAssignment(1, {"a1": (1,), "a2": (0,)})
W1 = {"a1": 1, "a2": 0}  # the same weights as the kernels take them
BETA = bq.CoveringDimVector(((("i", (0,)), 1), (("j", (0,)), 1), (("j", (1,)), 1)))
REP = bq.GradedRep(K2, W1, BETA, {})
CHART = bq.CellChart(REP, {1: (("a2", 0, 0, 0),)})

# every field of each class, by name in constructor order, as stored
FIELDS = {
    Arrow: {"name": "a1", "source": "i", "target": "j"},
    bq.Quiver: {"vertices": K2.vertices, "arrows": K2.arrows},
    bq.WeightAssignment: {"rank": 1, "weights": {"a1": (1,), "a2": (0,)}},
    bq.CoveringDimVector: {"entries": BETA.entries},
    SupportQuiver: {"quiver": K2, "dims": (1, 1), "covering_vertices": (("i", 0), ("j", 0)),
                    "base": K2},
    bq.FixedComponent: {"beta": BETA, "weight_table": {1: 1}, "dim_component": 0,
                        "att_plus": 1, "att_minus": 0, "isolated": True},
    bq.PoincarePolynomial: {"coefficients": ((0, 1), (2, 1))},
    bq.GradedRep: {"quiver": K2, "weights": W1, "beta": BETA, "blocks": {}},
    bq.CellChart: {"base": REP, "degrees": CHART.degrees},
    bq.Label1: {"l": 2, "r": 1, "m": 1, "m_star": (2,), "n": 2, "n_star": (1,)},
    bq.Label2: {"l": 2, "r": 1, "y": 0, "m_star": (1, 2, 3), "n_star": ()},
    RunConfig: {"quiver": K2, "dim": (2, 3), "theta": (1, 0), "weights": W1, "codec": None,
                "fmt": "text", "inputs": {"dim": [2, 3]}},
}

# the compared records: the fields their hash covers, and one field changed
COMPARED = {
    Arrow: (("name", "source", "target"), {"target": "i"}),
    bq.Quiver: (("vertices", "arrows"), {"arrows": K2.arrows[:1]}),
    bq.WeightAssignment: (("rank",), {"weights": {"a1": (1,), "a2": (2,)}}),
    bq.CoveringDimVector: (("entries",), {"entries": BETA.entries[:2]}),
    bq.PoincarePolynomial: (("coefficients",), {"coefficients": ((0, 1),)}),
    bq.Label1: (("l", "r", "m", "m_star", "n", "n_star"), {"n_star": (3,)}),
    bq.Label2: (("l", "r", "y", "m_star", "n_star"), {"l": 3}),
}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_constructors_take_the_fields_in_order_and_by_name(cls):
    fields = FIELDS[cls]
    for obj in (cls(*fields.values()), cls(**fields)):
        assert {name: getattr(obj, name) for name in fields} == fields


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_records_are_slotted_except_the_one_with_a_cached_property(cls):
    """Every record is slotted: none has a cached property to keep in an instance dict."""
    assert not hasattr(cls(**FIELDS[cls]), "__dict__")


@pytest.mark.parametrize("cls", COMPARED, ids=lambda cls: cls.__name__)
def test_equal_fields_compare_equal_and_hash_as_the_field_tuple(cls):
    hashed, change = COMPARED[cls]
    a, b = cls(**FIELDS[cls]), cls(**FIELDS[cls])
    assert a is not b and a == b and not a != b and repr(a) == repr(b)
    assert hash(a) == hash(b) == hash(tuple(getattr(a, name) for name in hashed))
    other = cls(**{**FIELDS[cls], **change})
    assert a != other and not a == other
    assert a != tuple(FIELDS[cls].values())


def test_quiver_equality_ignores_its_derived_indices():
    a, b = bq.Quiver(K2.vertices, K2.arrows), bq.Quiver(K2.vertices, K2.arrows)
    b._vindex, b._out = {}, {}
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def test_trusted_equals_the_checked_constructor():
    beta = bq.CoveringDimVector.trusted(BETA.entries)
    assert type(beta) is bq.CoveringDimVector
    assert beta == BETA and hash(beta) == hash(BETA)
    assert beta.entries == BETA.entries


def test_a_class_patch_of_post_init_sees_every_construction(monkeypatch):
    """perfbench's tracer counts polynomial operations by wrapping the
    class attribute `PoincarePolynomial.__post_init__`."""
    seen = []
    real = bq.PoincarePolynomial.__post_init__

    def counted(self):
        seen.append(self)
        real(self)

    monkeypatch.setattr(bq.PoincarePolynomial, "__post_init__", counted)
    polys = [bq.PoincarePolynomial(((2, 1), (0, 1))), bq.PoincarePolynomial.one(),
             bq.PoincarePolynomial.from_dict({4: 2, 0: 0})]
    assert len(seen) == 3 and all(s is p for s, p in zip(seen, polys))
    assert [p.coefficients for p in polys] == [((0, 1), (2, 1)), ((0, 1),), ((4, 2),)]
