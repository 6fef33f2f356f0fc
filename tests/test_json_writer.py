"""The CLI's JSON writer against the stdlib: the same text, the same refusals.

Every `--format json` report goes through `cli._json_text`, which must equal
`json.dumps(obj, indent=2, sort_keys=True)` byte for byte; the stdlib call
is the oracle here.
"""

import enum
import json
from collections import OrderedDict
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bbquiver import kronecker
from bbquiver.cli import _json_text, main


def stdlib(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


texts = st.one_of(st.text(), st.text(alphabet="\x00\x1f\x7f\"\\/ é€\U0001f600\ud800",
                                     max_size=6))
scalars = st.one_of(texts, st.integers(), st.integers(-10 ** 300, 10 ** 300), st.booleans(),
                    st.none(), st.floats(), st.sampled_from([float("nan"), float("inf"),
                                                             float("-inf"), -0.0]))
# keys of one kind per dict, so that most dicts sort; mixed kinds are drawn too
number_keys = st.one_of(st.integers(), st.floats(), st.booleans())
key_kinds = [texts, number_keys, st.none(), st.one_of(texts, st.integers())]


def containers(inner):
    return st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        *(st.dictionaries(keys, inner, max_size=4) for keys in key_kinds),
    )


payloads = st.recursive(scalars, containers, max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(payloads)
def test_same_text_as_the_stdlib(obj):
    try:
        expected = stdlib(obj)
    except TypeError as exc:
        with pytest.raises(TypeError) as caught:
            _json_text(obj)
        assert str(caught.value) == str(exc)
    else:
        assert _json_text(obj) == expected


class Colour(enum.IntEnum):
    RED = 1


class Name(str):
    pass


@pytest.mark.parametrize("obj", [
    {},
    [],
    {"a": {}, "b": [], "c": [{}], "d": ()},
    {"flag": True, "none": None, "half": 0.5, "nan": float("nan")},
    {Colour.RED: Colour.RED, 2.5: False, True: None, float("inf"): 1e300},
    {None: -0.0},
    OrderedDict([("b", 1), ("a", [Name("x"), Name("ü")])]),
    {Name("k"): (1, (2, [3]))},
    "top-level string",
    7,
    None,
])
def test_subclasses_empty_containers_and_bare_scalars(obj):
    assert _json_text(obj) == stdlib(obj)


@pytest.mark.parametrize("obj", [
    object(),
    {"a": [1, {"b": {1, 2}}]},
    [b"bytes"],
    {"x": Fraction(1, 2)},
    {"x": 1j},
    {(1, 2): 0},
    {"a": 1, 2: 3},
    {frozenset(): 1},
])
def test_refuses_what_the_stdlib_refuses(obj):
    with pytest.raises(TypeError) as expected:
        stdlib(obj)
    with pytest.raises(TypeError) as caught:
        _json_text(obj)
    assert str(caught.value) == str(expected.value)


@pytest.mark.parametrize("l,r", [(1, 0), (2, 1), (3, 3), (4, 2)])
def test_kronecker_rows_are_laid_out_as_the_stdlib_does(capsys, l, r):
    """`kronecker --format json` writes each label row from a template; the
    stdlib, given the rows as objects, writes the same text."""
    rows = [{"label": lab.display(), "kind": 1, "att_plus": kronecker.d1_attractor(lab, "plus"),
             "att_minus": kronecker.d1_attractor(lab, "minus")}
            for lab in kronecker.enumerate_type1(l, r)]
    rows += [{"label": lab.display(), "kind": 2, "x": lab.x, "att_plus": kronecker.d2_attractor(lab)}
             for lab in kronecker.enumerate_type2(l, r)]
    poly = kronecker.kronecker_poincare(l, r)
    assert main(["kronecker", "--l", str(l), "--r", str(r), "--format", "json"]) == 0
    assert capsys.readouterr().out == stdlib({"l": l, "r": r, "poincare": poly.as_dict(),
                                             "text": poly.text(), "labels": rows}) + "\n"
