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

import bbquiver as bq
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


def star(leaves):
    return bq.Quiver.from_arrows(("c", *(f"p{k}" for k in range(1, leaves + 1))),
                                 [(f"f{k}", "c", f"p{k}") for k in range(1, leaves + 1)])


RANK2 = {"rank": 2, "weights": {"a1": [1, 0], "a2": [0, 1], "a3": [1, 1]}}
STAR5 = ["--dim", "2,1,1,1,1,1", "--theta", "1,0,0,0,0,0"]


def run_report(capsys, tmp_path, quiver, argv, weights=None) -> str:
    path = tmp_path / "quiver.json"
    path.write_text(json.dumps(quiver.to_dict()))
    argv = [argv[0], "--quiver", str(path), *argv[1:], "--format", "json"]
    if weights is not None:
        wpath = tmp_path / "weights.json"
        wpath.write_text(json.dumps(weights))
        argv += ["--weights", str(wpath)]
    assert main(argv) == 0
    return capsys.readouterr().out


def redump(out: str) -> str:
    return stdlib(json.loads(out)) + "\n"


# reports whose rows share covering entries, and one with no rows
REPEATING = {
    "fixed-points K4 (2,5) filter off": (bq.kronecker_quiver(4), ["fixed-points", "--dim", "2,5",
                                         "--theta", "1,0", "--filter", "off"], None),
    "fixed-points K3 (2,3) rank 2": (bq.kronecker_quiver(3),
                                     ["fixed-points", "--dim", "2,3", "--theta", "1,0"], RANK2),
    "cells K4 (2,3)": (bq.kronecker_quiver(4), ["cells", "--dim", "2,3", "--theta", "1,0"], None),
    "normal-form K4 (2,3)": (bq.kronecker_quiver(4),
                             ["normal-form", "--dim", "2,3", "--theta", "1,0"], None),
    "normal-form star5 (no rows)": (star(5), ["normal-form", *STAR5], None),
}


@pytest.mark.parametrize("case", sorted(REPEATING))
def test_repeated_covering_entries_are_laid_out_as_the_stdlib_does(capsys, tmp_path, case):
    """Covering entries repeat across the rows of a report, and each distinct
    one is laid out once per report; the stdlib, given the parsed report,
    writes the same text."""
    out = run_report(capsys, tmp_path, *REPEATING[case])
    assert out == redump(out)
    doc = json.loads(out)
    rows = doc.get("components") or doc.get("cells") or doc["normal_forms"]
    entries = [json.dumps(e, sort_keys=True) for row in rows for e in row["beta"]]
    assert len(set(entries)) < len(entries) or len(rows) <= 1


def test_a_second_report_lays_out_its_own_entries(capsys, tmp_path):
    """Two reports in one process, on one quiver under two sets of vertex
    names: the second report's entries name its own vertices."""
    argv = ["fixed-points", "--dim", "2,3", "--theta", "1,0"]
    first = run_report(capsys, tmp_path, bq.kronecker_quiver(3), argv)
    renamed = bq.Quiver.from_arrows(("u", "v"), [(f"a{k}", "u", "v") for k in (1, 2, 3)])
    second = run_report(capsys, tmp_path, renamed, argv)
    assert first == redump(first) and second == redump(second)
    vertices = {e["vertex"] for row in json.loads(second)["components"] for e in row["beta"]}
    assert vertices == {"u", "v"}
    assert second.replace('"u"', '"i"').replace('"v"', '"j"').replace(
        json.loads(second)["config_hash"], json.loads(first)["config_hash"]) == first


K3_PENDANT = bq.Quiver.from_arrows(("i", "j", "x"), [("a1", "i", "j"), ("a2", "i", "j"),
                                                    ("a3", "i", "j"), ("b", "j", "x")])
# chart reports: many rows alike, random fills with negative entries, and an
# arrow into a zero space, whose grid is empty
CHARTS = {
    "K4 (2,5)": (bq.kronecker_quiver(4), ["--dim", "2,5", "--theta", "1,0"]),
    "star5": (star(5), STAR5),
    "K3 with a pendant arrow": (K3_PENDANT, ["--dim", "2,3,0", "--theta", "1,0,0"]),
}


@pytest.mark.parametrize("command", ["cells", "normal-form"])
@pytest.mark.parametrize("case", sorted(CHARTS))
def test_chart_reports_are_laid_out_as_the_stdlib_does(capsys, tmp_path, case, command):
    """Each distinct pattern grid is laid out once per report; the stdlib,
    given the parsed report, writes the same text."""
    quiver, argv = CHARTS[case]
    out = run_report(capsys, tmp_path, quiver, [command, *argv])
    assert out == redump(out)


def test_chart_cases_hold_negative_entries_and_empty_grids(capsys, tmp_path):
    quiver, argv = CHARTS["star5"]
    rows = json.loads(run_report(capsys, tmp_path, quiver, ["cells", *argv]))["cells"]
    assert any(x.startswith("-") for row in rows for grid in row["patterns"].values()
               for line in grid for x in line)
    quiver, argv = CHARTS["K3 with a pendant arrow"]
    rows = json.loads(run_report(capsys, tmp_path, quiver, ["cells", *argv]))["cells"]
    assert rows and all(row["patterns"]["b"] == [] for row in rows)
