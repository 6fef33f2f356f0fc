"""Malformed input documents and vector flags end in a JSON error, never a traceback.

Each draw breaks one part of a valid `fixed-points` request on K3 (2,3): the
quiver document, the weight document, `--dim` or `--theta`.  The CLI must
exit 2 (validation) or 3 (unsupported) with one JSON error object on stderr
and nothing on stdout.  Classes built inside the pipeline skip validation,
so this boundary is the only place malformed input can be caught.  Loosely
typed documents (names that are not strings, a fractional rank, weights as
digit strings) count as malformed: they are refused, not coerced.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bbquiver.cli import main

QUIVER = {"vertices": ["i", "j"],
          "arrows": [{"name": f"a{k}", "from": "i", "to": "j"} for k in (1, 2, 3)]}
WEIGHTS = {"rank": 1, "weights": {"a1": [9], "a2": [3], "a3": [1]}}

json_scalars = st.one_of(st.none(), st.booleans(), st.integers(-5, 5),
                         st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=3))
json_values = st.recursive(json_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)
unhashable = st.one_of(st.lists(json_scalars, max_size=2),
                       st.dictionaries(st.text(max_size=2), json_scalars, max_size=2))
not_a_list = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False))
not_a_string = not_a_list  # none of those scalars is a string either


def _not_an_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


not_an_int = st.text(min_size=1, max_size=4).filter(_not_an_int)


@st.composite
def broken_quiver(draw):
    doc = json.loads(json.dumps(QUIVER))
    arrow = doc["arrows"][draw(st.integers(0, 2))]
    kind = draw(st.sampled_from(["drop key", "drop arrow key", "not a list", "bad arrow",
                                 "unhashable vertex", "unhashable field", "unknown endpoint",
                                 "duplicate vertex", "duplicate arrow", "not an object",
                                 "truncated", "loose vertices", "name not a string"]))
    if kind == "drop key":
        del doc[draw(st.sampled_from(["vertices", "arrows"]))]
    elif kind == "drop arrow key":
        del arrow[draw(st.sampled_from(["name", "from", "to"]))]
    elif kind == "not a list":
        doc[draw(st.sampled_from(["vertices", "arrows"]))] = draw(not_a_list)
    elif kind == "bad arrow":
        doc["arrows"][0] = draw(st.one_of(not_a_list, st.lists(json_scalars, max_size=2)))
    elif kind == "unhashable vertex":
        doc["vertices"][draw(st.integers(0, 1))] = draw(unhashable)
    elif kind == "unhashable field":
        arrow[draw(st.sampled_from(["name", "from", "to"]))] = draw(unhashable)
    elif kind == "unknown endpoint":
        arrow[draw(st.sampled_from(["from", "to"]))] = draw(
            st.text(max_size=3).filter(lambda t: t not in ("i", "j")))
    elif kind == "duplicate vertex":
        doc["vertices"].append(draw(st.sampled_from(["i", "j"])))
    elif kind == "duplicate arrow":
        doc["arrows"].append(dict(arrow))
    elif kind == "not an object":
        return json.dumps(draw(st.one_of(json_scalars, st.lists(json_values, max_size=3))))
    elif kind == "loose vertices":  # a string or object of the two names
        doc["vertices"] = draw(st.sampled_from(["ij", {"i": 0, "j": 1}]))
    elif kind == "name not a string":  # consistently renamed, so only the type is wrong
        old, new = draw(st.sampled_from(["i", "j", "a1"])), draw(not_a_string)
        doc["vertices"] = [new if v == old else v for v in doc["vertices"]]
        for a in doc["arrows"]:
            a.update((key, new) for key, value in a.items() if value == old)
    else:
        text = json.dumps(doc)
        return text[:draw(st.integers(0, len(text) - 1))]
    return json.dumps(doc)


@st.composite
def broken_weights(draw):
    doc = json.loads(json.dumps(WEIGHTS))
    name = draw(st.sampled_from(["a1", "a2", "a3"]))
    kind = draw(st.sampled_from(["drop key", "bad rank", "bad weight", "wrong length",
                                 "missing arrow", "unknown arrow", "not an object",
                                 "truncated", "loose rank", "loose weight"]))
    if kind == "drop key":
        del doc[draw(st.sampled_from(["rank", "weights"]))]
    elif kind == "bad rank":
        doc["rank"] = draw(st.one_of(st.integers(-5, 0), not_an_int, st.just(1e400),
                                     st.lists(st.integers(), max_size=2)))
    elif kind == "bad weight":
        doc["weights"][name] = draw(st.one_of(st.none(), not_an_int, st.floats(),
                                              st.lists(not_an_int, min_size=1, max_size=1),
                                              st.lists(st.lists(st.integers()), min_size=1,
                                                       max_size=1)))
    elif kind == "wrong length":
        doc["weights"][name] = draw(st.lists(st.integers(-9, 9), max_size=4)
                                    .filter(lambda w: len(w) != 1))
    elif kind == "missing arrow":
        del doc["weights"][name]
    elif kind == "unknown arrow":
        unknown = draw(st.text(max_size=3).filter(lambda t: t not in WEIGHTS["weights"]))
        doc["weights"][unknown] = [1]
    elif kind == "not an object":
        return json.dumps(draw(st.one_of(json_scalars, st.lists(json_values, max_size=3))))
    elif kind == "loose rank":  # values int() would accept
        doc["rank"] = draw(st.sampled_from([1.0, 1.7, True, "1"]))
    elif kind == "loose weight":
        w = doc["weights"][name][0]
        doc["weights"][name] = draw(st.sampled_from([str(w), [str(w)], [float(w)], float(w),
                                                     [True]]))
    else:
        text = json.dumps(doc)
        return text[:draw(st.integers(0, len(text) - 1))]
    return json.dumps(doc)


entries = st.lists(st.integers(0, 4), min_size=2, max_size=2)
bad_vector = st.one_of(
    st.lists(st.integers(0, 4), max_size=4).filter(lambda v: len(v) != 2).map(
        lambda v: ",".join(map(str, v))),
    st.tuples(entries, st.integers(0, 1), not_an_int.filter(lambda t: "," not in t)).map(
        lambda t: ",".join(t[2] if k == t[1] else str(x) for k, x in enumerate(t[0]))),
)
bad_dim = st.one_of(bad_vector, st.sampled_from(["0,0", "-1,3", "2,-3"]))


@st.composite
def broken_request(draw):
    part = draw(st.sampled_from(["quiver", "weights", "dim", "theta"]))
    return {
        "quiver": draw(broken_quiver()) if part == "quiver" else json.dumps(QUIVER),
        "weights": draw(broken_weights()) if part == "weights" else json.dumps(WEIGHTS),
        "dim": draw(bad_dim) if part == "dim" else "2,3",
        "theta": draw(bad_vector) if part == "theta" else "1,0",
    }


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow,
                                                                   HealthCheck.function_scoped_fixture])
@given(broken_request())
def test_malformed_input_exits_with_a_json_error(tmp_path, broken):
    quiver, weights = tmp_path / "quiver.json", tmp_path / "weights.json"
    quiver.write_text(broken["quiver"])
    weights.write_text(broken["weights"])
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["fixed-points", "--quiver", str(quiver), "--weights", str(weights),
                     f"--dim={broken['dim']}", f"--theta={broken['theta']}"])
    assert code in (2, 3), err.getvalue()
    assert out.getvalue() == ""
    report = json.loads(err.getvalue())
    assert report["error"] in ("validation", "unsupported") and report["message"]


def _renamed(old, new):
    return json.loads(json.dumps(QUIVER).replace(json.dumps(old), json.dumps(new)))


LOOSELY_TYPED = {
    "vertices as a string": ({**QUIVER, "vertices": "ij"}, WEIGHTS),
    "integer vertex name": (_renamed("i", 0), WEIGHTS),
    "null vertex name": (_renamed("j", None), WEIGHTS),
    "integer arrow name": (_renamed("a2", 2), None),
    "fractional rank": (QUIVER, {**WEIGHTS, "rank": 1.7}),
    "weight as a digit string": (QUIVER, {**WEIGHTS, "weights": {**WEIGHTS["weights"],
                                                                 "a1": "7"}}),
}


@pytest.mark.parametrize("case", sorted(LOOSELY_TYPED))
def test_loosely_typed_documents_are_refused(tmp_path, case):
    quiver_doc, weights_doc = LOOSELY_TYPED[case]
    quiver, weights = tmp_path / "quiver.json", tmp_path / "weights.json"
    quiver.write_text(json.dumps(quiver_doc))
    weights.write_text(json.dumps(weights_doc))
    argv = ["fixed-points", "--quiver", str(quiver), "--dim=2,3", "--theta=1,0"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv if weights_doc is None else [*argv, "--weights", str(weights)])
    assert (code, out.getvalue()) == (2, "")
    assert json.loads(err.getvalue())["error"] == "validation"


def test_the_unbroken_request_succeeds(tmp_path):
    quiver, weights = tmp_path / "quiver.json", tmp_path / "weights.json"
    quiver.write_text(json.dumps(QUIVER))
    weights.write_text(json.dumps(WEIGHTS))
    with redirect_stdout(io.StringIO()):
        assert main(["fixed-points", "--quiver", str(quiver), "--weights", str(weights),
                     "--dim=2,3", "--theta=1,0"]) == 0
