"""The (Q, d, theta) contract of `bbquiver.core`: every entry point validates d
and theta with `check_dim`, refuses a d that is not theta-coprime with
`NOT_COPRIME` exactly when `is_coprime` says so, and `box_sides` lists
theta'' . e over the box in `box` order."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

import bbquiver as bq
from bbquiver.cli import main
from bbquiver.core import NOT_COPRIME, box, box_sides, check_dim
from bbquiver.errors import UnsupportedError, ValidationError
from bbquiver.hn import has_stable, stable_counts
from test_hn import dag_instances

COMMANDS = ["fixed-points", "poincare", "cells", "normal-form", "count"]


@pytest.fixture()
def k3_file(tmp_path, k3):
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(k3.to_dict()))
    return str(path)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_refuses_a_non_coprime_d(k3_file, command):
    code, out, err = run([command, "--quiver", k3_file, "--dim", "2,2", "--theta", "1,0"])
    assert (code, out) == (3, "")
    assert [json.loads(line) for line in err.splitlines()] == [
        {"error": "unsupported", "message": NOT_COPRIME}]


def test_count_refuses_a_non_coprime_d_before_the_field(k3_file):
    code, out, err = run(["count", "--quiver", k3_file, "--dim", "2,2", "--theta", "1,0",
                          "--field", "6"])
    assert (code, out, json.loads(err)["message"]) == (3, "", NOT_COPRIME)


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_refuses_a_zero_d_as_malformed(k3_file, command):
    code, out, err = run([command, "--quiver", k3_file, "--dim", "0,0", "--theta", "1,0"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "validation", "message": "d must be nonzero"}


def refusal(count, *args):
    """The text of the UnsupportedError count(*args) raises, or None."""
    try:
        count(*args)
    except UnsupportedError as exc:
        return str(exc)


def oracle():
    """`bbquiver.existence`; the test is skipped where numpy is not installed."""
    pytest.importorskip("numpy")
    from bbquiver import existence
    return existence


def brute_force(quiver, d, theta):
    """The oracle with no budget: it answers nothing, but checks coprimality first."""
    return oracle().brute_force_stable_count(quiver, d, theta, 2, budget=0)


ROUTES = {"has_stable": has_stable, "brute_force_stable_count": brute_force,
          "stable_counts": lambda quiver, d, theta: stable_counts(quiver, d, theta, (2,))}


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("dims", [st.integers(0, 1), st.integers(0, 2)], ids=["thin", "any"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_refused_exactly_when_not_coprime(route, dims, data):
    """A thin d goes through King's criterion in `has_stable`, any other d
    through the HN plan; both refuse as `is_coprime` decides."""
    quiver, d, theta = data.draw(dag_instances(6, dims))
    coprime = bq.is_coprime(quiver, d, theta)
    assert (refusal(ROUTES[route], quiver, d, theta) == NOT_COPRIME) is not coprime


ZERO_D = {
    "is_coprime": lambda k3: bq.is_coprime(k3, (0, 0), (1, 0)),
    "has_stable": lambda k3: has_stable(k3, (0, 0), (1, 0)),
    "stable_counts": lambda k3: stable_counts(k3, (0, 0), (1, 0), (2,)),
    "enumerate_compatible": lambda k3: bq.enumerate_compatible(
        k3, bq.generic_rank1_weights(k3), (0, 0), (1, 0)),
    "brute_force_stable_count": lambda k3: oracle().brute_force_stable_count(
        k3, (0, 0), (1, 0), 2),
}


@pytest.mark.parametrize("entry", sorted(ZERO_D))
def test_zero_d_is_malformed_everywhere(k3, entry):
    with pytest.raises(ValidationError, match="^d must be nonzero$"):
        ZERO_D[entry](k3)


def test_oracle_refuses_a_zero_d_before_its_field(k3):
    existence = oracle()
    with pytest.raises(ValidationError, match="^d must be nonzero$"):
        existence.brute_force_stable_count(k3, (0, 0), (1, 0), 7)


def test_check_dim_coerces_and_refuses(k3):
    assert check_dim(k3, [2, 3], [1, 0]) == ((2, 3), (1, 0))
    for d, theta in [((2, 3, 1), (1, 0)), ((2, 3), (1,)), ((2, -3), (1, 0))]:
        with pytest.raises(ValidationError):
            check_dim(k3, d, theta)


@given(st.lists(st.tuples(st.integers(-5, 5), st.integers(0, 3)), max_size=4))
def test_box_sides_lists_each_vector_in_box_order(pairs):
    score, d = [x for x, _ in pairs], tuple(n for _, n in pairs)
    assert box_sides(score, d) == [sum(x * k for x, k in zip(score, e)) for e in box(d)]
