"""P(t) does not depend on the torus.  Under drawn rank-1 weights in -2..2, zeros
and ties included, `poincare` gives the default torus's polynomial and passes its
own check against the whole-space HN count, and `cells` certifies every chart
against its component's tangent weights (exit 0)."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, assume, given, settings, strategies as st

import bbquiver as bq
from bbquiver.cli import main

QUIVERS = {
    "K3": bq.kronecker_quiver(3),
    "K4": bq.kronecker_quiver(4),
    "u => v => x": bq.Quiver.from_arrows("uvx", [("a1", "u", "v"), ("a2", "u", "v"),
                                                 ("b1", "v", "x"), ("b2", "v", "x")]),
    "1 -> 2 -> 3, 1 => 3": bq.Quiver.from_arrows("123", [("a", "1", "2"), ("b", "2", "3"),
                                                         ("c1", "1", "3"), ("c2", "1", "3")]),
}


@st.composite
def weighted_instances(draw):
    quiver = QUIVERS[draw(st.sampled_from(sorted(QUIVERS)))]
    n = len(quiver.vertices)
    d = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
    theta = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    weights = {a.name: [draw(st.integers(-2, 2))] for a in quiver.arrows}
    return quiver, d, theta, weights


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    assert code == 0, err.getvalue()
    return out.getvalue()


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(weighted_instances())
def test_a_second_torus_gives_the_same_polynomial(tmp_path, instance):
    quiver, d, theta, weights = instance
    assume(bq.is_coprime(quiver, d, theta))
    quiver_file, weights_file = tmp_path / "quiver.json", tmp_path / "weights.json"
    quiver_file.write_text(json.dumps(quiver.to_dict()))
    weights_file.write_text(json.dumps({"rank": 1, "weights": weights}))
    args = ["--quiver", str(quiver_file), f"--dim={','.join(map(str, d))}",
            f"--theta={','.join(map(str, theta))}", "--format", "json"]
    default = json.loads(run("poincare", *args))["poincare"]
    assert json.loads(run("poincare", *args, "--weights", str(weights_file)))["poincare"] == default
    run("cells", *args, "--weights", str(weights_file))
