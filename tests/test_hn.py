"""The Harder-Narasimhan count against independent routes: brute-force F_q
counts, Kirwan's subspace-star formula and the Kronecker closed form."""

import pytest

import bbquiver as bq
from bbquiver.errors import UnsupportedError
from bbquiver.hn import stable_counts


def star(x):
    return bq.Quiver.from_arrows(("c", *(f"p{k}" for k in range(1, x + 1))),
                                 [(f"f{k}", "c", f"p{k}") for k in range(1, x + 1)])


CHAIN = bq.Quiver.from_arrows(("u", "v", "x"), [("a1", "u", "v"), ("a2", "u", "v"),
                                                ("b1", "v", "x"), ("b2", "v", "x")])


def hn_poincare(quiver, d, theta, dim):
    return bq.interpolate_from_counts(stable_counts(quiver, d, theta, range(2, dim + 4)), dim)


@pytest.mark.parametrize("quiver,d,theta", [
    (bq.kronecker_quiver(2), (3, 2), (1, 0)),
    (bq.kronecker_quiver(3), (2, 3), (1, 0)),
    (CHAIN, (1, 2, 2), (2, 1, 0)),
    (star(5), (2, 1, 1, 1, 1, 1), (1, 0, 0, 0, 0, 0)),
], ids=["K2 (3,2)", "K3 (2,3)", "chain (1,2,2)", "star5"])
def test_matches_brute_force(quiver, d, theta):
    pytest.importorskip("numpy")  # the brute-force F_q oracle is the one route that needs it
    from bbquiver.existence import brute_force_stable_count

    # the budget caps |R(Q, d)(F_q)|, which neither counting method enumerates
    brute = [(q, brute_force_stable_count(quiver, d, theta, q, budget=2**30))
             for q in (2, 3)]
    assert stable_counts(quiver, d, theta, (2, 3)) == brute


@pytest.mark.parametrize("x", [3, 5, 7])
def test_star_support_matches_kirwan(x):
    d, theta = (2,) + (1,) * x, (1,) + (0,) * x
    assert hn_poincare(star(x), d, theta, x - 3) == bq.kirwan_subspace_poincare(x)


@pytest.mark.parametrize("l,r", [(3, 1), (4, 1), (3, 2), (5, 2),
                                 pytest.param(6, 3, marks=pytest.mark.slow)])
def test_whole_space_matches_closed_form(l, r):
    quiver, d = bq.kronecker_quiver(l + 1), (2, 2 * r + 1)
    dim = 1 - bq.euler_form(quiver, d, d)
    assert hn_poincare(quiver, d, (1, 0), dim) == bq.kronecker_poincare(l, r)


def test_non_coprime_refused():
    with pytest.raises(UnsupportedError):
        stable_counts(bq.kronecker_quiver(3), (2, 2), (1, 0), (2,))


@pytest.mark.parametrize("quiver,d,theta,weights", [
    (bq.kronecker_quiver(3), (3, 4), (1, 0), (2, 1, 0)),
    (bq.kronecker_quiver(3), (3, 4), (1, 0), (0, 0, 2)),
    (bq.kronecker_quiver(4), (2, 5), (1, 0), (1, 2, 2, 0)),
    (CHAIN, (1, 2, 2), (2, 1, 0), (2, 0, 1, 1)),
], ids=["K3 (3,4) distinct", "K3 (3,4) degenerate", "K4 (2,5) degenerate", "chain degenerate"])
def test_localization_sum_matches_whole_space(quiver, d, theta, weights):
    """Under degenerate weights components of positive dimension carry their
    own HN polynomials; shifted and summed they give the whole space's."""
    w = bq.WeightAssignment(1, {a.name: (x,) for a, x in zip(quiver.arrows, weights)})
    comps = [bq.analyze_component(quiver, w, beta)
             for beta in bq.enumerate_compatible(quiver, w, d, theta)]
    assert any(c.dim_component for c in comps)
    total = bq.assemble_poincare((c, bq.component_poincare(quiver, w, theta, c)) for c in comps)
    assert total == hn_poincare(quiver, d, theta, 1 - bq.euler_form(quiver, d, d))
