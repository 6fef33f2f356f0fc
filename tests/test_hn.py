"""The Harder-Narasimhan count against independent routes: brute-force F_q
counts, Kirwan's subspace-star formula, the Kronecker closed form, Grassmannian
point counts and the ungrouped per-pair recursion of `hn_oracle`, also on
quivers with planted twins; its Pascal table of q-binomials against the
group-order quotient; `has_stable`'s King criterion on thin d against the
count; and the base-q digit reader that turns two counts into a Poincare
polynomial, against Lagrange interpolation of dim + 2 counts."""

import math
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

import bbquiver as bq
import hn_oracle
from bbquiver import betti, hn
from bbquiver.betti import PoincarePolynomial, interpolate_from_counts, stable_poincare
from bbquiver.errors import InconsistencyError, UnsupportedError, ValidationError
from bbquiver.hn import gl_order, stable_counts
from lagrange_oracle import interpolate


def star(x):
    return bq.Quiver.from_arrows(("c", *(f"p{k}" for k in range(1, x + 1))),
                                 [(f"f{k}", "c", f"p{k}") for k in range(1, x + 1)])


CHAIN = bq.Quiver.from_arrows(("u", "v", "x"), [("a1", "u", "v"), ("a2", "u", "v"),
                                                ("b1", "v", "x"), ("b2", "v", "x")])


def hn_poincare(quiver, d, theta, dim):
    return interpolate(stable_counts(quiver, d, theta, range(2, dim + 4)), dim)


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


@pytest.mark.parametrize("x", [3, 5, 7, 9, 11, 13, 15])
def test_star_support_matches_kirwan(x):
    """The x leaves are twins, so the recursion runs on the orbits 0 <= e <= (2, x): at most
    3 (x + 1) steps where the ungrouped walk has up to 3 * 2^x."""
    d, theta = (2,) + (1,) * x, (1,) + (0,) * x
    assert hn_poincare(star(x), d, theta, x - 3) == bq.kirwan_subspace_poincare(x)
    twins, steps = hn._plan(star(x), d, theta)
    assert twins == [1] and len(steps) <= 3 * (x + 1)


def test_star_box_limit_counts_every_vertex():
    """The box refusal reads the full box 0 <= e <= d, 3 * 2^20 vectors on the 20-leaf star,
    not the 63 orbits the recursion would visit."""
    with pytest.raises(UnsupportedError, match="holds 3145728 vectors"):
        stable_counts(star(20), (2,) + (1,) * 20, (1,) + (0,) * 20, (2,))


@pytest.mark.parametrize("l,r", [(3, 1), (4, 1), (3, 2), (5, 2),
                                 pytest.param(6, 3, marks=pytest.mark.slow)])
def test_whole_space_matches_closed_form(l, r):
    quiver, d = bq.kronecker_quiver(l + 1), (2, 2 * r + 1)
    dim = 1 - bq.euler_form(quiver, d, d)
    assert hn_poincare(quiver, d, (1, 0), dim) == bq.kronecker_poincare(l, r)


@pytest.mark.parametrize("q", [2, 3, 4, 2**61])
def test_pascal_table_is_the_group_order_quotient(q):
    assert hn.q_binomials(12, q) == [
        [gl_order(n, q) // (gl_order(m, q) * gl_order(n - m, q) * q**(m * (n - m)))
         for m in range(n + 1)] for n in range(13)]


def test_pascal_table_at_1_is_the_binomial_coefficients():
    assert hn.q_binomials(12, 1) == [[math.comb(n, m) for m in range(n + 1)] for n in range(13)]


def gaussian_binomial(m, n, q):
    """[m choose n]_q = prod_{i < n} (q^(m-i) - 1) / (q^(i+1) - 1) for n <= m, else 0."""
    if n > m:
        return 0
    return math.prod(q**(m - i) - 1 for i in range(n)) // math.prod(q**(i + 1) - 1 for i in range(n))


@pytest.mark.parametrize("m,n", [(6, 3), (48, 40), (64, 60), (3, 100)])
def test_framed_kronecker_counts_the_grassmannian(m, n):
    """K_m at d = (1, n), theta = (1, 0): a stable point is m vectors spanning F^n up to
    GL_n, so the moduli is the Grassmannian Gr(n, m) with [m choose n]_q points, none
    when m < n."""
    assert stable_counts(bq.kronecker_quiver(m), (1, n), (1, 0), (2, 3)) == \
        [(q, gaussian_binomial(m, n, q)) for q in (2, 3)]


def test_has_stable_refuses_a_zero_d_as_malformed(k3):
    with pytest.raises(ValidationError, match="d must be nonzero"):
        bq.has_stable(k3, (0, 0), (1, 0))


def test_non_coprime_refused():
    with pytest.raises(UnsupportedError):
        stable_counts(bq.kronecker_quiver(3), (2, 2), (1, 0), (2,))


@pytest.mark.parametrize("d,theta,qs", [
    ((2, 3), (1, 0), (1,)),
    ((2, 3), (1, 0), (0,)),
    ((2, 3), (1, 0), (-2,)),
    ((2, 3), (1, 0), (2.5,)),
    ((2, 3), (1, 0), (2, 1)),
    ((2, 3, 1), (1, 0), (2,)),
    ((-1, 3), (1, 0), (2,)),
    ((0, 0), (1, 0), (2,)),
    ((2, 3), (1, 0, 0), (2,)),
], ids=["q=1", "q=0", "q=-2", "q=2.5", "q=1 after 2", "three entries", "negative d", "zero d",
        "three theta entries"])
def test_malformed_input_refused(k3, d, theta, qs):
    with pytest.raises(ValidationError):
        stable_counts(k3, d, theta, qs)


@st.composite
def dag_instances(draw, max_vertices, dims):
    """A quiver on up to max_vertices vertices whose arrows, parallel ones
    included, run forward in a drawn vertex order; d drawn from dims and
    theta in [-5, 5]."""
    n = draw(st.integers(1, max_vertices))
    order = draw(st.permutations(range(n)))
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    arrows = draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else []
    quiver = bq.Quiver.from_arrows(tuple(f"v{i}" for i in range(n)),
                                   [(f"a{k}", f"v{i}", f"v{j}") for k, (i, j) in enumerate(arrows)])
    d = tuple(draw(st.lists(dims, min_size=n, max_size=n).filter(any)))
    theta = tuple(draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)))
    return quiver, d, theta


def outcome(count, *args):
    """count(*args), or the text of the UnsupportedError it raises."""
    try:
        return count(*args)
    except UnsupportedError as exc:
        return f"UnsupportedError: {exc}"


@settings(max_examples=60, deadline=None)
@given(dag_instances(6, st.integers(0, 2)))
def test_counts_match_the_per_pair_reference(instance):
    """The packed pairing gives the reference recursion's counts at q = 2, 3
    and 2^(a+2), and the same refusal of a d that is not theta-coprime."""
    quiver, d, theta = instance
    idx = quiver.vertex_index
    a = sum(d[idx(x.source)] * d[idx(x.target)] for x in quiver.arrows)
    qs = (2, 3, 2 ** (a + 2))
    assert outcome(stable_counts, quiver, d, theta, qs) == \
        outcome(hn_oracle.stable_counts, quiver, d, theta, qs)


@st.composite
def twin_instances(draw):
    """A quiver on up to 4 vertices whose arrows join any ordered pair, loops and 2-cycles
    included, with d <= 2 and theta in [-5, 5]; then up to 3 planted twins.  Each copies the
    theta and the arrows of a vertex with d = 1 onto a new vertex with d = 1, a loop as a loop
    at the copy, so a looped vertex's copy is no twin."""
    n = draw(st.integers(1, 4))
    pairs = [(i, j) for i in range(n) for j in range(n)]
    arrows = draw(st.lists(st.sampled_from(pairs), max_size=2 * n))
    d = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    theta = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    d[draw(st.integers(0, n - 1))] = 1
    for _ in range(draw(st.integers(0, 3))):
        v = draw(st.sampled_from([i for i, x in enumerate(d) if x == 1]))
        w = len(d)
        arrows += [(w if s == v else s, w if t == v else t) for s, t in arrows if v in (s, t)]
        d.append(1)
        theta.append(theta[v])
    quiver = bq.Quiver.from_arrows(tuple(f"v{i}" for i in range(len(d))),
                                   [(f"a{k}", f"v{i}", f"v{j}") for k, (i, j) in enumerate(arrows)])
    return quiver, tuple(d), tuple(theta)


def twin_groups(quiver, d, theta) -> list:
    """The sizes of the groups of two or more twins, straight from the definition."""
    arrows = quiver.arrow_pairs

    def profile(i):
        return (theta[i], Counter(s for s, t in arrows if t == i),
                Counter(t for s, t in arrows if s == i))

    groups: list = []
    for i in (i for i, x in enumerate(d) if x == 1 and (i, i) not in arrows):
        group = next((g for g in groups if profile(g[0]) == profile(i)), None)
        if group:
            group.append(i)
        else:
            groups.append([i])
    return sorted(len(g) for g in groups if len(g) > 1)


def ungrouped_plan(quiver, d, theta):
    return [], hn_oracle.plan(quiver, d, theta)


@settings(max_examples=60, deadline=None)
@given(st.one_of(dag_instances(6, st.integers(0, 2)), twin_instances()))
def test_plan_groups_exactly_the_twins(instance):
    """`_plan` gives each group of twins one coordinate, which counts its vertices.  On a
    twin-free input its steps are the ungrouped reference's, step for step, refusals too."""
    quiver, d, theta = instance
    sizes = twin_groups(quiver, d, theta)
    plan = outcome(hn._plan, quiver, d, theta)
    if not sizes:
        assert plan == outcome(ungrouped_plan, quiver, d, theta)
    elif not isinstance(plan, str):
        twins, steps = plan
        assert sorted(steps[-1][0][k] for k in twins) == sizes


@settings(max_examples=150, deadline=None)
@given(twin_instances())
def test_twin_counts_match_the_ungrouped_reference(instance):
    """On quivers with planted twins, cyclic ones included, the recursion on orbits gives
    the ungrouped reference's counts at q = 2, 3 and 2^(a+2), and its refusals."""
    quiver, d, theta = instance
    a = sum(d[s] * d[t] for s, t in quiver.arrow_pairs)
    qs = (2, 3, 2 ** (a + 2))
    assert outcome(stable_counts, quiver, d, theta, qs) == \
        outcome(hn_oracle.stable_counts, quiver, d, theta, qs)


def _stable_by_count(quiver, d, theta):
    return stable_counts(quiver, d, theta, (2,))[0][1] > 0


@settings(max_examples=150, deadline=None)
@given(dag_instances(8, st.integers(0, 1)))
def test_thin_verdict_matches_the_count(instance):
    """King's criterion on a thin d, zero-dimension vertices with arrows
    included, answers as the count at q = 2 does, and refuses a d that is
    not theta-coprime with the count's own error text."""
    quiver, d, theta = instance
    assert outcome(bq.has_stable, quiver, d, theta) == outcome(_stable_by_count, quiver, d, theta)


@pytest.mark.parametrize("quiver,d,theta,stable", [
    (star(5), (0, 1, 1, 0, 0, 0), (0, 1, 0, 0, 0, 0), False),  # two leaves, no centre
    (bq.kronecker_quiver(3), (1, 1), (1, 0), True),
    (bq.kronecker_quiver(3), (1, 1), (0, 1), False),  # the sink destabilizes
    (CHAIN, (1, 1, 1), (3, 1, 0), True),
    (CHAIN, (1, 0, 1), (2, 1, 0), False),  # no arrow joins u and x
], ids=["star leaves", "K3 (1,1)", "K3 (1,1) sink", "chain (1,1,1)", "chain gap"])
def test_thin_verdict_makes_no_count(monkeypatch, quiver, d, theta, stable):
    def refuse(*args):
        raise AssertionError("stable_counts called on a thin d")

    monkeypatch.setattr(hn, "stable_counts", refuse)
    assert bq.has_stable(quiver, d, theta) is stable


def test_other_verdicts_make_one_count_at_2(monkeypatch):
    calls = []

    def spy(quiver, d, theta, qs):
        calls.append(tuple(qs))
        return stable_counts(quiver, d, theta, qs)

    monkeypatch.setattr(hn, "stable_counts", spy)
    assert bq.has_stable(bq.kronecker_quiver(3), (2, 3), (1, 0))
    assert calls == [(2,)]


@pytest.mark.parametrize("quiver,d,theta,weights", [
    (bq.kronecker_quiver(3), (3, 4), (1, 0), (2, 1, 0)),
    (bq.kronecker_quiver(3), (3, 4), (1, 0), (0, 0, 2)),
    (bq.kronecker_quiver(4), (2, 5), (1, 0), (1, 2, 2, 0)),
    (CHAIN, (1, 2, 2), (2, 1, 0), (2, 0, 1, 1)),
], ids=["K3 (3,4) distinct", "K3 (3,4) degenerate", "K4 (2,5) degenerate", "chain degenerate"])
def test_localization_sum_matches_whole_space(quiver, d, theta, weights):
    """Under degenerate weights components of positive dimension carry their
    own HN polynomials; shifted and summed they give the whole space's."""
    w = {a.name: x for a, x in zip(quiver.arrows, weights)}
    comps = [bq.analyze_component(quiver, w, beta)
             for beta in bq.enumerate_compatible(quiver, w, d, theta)]
    assert any(c.dim_component for c in comps)
    total = bq.assemble_poincare((c, bq.component_poincare(quiver, w, theta, c)) for c in comps)
    assert total == hn_poincare(quiver, d, theta, 1 - bq.euler_form(quiver, d, d))


@st.composite
def acyclic_instances(draw):
    """A quiver on up to 4 vertices with arrows i -> j for i < j only, a
    dimension vector d <= 3 and a stability theta in [-5, 5]."""
    n = draw(st.integers(1, 4))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    arrows = draw(st.lists(st.sampled_from(pairs), max_size=5)) if pairs else []
    quiver = bq.Quiver.from_arrows(tuple(f"v{i}" for i in range(n)),
                                   [(f"a{k}", f"v{i}", f"v{j}") for k, (i, j) in enumerate(arrows)])
    d = tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    theta = tuple(draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)))
    return quiver, d, theta


@settings(max_examples=60, deadline=None)
@given(acyclic_instances())
def test_digits_match_lagrange(instance):
    quiver, d, theta = instance
    assume(any(d) and bq.is_coprime(quiver, d, theta))
    dim = 1 - bq.euler_form(quiver, d, d)
    assert stable_poincare(quiver, d, theta, dim) == hn_poincare(quiver, d, theta, dim)


def test_one_two_size_count_per_component(monkeypatch):
    quiver, d, theta = bq.kronecker_quiver(3), (3, 4), (1, 0)
    w = {"a1": 0, "a2": 0, "a3": 2}
    comps = [bq.analyze_component(quiver, w, beta)
             for beta in bq.enumerate_compatible(quiver, w, d, theta)]
    calls = []

    def spy(quiver, d, theta, qs):
        calls.append(tuple(qs))
        return stable_counts(quiver, d, theta, qs)

    monkeypatch.setattr(betti, "stable_counts", spy)
    for c in comps:
        bq.component_poincare(quiver, w, theta, c)
    positive = [c for c in comps if not (c.isolated and c.dim_component == 0)]
    assert positive and len(calls) == len(positive)
    assert all(len(qs) == 2 and qs[0] == 2 for qs in calls)


class TestDigitReader:
    def test_k3_digits(self):
        golden = PoincarePolynomial.from_dict({0: 1, 2: 1, 4: 3, 6: 3, 8: 3, 10: 1, 12: 1})
        assert interpolate_from_counts([(2, 183), (256, golden.evaluate_q(256))], 6) == golden

    @pytest.mark.parametrize("dim", [-3, 0, 5])
    def test_zero_count_is_the_zero_polynomial(self, dim):
        assert interpolate_from_counts([(2, 0), (4, 0)], dim) == PoincarePolynomial(())

    @pytest.mark.parametrize("counts", [
        [(2, 5), (4, 7)],          # q = 4 does not exceed the count 5 at q = 2
        [(2, 1), (2, 1), (4, 1)],  # duplicate size
        [(2, 1)],                  # fewer than two counts
        [],
        [(2, 1), (8, -3)],         # negative: the digit loop would never end
        [(2, -1), (8, 1)],
    ], ids=["q too small", "duplicate", "one count", "no count", "negative at Q",
            "negative at 2"])
    def test_validation(self, counts):
        with pytest.raises(ValidationError):
            interpolate_from_counts(counts, 3)

    @pytest.mark.parametrize("counts,dim", [
        ([(2, 3), (4, 5)], 0),            # 5 = 1 + 4 has a digit at q^1
        ([(2, 3), (8, 9)], -1),
        ([(2, 3), (3, 5), (8, 9)], 1),    # the digits 1 + q predict 4 at q = 3
    ], ids=["digit above dim", "negative dim", "other count disagrees"])
    def test_inconsistency(self, counts, dim):
        with pytest.raises(InconsistencyError):
            interpolate_from_counts(counts, dim)
