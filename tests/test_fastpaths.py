"""Each fast path of the enumeration pipeline against a plain reference route.

* `weight_support` (one pass over pairs of support entries) against
  `weight_dimension` evaluated over every candidate character.
* The filtered `enumerate_compatible` (integer-tuple Euler rejection and the
  isomorphism-keyed `has_stable` cache) against every candidate class, kept
  or rejected, filtered by `euler_form_covering` and an uncached `has_stable`
  call per class.
* `enumerate_compatible`, which finds each support shape's surviving fills
  once, against the loop that fills every support on its own, for the kept
  classes and for the kept and rejected ones together, and on quivers with
  loops and 2-cycles, where both routes must refuse a cyclic support quiver.
  Rank-n weights go through `reduce_to_rank_one` as the CLI's do, and the
  classes are decoded before they meet the tuple-native reference; at
  signed weights up to the code bound, their tangent data also meets a
  tuple-arithmetic Euler form.
* `generic_rank1_weights` against the full torus, arrow k acting by the
  k-th coordinate: the same classes, weight tables and component dimensions.
* `shape_key` against brute-force isomorphism of small labelled trees.
"""

import functools
import itertools

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import bbquiver as bq
from bbquiver import hn
from bbquiver.covering import CoveringDimVector, reduce_to_rank_one, shape_key
from covering_oracle import candidates, char_add, char_sub, decoded, enumerate_per_support, reduced


def double_chain():
    """u => v => x: the three-vertex chain with doubled arrows."""
    return bq.Quiver.from_arrows(("u", "v", "x"), [("a1", "u", "v"), ("a2", "u", "v"),
                                                   ("b1", "v", "x"), ("b2", "v", "x")])


def star(leaves):
    return bq.Quiver.from_arrows(("c", *(f"p{k}" for k in range(leaves))),
                                 [(f"f{k}", "c", f"p{k}") for k in range(leaves)])


def generic(quiver):
    return quiver, bq.generic_rank1_weights(quiver)


CASES = {
    "K3 (2,3)": (*generic(bq.kronecker_quiver(3)), (2, 3), (1, 0)),
    "K4 (2,5)": (*generic(bq.kronecker_quiver(4)), (2, 5), (1, 0)),
    "K2 (1,2) rank 2": (bq.kronecker_quiver(2),
                        bq.WeightAssignment(2, {"a1": (1, 0), "a2": (0, 1)}), (1, 2), (1, 0)),
    "star5": (*generic(star(5)), (2, 1, 1, 1, 1, 1), (1, 0, 0, 0, 0, 0)),
    "chain (1,2,2)": (*generic(double_chain()), (1, 2, 2), (2, 1, 0)),
    "K3 (2,3) trivial weights": (bq.kronecker_quiver(3),
                                 {"a1": 1, "a2": 1, "a3": 1},
                                 (2, 3), (1, 0)),
}


def looped_k2(loop_at, loop_weight):
    """K2 (weights 13 and 1) with a loop of weight `loop_weight` at one vertex."""
    quiver = bq.Quiver.from_arrows(("x", "y"), [("a1", "x", "y"), ("a2", "x", "y"),
                                                ("l", loop_at, loop_at)])
    return quiver, {"a1": 13, "a2": 1, "l": loop_weight}


def two_cycle(back):
    """x => y with a third arrow y -> x of weight `back`; -1 closes a covering cycle."""
    return bq.Quiver.from_arrows(("x", "y"), [("a", "x", "y"), ("c", "x", "y"),
                                              ("b", "y", "x")]), \
        {"a": 1, "c": 3, "b": back}


# Quivers with loops and cycles, and whether their classes reach a cyclic
# support quiver, which the existence test refuses.
CYCLIC_CASES = {
    "K2 + weight-0 loop, d = (1,2)": (*looped_k2("x", 0), (1, 2), (1, 0), True),
    "K2 + weight-0 loop at y, d = (1,2)": (*looped_k2("y", 0), (1, 2), (1, 0), True),
    "K2 + weight-1 loop, d = (1,2)": (*looped_k2("y", 1), (1, 2), (1, 0), False),
    "2-cycle, cancelling weights, d = (2,1)": (*two_cycle(-1), (2, 1), (1, 0), True),
    "2-cycle, d = (2,1)": (*two_cycle(2), (2, 1), (1, 0), False),
}


@functools.lru_cache(maxsize=None)
def reduced_case(name):
    """(quiver, rank-1 weights, d, theta, codec): the named case through `reduce_to_rank_one`."""
    return reduced(*CASES[name])


@functools.lru_cache(maxsize=None)
def unfiltered(name):
    return candidates(*reduced_case(name)[:4])


def enumerated(quiver, w, d, theta, use_filter):
    """The kept classes, or with `use_filter` false the kept and rejected ones,
    for weights of any rank, as the CLI finds them: through
    `reduce_to_rank_one`, with the characters decoded."""
    *case, codec = reduced(quiver, w, d, theta)
    found = bq.enumerate_compatible(*case) if use_filter else candidates(*case)
    return [decoded(codec, beta) for beta in found]


def outcome(fn, *args):
    try:
        return fn(*args)
    except (bq.InconsistencyError, bq.UnsupportedError) as exc:
        return ("raised", type(exc).__name__, str(exc))


def reference_weight_support(quiver, w, beta):
    """weight_dimension over every difference of arrow-linked or same-vertex
    support characters, in sorted order, keeping the nonzero positive ones."""
    cands = set()
    for (v, (xi,)), _ in beta.entries:
        for (u, (eta,)), _ in beta.entries:
            if u == v:
                cands.add(xi - eta)
            for a in quiver.arrows_from(v):
                if a.target == u:
                    cands.add(xi + w[a.name] - eta)
    table = {}
    for chi in sorted(cands):
        val = bq.weight_dimension(quiver, w, beta, chi)
        if chi and val > 0:
            table[chi] = val
    return table


def tuple_weight_table(quiver, w, beta):
    """(nonzero character -> weight-space dimension, zero-weight dimension) of
    a class under weights of any rank, by tuple arithmetic: the dimension at
    chi is delta(chi, 0) - <beta, s_{-chi}(beta)>, with the Euler form written
    out as in test_codes' `test_euler_form_matches_tuple_arithmetic`."""
    supp = dict(beta.entries)

    def euler(gamma):  # <beta, gamma>
        return sum(m * gamma.get(cv, 0) for cv, m in supp.items()) - sum(
            m * gamma.get((a.target, char_add(xi, w.weights[a.name])), 0)
            for (v, xi), m in supp.items() for a in quiver.arrows_from(v))

    cands = {char_sub(xi, eta) for _, xi in supp for _, eta in supp} | {
        char_sub(char_add(xi, w.weights[a.name]), eta)
        for v, xi in supp for a in quiver.arrows_from(v) for _, eta in supp}
    zero = (0,) * w.rank
    table = {}
    for chi in sorted(cands - {zero}):
        # s_{-chi}(beta) at (i, xi) is beta at (i, xi - chi)
        val = -euler({(v, char_add(xi, chi)): m for (v, xi), m in supp.items()})
        if val:
            table[chi] = val
    return table, 1 - euler(supp)


class TestWeightSupport:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["K3 (2,3)", "K4 (2,5)", "K2 (1,2) rank 2"]), st.data())
    def test_matches_weight_dimension(self, name, data):
        quiver, w = reduced_case(name)[:2]
        classes = unfiltered(name)
        beta = classes[data.draw(st.integers(0, len(classes) - 1))]
        beta = bq.shift(beta, data.draw(st.integers(-9, 9)))
        assert outcome(bq.weight_support, quiver, w, beta) == \
            outcome(reference_weight_support, quiver, w, beta)

    def test_both_outcomes_occur(self):
        quiver, w = reduced_case("K4 (2,5)")[:2]
        results = [outcome(bq.weight_support, quiver, w, b) for b in unfiltered("K4 (2,5)")]
        assert any(isinstance(r, dict) for r in results)
        assert any(isinstance(r, tuple) for r in results)


def reference_filter(quiver, w, d, theta, classes):
    kept = []
    for beta in classes:
        if 1 - bq.euler_form_covering(quiver, w, beta, beta) < 0:
            continue
        sq = bq.support_quiver(quiver, w, beta)
        if hn.has_stable(sq.quiver, sq.dims, sq.lift_stability(theta)):
            kept.append(beta)
    return kept


class TestFilter:
    @pytest.mark.parametrize("name", ["K3 (2,3)", "K4 (2,5)", "star5", "chain (1,2,2)",
                                      "K3 (2,3) trivial weights"])
    def test_matches_uncached_reference(self, name):
        quiver, w, d, theta = CASES[name]
        mine = bq.enumerate_compatible(quiver, w, d, theta)
        assert mine == reference_filter(quiver, w, d, theta, unfiltered(name))
        assert mine

    def test_trivial_weights_reach_non_tree_supports(self):
        quiver, w, d, theta = CASES["K3 (2,3) trivial weights"]
        classes = unfiltered("K3 (2,3) trivial weights")
        shapes = [bq.support_quiver(quiver, w, b).quiver for b in classes
                  if 1 - bq.euler_form_covering(quiver, w, b, b) >= 0]
        assert any(len(s.arrows) != len(s.vertices) - 1 for s in shapes)

    def test_one_has_stable_call_per_isomorphism_class(self, monkeypatch):
        calls = []
        original = hn.has_stable
        monkeypatch.setattr(hn, "has_stable", lambda *a: calls.append(a) or original(*a))
        quiver, w, d, theta = CASES["K4 (2,5)"]
        bq.enumerate_compatible(quiver, w, d, theta)
        assert len(calls) == 3


@st.composite
def acyclic_cases(draw):
    """A quiver on up to 4 vertices with up to two arrows i -> j for each
    i < j, a dimension vector, a theta, and rank-1 weights in 0..2 (equal
    weights give parallel links) or rank-2 weights in {0, 1}^2."""
    n = draw(st.integers(1, 4))
    arrows = [(f"a{i}{j}{m}", f"v{i}", f"v{j}") for i in range(n) for j in range(i + 1, n)
              for m in range(draw(st.integers(0, 2)))]
    quiver = bq.Quiver.from_arrows(tuple(f"v{k}" for k in range(n)), arrows)
    rank = draw(st.integers(1, 2))
    coord = st.integers(0, 2 if rank == 1 else 1)
    w = bq.WeightAssignment(rank, {a[0]: tuple(draw(coord) for _ in range(rank)) for a in arrows})
    d = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(any)))
    theta = tuple(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
    return quiver, w, d, theta


@st.composite
def signed_rank_n_cases(draw):
    """A quiver on up to 3 vertices with up to two arrows i -> j for each
    i < j, a dimension vector, a theta, and rank-2 or rank-3 weights with
    signed coordinates in -3..3.  A support then spans up to the code bound
    |d| max|w_a| that `reduce_to_rank_one` sizes, in every coordinate."""
    n = draw(st.integers(1, 3))
    arrows = [(f"a{i}{j}{m}", f"v{i}", f"v{j}") for i in range(n) for j in range(i + 1, n)
              for m in range(draw(st.integers(0, 2)))]
    quiver = bq.Quiver.from_arrows(tuple(f"v{k}" for k in range(n)), arrows)
    rank = draw(st.integers(2, 3))
    w = bq.WeightAssignment(rank, {a[0]: tuple(draw(st.integers(-3, 3)) for _ in range(rank))
                                   for a in arrows})
    d = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(any)))
    theta = tuple(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
    return quiver, w, d, theta


# a support of total 5 spanning 4 in one coordinate: a code bound sized from the
# weights alone, not from |d|, lets two of its characters share a code
AT_THE_BOUND = (bq.Quiver.from_arrows(("v0", "v1", "v2"), [("a010", "v0", "v1"),
                                                         ("a020", "v0", "v2"),
                                                         ("a021", "v0", "v2")]),
                bq.WeightAssignment(3, {"a010": (0, 1, 0), "a020": (0, -1, 0),
                                        "a021": (0, 1, 0)}), (2, 1, 2), (1, 0, 0))


@st.composite
def cyclic_cases(draw):
    """A quiver on up to 3 vertices with up to two arrows i -> j for each
    ordered pair, so loops and 2-cycles, a dimension vector, a theta, and
    rank-1 weights in -1..1, so weight-0 loops and 2-cycles whose weights
    cancel close cycles in the covering."""
    n = draw(st.integers(1, 3))
    arrows = [(f"a{i}{j}{m}", f"v{i}", f"v{j}") for i in range(n) for j in range(n)
              for m in range(draw(st.integers(0, 2 if i < j else 1)))]
    quiver = bq.Quiver.from_arrows(tuple(f"v{k}" for k in range(n)), arrows)
    w = {a[0]: draw(st.integers(-1, 1)) for a in arrows}
    d = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(any)))
    theta = tuple(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
    return quiver, w, d, theta


class TestShapeCache:
    """Fills found once per support shape against the loop over supports."""

    @settings(max_examples=120, deadline=None)
    @given(acyclic_cases(), st.booleans())
    def test_matches_per_support_reference(self, case, use_filter):
        quiver, w, d, theta = case
        assume(bq.is_coprime(quiver, d, theta))
        assert enumerated(quiver, w, d, theta, use_filter) == \
            enumerate_per_support(quiver, w, d, theta, use_filter)

    @settings(max_examples=120, deadline=None)
    @given(signed_rank_n_cases())
    @example(AT_THE_BOUND)
    def test_signed_rank_n_weights_at_the_bound(self, case):
        quiver, w, d, theta = case
        assume(bq.is_coprime(quiver, d, theta))
        _, w1, _, _, codec = reduced(quiver, w, d, theta)
        classes = bq.enumerate_compatible(quiver, w1, d, theta)
        betas = [decoded(codec, beta) for beta in classes]
        assert betas == enumerate_per_support(quiver, w, d, theta)
        mine, tuples = [], []
        for beta, rank_n in zip(classes, betas):
            comp = bq.analyze_component(quiver, w1, beta)
            table, zero = tuple_weight_table(quiver, w, rank_n)
            assert {codec.decode(chi): m for chi, m in comp.weight_table.items()} == table
            mine.append((comp.att_plus, comp.att_minus, comp.dim_component))
            sides = [0, 0]
            for chi, m in table.items():
                sides[next(x for x in chi if x) < 0] += m
            tuples.append((*sides, zero))
        assert sorted(mine) == sorted(tuples)

    @pytest.mark.parametrize("name", list(CASES))
    @pytest.mark.parametrize("use_filter", [True, False])
    def test_named_cases(self, name, use_filter):
        quiver, w, d, theta = CASES[name]
        assert enumerated(quiver, w, d, theta, use_filter) == \
            enumerate_per_support(quiver, w, d, theta, use_filter)

    @settings(max_examples=120, deadline=None)
    @given(cyclic_cases())
    def test_loops_and_cycles_match_per_support_reference(self, case):
        quiver, w, d, theta = case
        assume(bq.is_coprime(quiver, d, theta))
        assert outcome(bq.enumerate_compatible, quiver, w, d, theta) == \
            outcome(enumerate_per_support, quiver, w, d, theta)

    @pytest.mark.parametrize("name", list(CYCLIC_CASES))
    def test_named_loop_and_cycle_cases(self, name):
        *case, cyclic = CYCLIC_CASES[name]
        mine = outcome(bq.enumerate_compatible, *case)
        assert mine == outcome(enumerate_per_support, *case)
        assert (mine[0] == "raised") == cyclic
        if cyclic:
            assert mine[1] == "UnsupportedError"
        else:
            assert mine


GENERIC_CASES = {  # the benchmark's instances, with its theta
    "K3 (2,3)": (bq.kronecker_quiver(3), (2, 3), (1, 0)),
    "K4 (2,5)": (bq.kronecker_quiver(4), (2, 5), (1, 0)),
    "K3 (3,4)": (bq.kronecker_quiver(3), (3, 4), (1, 0)),
    "K5 (2,5)": (bq.kronecker_quiver(5), (2, 5), (1, 0)),
    "K6 (2,3)": (bq.kronecker_quiver(6), (2, 3), (1, 0)),
    "K2 (3,2)": (bq.kronecker_quiver(2), (3, 2), (1, 0)),
    "star5": (star(5), (2,) + (1,) * 5, (1,) + (0,) * 5),
    "star7": (star(7), (2,) + (1,) * 7, (1,) + (0,) * 7),
    "chain (1,2,2)": (double_chain(), (1, 2, 2), (2, 1, 0)),
}


class TestGenericWeights:
    """`generic_rank1_weights` has the full torus's fixed locus: its base
    B = 5 + 4 (max multiplicity) separates the characters the supports reach."""

    @pytest.mark.parametrize("name", list(GENERIC_CASES))
    def test_the_full_torus_has_the_same_classes_and_weights(self, name):
        quiver, d, theta = GENERIC_CASES[name]
        generic = bq.generic_rank1_weights(quiver)
        n = len(quiver.arrows)  # the full torus: arrow k acts by the k-th coordinate
        full, codec = reduce_to_rank_one(bq.WeightAssignment(n, {
            a.name: tuple(int(j == k) for j in range(n)) for k, a in enumerate(quiver.arrows)}), d)
        pairing = [generic[a.name] for a in quiver.arrows]

        def paired(code):  # a full-torus character paired with the generic weights
            return sum(x * g for x, g in zip(codec.decode(code), pairing))

        expected = {beta: bq.analyze_component(quiver, generic, beta)
                    for beta in bq.enumerate_compatible(quiver, generic, d, theta)}
        found = {}
        for beta in bq.enumerate_compatible(quiver, full, d, theta):
            comp = bq.analyze_component(quiver, full, beta)
            table = {}
            for chi, m in comp.weight_table.items():
                table[paired(chi)] = table.get(paired(chi), 0) + m
            moved = CoveringDimVector.from_dict({(v, paired(c)): m for (v, (c,)), m in beta.entries})
            found[bq.canonicalize(moved)] = (table, comp.dim_component)
        assert found.keys() == expected.keys()
        for beta, comp in expected.items():
            assert found[beta] == (comp.weight_table, comp.dim_component), beta


def isomorphic(a, b):
    """Brute force: a vertex bijection preserving labels and the arrow multiset."""
    (dims_a, theta_a, arrows_a), (dims_b, theta_b, arrows_b) = a, b
    n = len(dims_a)
    if n != len(dims_b):
        return False
    target = sorted(arrows_b)
    for p in itertools.permutations(range(n)):
        if all((dims_a[k], theta_a[k]) == (dims_b[p[k]], theta_b[p[k]]) for k in range(n)) \
                and sorted((p[s], p[t]) for s, t in arrows_a) == target:
            return True
    return False


@st.composite
def labelled_trees(draw):
    n = draw(st.integers(1, 6))
    dims = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    theta = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    arrows = []
    for k in range(1, n):
        parent = draw(st.integers(0, k - 1))
        arrows.append((parent, k) if draw(st.booleans()) else (k, parent))
    return dims, theta, arrows


def relabel(tree, rng):
    dims, theta, arrows = tree
    n = len(dims)
    p = list(range(n))
    rng.shuffle(p)
    new_dims, new_theta = [0] * n, [0] * n
    for k in range(n):
        new_dims[p[k]], new_theta[p[k]] = dims[k], theta[k]
    new_arrows = [(p[s], p[t]) for s, t in arrows]
    rng.shuffle(new_arrows)
    return new_dims, new_theta, new_arrows


class TestShapeKey:
    @settings(max_examples=200, deadline=None)
    @given(labelled_trees(), st.randoms(use_true_random=False))
    def test_invariant_under_relabelling(self, tree, rng):
        assert shape_key(*tree) == shape_key(*relabel(tree, rng))

    @settings(max_examples=200, deadline=None)
    @given(labelled_trees(), st.data())
    def test_separates_reversed_arrow_or_swapped_labels(self, tree, data):
        dims, theta, arrows = tree
        n = len(dims)
        if n > 1 and data.draw(st.booleans()):
            k = data.draw(st.integers(0, n - 2))
            arrows = arrows[:k] + [arrows[k][::-1]] + arrows[k + 1:]
        elif n > 1:
            i, j = data.draw(st.permutations(range(n)))[:2]
            dims, theta = list(dims), list(theta)
            dims[i], dims[j] = dims[j], dims[i]
            theta[i], theta[j] = theta[j], theta[i]
        other = (dims, theta, arrows)
        assert (shape_key(*tree) == shape_key(*other)) == isomorphic(tree, other)

    def test_reversal_and_swap_on_a_path(self):
        path = ([1, 2, 1], [1, 0, 0], [(0, 1), (1, 2)])
        assert shape_key(*path) != shape_key([1, 2, 1], [1, 0, 0], [(1, 0), (1, 2)])
        assert shape_key(*path) != shape_key([2, 1, 1], [0, 1, 0], [(0, 1), (1, 2)])
        assert shape_key(*path) == shape_key([1, 2, 1], [0, 0, 1], [(2, 1), (1, 0)])

    def test_non_tree_keys_by_exact_arrow_list(self):
        double = ([1, 1], [1, 0], [(0, 1), (0, 1)])
        assert shape_key(*double) == shape_key([1, 1], [1, 0], [(0, 1), (0, 1)])
        assert shape_key(*double) != shape_key([1, 1], [1, 0], [(1, 0), (1, 0)])
