"""Each fast path of the enumeration pipeline against a plain reference route.

* `weight_support` (one pass over pairs of support entries) against
  `weight_dimension` evaluated over every candidate character.
* The filtered `enumerate_compatible` (integer-tuple Euler rejection and the
  isomorphism-keyed `has_stable` cache) against the unfiltered classes kept by
  `euler_form_covering` and an uncached `has_stable` call per class.
* `shape_key` against brute-force isomorphism of small labelled trees.
"""

import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

import bbquiver as bq
from bbquiver import hn
from bbquiver.covering import char_add, char_sub, shape_key


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
                                 bq.WeightAssignment(1, {"a1": 1, "a2": 1, "a3": 1}),
                                 (2, 3), (1, 0)),
}


@functools.lru_cache(maxsize=None)
def unfiltered(name):
    quiver, w, d, theta = CASES[name]
    return bq.enumerate_compatible(quiver, w, d, theta, use_existence_filter=False)


def outcome(fn, *args):
    try:
        return fn(*args)
    except bq.InconsistencyError as exc:
        return ("raised", str(exc))


def reference_weight_support(quiver, w, beta):
    """weight_dimension over every difference of arrow-linked or same-vertex
    support characters, in sorted order, keeping the nonzero positive ones."""
    cands = set()
    for (v, xi), _ in beta.entries:
        for (u, eta), _ in beta.entries:
            if u == v:
                cands.add(char_sub(xi, eta))
            for a in quiver.arrows_from(v):
                if a.target == u:
                    cands.add(char_sub(char_add(xi, w.of(a)), eta))
    table = {}
    for chi in sorted(cands):
        val = bq.weight_dimension(quiver, w, beta, chi)
        if chi != w.zero() and val > 0:
            table[chi] = val
    return table


class TestWeightSupport:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["K3 (2,3)", "K4 (2,5)", "K2 (1,2) rank 2"]), st.data())
    def test_matches_weight_dimension(self, name, data):
        quiver, w = CASES[name][:2]
        classes = unfiltered(name)
        beta = classes[data.draw(st.integers(0, len(classes) - 1))]
        beta = bq.shift(beta, data.draw(st.tuples(*[st.integers(-9, 9)] * w.rank)))
        assert outcome(bq.weight_support, quiver, w, beta) == \
            outcome(reference_weight_support, quiver, w, beta)

    def test_both_outcomes_occur(self):
        quiver, w = CASES["K4 (2,5)"][:2]
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
