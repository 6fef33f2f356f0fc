"""Integer character codes and the boundary around them.

* `CharCodec` against tuple arithmetic: round trip, addition and
  lexicographic order, for ranks 1-3 within the bound, and refusal outside it.
* Kernels give the values of tuple arithmetic on rank-n weights reduced by
  `reduce_to_rank_one`, the code bound being sized from d and the weights.
* `reduce_to_rank_one` returns a plain {arrow: int} map, which every kernel
  reads: it leaves rank-1 weights as they are and codes rank-n ones as their
  pairing with the one-parameter subgroup.
* The trusted constructor against the validating one, on enumerator output.
* The code-sign sides of `analyze_component` against the first nonzero
  coordinate of each character in `weight_table`.
* Integer slope scores against `Fraction` slopes, the HN existence verdict
  against the Schofield oracle, and the arrow index.
"""

import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

import bbquiver as bq
from bbquiver.covering import CharCodec, CoveringDimVector, reduce_to_rank_one
from covering_oracle import candidates, char_add, char_sub, is_connected, reduced, wide
from slope_oracle import slope

pytest.importorskip("numpy")  # the Schofield oracle below needs it
import schofield_oracle


@st.composite
def codec_and_chars(draw, count):
    rank = draw(st.integers(1, 3))
    bound = draw(st.integers(0, 60))
    char = st.tuples(*[st.integers(-bound, bound)] * rank)
    return CharCodec(rank, bound), [draw(char) for _ in range(count)]


class TestCharCodec:
    @settings(max_examples=300, deadline=None)
    @given(codec_and_chars(1))
    def test_round_trip(self, drawn):
        codec, (chi,) = drawn
        assert codec.decode(codec.encode(chi)) == chi

    @settings(max_examples=300, deadline=None)
    @given(codec_and_chars(3))
    def test_codes_add(self, drawn):
        codec, (a, b, c) = drawn
        code = codec.encode(a) + codec.encode(b) - codec.encode(c)
        assert codec.decode(code) == char_sub(char_add(a, b), c)

    @settings(max_examples=300, deadline=None)
    @given(codec_and_chars(6))
    def test_codes_order_like_tuples(self, drawn):
        codec, (a, b, c, x, y, z) = drawn
        assert (codec.encode(a) < codec.encode(b)) == (a < b)
        # also on sums of three, the widest characters the kernels form
        left, right = char_sub(char_add(a, b), c), char_sub(char_add(x, y), z)
        left_code = codec.encode(a) + codec.encode(b) - codec.encode(c)
        right_code = codec.encode(x) + codec.encode(y) - codec.encode(z)
        assert (left_code < right_code) == (left < right)
        assert (left_code == right_code) == (left == right)

    @settings(max_examples=200, deadline=None)
    @given(codec_and_chars(2))
    def test_pairing_and_origin(self, drawn):
        codec, (chi, origin) = drawn
        base = 6 * codec.bound + 1
        lam = [base ** (codec.rank - 1 - i) for i in range(codec.rank)]
        assert codec.encode(chi) == sum(l * c for l, c in zip(lam, chi))
        if codec.bound:  # a character measured from an origin codes as the difference
            half = CharCodec(codec.rank, 2 * codec.bound)
            assert half.encode(char_sub(chi, origin)) == half.encode(chi) - half.encode(origin)

    def test_rank_one_code_is_the_coordinate(self):
        codec = CharCodec(1, 7)
        assert [codec.encode((x,)) for x in range(-7, 8)] == list(range(-7, 8))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 30), st.data())
    def test_outside_the_bound_raises(self, rank, bound, data):
        codec = CharCodec(rank, bound)
        chi = list(data.draw(st.tuples(*[st.integers(-bound, bound)] * rank)))
        k = data.draw(st.integers(0, rank - 1))
        chi[k] = data.draw(st.sampled_from([bound + 1, -bound - 1, 10 * bound + 5]))
        with pytest.raises(bq.UnsupportedError):
            codec.encode(tuple(chi))
        with pytest.raises(bq.UnsupportedError):
            codec.decode((6 * bound + 1) ** rank)


RANK2 = bq.WeightAssignment(2, {"a1": (1, 0), "a2": (0, 1)})


class TestWideClasses:
    """Rank-n weights reach the kernels only through `reduce_to_rank_one`, whose
    code bound is sized from d and the largest weight coordinate; there the
    kernels give the values of tuple arithmetic.  On rank-1 weights a class of
    any width, or a character of any size, is plain integer arithmetic."""

    def test_kernels_give_the_tuple_values(self):
        """`wide` has total 2; reduced for d = (7, 7) its bound 14 covers
        (0, 13), which then keeps a code of its own, apart from (1, 0)'s."""
        k2, w, *_, codec = reduced(bq.kronecker_quiver(2), RANK2, (7, 7), (1, 0))
        wide = CoveringDimVector.from_dict({("i", codec.encode((0, 0))): 1,
                                            ("j", codec.encode((0, 13))): 1})
        assert codec.encode((0, 13)) != codec.encode((1, 0))
        for fn in (bq.weight_support, bq.analyze_component):
            with pytest.raises(bq.InconsistencyError):  # zero weight: 1 - 2 < 0
                fn(k2, w, wide)
        sq = bq.support_quiver(k2, w, wide)
        assert sq.quiver.arrows == () and sq.dims == (1, 1)
        assert [(v, codec.decode(c)) for v, c in sq.covering_vertices] == \
            [("i", (0, 0)), ("j", (0, 13))]
        assert bq.euler_form_covering(k2, w, wide, wide) == 2
        assert bq.weight_dimension(k2, w, wide, codec.encode((1, 0))) == 0
        assert bq.weight_dimension(k2, w, wide, codec.encode((0, -13))) == 0

    def test_is_connected_says_no(self):
        beta = wide({("i", (0, 0)): 1, ("j", (0, 13)): 1}.items())
        assert not is_connected(bq.kronecker_quiver(2), RANK2, beta)

    def test_far_characters_have_zero_weight_space(self):
        k2, w, *_, codec = reduced(bq.kronecker_quiver(2), RANK2, (1, 1), (1, 0))
        beta = CoveringDimVector.from_dict({("i", 0): 1, ("j", codec.encode((1, 0))): 1})
        far = -1000 * (6 * codec.bound + 1) + 500  # the pairing of (-1000, 500), past the bound
        assert bq.weight_dimension(k2, w, beta, -far) == 0
        assert bq.euler_form_covering(k2, w, beta, bq.shift(beta, far)) == 0
        rank1 = {"a1": 1, "a2": 2}
        beta = CoveringDimVector.from_dict({("i", 0): 1, ("j", 1): 1})
        assert bq.weight_dimension(k2, rank1, beta, 10 ** 6) == 0
        assert bq.weight_dimension(k2, rank1, beta, 1) == 1

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda rank: st.tuples(
        st.just(rank),
        st.lists(st.tuples(*[st.integers(-3, 3)] * rank), min_size=2, max_size=2),
        *[st.dictionaries(st.tuples(st.sampled_from("ij"),
                                    st.tuples(*[st.integers(-40, 40)] * rank)),
                          st.integers(1, 2), max_size=4)] * 2)))
    def test_euler_form_matches_tuple_arithmetic(self, drawn):
        rank, (w1, w2), beta, gamma = drawn
        k2 = bq.kronecker_quiver(2)
        # d = (20, 20) sizes the bound to at least 40, which covers the drawn characters
        w, codec = reduce_to_rank_one(bq.WeightAssignment(rank, {"a1": w1, "a2": w2}), (20, 20))
        expected = sum(m * gamma.get(cv, 0) for cv, m in beta.items()) - sum(
            m * gamma.get(("j", char_add(xi, wa)), 0)
            for (v, xi), m in beta.items() if v == "i" for wa in (w1, w2))

        def coded(support):
            return CoveringDimVector.from_dict({(v, codec.encode(xi)): m
                                                for (v, xi), m in support.items()})

        assert bq.euler_form_covering(k2, w, coded(beta), coded(gamma)) == expected

    def test_shifted_classes_are_coded_from_their_least_character(self):
        """A class far from 0 under the reduced weights has the tangent data of
        the class at 0: the kernels take differences of characters only."""
        k2, w, *_, codec = reduced(bq.kronecker_quiver(2), RANK2, (1, 1), (1, 0))
        beta = CoveringDimVector.from_dict({("i", 0): 1, ("j", codec.encode((1, 0))): 1})
        far = bq.shift(beta, -1000 * (6 * codec.bound + 1) + 500)
        assert bq.weight_support(k2, w, far) == bq.weight_support(k2, w, beta)
        assert bq.euler_form_covering(k2, w, far, far) == 1

    def test_the_zero_class_still_has_a_codec(self):
        k2, w, *_, codec = reduced(bq.kronecker_quiver(2), RANK2, (1, 1), (1, 0))
        comp = bq.analyze_component(k2, w, CoveringDimVector(()))
        assert (comp.weight_table, comp.att_plus, comp.att_minus, comp.dim_component) == \
            ({}, 0, 0, 1)
        assert codec.rank == 2
        assert is_connected(k2, RANK2, wide(()))


RANK2_K3 = bq.WeightAssignment(2, {"a1": (1, 0), "a2": (0, 1), "a3": (1, 1)})
KERNELS = {  # each kernel on K3 (2,3), given the weights and a class
    "enumerate_compatible": lambda k3, w, beta: bq.enumerate_compatible(k3, w, (2, 3), (1, 0)),
    "analyze_component": lambda k3, w, beta: bq.analyze_component(k3, w, beta),
    "weight_dimension": lambda k3, w, beta: bq.weight_dimension(k3, w, beta, 1),
    "support_quiver": lambda k3, w, beta: bq.support_quiver(k3, w, beta),
    "euler_form_covering": lambda k3, w, beta: bq.euler_form_covering(k3, w, beta, beta),
    "build_fixed_rep": lambda k3, w, beta: bq.build_fixed_rep(k3, w, beta),
    "label_to_beta": lambda k3, w, beta: bq.label_to_beta(bq.Label1(2, 1, 2, (3,), 3, (2,)), w, k3),
}


class TestReduction:
    """Rank-n weights reach a kernel only through `reduce_to_rank_one`, as the
    {arrow: int} map of their codes."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda rank: st.lists(
        st.tuples(*[st.integers(-3, 3)] * rank), min_size=3, max_size=3)))
    def test_every_kernel_reads_the_reduced_codes(self, weights):
        k3 = bq.kronecker_quiver(3)
        rank_n = bq.WeightAssignment(len(weights[0]), dict(zip(("a1", "a2", "a3"), weights)))
        w, codec = reduce_to_rank_one(rank_n, (2, 3))
        assert type(w) is dict and all(type(c) is int for c in w.values())
        assert w == {a: codec.encode(chi) for a, chi in rank_n.weights.items()}
        beta = bq.enumerate_compatible(k3, w, (2, 3), (1, 0))[-1]
        for kernel in KERNELS.values():
            kernel(k3, w, beta)

    def test_rank_one_weights_pass_unchanged(self, k3, w3):
        w, codec = reduce_to_rank_one(bq.WeightAssignment(1, w3), (2, 3))
        assert w == w3 and codec.rank == 1
        assert [codec.decode(w[a.name]) for a in k3.arrows] == [(w3[a.name],) for a in k3.arrows]

    def test_codes_are_the_pairing_with_the_subgroup(self):
        w, codec = reduce_to_rank_one(RANK2_K3, (2, 3))
        base = 6 * codec.bound + 1
        assert codec.bound == 5
        assert w == {"a1": base, "a2": 1, "a3": base + 1}


def neg_weights():
    return {"a1": -3, "a2": 5, "a3": 0}


ENUMERATED = {
    "K3 (2,3) generic": (bq.kronecker_quiver(3), None, (2, 3), (1, 0)),
    "K3 (2,3) rank 2": (bq.kronecker_quiver(3),
                        bq.WeightAssignment(2, {"a1": (1, 0), "a2": (0, 1), "a3": (1, 1)}),
                        (2, 3), (1, 0)),
    "K3 (2,3) rank 3": (bq.kronecker_quiver(3),
                        bq.WeightAssignment(3, {"a1": (1, 0, 0), "a2": (0, -1, 0),
                                                "a3": (0, 0, 2)}), (2, 3), (1, 0)),
    "K3 (3,4) mixed signs": (bq.kronecker_quiver(3), neg_weights(), (3, 4), (1, 0)),
}


@pytest.fixture(scope="module", params=sorted(ENUMERATED))
def enumerated(request):
    """The case's classes through `reduce_to_rank_one`, with its codec."""
    quiver, w, d, theta = ENUMERATED[request.param]
    quiver, w, d, theta, codec = reduced(quiver, w or bq.generic_rank1_weights(quiver), d, theta)
    return quiver, w, codec, candidates(quiver, w, d, theta)


class TestTrustedOutput:
    def test_matches_the_validating_constructor(self, enumerated):
        _, w, _, classes = enumerated
        assert classes
        for beta in classes:
            rebuilt = CoveringDimVector(tuple(reversed(beta.entries)))
            assert rebuilt == beta and hash(rebuilt) == hash(beta)
            assert rebuilt.entries == beta.entries
            assert all(type(x) is int for (_, chi), _ in beta.entries for x in chi)

    def test_code_sides_are_the_choose_1psg_sides(self, enumerated):
        quiver, w, codec, classes = enumerated
        seen = 0
        for beta in classes:
            try:
                comp = bq.analyze_component(quiver, w, beta)
            except bq.InconsistencyError:
                continue
            if codec.rank > 1 and comp.weight_table:
                sides = [0, 0]
                for chi, m in comp.weight_table.items():
                    sides[next(x for x in codec.decode(chi) if x) < 0] += m
                assert sides == [comp.att_plus, comp.att_minus]
                seen += 1
            assert comp.dim_component == bq.weight_dimension(quiver, w, beta, 0)
        assert seen or codec.rank == 1


@st.composite
def acyclic_quivers_with_d(draw):
    """Up to 4 vertices, up to 2 parallel arrows i -> j for each i < j, d <= 3."""
    n = draw(st.integers(1, 4))
    vertices = [f"v{i}" for i in range(n)]
    arrows = []
    for i, j in itertools.combinations(range(n), 2):
        for k in range(draw(st.integers(0, 2))):
            arrows.append((f"a{i}{j}{k}", vertices[i], vertices[j]))
    d = tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    return bq.Quiver.from_arrows(vertices, arrows), d


def reference_coprime(d, theta):
    mu = slope(theta, d)
    return all(slope(theta, e) != mu for e in itertools.product(*(range(x + 1) for x in d))
               if sum(e) and e != d)


class TestIntegerSlopes:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any),
        st.lists(st.integers(-6, 6), min_size=n, max_size=n))))
    def test_is_coprime_matches_fraction_slopes(self, drawn):
        d, theta = drawn
        quiver = bq.Quiver.from_arrows([f"v{k}" for k in range(len(d))], [])
        assert bq.is_coprime(quiver, d, theta) == reference_coprime(tuple(d), theta)

    @settings(max_examples=100, deadline=None)
    @given(acyclic_quivers_with_d(), st.data())
    def test_has_stable_matches_fraction_slopes(self, quiver_d, data):
        quiver, d = quiver_d
        assume(any(d))
        theta = data.draw(st.lists(st.integers(-5, 5), min_size=len(d), max_size=len(d)))
        if not bq.is_coprime(quiver, d, theta):
            with pytest.raises(bq.UnsupportedError):
                bq.has_stable(quiver, d, theta)
            return
        assert bq.has_stable(quiver, d, theta) == schofield_oracle.has_stable(quiver, d, theta)


class TestArrowIndex:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=8))
    def test_arrows_from_matches_a_scan(self, ends):
        vertices = ("p", "q", "r", "s")
        quiver = bq.Quiver.from_arrows(vertices, [(f"a{k}", vertices[s], vertices[t])
                                                  for k, (s, t) in enumerate(ends)])
        for v in vertices:
            assert quiver.arrows_from(v) == tuple(a for a in quiver.arrows if a.source == v)
        assert quiver.arrows_from("elsewhere") == ()
