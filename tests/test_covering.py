import pytest
from hypothesis import given, strategies as st

import bbquiver as bq
from bbquiver.covering import CoveringDimVector
from covering_oracle import candidates, covering_target, is_connected, project, total
from bbquiver.errors import ValidationError

from conftest import type1_beta


def mk_beta(support):
    return CoveringDimVector.from_dict(support)


@st.composite
def small_betas(draw):
    n = draw(st.integers(1, 4))
    support = {}
    for _ in range(n):
        v = draw(st.sampled_from(["i", "j"]))
        chi = (draw(st.integers(-6, 6)),)
        support[(v, chi)] = support.get((v, chi), 0) + draw(st.integers(1, 3))
    return mk_beta(support)


chars = st.integers(-6, 6)


class TestCoveringTarget:
    def test_rank1_direct(self, k3, w3):
        assert covering_target(k3, w3, "a2", (0,)) == ("j", (w3["a2"],))

    def test_zero_weight(self):
        q = bq.Quiver.from_arrows(("x", "y"), [("a", "x", "y")])
        w = bq.WeightAssignment(1, {"a": (0,)})
        assert covering_target(q, w, "a", (3,)) == ("y", (3,))

    def test_rank2_componentwise(self):
        q = bq.Quiver.from_arrows(("x", "y"), [("a", "x", "y")])
        w = bq.WeightAssignment(2, {"a": (1, -1)})
        assert covering_target(q, w, "a", (2, 2)) == ("y", (3, 1))

    def test_rank_mismatch(self, k3, w3):
        with pytest.raises(ValidationError):
            covering_target(k3, w3, "a1", (0, 0))


class TestShift:
    @given(small_betas())
    def test_zero_shift(self, beta):
        assert bq.shift(beta, 0) == beta

    @given(small_betas(), st.data())
    def test_group_action(self, beta, data):
        chi = data.draw(chars)
        xi = data.draw(chars)
        assert bq.shift(bq.shift(beta, chi), xi) == bq.shift(beta, chi + xi)

    @given(small_betas(), st.data())
    def test_projection_invariant(self, beta, data):
        q = bq.kronecker_quiver(2)
        chi = data.draw(chars)
        assert project(bq.shift(beta, chi), q) == project(beta, q)


class TestProject:
    def test_type2_star(self, k3, w3):
        w1, w2, w3_ = (w3[f"a{k}"] for k in (1, 2, 3))
        beta = mk_beta({("i", (0,)): 2, ("j", w1): 1, ("j", w2): 1, ("j", w3_): 1})
        assert project(beta, k3) == (2, 3)

    def test_empty(self, k3):
        assert project(mk_beta({}), k3) == (0, 0)

    def test_single_point(self, k3):
        assert project(mk_beta({("i", (7,)): 4}), k3) == (4, 0)


class TestCanonicalize:
    def test_idempotent(self):
        beta = mk_beta({("i", (0,)): 1, ("j", (3,)): 2})
        assert bq.canonicalize(beta) == beta

    @given(small_betas(), st.data())
    def test_orbit_constant(self, beta, data):
        chi = data.draw(chars)
        assert bq.canonicalize(bq.shift(beta, chi)) == bq.canonicalize(beta)

    def test_single_point(self):
        beta = mk_beta({("i", (5,)): 2})
        assert bq.canonicalize(beta) == mk_beta({("i", (0,)): 2})

    def test_zero_rejected(self):
        with pytest.raises(ValidationError):
            bq.canonicalize(mk_beta({}))


class TestSupportQuiver:
    def test_type2_star_shape(self, k3, w3):
        w1, w2, w3_ = (w3[f"a{k}"] for k in (1, 2, 3))
        beta = mk_beta({("i", (0,)): 2, ("j", w1): 1, ("j", w2): 1, ("j", w3_): 1})
        sq = bq.support_quiver(k3, w3, beta)
        assert len(sq.quiver.vertices) == 4
        assert len(sq.quiver.arrows) == 3
        assert sq.dims == (2, 1, 1, 1)
        assert sq.lift_stability((1, 0)) == (1, 0, 0, 0)

    def test_single_vertex(self, k3, w3):
        sq = bq.support_quiver(k3, w3, mk_beta({("j", (0,)): 3}))
        assert len(sq.quiver.vertices) == 1
        assert sq.quiver.arrows == ()

    def test_euler_form_agrees_with_covering(self, k3, w3, k3_classes):
        for beta in k3_classes:
            sq = bq.support_quiver(k3, w3, beta)
            assert bq.euler_form(sq.quiver, sq.dims, sq.dims) == \
                bq.euler_form_covering(k3, w3, beta, beta)


class TestEnumerate:
    def test_k3_golden_count(self, k3_classes):
        assert len(k3_classes) == 13

    def test_k3_classes_match_labels(self, k3, w3, k3_classes):
        expected = {type1_beta(k3, w3, s) for s in
                    ("1231 2121 1232 2131 3121 3131 2132 3231 2123 3132 3123 3232".split())}
        w1, w2, w3_ = (w3[f"a{k}"] for k in (1, 2, 3))
        expected.add(bq.canonicalize(
            mk_beta({("i", (0,)): 2, ("j", w1): 1, ("j", w2): 1, ("j", w3_): 1})))
        assert set(k3_classes) == expected

    def test_unfiltered_superset(self, k3, w3, k3_classes):
        raw = candidates(k3, w3, (2, 3), (1, 0))
        assert set(raw) >= set(k3_classes)
        assert len(raw) > 13

    def test_x1_star_rejected(self, k3, w3, k3_classes):
        w1, w2 = w3["a1"], w3["a2"]
        bad = bq.canonicalize(mk_beta({("i", (0,)): 2, ("j", w1): 1, ("j", w2): 2}))
        raw = candidates(k3, w3, (2, 3), (1, 0))
        assert bad in set(raw)
        assert bad not in set(k3_classes)

    def test_unit_vector(self, k3, w3):
        out = bq.enumerate_compatible(k3, w3, (1, 0), (1, 0))
        assert out == [mk_beta({("i", (0,)): 1})]

    def test_non_coprime_existence_error_propagates(self, k3, w3):
        from bbquiver.errors import UnsupportedError

        with pytest.raises(UnsupportedError):
            bq.enumerate_compatible(k3, w3, (2, 2), (1, 0))

    def test_emitted_invariants(self, k3, w3, k3_classes):
        for beta in k3_classes:
            assert project(beta, k3) == (2, 3)
            assert bq.canonicalize(beta) == beta
            assert is_connected(k3, w3, beta)
            assert total(beta) == 5
            assert 1 - bq.euler_form_covering(k3, w3, beta, beta) >= 0
        assert len(set(k3_classes)) == len(k3_classes)

