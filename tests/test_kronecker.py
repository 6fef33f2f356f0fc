import math

import pytest

import bbquiver as bq
from bbquiver.errors import ValidationError
from bbquiver.kronecker import kronecker_stable_exact

PAPER_LABELS = "1231 2121 1232 2131 3121 3131 2132 3231 2123 3132 3123 3232".split()


class TestEnumeration:
    def test_k3_type1_matches_printed_list(self):
        labels = bq.enumerate_type1(2, 1)
        assert sorted(l.display() for l in labels) == sorted(PAPER_LABELS)
        assert len(labels) == 12

    def test_l3_r1_count(self):
        assert len(bq.enumerate_type1(3, 1)) == 6 * 3 * 3

    def test_r0_pairs(self):
        labels = bq.enumerate_type1(3, 0)
        assert len(labels) == math.comb(4, 2)
        assert all(l.m_star == () and l.n_star == () for l in labels)

    def test_type2_k3_unique(self):
        labels = bq.enumerate_type2(2, 1)
        assert len(labels) == 1
        lab = labels[0]
        assert (lab.y, lab.x, lab.m_star) == (0, 3, (1, 2, 3))

    def test_type2_l3_r1(self):
        assert len(bq.enumerate_type2(3, 1)) == math.comb(4, 3)

    def test_type2_empty_range(self):
        assert bq.enumerate_type2(3, 0) == []
        assert bq.enumerate_type2(3, 3) == []

    def test_l_less_than_r_rejected(self):
        with pytest.raises(ValidationError):
            bq.enumerate_type1(1, 2)


class TestClosedForms:
    def label(self, s):
        m1, m, n, n1 = (int(c) for c in s)
        return bq.Label1(2, 1, m, (m1,), n, (n1,))

    def test_3232(self):
        lab = self.label("3232")
        assert bq.d1_attractor(lab, "plus") == 6
        assert bq.d1_attractor(lab, "minus") == 0

    def test_1231(self):
        assert bq.d1_attractor(self.label("1231"), "plus") == 0

    def test_unique_zero_minus_label(self):
        zeros = [l for l in bq.enumerate_type1(2, 1) if bq.d1_attractor(l, "minus") == 0]
        assert len(zeros) == 1
        lab = zeros[0]
        assert (lab.m, lab.m_star, lab.n, lab.n_star) == (2, (3,), 3, (2,))
        assert lab == bq.normal_form_label(2, 1)

    def test_d2_k3(self):
        lab = bq.enumerate_type2(2, 1)[0]
        assert bq.d2_attractor(lab) == 3

    def test_d2_reduces_to_binomial(self):
        for l, r in [(2, 1), (3, 2), (4, 2)]:
            for lab in bq.enumerate_type2(l, r):
                if lab.y == 0 and lab.t == 0:
                    assert bq.d2_attractor(lab) == math.comb(lab.x, 2)

    def test_plus_minus_balance(self):
        for l in range(1, 5):
            for r in range(0, l + 1):
                dim = (2 * (l - r) + 1) * (2 * r + 1) - 3
                for lab in bq.enumerate_type1(l, r):
                    total = bq.d1_attractor(lab, "plus") + bq.d1_attractor(lab, "minus")
                    assert total == dim, (l, r, lab.display())


class TestPoincare:
    def test_k3_golden(self):
        p = bq.kronecker_poincare(2, 1)
        assert p.as_dict() == {0: 1, 2: 1, 4: 3, 6: 3, 8: 3, 10: 1, 12: 1}

    def test_k3_fixed_point_count(self):
        assert bq.kronecker_poincare(2, 1).evaluate(1) == 13

    def test_l3_r1_count(self):
        assert bq.kronecker_poincare(3, 1).evaluate(1) == 54 + 4

    def test_duality(self):
        for l, r in [(1, 0), (2, 0), (2, 1), (3, 1), (3, 2), (4, 2)]:
            dim = (2 * (l - r) + 1) * (2 * r + 1) - 3
            p = bq.kronecker_poincare(l, r)
            assert p.is_palindromic(dim), (l, r)
            assert p.coefficient(0) == 1 and p.coefficient(2 * dim) == 1


class TestClosedFormVsPipeline:
    @pytest.mark.parametrize("l,r", [(l, r) for l in range(1, 5) for r in range(0, l + 1)])
    def test_type1_labels(self, l, r):
        quiver = bq.kronecker_quiver(l + 1)
        w = bq.generic_rank1_weights(quiver)
        for lab in bq.enumerate_type1(l, r):
            beta = bq.label_to_beta(lab, w, quiver)
            ap, am, d0 = bq.attractor_dims(quiver, w, beta)
            assert d0 == 0
            assert ap == bq.d1_attractor(lab, "plus"), lab.display()
            assert am == bq.d1_attractor(lab, "minus"), lab.display()

    @pytest.mark.parametrize("l,r", [(l, r) for l in range(1, 5) for r in range(0, l + 1)])
    def test_type2_labels(self, l, r):
        quiver = bq.kronecker_quiver(l + 1)
        w = bq.generic_rank1_weights(quiver)
        for lab in bq.enumerate_type2(l, r):
            beta = bq.label_to_beta(lab, w, quiver)
            ap, am, d0 = bq.attractor_dims(quiver, w, beta)
            assert d0 == lab.x - 3
            assert ap == bq.d2_attractor(lab), lab.display()


class TestEndToEnd:
    @pytest.mark.parametrize(
        "l,r", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (3, 3), (4, 0),
                (4, 1), (4, 2), (4, 3), (5, 2)]
    )
    def test_pipeline_agrees_with_closed_form(self, l, r):
        self._check(l, r)

    # (6, 3) is left out: its x = 7 components need the corrected subspace-star
    # Betti numbers (ROADMAP item 1).
    @pytest.mark.slow
    @pytest.mark.parametrize("l,r", [(5, 3), (6, 2)])
    def test_pipeline_agrees_with_closed_form_slow(self, l, r):
        self._check(l, r)

    @staticmethod
    def _check(l, r):
        quiver = bq.kronecker_quiver(l + 1)
        w = bq.generic_rank1_weights(quiver)
        d = (2, 2 * r + 1)
        theta = (1, 0)
        classes = bq.enumerate_compatible(quiver, w, d, theta)
        comps = [bq.analyze_component(quiver, w, b) for b in classes]
        pairs = [(c, bq.component_poincare(quiver, w, theta, c)) for c in comps]
        assert bq.assemble_poincare(pairs) == bq.kronecker_poincare(l, r)
        dim = 1 - bq.euler_form(quiver, d, d)
        for c in comps:
            assert c.att_plus + c.att_minus + c.dim_component == dim


class TestExactStability:
    def test_chart_points_are_stable(self, k3, w3, k3_classes):
        import random
        from fractions import Fraction

        rng = random.Random(5)
        for beta in k3_classes[:5]:
            try:
                rep = bq.build_fixed_rep(k3, w3, beta, "unit")
            except bq.UnsupportedError:
                rep = bq.build_fixed_rep(k3, w3, beta, "random", seed=0)
            chart = bq.choose_complements(rep)
            vals = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                    for _ in range(chart.total_dim)]
            pt = chart.sample_point(vals)
            mats = [pt.matrix(a.name) for a in k3.arrows]
            assert kronecker_stable_exact(mats)

    def test_common_kernel_is_unstable(self):
        mats = [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]
        assert not kronecker_stable_exact(mats)

    def test_non_filling_images_unstable(self):
        mats = [[[1, 0], [0, 1], [0, 0]]] * 3
        assert not kronecker_stable_exact(mats)
