import json
import math
from collections import Counter

import pytest

import bbquiver as bq
from bbquiver import betti, kronecker
from bbquiver.cli import main
from bbquiver.errors import InconsistencyError, ValidationError
from chart_oracle import sample_point
from lagrange_oracle import coefficient
from kronecker_oracle import (
    kronecker_stable_exact,
    label_t,
    m_complement,
    n_complement,
    normal_form_label,
)

PAPER_LABELS = "1231 2121 1232 2131 3121 3131 2132 3231 2123 3132 3123 3232".split()
SMALL = [(l, r) for l in range(1, 6) for r in range(0, l + 1)]


# The per-label route the one-pass table replaced, kept as the reference: one
# closure-based comparison sweep per label and sign, and one
# PoincarePolynomial per label.
def _ref_sum_gt(pair_a, pair_b) -> bool:
    return sorted(pair_a) < sorted(pair_b)


def ref_d1_attractor(label, sign):
    flip = sign == "minus"

    def lt(a, b):
        return (a > b) if flip else (a < b)

    def sum_gt(pa, pb):
        return _ref_sum_gt(pb, pa) if flip else _ref_sum_gt(pa, pb)

    m, n = label.m, label.n
    ms, ns = label.m_star, label.n_star
    mc, nc = m_complement(label), n_complement(label)
    total = -1
    total += sum(1 for mv in ms if lt(m, mv))
    total += sum(1 for nv in ns if lt(n, nv))
    total += sum(1 for mu in mc if lt(mu, m))
    total += sum(1 for nu in nc if lt(nu, n))
    total += sum(1 for mu in mc for mv in ms if lt(mu, mv))
    total += sum(1 for mu in mc for nv in ns if sum_gt((mu, n), (m, nv)))
    total += sum(1 for nu in nc for nv in ns if lt(nu, nv))
    total += sum(1 for nu in nc for mv in ms if sum_gt((nu, m), (n, mv)))
    return total


def ref_poincare(l, r):
    total = Counter(2 * ref_d1_attractor(lab, "plus") for lab in bq.enumerate_type1(l, r))
    for lab in bq.enumerate_type2(l, r):
        shift = 2 * bq.d2_attractor(lab)
        total.update({d + shift: c for d, c in bq.kirwan_subspace_poincare(lab.x).coefficients})
    return bq.PoincarePolynomial.from_dict(total)


def _shifted_side(plus: int, minus: int):
    """`kronecker._side` with its plus and minus counts shifted: a fault that
    every type-1 attractor of the sweep reads."""
    side = kronecker._side

    def shifted(l, k, star):
        comp, p, q = side(l, k, star)
        return comp, p + plus, q + minus
    return shifted


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
        assert lab == normal_form_label(2, 1)

    def test_d2_k3(self):
        lab = bq.enumerate_type2(2, 1)[0]
        assert bq.d2_attractor(lab) == 3

    def test_d2_reduces_to_binomial(self):
        for l, r in [(2, 1), (3, 2), (4, 2)]:
            for lab in bq.enumerate_type2(l, r):
                if lab.y == 0 and label_t(lab) == 0:
                    assert bq.d2_attractor(lab) == math.comb(lab.x, 2)

    @pytest.mark.parametrize("l,r", SMALL)
    def test_one_pass_matches_the_per_label_reference(self, l, r):
        labels1, labels2 = bq.enumerate_type1(l, r), bq.enumerate_type2(l, r)
        rows = list(kronecker.attractor_rows(l, r, {}))
        assert len(rows) == len(labels1) + len(labels2)
        for lab, (text, plus, minus, x) in zip(labels1, rows):
            assert text == lab.display()
            assert (plus, minus, x) == (ref_d1_attractor(lab, "plus"),
                                        ref_d1_attractor(lab, "minus"), None), text
            assert bq.d1_attractor(lab, "plus") == plus
            assert bq.d1_attractor(lab, "minus") == minus
        for lab, row in zip(labels2, rows[len(labels1):]):
            assert row == (lab.display(), bq.d2_attractor(lab), None, lab.x)

    def test_enumerated_labels_equal_validated_ones(self):
        for lab in bq.enumerate_type1(3, 1):
            built = bq.Label1(lab.l, lab.r, lab.m, lab.m_star, lab.n, lab.n_star)
            assert built == lab and hash(built) == hash(lab) and repr(built) == repr(lab)
            assert (m_complement(built), n_complement(built)) == (m_complement(lab), n_complement(lab))

    @pytest.mark.parametrize("fields", [(2, 1, 3, (1,), 2, (1,)), (2, 1, 1, (1,), 2, (3,)),
                                        (2, 1, 1, (2,), 3, (4,)), (2, 1, 1, (), 2, (1,))])
    def test_labels_built_by_hand_are_validated(self, fields):
        with pytest.raises(ValidationError):
            bq.Label1(*fields)

    def test_equal_sums_count_for_neither_attractor(self):
        pairs, scale = kronecker._pairs(3), 16

        def compare(b, u, a, v):  # (plus, minus) of w_u + w_b against w_a + w_v
            return divmod(kronecker._count_row(pairs[b], (u,), pairs[a], scale)[v], scale)

        # w_1 + w_2 against itself; then w_1 + w_2 > w_1 + w_3 and w_2 + w_3 < w_1 + w_4
        assert compare(2, 1, 1, 2) == (0, 0)
        assert compare(2, 1, 1, 3) == (1, 0)
        assert compare(3, 2, 1, 4) == (0, 1)

    def test_negative_dimension_raises(self, monkeypatch):
        lab = normal_form_label(2, 1)  # att_+ = 6, att_- = 0
        monkeypatch.setattr(kronecker, "_side", _shifted_side(-9, 9))
        with pytest.raises(InconsistencyError, match="negative attractor dimension"):
            bq.d1_attractor(lab, "plus")
        assert bq.d1_attractor(lab, "minus") == 18
        with pytest.raises(InconsistencyError, match=r"att\+ = -"):
            bq.kronecker_poincare(2, 1)

    def test_imbalance_raises(self, monkeypatch):
        monkeypatch.setattr(kronecker, "_side", _shifted_side(0, 1))
        with pytest.raises(InconsistencyError, match="summing to dim M = 6"):
            bq.kronecker_poincare(2, 1)

    @pytest.mark.parametrize("shift", [(-9, 9), (0, 1)], ids=["negative", "imbalance"])
    def test_failed_invariant_exits_4(self, monkeypatch, capsys, shift):
        monkeypatch.setattr(kronecker, "_side", _shifted_side(*shift))
        assert main(["kronecker", "--l", "3", "--r", "1", "--format", "json"]) == 4
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err)["error"] == "inconsistency"

    def test_sign_is_validated(self):
        with pytest.raises(ValidationError):
            bq.d1_attractor(normal_form_label(2, 1), "both")

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

    @pytest.mark.parametrize("l,r", [(6, 3), (7, 3)])
    def test_duality_with_seven_point_components(self, l, r):
        # the first cases with x = 7 type-2 components
        assert any(lab.x == 7 for lab in bq.enumerate_type2(l, r))
        dim = (2 * (l - r) + 1) * (2 * r + 1) - 3
        p = bq.kronecker_poincare(l, r)
        assert p.is_palindromic(dim)
        assert coefficient(p, 0) == 1 and coefficient(p, 2 * dim) == 1

    def test_duality(self):
        for l, r in [(1, 0), (2, 0), (2, 1), (3, 1), (3, 2), (4, 2)]:
            dim = (2 * (l - r) + 1) * (2 * r + 1) - 3
            p = bq.kronecker_poincare(l, r)
            assert p.is_palindromic(dim), (l, r)
            assert coefficient(p, 0) == 1 and coefficient(p, 2 * dim) == 1

    @pytest.mark.parametrize("l,r", SMALL + [(6, r) for r in range(0, 7)])
    def test_matches_the_per_label_reference(self, l, r):
        assert bq.kronecker_poincare(l, r) == ref_poincare(l, r)

    # the whole l = 8 row takes about 4 s, so it is in the slow set
    @pytest.mark.slow
    @pytest.mark.parametrize("r", range(0, 9))
    def test_duality_at_l8(self, r):
        dim = (2 * (8 - r) + 1) * (2 * r + 1) - 3
        p = bq.kronecker_poincare(8, r)
        assert p.is_palindromic(dim)
        assert coefficient(p, 0) == 1 and coefficient(p, 2 * dim) == 1


class TestClosedFormVsHN:
    """The closed form against the whole-space HN count, at d = (2, 2r+1)."""

    @staticmethod
    def _check(l, r):
        dim = (2 * (l - r) + 1) * (2 * r + 1) - 3
        hn = betti.stable_poincare(bq.kronecker_quiver(l + 1), (2, 2 * r + 1), (1, 0), dim)
        assert bq.kronecker_poincare(l, r) == hn

    @pytest.mark.parametrize("l,r", [(l, r) for l in range(1, 8) for r in range(0, l + 1)])
    def test_up_to_l7(self, l, r):
        self._check(l, r)

    # the l = 8 row takes about 2 s
    @pytest.mark.slow
    @pytest.mark.parametrize("r", range(0, 9))
    def test_at_l8(self, r):
        self._check(8, r)


class TestClosedFormVsPipeline:
    @pytest.mark.parametrize("l,r", [(l, r) for l in range(1, 5) for r in range(0, l + 1)])
    def test_type1_labels(self, l, r):
        quiver = bq.kronecker_quiver(l + 1)
        w = bq.generic_rank1_weights(quiver)
        for lab in bq.enumerate_type1(l, r):
            beta = bq.label_to_beta(lab, w, quiver)
            c = bq.analyze_component(quiver, w, beta)
            assert c.dim_component == 0
            assert c.att_plus == bq.d1_attractor(lab, "plus"), lab.display()
            assert c.att_minus == bq.d1_attractor(lab, "minus"), lab.display()

    @pytest.mark.parametrize("l,r", [(l, r) for l in range(1, 5) for r in range(0, l + 1)])
    def test_type2_labels(self, l, r):
        quiver = bq.kronecker_quiver(l + 1)
        w = bq.generic_rank1_weights(quiver)
        for lab in bq.enumerate_type2(l, r):
            beta = bq.label_to_beta(lab, w, quiver)
            c = bq.analyze_component(quiver, w, beta)
            assert c.dim_component == lab.x - 3
            assert c.att_plus == bq.d2_attractor(lab), lab.display()


class TestEndToEnd:
    @pytest.mark.parametrize(
        "l,r", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (3, 3), (4, 0),
                (4, 1), (4, 2), (4, 3), (5, 2), (5, 3), (6, 2)]
    )
    def test_pipeline_agrees_with_closed_form(self, l, r):
        self._check(l, r)

    @pytest.mark.slow
    @pytest.mark.parametrize("l,r", [(6, 3), (7, 3)])
    def test_pipeline_agrees_with_closed_form_slow(self, l, r):
        self._check(l, r)

    @pytest.mark.parametrize("l", [7, 8, 9])
    def test_one_arrow_torus_agrees_with_closed_form(self, tmp_path, capsys, l):
        """P(t) does not depend on the torus.  Under weight 1 on a1 and 0 on every other
        arrow, `poincare` on K(l+1) (2,7) sums a handful of classes to the (l, 3) closed
        form: the (7,3), (8,3) and (9,3) rungs of the ladder, without a `slow` run."""
        quiver = bq.kronecker_quiver(l + 1)
        (tmp_path / "q.json").write_text(json.dumps(quiver.to_dict()))
        (tmp_path / "w.json").write_text(json.dumps(
            {"rank": 1, "weights": {a.name: [int(a.name == "a1")] for a in quiver.arrows}}))
        assert main(["poincare", "--quiver", str(tmp_path / "q.json"), "--dim", "2,7",
                     "--theta", "1,0", "--weights", str(tmp_path / "w.json"),
                     "--format", "json"]) == 0
        closed = {str(d): c for d, c in bq.kronecker_poincare(l, 3).coefficients}
        assert json.loads(capsys.readouterr().out)["poincare"] == closed

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
            rep = bq.build_fixed_rep(k3, w3, beta)
            chart = bq.choose_complements(rep)
            vals = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                    for _ in range(chart.total_dim)]
            pt = sample_point(chart, vals)
            mats = [pt.matrix(a.name) for a in k3.arrows]
            assert kronecker_stable_exact(mats)

    def test_common_kernel_is_unstable(self):
        mats = [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]
        assert not kronecker_stable_exact(mats)

    def test_non_filling_images_unstable(self):
        mats = [[[1, 0], [0, 1], [0, 0]]] * 3
        assert not kronecker_stable_exact(mats)
