import pytest

import bbquiver as bq
from bbquiver.covering import CoveringDimVector, reduce_to_rank_one
from bbquiver.errors import InconsistencyError

from conftest import type1_beta


def star(leaves):
    return bq.Quiver.from_arrows(("c", *(f"p{k}" for k in range(1, leaves + 1))),
                                 [(f"f{k}", "c", f"p{k}") for k in range(1, leaves + 1)])


def type2_beta(k3, w3):
    support = {("i", (0,)): 2}
    for k in (1, 2, 3):
        support[("j", w3[f"a{k}"])] = 1
    return bq.canonicalize(CoveringDimVector.from_dict(support))


class TestWeightDimension:
    def test_isolated_zero_weight(self, k3, w3, k3_classes):
        for beta in k3_classes:
            assert bq.weight_dimension(k3, w3, beta, 0) == 0

    def test_type2_plus_side(self, k3, w3):
        beta = type2_beta(k3, w3)
        table = bq.weight_support(k3, w3, beta)
        assert sum(v for c, v in table.items() if c > 0) == 3

    def test_total_is_moduli_dimension(self, k3, w3, k3_classes):
        for beta in k3_classes:
            table = bq.weight_support(k3, w3, beta)
            zero = bq.weight_dimension(k3, w3, beta, 0)
            assert sum(table.values()) + zero == 6

    def test_negative_raises(self, k3, w3):
        # two units of i at one level, one j unit: no stable lift exists
        beta = CoveringDimVector.from_dict({("i", (0,)): 2, ("j", w3["a1"]): 3})
        with pytest.raises(InconsistencyError):
            bq.weight_support(k3, w3, beta)


class TestWeightSupport:
    def test_single_unit(self, k3, w3):
        beta = CoveringDimVector.from_dict({("i", (0,)): 1})
        assert bq.weight_support(k3, w3, beta) == {}

    def test_type2_total(self, k3, w3):
        table = bq.weight_support(k3, w3, type2_beta(k3, w3))
        assert sum(table.values()) == 6

    def test_shift_covariance(self, k3, w3, k3_classes):
        for beta in k3_classes[:4]:
            moved = bq.shift(beta, -17)
            assert bq.weight_support(k3, w3, moved) == bq.weight_support(k3, w3, beta)


class TestAttractorDims:
    def test_type2(self, k3, w3):
        c = bq.analyze_component(k3, w3, type2_beta(k3, w3))
        assert (c.att_plus, c.att_minus, c.dim_component) == (3, 3, 0)

    def test_label_1231_no_cell(self, k3, w3):
        c = bq.analyze_component(k3, w3, type1_beta(k3, w3, "1231"))
        assert (c.att_plus, c.dim_component) == (0, 0)

    def test_label_3232_open_cell(self, k3, w3):
        c = bq.analyze_component(k3, w3, type1_beta(k3, w3, "3232"))
        assert (c.att_plus, c.att_minus, c.dim_component) == (6, 0, 0)

    def test_balance(self, k3, w3, k3_components):
        for comp in k3_components:
            assert comp.att_plus + comp.att_minus + comp.dim_component == 6


class TestHigherRankReduction:
    def test_weist_action_matches_generic_rank1(self, k3):
        # one torus factor per arrow, acting by its own coordinate
        w = bq.WeightAssignment(3, {"a1": (1, 0, 0), "a2": (0, 1, 0), "a3": (0, 0, 1)})
        w, _ = reduce_to_rank_one(w, (2, 3))
        classes = bq.enumerate_compatible(k3, w, (2, 3), (1, 0))
        assert len(classes) == 13
        comps = [bq.analyze_component(k3, w, b) for b in classes]
        plus = sorted(c.att_plus for c in comps)
        assert plus == [0, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 6]
        for c in comps:
            assert c.att_plus + c.att_minus + c.dim_component == 6


class TestGenericNormalForm:
    def test_3232_is_normal_form(self, k3, w3):
        c = bq.analyze_component(k3, w3, type1_beta(k3, w3, "3232"))
        assert bq.generic_normal_form_test(c)

    def test_type2_is_not(self, k3, w3):
        assert not bq.generic_normal_form_test(bq.analyze_component(k3, w3, type2_beta(k3, w3)))

    def test_unique_among_components(self, k3, w3, k3_components):
        hits = [c for c in k3_components if bq.generic_normal_form_test(c)]
        assert len(hits) == 1

    def test_positive_dimensional_fails(self, k3, w3):
        star5 = bq.Quiver.from_arrows(
            ("c", *(f"p{k}" for k in range(1, 6))),
            [(f"f{k}", "c", f"p{k}") for k in range(1, 6)],
        )
        w = bq.generic_rank1_weights(star5)
        beta = CoveringDimVector.from_dict(
            {("c", (0,)): 2, **{(f"p{k}", w[f"f{k}"]): 1 for k in range(1, 6)}}
        )
        assert bq.euler_form_covering(star5, w, beta, beta) != 1
        assert not bq.generic_normal_form_test(bq.analyze_component(star5, w, beta))

    @pytest.mark.parametrize("case", ["K3 (2,3)", "K4 (2,3)", "K4 (2,5)", "K3 (3,4)",
                                      "star5", "star7"])
    @pytest.mark.parametrize("weights", ["generic", "k mod 3"])
    def test_agrees_with_the_euler_form_criterion(self, case, weights):
        """Isolated with att- = 0 is the real-root-and-att- = 0 criterion:
        the zero weight space has dimension 1 - <beta, beta>."""
        quiver, d, theta = {
            "K3 (2,3)": (bq.kronecker_quiver(3), (2, 3), (1, 0)),
            "K4 (2,3)": (bq.kronecker_quiver(4), (2, 3), (1, 0)),
            "K4 (2,5)": (bq.kronecker_quiver(4), (2, 5), (1, 0)),
            "K3 (3,4)": (bq.kronecker_quiver(3), (3, 4), (1, 0)),
            "star5": (star(5), (2,) + (1,) * 5, (1,) + (0,) * 5),
            "star7": (star(7), (2,) + (1,) * 7, (1,) + (0,) * 7),
        }[case]
        if weights == "generic":
            w = bq.generic_rank1_weights(quiver)
        else:
            w = {a.name: k % 3 for k, a in enumerate(quiver.arrows, 1)}
        for beta in bq.enumerate_compatible(quiver, w, d, theta):
            reference = (bq.euler_form_covering(quiver, w, beta, beta) == 1
                         and bq.analyze_component(quiver, w, beta).att_minus == 0)
            c = bq.analyze_component(quiver, w, beta)
            assert bq.generic_normal_form_test(c) == reference, beta
