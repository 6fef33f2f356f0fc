import math

import pytest

import bbquiver as bq
from bbquiver.betti import PoincarePolynomial
from bbquiver.errors import InconsistencyError, ValidationError
from lagrange_oracle import coefficient, interpolate

pytest.importorskip("numpy")  # the brute-force F_q oracle below needs it
from bbquiver.existence import brute_force_stable_count


def poly(coeffs):
    return PoincarePolynomial.from_dict(coeffs)


class TestPolynomialType:
    def test_odd_degree_rejected(self):
        with pytest.raises(ValidationError):
            poly({1: 1})

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValidationError):
            poly({2: -1})

    def test_duplicate_degrees_merge(self):
        p = PoincarePolynomial(((2, 1), (2, 1), (0, 1)))
        assert p.as_dict() == {0: 1, 2: 2}

    def test_text_and_latex(self):
        p = poly({0: 1, 2: 1, 4: 3})
        assert p.text() == "1 + t^2 + 3t^4"
        assert p.latex() == "1 + t^{2} + 3 t^{4}"

    def test_evaluation(self):
        p = poly({0: 1, 2: 5, 4: 1})
        assert p.evaluate(1) == 7
        assert p.evaluate_q(2) == 1 + 10 + 4

    def test_palindromes(self):
        assert poly({0: 1, 2: 1, 4: 1}).is_palindromic(2)
        assert not poly({0: 1, 2: 2, 4: 1}).is_palindromic(1)


class TestKirwan:
    def test_x3_is_a_point(self):
        assert bq.kirwan_subspace_poincare(3) == poly({0: 1})

    def test_b1_of_5(self):
        p = bq.kirwan_subspace_poincare(5)
        assert coefficient(p, 2) == 5
        assert p == poly({0: 1, 2: 5, 4: 1})

    def test_b0_always_one(self):
        for x in (3, 5, 7, 9):
            assert coefficient(bq.kirwan_subspace_poincare(x), 0) == 1

    def test_x7(self):
        assert bq.kirwan_subspace_poincare(7) == poly({0: 1, 2: 7, 4: 22, 6: 7, 8: 1})

    def test_sum_over_nu(self):
        for x in (3, 5, 7, 9, 11):
            p = bq.kirwan_subspace_poincare(x)
            assert p.is_palindromic(x - 3)
            for j in range(x - 2):
                top = min(j, x - 3 - j)
                assert coefficient(p, 2 * j) == sum(math.comb(x - 1, nu) for nu in range(top + 1))

    def test_even_or_small_rejected(self):
        with pytest.raises(ValidationError):
            bq.kirwan_subspace_poincare(4)
        with pytest.raises(ValidationError):
            bq.kirwan_subspace_poincare(1)


class TestComponentPoincare:
    def test_real_root_is_point(self, k3, w3, k3_components):
        for comp in k3_components:
            assert bq.component_poincare(k3, w3, (1, 0), comp) == poly({0: 1})

    def test_x5_star_uses_kirwan(self, k3):
        # type-2 class with five single sinks inside the 5-arrow quiver
        K5 = bq.kronecker_quiver(5)
        w5 = bq.generic_rank1_weights(K5)
        lab = bq.Label2(4, 2, 0, (1, 2, 3, 4, 5), ())
        beta = bq.label_to_beta(lab, w5, K5)
        comp = bq.analyze_component(K5, w5, beta)
        assert comp.dim_component == 2
        got = bq.component_poincare(K5, w5, (1, 0), comp)
        assert got == poly({0: 1, 2: 5, 4: 1})

    def test_interpolation_provider_on_trivial_action(self):
        # equal arrow weights act trivially: one component carrying the whole
        # projective line, resolved by counting and interpolation
        quiver = bq.kronecker_quiver(2)
        w = {"a1": 1, "a2": 1}
        classes = bq.enumerate_compatible(quiver, w, (1, 1), (1, 0))
        assert len(classes) == 1
        comp = bq.analyze_component(quiver, w, classes[0])
        assert comp.dim_component == 1 and not comp.isolated
        assert comp.weight_table == {}
        got = bq.component_poincare(quiver, w, (1, 0), comp)
        assert got == poly({0: 1, 2: 1})
        assert bq.assemble_poincare([(comp, got)]) == poly({0: 1, 2: 1})

    def test_seven_star_matches_brute_force(self):
        star7 = bq.Quiver.from_arrows(("c", *(f"p{k}" for k in range(1, 8))),
                                      [(f"f{k}", "c", f"p{k}") for k in range(1, 8)])
        d, theta = (2,) + (1,) * 7, (1,) + (0,) * 7
        counts = {q: brute_force_stable_count(star7, d, theta, q) for q in (2, 3)}
        assert counts == {2: 175, 3: 490}
        w = bq.generic_rank1_weights(star7)
        comps = [bq.analyze_component(star7, w, beta)
                 for beta in bq.enumerate_compatible(star7, w, d, theta)]
        got = bq.assemble_poincare([(c, bq.component_poincare(star7, w, theta, c))
                                    for c in comps])
        assert got == bq.kirwan_subspace_poincare(7)
        assert {q: got.evaluate_q(q) for q in counts} == counts

    def test_interpolation_validates_kirwan_x5(self, star_quiver):
        d = (2, 1, 1, 1, 1, 1)
        theta = (1, 0, 0, 0, 0, 0)
        counts = [(q, brute_force_stable_count(star_quiver, d, theta, q))
                  for q in (2, 3, 5)]
        assert interpolate(counts, 2) == bq.kirwan_subspace_poincare(5)


class TestAssemble:
    def test_k3_golden_polynomial(self, k3, w3, k3_components):
        pairs = [(c, bq.component_poincare(k3, w3, (1, 0), c)) for c in k3_components]
        assert bq.assemble_poincare(pairs) == poly({0: 1, 2: 1, 4: 3, 6: 3, 8: 3, 10: 1, 12: 1})

    def test_single_point(self, k3, w3, k3_components):
        comp = next(c for c in k3_components if c.att_plus == 0)
        assert bq.assemble_poincare([(comp, PoincarePolynomial.one())]) == poly({0: 1})

    def test_duality_of_golden(self, k3, w3, k3_components):
        pairs = [(c, bq.component_poincare(k3, w3, (1, 0), c)) for c in k3_components]
        p = bq.assemble_poincare(pairs)
        dim = 1 - bq.euler_form(k3, (2, 3), (2, 3))
        assert p.is_palindromic(dim)
        assert coefficient(p, 0) == 1 and coefficient(p, 2 * dim) == 1

    def test_order_independence(self, k3, w3, k3_components):
        pairs = [(c, PoincarePolynomial.one()) for c in k3_components]
        a = bq.assemble_poincare(pairs)
        b = bq.assemble_poincare(list(reversed(pairs)))
        assert a == b

    def test_euler_characteristic_counts_cells(self, k3, w3, k3_components):
        pairs = [(c, bq.component_poincare(k3, w3, (1, 0), c)) for c in k3_components]
        assert bq.assemble_poincare(pairs).evaluate(1) == 13


class TestInterpolation:
    def test_constant(self):
        assert bq.interpolate_from_counts([(2, 1), (3, 1)], 0) == poly({0: 1})

    def test_k3_polynomial_at_q2(self, k3):
        p = poly({0: 1, 2: 1, 4: 3, 6: 3, 8: 3, 10: 1, 12: 1})
        assert p.evaluate_q(2) == 183
        assert brute_force_stable_count(k3, (2, 3), (1, 0), 2) == p.evaluate_q(2)

    def test_underdetermined(self):
        with pytest.raises(ValidationError):
            interpolate([(2, 15), (3, 25)], 2)

    def test_conflicting_duplicate_field_rejected(self):
        with pytest.raises(ValidationError):
            bq.interpolate_from_counts([(2, 1), (2, 5), (3, 1)], 1)

    def test_non_integer_rejected(self):
        with pytest.raises(InconsistencyError):
            interpolate([(2, 1), (4, 2)], 1)

    def test_inconsistent_extra_count_rejected(self):
        with pytest.raises(InconsistencyError):
            interpolate([(2, 3), (3, 4), (5, 99)], 1)

    def test_negative_rejected(self):
        with pytest.raises(InconsistencyError):
            interpolate([(2, 5), (3, 4), (4, 3)], 1)
