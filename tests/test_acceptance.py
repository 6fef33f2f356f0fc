"""Acceptance suite: every criterion asserted at its stated tolerance and
reported with one PASS line.  Exact integer equality throughout; the only
tolerances are the runtime caps, which are asserted."""

import random
import time
from fractions import Fraction

import bbquiver as bq
from bbquiver.existence import brute_force_stable_count
from kronecker_oracle import kronecker_stable_exact

GOLDEN_POLY = {0: 1, 2: 1, 4: 3, 6: 3, 8: 3, 10: 1, 12: 1}
CHART_MULTISET = [0, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 6]


def report(n, text):
    print(f"\nacceptance criterion {n}: PASS - {text}")


def golden_runs():
    """(quiver, weights, d, theta, components) for every golden pipeline run."""
    out = []
    for l, r in [(2, 1), (3, 1)]:
        quiver = bq.kronecker_quiver(l + 1)
        w = bq.generic_rank1_weights(quiver)
        d = (2, 2 * r + 1)
        classes = bq.enumerate_compatible(quiver, w, d, (1, 0))
        comps = [bq.analyze_component(quiver, w, b) for b in classes]
        out.append((quiver, w, d, (1, 0), comps))
    return out


def test_criterion_1_golden_run(k3, w3):
    start = time.time()
    classes = bq.enumerate_compatible(k3, w3, (2, 3), (1, 0))
    comps = [bq.analyze_component(k3, w3, b) for b in classes]
    pairs = [(c, bq.component_poincare(k3, w3, (1, 0), c)) for c in comps]
    poly = bq.assemble_poincare(pairs)
    elapsed = time.time() - start
    assert len(comps) == 13
    assert all(c.isolated for c in comps)
    assert poly.as_dict() == GOLDEN_POLY
    assert elapsed < 5.0
    report(1, f"13 isolated classes, P(t) = {poly.text()} ({elapsed:.2f}s)")


def test_criterion_2_closed_form_equivalence():
    start = time.time()
    checked = 0
    for l in range(1, 5):
        for r in range(0, l + 1):
            quiver = bq.kronecker_quiver(l + 1)
            w = bq.generic_rank1_weights(quiver)
            for lab in bq.enumerate_type1(l, r):
                beta = bq.label_to_beta(lab, w, quiver)
                ap, am, _ = bq.attractor_dims(quiver, w, beta)
                assert ap == bq.d1_attractor(lab, "plus"), (l, r, lab.display())
                assert am == bq.d1_attractor(lab, "minus"), (l, r, lab.display())
                checked += 1
            for lab in bq.enumerate_type2(l, r):
                beta = bq.label_to_beta(lab, w, quiver)
                ap, _, _ = bq.attractor_dims(quiver, w, beta)
                assert ap == bq.d2_attractor(lab), (l, r, lab.display())
                checked += 1
    k3 = bq.kronecker_quiver(3)
    w3 = bq.generic_rank1_weights(k3)
    classes = bq.enumerate_compatible(k3, w3, (2, 3), (1, 0))
    comps = [bq.analyze_component(k3, w3, b) for b in classes]
    pairs = [(c, bq.component_poincare(k3, w3, (1, 0), c)) for c in comps]
    assert bq.assemble_poincare(pairs) == bq.kronecker_poincare(2, 1)
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(2, f"{checked} labels agree with the pipeline for r <= l <= 4 ({elapsed:.1f}s)")


def test_criterion_3_balance_invariant():
    total_components = 0
    for quiver, w, d, theta, comps in golden_runs():
        dim = 1 - bq.euler_form(quiver, d, d)
        for c in comps:
            assert c.att_plus + c.att_minus + c.dim_component == dim
            table = bq.weight_support(quiver, w, c.beta)
            zero = bq.weight_dimension(quiver, w, c.beta, (0,))
            assert sum(table.values()) + zero == dim
            total_components += 1
    report(3, f"balance holds on {total_components} components across golden runs")


def test_criterion_4_poincare_duality():
    polys = 0
    for quiver, w, d, theta, comps in golden_runs():
        dim = 1 - bq.euler_form(quiver, d, d)
        pairs = [(c, bq.component_poincare(quiver, w, theta, c)) for c in comps]
        poly = bq.assemble_poincare(pairs)
        assert poly.is_palindromic(dim)
        assert poly.coefficient(0) == 1
        assert poly.coefficient(2 * dim) == 1
        polys += 1
    report(4, f"duality and unit end-coefficients hold for {polys} assembled polynomials")


def test_criterion_5_finite_field_oracle(k3, star_quiver):
    start = time.time()
    count = brute_force_stable_count(k3, (2, 3), (1, 0), 2)
    elapsed = time.time() - start
    golden = bq.PoincarePolynomial.from_dict(GOLDEN_POLY)
    assert count == 183 == golden.evaluate_q(2)
    assert elapsed < 30.0
    d = (2, 1, 1, 1, 1, 1)
    theta = (1, 0, 0, 0, 0, 0)
    counts = [(q, brute_force_stable_count(star_quiver, d, theta, q)) for q in (2, 3, 5)]
    interp = bq.interpolate_from_counts(counts, 2)
    assert interp == bq.kirwan_subspace_poincare(5)
    assert interp.as_dict() == {0: 1, 2: 5, 4: 1}
    report(5, f"|M(F_2)| = 183 in {elapsed:.1f}s; star counts {counts} interpolate "
              f"to {interp.text()}")


def test_criterion_6_cell_charts(k3, w3, k3_classes, k3_lifts):
    dims = sorted(bq.choose_complements(rep).total_dim for rep in k3_lifts)
    assert dims == CHART_MULTISET

    lab_open = bq.normal_form_label(2, 1)
    assert (lab_open.m, lab_open.m_star[0], lab_open.n, lab_open.n_star[0]) == (2, 3, 3, 2)
    zero_minus = [l for l in bq.enumerate_type1(2, 1) if bq.d1_attractor(l, "minus") == 0]
    assert zero_minus == [lab_open]

    rep_open = bq.build_fixed_rep(k3, w3, bq.label_to_beta(lab_open, w3, k3), "unit")
    chart_open = bq.choose_complements(rep_open)
    assert chart_open.total_dim == 6
    assert {fc[0] for fc in chart_open.free_coordinates()} == {"a1"}
    assert chart_open.total_dim == (2 * 1 + 1) * (2 * 1 + 1) - 3

    lab_empty = bq.Label1(2, 1, 2, (1,), 3, (1,))  # printed label 1231
    rep_empty = bq.build_fixed_rep(k3, w3, bq.label_to_beta(lab_empty, w3, k3), "unit")
    assert bq.choose_complements(rep_empty).total_dim == 0
    report(6, f"chart multiset {dims}; open cell 6 in the first arrow; 1231 empty; "
              f"unique minus-zero label {lab_open.display()}")


def test_criterion_7_ext_equivalence(k3, w3, k3_classes, k3_lifts):
    rng = random.Random(20)
    checked = 0
    for beta, rep in zip(k3_classes, k3_lifts):
        table = bq.weight_support(k3, w3, beta)
        chis = {c for (c,) in table}  # every realized tangent weight
        while len(chis) < 20:
            chis.add(rng.randint(-650, 650))
        for c in chis:
            if c == 0:
                continue
            _, ext = bq.covering_hom_ext(rep, rep.shift(-c))
            assert ext == bq.weight_dimension(k3, w3, beta, (c,)), (beta, c)
            checked += 1
    report(7, f"Ext^1(N, shifted N) = weight dimension on {checked} samples")


def test_criterion_8_attractor_membership(k3, w3, k3_classes, k3_lifts):
    rng = random.Random(8)
    points = 0
    for beta, rep in zip(k3_classes, k3_lifts):
        chart = bq.choose_complements(rep)
        filt = bq.standard_filtration(rep)
        for _ in range(50):
            vals = [Fraction(rng.randint(-30, 30), rng.randint(1, 5))
                    for _ in range(chart.total_dim)]
            pt = chart.sample_point(vals)
            ok, gr = bq.twisted_filtration_check(pt, filt, w3)
            assert ok
            assert bq.graded_isomorphic(gr, rep)
            mats = [pt.matrix(a.name) for a in k3.arrows]
            assert kronecker_stable_exact(mats)
            points += 1
    report(8, f"{points} sampled chart points attract to their fixed points and are stable")
