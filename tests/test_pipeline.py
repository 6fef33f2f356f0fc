"""Cross-cutting checks on quivers away from the two-vertex family, plus an
independent brute-force oracle for the class enumeration."""

import itertools

import pytest

import bbquiver as bq
from covering_oracle import (as_assignment, candidates, decoded, is_connected, project, reduced,
                             total_tangent_dim, wide, wide_canonical)

pytest.importorskip("numpy")  # the brute-force F_q oracle below needs it
from bbquiver.existence import brute_force_stable_count


def window_enumerate(quiver, w, d, width):
    """Independent oracle: place every unit on a character in [0, width]^rank,
    keep connected compatible placements, dedupe by canonical form.

    A canonical class has its lex-least character at 0 and spans at most
    (total units - 1) arrow steps, so a wide enough window sees every class.
    """
    rank = as_assignment(w).rank
    chars = list(itertools.product(range(width + 1), repeat=rank))
    out = set()
    assignments = [
        itertools.combinations_with_replacement(chars, dv) for dv in d
    ]
    for combo in itertools.product(*assignments):
        support = {}
        for v, assignment in zip(quiver.vertices, combo):
            for chi in assignment:
                support[(v, chi)] = support.get((v, chi), 0) + 1
        beta = wide(support.items())
        if beta.is_zero() or project(beta, quiver) != tuple(d):
            continue
        if not is_connected(quiver, w, beta):
            continue
        out.add(wide_canonical(beta))
    return out


def a3_chain():
    return bq.Quiver.from_arrows(("x", "y", "z"), [("a", "x", "y"), ("b", "y", "z")])


def y_quiver():
    # two sources into one sink: x -> y <- z
    return bq.Quiver.from_arrows(("x", "y", "z"), [("a", "x", "y"), ("b", "z", "y")])


class TestEnumerationOracle:
    @pytest.mark.parametrize("d,width", [((1, 2), 4), ((2, 3), 8)])
    def test_two_vertex_rank1(self, d, width):
        quiver = bq.kronecker_quiver(2)
        w = {"a1": 2, "a2": 1}
        mine = set(candidates(quiver, w, d, (1, 0)))
        assert mine == window_enumerate(quiver, w, d, width)

    def test_two_vertex_rank2(self):
        quiver = bq.kronecker_quiver(2)
        w = bq.WeightAssignment(2, {"a1": (1, 0), "a2": (0, 1)})
        *case, codec = reduced(quiver, w, (1, 2), (1, 0))
        mine = {decoded(codec, beta) for beta in candidates(*case)}
        assert mine == window_enumerate(quiver, w, (1, 2), 2)

    def test_chain(self):
        w = {"a": 2, "b": 1}
        mine = set(candidates(a3_chain(), w, (1, 1, 1), (2, 0, -1)))
        assert mine == window_enumerate(a3_chain(), w, (1, 1, 1), 4)

    def test_mixed_orientation(self):
        w = {"a": 1, "b": 2}
        mine = set(candidates(y_quiver(), w, (1, 2, 1), (2, 0, 1)))
        assert mine == window_enumerate(y_quiver(), w, (1, 2, 1), 4)


class TestChainPipeline:
    """d = (1,1,1) on the oriented chain: a single isolated fixed point."""

    def test_full_run(self):
        quiver = a3_chain()
        theta = (2, 0, -1)
        w = bq.generic_rank1_weights(quiver)
        assert bq.is_coprime(quiver, (1, 1, 1), theta)
        classes = bq.enumerate_compatible(quiver, w, (1, 1, 1), theta)
        assert len(classes) == 1
        comps = [bq.analyze_component(quiver, w, b) for b in classes]
        assert comps[0].isolated
        assert total_tangent_dim(comps[0]) == 1 - bq.euler_form(quiver, (1, 1, 1), (1, 1, 1)) == 0
        pairs = [(c, bq.component_poincare(quiver, w, theta, c)) for c in comps]
        poly = bq.assemble_poincare(pairs)
        assert poly.as_dict() == {0: 1}
        for q in (2, 3):
            assert brute_force_stable_count(quiver, (1, 1, 1), theta, q) == poly.evaluate_q(q)


class TestEmptyModuli:
    """d = (2,3) on a single arrow: no stable representation at all."""

    def test_everything_is_empty(self):
        quiver = bq.Quiver.from_arrows(("x", "y"), [("a", "x", "y")])
        theta = (1, 0)
        assert bq.is_coprime(quiver, (2, 3), theta)
        assert not bq.has_stable(quiver, (2, 3), theta)
        assert brute_force_stable_count(quiver, (2, 3), theta, 2) == 0
        w = bq.generic_rank1_weights(quiver)
        assert bq.enumerate_compatible(quiver, w, (2, 3), theta) == []


class TestCountAgreesWithAssembledPolynomial:
    """Point counts over several fields match the assembled polynomial."""

    def test_k2_projective_line(self):
        quiver = bq.kronecker_quiver(2)
        w = bq.generic_rank1_weights(quiver)
        theta = (1, 0)
        classes = bq.enumerate_compatible(quiver, w, (1, 1), theta)
        comps = [bq.analyze_component(quiver, w, b) for b in classes]
        pairs = [(c, bq.component_poincare(quiver, w, theta, c)) for c in comps]
        poly = bq.assemble_poincare(pairs)
        assert poly.as_dict() == {0: 1, 2: 1}
        for q in (2, 3, 4, 5):
            assert brute_force_stable_count(quiver, (1, 1), theta, q) == q + 1

    def test_k3_dim_1_2(self):
        quiver = bq.kronecker_quiver(3)
        w = bq.generic_rank1_weights(quiver)
        theta = (1, 0)
        classes = bq.enumerate_compatible(quiver, w, (1, 2), theta)
        comps = [bq.analyze_component(quiver, w, b) for b in classes]
        pairs = [(c, bq.component_poincare(quiver, w, theta, c)) for c in comps]
        poly = bq.assemble_poincare(pairs)
        dim = 1 - bq.euler_form(quiver, (1, 2), (1, 2))
        assert poly.is_palindromic(dim)
        for q in (2, 3):
            assert brute_force_stable_count(quiver, (1, 2), theta, q) == poly.evaluate_q(q)
