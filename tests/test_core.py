from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import bbquiver as bq
from bbquiver.core import check_vector
from bbquiver.errors import ValidationError
from slope_oracle import slope


def single_vertex():
    return bq.Quiver.from_arrows(("v",), [])


def a2_quiver():
    return bq.Quiver.from_arrows(("x", "y"), [("a", "x", "y")])


class TestQuiver:
    def test_duplicate_vertices_rejected(self):
        with pytest.raises(ValidationError):
            bq.Quiver.from_arrows(("v", "v"), [])

    def test_dangling_arrow_rejected(self):
        with pytest.raises(ValidationError):
            bq.Quiver.from_arrows(("v",), [("a", "v", "w")])

    def test_json_roundtrip(self, k3):
        doc = k3.to_dict()
        again = bq.Quiver.from_dict(doc)
        assert again == k3
        assert doc["arrows"][0] == {"name": "a1", "from": "i", "to": "j"}

    def test_acyclic(self, k3):
        assert k3.is_acyclic()
        loop = bq.Quiver.from_arrows(("v",), [("a", "v", "v")])
        assert not loop.is_acyclic()
        cycle = bq.Quiver.from_arrows(("x", "y"), [("a", "x", "y"), ("b", "y", "x")])
        assert not cycle.is_acyclic()


class TestEulerForm:
    def test_k3_paper_value(self, k3):
        assert bq.euler_form(k3, (2, 3), (2, 3)) == -5
        assert 1 - bq.euler_form(k3, (2, 3), (2, 3)) == 6

    def test_zero_vector(self, k3):
        assert bq.euler_form(k3, (0, 0), (5, 7)) == 0

    def test_single_vertex_identity(self):
        assert bq.euler_form(single_vertex(), (1,), (1,)) == 1

    def test_vertex_mismatch(self, k3):
        with pytest.raises(ValidationError):
            bq.euler_form(k3, (2, 3, 1), (2, 3))

    @given(st.tuples(st.integers(0, 4), st.integers(0, 4)),
           st.tuples(st.integers(0, 4), st.integers(0, 4)),
           st.tuples(st.integers(0, 4), st.integers(0, 4)))
    def test_bilinear(self, d, dp, e):
        q = a2_quiver()
        lhs = bq.euler_form(q, tuple(a + b for a, b in zip(d, dp)), e)
        assert lhs == bq.euler_form(q, d, e) + bq.euler_form(q, dp, e)


class TestSlope:
    def test_direct(self):
        assert slope((1, 0), (2, 3)) == Fraction(2, 5)

    def test_unit_vector(self):
        assert slope((7, -3), (0, 1)) == -3

    def test_zero_theta(self):
        assert slope((0, 0), (4, 9)) == 0

    def test_zero_vector_rejected(self):
        with pytest.raises(ValidationError):
            slope((1, 0), (0, 0))

    @given(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
           st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda d: sum(d) > 0),
           st.integers(1, 5))
    def test_scaling_invariance(self, theta, d, k):
        assert slope(theta, tuple(k * x for x in d)) == slope(theta, d)


class TestCoprime:
    def test_k3_golden(self, k3):
        assert bq.is_coprime(k3, (2, 3), (1, 0))

    def test_zero_theta_never_coprime(self, k3):
        assert not bq.is_coprime(k3, (2, 2), (0, 0))

    def test_unit_vector(self, k3):
        assert bq.is_coprime(k3, (0, 1), (1, 0))

    def test_zero_rejected(self, k3):
        with pytest.raises(ValidationError):
            bq.is_coprime(k3, (0, 0), (1, 0))

    @given(st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda d: sum(d) > 0),
           st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
           st.integers(2, 3))
    def test_divisible_never_coprime(self, d, theta, k):
        q = a2_quiver()
        dd = tuple(k * x for x in d)
        assert not bq.is_coprime(q, dd, theta)


def test_check_vector_coerces():
    q = a2_quiver()
    assert check_vector(q, [1, 2]) == (1, 2)
    with pytest.raises(ValidationError):
        check_vector(q, [1, -2], nonnegative=True)
