"""Lagrange interpolation of F_q-point counts: the independent route from
counts at q = 2 .. dim + 3 to a Poincare polynomial, against which the
runtime's base-q digit reader (`bbquiver.betti.interpolate_from_counts`) is
tested, and the coefficient reader the tests use."""

from fractions import Fraction

from bbquiver.betti import PoincarePolynomial
from bbquiver.errors import InconsistencyError, ValidationError


def coefficient(poly: PoincarePolynomial, degree: int) -> int:
    """The coefficient of t^degree."""
    return poly.as_dict().get(degree, 0)


def interpolate(counts, dim: int) -> PoincarePolynomial:
    """The unique integer polynomial of degree <= dim through the counts,
    re-expressed in t with q = t^2.

    Extra counts beyond dim + 1 are used as consistency checks.  Rejects
    non-integer or negative coefficients.
    """
    pts = sorted(counts)
    if len({q for q, _ in pts}) != len(pts):
        raise ValidationError("duplicate field sizes in counts")
    if len(pts) < dim + 1:
        raise ValidationError(f"need at least {dim + 1} counts, got {len(pts)}")
    base, extra = pts[: dim + 1], pts[dim + 1:]
    coeffs = [Fraction(0)] * (dim + 1)
    for qi, ci in base:
        num = [Fraction(1)]
        den = Fraction(1)
        for qj, _ in base:
            if qj == qi:
                continue
            num = _poly_mul(num, [Fraction(-qj), Fraction(1)])
            den *= Fraction(qi - qj)
        scale = Fraction(ci) / den
        for k, x in enumerate(num):
            coeffs[k] += scale * x
    out = {}
    for k, c in enumerate(coeffs):
        if c.denominator != 1:
            raise InconsistencyError(f"non-integer interpolated coefficient {c} at q^{k}")
        if c < 0:
            raise InconsistencyError(f"negative interpolated coefficient {c} at q^{k}")
        if c:
            out[2 * k] = int(c)
    poly = PoincarePolynomial.from_dict(out)
    for q, c in extra:
        if poly.evaluate_q(q) != c:
            raise InconsistencyError(
                f"count at q={q} is {c}, interpolant predicts {poly.evaluate_q(q)}"
            )
    return poly


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out
