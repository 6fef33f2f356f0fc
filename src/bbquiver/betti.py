"""Poincare polynomials: component polynomials and global assembly.

Cohomology of the moduli spaces in scope is concentrated in even degrees,
so polynomials live in t^2; point counts over F_q are then polynomial in q,
and interpolating the Harder-Narasimhan counts recovers Betti numbers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import Quiver
from .covering import WeightAssignment, support_quiver
from .errors import InconsistencyError, ValidationError
from .fixedpoints import FixedComponent
from .hn import stable_counts


@dataclass(frozen=True)
class PoincarePolynomial:
    """Integer polynomial in t with only even-degree terms."""

    coefficients: tuple  # tuple of (degree, coefficient), sorted, coefficient > 0

    def __post_init__(self):
        merged: dict = {}
        for deg, c in self.coefficients:
            deg, c = int(deg), int(c)
            if deg < 0 or deg % 2 != 0:
                raise ValidationError(f"degree {deg} is not even and nonnegative")
            merged[deg] = merged.get(deg, 0) + c
        fixed = []
        for deg in sorted(merged):
            c = merged[deg]
            if c == 0:
                continue
            if c < 0:
                raise ValidationError(f"negative coefficient {c} at degree {deg}")
            fixed.append((deg, c))
        object.__setattr__(self, "coefficients", tuple(fixed))

    @classmethod
    def from_dict(cls, coeffs: dict) -> "PoincarePolynomial":
        return cls(tuple(coeffs.items()))

    @classmethod
    def one(cls) -> "PoincarePolynomial":
        return cls(((0, 1),))

    def as_dict(self) -> dict:
        return dict(self.coefficients)

    def coefficient(self, degree: int) -> int:
        return self.as_dict().get(degree, 0)

    def shift(self, cell_dim: int) -> "PoincarePolynomial":
        """Multiply by t^(2 * cell_dim)."""
        return PoincarePolynomial(tuple((d + 2 * cell_dim, c) for d, c in self.coefficients))

    def __add__(self, other: "PoincarePolynomial") -> "PoincarePolynomial":
        out = self.as_dict()
        for d, c in other.coefficients:
            out[d] = out.get(d, 0) + c
        return PoincarePolynomial.from_dict(out)

    def evaluate(self, t: int) -> int:
        return sum(c * t**d for d, c in self.coefficients)

    def evaluate_q(self, q: int) -> int:
        """Value after the substitution t^2 -> q (the point-count specialization)."""
        return sum(c * q ** (d // 2) for d, c in self.coefficients)

    def is_palindromic(self, dim: int) -> bool:
        """Poincare duality t^(2 dim) P(1/t) = P(t)."""
        coeffs = self.as_dict()
        degrees = set(coeffs) | {2 * dim - d for d in coeffs}
        return all(coeffs.get(d, 0) == coeffs.get(2 * dim - d, 0) for d in degrees)

    def text(self) -> str:
        if not self.coefficients:
            return "0"
        parts = []
        for d, c in self.coefficients:
            if d == 0:
                parts.append(str(c))
            else:
                term = f"t^{d}" if d > 1 else "t"
                parts.append(term if c == 1 else f"{c}{term}")
        return " + ".join(parts)

    def latex(self) -> str:
        if not self.coefficients:
            return "0"
        parts = []
        for d, c in self.coefficients:
            if d == 0:
                parts.append(str(c))
            else:
                term = f"t^{{{d}}}"
                parts.append(term if c == 1 else f"{c} {term}")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.text()


@functools.lru_cache(maxsize=None)
def kirwan_subspace_poincare(x: int) -> PoincarePolynomial:
    """Betti numbers of stable configurations of x points on the line modulo
    the projective group (Kirwan): b_{2j} = sum_{nu=0}^{min(j, x-3-j)}
    binom(x-1, nu), for j = 0 .. x-3.  Memoised by x."""
    if x < 3 or x % 2 == 0:
        raise ValidationError("the subspace-star count x must be odd and at least 3")
    coeffs = {}
    for j in range(x - 2):
        coeffs[2 * j] = sum(math.comb(x - 1, nu) for nu in range(min(j, x - 3 - j) + 1))
    return PoincarePolynomial.from_dict(coeffs)


def component_poincare(quiver: Quiver, w: WeightAssignment, theta,
                       component: FixedComponent) -> PoincarePolynomial:
    """Poincare polynomial of one fixed-point component.

    An isolated component is a point.  Any other component is the moduli
    space of its support quiver under the lifted stability theta-hat: its
    HN counts at q = 2 .. dim + 3 interpolate to the polynomial, and the
    spare count checks the interpolant.
    """
    if component.isolated and component.dim_component == 0:
        return PoincarePolynomial.one()
    sq = support_quiver(quiver, w, component.beta)
    dim = component.dim_component
    counts = stable_counts(sq.quiver, sq.dims, sq.lift_stability(theta), range(2, dim + 4))
    return interpolate_from_counts(counts, dim)


def assemble_poincare(components) -> PoincarePolynomial:
    """Sum over components of t^(2 att_plus) times the component polynomial.

    `components` is an iterable of (FixedComponent, PoincarePolynomial).
    """
    total = PoincarePolynomial(())
    for comp, poly in components:
        total = total + poly.shift(comp.att_plus)
    return total


def interpolate_from_counts(counts, dim: int) -> PoincarePolynomial:
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
    # Lagrange interpolation over the rationals
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
