"""Poincare polynomials: component polynomials and global assembly.

Cohomology of the moduli spaces in scope is concentrated in even degrees,
so polynomials live in t^2, and the point count over F_q is the polynomial
at t^2 = q.  Its coefficients, the Betti numbers, are the base-Q digits of
the Harder-Narasimhan count at one field size Q larger than all of them.
"""

from __future__ import annotations

import functools
import math

from .core import Quiver, Record
from .covering import shape_key, support_quiver
from .errors import InconsistencyError, ValidationError
from .fixedpoints import FixedComponent
from .hn import stable_counts


class PoincarePolynomial(Record):
    """Integer polynomial in t with only even-degree terms."""

    __slots__ = _fields = ("coefficients",)  # (degree, coefficient) pairs, sorted, coefficient > 0

    def __init__(self, coefficients: tuple):
        self.coefficients = coefficients
        self.__post_init__()  # looked up on the class, where perfbench's tracer counts it

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
        self.coefficients = tuple(fixed)

    @classmethod
    def from_dict(cls, coeffs: dict) -> "PoincarePolynomial":
        return cls(tuple(coeffs.items()))

    @classmethod
    def one(cls) -> "PoincarePolynomial":
        return cls(((0, 1),))

    def as_dict(self) -> dict:
        return dict(self.coefficients)

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

    def _terms(self, power: str, sep: str) -> str:
        """The terms joined by " + ": c at degree 0, else c, sep and
        power.format(d), with a coefficient 1 left out."""
        return " + ".join(str(c) if d == 0 else (power if c == 1 else f"{c}{sep}{power}").format(d)
                          for d, c in self.coefficients) or "0"

    def text(self) -> str:
        return self._terms("t^{}", "")

    def latex(self) -> str:
        return self._terms("t^{{{}}}", " ")

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


def component_poincare(quiver: Quiver, w: dict, theta,
                       component: FixedComponent, memo: dict | None = None) -> PoincarePolynomial:
    """Poincare polynomial of one fixed-point component.

    An isolated component is a point.  Any other component is the moduli
    space of its support quiver under the lifted stability theta-hat, read
    off its HN counts by `stable_poincare`, once per `shape_key` of that
    quiver when the caller passes one `memo` dict for its components.
    """
    if component.isolated:
        return PoincarePolynomial.one()
    sq = support_quiver(quiver, w, component.beta)
    theta_hat = sq.lift_stability(theta)
    key = shape_key(sq.dims, theta_hat, sq.quiver.arrow_pairs)
    memo = {} if memo is None else memo
    if key not in memo:
        memo[key] = stable_poincare(sq.quiver, sq.dims, theta_hat, component.dim_component)
    return memo[key]


def stable_poincare(quiver: Quiver, d, theta, dim: int) -> PoincarePolynomial:
    """Poincare polynomial of M^theta-st(Q, d), for theta-coprime d on an
    acyclic quiver, from its HN counts at q = 2 and q = 2^(a+2), a = a(d, d).

    The count at q = 2 is at most |R_d(F_2)| = 2^a, so the larger size
    exceeds every Betti number (see `interpolate_from_counts`), and it is not
    2 even when d meets no arrow.
    """
    a = sum(d[s] * d[t] for s, t in quiver.arrow_pairs)
    return interpolate_from_counts(stable_counts(quiver, d, theta, (2, 2 ** (a + 2))), dim)


def assemble_poincare(components) -> PoincarePolynomial:
    """Sum over components of t^(2 att_plus) times the component polynomial.

    `components` is an iterable of (FixedComponent, PoincarePolynomial).
    """
    total: dict = {}
    for comp, poly in components:
        shift = 2 * comp.att_plus
        for d, c in poly.coefficients:
            total[d + shift] = total.get(d + shift, 0) + c
    return PoincarePolynomial.from_dict(total)


def interpolate_from_counts(counts, dim: int) -> PoincarePolynomial:
    """The polynomial sum_i b_2i t^2i of degree <= 2 dim whose value at
    t^2 = q is the count at q, for each (q, count) in `counts`.

    The b_2i are the base-Q digits of the count at the largest size Q.  They
    are nonnegative, so each is at most the count at the smallest size,
    which Q must exceed; the other counts check the digits.
    """
    pts = sorted(counts)
    if len({q for q, _ in pts}) != len(pts):
        raise ValidationError("duplicate field sizes in counts")
    if len(pts) < 2:
        raise ValidationError(f"need at least 2 counts, got {len(pts)}")
    if any(c < 0 for _, c in pts):
        raise ValidationError("counts must be nonnegative")
    (q0, c0), (base, n) = pts[0], pts[-1]
    if base <= c0:
        raise ValidationError(f"q={base} does not exceed the count {c0} at q={q0}, "
                              "which bounds every Betti number")
    digits = []
    while n and len(digits) <= dim:
        n, b = divmod(n, base)
        digits.append(b)
    if n:
        raise InconsistencyError(f"count {pts[-1][1]} at q={base} has a nonzero digit "
                                 f"above q^{dim}")
    poly = PoincarePolynomial.from_dict({2 * k: b for k, b in enumerate(digits)})
    for q, c in pts[:-1]:
        if poly.evaluate_q(q) != c:
            raise InconsistencyError(f"count at q={q} is {c}, the digits at q={base} "
                                     f"predict {poly.evaluate_q(q)}")
    return poly
