"""Tangent weight spaces, one-parameter subgroups and attractor dimensions.

The dimension of the chi-weight space of the tangent space at a fixed point
of class beta is

    delta(chi, 0) - <beta, s_{-chi}(beta)>
      = delta(chi, 0)
        + sum_{a, xi} beta_{s(a), xi} * beta_{t(a), xi + w_a - chi}
        - sum_{i, xi} beta_{i, xi} * beta_{i, xi - chi}.

Everything here is a pure function of (Q, w, beta); rank-one attractor sides
are read off from the sign of chi, higher rank is reduced to rank one
through a one-parameter subgroup.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Quiver
from .covering import (
    Character,
    CoveringDimVector,
    WeightAssignment,
    _as_char,
    char_add,
    char_sub,
    euler_form_covering,
)
from .errors import InconsistencyError, UnsupportedError, ValidationError


def weight_dimension(quiver: Quiver, w: WeightAssignment, beta: CoveringDimVector, chi) -> int:
    """dim of the chi-weight space of the tangent space at a fixed point of class beta.

    Raises InconsistencyError on a negative value, which proves beta is not
    the class of an actual stable fixed point.
    """
    chi = _as_char(chi, w.rank)
    zero = chi == w.zero()
    supp = beta.support()
    arrow_term = 0
    vertex_term = 0
    for (v, xi), m in beta.entries:
        for a in quiver.arrows_from(v):
            arrow_term += m * supp.get((a.target, char_sub(char_add(xi, w.of(a)), chi)), 0)
        vertex_term += m * supp.get((v, char_sub(xi, chi)), 0)
    return _checked((1 if zero else 0) + arrow_term - vertex_term, chi)


def _checked(val: int, chi: Character) -> int:
    if val < 0:
        raise InconsistencyError(
            f"negative weight-space dimension {val} at chi={chi}; "
            "beta does not admit a stable lift"
        )
    return val


def weight_support(quiver: Quiver, w: WeightAssignment, beta: CoveringDimVector) -> dict:
    """All nonzero characters with positive weight-space dimension, with multiplicity.

    One pass over pairs of support entries accumulates the whole formula at
    once: an arrow-linked pair (s(a), xi), (t(a), eta) adds to the character
    xi + w_a - eta, a same-vertex pair (v, xi), (v, eta) subtracts from
    xi - eta, and delta(chi, 0) adds to 0.  Outside these characters both sums
    vanish.  The characters are then checked in sorted order, raising
    InconsistencyError at the first negative dimension as `weight_dimension`
    does.
    """
    by_vertex: dict = {}
    for (v, xi), m in beta.entries:
        by_vertex.setdefault(v, []).append((xi, m))
    zero = w.zero()
    acc = {zero: 1}
    for a in quiver.arrows:
        wa = w.of(a)
        for xi, m in by_vertex.get(a.source, ()):
            for eta, n in by_vertex.get(a.target, ()):
                chi = char_sub(char_add(xi, wa), eta)
                acc[chi] = acc.get(chi, 0) + m * n
    for entries in by_vertex.values():
        for xi, m in entries:
            for eta, n in entries:
                chi = char_sub(xi, eta)
                acc[chi] = acc.get(chi, 0) - m * n
    table = {}
    for chi in sorted(acc):
        if _checked(acc[chi], chi) > 0 and chi != zero:
            table[chi] = acc[chi]
    return table


@dataclass(frozen=True)
class OneParamSubgroup:
    """lambda_i = (R+1)^(n-i), R the max-norm bound of the weight set."""

    exponents: tuple[int, ...]
    bound: int

    def pair(self, chi) -> int:
        chi = _as_char(chi, len(self.exponents))
        return sum(l * c for l, c in zip(self.exponents, chi))


def choose_1psg(characters, rank: int) -> OneParamSubgroup:
    """One-parameter subgroup separating a finite set of nonzero characters.

    Pairs positively with chi exactly when the first nonzero coordinate of
    chi is positive.
    """
    chars = [_as_char(c, rank) for c in characters]
    zero = (0,) * rank
    if zero in chars:
        raise ValidationError("weight set contains 0; no separating subgroup exists")
    bound = max((max(abs(x) for x in c) for c in chars), default=0)
    lam = OneParamSubgroup(tuple((bound + 1) ** (rank - i - 1) for i in range(rank)), bound)
    for c in chars:
        assert lam.pair(c) != 0
    return lam


@dataclass(frozen=True)
class FixedComponent:
    """A fixed-point class with its derived tangent data."""

    beta: CoveringDimVector
    weight_table: dict
    dim_component: int
    att_plus: int
    att_minus: int
    isolated: bool

    def total_tangent_dim(self) -> int:
        return self.att_plus + self.att_minus + self.dim_component


def attractor_dims(quiver: Quiver, w: WeightAssignment, beta: CoveringDimVector) -> tuple[int, int, int]:
    """(att_plus, att_minus, dim_component) for a rank-one action.

    att_plus sums weight dimensions over positive characters, att_minus over
    negative ones; the invariant part is the component dimension
    1 - <beta, beta>.
    """
    if w.rank != 1:
        raise UnsupportedError("attractor sides need a rank-1 action; compose with choose_1psg first")
    table = weight_support(quiver, w, beta)
    att_plus = sum(v for (c,), v in table.items() if c > 0)
    att_minus = sum(v for (c,), v in table.items() if c < 0)
    dim_component = weight_dimension(quiver, w, beta, (0,))
    return att_plus, att_minus, dim_component


def analyze_component(quiver: Quiver, w: WeightAssignment, beta: CoveringDimVector,
                      lam: OneParamSubgroup | None = None) -> FixedComponent:
    """Bundle the tangent data of one fixed-point class.

    For rank > 1 a one-parameter subgroup must be supplied (or is chosen from
    the component's own weights) to split the tangent space into sides.
    """
    table = weight_support(quiver, w, beta)
    dim_component = weight_dimension(quiver, w, beta, w.zero())
    if w.rank == 1:
        att_plus = sum(v for (c,), v in table.items() if c > 0)
        att_minus = sum(v for (c,), v in table.items() if c < 0)
    else:
        if lam is None:
            lam = choose_1psg(table.keys(), w.rank) if table else OneParamSubgroup((1,) * w.rank, 0)
        att_plus = sum(v for c, v in table.items() if lam.pair(c) > 0)
        att_minus = sum(v for c, v in table.items() if lam.pair(c) < 0)
        if att_plus + att_minus != sum(table.values()):
            raise InconsistencyError("one-parameter subgroup does not separate the weight set")
    return FixedComponent(beta, table, dim_component, att_plus, att_minus, dim_component == 0)


def generic_normal_form_test(quiver: Quiver, w: WeightAssignment, beta: CoveringDimVector) -> bool:
    """True iff beta is a real root and its minus-attractor vanishes.

    These are exactly the conditions under which the plus-attractor chart of
    the isolated fixed point is a dense open cell of the moduli space.
    """
    if w.rank != 1:
        raise UnsupportedError("the open-cell criterion is a rank-1 statement")
    if euler_form_covering(quiver, w, beta, beta) != 1:
        return False
    _, att_minus, _ = attractor_dims(quiver, w, beta)
    return att_minus == 0
