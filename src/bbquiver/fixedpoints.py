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
from functools import cached_property

from .core import Quiver
from .covering import (
    Character,
    CharCodec,
    CoveringDimVector,
    WeightAssignment,
    _as_char,
    _entry_codes,
    euler_form_covering,
    shift,
)
from .errors import InconsistencyError, UnsupportedError, ValidationError


def weight_dimension(quiver: Quiver, w: WeightAssignment, beta: CoveringDimVector, chi) -> int:
    """dim of the chi-weight space of the tangent space at a fixed point of class beta.

    Raises InconsistencyError on a negative value, which proves beta is not
    the class of an actual stable fixed point.
    """
    chi = _as_char(chi, w.rank)
    moved = shift(beta, tuple(-x for x in chi))
    return _checked((0 if any(chi) else 1) - euler_form_covering(quiver, w, beta, moved), chi)


def _checked(val: int, chi: Character) -> int:
    if val < 0:
        raise InconsistencyError(f"negative weight-space dimension {val} at chi={chi}; "
                                 "beta does not admit a stable lift")
    return val


def _weight_spaces(quiver: Quiver, w: WeightAssignment, beta: CoveringDimVector):
    """(codes, codec, plus side, minus side, zero-weight dimension) in one pass.

    An arrow-linked pair of support entries (s(a), xi), (t(a), eta) adds to
    the character xi + w_a - eta, a same-vertex pair (v, xi), (v, eta)
    subtracts from xi - eta, and delta(chi, 0) adds to 0; outside these
    characters both sums vanish.  Characters are integer codes, checked in
    sorted order (the tuples' order), raising InconsistencyError at the first
    negative dimension as `weight_dimension` does.  `codes` maps each nonzero
    code of positive dimension to that dimension, in code order.  The sides
    split by the sign of the code: the side of the subgroup `choose_1psg`
    would pick.
    """
    codec, (rows,) = _entry_codes(w, beta)
    by_vertex: dict = {}
    for (v, c), m in rows:
        by_vertex.setdefault(v, []).append((c, m))
    acc = {0: 1}
    for a in quiver.arrows:
        wa = codec.encode(w.of(a))
        targets = by_vertex.get(a.target, ())
        for xi, m in by_vertex.get(a.source, ()):
            for eta, n in targets:
                chi = xi + wa - eta
                acc[chi] = acc.get(chi, 0) + m * n
    for entries in by_vertex.values():
        for xi, m in entries:
            for eta, n in entries:
                chi = xi - eta
                acc[chi] = acc.get(chi, 0) - m * n
    codes, sides = {}, [0, 0]
    for chi in sorted(acc):
        val = acc[chi]
        if val < 0:
            _checked(val, codec.decode(chi))
        if val and chi:
            codes[chi] = val
            sides[chi < 0] += val
    return codes, codec, sides[0], sides[1], acc[0]


def weight_support(quiver: Quiver, w: WeightAssignment, beta: CoveringDimVector) -> dict:
    """All nonzero characters with positive weight-space dimension, with
    multiplicity, from one pass over pairs of support entries (`_weight_spaces`)."""
    return analyze_component(quiver, w, beta).weight_table


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
    if any(lam.pair(c) == 0 for c in chars):
        raise InconsistencyError("one-parameter subgroup does not separate the weight set")
    return lam


@dataclass(frozen=True)
class FixedComponent:
    """A fixed-point class with its derived tangent data."""

    beta: CoveringDimVector
    codes: dict  # nonzero character code -> weight-space dimension (`_weight_spaces`)
    codec: CharCodec
    dim_component: int
    att_plus: int
    att_minus: int
    isolated: bool

    @cached_property
    def weight_table(self) -> dict:
        """Nonzero character -> weight-space dimension where positive, decoded on first read."""
        return {self.codec.decode(c): m for c, m in self.codes.items()}


def analyze_component(quiver: Quiver, w: WeightAssignment, beta: CoveringDimVector,
                      lam: OneParamSubgroup | None = None) -> FixedComponent:
    """Bundle the tangent data of one fixed-point class.

    For rank > 1 a supplied one-parameter subgroup splits the tangent space
    into sides; without one the sides are those of the subgroup
    `choose_1psg` picks from the component's own weights, which puts a
    character on the side of its first nonzero coordinate.
    """
    codes, codec, att_plus, att_minus, dim_component = _weight_spaces(quiver, w, beta)
    if w.rank > 1 and lam is not None:
        pairs = [(lam.pair(codec.decode(c)), v) for c, v in codes.items()]
        att_plus = sum(v for p, v in pairs if p > 0)
        att_minus = sum(v for p, v in pairs if p < 0)
        if att_plus + att_minus != sum(codes.values()):
            raise InconsistencyError("one-parameter subgroup does not separate the weight set")
    return FixedComponent(beta, codes, codec, dim_component, att_plus, att_minus,
                          dim_component == 0)


def generic_normal_form_test(c: FixedComponent) -> bool:
    """True iff the class is a real root and its minus-attractor vanishes.

    These are exactly the conditions under which the plus-attractor chart of
    the isolated fixed point is a dense open cell of the moduli space.  The
    zero weight space has dimension 1 - <beta, beta>, so beta is a real root
    exactly when the component is isolated.
    """
    if c.beta.rank != 1:
        raise UnsupportedError("the open-cell criterion is a rank-1 statement")
    return c.isolated and c.att_minus == 0
