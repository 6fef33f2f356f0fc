"""Tangent weight spaces and attractor dimensions.

The dimension of the chi-weight space of the tangent space at a fixed point
of class beta is

    delta(chi, 0) - <beta, s_{-chi}(beta)>
      = delta(chi, 0)
        + sum_{a, xi} beta_{s(a), xi} * beta_{t(a), xi + w_a - chi}
        - sum_{i, xi} beta_{i, xi} * beta_{i, xi - chi}.

Everything here is a pure function of (Q, w, beta); attractor sides are
read off from the sign of the character code, which for rank one is chi and
for higher rank is the pairing of chi with the one-parameter subgroup
(B^(n-1), ..., B, 1) of `CharCodec`: the side of chi's first nonzero
coordinate.
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
from .errors import InconsistencyError, UnsupportedError


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
    split by the sign of the code, the sign of chi's first nonzero coordinate.
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


def analyze_component(quiver: Quiver, w: WeightAssignment, beta: CoveringDimVector) -> FixedComponent:
    """Bundle the tangent data of one fixed-point class; a character lies on
    the side of its first nonzero coordinate (`_weight_spaces`)."""
    codes, codec, att_plus, att_minus, dim_component = _weight_spaces(quiver, w, beta)
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
