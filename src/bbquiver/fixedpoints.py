"""Tangent weight spaces and attractor dimensions.

The dimension of the chi-weight space of the tangent space at a fixed point
of class beta is

    delta(chi, 0) - <beta, s_{-chi}(beta)>
      = delta(chi, 0)
        + sum_{a, xi} beta_{s(a), xi} * beta_{t(a), xi + w_a - chi}
        - sum_{i, xi} beta_{i, xi} * beta_{i, xi - chi}.

Everything here is a pure function of (Q, w, beta), w being rank-1 weights
{arrow name: int}, and a character chi is one integer; attractor sides are
read off its sign.  A rank-n action arrives through
`covering.reduce_to_rank_one`: chi is then the pairing of a rank-n
character with the one-parameter subgroup of `CharCodec`, whose sign is the
side of the character's first nonzero coordinate.
"""

from __future__ import annotations

from .core import Quiver
from .covering import CoveringDimVector, euler_form_covering, shift
from .errors import InconsistencyError


def weight_dimension(quiver: Quiver, w: dict, beta: CoveringDimVector, chi: int) -> int:
    """dim of the chi-weight space of the tangent space at a fixed point of class beta.

    Raises InconsistencyError on a negative value, which proves beta is not
    the class of an actual stable fixed point.
    """
    moved = shift(beta, -chi)
    return _checked((0 if chi else 1) - euler_form_covering(quiver, w, beta, moved), chi)


def _checked(val: int, chi: int) -> int:
    if val < 0:
        raise InconsistencyError(f"negative weight-space dimension {val} at chi={chi}; "
                                 "beta does not admit a stable lift")
    return val


def weight_support(quiver: Quiver, w: dict, beta: CoveringDimVector) -> dict:
    """All nonzero characters with positive weight-space dimension, with
    multiplicity: the `weight_table` of `analyze_component`."""
    return analyze_component(quiver, w, beta).weight_table


class FixedComponent:
    """A fixed-point class with its derived tangent data; `weight_table` maps
    each nonzero character to its weight-space dimension where positive."""

    __slots__ = ("beta", "weight_table", "dim_component", "att_plus", "att_minus", "isolated")

    def __init__(self, beta: CoveringDimVector, weight_table: dict, dim_component: int,
                 att_plus: int, att_minus: int, isolated: bool):
        self.beta, self.weight_table, self.dim_component = beta, weight_table, dim_component
        self.att_plus, self.att_minus, self.isolated = att_plus, att_minus, isolated


def analyze_component(quiver: Quiver, w: dict, beta: CoveringDimVector) -> FixedComponent:
    """The tangent data of one fixed-point class, from one pass over pairs of
    its support entries.

    An arrow-linked pair of support entries (s(a), xi), (t(a), eta) adds to
    the character xi + w_a - eta, a same-vertex pair (v, xi), (v, eta)
    subtracts from xi - eta, and delta(chi, 0) adds to 0; outside these
    characters both sums vanish.  Characters are checked in sorted order,
    raising InconsistencyError at the first negative dimension as
    `weight_dimension` does.  The weight table maps each nonzero character
    of positive dimension to that dimension, in character order; a character
    lies on the attractor side of its sign, and the zero weight space is the
    component's tangent space.  The table lives as long as the component, so
    a report that does not print it can drop each component once read.
    """
    by_vertex: dict = {}
    for (v, (c,)), m in beta.entries:
        by_vertex.setdefault(v, []).append((c, m))
    acc = {0: 1}
    for a in quiver.arrows:
        wa = w[a.name]
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
    table, sides = {}, [0, 0]
    for chi in sorted(acc):
        val = acc[chi]
        if val < 0:
            _checked(val, chi)
        if val and chi:
            table[chi] = val
            sides[chi < 0] += val
    dim_component = acc[0]
    return FixedComponent(beta, table, dim_component, sides[0], sides[1], dim_component == 0)


def generic_normal_form_test(c: FixedComponent) -> bool:
    """True iff the class is a real root and its minus-attractor vanishes.

    These are exactly the conditions under which the plus-attractor chart of
    the isolated fixed point is a dense open cell of the moduli space.  The
    zero weight space has dimension 1 - <beta, beta>, so beta is a real root
    exactly when the component is isolated.
    """
    return c.isolated and c.att_minus == 0
