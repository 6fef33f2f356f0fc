"""Covering-quiver helpers that only the tests use: the target of one
covering arrow, the base dimension vector of a class, and connectedness of
a class's support in the covering."""

from __future__ import annotations

import operator

from bbquiver.core import Arrow, Quiver
from bbquiver.covering import (
    Character,
    CoveringDimVector,
    WeightAssignment,
    _adjacency,
    _as_char,
    _entry_codes,
)


def char_add(a: Character, b: Character) -> Character:
    return tuple(map(operator.add, a, b))


def covering_target(quiver: Quiver, w: WeightAssignment, arrow: Arrow | str, chi) -> tuple[str, Character]:
    """Target of the covering arrow (a, chi), namely (t(a), chi + w_a)."""
    a = quiver.arrow(arrow) if isinstance(arrow, str) else arrow
    chi = _as_char(chi, w.rank)
    return (a.target, char_add(chi, w.of(a)))


def project(beta: CoveringDimVector, quiver: Quiver) -> tuple[int, ...]:
    """Push beta down to Q: d_i = sum over characters of beta_{i, chi}."""
    d = [0] * len(quiver.vertices)
    for (v, _), m in beta.entries:
        d[quiver.vertex_index(v)] += m
    return tuple(d)


def is_connected(quiver: Quiver, w: WeightAssignment, beta: CoveringDimVector) -> bool:
    codec, (rows,) = _entry_codes(w, beta)
    supp = {cv for cv, _ in rows}
    if not supp:
        return True
    adj = _adjacency(quiver, w, codec)
    todo = [next(iter(supp))]
    seen = {todo[0]}
    while todo:
        v, c = todo.pop()
        for u, off in adj[v]:
            nb = (u, c + off)
            if nb in supp and nb not in seen:
                seen.add(nb)
                todo.append(nb)
    return seen == supp
