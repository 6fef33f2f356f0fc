"""Covering-quiver helpers that only the tests use: an arrow by its name,
the target of one covering arrow, the base dimension vector, total,
multiplicities and characters of a class, connectedness of a class's
support in the covering, the zero character, the total tangent dimension
of a fixed component, every candidate class kept or rejected
(`candidates`), the program's route for weights of any rank (`reduced`, `decoded`), and the
reference route for `enumerate_compatible` (`enumerate_per_support`).

The helpers and the reference work on tuple characters of any rank with
tuple arithmetic, reading the weights as given: a `WeightAssignment` of any
rank, or the rank-1 {arrow name: int} map the kernels take (`as_assignment`).
They never code a character.  A class whose characters have rank n > 1 is a
`CoveringDimVector` wrapped by `wide`, since the program's constructor takes
rank-1 characters only; `wide_canonical` is its canonical shift.  The
reference collects every connected support as a frozenset from one walk per
seed (`_connected_supports`), de-duplicates them in a set, and fills each
support on its own, in support-quiver order, where `enumerate_compatible`
walks once, carries each support's shape in discovery order and finds the
fills once per shape."""

from __future__ import annotations

import itertools
import operator

from bbquiver import hn
from bbquiver.core import Arrow, Quiver, check_vector
from bbquiver.covering import (
    CharCodec,
    CoveringDimVector,
    WeightAssignment,
    _as_char,
    _compositions,
    enumerate_compatible,
    reduce_to_rank_one,
    shape_key,
)
from bbquiver.fixedpoints import FixedComponent

Character = tuple[int, ...]


def char_add(a: Character, b: Character) -> Character:
    return tuple(map(operator.add, a, b))


def char_sub(a: Character, b: Character) -> Character:
    return tuple(map(operator.sub, a, b))


def as_assignment(w) -> WeightAssignment:
    """`w` as a WeightAssignment; rank-1 {arrow name: int} weights wrap as rank 1."""
    return w if isinstance(w, WeightAssignment) else WeightAssignment(1, w)


def wide(items) -> CoveringDimVector:
    """The covering vector of ((vertex, character), count) items, the characters
    tuples of any rank, with its entries sorted as `CoveringDimVector` stores them."""
    entries = [((v, tuple(chi)), m) for (v, chi), m in items if m]
    return CoveringDimVector.trusted(tuple(sorted(entries, key=lambda e: (e[0][1], e[0][0]))))


def wide_canonical(beta: CoveringDimVector) -> CoveringDimVector:
    """`canonicalize` on characters of any rank: the shift whose least character is 0."""
    origin = beta.entries[0][0][1]
    return wide(((v, char_sub(chi, origin)), m) for (v, chi), m in beta.entries)


def zero_character(w) -> Character:
    return (0,) * as_assignment(w).rank


def arrow_named(quiver: Quiver, name: str) -> Arrow:
    return next(a for a in quiver.arrows if a.name == name)


def covering_target(quiver: Quiver, w, arrow: Arrow | str, chi) -> tuple[str, Character]:
    """Target of the covering arrow (a, chi), namely (t(a), chi + w_a)."""
    w = as_assignment(w)
    a = arrow_named(quiver, arrow) if isinstance(arrow, str) else arrow
    chi = _as_char(chi, w.rank)
    return (a.target, char_add(chi, w.weights[a.name]))


def project(beta: CoveringDimVector, quiver: Quiver) -> tuple[int, ...]:
    """Push beta down to Q: d_i = sum over characters of beta_{i, chi}."""
    d = [0] * len(quiver.vertices)
    for (v, _), m in beta.entries:
        d[quiver.vertex_index(v)] += m
    return tuple(d)


def total(beta: CoveringDimVector) -> int:
    return sum(m for _, m in beta.entries)


def multiplicity(beta: CoveringDimVector, v: str, chi: Character) -> int:
    """beta at the covering vertex (v, chi), read from `beta.entries`."""
    return dict(beta.entries).get((v, tuple(chi)), 0)


def characters(beta: CoveringDimVector) -> list[Character]:
    return sorted({chi for (_, chi), _ in beta.entries})


def total_tangent_dim(comp: FixedComponent) -> int:
    return comp.att_plus + comp.att_minus + comp.dim_component


def _adjacency(quiver: Quiver, w) -> dict:
    """Per base vertex, (neighbour vertex, character offset) for every incident arrow.

    The neighbours of (v, chi) in the underlying graph of Q(w) are the
    (u, chi + offset) over adj[v].
    """
    adj, weights = {v: [] for v in quiver.vertices}, as_assignment(w).weights
    for a in quiver.arrows:
        wa = weights[a.name]
        adj[a.source].append((a.target, wa))
        adj[a.target].append((a.source, tuple(-x for x in wa)))
    return adj


def _connected_supports(adj: dict, cap: dict, seed):
    """Connected covering-vertex sets containing `seed` and no character below
    it (lexicographically), each yielded once; `adj` is `_adjacency`.

    Per base vertex v at most cap[v] covering vertices are used.  The extension
    recursion (Wernicke's ESU) hands each branch its candidate frontier
    incrementally: the unexplored later siblings plus the new neighbours of
    the vertex just added, where `seen` holds every vertex already in the set,
    banned, or on the frontier.  So each connected set appears exactly once.
    """
    results = []

    def fresh(cv, seen):
        v, c = cv
        nbs = {(u, char_add(c, off)) for u, off in adj[v]}
        return {nb for nb in nbs if nb not in seen and nb[1] >= seed[1]}

    def rec(current: frozenset, frontier: list, seen: set, per_vertex: dict):
        results.append(current)
        for k, cv in enumerate(frontier):
            if per_vertex.get(cv[0], 0) >= cap[cv[0]]:
                continue
            new = fresh(cv, seen)
            pv = dict(per_vertex)
            pv[cv[0]] = pv.get(cv[0], 0) + 1
            rec(current | {cv}, frontier[k + 1:] + list(new), seen | new, pv)

    first = fresh(seed, {seed})
    rec(frozenset([seed]), list(first), first | {seed}, {seed[0]: 1})
    return results


def is_connected(quiver: Quiver, w, beta: CoveringDimVector) -> bool:
    supp = {cv for cv, _ in beta.entries}
    if not supp:
        return True
    adj = _adjacency(quiver, w)
    todo = [next(iter(supp))]
    seen = {todo[0]}
    while todo:
        v, c = todo.pop()
        for u, off in adj[v]:
            nb = (u, char_add(c, off))
            if nb in supp and nb not in seen:
                seen.add(nb)
                todo.append(nb)
    return seen == supp


def reduced(quiver: Quiver, w, d, theta):
    """(quiver, rank-1 weights, d, theta, codec): the case as the CLI hands it on,
    through `reduce_to_rank_one`."""
    w1, codec = reduce_to_rank_one(as_assignment(w), d)
    return quiver, w1, d, theta, codec


def decoded(codec: CharCodec, beta: CoveringDimVector) -> CoveringDimVector:
    """A class under reduced weights with its characters decoded to rank `codec.rank`."""
    return wide(((v, codec.decode(c)), m) for (v, (c,)), m in beta.entries)


def candidates(quiver: Quiver, w: dict, d, theta) -> list[CoveringDimVector]:
    """Every class `enumerate_compatible` weighs for the theta-coprime d: the
    ones it keeps and the ones it rejects, in one entries-sorted list."""
    rejected: list = []
    kept = enumerate_compatible(quiver, w, d, theta, rejected)
    return sorted(kept + rejected, key=lambda b: b.entries)


def enumerate_per_support(quiver: Quiver, w, d, theta,
                          use_existence_filter: bool = True) -> list[CoveringDimVector]:
    """`enumerate_compatible` on weights of any rank, with every support's
    fills generated, bounded and turned into vectors on their own, and
    has_stable asked on the support quiver of the first class of each
    `shape_key`.  Supports are grown from the zero character, so each class
    comes out canonical: its lexicographically least character is 0."""
    d = check_vector(quiver, d, "d", nonnegative=True)
    theta = check_vector(quiver, theta, "theta")
    vidx, w = quiver.vertex_index, as_assignment(w)
    zero = zero_character(w)
    adj = _adjacency(quiver, w)
    order = [v for v, dv in zip(quiver.vertices, d) if dv]
    cap = dict(zip(quiver.vertices, d))
    supports = {sup for v in order for sup in _connected_supports(adj, cap, (v, zero))
                if len({u for u, _ in sup}) == len(order)}
    arrows_out = {v: [(a.target, w.weights[a.name]) for a in quiver.arrows_from(v)]
                  for v in order}
    out = []
    verdicts: dict = {}
    for sup in supports:
        cvs = sorted(sup, key=lambda cv: (vidx(cv[0]), cv[1]))
        pos = {cv: k for k, cv in enumerate(cvs)}
        links = [(k, pos[t]) for k, (v, c) in enumerate(cvs) for u, wa in arrows_out[v]
                 for t in [(u, char_add(c, wa))] if t in pos]
        theta_hat = tuple(theta[vidx(v)] for v, _ in cvs)
        by_char = sorted(range(len(cvs)), key=lambda k: (cvs[k][1], cvs[k][0]))
        parts = [_compositions(d[vidx(v)], sum(u == v for u, _ in cvs)) for v in order]
        for fill in itertools.product(*parts):
            dims = sum(fill, ())
            if use_existence_filter and \
                    sum(m * m for m in dims) - sum(dims[i] * dims[j] for i, j in links) > 1:
                continue
            beta = CoveringDimVector.trusted(tuple((cvs[k], dims[k]) for k in by_char))
            if use_existence_filter:
                key = shape_key(dims, theta_hat, links)
                if key not in verdicts:
                    sub = Quiver.from_arrows(map(str, range(len(cvs))), (
                        (str(k), str(i), str(j)) for k, (i, j) in enumerate(links)))
                    verdicts[key] = hn.has_stable(sub, dims, theta_hat)
                if not verdicts[key]:
                    continue
            out.append(beta)
    return sorted(out, key=lambda b: b.entries)
