"""Quivers, dimension vectors, stability conditions and their arithmetic.

A quiver is a finite directed multigraph.  Dimension vectors and stability
conditions are integer tuples aligned with the declared vertex order; all
arithmetic is exact integer arithmetic, never floats.  The package's
records are plain classes with `__slots__`, and those compared or hashed
take `Record`'s equality, hash and repr, so a fresh interpreter imports no
record generator and compiles no generated code.
"""

from __future__ import annotations

import itertools
import operator

from .errors import ValidationError


class Record:
    """Base of the value records: equality, hash and repr over `_fields`.

    Records of one class are equal when their field tuples are, and hash as
    that tuple does.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"


class Arrow(Record):
    __slots__ = _fields = ("name", "source", "target")

    def __init__(self, name: str, source: str, target: str):
        self.name, self.source, self.target = name, source, target


class Quiver(Record):
    """Finite quiver with string-named vertices and arrows.

    Vertex and arrow order is significant: it fixes the coordinate order of
    dimension vectors and every downstream canonicalization.  The vertex
    index, the arrows out of each vertex and `arrow_pairs`, the (source
    index, target index) of each arrow in order, are derived, outside `_fields`.
    """

    _fields = ("vertices", "arrows")
    __slots__ = (*_fields, "_vindex", "_out", "arrow_pairs")

    def __init__(self, vertices: tuple[str, ...], arrows: tuple[Arrow, ...]):
        self.vertices, self.arrows = vertices, arrows
        if len(set(vertices)) != len(vertices):
            raise ValidationError("duplicate vertex names")
        names = [a.name for a in arrows]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate arrow names")
        vset = set(vertices)
        for a in arrows:
            if a.source not in vset or a.target not in vset:
                raise ValidationError(f"arrow {a.name}: endpoint not a declared vertex")
        self._vindex = {v: k for k, v in enumerate(vertices)}
        self._out = {v: tuple(a for a in arrows if a.source == v) for v in vertices}
        self.arrow_pairs = tuple((self._vindex[a.source], self._vindex[a.target]) for a in arrows)

    @classmethod
    def from_arrows(cls, vertices, arrows):
        """Build from an iterable of (name, source, target) triples."""
        return cls(tuple(vertices), tuple(Arrow(*t) for t in arrows))

    def vertex_index(self, v: str) -> int:
        try:
            return self._vindex[v]
        except KeyError:
            raise ValidationError(f"unknown vertex {v!r}") from None

    def arrows_from(self, v: str) -> tuple[Arrow, ...]:
        return self._out.get(v, ())

    def is_acyclic(self) -> bool:
        indeg = {v: 0 for v in self.vertices}
        for a in self.arrows:
            indeg[a.target] += 1
        queue = [v for v in self.vertices if indeg[v] == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for a in self.arrows_from(v):
                indeg[a.target] -= 1
                if indeg[a.target] == 0:
                    queue.append(a.target)
        return seen == len(self.vertices)

    def max_multiplicity(self) -> int:
        """Largest number of parallel arrows between an ordered vertex pair."""
        count: dict[tuple[str, str], int] = {}
        for a in self.arrows:
            count[(a.source, a.target)] = count.get((a.source, a.target), 0) + 1
        return max(count.values(), default=0)

    def to_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "arrows": [{"name": a.name, "from": a.source, "to": a.target} for a in self.arrows],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Quiver":
        try:
            vertices, arrows = doc["vertices"], doc["arrows"]
            if type(vertices) is not list or type(arrows) is not list:
                raise TypeError("vertices and arrows must be lists")
            arrows = [(a["name"], a["from"], a["to"]) for a in arrows]
            if not all(type(x) is str for x in itertools.chain(vertices, *arrows)):
                raise TypeError("vertex and arrow names must be strings")
            return cls(tuple(vertices), tuple(Arrow(*a) for a in arrows))
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed quiver document: {exc}") from exc


def check_vector(quiver: Quiver, d, name: str = "vector", nonnegative: bool = False) -> tuple[int, ...]:
    """Coerce d to an int tuple matching the quiver's vertex count."""
    t = tuple(int(x) for x in d)
    if len(t) != len(quiver.vertices):
        raise ValidationError(
            f"{name} has {len(t)} entries, quiver has {len(quiver.vertices)} vertices"
        )
    if nonnegative and any(x < 0 for x in t):
        raise ValidationError(f"{name} has negative entries")
    return t


def euler_form(quiver: Quiver, d, e) -> int:
    """Euler form <d,e> = sum_i d_i e_i - sum_{a: i->j} d_i e_j."""
    d = check_vector(quiver, d, "d")
    e = check_vector(quiver, e, "e")
    total = sum(di * ei for di, ei in zip(d, e))
    for s, t in quiver.arrow_pairs:
        total -= d[s] * e[t]
    return total


def slope_scores(theta, d) -> tuple[int, ...]:
    """theta'' = |d| theta - theta(d) 1: theta'' . e = |d| |e| (mu(e) - mu(d)), an integer."""
    total, value = sum(d), sum(t * x for t, x in zip(theta, d))
    return tuple(total * t - value for t in theta)


def is_coprime(quiver: Quiver, d, theta) -> bool:
    """True iff no proper nonzero d' <= d has the same slope as d.

    Decided by exhausting the box 0 <= d' <= d on integer slope scores; fine
    at desk scale.
    """
    d = check_vector(quiver, d, "d", nonnegative=True)
    theta = check_vector(quiver, theta, "theta")
    if sum(d) == 0:
        raise ValidationError("coprimality undefined for the zero dimension vector")
    score = slope_scores(theta, d)
    box = itertools.product(*(range(x + 1) for x in d))
    next(box)  # skip e = 0; e = d scores 0 and comes last, so it must be the first zero
    return next(e for e in box if not sum(map(operator.mul, score, e))) == d

