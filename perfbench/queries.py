"""The benchmark's workloads: fixed query lists, seeded inputs and answer checks.

Every query is described once in canonical names.  `materialize` turns it
into the files and argv the program sees for one workload seed: the seed
renames vertices and arrows and permutes declaration order only inside
symmetric groups (parallel arrows, equal-dimension leaves), so the answer
and the amount of work are the same on every seed.  `judge` maps the
program's JSON answer back to canonical names, checks it against a
reference from an independent route, and returns a digest of it.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import string
from dataclasses import dataclass, field
from pathlib import Path

REFS = json.loads((Path(__file__).with_name("refs.json")).read_text())

# The golden K3, d=(2,3) polynomial (README, acceptance criterion 1).
GOLDEN_K3 = {0: 1, 2: 1, 4: 3, 6: 3, 8: 3, 10: 1, 12: 1}

# Poincare polynomials of the Kronecker moduli, d = (2, 2r+1) on l+1 arrows,
# as even-degree coefficient lists b_0, b_2, ...  They are the closed form of
# `kronecker_poincare` with Kirwan's Betti numbers of x points on P^1,
# b_j = sum_{nu <= min(j, x-3-j)} C(x-1, nu); test_perfbench.py re-derives
# them.  For r <= 2 and (5, 3), every component has x <= 5 and the program's
# closed form agrees; (6, 3) and (7, 3) have x = 7 components, where it does not.
KRONECKER_REF = {
    (3, 1): [1, 1, 3, 4, 7, 8, 10, 8, 7, 4, 3, 1, 1],
    (4, 1): [1, 1, 3, 4, 7, 9, 14, 16, 20, 20, 20, 16, 14, 9, 7, 4, 3, 1, 1],
    (5, 1): [1, 1, 3, 4, 7, 9, 14, 17, 24, 28, 34, 36, 39, 36, 34, 28, 24, 17,
             14, 9, 7, 4, 3, 1, 1],
    (3, 2): [1, 1, 3, 4, 7, 8, 10, 8, 7, 4, 3, 1, 1],
    (5, 2): [1, 1, 3, 4, 8, 11, 18, 24, 35, 45, 61, 74, 93, 106, 122, 128, 134,
             128, 122, 106, 93, 74, 61, 45, 35, 24, 18, 11, 8, 4, 3, 1, 1],
    (6, 2): [1, 1, 3, 4, 8, 11, 18, 24, 36, 47, 65, 82, 108, 132, 165, 195, 232,
             262, 295, 315, 334, 336, 334, 315, 295, 262, 232, 195, 165, 132,
             108, 82, 65, 47, 36, 24, 18, 11, 8, 4, 3, 1, 1],
    (6, 3): [1, 1, 3, 4, 8, 11, 19, 26, 39, 52, 73, 94, 126, 157, 201, 243, 298,
             348, 408, 456, 508, 540, 569, 572, 569, 540, 508, 456, 408, 348,
             298, 243, 201, 157, 126, 94, 73, 52, 39, 26, 19, 11, 8, 4, 3, 1, 1],
    (7, 3): [1, 1, 3, 4, 8, 11, 19, 26, 40, 54, 77, 101, 138, 176, 231, 288, 365,
             445, 549, 654, 785, 915, 1067, 1211, 1371, 1509, 1651, 1757, 1852,
             1898, 1926, 1898, 1852, 1757, 1651, 1509, 1371, 1211, 1067, 915,
             785, 654, 549, 445, 365, 288, 231, 176, 138, 101, 77, 54, 40, 26,
             19, 11, 8, 4, 3, 1, 1],
    (5, 3): [1, 1, 3, 4, 8, 11, 18, 24, 35, 45, 61, 74, 93, 106, 122, 128, 134,
             128, 122, 106, 93, 74, 61, 45, 35, 24, 18, 11, 8, 4, 3, 1, 1],
}


class AnswerError(Exception):
    """The program's answer is wrong or unreadable."""


@dataclass(frozen=True)
class Shape:
    """A quiver in canonical names, with the groups a seed may permute."""

    vertices: tuple
    arrows: tuple                 # (name, source, target)
    vertex_groups: tuple = ()     # interchangeable vertices
    arrow_groups: tuple = ()      # interchangeable arrows


def kronecker_shape(n: int) -> Shape:
    arrows = tuple((f"a{k}", "i", "j") for k in range(1, n + 1))
    return Shape(("i", "j"), arrows, (), (tuple(a[0] for a in arrows),))


def star_shape(leaves: int) -> Shape:
    """Centre c with one arrow c -> p_k to each leaf."""
    ps = tuple(f"p{k}" for k in range(1, leaves + 1))
    arrows = tuple((f"f{k}", "c", p) for k, p in enumerate(ps, 1))
    return Shape(("c",) + ps, arrows, (ps,), (tuple(a[0] for a in arrows),))


def chain_shape() -> Shape:
    """u => v => x: the three-vertex chain with doubled arrows."""
    arrows = (("a1", "u", "v"), ("a2", "u", "v"), ("b1", "v", "x"), ("b2", "v", "x"))
    return Shape(("u", "v", "x"), arrows, (), (("a1", "a2"), ("b1", "b2")))


@dataclass(frozen=True)
class Query:
    """One CLI query in canonical names.

    `kind` selects how the answer is read and checked; `ref` is the
    reference it is checked against (see `judge`).
    """

    label: str
    command: str
    kind: str
    shape: Shape | None = None
    dim: tuple = ()
    theta: tuple = ()
    weights: dict | None = None   # canonical arrow -> character, rank inferred
    options: tuple = ()
    ref: object = None
    extra: dict = field(default_factory=dict)


@dataclass
class Materialized:
    query: Query
    argv: list
    vertex_back: dict             # generated vertex name -> canonical


def _fresh_names(rng: random.Random, prefix: str, count: int, taken: set) -> list:
    out = []
    while len(out) < count:
        name = prefix + "".join(rng.choice(string.ascii_lowercase) for _ in range(5))
        if name not in taken:
            taken.add(name)
            out.append(name)
    return out


def _permute_within(order: list, groups, rng: random.Random) -> list:
    order = list(order)
    for group in groups:
        slots = [k for k, x in enumerate(order) if x in group]
        members = [order[k] for k in slots]
        rng.shuffle(members)
        for k, x in zip(slots, members):
            order[k] = x
    return order


def materialize(query: Query, seed: int, index: int, directory: Path) -> Materialized:
    """Write the query's input files under `directory` and build its argv."""
    rng = random.Random(f"{seed}:{index}:{query.label}")
    argv = [query.command]
    vertex_back: dict = {}
    if query.shape is not None:
        shape = query.shape
        taken: set = set()
        vnames = dict(zip(shape.vertices, _fresh_names(rng, "v", len(shape.vertices), taken)))
        anames = dict(zip((a[0] for a in shape.arrows),
                          _fresh_names(rng, "a", len(shape.arrows), taken)))
        vorder = _permute_within(shape.vertices, shape.vertex_groups, rng)
        by_name = {a[0]: a for a in shape.arrows}
        aorder = _permute_within([a[0] for a in shape.arrows], shape.arrow_groups, rng)
        doc = {"vertices": [vnames[v] for v in vorder],
               "arrows": [{"name": anames[a], "from": vnames[by_name[a][1]],
                           "to": vnames[by_name[a][2]]} for a in aorder]}
        qpath = directory / f"q{index:02d}-quiver.json"
        qpath.write_text(json.dumps(doc))
        pos = {v: k for k, v in enumerate(shape.vertices)}
        argv += ["--quiver", str(qpath),
                 "--dim", ",".join(str(query.dim[pos[v]]) for v in vorder),
                 "--theta", ",".join(str(query.theta[pos[v]]) for v in vorder)]
        if query.weights is not None:
            rank = len(next(iter(query.weights.values())))
            wdoc = {"rank": rank,
                    "weights": {anames[a]: list(query.weights[a]) for a in aorder}}
            wpath = directory / f"q{index:02d}-weights.json"
            wpath.write_text(json.dumps(wdoc))
            argv += ["--weights", str(wpath)]
        vertex_back = {g: c for c, g in vnames.items()}
    argv += [str(seed) if x == "{seed}" else x for x in query.options]
    argv += ["--format", "json"]
    return Materialized(query, argv, vertex_back)


# ---------------------------------------------------------------- checks

def _poly(doc) -> dict:
    return {int(k): int(v) for k, v in doc.items()}


def _ref_poly(coeffs) -> dict:
    return {2 * k: c for k, c in enumerate(coeffs) if c}


def _palindromic(poly: dict, dim: int) -> bool:
    return all(poly.get(2 * dim - d, 0) == c for d, c in poly.items())


def _kronecker_dim(l: int, r: int) -> int:
    """1 - <d, d> for d = (2, 2r+1) on l+1 parallel arrows."""
    n = 2 * r + 1
    return 1 - (4 + n * n - (l + 1) * 2 * n)


def _check_poly(poly: dict, ref: dict, dim: int) -> None:
    if not _palindromic(poly, dim):
        raise AnswerError(f"not palindromic in dimension {dim}: {poly}")
    if poly != ref:
        raise AnswerError(f"polynomial {poly} differs from the reference {ref}")


def _canonical_beta(rows, mat: Materialized) -> list:
    return sorted([mat.vertex_back[e["vertex"]], e["char"], e["dim"]] for e in rows)


def _label_counts(l: int, r: int) -> tuple:
    """Numbers of type-1 and type-2 labels of the Kronecker closed form."""
    type1 = math.comb(l + 1, 2) * math.comb(l, r) ** 2
    type2 = 0
    for y in range(max(0, 2 * r - l), r):
        x = 2 * (r - y) + 1
        if x + y <= l + 1:
            type2 += math.comb(l + 1, x) * math.comb(l + 1 - x, y)
    return type1, type2


def _answer(payload: dict, mat: Materialized):
    """Extract and check the answer; returns it in canonical, seed-free form."""
    q = mat.query
    kind = q.kind
    if kind == "poincare":
        poly = _poly(payload["poincare"])
        if payload["checks"]["duality"] is not True:
            raise AnswerError("the program reports a duality failure")
        _check_poly(poly, q.ref, payload["checks"]["dimension"])
        return poly
    if kind == "count":
        if payload["count"] != q.ref:
            raise AnswerError(f"count {payload['count']} differs from the reference {q.ref}")
        return payload["count"]
    if kind == "classes":
        if payload["checks"]["balance"] is not True:
            raise AnswerError("balance invariant fails")
        valid = {}
        for row in payload["components"]:
            if "invalid" not in row:
                valid[json.dumps(_canonical_beta(row["beta"], mat))] = (
                    row["att_plus"], row["att_minus"])
        for beta, att_plus, att_minus in REFS[q.ref]:
            key = json.dumps(sorted(beta))
            if valid.get(key) != (att_plus, att_minus):
                raise AnswerError(f"filtered class {beta} missing or with other attractors")
        return {"count": payload["count"], "valid": sorted(valid.items())}
    if kind == "cells":
        if payload["checks"]["charts_match_attractors"] is not True:
            raise AnswerError("chart dimensions do not match attractors")
        dims = sorted(cell["dimension"] for cell in payload["cells"])
        gen: dict = {}
        for k in dims:
            gen[2 * k] = gen.get(2 * k, 0) + 1
        if gen != q.ref:
            raise AnswerError(f"chart dimensions {dims} do not sum to the reference polynomial")
        return {"dims": dims,
                "stars": sorted(sum(row.count("*") for grid in cell["patterns"].values()
                                    for row in grid) for cell in payload["cells"])}
    if kind == "kronecker":
        l, r = q.extra["l"], q.extra["r"]
        dim = _kronecker_dim(l, r)
        poly = _poly(payload["poincare"])
        _check_poly(poly, q.ref, dim)
        kinds = [row["kind"] for row in payload["labels"]]
        if (kinds.count(1), kinds.count(2)) != _label_counts(l, r):
            raise AnswerError("label counts differ from the binomial formula")
        for row in payload["labels"]:
            if row["kind"] == 1 and row["att_plus"] + row["att_minus"] != dim:
                raise AnswerError(f"label {row['label']} breaks balance")
        return {"poly": poly, "labels": len(kinds)}
    raise ValueError(f"unknown answer kind {kind!r}")


def digest(answer) -> str:
    blob = json.dumps(answer, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def judge(mat: Materialized, exit_code: int, stdout: str) -> tuple:
    """(ok, answer digest or None, reason) for one finished query.

    A non-zero exit, including a refusal such as exit 3, and a wrong or
    unreadable answer both count as a failed query.
    """
    if exit_code != 0:
        return False, None, f"exit code {exit_code}"
    try:
        answer = _answer(json.loads(stdout), mat)
    except AnswerError as exc:
        return False, None, str(exc)
    except (ValueError, KeyError, TypeError) as exc:
        return False, None, f"unreadable answer: {exc!r}"
    return True, digest(answer), ""


# ------------------------------------------------------------- workloads

def _kron(l: int, r: int):
    return kronecker_shape(l + 1), (2, 2 * r + 1), (1, 0)


def _ladder_poincare(l: int, r: int) -> Query:
    shape, dim, theta = _kron(l, r)
    return Query(f"poincare K{l + 1} d=(2,{2 * r + 1})", "poincare", "poincare",
                 shape, dim, theta, ref=_ref_poly(KRONECKER_REF[(l, r)]))


def _cells(l: int, r: int) -> Query:
    shape, dim, theta = _kron(l, r)
    return Query(f"cells K{l + 1} d=(2,{2 * r + 1})", "cells", "cells", shape, dim, theta,
                 options=("--seed", "{seed}"), ref=_ref_poly(KRONECKER_REF[(l, r)]))


def _closed_form(l: int, r: int) -> Query:
    return Query(f"kronecker l={l} r={r}", "kronecker", "kronecker",
                 options=("--l", str(l), "--r", str(r)),
                 ref=_ref_poly(KRONECKER_REF[(l, r)]), extra={"l": l, "r": r})


STAR7 = (star_shape(7), (2,) + (1,) * 7, (1,) + (0,) * 7)
STAR5 = (star_shape(5), (2,) + (1,) * 5, (1,) + (0,) * 5)
CHAIN = (chain_shape(), (1, 2, 2), (2, 1, 0))
K3_23 = (kronecker_shape(3), (2, 3), (1, 0))

WORKLOADS = {
    # Covering enumeration, the existence filter and tangent analysis.
    "ladder": [
        _ladder_poincare(3, 1),
        _ladder_poincare(4, 1),
        _ladder_poincare(3, 2),
        Query("fixed-points --filter off K4 d=(2,5)", "fixed-points", "classes",
              *_kron(3, 2), options=("--filter", "off"), ref="k4_2_5_filtered"),
    ],
    # Component providers and the finite-field counting kernels.
    "oracle": [
        Query("count K2 d=(3,2) q=2", "count", "count",
              kronecker_shape(2), (3, 2), (1, 0), options=("--field", "2"), ref=1),
        Query("count K4 d=(2,3) q=2", "count", "count",
              *_kron(3, 1), options=("--field", "2"), ref=15135),
        Query("count star7 q=3", "count", "count", *STAR7, options=("--field", "3"), ref=490),
        Query("count chain (1,2,2) q=4", "count", "count", *CHAIN,
              options=("--field", "4"), ref=457),
        Query("poincare K3 d=(3,4)", "poincare", "poincare", kronecker_shape(3), (3, 4), (1, 0),
              ref={0: 1, 2: 1, 4: 3, 6: 5, 8: 8, 10: 10, 12: 12, 14: 10, 16: 8, 18: 5,
                   20: 3, 22: 1, 24: 1}),
        Query("poincare chain (1,2,2)", "poincare", "poincare", *CHAIN,
              ref={0: 1, 2: 2, 4: 4, 6: 2, 8: 1}),
        Query("poincare star5", "poincare", "poincare", *STAR5, ref={0: 1, 2: 5, 4: 1}),
        Query("poincare K2 d=(1,1) trivial weights", "poincare", "poincare",
              kronecker_shape(2), (1, 1), (1, 0), weights={"a1": (1,), "a2": (1,)},
              ref={0: 1, 2: 1}),
        Query("poincare K3 d=(2,3) rank-2 weights", "poincare", "poincare", *K3_23,
              weights={"a1": (1, 0), "a2": (0, 1), "a3": (1, 1)}, ref=GOLDEN_K3),
    ],
    # Fixed representatives, Hom/Ext certification and chart emission.
    "charts": [_cells(4, 1), _cells(5, 1), _cells(3, 2)],
    # Label enumeration, closed-form attractors and polynomial arithmetic.
    "closed-form": [_closed_form(5, 2), _closed_form(6, 2), _closed_form(5, 3)],
    # Queries that fail on the current program (ROADMAP items 1 and 3).
    # Not listed in BENCHMARK.json, whose workloads must not fail; run this
    # workload to see the defects.
    "defects": [
        Query("poincare star7", "poincare", "poincare", *STAR7,
              ref={0: 1, 2: 7, 4: 22, 6: 7, 8: 1}),
        Query("poincare K3 d=(2,3) trivial weights", "poincare", "poincare", *K3_23,
              weights={"a1": (1,), "a2": (1,), "a3": (1,)}, ref=GOLDEN_K3),
        _closed_form(6, 3),
        _closed_form(7, 3),
    ],
}
