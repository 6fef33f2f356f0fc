"""Second routes for the cell charts, kept for the tests.

Plain (ungraded) representations with their Hom and Ext^1; graded ones
built from blocks of any rational entries, checked for shape and frozen
(`graded_rep`, where the program's GradedRep takes the int blocks of its
fills as they are); the one walk over pairs of levels that lays out every
degree k >= 0 of the Hom map between two graded representations at once
(the reference for `_degree_zero` and `_graded_blocks`, which lay out a
representation against itself) and their Hom and Ext^1 over the covering,
read from its degree 0; the dense matrix of the bracket in one degree; a
graded representation read level by level; a chart's free coordinates as
one list; and the twisted-filtration check of attractor membership: a
point of a chart attracts to its fixed point exactly when it maps the
standard filtration of the fixed representation into the weight-shifted
filtration, with an associated graded isomorphic to the fixed
representation.  The dense Fraction solvers (`zeros`, `rank`, `solve`,
`row_space_contains`) serve this route and the other oracles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from bbquiver.cells import CellChart, GradedRep, _basis, _graded_blocks, _hom_rows, _size
from bbquiver.core import Quiver, check_vector
from bbquiver.covering import CoveringDimVector
from bbquiver.covering import shift as shift_covering
from bbquiver.errors import InconsistencyError, ValidationError
from bbquiver.linalg import leading_columns, rref
from covering_oracle import arrow_named, project


def zeros(rows: int, cols: int):
    return [[Fraction(0)] * cols for _ in range(rows)]


def rank(m) -> int:
    return len(leading_columns([{c: x for c, x in enumerate(row) if x} for row in m]))


def solve(a, b):
    """One solution x of a x = b (columns of b), or None if inconsistent."""
    if not a:
        return [] if all(all(x == 0 for x in row) for row in b) else None
    rows, cols = len(a), len(a[0])
    bcols = len(b[0]) if b else 0
    aug = [a[i][:] + b[i][:] for i in range(rows)]
    red, pivots = rref(aug)
    for row in red:
        if all(x == 0 for x in row[:cols]) and any(x != 0 for x in row[cols:]):
            return None
    x = zeros(cols, bcols)
    for r, c in enumerate(pivots):
        if c >= cols:
            return None
        for j in range(bcols):
            x[c][j] = red[r][cols + j]
    return x


def row_space_contains(sub_rows, big_rows) -> bool:
    """True iff the row space of sub_rows lies inside that of big_rows."""
    if not sub_rows:
        return True
    if not big_rows:
        return all(all(x == 0 for x in row) for row in sub_rows)
    r_big = rank(big_rows)
    return rank(big_rows + sub_rows) == r_big


def _freeze_matrix(m, rows, cols, what="matrix"):
    """The matrix as a tuple of rows; integer entries stay int, others become Fraction."""
    if rows and cols and (len(m) != rows or any(len(r) != cols for r in m)):
        raise ValidationError(f"{what} has wrong shape, expected {rows}x{cols}")
    if not set(map(type, itertools.chain(*m))) <= {int}:
        m = [[x if type(x) is int else Fraction(x) for x in row] for row in m]
    return tuple(map(tuple, m))


def graded_rep(quiver: Quiver, weights: dict, beta: CoveringDimVector, blocks: dict) -> GradedRep:
    """The GradedRep of `blocks` {(arrow, n): rows}, checked for shape and frozen,
    with the blocks between unpopulated levels dropped."""
    dims = {(v, n): m for (v, (n,)), m in beta.entries}
    fixed = {}
    for (name, n), m in blocks.items():
        a = arrow_named(quiver, name)
        rows = dims.get((a.target, n + weights[name]), 0)
        cols = dims.get((a.source, n), 0)
        if rows == 0 or cols == 0:
            continue
        fixed[(name, int(n))] = _freeze_matrix(m, rows, cols, f"block ({name}, {n})")
    return GradedRep(quiver, weights, beta, fixed)


@dataclass(frozen=True)
class Representation:
    """A representation of a finite quiver with exact rational matrices."""

    quiver: Quiver
    dims: tuple[int, ...]
    matrices: dict

    def __post_init__(self):
        dims = check_vector(self.quiver, self.dims, "dims", nonnegative=True)
        object.__setattr__(self, "dims", dims)
        idx = self.quiver.vertex_index
        fixed = {}
        for a in self.quiver.arrows:
            rows, cols = dims[idx(a.target)], dims[idx(a.source)]
            m = self.matrices.get(a.name)
            if m is None:
                m = tuple(tuple(Fraction(0) for _ in range(cols)) for _ in range(rows))
            fixed[a.name] = _freeze_matrix(m, rows, cols, f"matrix of arrow {a.name}")
        object.__setattr__(self, "matrices", fixed)

    def matrix(self, arrow_name: str):
        return self.matrices[arrow_name]

    def dim(self, v: str) -> int:
        return self.dims[self.quiver.vertex_index(v)]


def _hom_ext_of(dom, cod) -> tuple[int, int]:
    rk = len(leading_columns(_hom_rows(dom, cod)))
    return _size(dom) - rk, _size(cod) - rk


def hom_ext(M: Representation, N: Representation) -> tuple[int, int]:
    """(dim Hom, dim Ext^1) between representations of the same quiver.

    Computed as nullity and corank of the map sending a vertex-wise tuple
    (A_i) to (A_{t(a)} M_a - N_a A_{s(a)})_a, which resolves Hom and Ext^1
    for path algebras.
    """
    if M.quiver is not N.quiver and M.quiver != N.quiver:
        raise ValidationError("hom_ext needs representations of one common quiver")
    Q = M.quiver
    dom = [(v, N.dim(v), M.dim(v)) for v in Q.vertices if N.dim(v) and M.dim(v)]
    cod = [(a.name, N.dim(a.target), M.dim(a.source), a.source, a.target,
            M.matrix(a.name), N.matrix(a.name))
           for a in Q.arrows if N.dim(a.target) and M.dim(a.source)]
    return _hom_ext_of(dom, cod)


def covering_hom_ext(M: GradedRep, N: GradedRep) -> tuple[int, int]:
    """(dim Hom, dim Ext^1) over the covering quiver, level by level: the
    degree-0 piece of the graded Hom blocks."""
    if M.quiver != N.quiver or M.weights != N.weights:
        raise ValidationError("graded representations live over different coverings")
    return _hom_ext_of(*graded_blocks_from_zero(M, N).get(0, ([], [])))


def graded_blocks_from_zero(M: GradedRep, N: GradedRep) -> dict:
    """{k: (dom, cod)} for every nonempty degree k >= 0, in one walk over the
    pairs of levels m <= n: for N = M, the layout that `_degree_zero` (k = 0)
    and `_graded_blocks` (k > 0) split between them."""
    m_dims, m_levels, n_dims, n_levels = M._dims, M._levels, N._dims, N._levels
    out: dict = {}
    for v in M.quiver.vertices:
        below = [(m, n_dims[(v, m)]) for m in n_levels.get(v, ())]
        for n in m_levels.get(v, ()):
            key, cols = (v, n), m_dims[(v, n)]
            for m, rows in below:
                if m > n:
                    break
                (out.get(n - m) or out.setdefault(n - m, ([], [])))[0].append((key, rows, cols))
    for a in M.quiver.arrows:
        name, target, wa = a.name, a.target, M.weights[a.name]
        below = [(m, n_dims[(target, m)], N.blocks.get((name, m - wa)))
                 for m in n_levels.get(target, ())]
        for n in m_levels.get(a.source, ()):
            top, key, src = n + wa, (name, n), (a.source, n)
            cols, tgt, f = m_dims[src], (target, top), M.blocks.get(key)
            for m, rows, g in below:
                if m > top:
                    break
                (out.get(top - m) or out.setdefault(top - m, ([], [])))[1].append(
                    (key, rows, cols, src, tgt, f, g))
    return out


def is_schur(rep: GradedRep) -> bool:
    hom, _ = covering_hom_ext(rep, rep)
    return hom == 1


def levels(rep: GradedRep, v: str) -> list[int]:
    return list(rep._levels.get(v, ()))


def level_dim(rep: GradedRep, v: str, n: int) -> int:
    """dim V_{v,n}, 0 where the level is empty."""
    return rep._dims.get((v, n), 0)


def arrow_weight(rep: GradedRep, arrow_name: str) -> int:
    return rep.weights[arrow_name]


def block(rep: GradedRep, arrow_name: str, n: int):
    """The block of the arrow at source level n, zero where none is stored."""
    got = rep.blocks.get((arrow_name, n))
    if got is not None:
        return got
    a = arrow_named(rep.quiver, arrow_name)
    rows = level_dim(rep, a.target, n + arrow_weight(rep, arrow_name))
    cols = level_dim(rep, a.source, n)
    return tuple(tuple(Fraction(0) for _ in range(cols)) for _ in range(rows))


def shift(rep: GradedRep, c: int) -> GradedRep:
    """The translated representation whose level xi holds the old level xi + c."""
    return GradedRep(
        rep.quiver,
        rep.weights,
        shift_covering(rep.beta, c),
        {(name, n - c): m for (name, n), m in rep.blocks.items()},
    )


def level_offsets(rep: GradedRep, v: str) -> dict:
    """Start index of each level inside the assembled plain vertex space."""
    return dict(rep._offsets.get(v, {}))


def ungraded(rep: GradedRep) -> Representation:
    """Forget the grading: one representation of the base quiver, with
    vertex bases ordered by ascending level."""
    dims = project(rep.beta, rep.quiver)
    idx = rep.quiver.vertex_index
    mats = {a.name: [[Fraction(0)] * dims[idx(a.source)] for _ in range(dims[idx(a.target)])]
            for a in rep.quiver.arrows}
    for (name, n), blk in rep.blocks.items():
        a = arrow_named(rep.quiver, name)
        t0 = rep._offsets[a.target][n + arrow_weight(rep, name)]
        s0 = rep._offsets[a.source][n]
        m = mats[name]
        for r, row in enumerate(blk):
            m[t0 + r][s0:s0 + len(row)] = row
    return Representation(rep.quiver, dims, mats)


def _degree_candidates(rep: GradedRep) -> list[int]:
    return sorted(_graded_blocks(rep))


def graded_pieces(rep: GradedRep, k: int):
    """Bases of u_k and R_k plus the exact matrix of the bracket x -> [x, M]
    restricted to degree k.

    Coordinates are ordered by declaration order (vertices for u, arrows for
    R), then ascending level, then row-major within each block.
    """
    if k <= 0:
        raise ValidationError("graded pieces are indexed by positive degrees")
    dom, cod = _graded_blocks(rep).get(k, ((), ()))
    u_basis, r_basis = _basis(dom), _basis(cod)
    ad = zeros(len(r_basis), len(u_basis))
    for col, row in enumerate(_hom_rows(dom, cod)):
        for i, x in row.items():
            ad[i][col] = x
    return u_basis, r_basis, ad


def free_coordinates(chart: CellChart) -> list[tuple]:
    """(arrow, source level, row, col, degree) for every free entry of the chart."""
    return [(*coord, k) for k, free in chart.degrees.items() for coord in free]


def sample_point(chart: CellChart, values) -> Representation:
    """The plain representation {M} + sum values[c] * (free coordinate c).

    `values` is a sequence of rationals, one per free coordinate, in the
    order of free_coordinates(chart).
    """
    coords = free_coordinates(chart)
    values = [Fraction(v) for v in values]
    if len(values) != len(coords):
        raise ValidationError(f"need {len(coords)} coordinate values")
    base = chart.base
    flat = ungraded(base)
    mats = {a: [list(row) for row in flat.matrix(a)] for a in flat.matrices}
    for (a, n, r, c, k), val in zip(coords, values):
        arrow = arrow_named(base.quiver, a)
        wa = arrow_weight(base, a)
        t_off = level_offsets(base, arrow.target)
        s_off = level_offsets(base, arrow.source)
        mats[a][t_off[n + wa - k] + r][s_off[n] + c] += val
    return Representation(flat.quiver, flat.dims, mats)


def star_count(grids: dict) -> int:
    return sum(row.count("*") for grid in grids.values() for row in grid)


def standard_filtration(rep: GradedRep) -> dict:
    """F_{i,n} = sum of the level spaces up to n, in plain coordinates."""
    out = {}
    for v in rep.quiver.vertices:
        lv = levels(rep, v)
        if not lv:
            continue
        offs = level_offsets(rep, v)
        total = sum(level_dim(rep, v, n) for n in lv)
        by_level = {}
        for n in lv:
            top = offs[n] + level_dim(rep, v, n)
            rows = []
            for k in range(top):
                row = [Fraction(0)] * total
                row[k] = Fraction(1)
                rows.append(row)
            by_level[n] = rows
        out[v] = by_level
    return out


def _step_value(by_level: dict, n: int):
    """Value of a step filtration at level n: largest keyed level <= n."""
    chosen = None
    for key in sorted(by_level):
        if key <= n:
            chosen = key
    if chosen is None:
        return []
    return by_level[chosen]


def twisted_filtration_check(N: Representation, filtration: dict, w: dict):
    """Does N map each filtration level into the weight-shifted level?

    Returns (True, gr) with the induced graded representation on success and
    (False, None) when some arrow violates a level containment.  The
    filtration is a per-vertex map {level: spanning rows}; it must be nested
    and exhaust the vertex space at its top level.
    """
    Q = N.quiver
    for v in Q.vertices:
        if N.dim(v) == 0:
            continue
        if v not in filtration or not filtration[v]:
            raise ValidationError(f"no filtration given at vertex {v}")
        keys = sorted(filtration[v])
        prev = []
        for n in keys:
            cur = [list(row) for row in filtration[v][n]]
            if not row_space_contains(prev, cur):
                raise ValidationError(f"filtration at {v} is not nested at level {n}")
            prev = cur
        if rank(prev) != N.dim(v):
            raise ValidationError(f"filtration at {v} does not exhaust the vertex space")
    for a in Q.arrows:
        if N.dim(a.source) == 0:
            continue
        wa = w[a.name]
        fs = filtration[a.source]
        ft = filtration[a.target] if N.dim(a.target) else {}
        mat = N.matrix(a.name)
        for n, rows in fs.items():
            images = [_mat_vec(mat, vec) for vec in rows]
            images = [img for img in images if any(x != 0 for x in img)]
            if not images:
                continue
            target_rows = [list(r) for r in _step_value(ft, n + wa)]
            if not row_space_contains(images, target_rows):
                return False, None
    gr = _associated_graded(N, filtration, w)
    return True, gr


def _mat_vec(mat, vec):
    return [sum(row[j] * vec[j] for j in range(len(vec))) for row in mat]


def _adapted_bases(filtration_v, dim_full):
    """Per level: vectors extending the previous level's space, plus the
    accumulated basis below each level."""
    keys = sorted(filtration_v)
    adapted = {}
    below = []
    for n in keys:
        cur = filtration_v[n]
        lifts = []
        acc = [list(r) for r in below]
        for vec in cur:
            cand = acc + [list(vec)]
            if rank(cand) > rank(acc):
                lifts.append(list(vec))
                acc = cand
        adapted[n] = (below, lifts)
        below = acc
    return adapted


def _associated_graded(N: Representation, filtration: dict, w: dict) -> GradedRep:
    Q = N.quiver
    adapted = {}
    level_dims = {}
    for v in Q.vertices:
        if N.dim(v) == 0:
            continue
        adapted[v] = _adapted_bases(filtration[v], N.dim(v))
        for n, (below, lifts) in adapted[v].items():
            if lifts:
                level_dims[(v, (n,))] = len(lifts)
    beta = CoveringDimVector.from_dict(level_dims)
    blocks = {}
    for a in Q.arrows:
        wa = w[a.name]
        if N.dim(a.source) == 0 or N.dim(a.target) == 0:
            continue
        mat = N.matrix(a.name)
        for n, (below_s, lifts_s) in adapted[a.source].items():
            if not lifts_s:
                continue
            m = n + wa
            if (a.target, (m,)) not in level_dims:
                continue
            below_t, lifts_t = adapted[a.target][m]
            basis_rows = [list(r) for r in below_t] + [list(r) for r in lifts_t]
            images = []
            for u in lifts_s:
                img = _mat_vec(mat, u)
                coeffs = solve([list(col) for col in zip(*basis_rows)],
                               [[x] for x in img])
                if coeffs is None:
                    raise InconsistencyError("graded image left the filtration step")
                images.append([coeffs[len(below_t) + i][0] for i in range(len(lifts_t))])
            # images are indexed by source lifts; transpose to target x source
            rows = len(lifts_t)
            cols = len(lifts_s)
            blocks[(a.name, n)] = [[images[c][r] for c in range(cols)] for r in range(rows)]
    return graded_rep(Q, w, beta, blocks)


def graded_isomorphic(A: GradedRep, B: GradedRep) -> bool:
    """Same dimension data, both Schur, and a nonzero homomorphism: then the
    two graded representations are isomorphic."""
    if A.beta != B.beta:
        return False
    if not is_schur(A) or not is_schur(B):
        return False
    hom, _ = covering_hom_ext(A, B)
    return hom >= 1
