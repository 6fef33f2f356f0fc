import functools
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import bbquiver as bq
from bbquiver import existence, hn
from bbquiver.cli import main
from bbquiver.covering import CoveringDimVector
from bbquiver.errors import BudgetExceededError, InconsistencyError, UnsupportedError
from bbquiver.existence import brute_force_stable_count
from bbquiver.finitefield import (
    batch_rank_ge,
    small_field,
    subspaces,
    vec_decode,
    vec_encode,
)
from bbquiver.hn import gl_order, pg_order
from schofield_oracle import generic_subdimensions


def k2():
    return bq.kronecker_quiver(2)


def closure_subspaces(n, q):
    """(dim, sorted members) of every subspace of GF(q)^n, found by closing
    spans level by level and sorting each level by its member codes."""
    F = small_field(q)
    vectors = [vec_decode(c, n, q) for c in range(q**n)]
    levels = [[frozenset([0])]]
    for _ in range(n):
        seen = set()
        for sub in levels[-1]:
            for v in vectors:
                if vec_encode(v, q) in sub:
                    continue
                span = set(sub)
                for c in range(1, q):
                    for code in sub:
                        m = vec_decode(code, n, q)
                        span.add(vec_encode([F.add[a, F.mul[c, b]] for a, b in zip(m, v)], q))
                seen.add(frozenset(span))
        levels.append(sorted(seen, key=sorted))
    return [(dim, sorted(s)) for dim, level in enumerate(levels) for s in level]


def gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def minors_count(n, m, q):
    """Stable points of R(K_n, (2, m))(F_q), m = 2r+1, from batched minors over
    every representation: the stacked columns have rank m and, for every
    nonzero x, the images A_a x have rank at least r+1."""
    F = small_field(q)
    r = (m - 1) // 2
    radix = q ** (2 * m)
    codes = np.arange(radix, dtype=np.int64)

    def entry(a, i, j):  # entry (i, j) of arrow a; column-major matrix codes
        shape = [1] * n
        shape[a] = radix
        return ((codes // q ** (j * m + i)) % q).astype(np.uint8).reshape(shape)

    ok = batch_rank_ge([[entry(a, i, j) for i in range(m)] for a in range(n) for j in range(2)],
                       m, F)
    for x0, x1 in itertools.product(range(q), repeat=2):
        if (x0, x1) == (0, 0):
            continue
        images = [[F.add[F.mul[entry(a, i, 0), x0], F.mul[entry(a, i, 1), x1]] for i in range(m)]
                  for a in range(n)]
        ok = ok & batch_rank_ge(images, r + 1, F)
    return int(np.broadcast_to(ok, (radix,) * n).sum())


def mat_decode(code, rows, cols, q):
    """Column-major decode of a rows x cols matrix over GF(q)."""
    flat = vec_decode(code, rows * cols, q)
    return tuple(tuple(flat[c * rows + r] for c in range(cols)) for r in range(rows))


def maps_into(mat, source, target, q):
    """Does the matrix map the subspace `source` into `target`?"""
    F = small_field(q)
    for b in source.basis:
        image = [0] * len(mat)
        for r, row in enumerate(mat):
            for a, x in zip(row, b):
                image[r] = int(F.add[image[r], F.mul[a, x]])
        if vec_encode(image, q) not in target.members:
            return False
    return True


def flag_array_count(quiver, d, theta, q):
    """Stable points of R(Q, d)(F_q): mark every representation admitting a
    destabilizing invariant subspace tuple, then count the unmarked ones.

    The subspace tuples range over products of the full subspace lattices of
    the vertex spaces; for a fixed tuple the invariant representations form a
    product set across arrows, marked in one numpy fancy-index assignment.
    """
    idx = quiver.vertex_index
    radices = [q ** (d[idx(a.source)] * d[idx(a.target)]) for a in quiver.arrows]
    flags = np.zeros(radices, dtype=bool)
    subs = [subspaces(d[idx(v)], q) for v in quiver.vertices]
    mu = bq.slope(theta, d)

    shape_tables: dict = {}
    arrow_tables = []
    for a in quiver.arrows:
        si, ti = idx(a.source), idx(a.target)
        if (si, ti) not in shape_tables:
            rows, cols = d[ti], d[si]
            mats = [mat_decode(code, rows, cols, q) for code in range(q ** (rows * cols))]
            table = {}
            for us_i, us in enumerate(subs[si]):
                for ut_i, ut in enumerate(subs[ti]):
                    codes = [code for code, m in enumerate(mats) if maps_into(m, us, ut, q)]
                    table[(us_i, ut_i)] = np.array(codes, dtype=np.int64)
            shape_tables[(si, ti)] = table
        arrow_tables.append(shape_tables[(si, ti)])

    for tup in itertools.product(*(range(len(s)) for s in subs)):
        dims = tuple(subs[i][k].dim for i, k in enumerate(tup))
        if sum(dims) == 0 or dims == tuple(d):
            continue
        if bq.slope(theta, dims) < mu:
            continue
        lists = [arrow_tables[ai][(tup[idx(a.source)], tup[idx(a.target)])]
                 for ai, a in enumerate(quiver.arrows)]
        flags[np.ix_(*lists)] = True
    return int(flags.size - int(flags.sum()))


def star(leaves):
    """Centre c with one arrow c -> p_k to each leaf."""
    return bq.Quiver.from_arrows(("c",) + tuple(f"p{k}" for k in range(1, leaves + 1)),
                                 [(f"f{k}", "c", f"p{k}") for k in range(1, leaves + 1)])


def star_case(leaves, q):
    return star(leaves), (2,) + (1,) * leaves, (1,) + (0,) * leaves, q


CHAIN = bq.Quiver.from_arrows(("u", "v", "x"), [("a1", "u", "v"), ("a2", "u", "v"),
                                               ("b1", "v", "x"), ("b2", "v", "x")])
TRIANGLE = bq.Quiver.from_arrows(("u", "v", "w"), [("a", "u", "v"), ("b", "v", "w"),
                                                  ("c", "u", "w")])
REFERENCE_CASES = {
    **{f"star5 q={q}": star_case(5, q) for q in (2, 3, 5)},
    **{f"star7 q={q}": star_case(7, q) for q in (2, 3)},
    **{f"chain q={q}": (CHAIN, (1, 2, 2), (2, 1, 0), q) for q in (2, 3, 4)},
    **{f"K2 (3,2) q={q}": (bq.kronecker_quiver(2), (3, 2), (1, 0), q) for q in (2, 3)},
    "K3 (1,0) q=2": (bq.kronecker_quiver(3), (1, 0), (1, 0), 2),
}


@st.composite
def small_counting_cases(draw):
    """At most 3 vertices and 1 to 4 arrows between any two vertices, loops
    and cycles included; a theta-coprime d <= 2, q in {2, 3}, at most 2^16
    points."""
    n = draw(st.integers(1, 3))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          min_size=1, max_size=4))
    vertices = [f"v{i}" for i in range(n)]
    quiver = bq.Quiver.from_arrows(vertices, [(f"a{k}", vertices[i], vertices[j])
                                              for k, (i, j) in enumerate(pairs)])
    d = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    d[0] = max(d[0], 2 - sum(d[1:]))
    if math.gcd(*d) > 1:  # d/2 would have the slope of d for every theta
        d[d.index(0) if 0 in d else 0] = 1
    d = tuple(d)
    theta = tuple(draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n)))
    exponent = sum(d[i] * d[j] for i, j in pairs)
    q = draw(st.sampled_from([q for q in (2, 3) if q**exponent <= 2**16]))
    assume(bq.is_coprime(quiver, d, theta))
    return quiver, d, theta, q


# every Kronecker shape K_n, d = (2, m), m odd, with at most 2^18 representations
SMALL_KRONECKER = [(n, m, q) for q in (2, 3, 4, 5) for n in range(1, 10) for m in range(1, 19, 2)
                   if q ** (2 * m * n) <= 2**18]


class TestGenericSubdimension:
    """The Schofield oracle that `has_stable` is tested against, on known cases."""

    def test_zero_always_embeds(self, k3):
        assert (0, 0) in generic_subdimensions(k3, (2, 3))

    def test_k2_source_line_does_not_embed(self):
        # <(1,0), (0,1)> = -2 < 0 kills the only candidate subdimension
        assert (1, 0) not in generic_subdimensions(k2(), (1, 1))

    def test_k2_diagonal_embeds(self):
        assert (1, 1) in generic_subdimensions(k2(), (2, 2))

    def test_sink_always_embeds(self):
        assert (0, 1) in generic_subdimensions(k2(), (1, 1))


class TestHasStable:
    def test_k3_golden(self, k3):
        assert bq.has_stable(k3, (2, 3), (1, 0))

    def test_x1_star_support_rejected(self, k3, w3):
        support = {("i", (0,)): 2, ("j", w3.of("a1")): 1, ("j", w3.of("a2")): 2}
        beta = CoveringDimVector.from_dict(1, support)
        sq = bq.support_quiver(k3, w3, beta)
        assert not bq.has_stable(sq.quiver, sq.dims, sq.lift_stability((1, 0)))

    def test_x3_star_support_accepted(self, k3, w3):
        support = {("i", (0,)): 2}
        for k in (1, 2, 3):
            support[("j", w3.of(f"a{k}"))] = 1
        beta = CoveringDimVector.from_dict(1, support)
        sq = bq.support_quiver(k3, w3, beta)
        assert bq.has_stable(sq.quiver, sq.dims, sq.lift_stability((1, 0)))

    def test_unit_vector(self, k3):
        assert bq.has_stable(k3, (1, 0), (1, 0))

    def test_implies_nonnegative_dimension(self, k3):
        for d in [(1, 1), (1, 2), (2, 3), (3, 4), (2, 5)]:
            if not bq.is_coprime(k3, d, (1, 0)):
                continue
            if bq.has_stable(k3, d, (1, 0)):
                assert 1 - bq.euler_form(k3, d, d) >= 0

    def test_non_coprime_unsupported(self, k3):
        with pytest.raises(UnsupportedError):
            bq.has_stable(k3, (2, 2), (1, 0))

    def test_cyclic_rejected(self):
        cyc = bq.Quiver.from_arrows(("x", "y"), [("a", "x", "y"), ("b", "y", "x")])
        with pytest.raises(UnsupportedError, match="acyclic"):
            bq.has_stable(cyc, (1, 1), (1, 0))

    def test_count_remainder_is_an_inconsistency(self, k3, monkeypatch):
        # a group order that does not divide the HN sum must surface, not read as a verdict
        monkeypatch.setattr(hn, "pg_order", lambda dims, q: 7**9)
        with pytest.raises(InconsistencyError):
            bq.has_stable(k3, (2, 3), (1, 0))


class TestFiniteFieldBasics:
    def test_group_orders(self):
        assert gl_order(2, 2) == 6
        assert gl_order(3, 2) == 168
        assert pg_order((2, 3), 2) == 6 * 168

    def test_gf4_is_a_field(self):
        F = small_field(4)
        nonzero = [1, 2, 3]
        for a in nonzero:
            assert sorted(int(F.mul[a, b]) for b in nonzero) == nonzero
            assert F.mul[a, F.inv[a]] == 1

    def test_subspace_counts(self):
        # 1 + (q+1) + 1 subspaces of a plane, Gaussian binomials for 3-space
        assert len(subspaces(2, 2)) == 5
        assert len(subspaces(3, 2)) == 16
        assert len(subspaces(2, 3)) == 6
        by_dim = {}
        for s in subspaces(3, 2):
            by_dim[s.dim] = by_dim.get(s.dim, 0) + 1
        assert by_dim == {0: 1, 1: 7, 2: 7, 3: 1}

    def test_subspaces_match_closure_builder(self):
        for n in (1, 2, 3):
            for q in (2, 3, 4):
                subs = subspaces(n, q)
                assert [(s.dim, sorted(s.members)) for s in subs] == closure_subspaces(n, q)

    @pytest.mark.parametrize("n,q", [(5, 2), (3, 5)])
    def test_subspace_counts_are_gaussian_binomials(self, n, q):
        F = small_field(q)
        by_dim = {}
        for s in subspaces(n, q):
            by_dim[s.dim] = by_dim.get(s.dim, 0) + 1
            # the basis spans exactly the members
            span = {0}
            for b in s.basis:
                span = {vec_encode([F.add[x, F.mul[c, y]] for x, y in zip(vec_decode(u, n, q), b)], q)
                        for u in span for c in range(q)}
            assert span == s.members and len(s.members) == q**s.dim
        assert by_dim == {k: gaussian_binomial(n, k, q) for k in range(n + 1)}


class TestBruteForceCount:
    def test_k3_point_count_q2(self, k3):
        assert brute_force_stable_count(k3, (2, 3), (1, 0), 2) == 183

    def test_unit_vector(self, k3):
        for q in (2, 3):
            assert brute_force_stable_count(k3, (1, 0), (1, 0), q) == 1

    def test_projective_line(self):
        # K(2), d = (1,1): the moduli space is a line, q+1 points
        for q in (2, 3, 4, 5):
            assert brute_force_stable_count(k2(), (1, 1), (1, 0), q) == q + 1

    def test_methods_agree_on_kronecker_shapes(self):
        assert len(SMALL_KRONECKER) == 31
        for n, m, q in SMALL_KRONECKER:
            quiver = bq.kronecker_quiver(n)
            got = existence._count_stable_kronecker(quiver, (2, m), q)
            assert got == minors_count(n, m, q), (n, m, q)
            if q ** (2 * m) <= 729:  # generic tabulates the q^(2m) matrices of one arrow
                generic = existence._count_stable_generic(quiver, (2, m), (1, 0), q)
                assert got == generic, (n, m, q)

    @pytest.mark.slow
    def test_kronecker_agrees_with_generic_k2_q4(self):
        k2q = bq.kronecker_quiver(2)
        assert (existence._count_stable_kronecker(k2q, (2, 3), 4)
                == existence._count_stable_generic(k2q, (2, 3), (1, 0), 4) == pg_order((2, 3), 4))

    def test_k4_point_count_q2(self):
        assert brute_force_stable_count(bq.kronecker_quiver(4), (2, 3), (1, 0), 2) == 15135

    def test_kronecker_fold_in_chunks(self, monkeypatch):
        # one state per chunk: the partial histograms must merge to the same count
        monkeypatch.setattr(existence, "_fold_arrow",
                            functools.partial(existence._fold_arrow, pairs=1))
        assert brute_force_stable_count(bq.kronecker_quiver(3), (2, 3), (1, 0), 2) == 183
        assert brute_force_stable_count(bq.kronecker_quiver(3), (2, 3), (1, 0), 3,
                                        budget=3**18) == 1327

    def test_kronecker_zero_without_enough_arrows(self):
        # 2r+1 > 2n: the columns cannot span the sink, whatever the budget
        for n, m in [(1, 3), (2, 5), (3, 7), (30, 61)]:
            quiver = bq.kronecker_quiver(n)
            assert brute_force_stable_count(quiver, (2, m), (1, 0), 5, budget=2**10000) == 0

    def test_kronecker_int64_range(self):
        # K_n at (2, 1) is Gr(2, n); K31 has 2^62 representations at q = 2
        assert (brute_force_stable_count(bq.kronecker_quiver(31), (2, 1), (1, 0), 2, budget=2**62)
                == gaussian_binomial(31, 2, 2))
        with pytest.raises(UnsupportedError, match="2\\^63"):
            brute_force_stable_count(bq.kronecker_quiver(32), (2, 1), (1, 0), 2, budget=2**64)
        with pytest.raises(UnsupportedError, match="2\\^63"):
            brute_force_stable_count(bq.kronecker_quiver(11), (2, 3), (1, 0), 2, budget=2**66)
        # 2^60 representations, but 12278 subspaces in 6 components overflow the state codes
        with pytest.raises(UnsupportedError, match="2\\^63"):
            brute_force_stable_count(bq.kronecker_quiver(3), (2, 5), (1, 0), 4, budget=2**60)

    def test_oracle_agrees_with_has_stable(self, k3):
        for d in [(1, 1), (1, 2), (2, 1), (2, 3), (1, 3), (3, 1)]:
            if not bq.is_coprime(k3, d, (1, 0)):
                continue
            count = brute_force_stable_count(k3, d, (1, 0), 2)
            assert (count > 0) == bq.has_stable(k3, d, (1, 0)), d

    def test_budget_guard(self, k3):
        with pytest.raises(BudgetExceededError):
            brute_force_stable_count(k3, (2, 3), (1, 0), 2, budget=1000)

    def test_non_coprime_unsupported(self, k3):
        with pytest.raises(UnsupportedError):
            brute_force_stable_count(k3, (2, 2), (1, 0), 2)

    def test_bad_q(self, k3):
        with pytest.raises(UnsupportedError):
            brute_force_stable_count(k3, (2, 3), (1, 0), 6)

    def test_star_counts(self, star_quiver):
        theta = (1, 0, 0, 0, 0, 0)
        d = (2, 1, 1, 1, 1, 1)
        got = [brute_force_stable_count(star_quiver, d, theta, q) for q in (2, 3, 5)]
        assert got == [15, 25, 51]


class TestGenericFold:
    @pytest.mark.parametrize("case", list(REFERENCE_CASES), ids=list(REFERENCE_CASES))
    def test_matches_flag_array(self, case):
        quiver, d, theta, q = REFERENCE_CASES[case]
        assert existence._count_stable_generic(quiver, d, theta, q) == flag_array_count(
            quiver, d, theta, q)

    @settings(max_examples=80, deadline=None)
    @given(small_counting_cases())
    @example((TRIANGLE, (1, 1, 1), (3, 1, 0), 3))   # not bipartite; |M| = q + 1
    @example((TRIANGLE, (2, 1, 1), (3, 1, 0), 2))
    @example((TRIANGLE, (1, 1, 1), (0, 1, 2), 2))   # the sink w scores 3 > 0
    @example((bq.Quiver.from_arrows(("u", "v"), [("a", "u", "v"), ("l", "v", "v")]),
              (1, 2), (1, 0), 3))                  # a loop
    def test_matches_flag_array_on_small_quivers(self, case):
        quiver, d, theta, q = case
        assert existence._count_stable_generic(quiver, d, theta, q) == flag_array_count(
            quiver, d, theta, q)

    def test_seven_star_beyond_the_flag_array(self):
        # 4^14 and 5^14 representations; P(t) = 1 + 7t^2 + 22t^4 + 7t^6 + t^8 at t^2 = q
        for q, expected in [(4, 1085), (5, 2086)]:
            quiver, d, theta, _ = star_case(7, q)
            assert expected == 1 + 7 * q + 22 * q**2 + 7 * q**3 + q**4
            assert brute_force_stable_count(quiver, d, theta, q, budget=5**14) == expected

    def test_int64_range(self):
        # K_n at (1, 1) is P^(n-1); K62 has 2^62 representations at q = 2
        assert (brute_force_stable_count(bq.kronecker_quiver(62), (1, 1), (1, 0), 2,
                                         budget=2**62) == 2**62 - 1)
        with pytest.raises(UnsupportedError, match="2\\^63"):
            brute_force_stable_count(bq.kronecker_quiver(63), (1, 1), (1, 0), 2, budget=2**64)

    def test_signature_table_guard(self):
        # one arrow with 3^12 matrices and 28 x 212 subspace pairs: refused before tabulating
        with pytest.raises(UnsupportedError, match="2\\^28"):
            brute_force_stable_count(bq.kronecker_quiver(1), (3, 4), (1, 0), 3)

    def test_fold_in_chunks(self, monkeypatch):
        # one state per chunk: the partial histograms must merge to the same count
        monkeypatch.setattr(existence, "_mask_arrow",
                            functools.partial(existence._mask_arrow, pairs=1))
        assert brute_force_stable_count(*star_case(7, 3)) == 490
        assert brute_force_stable_count(CHAIN, (1, 2, 2), (2, 1, 0), 3) == 178
        assert brute_force_stable_count(bq.kronecker_quiver(2), (3, 2), (1, 0), 2) == 1

    def test_without_arrows(self):
        point = bq.Quiver.from_arrows(("v",), [])
        assert brute_force_stable_count(point, (1,), (5,), 3) == 1
        two = bq.Quiver.from_arrows(("u", "v"), [])
        assert brute_force_stable_count(two, (1, 0), (0, 1), 2) == 1
        assert brute_force_stable_count(two, (1, 1), (1, 0), 2) == 0

    def test_theta_scale(self, k3):
        # theta'' is divided by the gcd of its entries: a scaled theta counts the same
        assert existence._count_stable_generic(k3, (2, 3), (10**20, 0), 2) == 183 * pg_order((2, 3), 2)
        path = bq.Quiver.from_arrows(("a", "b", "c"), [("x", "a", "b"), ("y", "b", "c")])
        assert brute_force_stable_count(path, (1, 1, 1), (10**10, 1, 0), 2) == 1
        with pytest.raises(UnsupportedError, match="2\\^63"):
            brute_force_stable_count(path, (1, 1, 1), (10**20, 1, 0), 2)


TWO_CYCLE = bq.Quiver.from_arrows(("x", "y"), [("a1", "x", "y"), ("a2", "x", "y"),
                                               ("b", "y", "x")])
LOOP = bq.Quiver.from_arrows(("x", "y"), [("a1", "x", "y"), ("a2", "x", "y"), ("l", "y", "y")])
COUNT_ROUTE_CASES = {
    "K2 (3,2) q=2": (bq.kronecker_quiver(2), (3, 2), (1, 0), 2),
    "K4 (2,3) q=2": (bq.kronecker_quiver(4), (2, 3), (1, 0), 2),
    "star7 q=3": star_case(7, 3),
    "chain (1,2,2) q=4": (CHAIN, (1, 2, 2), (2, 1, 0), 4),
    **{f"K3 (2,3) q={q}": (bq.kronecker_quiver(3), (2, 3), (1, 0), q) for q in (2, 3, 4)},
    "K3 (2,3) q=5": pytest.param(bq.kronecker_quiver(3), (2, 3), (1, 0), 5,
                                 marks=pytest.mark.slow),
    **{f"2-cycle {d} q={q}": (TWO_CYCLE, d, (1, 0), q) for d in ((1, 2), (2, 1)) for q in (2, 3)},
    **{f"loop {d} q={q}": (LOOP, d, (1, 0), q) for d in ((1, 2), (1, 1)) for q in (2, 3)},
}


@pytest.mark.parametrize("quiver,d,theta,q", list(COUNT_ROUTE_CASES.values()),
                         ids=list(COUNT_ROUTE_CASES))
def test_cli_count_matches_brute_force(capsys, tmp_path, quiver, d, theta, q):
    """`bbquiver count` (the HN recursion) against the brute-force F_q count,
    on cyclic quivers too: HN needs no acyclicity to count."""
    path = tmp_path / "quiver.json"
    path.write_text(json.dumps(quiver.to_dict()))
    budget = 10**13  # caps |R(Q, d)(F_q)|, which neither route enumerates
    code = main(["count", "--quiver", str(path), "--dim", ",".join(map(str, d)),
                 "--theta", ",".join(map(str, theta)), "--field", str(q),
                 "--budget", str(budget), "--format", "json"])
    assert code == 0
    count = json.loads(capsys.readouterr().out)["count"]
    assert count == brute_force_stable_count(quiver, d, theta, q, budget=budget)
