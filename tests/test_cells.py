import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import bbquiver as bq
from bbquiver import cells
from bbquiver.covering import CoveringDimVector
from bbquiver.errors import InconsistencyError, ValidationError
from bbquiver.linalg import rref

from chart_oracle import (
    Representation,
    _degree_candidates,
    arrow_weight,
    block,
    covering_hom_ext,
    free_coordinates,
    graded_hom_blocks,
    graded_isomorphic,
    graded_pieces,
    graded_rep,
    hom_ext,
    level_dim,
    levels,
    rank,
    sample_point,
    shift,
    standard_filtration,
    star_count,
    twisted_filtration_check,
    ungraded,
    zeros,
)
from conftest import type1_beta
from covering_oracle import characters, multiplicity, total
from kronecker_oracle import normal_form_label


def simple_rep(quiver, vertex):
    dims = tuple(1 if v == vertex else 0 for v in quiver.vertices)
    return Representation(quiver, dims, {})


class TestHomExt:
    def test_simples_across_arrows(self, k3):
        si, sj = simple_rep(k3, "i"), simple_rep(k3, "j")
        assert hom_ext(si, sj) == (0, 3)
        assert hom_ext(sj, si) == (0, 0)

    def test_identity_hom(self, k3):
        m = Representation(k3, (2, 3), {"a1": [[1, 0], [0, 1], [0, 0]],
                                        "a2": [[0, 0], [1, 0], [0, 1]],
                                        "a3": [[0, 1], [0, 0], [1, 0]]})
        hom, _ = hom_ext(m, m)
        assert hom >= 1

    def test_shape_guard(self, k3):
        with pytest.raises(ValidationError):
            Representation(k3, (2, 3), {"a1": [[1, 0]]})

    def test_ext_matches_weight_dimension(self, k3, w3, k3_classes, k3_lifts):
        rng = random.Random(3)
        for beta, rep in zip(k3_classes, k3_lifts):
            table = bq.weight_support(k3, w3, beta)
            chis = set(table) | {rng.randint(-600, 600) for _ in range(6)}
            for c in chis:
                if c == 0:
                    continue
                _, ext = covering_hom_ext(rep, shift(rep, -c))
                assert ext == bq.weight_dimension(k3, w3, beta, c)


class TestBuildFixedRep:
    def test_unit_reproduces_printed_1231_matrices(self, k3, w3):
        beta = type1_beta(k3, w3, "1231")
        rep = bq.build_fixed_rep(k3, w3, beta)
        plain = ungraded(rep)
        assert plain.matrix("a1") == ((0, 0), (1, 0), (0, 1))
        assert plain.matrix("a2") == ((1, 0), (0, 0), (0, 0))
        assert plain.matrix("a3") == ((0, 1), (0, 0), (0, 0))
        hom, ext = covering_hom_ext(rep, rep)
        assert (hom, ext) == (1, 0)

    def test_real_root_rigidity(self, k3, w3, k3_classes, k3_lifts):
        for beta, rep in zip(k3_classes, k3_lifts):
            if bq.euler_form_covering(k3, w3, beta, beta) == 1:
                hom, ext = covering_hom_ext(rep, rep)
                assert (hom, ext) == (1, 0)

    def test_unit_fails_on_type2_star(self, k3, w3):
        beta = type2_star_beta(w3)
        unit, _ = uncertified_reps(k3, w3, beta)
        assert covering_hom_ext(unit, unit)[0] > 1
        rep = bq.build_fixed_rep(k3, w3, beta)
        hom, _ = covering_hom_ext(rep, rep)
        assert hom == 1

    def test_random_is_deterministic(self, k3, w3):
        beta = type2_star_beta(w3)
        a = bq.build_fixed_rep(k3, w3, beta, seed=4)
        b = bq.build_fixed_rep(k3, w3, beta, seed=4)
        assert a.blocks == b.blocks

    @pytest.mark.parametrize("case", ["star5", "K3 type-2 star"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_failed_unit_fill_falls_back_to_a_seeded_random_fill(self, k3, w3, star_quiver,
                                                                 case, seed):
        quiver, w, beta = unit_fill_fails(case, k3, w3, star_quiver)
        rep = bq.build_fixed_rep(quiver, w, beta, seed)
        assert covering_hom_ext(rep, rep)[0] == 1
        assert any(x not in (0, 1) for blk in rep.blocks.values() for row in blk for x in row)
        assert bq.build_fixed_rep(quiver, w, beta, seed).blocks == rep.blocks


def unit_fill_fails(case, k3, w3, star_quiver):
    """(quiver, weights, beta) of "star5" or "K3 type-2 star", two classes whose
    0/1 unit fill does not certify."""
    if case == "star5":
        w = bq.generic_rank1_weights(star_quiver)
        (beta,) = bq.enumerate_compatible(star_quiver, w, (2, 1, 1, 1, 1, 1), (1, 0, 0, 0, 0, 0))
        return star_quiver, w, beta
    return k3, w3, type2_star_beta(w3)


def type2_star_beta(w3):
    """The K3 (2,3) type-2 class: two units of i at level 0, one j unit behind each arrow."""
    support = {("i", (0,)): 2}
    for k in (1, 2, 3):
        support[("j", w3[f"a{k}"])] = 1
    return bq.canonicalize(CoveringDimVector.from_dict(support))


def uncertified_reps(quiver, w, beta, seed=0):
    """The representatives of class beta with 0/1 partial identity blocks and
    with random blocks in -9..9, as `build_fixed_rep` fills them, uncertified."""
    dims = {(v, chi[0]): m for (v, chi), m in beta.entries}
    shapes = [(a.name, n, dims.get((a.target, n + w[a.name]), 0), cols)
              for (v, n), cols in dims.items() for a in quiver.arrows_from(v)]
    rng = random.Random(seed)
    unit = {(a, n): [[int(r == c) for c in range(cols)] for r in range(rows)]
            for a, n, rows, cols in shapes if rows}
    rand = {(a, n): [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            for a, n, rows, cols in shapes if rows}
    return [graded_rep(quiver, w, beta, unit), graded_rep(quiver, w, beta, rand)]


def thin_unit_filled(rep):
    """Whether rep is thin with every block the unit block ((1,),), as `build_fixed_rep`
    fills a thin class."""
    return ({m for _, m in rep.beta.entries} == {1}
            and all(blk == ((1,),) for blk in rep.blocks.values()))


def is_brick(rep) -> bool:
    """Whether End of rep's plain representation is the scalars, by the oracle's Hom."""
    plain = ungraded(rep)
    return hom_ext(plain, plain)[0] == 1


THIN_QUIVERS = (bq.kronecker_quiver(3), bq.kronecker_quiver(4),
                *(bq.Quiver.from_arrows(("c", *(f"p{k}" for k in range(1, n + 1))),
                                        [(f"f{k}", "c", f"p{k}") for k in range(1, n + 1)])
                  for n in (3, 5)))  # the 3- and 5-leaf stars


def walked_support(draw, quiver, w) -> CoveringDimVector:
    """A thin covering vector (every multiplicity 1) under weights w: a walk along
    the arrows, whose support is linked, plus up to two entries placed one arrow
    weight or a few levels away from it, linked or not."""
    support = {(quiver.vertices[0], 0)}
    for _ in range(draw(st.integers(0, 5))):
        v, n = draw(st.sampled_from(sorted(support)))
        a = draw(st.sampled_from(quiver.arrows))
        if a.source == v:
            support.add((a.target, n + w[a.name]))
        elif a.target == v:
            support.add((a.source, n - w[a.name]))
    steps = sorted({1, 2, 3} | {s * x for x in w.values() for s in (1, -1)})
    for _ in range(draw(st.integers(0, 2))):
        _, n = draw(st.sampled_from(sorted(support)))
        support.add((draw(st.sampled_from(quiver.vertices)), n + draw(st.sampled_from(steps))))
    return CoveringDimVector.from_dict({(v, (n,)): 1 for v, n in support})


@st.composite
def thin_classes(draw):
    """Thin covering vectors under generic weights, as `walked_support` draws them."""
    quiver = draw(st.sampled_from(THIN_QUIVERS))
    w = bq.generic_rank1_weights(quiver)
    return quiver, w, walked_support(draw, quiver, w)


class TestCertificate:
    """`build_fixed_rep` certifies by dim Hom = 1 alone, which for a real root
    forces Ext^1 = 0 because dim Hom - dim Ext^1 = <beta, beta>."""

    @pytest.mark.parametrize("arrows", [3, 4, 5])
    def test_hom_minus_ext_is_the_euler_form(self, arrows):
        quiver = bq.kronecker_quiver(arrows)
        w = bq.generic_rank1_weights(quiver)
        for beta in bq.enumerate_compatible(quiver, w, (2, 3), (1, 0)):
            euler = bq.euler_form_covering(quiver, w, beta, beta)
            for rep in uncertified_reps(quiver, w, beta, seed=arrows):
                hom, ext = covering_hom_ext(rep, rep)
                assert hom - ext == euler, (beta, rep.blocks)

    def test_graded_blocks_built_once_per_representative(self, monkeypatch, k3, w3, k3_classes):
        """`chart_class` charts a thin class by `_thin_chart`, which lays out no degree; every
        other class lays out each fill it tries once, all on one GradedRep, and is charted at
        the last of them with no further layout.  At seed 17 the K3 (2,3) class that is not
        thin skips two fills before one certifies."""
        laid_out, emitted = [], []
        original, emit = cells._graded_blocks, cells.emit_cell_table
        monkeypatch.setattr(cells, "_graded_blocks",
                            lambda M: laid_out.append((M, M.blocks)) or original(M))
        monkeypatch.setattr(cells, "emit_cell_table",
                            lambda chart: emitted.append((chart, len(laid_out))) or emit(chart))
        thin, tried = 0, set()
        for seed in (0, 17):
            for beta in k3_classes:
                laid_out.clear()
                emitted.clear()
                bq.chart_class(k3, w3, beta, seed)
                if {m for _, m in beta.entries} == {1}:
                    thin += 1
                    assert laid_out == [] and emitted == []
                    continue
                ((chart, seen),) = emitted
                fills = [blocks for _, blocks in laid_out]
                assert all(M is chart.base for M, _ in laid_out) and seen == len(laid_out)
                assert fills[-1] is chart.base.blocks
                assert all(fills[i] != fills[j] for i in range(len(fills)) for j in range(i))
                tried.add(len(fills))
        assert 0 < thin < 2 * len(k3_classes) and tried == {1, 3}

    def test_thin_classes_make_no_solve(self, monkeypatch):
        quiver = bq.kronecker_quiver(4)
        w = bq.generic_rank1_weights(quiver)
        calls = []
        for name in ("_graded_blocks", "leading_columns"):
            monkeypatch.setattr(cells, name, lambda arg, name=name, real=getattr(cells, name):
                                calls.append(name) or real(arg))
        thin = 0
        for beta in bq.enumerate_compatible(quiver, w, (2, 5), (1, 0)):
            calls.clear()
            bq.chart_class(quiver, w, beta)
            if all(m == 1 for _, m in beta.entries):
                thin += 1
                assert calls == []
            else:
                assert {"_graded_blocks", "leading_columns"} <= set(calls)
        assert thin == 54

    def test_one_representative_per_class(self, monkeypatch, k3, w3, star_quiver):
        """The 5-star's class, whose unit fill does not certify, is indexed once: every
        fill is tried on one GradedRep."""
        built = []

        class Counted(cells.GradedRep):
            __slots__ = ()

            def __init__(self, *args):
                built.append(self)
                super().__init__(*args)

        monkeypatch.setattr(cells, "GradedRep", Counted)
        rep = bq.build_fixed_rep(*unit_fill_fails("star5", k3, w3, star_quiver))
        assert len(built) == 1 and built[0] is rep

    def test_unlinked_thin_class_raises_without_a_solve(self, monkeypatch, k3):
        """No fill certifies a thin class whose support the arrows do not link, so none
        is laid out or solved: j at level -1 lies behind no positive weight from i at level 0."""
        calls = []
        monkeypatch.setattr(cells, "_graded_blocks", lambda *args: calls.append(args) or {})
        monkeypatch.setattr(cells, "leading_columns", lambda *args: calls.append(args) or [])
        beta = CoveringDimVector.from_dict({("i", (0,)): 1, ("j", (-1,)): 1})
        with pytest.raises(InconsistencyError, match="no certified lift"):
            bq.chart_class(k3, bq.generic_rank1_weights(k3), beta)
        assert calls == []

    def test_random_fills_that_fail_are_named_alone(self, monkeypatch, k3, w3, star_quiver):
        """A non-thin class is offered its random fills only, and the error says so."""
        def not_a_brick(rep):
            raise cells._not_injective(0)

        monkeypatch.setattr(cells, "choose_complements", not_a_brick)
        with pytest.raises(InconsistencyError, match="no certified lift") as raised:
            bq.chart_class(*unit_fill_fails("star5", k3, w3, star_quiver))
        assert f"{cells.RANDOM_LIFTS} random fills failed" in str(raised.value)
        assert "unit fill" not in str(raised.value)

    def test_unlinked_support_is_named(self, k3):
        """A thin class whose support the arrows do not link fails in the walk, which tries
        no fill, and the error names the unlinked support."""
        beta = CoveringDimVector.from_dict({("i", (0,)): 1, ("j", (-1,)): 1})
        with pytest.raises(InconsistencyError, match="no certified lift") as raised:
            bq.chart_class(k3, bq.generic_rank1_weights(k3), beta)
        assert "support is unlinked" in str(raised.value)
        assert "random fills" not in str(raised.value)

    @settings(max_examples=80, deadline=None)
    @given(thin_classes())
    def test_thin_class_certifies_exactly_when_its_unit_fill_does(self, case):
        """Each route's certificate, against the oracle.  The thin walk certifies the unit
        fill when its End_0 over the covering is 1.  The general route offers the unit fill
        first and certifies a fill when its plain End is 1, the scalars."""
        quiver, w, beta = case
        unit = uncertified_reps(quiver, w, beta)[0]
        walked = outcome(bq.chart_class, quiver, w, beta)
        assert str(walked).startswith(cells.NO_LIFT) == (covering_hom_ext(unit, unit)[0] != 1)
        rep = outcome(bq.build_fixed_rep, quiver, w, beta)
        if is_brick(unit):
            assert rep.blocks == unit.blocks
        elif isinstance(rep, str):
            assert rep.startswith(cells.NO_LIFT)
        else:
            assert is_brick(rep) and rep.blocks != unit.blocks

    @pytest.mark.parametrize("case", ["star5", "K3 type-2 star"])
    def test_positive_degrees_laid_out_once_for_the_returned_representative(
            self, monkeypatch, k3, w3, star_quiver, case):
        """At seed 17 the type-2 star skips two fills.  The fill that certifies is laid out
        once, every degree of it is solved once, and its chart is emitted from those
        reductions, with no further layout or solve."""
        quiver, w, beta = unit_fill_fails(case, k3, w3, star_quiver)
        events = []
        layout, leading, emit = cells._graded_blocks, cells.leading_columns, cells.emit_cell_table
        monkeypatch.setattr(cells, "_graded_blocks",
                            lambda M: events.append(layout(M)) or events[-1])
        monkeypatch.setattr(cells, "leading_columns",
                            lambda rows: events.append("solve") or leading(rows))
        monkeypatch.setattr(cells, "emit_cell_table",
                            lambda chart: events.append("emit") or emit(chart))
        bq.chart_class(quiver, w, beta, 17)
        fills = [i for i, event in enumerate(events) if isinstance(event, dict)]
        assert len(fills) == (3 if case == "K3 type-2 star" else 1)
        solved = sum(1 for dom, _ in events[fills[-1]].values() if dom)
        assert events[fills[-1] + 1:] == ["solve"] * solved + ["emit"]


class TestGradedPieces:
    def test_large_degree_is_zero(self, k3, w3, k3_lifts):
        rep = k3_lifts[0]
        big = max(_degree_candidates(rep)) + 1
        u, r, ad = graded_pieces(rep, big)
        assert u == [] and r == []

    def test_dimension_count_equals_att_plus(self, k3, w3, k3_classes, k3_lifts):
        for beta, rep in zip(k3_classes, k3_lifts):
            ap = bq.analyze_component(k3, w3, beta).att_plus
            total = 0
            for k in _degree_candidates(rep):
                u, rr, _ = graded_pieces(rep, k)
                total += len(rr) - len(u)
            assert total == ap

    def test_ad_injective(self, k3, w3, k3_lifts):
        for rep in k3_lifts:
            for k in _degree_candidates(rep):
                u, rr, ad = graded_pieces(rep, k)
                assert rank(ad) == len(u)


class TestCellCharts:
    def test_1231_chart_empty(self, k3, w3):
        rep = bq.build_fixed_rep(k3, w3, type1_beta(k3, w3, "1231"))
        chart = bq.choose_complements(rep)
        assert chart.total_dim == 0
        assert star_count(bq.emit_cell_table(chart)) == 0

    def test_3232_chart_all_in_first_arrow(self, k3, w3):
        rep = bq.build_fixed_rep(k3, w3, type1_beta(k3, w3, "3232"))
        chart = bq.choose_complements(rep)
        assert chart.total_dim == 6
        assert {fc[0] for fc in free_coordinates(chart)} == {"a1"}
        table = bq.emit_cell_table(chart)
        assert table["a1"] == [["*", "*"]] * 3
        assert table["a2"] == [["0", "0"], ["1", "0"], ["0", "1"]]
        assert table["a3"] == [["1", "0"], ["0", "1"], ["0", "0"]]

    def test_multiset_of_chart_dimensions(self, k3, w3, k3_classes, k3_lifts):
        dims = sorted(bq.choose_complements(rep).total_dim for rep in k3_lifts)
        assert dims == [0, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 6]

    def test_star_count_matches_dimension(self, k3, w3, k3_lifts):
        for rep in k3_lifts:
            chart = bq.choose_complements(rep)
            assert star_count(bq.emit_cell_table(chart)) == chart.total_dim

    def test_charts_match_attractors(self, k3, w3, k3_classes, k3_lifts):
        for beta, rep in zip(k3_classes, k3_lifts):
            ap = bq.analyze_component(k3, w3, beta).att_plus
            assert bq.choose_complements(rep).total_dim == ap

    def test_k4_normal_form_chart(self):
        quiver = bq.kronecker_quiver(4)
        w = bq.generic_rank1_weights(quiver)
        lab = normal_form_label(3, 1)
        assert bq.d1_attractor(lab, "minus") == 0
        beta = bq.label_to_beta(lab, w, quiver)
        rep = bq.build_fixed_rep(quiver, w, beta)
        chart = bq.choose_complements(rep)
        assert chart.total_dim == (2 * 2 + 1) * (2 * 1 + 1) - 3


class TestTwistedFiltration:
    def test_full_space_everywhere(self, k3):
        m = Representation(k3, (2, 3), {"a1": [[1, 0], [0, 1], [0, 0]],
                                        "a2": [[0, 0], [1, 0], [0, 1]],
                                        "a3": [[0, 1], [0, 0], [1, 0]]})
        w = bq.generic_rank1_weights(k3)
        filt = {
            "i": {-1000: [[1, 0], [0, 1]]},
            "j": {-1000: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
        }
        ok, gr = twisted_filtration_check(m, filt, w)
        assert ok
        assert total(gr.beta) == 5
        assert characters(gr.beta) == [(-1000,)]

    def test_chart_points_attract(self, k3, w3, k3_classes, k3_lifts):
        rng = random.Random(9)
        for beta, rep in zip(k3_classes, k3_lifts):
            chart = bq.choose_complements(rep)
            filt = standard_filtration(rep)
            vals = [Fraction(rng.randint(-9, 9)) for _ in range(chart.total_dim)]
            pt = sample_point(chart, vals)
            ok, gr = twisted_filtration_check(pt, filt, w3)
            assert ok
            assert graded_isomorphic(gr, rep)

    def test_violation_detected(self, k3, w3):
        rep = bq.build_fixed_rep(k3, w3, type1_beta(k3, w3, "1231"))
        filt = standard_filtration(rep)
        plain = ungraded(rep)
        mats = {a: [list(row) for row in plain.matrix(a)] for a in plain.matrices}
        # send the lowest source level above its allowed target level
        mats["a3"][0][0] = Fraction(1)
        bad = Representation(k3, plain.dims, mats)
        ok, gr = twisted_filtration_check(bad, filt, w3)
        assert not ok and gr is None

    def test_non_nested_rejected(self, k3, w3):
        rep = bq.build_fixed_rep(k3, w3, type1_beta(k3, w3, "1231"))
        plain = ungraded(rep)
        filt = standard_filtration(rep)
        filt["j"] = {0: [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1: [[0, 0, 1]]}
        with pytest.raises(ValidationError):
            twisted_filtration_check(plain, filt, w3)


def dense_hom_ext(M, N):
    """Hom and Ext^1 from the dense matrix of (A_i) -> (A_t M_a - N_a A_s)_a,
    one column per coordinate of the domain, ranked by Fraction `rref`."""
    Q = M.quiver
    dom = [(v, r, c) for v in Q.vertices for r in range(N.dim(v)) for c in range(M.dim(v))]
    cod = {}
    for a in Q.arrows:
        for r in range(N.dim(a.target)):
            for c in range(M.dim(a.source)):
                cod[(a.name, r, c)] = len(cod)
    phi = zeros(len(cod), len(dom))
    for col, (v, r, c) in enumerate(dom):
        for a in Q.arrows:
            if a.target == v:
                for cp in range(M.dim(a.source)):
                    phi[cod[(a.name, r, cp)]][col] += M.matrix(a.name)[c][cp]
            if a.source == v:
                for rp in range(N.dim(a.target)):
                    phi[cod[(a.name, rp, c)]][col] -= N.matrix(a.name)[rp][r]
    rk = len(rref(phi)[1])
    return len(dom) - rk, len(cod) - rk


def dense_bracket(rep, k):
    """u_k, R_k and the bracket matrix built coordinate by coordinate from
    the defining formula x -> (x_t M_{a,n} - M_{a,n-k} x_s)."""
    quiver = rep.quiver
    u_basis = [(v, n, r, c) for v in quiver.vertices for n in levels(rep, v)
               for r in range(level_dim(rep, v, n - k)) for c in range(level_dim(rep, v, n))]
    r_basis = [(a.name, n, r, c) for a in quiver.arrows for n in levels(rep, a.source)
               for r in range(level_dim(rep, a.target, n + arrow_weight(rep, a.name) - k))
               for c in range(level_dim(rep, a.source, n))]
    index = {key: i for i, key in enumerate(r_basis)}
    ad = zeros(len(r_basis), len(u_basis))
    for col, (v, n0, r, c) in enumerate(u_basis):
        for a in quiver.arrows:
            wa = arrow_weight(rep, a.name)
            if a.target == v:
                blk = block(rep, a.name, n0 - wa)
                for cp in range(level_dim(rep, a.source, n0 - wa)):
                    key = (a.name, n0 - wa, r, cp)
                    if key in index:
                        ad[index[key]][col] += blk[c][cp]
            if a.source == v:
                blk = block(rep, a.name, n0 - k)
                for rp in range(level_dim(rep, a.target, n0 + wa - k)):
                    key = (a.name, n0, rp, c)
                    if key in index:
                        ad[index[key]][col] -= blk[rp][r]
    return u_basis, r_basis, ad


LOOPED = bq.Quiver.from_arrows(("u", "v"), [("l", "v", "v"), ("a", "v", "u"), ("b", "v", "u")])


@st.composite
def rep_pairs(draw):
    quiver = draw(st.sampled_from((bq.kronecker_quiver(3), LOOPED)))
    entry = st.one_of(st.integers(-2, 2).map(Fraction),
                      st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)))

    def rep():
        dims = tuple(draw(st.integers(0, 3)) for _ in quiver.vertices)
        mats = {}
        for a in quiver.arrows:
            rows, cols = dims[quiver.vertex_index(a.target)], dims[quiver.vertex_index(a.source)]
            mats[a.name] = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
        return Representation(quiver, dims, mats)

    return rep(), rep()


@st.composite
def graded_reps(draw):
    """Graded representations of LOOPED, including a weight-0 loop, whose
    bracket sends two terms to one coordinate."""
    w = {"l": draw(st.integers(0, 2)), "a": 1, "b": 3}
    support = {(v, (n,)): draw(st.integers(0, 2)) for v in ("u", "v") for n in range(-2, 4)}
    beta = CoveringDimVector.from_dict(support)
    assume(not beta.is_zero())
    entry = st.one_of(st.integers(-2, 2).map(Fraction),
                      st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)))
    blocks = {}
    for a in LOOPED.arrows:
        for n in range(-2, 4):
            rows = multiplicity(beta, a.target, (n + w[a.name],))
            cols = multiplicity(beta, a.source, (n,))
            if rows and cols:
                blocks[(a.name, n)] = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    return graded_rep(LOOPED, w, beta, blocks)


class TestAgainstTheDenseRoute:
    """Block assembly and the integer kernel against dense Fraction elimination."""

    @settings(max_examples=60, deadline=None)
    @given(rep_pairs())
    def test_hom_ext(self, pair):
        M, N = pair
        assert hom_ext(M, N) == dense_hom_ext(M, N)

    @settings(max_examples=60, deadline=None)
    @given(graded_reps())
    def test_graded_pieces_and_covering_hom(self, rep):
        for k in _degree_candidates(rep):
            assert graded_pieces(rep, k) == dense_bracket(rep, k)
        u, r, ad = dense_bracket(rep, 0)
        rk = len(rref(ad)[1])
        assert covering_hom_ext(rep, rep) == (len(u) - rk, len(r) - rk)

    def test_complements_are_the_rref_pivots(self, k3_lifts):
        quiver = bq.kronecker_quiver(4)
        w = bq.generic_rank1_weights(quiver)
        reps = list(k3_lifts)
        for beta in bq.enumerate_compatible(quiver, w, (2, 5), (1, 0))[::6]:
            reps.append(bq.build_fixed_rep(quiver, w, beta))
        for rep in reps:
            chart = bq.choose_complements(rep)
            assert list(chart.degrees) == _degree_candidates(rep)
            for k, free in chart.degrees.items():
                u, r, ad = graded_pieces(rep, k)
                assert (u, r, ad) == dense_bracket(rep, k)
                pivots = rref([list(col) for col in zip(*ad)])[1]
                assert len(pivots) == len(u)
                assert free == tuple(r[i] for i in range(len(r)) if i not in pivots)


class TestAgainstTheOracleWalk:
    """`_graded_blocks` lays out every degree of a representation against itself in one
    walk over every ordered pair of levels, as the oracle's walk of two representations
    does at M = N.  Together the degrees resolve the plain representation, so their
    nullities and coranks sum to its Hom and Ext^1."""

    @staticmethod
    def check(rep):
        layout = cells._graded_blocks(rep)
        assert layout == graded_hom_blocks(rep, rep)
        hom = ext = 0
        for dom, cod in layout.values():
            rk = len(cells.leading_columns(cells._hom_rows(dom, cod)))
            hom, ext = hom + cells._size(dom) - rk, ext + cells._size(cod) - rk
        plain = ungraded(rep)
        assert (hom, ext) == hom_ext(plain, plain)

    def test_golden_cases_and_shifted_pairs(self, k3_lifts, star_quiver):
        quiver = bq.kronecker_quiver(4)
        w = bq.generic_rank1_weights(quiver)
        k4_lifts = [bq.build_fixed_rep(quiver, w, beta)
                    for beta in bq.enumerate_compatible(quiver, w, (2, 5), (1, 0))]
        w5 = bq.generic_rank1_weights(star_quiver)
        (beta5,) = bq.enumerate_compatible(star_quiver, w5, (2, 1, 1, 1, 1, 1), (1, 0, 0, 0, 0, 0))
        for lifts in (k3_lifts, k4_lifts, [bq.build_fixed_rep(star_quiver, w5, beta5)]):
            for rep in lifts:
                self.check(rep)
                for c in {1, -2, *rep.weights.values()}:
                    self.check(shift(rep, c))

    @settings(max_examples=60, deadline=None)
    @given(graded_reps(), st.integers(-3, 3))
    def test_looped_shifted_pairs(self, rep, c):
        self.check(rep)
        self.check(shift(rep, c))


def chart_or_error(rep):
    """(degree, free) of each degree of rep's chart, or the message of the error it raises."""
    try:
        return list(bq.choose_complements(rep).degrees.items())
    except InconsistencyError as e:
        return str(e)


def rref_chart_or_error(rep):
    """`chart_or_error` by the dense route.  Every degree that a pair of levels meets, in
    ascending order, is ranked by `rref` on the columns of `dense_bracket`.  At the first
    degree whose kernel is more than the scalars (in degree 0) or nonzero (elsewhere), its
    error; else the coordinates of R_k that are not pivots, in each positive degree."""
    quiver, out = rep.quiver, []
    degrees = {n - m for v in quiver.vertices for n in levels(rep, v) for m in levels(rep, v)}
    degrees |= {n + arrow_weight(rep, a.name) - m for a in quiver.arrows
                for n in levels(rep, a.source) for m in levels(rep, a.target)}
    for k in sorted(degrees):
        u, r, ad = dense_bracket(rep, k)
        pivots = rref([list(col) for col in zip(*ad)])[1] if u else ()
        if len(u) - len(pivots) != (k == 0):
            kernel = "has a kernel beyond the scalars" if k == 0 else "is not injective"
            return f"bracket with the fixed representation {kernel} in degree {k}"
        if k > 0:
            out.append((k, tuple(x for i, x in enumerate(r) if i not in pivots)))
    return out


class TestBracketMemo:
    """Charts share no bracket memo: each chart lays out every degree of its
    representation and reduces it where it is laid out, to the pivots of the dense route,
    and raises where the dense route finds End beyond the scalars."""

    @staticmethod
    def check(reps):
        for rep in reps:
            assert chart_or_error(rep) == rref_chart_or_error(rep)

    def test_golden_cases(self, k3_lifts, star_quiver):
        quiver = bq.kronecker_quiver(4)
        w = bq.generic_rank1_weights(quiver)
        k4_lifts = [bq.build_fixed_rep(quiver, w, beta)
                    for beta in bq.enumerate_compatible(quiver, w, (2, 5), (1, 0))]
        w5 = bq.generic_rank1_weights(star_quiver)
        (beta5,) = bq.enumerate_compatible(star_quiver, w5, (2, 1, 1, 1, 1, 1), (1, 0, 0, 0, 0, 0))
        reps = [*k3_lifts, *k4_lifts, bq.build_fixed_rep(star_quiver, w5, beta5)]
        self.check([x for rep in reps for x in (rep, *(shift(rep, c) for c in (1, -2)))])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(graded_reps(), min_size=1, max_size=3), st.integers(-3, 3))
    def test_looped_reps_and_their_shifts(self, reps, c):
        self.check([x for rep in reps for x in (rep, shift(rep, c))])

    def test_a_zero_bracket_raises_in_its_own_degree(self, monkeypatch):
        """A weight-0 loop with f = g = 1 sends both terms to one coordinate,
        so the bracket of a 1x1 block is zero, in any degree and at any level."""
        for k, n in ((2, 0), (5, 3)):
            rep = bq.GradedRep(LOOPED, {"l": 0, "a": 1, "b": 3},
                               CoveringDimVector.from_dict({("v", (n,)): 1}), {})
            one = ((1,),)
            pieces = {k: ([(("v", n), 1, 1)], [(("l", n), 1, 1, ("v", n), ("v", n), one, one)])}
            monkeypatch.setattr(cells, "_graded_blocks", lambda _, pieces=pieces: pieces)
            with pytest.raises(InconsistencyError, match=f"not injective in degree {k}$"):
                bq.choose_complements(rep)

    def test_k4_cells_reduces_each_degree_once(self, monkeypatch, tmp_path, capsys):
        """`cells` on K4 (2,5) charts 444 positive degrees with a bracket to reduce.
        The 54 thin classes are charted by `_thin_chart`, so only the 4 other classes reach
        `choose_complements`.  Each certifies at its first fill, whose 13 degrees with a
        bracket (6 positive, degree 0 and 6 negative) are each solved once there: 52 solves.
        """
        from bbquiver.cli import main

        path = tmp_path / "k4.json"
        path.write_text(json.dumps(bq.kronecker_quiver(4).to_dict()))
        real_chart, real_choose = cells.chart_class, cells.choose_complements
        real_leading = cells.leading_columns
        charting, reduced, solves = [], [], []

        def chart(quiver, w, beta, *rest):
            layout = cells._graded_blocks(cells.GradedRep(quiver, w, beta, {}))
            reduced.extend(k for k, (dom, _) in layout.items() if dom and k > 0)
            return real_chart(quiver, w, beta, *rest)

        def choose(rep):
            charting.append(rep)
            try:
                return real_choose(rep)
            finally:
                charting.pop()

        def leading(rows):
            if charting:
                solves.append(rows)
            return real_leading(rows)

        monkeypatch.setattr(cells, "chart_class", chart)
        monkeypatch.setattr(cells, "choose_complements", choose)
        monkeypatch.setattr(cells, "leading_columns", leading)
        assert main(["cells", "--quiver", str(path), "--dim", "2,5", "--theta", "1,0"]) == 0
        capsys.readouterr()
        assert len(reduced) == 444 and len(solves) == 52


def outcome(fn, *args):
    """fn(*args), or the message of the InconsistencyError it raises."""
    try:
        return fn(*args)
    except InconsistencyError as e:
        return str(e)


def matrix_chart(quiver, w, beta, seed=0):
    """`chart_class` by the general route, which charts a thin class that passed the
    existence filter correctly too: `build_fixed_rep`, `choose_complements` and
    `emit_cell_table`."""
    chart = cells.choose_complements(cells.build_fixed_rep(quiver, w, beta, seed))
    return cells.emit_cell_table(chart), {k: len(free) for k, free in chart.degrees.items() if free}


def unit_chart(quiver, w, beta):
    """`_thin_chart` by the dense route, on the unit fill.  Where its End_0 over the
    covering is not 1, the walk's error.  Else the grids, as `emit_cell_table` writes
    them, of the coordinates of R_k that are not `rref` pivots of the columns of
    `dense_bracket` in each positive degree, and their counts; or the error of the
    smallest positive degree where the bracket is not injective."""
    rep = uncertified_reps(quiver, w, beta)[0]
    if covering_hom_ext(rep, rep)[0] != 1:
        return f"{cells.NO_LIFT}: its support is unlinked, so no fill has dim End = 1"
    degrees = {}
    for k in _degree_candidates(rep):
        u, r, ad = dense_bracket(rep, k)
        pivots = rref([list(col) for col in zip(*ad)])[1] if u else ()
        if len(pivots) != len(u):
            return f"bracket with the fixed representation is not injective in degree {k}"
        degrees[k] = tuple(x for i, x in enumerate(r) if i not in pivots)
    grids = cells.emit_cell_table(cells.CellChart(rep, degrees))
    return grids, {k: len(free) for k, free in degrees.items() if free}


FRAMED_2_LOOP = bq.Quiver.from_arrows(("inf", "o"), [("f", "inf", "o"), ("l1", "o", "o"),
                                                     ("l2", "o", "o")])
CYCLE3 = bq.Quiver.from_arrows("abc", [("x", "a", "b"), ("y", "b", "c"), ("z", "c", "a")])


@st.composite
def looped_thin_classes(draw):
    """Thin classes, as `walked_support` draws them, of LOOPED with loop weight -2..2,
    whose weight-0 loop gives zero bracket columns, or of the oriented 3-cycle with
    weights of either sign."""
    if draw(st.booleans()):
        quiver, w = LOOPED, {"l": draw(st.integers(-2, 2)), "a": 1, "b": 3}
    else:
        quiver, w = CYCLE3, {a: draw(st.integers(-2, 3)) for a in "xyz"}
    return quiver, w, walked_support(draw, quiver, w)


class TestForestRoute:
    """`_thin_chart` charts a thin class by a spanning forest of its bracket columns.  On a
    class that passed the existence filter it gives the grids and free counts of the
    general route exactly; on any thin class, the grids, free counts and errors of the
    dense route on its unit fill, certified by End_0."""

    @pytest.mark.parametrize("quiver,d", [(bq.kronecker_quiver(3), (2, 3)),
                                          (bq.kronecker_quiver(4), (2, 3)),
                                          (bq.kronecker_quiver(6), (2, 3)),
                                          (bq.kronecker_quiver(4), (2, 5)),
                                          (FRAMED_2_LOOP, (1, 4))],
                             ids=["K3 (2,3)", "K4 (2,3)", "K6 (2,3)", "K4 (2,5)", "2-loop (1,4)"])
    def test_thin_classes_chart_as_the_matrix_route(self, quiver, d):
        w = bq.generic_rank1_weights(quiver)
        thin = 0
        for beta in bq.enumerate_compatible(quiver, w, d, (1, 0)):
            if {m for _, m in beta.entries} == {1}:
                thin += 1
                assert cells._thin_chart(quiver, w, beta) == matrix_chart(quiver, w, beta)
        assert thin

    @settings(max_examples=150, deadline=None)
    @given(looped_thin_classes())
    def test_thin_unit_reps(self, case):
        assert outcome(cells._thin_chart, *case) == unit_chart(*case)

    def test_k6_cells_reduces_non_thin_classes_only(self, monkeypatch, tmp_path, capsys):
        """While `cells` on K6 (2,3) charts its 395 classes, only its 20 non-thin classes
        reach `choose_complements`, to be laid out and reduced; its 375 thin ones do not."""
        from bbquiver.cli import main

        path = tmp_path / "k6.json"
        path.write_text(json.dumps(bq.kronecker_quiver(6).to_dict()))
        real_chart, real_choose, real_leading, real_blocks = (
            cells.chart_class, cells.choose_complements, cells.leading_columns,
            cells._graded_blocks)
        classes, charting, charted, laid_out, solved = [], [], [], [], []

        def chart(quiver, w, beta, *rest):
            classes.append(beta)
            return real_chart(quiver, w, beta, *rest)

        def choose(rep):
            charting.append(rep)
            charted.append(rep)
            try:
                return real_choose(rep)
            finally:
                charting.pop()

        def spy(real, seen):
            def wrapped(arg):
                if charting:
                    seen.append(charting[-1])
                return real(arg)
            return wrapped

        monkeypatch.setattr(cells, "chart_class", chart)
        monkeypatch.setattr(cells, "choose_complements", choose)
        monkeypatch.setattr(cells, "_graded_blocks", spy(real_blocks, laid_out))
        monkeypatch.setattr(cells, "leading_columns", spy(real_leading, solved))
        assert main(["cells", "--quiver", str(path), "--dim", "2,3", "--theta", "1,0"]) == 0
        capsys.readouterr()
        thin = [beta for beta in classes if {m for _, m in beta.entries} == {1}]
        assert (len(classes), len(thin)) == (395, 375)
        assert [rep.beta for rep in charted] == [beta for beta in classes if beta not in thin]
        assert laid_out == charted
        assert solved and not any(thin_unit_filled(rep) for rep in solved)

    def test_weight_zero_loop_is_not_injective_in_the_matrix_route_degree(self, monkeypatch):
        """v at levels 1 and 2 under the weight-0 loop l, and u at 3 and 4 behind a (weight
        1) and b (weight 2): b joins v1 to u3, and a and b join v2 to u3 and u4, so the
        support is linked.  Degree 1 has the pairs v 2 -> 1 and u 4 -> 3.  b's column joins
        them to each other, and the loop's column at v 2 -> 1 is zero, so neither reaches
        the ground."""
        w = {"l": 0, "a": 1, "b": 2}
        beta = CoveringDimVector.from_dict({("v", (1,)): 1, ("v", (2,)): 1, ("u", (3,)): 1,
                                            ("u", (4,)): 1})
        expected = "bracket with the fixed representation is not injective in degree 1"
        assert unit_chart(LOOPED, w, beta) == expected
        monkeypatch.setattr(cells, "_graded_blocks", None)  # the forest lays out nothing
        monkeypatch.setattr(cells, "leading_columns", None)  # ... and solves nothing
        with pytest.raises(InconsistencyError, match="not injective in degree 1$"):
            bq.chart_class(LOOPED, w, beta)

    @pytest.mark.parametrize("quiver,d,weights", [
        (bq.kronecker_quiver(3), "2,3", None),
        (bq.kronecker_quiver(4), "2,3", None),
        (bq.kronecker_quiver(6), "2,3", None),
        (bq.kronecker_quiver(4), "2,5", None),
        (bq.kronecker_quiver(4), "3,5", None),
        (FRAMED_2_LOOP, "1,4", None),
        (bq.kronecker_quiver(3), "2,3", {"rank": 2, "weights": {"a1": [1, 0], "a2": [0, 1],
                                                                 "a3": [1, 1]}}),
    ], ids=["K3 (2,3)", "K4 (2,3)", "K6 (2,3)", "K4 (2,5)", "K4 (3,5)", "2-loop (1,4)",
            "rank-2 K3 (2,3)"])
    def test_reports_equal_the_general_route(self, monkeypatch, tmp_path, capsys, quiver, d,
                                             weights):
        """`cells` and `normal-form`, in every format, write the same bytes when every thin
        class is charted by the general route instead of `_thin_chart`."""
        from bbquiver.cli import main

        path = tmp_path / "quiver.json"
        path.write_text(json.dumps(quiver.to_dict()))
        argv = ["--quiver", str(path), "--dim", d, "--theta", "1,0"]
        if weights:
            (tmp_path / "w.json").write_text(json.dumps(weights))
            argv += ["--weights", str(tmp_path / "w.json")]
        runs = [[main([command, *argv, "--format", fmt]), capsys.readouterr()]
                for command in ("cells", "normal-form") for fmt in ("text", "json", "latex")]
        monkeypatch.setattr(cells, "_thin_chart", matrix_chart)
        forced = [[main([command, *argv, "--format", fmt]), capsys.readouterr()]
                  for command in ("cells", "normal-form") for fmt in ("text", "json", "latex")]
        assert forced == runs and {code for code, _ in runs} == {0}


@st.composite
def wide_classes(draw):
    """Covering vectors with some multiplicity 2 or more, of K3, LOOPED or the oriented
    3-cycle, under weights in -2..3."""
    quiver = draw(st.sampled_from((bq.kronecker_quiver(3), LOOPED, CYCLE3)))
    w = {a.name: draw(st.integers(-2, 3)) for a in quiver.arrows}
    support = draw(st.dictionaries(
        st.tuples(st.sampled_from(quiver.vertices), st.integers(-2, 3)), st.integers(1, 3),
        min_size=1, max_size=5))
    assume(max(support.values()) >= 2)
    return quiver, w, CoveringDimVector.from_dict({(v, (n,)): m for (v, n), m in support.items()})


class TestUnitFillOfANonThinClass:
    """The 0/1 unit fill maps basis index r to index r, so it is the direct sum of its
    index layers; where some multiplicity is 2 or more, dim End >= 2 and it never
    certifies, so `build_fixed_rep` does not lay it out."""

    @pytest.mark.parametrize("arrows,d,count", [(6, (2, 3), 20), (5, (2, 3), 10),
                                                (4, (2, 5), 4), (4, (3, 5), 280)])
    def test_unit_fill_has_two_endomorphisms(self, arrows, d, count):
        quiver = bq.kronecker_quiver(arrows)
        w = bq.generic_rank1_weights(quiver)
        wide = [beta for beta in bq.enumerate_compatible(quiver, w, d, (1, 0))
                if {m for _, m in beta.entries} != {1}]
        assert len(wide) == count
        for beta in wide:
            rep = cells.GradedRep(quiver, w, beta, {})
            rep.blocks = next(cells._fills(rep._pairs, 0, True))
            assert covering_hom_ext(rep, rep)[0] >= 2, beta

    @settings(max_examples=60, deadline=None)
    @given(wide_classes())
    def test_unit_fill_of_any_wide_vector_has_two_endomorphisms(self, case):
        rep = uncertified_reps(*case)[0]
        assert covering_hom_ext(rep, rep)[0] >= 2
        with pytest.raises(InconsistencyError, match="^bracket with the fixed representation"):
            cells.choose_complements(rep)

    @pytest.mark.parametrize("case", ["star5", "K3 type-2 star", "K4 (2,5)"])
    def test_no_unit_fill_is_solved_for_a_non_thin_class(self, monkeypatch, k3, w3,
                                                          star_quiver, case):
        if case == "K4 (2,5)":
            quiver = bq.kronecker_quiver(4)
            w = bq.generic_rank1_weights(quiver)
            betas = [beta for beta in bq.enumerate_compatible(quiver, w, (2, 5), (1, 0))
                     if {m for _, m in beta.entries} != {1}]
        else:
            quiver, w, beta = unit_fill_fails(case, k3, w3, star_quiver)
            betas = [beta]
        laid_out, original = [], cells._graded_blocks
        monkeypatch.setattr(cells, "_graded_blocks",
                            lambda rep: laid_out.append(dict(rep.blocks)) or original(rep))
        for beta in betas:
            laid_out.clear()
            rep = bq.build_fixed_rep(quiver, w, beta)
            unit = next(cells._fills(rep._pairs, 0, True))
            assert laid_out and unit not in laid_out
            assert laid_out[-1] == rep.blocks


def k4_wide_classes():
    """K4 (3,5) under the generic weights, with its 280 classes that are not thin."""
    quiver = bq.kronecker_quiver(4)
    w = bq.generic_rank1_weights(quiver)
    return quiver, w, [beta for beta in bq.enumerate_compatible(quiver, w, (3, 5), (1, 0))
                       if {m for _, m in beta.entries} != {1}]


class TestBrickCertificate:
    """A fill certifies exactly when End of its plain representation is the scalars (a
    brick), as the oracle's `hom_ext` finds it.  End_0 = 1 over the covering is not enough:
    on K4 (3,5) some random fills have End_0 = 1 and an endomorphism in another degree."""

    @settings(max_examples=80, deadline=None)
    @given(graded_reps())
    def test_a_fill_certifies_exactly_when_it_is_a_brick(self, rep):
        assert (not isinstance(outcome(cells.choose_complements, rep), str)) == is_brick(rep)

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(thin_classes(), looped_thin_classes(), wide_classes()), st.integers(0, 99))
    def test_random_fills_certify_exactly_when_they_are_bricks(self, case, seed):
        rep = uncertified_reps(*case, seed)[1]
        assert (not isinstance(outcome(cells.choose_complements, rep), str)) == is_brick(rep)

    @pytest.mark.parametrize("seed", [1, 16, 18])
    def test_k4_fills_certify_exactly_when_they_are_bricks(self, seed):
        """Every fill `cells` tries on the non-thin classes of K4 (3,5), up to the one that
        certifies.  At seed 1 some that certified before had End_0 = 1 and a positive-degree
        endomorphism, at 18 some had one in a negative degree only, and at 16 one class
        failed all of its first five fills."""
        quiver, w, wide = k4_wide_classes()
        tried = 0
        for beta in wide:
            rep = cells.GradedRep(quiver, w, beta, {})
            for blocks in cells._fills(rep._pairs, seed, False):
                rep.blocks = blocks
                tried += 1
                certified = not isinstance(outcome(cells.choose_complements, rep), str)
                assert certified == is_brick(rep), (beta, blocks)
                if certified:
                    break
            assert certified, beta
        assert tried > len(wide)

    @pytest.mark.parametrize("arrows,d,seeds", [(4, (3, 5), (18, 19)), (3, (3, 4), (0, 59))],
                             ids=["K4 (3,5)", "K3 (3,4)"])
    def test_representatives_are_bricks(self, arrows, d, seeds):
        quiver = bq.kronecker_quiver(arrows)
        w = bq.generic_rank1_weights(quiver)
        wide = [beta for beta in bq.enumerate_compatible(quiver, w, d, (1, 0))
                if {m for _, m in beta.entries} != {1}]
        assert wide
        for seed in seeds:
            for beta in wide:
                assert is_brick(bq.build_fixed_rep(quiver, w, beta, seed)), (seed, beta)


@pytest.mark.parametrize("arrows,d,seed", [(4, "3,5", 1), (4, "3,5", 16), (4, "3,5", 18),
                                           (3, "3,4", 59)],
                         ids=["K4 (3,5) seed 1", "K4 (3,5) seed 16", "K4 (3,5) seed 18",
                              "K3 (3,4) seed 59"])
def test_charts_at_once_unlucky_seeds_have_att_plus(tmp_path, capsys, arrows, d, seed):
    """`cells` and `normal-form` chart every class with att+ coordinates where a certificate
    by End_0 alone, or five random fills, failed: K4 (3,5) at seed 1 met a fill with a
    positive-degree endomorphism, at 16 a class whose first five fills failed, and at 18
    charted a representative with dim End = 2; K3 (3,4) at 59 ran out of fills."""
    from bbquiver.cli import main

    path = tmp_path / "quiver.json"
    path.write_text(json.dumps(bq.kronecker_quiver(arrows).to_dict()))
    argv = ["--quiver", str(path), "--dim", d, "--theta", "1,0", "--format", "json"]

    def rows(command, key, *extra):
        assert main([command, *argv, *extra]) == 0
        return {json.dumps(r["beta"]): r for r in json.loads(capsys.readouterr().out)[key]}

    att = {beta: r["att_plus"] for beta, r in rows("fixed-points", "components").items()}
    charts = rows("cells", "cells", "--seed", str(seed))
    assert {beta: r["dimension"] for beta, r in charts.items()} == att
    normal = rows("normal-form", "normal_forms", "--seed", str(seed))
    assert normal and all(r["dimension"] == att[beta] for beta, r in normal.items())
