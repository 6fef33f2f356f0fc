"""Tests of the benchmark's own logic: failure accounting, span arithmetic,
seeded inputs and the stored references.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import queries
import run
import tracer

sys.path.insert(0, str(run.SRC))
import bbquiver as bq  # noqa: E402
from bbquiver import kronecker as kr  # noqa: E402


def _mat(workload, label_start, tmp_path, seed=1):
    for k, q in enumerate(queries.WORKLOADS[workload]):
        if q.label.startswith(label_start):
            return queries.materialize(q, seed, k, tmp_path)
    raise KeyError(label_start)


def test_wrong_polynomial_and_refusal_count_as_failed(tmp_path):
    mat = _mat("ladder", "poincare K4 d=(2,5)", tmp_path)
    right = {str(d): c for d, c in mat.query.ref.items()}
    good = {"poincare": right, "checks": {"duality": True, "dimension": 12}}
    assert queries.judge(mat, 0, json.dumps(good))[0]
    wrong = dict(right, **{"12": right["12"] + 1, "0": 1})
    bad = {"poincare": wrong, "checks": {"duality": True, "dimension": 12}}
    ok, digest, reason = queries.judge(mat, 0, json.dumps(bad))
    assert not ok and digest is None and reason
    ok, _, reason = queries.judge(mat, 3, "")
    assert not ok and reason == "exit code 3"
    assert not queries.judge(mat, 0, "not json")[0]


def test_self_time_of_nested_spans():
    idx = tracer.NAMES.index
    spans = [
        [idx("cli.main"), 0.0, 10.0, -1, None],
        [idx("covering.enumerate_compatible"), 1.0, 5.0, 0, 7],
        [idx("existence.has_stable"), 2.0, 3.0, 1, None],
        [idx("existence.has_stable"), 3.5, 4.0, 1, None],
        [idx("fixedpoints.analyze_component"), 6.0, 9.0, 0, None],
    ]
    assert tracer.self_times(spans) == [3.0, 2.5, 1.0, 0.5, 3.0]
    summary = tracer.query_summary(spans)
    layers = tracer.layer_self(summary)
    assert layers["cli"] == 3.0 and layers["covering"] == 2.5
    assert layers["existence"] == 1.5 and layers["fixedpoints"] == 3.0
    assert sum(layers.values()) == summary["query_s"] == 10.0
    metrics = tracer.layer_metrics([summary], 1, 0.5)
    assert metrics["covering.classes"] == 7 and metrics["existence.filter_calls"] == 2
    assert metrics["trace.pass_s"] == 10.0 and metrics["trace.overhead"] == 0.5


def test_seeded_inputs_are_reproducible_and_renamed(tmp_path):
    def inputs(seed, name):
        (tmp_path / name).mkdir()
        mat = _mat("oracle", "poincare K3 d=(2,3)", tmp_path / name, seed=seed)
        return mat, [Path(x).read_text() for x in mat.argv if x.endswith(".json")]

    a, files_a = inputs(5, "a")
    _, files_b = inputs(5, "b")
    c, files_c = inputs(6, "c")
    assert files_a == files_b
    assert files_a != files_c
    assert set(a.vertex_back.values()) == set(c.vertex_back.values()) == {"i", "j"}


def test_two_seeds_give_identical_answers_on_k3(tmp_path):
    digests = []
    for seed in (1, 2):
        d = tmp_path / str(seed)
        d.mkdir()
        mat = _mat("oracle", "poincare K3 d=(2,3)", d, seed=seed)
        res = run.run_query(mat.argv, trace=False)
        ok, digest, reason = queries.judge(mat, res["exit"], res["stdout"])
        assert ok, reason
        digests.append(digest)
    assert digests[0] == digests[1]


def test_traced_query_adds_up(tmp_path):
    mat = _mat("charts", "cells K5", tmp_path)
    res = run.run_query(mat.argv, trace=True)
    assert queries.judge(mat, res["exit"], res["stdout"])[0]
    summary = tracer.query_summary(res["spans"])
    assert sum(tracer.layer_self(summary).values()) == pytest.approx(summary["query_s"], abs=1e-9)
    assert summary["calls"]["cells.choose_complements"] > 0


def _kirwan(x):
    """Betti numbers of x points on P^1 modulo PGL_2 (Kirwan 1984)."""
    return {2 * j: sum(math.comb(x - 1, nu) for nu in range(min(j, x - 3 - j) + 1))
            for j in range(x - 2)}


def test_kronecker_references_are_the_closed_form():
    for (l, r), coeffs in queries.KRONECKER_REF.items():
        total: dict = {}
        for lab in kr.enumerate_type1(l, r):
            d = 2 * kr.d1_attractor(lab, "plus")
            total[d] = total.get(d, 0) + 1
        for lab in kr.enumerate_type2(l, r):
            shift = 2 * kr.d2_attractor(lab)
            for d, c in _kirwan(lab.x).items():
                total[d + shift] = total.get(d + shift, 0) + c
        assert total == queries._ref_poly(coeffs)
        assert queries._palindromic(total, queries._kronecker_dim(l, r))
        if r <= 2 or (l, r) == (5, 3):
            assert kr.kronecker_poincare(l, r).as_dict() == total
        assert (len(kr.enumerate_type1(l, r)), len(kr.enumerate_type2(l, r))) \
            == queries._label_counts(l, r)


def test_filtered_classes_reference_is_the_closed_form():
    quiver = bq.kronecker_quiver(4)
    w = bq.generic_rank1_weights(quiver)
    expected = []
    for lab in kr.enumerate_type1(3, 2) + kr.enumerate_type2(3, 2):
        beta = bq.label_to_beta(lab, w, quiver)
        att = kr.d1_attractor(lab, "plus") if isinstance(lab, kr.Label1) else kr.d2_attractor(lab)
        expected.append([sorted([v, list(chi), m] for (v, chi), m in beta.entries), att, 12 - att])
    assert sorted(expected) == sorted(queries.REFS["k4_2_5_filtered"])


def test_count_references_agree_with_polynomials():
    def at(poly, q):
        return sum(c * q ** (d // 2) for d, c in poly.items())

    refs = {q.label: q.ref for q in queries.WORKLOADS["oracle"] + queries.WORKLOADS["defects"]}
    assert refs["count K4 d=(2,3) q=2"] == at(queries._ref_poly(queries.KRONECKER_REF[(3, 1)]), 2)
    assert refs["count star7 q=3"] == at(refs["poincare star7"], 3)
    assert refs["count chain (1,2,2) q=4"] == at(refs["poincare chain (1,2,2)"], 4)
    k2 = bq.kronecker_quiver(2)
    w = bq.generic_rank1_weights(k2)
    comps = [bq.analyze_component(k2, w, b) for b in bq.enumerate_compatible(k2, w, (3, 2), (1, 0))]
    poly = bq.assemble_poincare([(c, bq.component_poincare(k2, w, (1, 0), c)) for c in comps])
    assert refs["count K2 d=(3,2) q=2"] == poly.evaluate_q(2)


def test_fails_without_the_program(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, f"{here.name}/run.py", "--workload", "ladder",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
