import csv
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bbquiver as bq
from bbquiver.cli import _iroot, _is_prime_power, main
from bbquiver.covering import reduce_to_rank_one


@pytest.fixture()
def k3_file(tmp_path, k3):
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(k3.to_dict()))
    return str(path)


def base_args(k3_file, *extra):
    return ["--quiver", k3_file, "--dim", "2,3", "--theta", "1,0", *extra]


def test_poincare_text(capsys, k3_file):
    code = main(["poincare", *base_args(k3_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "1 + t^2 + 3t^4 + 3t^6 + 3t^8 + t^10 + t^12" in out


def test_fixed_points_rows(capsys, k3_file):
    code = main(["fixed-points", *base_args(k3_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "13 fixed-point classes" in out
    assert sum(1 for line in out.splitlines() if line.startswith("  [")) == 13


def test_json_format_parses(capsys, k3_file):
    code = main(["fixed-points", *base_args(k3_file, "--format", "json")])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 13
    assert "config_hash" in payload


def test_non_coprime_exit_3(capsys, k3_file):
    code = main(["poincare", "--quiver", k3_file, "--dim", "2,2", "--theta", "1,0"])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "unsupported"


def test_missing_file_exit_2(capsys):
    code = main(["poincare", "--quiver", "/nonexistent.json", "--dim", "2,3", "--theta", "1,0"])
    assert code == 2


def test_malformed_quiver_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": ["i"]}')
    code = main(["poincare", "--quiver", str(bad), "--dim", "1", "--theta", "0"])
    assert code == 2


@pytest.mark.parametrize("content", [b"\xff\xfe\x00garbage", b"[" * 200_000],
                         ids=["not-utf8", "nested-200000"])
@pytest.mark.parametrize("flag", ["--quiver", "--weights"])
def test_unreadable_json_file_exit_2(capsys, tmp_path, k3_file, flag, content):
    """An input file that is not UTF-8 JSON, or is nested deeper than the parser
    goes, is a validation error, not a traceback."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    # a repeated flag keeps its last value: a second --quiver replaces k3's
    assert main(["poincare", *base_args(k3_file), flag, str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == "validation"


def test_count_command(capsys, k3_file):
    code = main(["count", *base_args(k3_file, "--field", "2")])
    out = capsys.readouterr().out
    assert code == 0
    assert "183" in out


@pytest.mark.parametrize("q", [7, 17, 49])
def test_count_at_any_prime_power(capsys, tmp_path, q):
    path = tmp_path / "k2.json"
    path.write_text(json.dumps(bq.kronecker_quiver(2).to_dict()))
    code = main(["count", "--quiver", str(path), "--dim", "1,1", "--theta", "1,0",
                 "--field", str(q), "--format", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["count"] == q + 1  # P^1


# beyond MR_BOUND a small factor (2e30, 3e40) or the base-2 Fermat test
# (10^30 + 1 = 61 * 101 * ...) still shows the root composite
@pytest.mark.parametrize("q", [6, 1, 0, -4, 2 * 10**30, 10**30 + 1, 3 * 10**40])
def test_count_field_not_a_prime_power_exit_2(capsys, k3_file, q):
    assert main(["count", *base_args(k3_file, "--field", str(q))]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "validation"


def test_prime_power_check_is_exact():
    powers = {p**k for p in range(2, 2000) if all(p % m for m in range(2, p))
              for k in range(1, 12) if p**k < 2000}
    assert [q for q in range(-2, 2000) if _is_prime_power(q)] == sorted(powers)
    assert _is_prime_power(17**2) and _is_prime_power(2**31 - 1)
    assert not _is_prime_power(17 * 19)


@pytest.mark.parametrize("q", [2**61 - 1, (2**61 - 1)**2, 2**100, 3**900],
                         ids=["2^61-1", "(2^61-1)^2", "2^100", "3^900"])
def test_large_prime_powers_accepted(q):
    assert _is_prime_power(q)


@pytest.mark.parametrize("q", [3215031751, 3825123056546413051, 6**40, 10**30])
def test_strong_pseudoprimes_and_composites_rejected(q):
    """3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7, and
    3825123056546413051 to every prime base up to 31."""
    assert not _is_prime_power(q)


def test_root_beyond_certified_bound_exit_3(capsys, k3_file):
    assert main(["count", *base_args(k3_file, "--field", str((2**89 - 1)**2))]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "unsupported"


def test_large_field_answers_at_once(capsys, k3_file):
    start = time.perf_counter()
    code = main(["count", *base_args(k3_file, "--field", str(2**61 - 1))])
    assert code == 0 and time.perf_counter() - start < 1.0
    assert capsys.readouterr().out.startswith(f"|M(F_{2**61 - 1})| = ")


def test_integer_root():
    for q in [1, 2, 3, 8, 9, 1000, 10**50 + 7, 2**200, 3**333 - 1, 10**400]:
        for k in range(1, 70):
            r = _iroot(q, k)
            assert r**k <= q < (r + 1)**k, (q, k)


def test_kronecker_command(capsys):
    code = main(["kronecker", "--l", "2", "--r", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1 + t^2 + 3t^4 + 3t^6 + 3t^8 + t^10 + t^12" in out
    assert "3232" in out


def test_cells_command(capsys, k3_file):
    code = main(["cells", *base_args(k3_file, "--format", "json")])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    dims = sorted(entry["dimension"] for entry in payload["cells"])
    assert dims == [0, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 6]


def test_normal_form_command(capsys, k3_file):
    code = main(["normal-form", *base_args(k3_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "1 generic-normal-form class(es)" in out
    assert "dimension 6" in out


def test_rank2_cells_chart_the_code_sign_subgroup(capsys, tmp_path, k3_file):
    """`cells` answers rank-2 weights with the charts of their code-sign
    subgroup: one chart per class, of dimension att+, with the patterns that
    the encoded rank-1 weights give."""
    rank2 = bq.WeightAssignment(2, {"a1": (1, 0), "a2": (0, 1), "a3": (1, 1)})
    encoded, _ = reduce_to_rank_one(rank2, (2, 3))
    reports = {}
    for name, w in (("rank2", rank2), ("encoded", bq.WeightAssignment(1, encoded))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(w.to_dict()))
        for command in ("cells", "fixed-points"):
            assert main([command, *base_args(k3_file, "--weights", str(path),
                                             "--format", "json")]) == 0
            reports[name, command] = json.loads(capsys.readouterr().out)
    charts = reports["rank2", "cells"]["cells"]
    assert len(charts) == 13
    att_plus = {json.dumps(row["beta"]): row["att_plus"]
                for row in reports["rank2", "fixed-points"]["components"]}
    assert {json.dumps(c["beta"]): c["dimension"] for c in charts} == att_plus
    assert all(len(entry["char"]) == 2 for c in charts for entry in c["beta"])
    assert [c["patterns"] for c in charts] == \
        [c["patterns"] for c in reports["encoded", "cells"]["cells"]]


def test_rank3_weist_weights_have_one_open_cell(capsys, tmp_path, k3_file):
    """`normal-form` charts a rank-3 action for its code-sign subgroup."""
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps(
        {"rank": 3, "weights": {"a1": [1, 0, 0], "a2": [0, 1, 0], "a3": [0, 0, 1]}}))
    assert main(["normal-form", *base_args(k3_file, "--weights", str(wfile),
                                           "--format", "json")]) == 0
    (cell,) = json.loads(capsys.readouterr().out)["normal_forms"]
    assert cell["dimension"] == 6


def test_filter_off_keeps_empty_classes(capsys, k3_file):
    code = main(["fixed-points", *base_args(k3_file, "--filter", "off", "--format", "json")])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] > 13


@pytest.mark.parametrize("l,d", [(4, "2,3"), (4, "2,5"), (3, "3,4")])
def test_filter_off_valid_rows_are_the_filter_on_rows(capsys, tmp_path, l, d):
    """The rows `--filter off` shows as valid are the filter-on report's rows,
    byte for byte; the rest are the classes the existence filter drops."""
    path = tmp_path / "quiver.json"
    path.write_text(json.dumps(bq.kronecker_quiver(l).to_dict()))
    reports = {}
    for flag in ("on", "off"):
        assert main(["fixed-points", "--quiver", str(path), "--dim", d, "--theta", "1,0",
                     "--filter", flag, "--format", "json"]) == 0
        reports[flag] = json.loads(capsys.readouterr().out)
    kept = [row for row in reports["off"]["components"] if "invalid" not in row]
    assert json.dumps(kept, indent=2) == json.dumps(reports["on"]["components"], indent=2)
    dropped = [row for row in reports["off"]["components"] if "invalid" in row]
    assert {row["invalid"] for row in dropped} == {"no stable lift"}
    assert reports["off"]["count"] == len(kept) + len(dropped) > reports["on"]["count"]


def test_filter_off_survivor_without_a_lift_exits_4(capsys, monkeypatch, tmp_path):
    """A class the existence filter keeps must have nonnegative weight spaces;
    with the filter fooled into keeping every class, `--filter off` exits 4."""
    from bbquiver import hn

    monkeypatch.setattr(hn, "has_stable", lambda *args: True)
    path = tmp_path / "k4.json"
    path.write_text(json.dumps(bq.kronecker_quiver(4).to_dict()))
    err = _exit_4(capsys, ["fixed-points", "--quiver", str(path), "--dim", "2,3", "--theta",
                           "1,0", "--filter", "off"])
    assert err["error"] == "inconsistency" and "stable lift" in err["message"]


def test_csv_component_report(capsys, k3_file):
    code = main(["attractors", *base_args(k3_file, "--format", "csv")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "beta,dim_component,att_plus,att_minus,isolated"
    assert len([ln for ln in out.splitlines() if ln.startswith('"')]) == 13


@pytest.mark.parametrize("l,r", [(2, 1), (3, 2), (5, 2)])
def test_kronecker_csv_rows_have_the_header_fields(capsys, l, r):
    """Labels hold commas; quoted as RFC 4180 asks, each row reads as 4 fields."""
    assert main(["kronecker", "--l", str(l), "--r", str(r), "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["label", "kind", "att_plus", "att_minus"]
    assert rows[-1][0].startswith("# P(t) = ")
    assert [len(row) for row in rows[1:-1]] == [4] * (len(rows) - 2)


@pytest.mark.parametrize("filter_", ["on", "off"])
def test_csv_quotes_vertex_names_with_commas_and_quotes(capsys, tmp_path, filter_):
    names = ('i"x', "j,y")
    quiver = bq.Quiver.from_arrows(names, [(f"a{k}", *names) for k in (1, 2, 3)])
    path = tmp_path / "q.json"
    path.write_text(json.dumps(quiver.to_dict()))
    assert main(["fixed-points", "--quiver", str(path), "--dim", "2,3", "--theta", "1,0",
                 "--filter", filter_, "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["beta", "dim_component", "att_plus", "att_minus", "isolated"]
    assert rows[-1][0].startswith("[config ")
    assert len(rows) > 3 and all(len(row) == 5 for row in rows[1:-1])
    assert all('i"x@' in row[0] and "j,y@" in row[0] for row in rows[1:-1])


def test_star_quiver_run(capsys, tmp_path, star_quiver):
    path = tmp_path / "star.json"
    path.write_text(json.dumps(star_quiver.to_dict()))
    code = main(["poincare", "--quiver", str(path),
                 "--dim", "2,1,1,1,1,1", "--theta", "1,0,0,0,0,0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1 + 5t^2 + t^4" in out
    assert "duality ok" in out


def test_poincare_under_trivial_weights(capsys, tmp_path, k3_file):
    """Equal arrow weights fix every point: one 6-dimensional component."""
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps({"rank": 1, "weights": {"a1": [1], "a2": [1], "a3": [1]}}))
    code = main(["poincare", *base_args(k3_file, "--weights", str(wfile))])
    out = capsys.readouterr().out
    assert code == 0
    assert "P(t) = 1 + t^2 + 3t^4 + 3t^6 + 3t^8 + t^10 + t^12\n" in out
    assert "dimension 6, duality ok" in out


def test_poincare_of_a_simple_vector(capsys, k3_file):
    """d = (1, 0) meets no arrow: a point, whose HN check uses q = 2 and 4."""
    assert main(["poincare", "--quiver", k3_file, "--dim", "1,0", "--theta", "1,0"]) == 0
    assert capsys.readouterr().out.startswith("P(t) = 1\ndimension 0, duality ok\n")


CYCLIC = {
    "loop": ({"vertices": ["a", "b"], "arrows": [{"name": "x", "from": "a", "to": "a"},
                                                 {"name": "y", "from": "a", "to": "b"}]}, "1,1"),
    "2-cycle": ({"vertices": ["a", "b"], "arrows": [{"name": "x", "from": "a", "to": "b"},
                                                    {"name": "z", "from": "a", "to": "b"},
                                                    {"name": "y", "from": "b", "to": "a"}]}, "1,2"),
}


@pytest.mark.parametrize("name", CYCLIC)
def test_poincare_refuses_oriented_cycles(capsys, tmp_path, name):
    """M^st is not projective, so the BB sum is not its Poincare polynomial."""
    doc, dim = CYCLIC[name]
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(doc))
    args = ["--quiver", str(path), "--dim", dim, "--theta", "1,0"]
    assert main(["poincare", *args]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"] == "unsupported" and captured.out == ""
    for command in ("fixed-points", "cells", "count"):
        assert main([command, *args]) == 0, command


def test_poincare_of_an_empty_space(capsys, k3_file):
    """No fixed-point class: the space is empty and has no dimension."""
    args = ["poincare", "--quiver", k3_file, "--dim", "2,3", "--theta", "-1,0"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[:2] == ["P(t) = 0", "the moduli space is empty"]
    assert main([*args, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["poincare"] == {} and payload["checks"]["dimension"] is None


def test_determinism(capsys, k3_file):
    main(["cells", *base_args(k3_file, "--format", "json", "--seed", "3")])
    first = capsys.readouterr().out
    main(["cells", *base_args(k3_file, "--format", "json", "--seed", "3")])
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("flag,value", [("--dim", "2,x"), ("--theta", "1,0.5")])
def test_non_integer_vector_exit_2(capsys, k3_file, flag, value):
    args = {"--dim": "2,3", "--theta": "1,0", flag: value}
    code = main(["poincare", "--quiver", k3_file, *(x for kv in args.items() for x in kv)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    assert flag in err["message"]


def test_weights_for_missing_arrow_exit_2(capsys, tmp_path, k3_file):
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps({"rank": 1, "weights": {"a1": [9], "a2": [3], "a3": [1],
                                                        "a4": [7]}}))
    code = main(["poincare", *base_args(k3_file, "--weights", str(wfile))])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    assert "a4" in err["message"]


WEIGHTS_COMMANDS = ("fixed-points", "poincare", "cells", "normal-form")


def _missing_weight_errors(capsys, quiver, dim, theta, weights, tmp_path):
    """(exit code, stderr) of each weights-taking command on the case."""
    qfile, wfile = tmp_path / "q.json", tmp_path / "w.json"
    qfile.write_text(json.dumps(quiver.to_dict()))
    wfile.write_text(json.dumps({"rank": 1, "weights": weights}))
    out = []
    for command in WEIGHTS_COMMANDS:
        code = main([command, "--quiver", str(qfile), "--dim", dim, "--theta", theta,
                     "--weights", str(wfile)])
        out.append((code, json.loads(capsys.readouterr().err)))
    return out


def test_weights_missing_an_arrow_no_class_meets_exit_2(capsys, tmp_path):
    """On a -> b -> c with d = (1,1,0) no class meets the arrow y: b -> c, so
    no kernel reads its weight; the input check still refuses the file."""
    quiver = bq.Quiver.from_arrows(("a", "b", "c"), [("x", "a", "b"), ("y", "b", "c")])
    error = {"error": "validation", "message": "no weight assigned to arrow 'y'"}
    assert _missing_weight_errors(capsys, quiver, "1,1,0", "0,1,0", {"x": [1]}, tmp_path) == \
        [(2, error)] * len(WEIGHTS_COMMANDS)


def test_weights_missing_an_arrow_exit_2(capsys, tmp_path, k3):
    error = {"error": "validation", "message": "no weight assigned to arrow 'a3'"}
    assert _missing_weight_errors(capsys, k3, "2,3", "1,0", {"a1": [9], "a2": [3]},
                                  tmp_path) == [(2, error)] * len(WEIGHTS_COMMANDS)


def test_non_integer_weight_exit_2(capsys, tmp_path, k3_file):
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps({"rank": 1, "weights": {"a1": ["x"], "a2": [3], "a3": [1]}}))
    code = main(["poincare", *base_args(k3_file, "--weights", str(wfile))])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "validation"


@pytest.mark.parametrize("command", ["poincare", "cells", "normal-form"])
def test_filter_off_refused_outside_fixed_points(capsys, k3_file, command):
    with pytest.raises(SystemExit) as exc:
        main([command, *base_args(k3_file, "--filter", "off")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --filter off" in captured.err


# the optional flags each command reads; every other one is a usage error
READS = {
    "fixed-points": {"--weights", "--filter"},
    "attractors": {"--weights", "--filter"},
    "poincare": {"--weights"},
    "cells": {"--weights", "--seed"},
    "normal-form": {"--weights", "--seed"},
    "count": {"--field"},
}
# the formats each command writes; any other is a usage error
FORMATS = {"fixed-points": "text,json,csv", "attractors": "text,json,csv",
           "poincare": "text,json,latex", "cells": "text,json,latex",
           "normal-form": "text,json,latex", "count": "text,json",
           "kronecker": "text,json,latex,csv"}
OPTIONAL = {"--weights": None, "--filter": "on", "--seed": "1", "--field": "3",
            "--budget": "100"}


@pytest.mark.parametrize("flag", sorted(OPTIONAL))
@pytest.mark.parametrize("command", sorted(READS))
def test_each_command_takes_only_the_flags_it_reads(capsys, tmp_path, k3, k3_file,
                                                    command, flag):
    value = OPTIONAL[flag]
    if value is None:
        value = str(tmp_path / "w.json")
        Path(value).write_text(json.dumps(bq.WeightAssignment(1, bq.generic_rank1_weights(k3)).to_dict()))
    argv = [command, *base_args(k3_file, flag, value)]
    if flag in READS[command]:
        assert main(argv) == 0
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"unrecognized arguments: {flag} {value}" in captured.err


@pytest.mark.parametrize("command", sorted(FORMATS))
def test_help_lists_the_flags_a_command_reads(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    listed = set(re.findall(r"--[a-z]+", out)) - {"--help"}
    assert listed == ({"--l", "--r", "--format"} if command == "kronecker" else
                      {"--quiver", "--dim", "--theta", "--format"} | READS[command])
    assert re.findall(r"--format \{([a-z,]+)\}", out) == [FORMATS[command]]


def _config_hash(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out.splitlines()[-1]


def test_config_hash_ignores_the_format(capsys, k3_file):
    """The text reports end in `[config <hash>]`; JSON reports carry the same hash."""
    for command in READS:
        text = _config_hash(capsys, [command, *base_args(k3_file)])
        for fmt in sorted(set(FORMATS[command].split(",")) - {"text", "json"}):
            assert text == _config_hash(capsys, [command, *base_args(k3_file, "--format", fmt)])
        assert main([command, *base_args(k3_file, "--format", "json")]) == 0
        assert text == f"[config {json.loads(capsys.readouterr().out)['config_hash']}]"


@pytest.mark.parametrize("command,flag,values", [("cells", "--seed", ("0", "1")),
                                                 ("count", "--field", ("2", "3")),
                                                 ("fixed-points", "--filter", ("on", "off"))])
def test_config_hash_covers_the_flags_a_command_reads(capsys, k3_file, command, flag, values):
    first, second = (_config_hash(capsys, [command, *base_args(k3_file, flag, value)])
                     for value in values)
    assert first.startswith("[config ") and first != second


def _exit_4(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    return json.loads(captured.err)


def _bump_att_plus(monkeypatch):
    from bbquiver import fixedpoints

    real = fixedpoints.analyze_component

    def bumped(*args):
        c = real(*args)
        return bq.FixedComponent(c.beta, c.weight_table, c.dim_component, c.att_plus + 1,
                                 c.att_minus, c.isolated)

    monkeypatch.setattr(fixedpoints, "analyze_component", bumped)


def test_duality_failure_exits_4(capsys, monkeypatch, k3_file):
    from bbquiver import betti

    monkeypatch.setattr(betti, "assemble_poincare",
                        lambda pairs: bq.PoincarePolynomial(((0, 1), (2, 2))))
    err = _exit_4(capsys, ["poincare", *base_args(k3_file)])
    assert err["error"] == "inconsistency" and "duality" in err["message"]


def test_dropped_components_fail_the_hn_check(capsys, monkeypatch, k3_file):
    """Without its att+ = 0 and att+ = 6 points K3 (2,3) sums to
    t^2 + 3t^4 + 3t^6 + 3t^8 + t^10, which keeps duality; the whole-space
    HN count does not agree."""
    from bbquiver import cli

    real = cli._components
    monkeypatch.setattr(cli, "_components",
                        lambda cfg: [c for c in real(cfg) if c.att_plus not in (0, 6)])
    err = _exit_4(capsys, ["poincare", *base_args(k3_file)])
    assert err["error"] == "inconsistency"
    assert "t^2 + 3t^4 + 3t^6 + 3t^8 + t^10" in err["message"] and "HN" in err["message"]


def test_poincare_counts_each_component_shape_once(capsys, monkeypatch, tmp_path):
    """K6 (2,5) has six 2-dimensional components, each on a five-leaf star
    support: one HN count serves all six, beside the whole-space count."""
    from bbquiver import betti

    real, dims = betti.stable_poincare, []
    monkeypatch.setattr(betti, "stable_poincare",
                        lambda quiver, d, theta, dim: dims.append(dim) or real(quiver, d, theta, dim))
    path = tmp_path / "k6.json"
    path.write_text(json.dumps(bq.kronecker_quiver(6).to_dict()))
    assert main(["poincare", "--quiver", str(path), "--dim", "2,5", "--theta", "1,0",
                 "--format", "json"]) == 0
    closed = {str(d): c for d, c in bq.kronecker_poincare(5, 2).coefficients}
    assert json.loads(capsys.readouterr().out)["poincare"] == closed
    assert dims == [2, 32]


def test_poincare_frees_each_component_once_summed(capsys, monkeypatch, tmp_path):
    """`poincare` sums the components as they are analysed: of the 1 566 on
    K6 (2,5), at most the one being summed and the next one live at once."""
    from bbquiver import fixedpoints

    count = {"built": 0, "live": 0, "peak": 0}

    class Counted(bq.FixedComponent):
        def __init__(self, *args):
            super().__init__(*args)
            count["built"] += 1
            count["live"] += 1
            count["peak"] = max(count["peak"], count["live"])

        def __del__(self):
            count["live"] -= 1

    real = fixedpoints.analyze_component

    def counted(*args):
        c = real(*args)
        return Counted(c.beta, c.weight_table, c.dim_component, c.att_plus, c.att_minus,
                       c.isolated)

    monkeypatch.setattr(fixedpoints, "analyze_component", counted)
    path = tmp_path / "k6.json"
    path.write_text(json.dumps(bq.kronecker_quiver(6).to_dict()))
    assert main(["poincare", "--quiver", str(path), "--dim", "2,5", "--theta", "1,0",
                 "--format", "json"]) == 0
    closed = {str(d): c for d, c in bq.kronecker_poincare(5, 2).coefficients}
    assert json.loads(capsys.readouterr().out)["poincare"] == closed
    assert count["built"] == 1566 and count["peak"] <= 2


def test_balance_failure_exits_4(capsys, monkeypatch, k3_file):
    _bump_att_plus(monkeypatch)
    err = _exit_4(capsys, ["fixed-points", *base_args(k3_file)])
    assert err["error"] == "inconsistency" and "balance" in err["message"]


def test_chart_dimension_failure_exits_4(capsys, monkeypatch, k3_file):
    _bump_att_plus(monkeypatch)
    err = _exit_4(capsys, ["cells", *base_args(k3_file)])
    assert err["error"] == "inconsistency" and "cell chart" in err["message"]


def _move_a_free_coordinate(monkeypatch) -> list:
    """Patch `cells.choose_complements` to move the first free coordinate of
    each chart to a degree above all of the chart's degrees, which keeps the
    chart's dimension.  Returns the degrees the coordinates left."""
    from bbquiver import cells

    real, left = cells.choose_complements, []

    def moved(rep, *args):
        chart = real(rep, *args)
        degrees = dict(chart.degrees)
        for k, free in chart.degrees.items():
            if free:
                left.append(k)
                degrees[k] = free[1:]
                degrees[max(degrees) + 1] = free[:1]
                break
        return cells.CellChart(chart.base, degrees)

    monkeypatch.setattr(cells, "choose_complements", moved)
    return left


@pytest.mark.parametrize("command", ["cells", "normal-form"])
def test_chart_degree_failure_exits_4(capsys, monkeypatch, k3_file, command):
    """Free coordinates in the wrong degree fail the per-degree chart check,
    in `normal-form` as in `cells`, though the chart's dimension is att+."""
    left = _move_a_free_coordinate(monkeypatch)
    err = _exit_4(capsys, [command, *base_args(k3_file)])
    assert err["error"] == "inconsistency" and "cell chart" in err["message"]
    assert f"free coordinates in degree {left[0]}," in err["message"]


@pytest.mark.parametrize("flag,value", [("--theta", "-1,0"), ("--theta", "-1,1"),
                                        ("--dim", "-2,3"), ("--dim", "-2,x")])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_negative_vector_as_its_own_argument(capsys, k3_file, flag, value, fmt):
    """`--theta -1,0` is read as `--theta=-1,0`, not as an unknown option."""
    args = {"--dim": "2,3", "--theta": "1,0"}
    del args[flag]
    rest = [*(x for kv in args.items() for x in kv), "--format", fmt]
    joined = main(["poincare", "--quiver", k3_file, f"{flag}={value}", *rest])
    expected = capsys.readouterr()
    assert main(["poincare", "--quiver", k3_file, flag, value, *rest]) == joined
    assert capsys.readouterr() == expected
    assert joined == (0 if flag == "--theta" else 2)


def _module_env() -> dict:
    """The environment in which `python -m bbquiver.cli` imports this checkout's package."""
    src = str(Path(bq.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")]))}


def test_closed_stdout_is_not_an_error(tmp_path):
    """A reader that stops early (`| head -c 10`) ends the run quietly with exit 1."""
    proc = subprocess.Popen([sys.executable, "-m", "bbquiver.cli", "kronecker", "--l", "6",
                             "--r", "2", "--format", "json"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_module_env(), cwd=tmp_path)
    assert proc.stdout.read(10) == b'{\n  "l": 6'
    proc.stdout.close()  # the report is far larger than a pipe buffer
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""


@pytest.mark.parametrize("argv", [["--help"], ["poincare", "--help"]])
def test_help_to_a_closed_stdout_is_not_an_error(tmp_path, argv):
    """`bbquiver --help | head -c0`: help whose reader is gone exits 1 quietly, as a report."""
    read, write = os.pipe()
    os.close(read)  # closed before the child writes, so its first write fails
    try:
        proc = subprocess.run([sys.executable, "-m", "bbquiver.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, env=_module_env(), cwd=tmp_path,
                              timeout=60)
    finally:
        os.close(write)
    assert proc.stderr == b""
    assert proc.returncode == 1


def _usage_error(capsys, argv):
    """Run argv, which must be a usage error, and return its stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def test_usage_error_shows_the_command_usage(capsys, k3_file):
    err = _usage_error(capsys, ["poincare", *base_args(k3_file, "--seed", "3")])
    assert err.startswith("usage: bbquiver poincare ")
    assert "bbquiver poincare: error: unrecognized arguments: --seed 3" in err


# formats these commands have no writer for: each would be the text report
# under another name
TEXT_UNDER_ANOTHER_NAME = [("fixed-points", "latex"), ("poincare", "csv"), ("cells", "csv"),
                           ("normal-form", "csv"), ("count", "csv"), ("count", "latex")]


@pytest.mark.parametrize("argv,message", [
    (["poincare", "--dim", "2,3", "--theta", "1,0"],
     "the following arguments are required: --quiver"),
    (["kronecker", "--l", "2"], "the following arguments are required: --r"),
    (["poincare", "--quiver", "q.json", "--dim", "2,3", "--theta", "1,0", "--format", "xml"],
     "argument --format: invalid choice: 'xml'"),
    (["cells", "--quiver", "q.json", "--dim", "2,3", "--theta", "1,0", "--seed", "x"],
     "argument --seed: invalid int value: 'x'"),
    (["count", "--quiver", "q.json", "--dim", "2,3", "--theta", "1,0", "--field=2.5"],
     "argument --field: invalid int value: '2.5'"),
    (["kronecker", "--r", "1", "--l"], "argument --l: expected one argument"),
    (["count", "--quiver", "q.json", "--dim", "2,3", "--theta", "1,0", "--form", "json"],
     "unrecognized arguments: --form json"),
    *(([command, "--quiver", "q.json", "--dim", "2,3", "--theta", "1,0", "--format", fmt],
       f"argument --format: invalid choice: {fmt!r} (choose from "
       f"{FORMATS[command].replace(',', ', ')})") for command, fmt in TEXT_UNDER_ANOTHER_NAME),
])
def test_usage_errors_exit_2(capsys, argv, message):
    err = _usage_error(capsys, argv)
    assert err.startswith(f"usage: bbquiver {argv[0]} ")
    assert f"bbquiver {argv[0]}: error: {message}" in err


@pytest.mark.parametrize("argv,message", [([], "a command is required"),
                                          (["bogus"], "unknown command 'bogus'")])
def test_unknown_or_missing_command_exits_2(capsys, argv, message):
    err = _usage_error(capsys, argv)
    assert err.startswith("usage: bbquiver COMMAND ") and f"bbquiver: error: {message}" in err


def test_top_level_help_lists_the_commands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for command in ("fixed-points", "poincare", "cells", "normal-form", "count", "kronecker"):
        assert command in out


def test_joined_and_separate_values_agree(capsys, k3_file):
    assert main(["cells", *base_args(k3_file, "--seed", "3")]) == 0
    separate = capsys.readouterr().out
    assert main(["cells", f"--quiver={k3_file}", "--dim=2,3", "--theta=1,0", "--seed=3"]) == 0
    assert capsys.readouterr().out == separate


def test_a_repeated_flag_keeps_its_last_value(capsys, k3_file):
    last = _config_hash(capsys, ["count", *base_args(k3_file, "--field", "3")])
    assert last == _config_hash(capsys, ["count", *base_args(k3_file, "--field", "2",
                                                             "--field", "3")])
    assert last != _config_hash(capsys, ["count", *base_args(k3_file, "--field", "2")])


def test_a_query_imports_no_argument_parser(k3_file):
    """The CLI reads argv itself: argparse and the gettext it pulls in cost
    a fresh interpreter several milliseconds per query."""
    script = ("import sys, bbquiver.cli as cli; "
              f"code = cli.main(['count', '--quiver', {k3_file!r}, '--dim', '2,3', "
              "'--theta', '1,0']); "
              "print(code, sorted({'argparse', 'gettext'} & set(sys.modules)))")
    src = str(Path(bq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "|M(F_2)| = 183" and lines[-1] == "0 []"


def _loaded_by_queries(k3_file, names) -> str:
    """Run every command in one fresh interpreter; their exit codes, then which
    of `names` they loaded."""
    args = repr(base_args(k3_file))
    script = ("import sys; before = set(sys.modules); import bbquiver.cli as cli; "
              f"codes = [cli.main([c, *{args}]) for c in "
              "('count', 'poincare', 'fixed-points', 'cells', 'normal-form')]; "
              "codes.append(cli.main(['kronecker', '--l', '3', '--r', '1'])); "
              f"print(codes, sorted({set(names)!r} & set(sys.modules) - before))")
    src = str(Path(bq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_queries_import_no_dataclasses(k3_file):
    """The records are plain classes: `dataclasses`, and the `inspect` it
    pulls in, would cost every fresh interpreter their import and the code
    generated for each record."""
    assert _loaded_by_queries(k3_file, ("dataclasses", "inspect")) == "[0, 0, 0, 0, 0, 0] []"


def test_queries_import_no_fractions(k3_file):
    """No query makes a Fraction: `fractions`, with the `decimal` and
    `numbers` it imports, is loaded only where one is made."""
    assert (_loaded_by_queries(k3_file, ("fractions", "decimal", "numbers"))
            == "[0, 0, 0, 0, 0, 0] []")
