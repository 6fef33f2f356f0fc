import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bbquiver as bq
from bbquiver.cli import _is_prime_power, main


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


def test_count_command(capsys, k3_file):
    code = main(["count", *base_args(k3_file, "--field", "2")])
    out = capsys.readouterr().out
    assert code == 0
    assert "183" in out


def test_count_budget_exit_3(capsys, k3_file):
    code = main(["count", *base_args(k3_file, "--field", "2", "--budget", "100")])
    assert code == 3


@pytest.mark.parametrize("q", [7, 17, 49])
def test_count_at_any_prime_power(capsys, tmp_path, q):
    path = tmp_path / "k2.json"
    path.write_text(json.dumps(bq.kronecker_quiver(2).to_dict()))
    code = main(["count", "--quiver", str(path), "--dim", "1,1", "--theta", "1,0",
                 "--field", str(q), "--format", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["count"] == q + 1  # P^1


@pytest.mark.parametrize("q", [6, 1, 0, -4])
def test_count_field_not_a_prime_power_exit_2(capsys, k3_file, q):
    assert main(["count", *base_args(k3_file, "--field", str(q))]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "validation"


def test_prime_power_check_is_exact():
    powers = {p**k for p in range(2, 2000) if all(p % m for m in range(2, p))
              for k in range(1, 12) if p**k < 2000}
    assert [q for q in range(-2, 2000) if _is_prime_power(q)] == sorted(powers)
    assert _is_prime_power(17**2) and _is_prime_power(2**31 - 1)
    assert not _is_prime_power(17 * 19)


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


def test_filter_off_keeps_empty_classes(capsys, k3_file):
    code = main(["fixed-points", *base_args(k3_file, "--filter", "off", "--format", "json")])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] > 13


def test_csv_component_report(capsys, k3_file):
    code = main(["attractors", *base_args(k3_file, "--format", "csv")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "beta,dim_component,att_plus,att_minus,isolated"
    assert len([ln for ln in out.splitlines() if ln.startswith('"')]) == 13


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
    main(["fixed-points", *base_args(k3_file, "--format", "json", "--seed", "3")])
    first = capsys.readouterr().out
    main(["fixed-points", *base_args(k3_file, "--format", "json", "--seed", "3")])
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


def test_non_integer_weight_exit_2(capsys, tmp_path, k3_file):
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps({"rank": 1, "weights": {"a1": ["x"], "a2": [3], "a3": [1]}}))
    code = main(["poincare", *base_args(k3_file, "--weights", str(wfile))])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "validation"


@pytest.mark.parametrize("command", ["poincare", "cells", "normal-form"])
def test_filter_off_refused_outside_fixed_points(capsys, k3_file, command):
    code = main([command, *base_args(k3_file, "--filter", "off")])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "unsupported"
    assert "--filter off" in err["message"]


def _exit_4(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    return json.loads(captured.err)


def _bump_att_plus(monkeypatch):
    from dataclasses import replace

    from bbquiver import fixedpoints

    real = fixedpoints.analyze_component

    def bumped(*args):
        c = real(*args)
        return replace(c, att_plus=c.att_plus + 1)

    monkeypatch.setattr(fixedpoints, "analyze_component", bumped)


def test_duality_failure_exits_4(capsys, monkeypatch, k3_file):
    from bbquiver import betti

    monkeypatch.setattr(betti, "assemble_poincare",
                        lambda pairs: bq.PoincarePolynomial(((0, 1), (2, 2))))
    err = _exit_4(capsys, ["poincare", *base_args(k3_file)])
    assert err["error"] == "inconsistency" and "duality" in err["message"]


def test_balance_failure_exits_4(capsys, monkeypatch, k3_file):
    _bump_att_plus(monkeypatch)
    err = _exit_4(capsys, ["fixed-points", *base_args(k3_file)])
    assert err["error"] == "inconsistency" and "balance" in err["message"]


def test_chart_dimension_failure_exits_4(capsys, monkeypatch, k3_file):
    _bump_att_plus(monkeypatch)
    err = _exit_4(capsys, ["cells", *base_args(k3_file)])
    assert err["error"] == "inconsistency" and "cell chart" in err["message"]


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


def test_closed_stdout_is_not_an_error(tmp_path):
    """A reader that stops early (`| head -c 10`) ends the run quietly with exit 1."""
    src = str(Path(bq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-m", "bbquiver.cli", "kronecker", "--l", "6",
                             "--r", "2", "--format", "json"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=tmp_path)
    assert proc.stdout.read(10) == b'{\n  "l": 6'
    proc.stdout.close()  # the report is far larger than a pipe buffer
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""
