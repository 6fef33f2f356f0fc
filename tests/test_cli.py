import json

import pytest

import bbquiver as bq
from bbquiver.cli import main


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
