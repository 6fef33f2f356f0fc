"""The runtime needs no numpy.  Only the brute-force F_q counting oracle
(`bbquiver.existence`, `bbquiver.finitefield`) uses it, and only the tests
and the benchmark's tracer import that oracle."""

import json
import os
import subprocess
import sys
from pathlib import Path

import bbquiver as bq
from bbquiver.cli import main

SRC = str(Path(bq.__file__).resolve().parents[1])

# Runs each argv of the JSON object in sys.argv[1] with numpy unimportable and
# prints {name: [exit code, stdout]}.
NUMPY_BLOCKED_RUN = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from bbquiver.cli import main
out = {}
for name, argv in json.loads(sys.argv[1]).items():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    out[name] = [code, buf.getvalue()]
print(json.dumps(out))
"""


def run_python(cwd, code, *args) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get(
        "PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_numpy_out(tmp_path):
    code = "import sys, bbquiver, bbquiver.cli; print('numpy' in sys.modules)"
    assert run_python(tmp_path, code) == "False\n"


def test_commands_run_without_numpy(tmp_path, capsys, k3):
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(k3.to_dict()))
    argvs = {cmd: [cmd, "--quiver", str(path), "--dim", "2,3", "--theta", "1,0"]
             for cmd in ("fixed-points", "poincare", "cells", "count")}
    argvs["kronecker"] = ["kronecker", "--l", "2", "--r", "1"]  # K3 (2,3) in closed form
    expected = {}
    for name, argv in argvs.items():
        code = main(argv)
        expected[name] = [code, capsys.readouterr().out]
    assert all(code == 0 for code, _ in expected.values())
    assert json.loads(run_python(tmp_path, NUMPY_BLOCKED_RUN, json.dumps(argvs))) == expected
