"""`fixed-points` and `poincare` output pinned byte for byte.

`fixed-points` is pinned in every format that prints rows: generic K4 (2,5)
with the existence filter off, whose classes include ones with no stable
lift, and K3 (2,3) under rank-2 weights, whose attractor sides come from a
one-parameter subgroup.  The digests were recorded before characters were
encoded as integers inside the kernels, so they also pin the decoding of
every character at the report boundary.
"""

import hashlib
import json

import pytest

import bbquiver as bq
from bbquiver.cli import main

RANK2 = {"rank": 2, "weights": {"a1": [1, 0], "a2": [0, 1], "a3": [1, 1]}}

CASES = {
    "K4 (2,5) filter off": (bq.kronecker_quiver(4), None,
                            ["fixed-points", "--dim", "2,5", "--theta", "1,0", "--filter", "off"]),
    "K3 (2,3) rank 2": (bq.kronecker_quiver(3), RANK2,
                        ["fixed-points", "--dim", "2,3", "--theta", "1,0"]),
    "K3 (2,3) poincare": (bq.kronecker_quiver(3), None,
                          ["poincare", "--dim", "2,3", "--theta", "1,0"]),
}

GOLDEN = {
    ("K4 (2,5) filter off", "json"): "436467ddfd299e7ee64b7fe889169c9eb73aa6f75dec27b5bcbce0f0210592b7",
    ("K4 (2,5) filter off", "csv"): "1a44f6d84b704288672831ed20cf87657afad9e51f24e9443e72f647e285e873",
    ("K4 (2,5) filter off", "text"): "4155b31b34d1cb6acfacd0d949ca28f6e49fbcfa4ece70efa19ad12492a1379a",
    ("K3 (2,3) rank 2", "json"): "83ddf917029ae9802b8e34108ad95337820467ff856b1708c9972680524d42ce",
    ("K3 (2,3) rank 2", "csv"): "dff0f91b1325077dfe5e05e5a1eb95e193d77256463b92ffbd075819d7fbbb2f",
    ("K3 (2,3) rank 2", "text"): "7982870cccf163a2ebf344ba56c31881632fd2d27b10d5f2745d106772965e6b",
    ("K3 (2,3) poincare", "text"): "f4bea75689835c0bc2e8c39e23b4046d148f869de726b5ee8c0fe8edce68a0d2",
}


@pytest.mark.parametrize("case,fmt", sorted(GOLDEN))
def test_stdout_is_unchanged(capsys, tmp_path, case, fmt):
    quiver, weights, argv = CASES[case]
    path = tmp_path / "quiver.json"
    path.write_text(json.dumps(quiver.to_dict()))
    argv = [argv[0], "--quiver", str(path), *argv[1:], "--format", fmt]
    if weights is not None:
        wpath = tmp_path / "weights.json"
        wpath.write_text(json.dumps(weights))
        argv += ["--weights", str(wpath)]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[(case, fmt)]
