"""`--format json` reports pinned byte for byte.

The digests were recorded while reports were still encoded by the stdlib's
`json.dumps(payload, indent=2, sort_keys=True)`, so they pin the CLI's own
writer to that text.  The cases cover `poincare`, `count`, `normal-form`
(including an empty list of normal forms) and filter-on `fixed-points`,
whose rows nest dicts, lists and character keys; non-ASCII and tab
characters in names must come out escaped as the stdlib escapes them.
"""

import hashlib
import json

import pytest

import bbquiver as bq
from bbquiver.cli import main


def star(leaves):
    return bq.Quiver.from_arrows(("c", *(f"p{k}" for k in range(1, leaves + 1))),
                                 [(f"f{k}", "c", f"p{k}") for k in range(1, leaves + 1)])


STAR5 = ("2,1,1,1,1,1", "1,0,0,0,0,0")
NON_ASCII = bq.Quiver.from_arrows(("ü", "ж"), [("α", "ü", "ж"), ("β", "ü", "ж"),
                                                ("γ\t", "ü", "ж")])

CASES = {
    "poincare K3 (2,3)": (bq.kronecker_quiver(3), "poincare", "2,3", "1,0"),
    "poincare star5": (star(5), "poincare", *STAR5),
    "count K3 (2,3) q=2": (bq.kronecker_quiver(3), "count", "2,3", "1,0", "--field", "2"),
    "count K2 (1,2) q=5": (bq.kronecker_quiver(2), "count", "1,2", "1,0", "--field", "5"),
    "normal-form star5": (star(5), "normal-form", *STAR5),
    "normal-form K4 (2,3)": (bq.kronecker_quiver(4), "normal-form", "2,3", "1,0"),
    "fixed-points K4 (2,5)": (bq.kronecker_quiver(4), "fixed-points", "2,5", "1,0"),
    "fixed-points non-ASCII names": (NON_ASCII, "fixed-points", "2,3", "1,0"),
}

GOLDEN = {
    "poincare K3 (2,3)": "c1fa3596f027a5da58953edc91acf5d25ade46f0fc3f9eb0c91e208648758f6c",
    "poincare star5": "26b1656930a02ea00f4ac0d9f7b7de2f037ce6c10359fad7602c8caa739fc8c3",
    "count K3 (2,3) q=2": "938face97a00e51ff8eb953e10fd99b9aedad63c26146dbfb5f1667f250ffc0b",
    "count K2 (1,2) q=5": "fe49a7771260abb70f90c23f1fac37d0d86a7764f97d91a1c0f727a5f28e171b",
    "normal-form star5": "9ad71501cbaa8d4624bbb7dc44b3497bfe751c4a8eb7264344c1185ecbd17061",
    "normal-form K4 (2,3)": "6d1d4040e54d38b53e2a9b89bedc8ab1c99d6ed2f0cf45add413f910d004a2df",
    "fixed-points K4 (2,5)": "513f863115439df12821ce58edcffa32d89b011c0971f786afbe474e3b3e63c0",
    "fixed-points non-ASCII names":
        "1270df15ca809ffb7e6fa8d68598a860d6ada38553e21ddf3a422b8686f1915e",
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_stdout_is_unchanged(capsys, tmp_path, case):
    quiver, command, dim, theta, *extra = CASES[case]
    path = tmp_path / "quiver.json"
    path.write_text(json.dumps(quiver.to_dict()))
    code = main([command, "--quiver", str(path), "--dim", dim, "--theta", theta, *extra,
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[case]
