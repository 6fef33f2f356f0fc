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
    "poincare K3 (2,3)": "de19ef67b6681d5f57eb7836992bd5de797d1afd920b6703ff10c80dee58b2c2",
    "poincare star5": "7ddfe638198029300f069c84a084e33567a8aa627b3fc5dcb848584067cc873c",
    "count K3 (2,3) q=2": "a2d0f3b2b82e62cb94d58be5ce5ff9fe3a63fbce0a2eb283260702c18f3df039",
    "count K2 (1,2) q=5": "43d0dba33f2cee26035e7e78ad062c5ed9df62ac029001c1e6adcf6978e69a0d",
    "normal-form star5": "02158904d9740998af80d2f6170c796e880780f5fc159d1bc9c10e30fda28286",
    "normal-form K4 (2,3)": "9267c340fda71a6e443ddfc27b85b0fabfea18ce7f3c59b2ab250c68ef26f357",
    "fixed-points K4 (2,5)": "1a5b7a06f2f67cfaa7cfac6eff56cb1e41bd39e6bb3d15a0bf5d70424bb8a56b",
    "fixed-points non-ASCII names":
        "69e3b9b22e429d3a41446fd0326a6cfe8fae8439c787224948e6ba9a40d8f7a5",
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
