"""`fixed-points` and `poincare` output pinned byte for byte.

`fixed-points` is pinned in every format that prints rows: generic K4 (2,5)
with the existence filter off, whose classes include ones with no stable
lift, and K3 (2,3) under rank-2 weights, whose attractor sides come from a
one-parameter subgroup.  The digests were recorded before characters were
encoded as integers inside the kernels, so they also pin the decoding of
every character at the report boundary.  The K4 ones were recorded again
when its rejected rows became exactly the classes the existence filter
drops: 12 rows shown as valid before turned invalid, every invalid row took
the one text `no stable lift`, and every other byte stayed.
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
    ("K4 (2,5) filter off", "json"): "c87503c5eafe49bf9d57935e3f19c7161abb4605df082927e58439e10ec071bb",
    ("K4 (2,5) filter off", "csv"): "5e1df1a040c2adbdfc2348c84e05621cee5da08f3cdbf8c7610ad1119e863494",
    ("K4 (2,5) filter off", "text"): "13ee355cdb3af49c3769b9c7380e4ea4727f6c6539099267cfa43e04d53fcb26",
    ("K3 (2,3) rank 2", "json"): "b79981b5427095f71deb74a29bc51f5353833e16e5bb2eaf6799f3e22728ab09",
    ("K3 (2,3) rank 2", "csv"): "bbbbfd834e4ee916798e641bd6ab82faeec5792500cd65de88e9db39d17ed3af",
    ("K3 (2,3) rank 2", "text"): "2e9f29164381e2f2c8bd86ac86f098895ed29fcdf7a44fc210591d3e2aa2c2fc",
    ("K3 (2,3) poincare", "text"): "30624f55c54e3bf71bcd1497370407c8a65c497b34828b3035a0d9b682462bc6",
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
