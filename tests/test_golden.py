"""Golden certificates: sensitize must reproduce the stored files.

Every field must match exactly (as the string or number stored), except
error_bound, a float sum that may move in its last bits, which must
agree within a relative 1e-12. The cases use uniform, pwd and atom
measures only, so the expected values depend on IEEE arithmetic alone.
"""

import json
import math
from pathlib import Path

import pytest

from sensapprox.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

# file stem -> (target, measure, p, eps, M)
CASES = {
    "square_uniform": ("x^2", "uniform(0,1)", "2", "1/10", "3"),
    "sqrt_pwd": ("sqrt(x)", "pwd(breaks(0,1), poly(0,2))", "1", "1/10", "1"),
    "indicator_atom": ("if(x<0.5, if(x>0, 1, 0), 0)",
                       "mix(0.5*atom(0.25), 0.5*uniform(0,1))", "1", "1/10", "1"),
    "sqrt2_threshold": ("if(x < sqrt(2), if(x > 0, 1, 0), 0)",
                        "mix(0.5*uniform(0,2), 0.5*atom(1.4142135623730951))",
                        "1", "1/10", "1"),
    "identity_mass_two": ("x", "mix(2*uniform(0,1), mass=2)", "2", "1/10", "3"),
    # the only case with two continuous parts, whose knots and tail rings
    # must not mix
    "square_two_parts": ("x^2", "mix(0.5*uniform(0,1), 0.5*pwd(breaks(1,2), poly(-2,2)))",
                         "2", "1/10", "1"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_certificate_matches_golden(name, tmp_path, capsys):
    target, measure, p, eps, M = CASES[name]
    out = tmp_path / "cert.json"
    assert main(["sensitize", "--target", target, "--measure", measure,
                 "--p", p, "--eps", eps, "--M", M, "--out", str(out)]) == 0
    capsys.readouterr()
    got = json.loads(out.read_text())
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    assert sorted(got) == sorted(want)
    for key in want:
        if key == "error_bound":
            assert math.isclose(float(got[key]), float(want[key]), rel_tol=1e-12)
        else:
            assert got[key] == want[key], key
