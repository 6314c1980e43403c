"""Golden certificates: sensitize must reproduce the stored files.

Every field must match exactly (as the string or number stored), except
error_bound, a float sum that may move in its last bits, which must
agree within a relative 1e-12. The cases use uniform, pwd and atom
measures only, so the expected values depend on IEEE arithmetic alone.
Two goldens whose phi0 the grid route refines are also held to phi0's
share of error_bound by the exact ||X - c - phi0||_p, taken with mpmath
at 30 digits, c being the constant that phi0 takes of the wave's mean.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from sensapprox.approx import wave_centre
from sensapprox.cli import main, read_certificate
from sensapprox.norms import wave_norm_bound

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


# file stem -> (the target in mpmath, its inverse on the support, and
# mu's parts as (weight, density, lo, hi)) for two goldens whose phi0 the
# grid route refines until it nearly meets its share of eps
EXACT = {
    "sqrt_pwd": (mpmath.sqrt, lambda v: v * v, [(1, lambda x: 2 * x, 0, 1)]),
    "square_two_parts": (lambda x: x * x, lambda v: mpmath.sqrt(max(v, 0)),
                         [(0.5, lambda x: 1, 0, 1), (0.5, lambda x: 2 * x - 2, 1, 2)]),
}


def exact_phi0_distance(name, centre):
    """||X - centre - phi0||_p of a golden certificate at 30 digits:
    mpmath.quad between phi0's knots and mu's breaks, each cell split where
    the target crosses centre plus phi0's value there, so that every
    integrand is smooth."""
    cert = read_certificate(GOLDEN / f"{name}.json")
    f, inverse, parts = EXACT[name]
    phi0, p = cert.approximant.phi0, cert.request.p
    assert not phi0.exceptions
    with mpmath.workdps(30):
        total = mpmath.mpf(0)
        for w, pdf, lo, hi in parts:
            knots = sorted({Fraction(lo), Fraction(hi)}
                           | {Fraction(e) for e in phi0.endpoints() if lo < e < hi})
            for a, b in zip(knots, knots[1:]):
                v = centre + phi0.eval((a + b) / 2)
                a, b, v = (mpmath.mpf(q.numerator) / q.denominator for q in (a, b, v))
                cuts = [a] + [c for c in [inverse(v)] if a < c < b] + [b]
                total += w * mpmath.quad(lambda x: abs(f(x) - v) ** p * pdf(x), cuts)
        return cert, total ** (1 / mpmath.mpf(p))


@pytest.mark.parametrize("name", sorted(EXACT))
def test_phi0_share_of_the_bound_holds_at_30_digits(name):
    # phi0's share of error_bound, what the wave term scale ||wave - 1/2||_p
    # and the offset ||c - scale/2||_p leave of it, is at least the exact
    # ||X - c - phi0||_p, with c as sensitize takes it
    cert = read_certificate(GOLDEN / f"{name}.json")
    req, Y = cert.request, cert.approximant
    assert (req.target.source_text, req.mu.source_text) == CASES[name][:2]
    bound = wave_norm_bound(Y.wave, req.mu, req.p)
    c, offset = wave_centre(req, Y.scale, float(req.eps) - req.quadrature_tolerance
                            - float(Y.scale) * bound)
    share = Fraction(cert.error_bound) - Y.scale * Fraction(bound) - offset
    _, distance = exact_phi0_distance(name, c)
    assert mpmath.mpf(share.numerator) / share.denominator >= distance
