"""End-to-end acceptance suite.

Each criterion prints a single PASS/FAIL line on the real stdout so the
gate is readable straight from the pytest log.
"""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from sensapprox.approx import ApproxRequest, sensitize
from sensapprox.cli import main, read_certificate, reconstruct_approximant
from sensapprox.funcspace import build_zigzag
from sensapprox.measures import BorelMeasure
from sensapprox.norms import lp_norm, mc_norm
from sensapprox.parsing import parse_measure, parse_target, target_evaluator

from paper_route import (
    Interval,
    IntervalUnion,
    approximate_borel_set,
    measure_of,
    open_interval,
    truncate_union,
)


_CAPMAN = None


@pytest.fixture(autouse=True)
def _expose_capture_manager(request):
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {number} {name}: {status}{suffix}"
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


def measure(text):
    return BorelMeasure.from_spec(parse_measure(text))


TARGETS = ["0", "x", "x^2", "if(x<0.5, if(x>0, 1, 0), 0)"]
MEASURES = [
    "uniform(0,1)",
    "normal(0,1)",
    "mix(0.5*atom(0), 0.5*uniform(0,1))",
]
GRID = [
    (t, m, p, eps, M)
    for t in TARGETS
    for m in MEASURES
    for p in ("1", "2")
    for eps in ("1/2", "1/10")
    for M in ("0", "10")
]


@pytest.fixture(scope="session")
def witness_certs(tmp_path_factory):
    """Certificates for the full theorem-witness grid, built via the CLI."""
    root = tmp_path_factory.mktemp("certs")
    out = []
    for i, (t, m, p, eps, M) in enumerate(GRID):
        path = root / f"cert_{i}.json"
        rc = main(["sensitize", "--target", t, "--measure", m,
                   "--p", p, "--eps", eps, "--M", M, "--out", str(path)])
        assert rc == 0, f"sensitize failed for case {(t, m, p, eps, M)}"
        out.append(((t, m, p, eps, M), path))
    return out


def test_criterion_1_theorem_witness_grid(witness_certs):
    failures = []
    for case, path in witness_certs:
        rc = main(["verify", "--cert", str(path),
                   "--samples", "1000000", "--seed", "42"])
        if rc != 0:
            failures.append(case)
    report(1, "theorem-witness grid",
           not failures, f"{len(witness_certs) - len(failures)}/{len(witness_certs)} verified")
    assert not failures, f"verification failed for {failures}"


def test_criterion_2_exact_sensitivity(witness_certs):
    failures = []
    for case, path in witness_certs:
        data = read_certificate(path)
        Y = reconstruct_approximant(data)
        stored = Fraction(data["min_abs_slope"])
        M = Fraction(data["request"]["M"])
        if Y.min_abs_slope() != stored:
            failures.append((case, "re-derived slope differs"))
        if stored != Y.scale * Y.wave.b:
            failures.append((case, "slope != scale*b"))
        if stored < M + 1:
            failures.append((case, "slope below M+1"))
    report(2, "exact sensitivity", not failures,
           f"{len(witness_certs)} certificates, zero tolerance")
    assert not failures, failures


def test_criterion_3_zigzag_formula():
    rng = np.random.default_rng(2024)
    failures = 0
    for _ in range(1000):
        eps = Fraction(int(rng.integers(1, 1000)), int(rng.integers(1, 1000)))
        M = Fraction(int(rng.integers(0, 1000)), int(rng.integers(1, 100)))
        got = build_zigzag(eps, M).b
        # independent oracle: ceiling of an integer quotient
        q = 2 * (M + 1) / eps
        want = -((-q.numerator) // q.denominator)
        if got != want:
            failures += 1
    report(3, "zigzag frequency formula", failures == 0,
           f"{1000 - failures}/1000 random rational pairs")
    assert failures == 0


def _random_union(rng):
    ivs = []
    for _ in range(int(rng.integers(1, 5))):
        a = Fraction(int(rng.integers(-40, 40)), 16)
        w = Fraction(int(rng.integers(1, 32)), 16)
        ivs.append(Interval(a, bool(rng.integers(0, 2)),
                            a + w, bool(rng.integers(0, 2))))
    return IntervalUnion(ivs)


def test_criterion_4_outer_regularity():
    rng = np.random.default_rng(7)
    mus = [measure(m) for m in MEASURES]
    unions = [_random_union(rng) for _ in range(200)]
    checked = 0
    failures = 0
    for B in unions:
        for mu in mus:
            for p in (1, 2):
                for tol in (0.1, 0.01):
                    V = approximate_borel_set(B, mu, p, tol)
                    checked += 1
                    ok = (V.superset_of(B) and V.all_open()
                          and measure_of(mu, V.difference(B)) < tol ** p)
                    if not ok:
                        failures += 1
    report(4, "outer regularity", failures == 0,
           f"{checked - failures}/{checked} union/measure/p/tol combinations")
    assert failures == 0


def test_criterion_5_tail_truncation():
    uniform = measure("uniform(0,1)")
    ivs = [open_interval(Fraction(1, 2 ** (j + 1)), Fraction(1, 2 ** j))
           for j in range(200)]
    tols = [Fraction(1, 2) ** k for k in range(1, 6)]
    tols += [Fraction(3, 10), Fraction(1, 10), Fraction(7, 100),
             Fraction(1, 100), Fraction(9, 1000)]
    cases = [(tol, p) for tol in tols for p in (1, 2)]
    assert len(cases) == 20
    failures = []
    for tol, p in cases:
        got = len(truncate_union(ivs, Fraction(1), uniform, p,
                                 float(tol), cap=1000))
        # oracle: minimal N with 2^-N < tol^p, by exact rational search
        threshold = tol ** p
        want = 0
        while Fraction(1, 2) ** want >= threshold:
            want += 1
        if got != want:
            failures.append((tol, p, got, want))
    report(5, "tail truncation minimality", not failures,
           f"{20 - len(failures)}/20 tolerance cases vs geometric oracle")
    assert not failures, failures


NORM_CORPUS = [
    ("x", "uniform(0,1)", 1),
    ("x", "uniform(0,1)", 2),
    ("x^2", "uniform(0,1)", 1),
    ("x^2", "uniform(0,1)", 2),
    ("sin(x)", "uniform(0,1)", 1),
    ("cos(x)", "uniform(0,1)", 2),
    ("exp(-x^2)", "uniform(0,1)", 1),
    ("abs(x - 0.5)", "uniform(0,1)", 2),
    ("sqrt(abs(x))", "uniform(0,1)", 1),
    ("1 + 2*x - x^3", "uniform(0,1)", 2),
    ("min(x, 0.5) * max(x, 0)", "uniform(0,1)", 1),
    ("if(x <= 0.25, x, if(x >= 0.75, 1 - x, 0.5))", "uniform(0,1)", 2),
    ("x", "normal(0,1)", 1),
    ("x", "normal(0,1)", 2),
    ("x^2", "normal(0,1)", 1),
    ("x^2", "normal(0,1)", 2),
    ("abs(x)", "normal(0,1)", 1),
    ("sin(x)", "normal(0,1)", 2),
    ("exp(-x^2)", "normal(0,1)", 2),
    ("if(x < 0, -1, 1)", "normal(0,1)", 1),
    ("(x + 1) / (x^2 + 1)", "normal(0,1)", 2),
    ("x^3", "normal(0,1)", 1),
    ("x", "mix(0.5*atom(0), 0.5*uniform(0,1))", 1),
    ("x^2 + 1", "mix(0.5*atom(0), 0.5*uniform(0,1))", 2),
    ("abs(x - 0.5)", "mix(0.5*atom(0), 0.5*uniform(0,1))", 1),
    ("cos(x)", "mix(0.5*atom(0), 0.5*uniform(0,1))", 2),
    ("x", "exponential(1)", 1),
    ("exp(-x)", "exponential(1)", 2),
    ("x", "pwd(breaks(0,1), poly(0,2))", 1),
    ("x^2", "pwd(breaks(0,1), poly(0,2))", 2),
]


def test_criterion_6_norm_oracle_agreement():
    assert len(NORM_CORPUS) == 30
    disagreements = []
    for i, (t, m, p) in enumerate(NORM_CORPUS):
        f = target_evaluator(parse_target(t))
        mu = measure(m)
        quad = lp_norm(f, mu, p, tol=1e-6,
                       knots=[float(k) for k in mu.density_breakpoints()])
        mc = mc_norm(f, mu, p, n=10**6, seed=100 + i)
        gap = abs(quad.value - mc.value)
        allowance = quad.absolute_error_bound + mc.absolute_error_bound
        if gap > allowance:
            disagreements.append((t, m, p, gap, allowance))
    ok = len(disagreements) <= 1  # one MC 4-sigma exception permitted
    report(6, "norm oracle agreement", ok,
           f"{30 - len(disagreements)}/30 within combined bounds")
    assert ok, disagreements


def test_criterion_7_nondiff_structure(witness_certs):
    failures = []
    lo, hi = Fraction(-2), Fraction(2)
    for case, path in witness_certs:
        Y = reconstruct_approximant(read_certificate(path))
        pts = Y.nondiff_points(lo, hi)
        expected = {e for e in Y.phi0.endpoints() if lo < e < hi}
        expected |= set(Y.wave.lattice_points(lo, hi))
        if pts != sorted(expected):
            failures.append((case, "set mismatch"))
            continue
        gaps = [b - a for a, b in zip(pts, pts[1:])]
        if gaps and min(gaps) <= 0:
            failures.append((case, "non-positive gap"))
    report(7, "non-differentiability structure", not failures,
           f"{len(witness_certs)} approximants on (-2, 2), zero tolerance")
    assert not failures, failures


def test_criterion_8_convergence():
    expected = {Fraction(2, 5): 10, Fraction(1, 5): 20,
                Fraction(1, 10): 40, Fraction(1, 20): 80}
    got = {}
    failures = []
    for eps, want_b in expected.items():
        req = ApproxRequest(target=parse_target("x^2"),
                            mu=measure("normal(0,1)"),
                            p=2, eps=eps, M=Fraction(1))
        _, cert = sensitize(req)
        got[eps] = cert.b
        if cert.b != want_b or cert.error_bound >= float(eps):
            failures.append((eps, cert.b, cert.error_bound))
    bs = [got[e] for e in sorted(expected, reverse=True)]
    if bs != sorted(bs):
        failures.append(("b not nondecreasing", bs))
    report(8, "convergence under shrinking eps", not failures,
           f"b = {bs} for eps = [2/5, 1/5, 1/10, 1/20]")
    assert not failures, failures


def test_criterion_9_hypothesis_rejection(tmp_path):
    results = []
    for p in ("0.5", "inf"):
        rc = main(["sensitize", "--target", "x", "--measure", "uniform(0,1)",
                   "--p", p, "--eps", "1/4", "--M", "1",
                   "--out", str(tmp_path / "c.json")])
        results.append((f"p={p}", rc, 2))
    rc = main(["sensitize", "--target", "exp(x^2)", "--measure", "normal(0,1)",
               "--p", "2", "--eps", "1/10", "--M", "1",
               "--out", str(tmp_path / "c.json")])
    results.append(("exp(x^2) moment", rc, 4))
    failures = [r for r in results if r[1] != r[2]]
    report(9, "hypothesis rejection", not failures,
           "exit codes " + ", ".join(f"{n}->{rc}" for n, rc, _ in results))
    assert not failures, failures
