import json
import math
import os
import subprocess
import sys
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sensapprox
from sensapprox import funcspace, norms
from sensapprox.approx import ApproxRequest, Certificate, sensitize
from sensapprox.cli import (
    CorruptCertificate,
    _unpair,
    build_parser,
    certificate_to_dict,
    main,
    read_certificate,
    reconstruct_approximant,
    write_certificate,
)
from sensapprox.funcspace import StepFunction
from sensapprox.intervals import as_rational
from sensapprox.measures import BorelMeasure, MeasureSpecError, Normal, PiecewisePoly
from sensapprox.parsing import eval_target, eval_target_array, parse_measure, parse_target


def run_python(*args):
    """Run a fresh interpreter that imports this sensapprox."""
    src = os.path.dirname(os.path.dirname(sensapprox.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_cli(*args):
    """Run the CLI in a fresh interpreter, so a traceback shows on stderr."""
    return run_python("-m", "sensapprox.cli", *args)


def make_certificate(target="x", mu="uniform(0,1)", p=1, eps="1/4", M=2):
    req = ApproxRequest(
        target=parse_target(target),
        mu=BorelMeasure.from_spec(parse_measure(mu)),
        p=p, eps=Fraction(eps), M=Fraction(M),
    )
    return sensitize(req)


class TestCertificateRoundTrip:
    def test_reconstruction_matches(self, tmp_path):
        Y, cert = make_certificate()
        path = tmp_path / "cert.json"
        write_certificate(cert, path)
        data = read_certificate(path)
        Y2 = reconstruct_approximant(data)
        assert Y2.phi0.terms == Y.phi0.terms
        assert Y2.phi0.exceptions == Y.phi0.exceptions
        assert Y2.scale == Y.scale
        assert Y2.wave.b == Y.wave.b
        for x in (Fraction(1, 7), Fraction(1, 2), Fraction(-3, 5)):
            assert Y2.eval(x) == Y.eval(x)

    def test_slope_rederived_exactly(self, tmp_path):
        Y, cert = make_certificate(M=5, eps="1/10")
        path = tmp_path / "cert.json"
        write_certificate(cert, path)
        Y2 = reconstruct_approximant(read_certificate(path))
        assert Y2.min_abs_slope() == cert.min_abs_slope
        assert Y2.min_abs_slope() >= Fraction(6)

    def test_exact_rationals_serialized(self, tmp_path):
        _, cert = make_certificate()
        path = tmp_path / "cert.json"
        write_certificate(cert, path)
        raw = json.loads(path.read_text())
        assert raw["schema_version"] == "1"
        assert "/" in raw["scale"]
        assert "/" in raw["min_abs_slope"]

    def test_missing_field_rejected(self, tmp_path):
        _, cert = make_certificate()
        path = tmp_path / "cert.json"
        write_certificate(cert, path)
        raw = json.loads(path.read_text())
        del raw["scale"]
        path.write_text(json.dumps(raw))
        with pytest.raises(CorruptCertificate, match="scale"):
            read_certificate(path)

    def test_inconsistent_slope_rejected(self, tmp_path):
        _, cert = make_certificate()
        path = tmp_path / "cert.json"
        write_certificate(cert, path)
        raw = json.loads(path.read_text())
        raw["min_abs_slope"] = "1/1000"
        path.write_text(json.dumps(raw))
        with pytest.raises(CorruptCertificate, match="min_abs_slope"):
            reconstruct_approximant(read_certificate(path))


def _rows(*rows):
    """phi0 rows as a certificate's JSON holds them."""
    return [{"value": v, "lower": lo, "upper": hi} for v, lo, hi in rows]


ROWS = _rows(("1/8", "0/1", "1/4"), ("3/8", "1/4", "1/2"))


class TestCertificateDecoding:
    @pytest.mark.parametrize("phi0, exceptions, message", [
        (_rows(("1/8", "0/1", "1/3"), ("3/8", "1/4", "1/2")), [], "disjoint"),
        (ROWS[::-1], [], "sorted"),
        (_rows(("1/8", "1/4", "1/4")), [], "lo < hi"),
        (_rows(("1/8", "1/3", "1/4")), [], "lo < hi"),
        (ROWS, [{"point": "1/3", "value": "1/1"}, {"point": "2/6", "value": "2/1"}],
         "duplicate exception point 1/3"),
        (_rows((None, "0/1", "1/4")), [], "malformed"),
        (_rows((True, "0/1", "1/4")), [], "malformed"),
        (_rows(([1], "0/1", "1/4")), [], "malformed"),
        (_rows(("1/8", "0/1", "1//4")), [], "malformed"),
        (_rows(("1/8", "-Infinity", "1/4")), [], "malformed"),
        (ROWS, [{"point": "1/2/3", "value": "1/1"}], "malformed"),
    ])
    def test_bad_phi0_is_input_error(self, tmp_path, capsys, phi0, exceptions, message):
        _, cert = make_certificate()
        raw = certificate_to_dict(cert)
        raw["phi0"], raw["exceptions"] = phi0, exceptions
        out = tmp_path / "cert.json"
        # a bare -Infinity, which json reads as the float -inf
        out.write_text(json.dumps(raw).replace('"-Infinity"', "-Infinity"))
        for argv in (["verify", "--cert", str(out), "--samples", "1000"],
                     ["plot", "--cert", str(out), "--window=0:1", "--points", "5",
                      "--out", str(tmp_path / "p.csv")]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("text, want", [
        ("0.5", Fraction(1, 2)), ("-1/2", Fraction(-1, 2)), ("4/8", Fraction(1, 2)),
        (0.5, Fraction(1, 2)), (2, Fraction(2)), (" 3/4 ", Fraction(3, 4)),
        ("1e-1", Fraction(1, 10)), ("007/2", Fraction(7, 2)),
    ])
    def test_other_rational_forms_are_read_as_before(self, text, want):
        # as a value, and where it can be, as the end shared with ROWS
        end = text if want == Fraction(1, 2) else "1/2"
        _, cert = make_certificate()
        raw = certificate_to_dict(cert)
        raw["phi0"] = _rows((text, "0/1", "1/4"), ("3/8", "1/4", end), ("1/1", end, "1/1"))
        phi0 = reconstruct_approximant(json.loads(json.dumps(raw))).phi0
        assert Fraction(str(text)) == want
        canonical = StepFunction(terms=[(want, 0, Fraction(1, 4)),
                                        (Fraction(3, 8), Fraction(1, 4), Fraction(1, 2)),
                                        (1, Fraction(1, 2), 1)])
        assert phi0.terms == canonical.terms
        assert phi0.endpoints() == canonical.endpoints()
        assert np.array_equal(phi0._runs, canonical._runs)
        assert np.array_equal(phi0._pts_f, canonical._pts_f, equal_nan=True)

    def test_verify_builds_no_fractions_of_phi0(self, tmp_path, monkeypatch):
        Y, cert = make_certificate(target="x^2", mu="normal(0,1)")
        write_certificate(cert, tmp_path / "cert.json")
        fractions = _count_float_fractions(monkeypatch)
        Y2 = reconstruct_approximant(certificate_to_dict(cert))
        xs = np.linspace(-3, 3, 1001)
        assert np.array_equal(Y2.eval_arr(xs), Y.eval_arr(xs))
        assert main(["verify", "--cert", str(tmp_path / "cert.json"),
                     "--samples", "1000"]) == 0
        assert Y2.phi0.terms == Y.phi0.terms
        assert Y2.phi0.endpoints() == Y.phi0.endpoints()
        assert fractions == []


def _count_float_fractions(monkeypatch):
    """A list that collects every float argument of funcspace's calls to
    as_rational, each of which builds a Fraction of a float."""
    floats = []

    def counting(x):
        if isinstance(x, float):
            floats.append(x)
        return as_rational(x)
    monkeypatch.setattr(funcspace, "as_rational", counting)
    return floats


_point = st.fractions(min_value=-5, max_value=5, max_denominator=60)
_nonzero = st.fractions(min_value=-9, max_value=9, max_denominator=30).filter(bool)
# an exception of value 0 is kept inside a term and must read back
_exc_value = st.fractions(min_value=-9, max_value=9, max_denominator=30)


@st.composite
def finite_step_functions(draw):
    """Sorted disjoint terms over non-dyadic rational ends, shared ends and
    gaps included, and exceptions, of value 0 too, at ends, inside terms
    and elsewhere."""
    pts = sorted(set(draw(st.lists(_point, max_size=10))))
    terms = [(draw(_nonzero), lo, hi) for lo, hi in zip(pts, pts[1:]) if draw(st.booleans())]
    candidates = sorted(set(pts + [(2 * lo + hi) / 3 for _, lo, hi in terms]
                            + draw(st.lists(_point, max_size=3))))
    exc = draw(st.lists(st.sampled_from(candidates), unique=True)) if candidates else []
    return StepFunction(terms=terms, exceptions=[(p, draw(_exc_value)) for p in exc])


def _value_by_terms(phi0, x):
    """The value at x by the exceptions, then the terms, then 0."""
    for p, v in phi0.exceptions:
        if p == x:
            return v
    for v, lo, hi in phi0.terms:
        if lo < x < hi:
            return v
    return Fraction(0)


@settings(deadline=None, max_examples=150)
@given(finite_step_functions())
def test_eval_and_sup_norm_read_the_terms_and_exceptions(phi0):
    """eval reads the breakpoint table; it gives the value of the first
    exception at x, else of the term that holds x, else 0."""
    ends = list(phi0.endpoints())
    xs = ends + [p for p, _ in phi0.exceptions] + [(a + b) / 2 for a, b in zip(ends, ends[1:])]
    xs += [ends[0] - 1, ends[-1] + Fraction(1, 3)] if ends else [Fraction(0), Fraction(-7, 3)]
    for x in xs:
        assert phi0.eval(x) == _value_by_terms(phi0, x)
        assert type(phi0.eval(x)) is Fraction
    values = [v for v, _, _ in phi0.terms] + [v for _, v in phi0.exceptions]
    assert phi0.sup_norm() == max(map(abs, values), default=Fraction(0))


def _certificate_of(phi0, target_text="x"):
    return Certificate(
        target_text=target_text, measure_text="uniform(0,1)", p=1.0, eps=Fraction(1, 10),
        M=Fraction(1), b=40, scale=Fraction(1, 20), phi0=phi0, error_bound=0.05,
        error_method="triangle-chain", min_abs_slope=Fraction(2), sup_bound=Fraction(1),
        nondiff_count_in_window=0, window=(Fraction(-6), Fraction(6)),
        quadrature_tolerance=0.001,
    )


@settings(deadline=None, max_examples=150)
@given(finite_step_functions())
def test_certificate_round_trip_of_phi0(phi0):
    """A certificate's phi0 reads back as the same exact data and the same
    float arrays, bit for bit."""
    cert = _certificate_of(phi0)
    back = reconstruct_approximant(json.loads(json.dumps(certificate_to_dict(cert)))).phi0
    for name in ("_pts_f", "_region", "_point", "_runs"):
        assert np.array_equal(getattr(back, name), getattr(phi0, name), equal_nan=True)
    assert back.terms == phi0.terms
    assert back.exceptions == phi0.exceptions
    assert back.endpoints() == phi0.endpoints()


# numerators and denominators of every size: small, past 2^53, and past
# the float range, as powers of two too
_numerator = st.one_of(st.integers(-1000, 1000), st.integers(-2**70, 2**70),
                       st.integers(-2**1100, 2**1100))
_denominator = st.one_of(st.integers(1, 1000), st.integers(0, 1100).map(lambda e: 2**e),
                         st.integers(1, 2**1200))


@settings(deadline=None, max_examples=300)
@given(_numerator, _denominator, st.integers(1, 12))
def test_a_certificate_string_is_held_as_its_exact_number(n, d, k):
    """"n/d", unreduced by k, is held as the float n / d where that is
    exact and as Fraction(n, d) otherwise, once per distinct string; the
    float arrays hold the correctly rounded quotient n / d."""
    q = Fraction(n, d)
    text = f"{n * k}/{d * k}"
    seen = {}
    held = _unpair(text, seen)
    assert held == q and _unpair(text, seen) is held
    try:
        is_float = float(q) == q
    except OverflowError:
        is_float = False
    assert (type(held) is float) == is_float

    def phi0():
        return StepFunction(terms=[(held, held, _unpair(f"{(n + d) * k}/{d * k}", seen))],
                            exceptions=[(held, held)])
    try:
        f, f1 = n / d, (n + d) / d
    except OverflowError:  # no float array can hold it
        with pytest.raises(OverflowError):
            phi0()
        return
    if n:
        s = phi0()
        assert s._pts_f.tobytes() == np.array([f, f1, math.nan]).tobytes()
        assert s._runs.tobytes() == np.array([0.0, f, f, 0.0, 0.0]).tobytes()


def test_the_accessors_hand_back_the_held_numbers():
    """A float goes in and the same float comes out of terms, exceptions
    and endpoints(); a certificate's "3/10", which no float holds, comes
    back as a Fraction."""
    s = StepFunction(terms=[(1.5, 0.25, 0.5)], exceptions=[(0.375, -2.0)])
    held = s.terms[0] + s.exceptions[0] + s.endpoints()
    assert held == (1.5, 0.25, 0.5, 0.375, -2.0, 0.25, 0.375, 0.5)
    assert all(type(x) is float for x in held)
    raw = certificate_to_dict(_certificate_of(StepFunction()))
    raw["phi0"] = _rows(("1/1", "0/1", "3/10"))
    phi0 = reconstruct_approximant(raw).phi0
    assert phi0.terms == ((1.0, 0.0, Fraction(3, 10)),)
    assert [type(x) for x in phi0.terms[0]] == [float, float, Fraction]
    assert phi0.endpoints() == (0.0, Fraction(3, 10))


def test_a_negative_zero_is_held_as_zero():
    """A -0.0 end, value or exception point gives the float arrays of 0.0,
    with no sign bit, and is written as "0/1"."""
    def phi0(z):
        return StepFunction(terms=[(1.0, -1.0, z), (z, z, 0.5), (2.0, 0.5, 1.0)],
                            exceptions=[(z, 3.0), (0.75, z)])
    neg, pos = phi0(-0.0), phi0(0.0)
    for name in ("_pts_f", "_runs"):
        arr = getattr(neg, name)
        assert arr.tobytes() == getattr(pos, name).tobytes()
        assert not np.signbit(arr[arr == 0]).any()
    assert neg.eval(-0.0) == 3 and neg.eval_arr(0.75) == 0.0
    data = certificate_to_dict(_certificate_of(neg))
    assert data["phi0"] == _rows(("1/1", "-1/1", "0/1"), ("2/1", "1/2", "1/1"))
    assert data["exceptions"] == [{"point": "0/1", "value": "3/1"},
                                  {"point": "3/4", "value": "0/1"}]


def _unreduced_phi0():
    """A phi0 read back from rows whose strings are not in lowest terms."""
    raw = certificate_to_dict(make_certificate()[1])
    raw["phi0"] = _rows(("2/4", "0/3", "2/8"), ("-6/4", "2/8", "4/6"))
    raw["exceptions"] = [{"point": "3/9", "value": "0/3"}, {"point": "10/4", "value": "-4/2"}]
    return reconstruct_approximant(raw).phi0


class TestCertificateWriter:
    @pytest.mark.parametrize("make_phi0", [
        StepFunction,
        lambda: StepFunction(exceptions=[(Fraction(-1, 3), 2), (Fraction(5, 7), Fraction(-1, 9))]),
        lambda: StepFunction(terms=[(Fraction(-3, 2), -1, Fraction(-1, 2)),
                                    (Fraction(-1, 8), Fraction(-1, 2), 0), (2, 0, 1)],
                             exceptions=[(Fraction(-3, 4), 0), (Fraction(-1, 2), -5)]),
        lambda: make_certificate(target="x^2", mu="normal(0,1)", p=2, eps="1/50", M=0)[1].phi0,
        _unreduced_phi0,
    ], ids=["empty", "exceptions-only", "negative", "normal-1/50", "unreduced"])
    def test_bytes_equal_the_stdlib_encoder(self, tmp_path, make_phi0):
        phi0 = make_phi0()
        # quotes, a backslash, a newline that looks like a key line and a
        # non-ASCII letter in a string field go through json
        for text in ("x", 'x "\\ é\n  "phi0": []'):
            cert = _certificate_of(phi0, target_text=text)
            path = tmp_path / "cert.json"
            write_certificate(cert, path)
            want = json.dumps(certificate_to_dict(cert), indent=2, sort_keys=True) + "\n"
            assert path.read_bytes() == want.encode()

    def test_rows_are_written_in_lowest_terms(self, tmp_path):
        path = tmp_path / "cert.json"
        write_certificate(_certificate_of(_unreduced_phi0()), path)
        data = json.loads(path.read_text())
        assert data["phi0"] == _rows(("1/2", "0/1", "1/4"), ("-3/2", "1/4", "2/3"))
        # the exception of value 0 lies inside a term, so it is kept
        assert data["exceptions"] == [{"point": "1/3", "value": "0/1"},
                                      {"point": "5/2", "value": "-2/1"}]

    def test_sensitize_builds_no_fractions_of_phi0(self, tmp_path, monkeypatch):
        # the one Fraction of a held float is sup_norm's, for sup_bound
        fractions = _count_float_fractions(monkeypatch)
        _, cert = make_certificate(target="x^2", mu="mix(0.3*atom(0.5), 0.7*normal(0,1))",
                                   p=2, eps="1/25", M=0)
        write_certificate(cert, tmp_path / "cert.json")
        assert len(fractions) <= 1
        fractions.clear()
        assert main(["sensitize", "--target", "x^2", "--measure",
                     "mix(0.3*atom(0.5), 0.7*normal(0,1))", "--p", "2", "--eps", "1/25",
                     "--M", "0", "--out", str(tmp_path / "cli.json")]) == 0
        assert len(fractions) <= 1
        assert cert.phi0.exceptions == ((Fraction(1, 2), Fraction(1, 4)),)


class TestSensitizeCommand:
    def test_pipeline_and_verify_pass(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        rc = main([
            "sensitize", "--target", "x", "--measure", "uniform(0,1)",
            "--p", "1", "--eps", "1/4", "--M", "2", "--out", str(out),
        ])
        assert rc == 0
        assert "b=" in capsys.readouterr().out
        rc = main(["verify", "--cert", str(out),
                   "--samples", "200000", "--seed", "3"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_a_pole_at_a_density_kink_with_a_finite_moment(self, tmp_path, capsys):
        # log|x - 1/2| has a finite first moment against the tent; the
        # moment check takes the tent's kink at 1/2 as a knot, as norm does
        out = tmp_path / "cert.json"
        assert main(["sensitize", "--target", "log(abs(x-0.5))", "--measure",
                     "pwd(breaks(0,0.5,1), poly(0,4), poly(4,-4))", "--p", "1",
                     "--eps", "1/10", "--M", "0", "--out", str(out)]) == 0
        assert main(["verify", "--cert", str(out), "--samples", "100000"]) == 0
        assert capsys.readouterr().out.endswith("PASS\n")

    def test_a_threshold_past_the_float_range(self, tmp_path, capsys):
        # the moment check and the grid route take no knot or cell end at
        # 2^1024, which is past every float
        out = tmp_path / "cert.json"
        assert main(["sensitize", "--target", "if(x<2^1024,1,0)", "--measure",
                     "uniform(0,1)", "--p", "1", "--eps", "1/10", "--M", "0",
                     "--out", str(out)]) == 0
        assert main(["verify", "--cert", str(out), "--samples", "10000"]) == 0
        assert capsys.readouterr().out.endswith("PASS\n")

    def test_verify_on_measure_of_mass_two(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        rc = main([
            "sensitize", "--target", "x", "--measure", "mix(2*uniform(0,1), mass=2)",
            "--p", "1", "--eps", "1/10", "--M", "2", "--out", str(out),
        ])
        assert rc == 0
        capsys.readouterr()
        rc = main(["verify", "--cert", str(out),
                   "--samples", "200000", "--seed", "3"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("target, measure", [
        ("log(x)", "uniform(0,1)"),
        ("log(x-0.3)", "uniform(0.3,1)"),
        # undefined in the gap between the parts' supports; the second gap
        # is narrower than the first cells
        ("sqrt((x-1)*(x-2))", "mix(0.5*uniform(0,1), 0.5*uniform(2,3))"),
        ("log(abs(x-0.5)-0.003)", "mix(0.5*uniform(0,0.497), 0.5*uniform(0.503,1))"),
        # undefined where a pwd density is identically 0 inside its span
        ("sqrt((x-1)*(x-2))", "pwd(breaks(0,1,2,3), poly(0.5), poly(0), poly(0.5))"),
    ])
    def test_target_undefined_off_the_support(self, tmp_path, target, measure):
        # the step grid rounds the support out to dyadic cells, where the
        # target is undefined; it must only evaluate inside the support
        out = tmp_path / "cert.json"
        run = run_cli("sensitize", "--target", target, "--measure", measure,
                      "--p", "2", "--eps", "1/10", "--M", "1", "--out", str(out))
        assert run.returncode == 0, run.stderr
        run = run_cli("verify", "--cert", str(out), "--samples", "200000", "--seed", "3")
        assert run.returncode == 0, run.stderr
        assert "PASS" in run.stdout

    def test_huge_M_sensitizes_and_verifies(self, tmp_path, capsys):
        # b = 2*10^21 + 20: the window holds more lattice points than the
        # len() of a range can count
        out = tmp_path / "cert.json"
        assert main(["sensitize", "--target", "x", "--measure", "normal(0,1)", "--p", "1",
                     "--eps", "1/10", "--M", str(10**20), "--out", str(out)]) == 0
        assert read_certificate(out)["nondiff_count_in_window"] > 2**63
        capsys.readouterr()
        assert main(["verify", "--cert", str(out), "--samples", "200000", "--seed", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("eps, M", [("1e-400", "0"), ("1/10", "1e400")])
    def test_frequency_without_a_float_is_input_error(self, tmp_path, eps, M):
        # b = ceil(2 (M+1) / eps) is about 2*10^400, past the largest float
        out = tmp_path / "cert.json"
        run = run_cli("sensitize", "--target", "x", "--measure", "uniform(0,1)", "--p", "1",
                      "--eps", eps, "--M", M, "--out", str(out))
        assert run.returncode == 2, run.stderr
        assert run.stderr.startswith("error: frequency parameter of 13")
        assert run.stderr.count("\n") == 1 and not out.exists()

    def test_a_float_pin_is_its_exact_binary_value(self, tmp_path, capsys):
        # sin(0.3) is a float, pinned as n / 2^54, not as its shortest decimal
        out = tmp_path / "cert.json"
        assert main(["sensitize", "--target", "sin(x)",
                     "--measure", "mix(0.5*atom(0.3), 0.5*uniform(0,1))",
                     "--p", "1", "--eps", "1/10", "--M", "1", "--out", str(out)]) == 0
        value = "5323618770401843/18014398509481984"
        assert read_certificate(out)["exceptions"] == [{"point": "3/10", "value": value}]
        assert Fraction(value) == Fraction(eval_target(parse_target("sin(x)"), Fraction(3, 10)))
        capsys.readouterr()
        assert main(["verify", "--cert", str(out), "--samples", "200000", "--seed", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_an_exact_pin_past_the_size_limit_is_its_float(self, tmp_path, capsys):
        # (1/2)^20000 exactly has a denominator of 6021 digits, more than
        # Python prints; as a float it is 0, which phi0 takes there
        out = tmp_path / "cert.json"
        assert main(["sensitize", "--target", "x^20000",
                     "--measure", "mix(0.5*atom(0.5), 0.5*atom(0.3), 0.5*uniform(0,1))",
                     "--p", "1", "--eps", "1/10", "--M", "0", "--out", str(out)]) == 0
        assert read_certificate(out)["exceptions"] == []
        capsys.readouterr()
        assert main(["verify", "--cert", str(out), "--samples", "200000", "--seed", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("target, measure", [
        ("x+" + "1" * 4400, "uniform(0,1)"),
        ("x", "uniform(0," + "1" * 4400 + ")"),
    ], ids=["target", "measure"])
    def test_a_literal_with_too_many_digits_is_input_error(self, tmp_path, capsys, target,
                                                           measure):
        assert main(["sensitize", "--target", target, "--measure", measure, "--p", "1",
                     "--eps", "1/10", "--M", "0", "--out", str(tmp_path / "c.json")]) == 2
        assert capsys.readouterr().err.startswith("error: number has too many digits (offset ")

    def test_bad_target_is_input_error(self, tmp_path, capsys):
        rc = main([
            "sensitize", "--target", "x +", "--measure", "uniform(0,1)",
            "--p", "1", "--eps", "1/4", "--M", "2",
            "--out", str(tmp_path / "c.json"),
        ])
        assert rc == 2
        capsys.readouterr()

    def test_p_below_one_is_input_error(self, tmp_path, capsys):
        rc = main([
            "sensitize", "--target", "x", "--measure", "uniform(0,1)",
            "--p", "0.5", "--eps", "1/4", "--M", "2",
            "--out", str(tmp_path / "c.json"),
        ])
        assert rc == 2
        assert "p must satisfy" in capsys.readouterr().err

    def test_divergent_moment_is_hypothesis_error(self, tmp_path, capsys):
        rc = main([
            "sensitize", "--target", "exp(x^2)", "--measure", "normal(0,1)",
            "--p", "2", "--eps", "1/10", "--M", "1",
            "--out", str(tmp_path / "c.json"),
        ])
        assert rc == 4
        assert "hypothesis violation" in capsys.readouterr().err

    @pytest.mark.parametrize("measure", ["atom(0.5)", "mix(0.5*atom(0.5), 0.5*uniform(0,1))"])
    @pytest.mark.parametrize("command", ["sensitize", "norm"])
    def test_target_undefined_at_an_atom_is_hypothesis_error(self, tmp_path, command, measure):
        args = ["--target", "1/(x-0.5)", "--measure", measure, "--p", "1"]
        if command == "sensitize":
            args += ["--eps", "1/10", "--M", "1", "--out", str(tmp_path / "c.json")]
        run = run_cli(command, *args)
        assert run.returncode == 4, run.stderr
        assert run.stderr.startswith("hypothesis violation: ")
        assert "Traceback" not in run.stderr

    @pytest.mark.parametrize("target, measure", [
        ("1/(x-0.5)", "atom(0.5)"),
        ("log(x)", "normal(0,1)"),
        # the moment check's quadrature points miss float(0.3), which the
        # grid route bisects toward
        ("1/sqrt(abs(x-0.3))", "uniform(0,1)"),
    ], ids=["atom", "moment-check", "grid-route"])
    def test_target_that_cannot_be_evaluated_is_hypothesis_error(self, tmp_path, target,
                                                                  measure):
        out = tmp_path / "c.json"
        run = run_cli("sensitize", "--target", target, "--measure", measure, "--p", "1",
                      "--eps", "1/10", "--M", "0", "--out", str(out))
        assert run.returncode == 4, run.stderr
        assert run.stderr.startswith("hypothesis violation: ")
        assert run.stderr.count("\n") == 1 and "Traceback" not in run.stderr
        assert not out.exists()

    @pytest.mark.parametrize("target", ["if(x < sqrt(2)^1000000, 1, 0)",
                                        "if(x < 2^(1/2)*10^400, 1, 0)"])
    def test_threshold_past_the_float_range_at_an_atom(self, tmp_path, capsys, target):
        # the atom pin evaluates the threshold as inf, as the array path does
        out = tmp_path / "cert.json"
        assert main(["sensitize", "--target", target,
                     "--measure", "mix(0.5*atom(0.5), 0.5*uniform(0,1))",
                     "--p", "1", "--eps", "1/10", "--M", "0", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", "--cert", str(out), "--samples", "200000", "--seed", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_atom_pin_of_value_zero(self, tmp_path, capsys):
        # x - 0.3 is 0 at the atom, inside a cell of nonzero value
        out = tmp_path / "cert.json"
        assert main(["sensitize", "--target", "x-0.3",
                     "--measure", "mix(0.5*atom(0.3), 0.5*uniform(0,1))",
                     "--p", "1", "--eps", "1/10", "--M", "1", "--out", str(out)]) == 0
        data = read_certificate(out)
        assert data["exceptions"] == [{"point": "3/10", "value": "0/1"}]
        phi0 = reconstruct_approximant(data).phi0
        assert phi0.exceptions == ((Fraction(3, 10), 0),)
        assert phi0.eval(Fraction(3, 10)) == 0 and phi0.eval_arr(0.3) == 0.0
        assert StepFunction(terms=phi0.terms).eval(Fraction(3, 10)) != 0
        capsys.readouterr()
        assert main(["verify", "--cert", str(out), "--samples", "200000", "--seed", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("measure", [
        # one location listed twice is pinned once
        "mix(0.5*atom(0.3), 0.5*atom(0.3))",
        "mix(0.25*atom(0.3), 0.25*atom(0.3), 0.5*uniform(0,1))",
        # the atom and the cell end 1/2 are one float
        "mix(0.5*atom(0.50000000000000000001), 0.5*uniform(0,1))",
        "mix(0.5*atom(0.49999999999999999999), 0.5*uniform(0,1))",
    ])
    def test_awkward_atoms_sensitize_and_verify(self, tmp_path, capsys, measure):
        out = tmp_path / "cert.json"
        assert main(["sensitize", "--target", "x", "--measure", measure, "--p", "1",
                     "--eps", "1/10", "--M", "1", "--out", str(out)]) == 0
        assert len(read_certificate(out)["exceptions"]) == 1
        capsys.readouterr()
        assert main(["verify", "--cert", str(out), "--samples", "200000", "--seed", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_breakpoints_that_round_to_one_float(self, tmp_path):
        # 1/3 and the 21-digit threshold round to the float of the atom,
        # which the sorted draws of verify hit
        out = tmp_path / "cert.json"
        run = run_cli("sensitize", "--target",
                      "if(x > 0, if(x < 1/3, 1, if(x < 0.333333333333333333333, 2, 0)), 0)",
                      "--measure", "mix(0.5*atom(0.3333333333333333), 0.5*uniform(0,1))",
                      "--p", "1", "--eps", "1/10", "--M", "1", "--out", str(out))
        assert run.returncode == 0, run.stderr
        run = run_cli("verify", "--cert", str(out), "--samples", "200000", "--seed", "3")
        assert run.returncode == 0, run.stderr
        assert "PASS" in run.stdout


class TestVerifyCommand:
    def test_tampered_slope_fails(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        assert main([
            "sensitize", "--target", "0", "--measure", "uniform(0,1)",
            "--p", "1", "--eps", "1", "--M", "0", "--out", str(out),
        ]) == 0
        raw = json.loads(out.read_text())
        # claim a much larger M than the construction supports; keep the
        # stored slope consistent with scale*b so the file itself parses
        raw["request"]["M"] = "5/1"
        out.write_text(json.dumps(raw))
        rc = main(["verify", "--cert", str(out),
                   "--samples", "50000", "--seed", "0"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_tampered_eps_fails(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        assert main([
            "sensitize", "--target", "x", "--measure", "uniform(0,1)",
            "--p", "1", "--eps", "1/4", "--M", "2", "--out", str(out),
        ]) == 0
        raw = json.loads(out.read_text())
        raw["request"]["eps"] = "1/1000"
        out.write_text(json.dumps(raw))
        rc = main(["verify", "--cert", str(out),
                   "--samples", "50000", "--seed", "0"])
        assert rc == 1
        assert "MC distance" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["verify", "plot"])
    def test_frequency_without_a_float_is_input_error(self, tmp_path, command):
        out = tmp_path / "cert.json"
        assert main(["sensitize", "--target", "x", "--measure", "uniform(0,1)", "--p", "1",
                     "--eps", "1/10", "--M", "1", "--out", str(out)]) == 0
        # b = 10^400, with the stored slope kept at scale * b
        raw = json.loads(out.read_text())
        raw["b"] = 10**400
        raw["min_abs_slope"] = str(Fraction(raw["scale"]) * 10**400)
        out.write_text(json.dumps(raw))
        flags = {"verify": ["--samples", "1000"],
                 "plot": ["--window", "0:1", "--points", "10", "--out", str(tmp_path / "p.csv")]}
        run = run_cli(command, "--cert", str(out), *flags[command])
        assert run.returncode == 2, run.stderr
        assert run.stderr.startswith("error: malformed certificate field: frequency parameter")
        assert run.stderr.count("\n") == 1

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        rc = main(["verify", "--cert", str(tmp_path / "nope.json")])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("flags", [
        ["--samples", "10"], ["--samples", "-5"], ["--seed", "-1"],
        ["--samples", str(10**12)],
    ])
    def test_bad_sampling_flags_are_input_errors(self, tmp_path, flags):
        out = tmp_path / "cert.json"
        assert main([
            "sensitize", "--target", "0", "--measure", "uniform(0,1)",
            "--p", "1", "--eps", "1", "--M", "0", "--out", str(out),
        ]) == 0
        run = run_cli("verify", "--cert", str(out), *flags)
        assert run.returncode == 2
        assert run.stderr.startswith("error: ")
        assert "Traceback" not in run.stderr

    def test_out_of_memory_is_input_error(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "cert.json"
        assert main([
            "sensitize", "--target", "0", "--measure", "uniform(0,1)",
            "--p", "1", "--eps", "1", "--M", "0", "--out", str(out),
        ]) == 0
        capsys.readouterr()

        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(norms, "mc_norm", no_memory)
        assert main(["verify", "--cert", str(out), "--samples", "10000000"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: not enough memory to verify: the draws take "
                                "a few MB whatever --samples is\n")
        assert "Traceback" not in captured.err and "FAIL" not in captured.out

    def test_target_evaluation_failure_is_input_error(self, tmp_path):
        # log(x) is undefined at the atom at 0, where verify samples
        _, cert = make_certificate(mu="mix(0.5*atom(0), 0.5*uniform(0,1))")
        out = tmp_path / "cert.json"
        write_certificate(cert, out)
        raw = json.loads(out.read_text())
        raw["request"]["target"] = "log(x)"
        out.write_text(json.dumps(raw))
        run = run_cli("verify", "--cert", str(out), "--samples", "1000")
        assert run.returncode == 2
        assert run.stderr.startswith("error: ")
        assert "Traceback" not in run.stderr
        assert "FAIL" not in run.stdout

    @pytest.mark.parametrize("p", ["0", "-1", "0.5", "inf", "nan"])
    def test_certificate_p_out_of_range_is_input_error(self, tmp_path, capsys, p):
        out = tmp_path / "cert.json"
        assert main([
            "sensitize", "--target", "0", "--measure", "uniform(0,1)",
            "--p", "1", "--eps", "1", "--M", "0", "--out", str(out),
        ]) == 0
        raw = json.loads(out.read_text())
        raw["request"]["p"] = p
        out.write_text(json.dumps(raw))
        run = run_cli("verify", "--cert", str(out), "--samples", "1000")
        assert run.returncode == 2
        assert run.stderr.startswith("error: ")
        assert "Traceback" not in run.stderr
        capsys.readouterr()
        assert main(["plot", "--cert", str(out), "--window", "0:1",
                     "--points", "5", "--out", str(tmp_path / "p.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("where", ["value", "lower", "upper", "point", "scale"])
    def test_zero_denominator_in_certificate_is_input_error(self, tmp_path, where):
        _, cert = make_certificate()
        out = tmp_path / "cert.json"
        write_certificate(cert, out)
        raw = json.loads(out.read_text())
        if where == "scale":
            raw["scale"] = "1/0"
        elif where == "point":
            raw["exceptions"] = [{"point": "1/0", "value": "1/1"}]
        else:
            raw["phi0"][0][where] = "1/0"
        out.write_text(json.dumps(raw))
        for run in (run_cli("verify", "--cert", str(out), "--samples", "1000"),
                    run_cli("plot", "--cert", str(out), "--window=0:1",
                            "--points", "5", "--out", str(tmp_path / "p.csv"))):
            assert run.returncode == 2
            assert run.stderr.startswith("error: ")
            assert "Traceback" not in run.stderr


@pytest.mark.parametrize("break_it", [
    lambda raw: [1],
    lambda raw: {**raw, "request": "x"},
    lambda raw: {**raw, "request": {**raw["request"], "target": 5}},
    lambda raw: {**raw, "request": {**raw["request"], "measure": None}},
    lambda raw: {**raw, "request": {k: v for k, v in raw["request"].items() if k != "target"}},
    lambda raw: {**raw, "b": raw["b"] + 0.5},
    # with the stored slope kept at scale * b, for b read as 1
    lambda raw: {**raw, "b": True, "min_abs_slope": raw["scale"]},
], ids=["list", "request-string", "target-number", "measure-null", "no-target",
        "b-float", "b-bool"])
def test_malformed_certificate_is_input_error(tmp_path, capsys, break_it):
    _, cert = make_certificate()
    out = tmp_path / "cert.json"
    write_certificate(cert, out)
    out.write_text(json.dumps(break_it(json.loads(out.read_text()))))
    for argv in (["verify", "--cert", str(out), "--samples", "1000"],
                 ["plot", "--cert", str(out), "--window=0:1", "--points", "5",
                  "--out", str(tmp_path / "p.csv")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


# negative on about (0.0018, 0.0082), between the points of the grid that
# used to check pwd densities
NEGATIVE_PWD = "pwd(breaks(0,1,2), poly(0.0000375, -0.03, 3), poly(0.0149625))"


@pytest.mark.parametrize("argv", [
    ["norm", "--target", "x", "--measure", NEGATIVE_PWD, "--p", "1"],
    ["sensitize", "--target", "x", "--measure", NEGATIVE_PWD, "--p", "1",
     "--eps", "1/10", "--M", "1", "--out", "unused.json"],
])
def test_negative_pwd_density_is_input_error(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: pwd piece negative at x=")


@pytest.mark.parametrize("build, spec, kind", [
    (lambda: Normal(10**8, Fraction(1, 10**9)), "normal(100000000, 0.000000001)", "normal"),
    (lambda: PiecewisePoly((10**8, 10**8 + Fraction(1, 10**9)), ((10**9,),)),
     "pwd(breaks(100000000, 100000000.000000001), poly(1000000000))", "pwd"),
], ids=["normal", "pwd"])
def test_a_part_of_zero_float_width_is_input_error(tmp_path, capsys, build, spec, kind):
    # the part's spans round to one float, on whose zero-width hull the
    # grid route's dyadic cells used to pass the int64 range
    with pytest.raises(MeasureSpecError, match=f"^{kind} .* has no positive finite float$"):
        build()
    assert main(["sensitize", "--target", "x", "--measure", spec, "--p", "1", "--eps", "1/10",
                 "--M", "0", "--out", str(tmp_path / "cert.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {kind} ") and "Traceback" not in err


# the density 3(x - 10^8)^2 on (10^8, 10^8 + 1), whose floats in powers of x
# cancel to 0 and +-4
FAR_PWD = "pwd(breaks(100000000,100000001), poly(30000000000000000,-600000000,3))"


class TestPwdFarFromTheOrigin:
    def test_norm_of_one_is_the_mass(self, capsys):
        assert main(["norm", "--target", "1", "--measure", FAR_PWD, "--p", "1"]) == 0
        fields = dict(kv.split("=") for kv in capsys.readouterr().out.split())
        assert abs(float(fields["value"]) - 1.0) <= 1e-6

    def test_the_certificate_passes_verify(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        assert main(["sensitize", "--target", "sin(200*(x-100000000))", "--measure", FAR_PWD,
                     "--p", "1", "--eps", "1/10", "--M", "0", "--out", str(out)]) == 0
        bound = float(json.loads(out.read_text())["error_bound"])
        capsys.readouterr()
        assert main(["verify", "--cert", str(out)]) == 0
        text = capsys.readouterr().out
        assert text.endswith("PASS\n")
        fields = dict(kv.split("=") for kv in text.splitlines()[0].split())
        assert bound >= float(fields["mc_distance"]) - float(fields["radius"])


class TestOverflowingPower:
    """|X|^p or |X - Y|^p past the float range is inf: the quadrature and
    verify's check reject it, and numpy prints no warning on stderr."""

    @pytest.mark.parametrize("args", [
        ["norm", "--target", "x^400", "--measure", "normal(0,1)", "--p", "2"],
        ["sensitize", "--target", "exp(x)", "--measure", "normal(0,1)", "--p", "200",
         "--eps", "1/10", "--M", "0"],
    ], ids=["norm", "sensitize"])
    def test_is_a_hypothesis_violation(self, tmp_path, args):
        if args[0] == "sensitize":
            args = [*args, "--out", str(tmp_path / "c.json")]
        run = run_cli(*args)
        assert run.returncode == 4
        assert run.stderr.startswith("hypothesis violation: ")
        assert "Warning" not in run.stderr

    def test_verify_fails(self, tmp_path):
        _, cert = make_certificate(p=2, eps="1/10", M=0)
        out = tmp_path / "cert.json"
        write_certificate(cert, out)
        raw = json.loads(out.read_text())
        raw["request"]["target"] = "10*x"
        raw["request"]["p"] = "1000"
        out.write_text(json.dumps(raw))
        run = run_cli("verify", "--cert", str(out))
        assert run.returncode == 1
        assert "FAIL" in run.stdout
        assert "Warning" not in run.stderr


class TestNormCommand:
    def test_uniform_identity(self, capsys):
        rc = main(["norm", "--target", "x", "--measure", "uniform(0,1)",
                   "--p", "1", "--tol", "1e-9"])
        assert rc == 0
        out = capsys.readouterr().out
        value = float(out.split("value=")[1].split()[0])
        assert value == pytest.approx(0.5, abs=1e-8)

    def test_log_under_uniform_integrable(self, capsys):
        # integrable endpoint singularity: int_0^1 |log x| dx = 1
        rc = main(["norm", "--target", "log(x)", "--measure", "uniform(0,1)",
                   "--p", "1", "--tol", "1e-4"])
        assert rc == 0
        value = float(capsys.readouterr().out.split("value=")[1].split()[0])
        assert value == pytest.approx(1.0, abs=1e-2)

    @pytest.mark.parametrize("tol", ["1e-6", "1e-9"])
    def test_target_undefined_where_a_pwd_density_is_zero(self, capsys, tol):
        # (x-1)(x-2) < 0 on the cell (1, 2), where the density is 0; the
        # exact norm^2 is 2 * int_0^1 |(x-1)(x-2)| / 2 dx = 5/6
        rc = main(["norm", "--target", "sqrt((x-1)*(x-2))", "--measure",
                   "pwd(breaks(0,1,2,3), poly(0.5), poly(0), poly(0.5))",
                   "--p", "2", "--tol", tol])
        assert rc == 0
        out = capsys.readouterr().out
        value = float(out.split("value=")[1].split()[0])
        bound = float(out.split("bound=")[1].split()[0])
        exact = math.sqrt(5 / 6)
        assert abs(value - exact) <= float(tol)
        if tol == "1e-9":
            # at the default tolerance the Simpson pair of a quadratic reads
            # error 0, and the endpoint nudge leaves the value 1.4e-12 off
            assert abs(value - exact) <= bound

    @pytest.mark.parametrize("target, measure, exact", [
        ("if(x<0.3,1,0)", "uniform(0,1)", 0.3),
        ("if(x<0.3,x,2)", "exponential(1)", 1 + 0.7 * math.exp(-0.3)),
        ("if(x<1/3,1,0)", "uniform(0,1)", 1 / 3),
    ])
    def test_a_jump_at_an_if_threshold_is_a_knot(self, capsys, target, measure, exact):
        # the quadrature cuts its segments at the threshold, so no Simpson
        # segment straddles the jump there
        assert main(["norm", "--target", target, "--measure", measure, "--p", "1"]) == 0
        out = capsys.readouterr().out
        value = float(out.split("value=")[1].split()[0])
        bound = float(out.split("bound=")[1].split()[0])
        assert abs(value - exact) <= bound

    def test_a_threshold_past_the_float_range_is_no_knot(self, capsys):
        # 2^1024 is an exact threshold that no float holds; x < 2^1024 is
        # true on every float, so the indicator's norm is uniform's mass
        assert main(["norm", "--target", "if(x<2^1024,1,0)", "--measure",
                     "uniform(0,1)", "--p", "1"]) == 0
        out = capsys.readouterr().out
        value = float(out.split("value=")[1].split()[0])
        bound = float(out.split("bound=")[1].split()[0])
        assert abs(value - 1) <= bound

    def test_a_tolerance_whose_power_is_past_the_float_range(self):
        # tol^p is the quadrature's budget: 1e200^2 is inf, which every
        # segment meets, so the norm is read off the first Simpson pass
        run = run_cli("norm", "--target", "x", "--measure", "uniform(0,1)", "--p", "2",
                      "--tol", "1e200")
        assert run.returncode == 0 and run.stderr == ""
        value = float(run.stdout.split("value=")[1].split()[0])
        assert abs(value - 3**-0.5) <= 1e-6

    def test_divergent_is_hypothesis_error(self, capsys):
        rc = main(["norm", "--target", "exp(x^2)", "--measure", "normal(0,1)",
                   "--p", "2"])
        assert rc == 4
        capsys.readouterr()

    def test_infinite_p_is_input_error(self, capsys):
        rc = main(["norm", "--target", "x", "--measure", "uniform(0,1)",
                   "--p", "inf"])
        assert rc == 2
        capsys.readouterr()
        # a tolerance that is no positive finite number is rejected too
        for tol in ("nan", "inf", "0"):
            rc = main(["norm", "--target", "x", "--measure", "uniform(0,1)",
                       "--p", "1", "--tol", tol])
            assert rc == 2
            assert capsys.readouterr().err.startswith("error: tol must be positive")


class TestPlotCommand:
    def test_csv_contents_and_determinism(self, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        assert main([
            "sensitize", "--target", "0", "--measure", "uniform(0,1)",
            "--p", "1", "--eps", "1", "--M", "0", "--out", str(cert_path),
        ]) == 0
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            assert main(["plot", "--cert", str(cert_path),
                         "--window", "0:1", "--points", "5",
                         "--out", str(out)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().split("\n")
        assert lines[0] == "x,target,approximant"
        ys = [float(ln.split(",")[2]) for ln in lines[1:]]
        # eps=1, M=0 gives the half-scaled b=2 wave: 0, 1/4, 1/2, 1/4, 0
        assert ys == [0.0, 0.25, 0.5, 0.25, 0.0]
        nondiff = (tmp_path / "a.csv.nondiff").read_text().split()
        assert [float(v) for v in nondiff] == [0.5]

    def test_rows_follow_the_exact_values(self, tmp_path, capsys):
        # log(x) fails at x = 0 only, so that row's target alone is nan;
        # the grid i/32 and phi0's dyadic ends are exact floats
        cert_path = tmp_path / "cert.json"
        assert main(["sensitize", "--target", "log(x)", "--measure", "uniform(0,1)",
                     "--p", "2", "--eps", "1/10", "--M", "1", "--out", str(cert_path)]) == 0
        out = tmp_path / "c.csv"
        assert main(["plot", "--cert", str(cert_path), "--window=0:1", "--points", "33",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        Y = reconstruct_approximant(read_certificate(cert_path))
        grid = [Fraction(i, 32) for i in range(33)]
        rows = [[float(v) for v in ln.split(",")] for ln in out.read_text().splitlines()[1:]]
        assert [x for x, _, _ in rows] == [float(x) for x in grid]
        assert math.isnan(rows[0][1])
        for (_, t, y), xq in zip(rows, grid):
            if xq:
                assert t == pytest.approx(float(eval_target(parse_target("log(x)"), xq)),
                                          rel=1e-15)
            assert y == pytest.approx(float(Y.eval(xq)), rel=1e-15, abs=1e-15)
        nondiff = (tmp_path / "c.csv.nondiff").read_text().split()
        assert nondiff == [repr(float(p)) for p in Y.nondiff_points(0, 1)]

    def test_exact_value_past_the_float_range_is_nan(self, tmp_path, capsys):
        # 10^400 is exact in the row-by-row fallback, and no float
        cert_path = tmp_path / "cert.json"
        assert main(["sensitize", "--target", "if(x < 0.5, x, 10^400)",
                     "--measure", "uniform(0,0.5)", "--p", "1", "--eps", "1/10", "--M", "0",
                     "--out", str(cert_path)]) == 0
        out = tmp_path / "c.csv"
        assert main(["plot", "--cert", str(cert_path), "--window=0:1", "--points", "5",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        targets = [float(ln.split(",")[1]) for ln in out.read_text().splitlines()[1:]]
        assert targets[:2] == [0.0, 0.25] and all(map(math.isnan, targets[2:]))

    def test_fallback_rows_are_the_array_values(self, tmp_path, capsys):
        # log(x) fails at x = 0 only; every other row's target is the
        # float evaluator's exp(x), which the exact evaluator does not
        # always match in the last bits
        target = "if(x > 0, exp(x), log(x))"
        cert_path = tmp_path / "cert.json"
        assert main(["sensitize", "--target", target, "--measure", "uniform(0,1)",
                     "--p", "1", "--eps", "1/10", "--M", "0", "--out", str(cert_path)]) == 0
        out = tmp_path / "c.csv"
        assert main(["plot", "--cert", str(cert_path), "--window=0:1", "--points", "1000",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        f = parse_target(target)
        rows = [[float(v) for v in ln.split(",")] for ln in out.read_text().splitlines()[1:]]
        assert math.isnan(rows[0][1])
        for x, t, _ in rows[1:]:
            assert t == eval_target_array(f, np.array([x]))[0]

    def test_bad_window_is_input_error(self, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        assert main([
            "sensitize", "--target", "0", "--measure", "uniform(0,1)",
            "--p", "1", "--eps", "1", "--M", "0", "--out", str(cert_path),
        ]) == 0
        capsys.readouterr()
        # an empty window, 4*10^5 lattice points (b = 2), too many rows
        for window, points in (("1:0", "5"), ("-100000:100000", "5"),
                               ("0:1", "100000000")):
            rc = main(["plot", "--cert", str(cert_path), f"--window={window}",
                       "--points", points, "--out", str(tmp_path / "c.csv")])
            assert rc == 2
            assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("window", ["1/0:2", "0:1/0"])
    def test_zero_denominator_window_is_input_error(self, tmp_path, window):
        cert_path = tmp_path / "cert.json"
        assert main([
            "sensitize", "--target", "0", "--measure", "uniform(0,1)",
            "--p", "1", "--eps", "1", "--M", "0", "--out", str(cert_path),
        ]) == 0
        run = run_cli("plot", "--cert", str(cert_path), f"--window={window}",
                      "--points", "5", "--out", str(tmp_path / "c.csv"))
        assert run.returncode == 2
        assert run.stderr.startswith("error: ")
        assert "Traceback" not in run.stderr


ZEROS = "0" * 400
NESTED = "(" * 5000 + "x" + ")" * 5000
SENSITIZE = ["sensitize", "--target", "x", "--measure", "uniform(0,1)", "--p", "1",
             "--eps", "1/10", "--M", "1"]


@pytest.mark.parametrize("argv", [
    SENSITIZE + ["--out", "/nonexistent/c.json"],
    SENSITIZE + ["--out", ""],
    SENSITIZE + ["--out", "{tmp}"],
    ["plot", "--cert", "{cert}", "--window=0:1", "--points", "5",
     "--out", "/nonexistent/p.csv"],
    ["verify", "--cert", "{eps}", "--samples", "1000"],
    ["verify", "--cert", "{M}", "--samples", "1000"],
    ["norm", "--target", "x", "--measure", f"uniform(0,1{ZEROS})", "--p", "1"],
    ["sensitize", "--target", "x", "--measure", f"exponential(0.{ZEROS}1)", "--p", "1",
     "--eps", "1/10", "--M", "1", "--out", "unused.json"],
    ["sensitize", "--target", NESTED, "--measure", "uniform(0,1)", "--p", "1",
     "--eps", "1/10", "--M", "1", "--out", "unused.json"],
    ["norm", "--target", NESTED, "--measure", "uniform(0,1)", "--p", "1"],
], ids=["out-missing-dir", "out-empty", "out-directory", "plot-out-missing-dir",
        "verify-eps-1e400", "verify-M-1e400", "norm-no-float", "sensitize-no-float",
        "sensitize-nested", "norm-nested"])
def test_input_that_no_command_handles_is_input_error(tmp_path, argv):
    _, cert = make_certificate()
    files = {"tmp": tmp_path, "cert": tmp_path / "cert.json"}
    write_certificate(cert, files["cert"])
    for key in ("eps", "M"):
        raw = json.loads(files["cert"].read_text())
        raw["request"][key] = "1e400"
        files[key] = tmp_path / f"{key}.json"
        files[key].write_text(json.dumps(raw))
    run = run_cli(*[arg.format(**files) for arg in argv])
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("error: ")
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("argv, name", [
    (["norm", "--target", "x", "--measure", f"uniform(0,1{ZEROS})", "--p", "1"],
     "uniform bound has no finite float"),
    (SENSITIZE[:4] + [f"atom(1{ZEROS})"] + SENSITIZE[5:] + ["--out", "unused.json"],
     "atom location has no finite float"),
    (SENSITIZE[:4] + [f"exponential(0.{ZEROS}1)"] + SENSITIZE[5:] + ["--out", "unused.json"],
     "exponential rate has no positive finite float"),
    (SENSITIZE[:4] + [f"normal(0,0.{ZEROS}1)"] + SENSITIZE[5:] + ["--out", "unused.json"],
     "normal stddev has no positive finite float"),
    (SENSITIZE[:4] + [f"mix(1{ZEROS}*uniform(0,1), mass=1{ZEROS})"] + SENSITIZE[5:]
     + ["--out", "unused.json"], "mix weight has no finite float"),
    (SENSITIZE[:8] + ["1e400"] + SENSITIZE[9:] + ["--out", "unused.json"],
     "request eps has no finite float"),
    (["verify", "--cert", "{eps}", "--samples", "1000"], "certificate field request.eps"),
    (["verify", "--cert", "{M}", "--samples", "1000"], "certificate field request.M"),
], ids=["uniform-bound", "atom-location", "exponential-rate", "normal-stddev",
        "mix-weight", "sensitize-eps", "verify-eps", "verify-M"])
def test_a_number_with_no_float_is_named_in_its_error(tmp_path, capsys, argv, name):
    _, cert = make_certificate()
    write_certificate(cert, tmp_path / "cert.json")
    files = {}
    for key in ("eps", "M"):
        raw = json.loads((tmp_path / "cert.json").read_text())
        raw["request"][key] = "1e400"
        files[key] = tmp_path / f"{key}.json"
        files[key].write_text(json.dumps(raw))
        # plot needs no float of eps or M
        assert main(["plot", "--cert", str(files[key]), "--window=0:1", "--points", "5",
                     "--out", str(tmp_path / "p.csv")]) == 0
    capsys.readouterr()
    assert main([arg.format(**files) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err


def test_cli_import_leaves_scipy_out():
    run = run_python("-c", "import sys, sensapprox.cli; print('scipy' in sys.modules)")
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


def test_public_api_is_all():
    # a stale or duplicate __all__ entry, or a public name left out of it
    public = {name for name, value in vars(sensapprox).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(set(sensapprox.__all__)) == len(sensapprox.__all__)
    assert public == set(sensapprox.__all__)


def test_main_builds_the_parser_once():
    assert build_parser() is build_parser()
    first = build_parser().parse_args(["norm", "--target", "x", "--measure", "u",
                                       "--p", "1", "--tol", "1e-3"])
    second = build_parser().parse_args(["norm", "--target", "y", "--measure", "u",
                                        "--p", "2"])
    assert (first.target, first.p, first.tol) == ("x", "1", "1e-3")
    assert (second.target, second.p, second.tol) == ("y", "2", "1e-6")
