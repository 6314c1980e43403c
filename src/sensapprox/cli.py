"""Command-line surface: sensitize, verify, norm, plot.

Exit codes: 0 success/PASS, 1 verification FAIL, 2 input error (p out
of range, or a wave frequency b >= 2^1024 - 2^970, which has no float),
3 pipeline budget exhausted, 4 hypothesis violation (a numerically
diverging moment, or a target that sensitize or norm cannot evaluate
where the measure has mass).

Certificate files are JSON, schema_version "1". Quantities that must be
exact (scale, min_abs_slope, sup_bound, breakpoints) are "num/den"
rational strings; measured quantities are shortest round-trip decimals.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import approx, norms
from .funcspace import SensitiveApproximant, StepFunction, TriangleWave
from .intervals import uniform_grid_floats
from .measures import BorelMeasure
from .parsing import (
    EvaluationError,
    MeasureSpecError,
    ParseError,
    eval_target,
    eval_target_array,
    parse_measure,
    parse_target,
    target_evaluator,
)

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_HYPOTHESIS = 4

# most rows, and most non-differentiability points, that plot writes
MAX_PLOT_POINTS = 10**5
# most Monte Carlo draws that verify takes. The draws go through one
# reused block, so this bounds the time of a verify, not its memory: at
# 10^7 draws, a verify of x^2 | normal(0,1) (p=2, eps=1/10, M=5) takes
# 0.6-0.7 s and peaks at 112 968 KiB of address space (VmPeak) and 40 MB
# resident, 1 204 KiB and 2 MB over its peaks at 10^3 draws (2 vCPU,
# Python 3.11, numpy 2.4)
MAX_VERIFY_SAMPLES = 10**7


def _rat(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def _pair(num) -> str:
    """An integer pair (n, d), d > 0, as "n/d" in lowest terms, as _rat
    writes its Fraction; a certificate holds no infinite end (d = 0)."""
    n, d = num
    if not d:
        raise ValueError("a certificate row cannot hold an infinite end")
    g = math.gcd(n, d)
    return f"{n // g}/{d // g}"


def _rows(phi0: StepFunction):
    """The certificate rows of phi0, written from its integer pairs: the
    terms as (lower, upper, value) and the exceptions as (point, value)
    strings, each tuple in the sorted order of its keys."""
    return ([(_pair(lo), _pair(hi), _pair(v)) for v, lo, hi in phi0.term_pairs()],
            [(_pair(p), _pair(v)) for p, v in phi0.exception_pairs()])


def _fields(cert: approx.Certificate) -> dict:
    """Every certificate field but the phi0 and exceptions rows."""
    return {
        "schema_version": SCHEMA_VERSION,
        "request": {
            "target": cert.target_text,
            "measure": cert.measure_text,
            "p": repr(cert.p),
            "eps": _rat(cert.eps),
            "M": _rat(cert.M),
        },
        "b": cert.b,
        "scale": _rat(cert.scale),
        "error_bound": repr(cert.error_bound),
        "error_method": cert.error_method,
        "min_abs_slope": _rat(cert.min_abs_slope),
        "sup_bound": _rat(cert.sup_bound),
        "nondiff_count_in_window": cert.nondiff_count_in_window,
        "window": {"lower": _rat(cert.window[0]), "upper": _rat(cert.window[1])},
        "quadrature_tolerance": repr(cert.quadrature_tolerance),
    }


# the keys of a phi0 row and of an exceptions row, sorted
_TERM_KEYS = ("lower", "upper", "value")
_EXCEPTION_KEYS = ("point", "value")


def certificate_to_dict(cert: approx.Certificate) -> dict:
    terms, exceptions = _rows(cert.phi0)
    return {
        **_fields(cert),
        "phi0": [dict(zip(_TERM_KEYS, row)) for row in terms],
        "exceptions": [dict(zip(_EXCEPTION_KEYS, row)) for row in exceptions],
    }


def _json_rows(keys, rows) -> str:
    """json.dumps(indent=2) of the list of dicts zip(keys, row), as the
    value of a top-level key: every row through one template. The row
    strings are digits, "-" and "/", which JSON does not escape."""
    if not rows:
        return "[]"
    row = "    {\n" + ",\n".join(f'      "{k}": "%s"' for k in keys) + "\n    }"
    return "[\n" + ",\n".join([row % r for r in rows]) + "\n  ]"


def write_certificate(cert: approx.Certificate, path):
    """The bytes of json.dump(certificate_to_dict(cert), indent=2,
    sort_keys=True) and a newline. The fields other than the rows go
    through json, with empty row lists; each "[]" is then replaced by the
    rows. No string value holds the text of a key line, as json escapes
    the quotes and newlines of a string."""
    terms, exceptions = _rows(cert.phi0)
    text = json.dumps({**_fields(cert), "phi0": [], "exceptions": []},
                      indent=2, sort_keys=True)
    for key, keys, rows in (("phi0", _TERM_KEYS, terms),
                            ("exceptions", _EXCEPTION_KEYS, exceptions)):
        text = text.replace(f'\n  "{key}": []', f'\n  "{key}": ' + _json_rows(keys, rows), 1)
    with open(path, "w") as fh:
        fh.write(text + "\n")


class CorruptCertificate(ValueError):
    pass


def read_certificate(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CorruptCertificate(f"cannot read certificate: {exc}") from exc
    if data.get("schema_version") != SCHEMA_VERSION:
        raise CorruptCertificate(
            f"unsupported schema_version {data.get('schema_version')!r}"
        )
    required = (
        "request", "b", "scale", "phi0", "exceptions", "error_bound",
        "error_method", "min_abs_slope", "sup_bound", "quadrature_tolerance",
    )
    for key in required:
        if key not in data:
            raise CorruptCertificate(f"missing field {key!r}")
    return data


def reconstruct_approximant(data: dict) -> SensitiveApproximant:
    try:
        # str() of each field: a JSON number reads as its decimal, while
        # true, null or a list is no rational; write_certificate emits the
        # rows in order, so one out of order is an error
        phi0 = StepFunction(
            terms=[(str(t["value"]), str(t["lower"]), str(t["upper"]))
                   for t in data["phi0"]],
            exceptions=[(str(e["point"]), str(e["value"])) for e in data["exceptions"]],
        )
        scale = _parse_fraction(str(data["scale"]), "scale")
        wave = TriangleWave(b=int(data["b"]))
        eps = _parse_fraction(str(data["request"]["eps"]), "eps")
        M = _parse_fraction(str(data["request"]["M"]), "M")
        p = _parse_p(str(data["request"]["p"]))
        stored_slope = _parse_fraction(str(data["min_abs_slope"]), "min_abs_slope")
    except (KeyError, ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise CorruptCertificate(f"malformed certificate field: {exc}") from exc
    if stored_slope != scale * wave.b:
        raise CorruptCertificate(
            f"stored min_abs_slope {stored_slope} != scale*b {scale * wave.b}"
        )
    return SensitiveApproximant(
        phi0=phi0, scale=scale, wave=wave, eps=eps, M=M, p=p
    )


# ---------------------------------------------------------------------------
# Flag parsing helpers


def _parse_p(text):
    try:
        p = float(Fraction(text)) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"invalid p: {text!r}")
    if not (1 <= p < math.inf):
        raise ValueError("p must satisfy 1 ≤ p < ∞")
    return p


def _parse_fraction(text, name):
    """Exact rational of a flag or a certificate field; the sign is
    checked where it is used."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"invalid {name}: {text!r}")


# ---------------------------------------------------------------------------
# Commands


def cmd_sensitize(args) -> int:
    try:
        target = parse_target(args.target)
        spec = parse_measure(args.measure)
        mu = BorelMeasure.from_spec(spec)
        p = _parse_p(args.p)
        eps = _parse_fraction(args.eps, "eps")
        M = _parse_fraction(args.M, "M")
        req = approx.ApproxRequest(target=target, mu=mu, p=p, eps=eps, M=M)
    except (ParseError, MeasureSpecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        _y, cert = approx.sensitize(req)
    except approx.NonFiniteMomentError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except approx.RefinementCapError as exc:
        print(f"pipeline budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OverflowError as exc:  # a number of the request past the float range
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    write_certificate(cert, args.out)
    print(
        f"b={cert.b} error_bound={cert.error_bound:.6g} "
        f"min_abs_slope={_rat(cert.min_abs_slope)}"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        data = read_certificate(args.cert)
        Y = reconstruct_approximant(data)
        target = parse_target(data["request"]["target"])
        spec = parse_measure(data["request"]["measure"])
        mu = BorelMeasure.from_spec(spec)
        if not 1000 <= args.samples <= MAX_VERIFY_SAMPLES:
            raise ValueError(f"samples must be between 1000 and {MAX_VERIFY_SAMPLES}")
        if args.seed < 0:
            raise ValueError("seed must be nonnegative")
    except (CorruptCertificate, ParseError, MeasureSpecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    p, eps, M = Y.p, Y.eps, Y.M
    slope = Y.min_abs_slope()
    slope_ok = slope > M
    f = target_evaluator(target)
    try:
        est = norms.mc_norm(
            lambda xs: Y.eval_arr(xs) - f(xs), mu, p, n=args.samples, seed=args.seed
        )
    except EvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        print("error: not enough memory to verify: the draws take a few MB "
              "whatever --samples is", file=sys.stderr)
        return EXIT_INPUT
    distance, radius = est.value, est.absolute_error_bound
    mc_total = distance + radius
    error_ok = mc_total < float(eps)
    print(
        f"mc_distance={distance:.6g} radius={radius:.6g} "
        f"eps={float(eps):.6g} min_abs_slope={_rat(slope)} M={float(M):.6g}"
    )
    if slope_ok and error_ok:
        print("PASS")
        return EXIT_OK
    reasons = []
    if not error_ok:
        reasons.append(f"MC distance + 4-sigma radius {mc_total:.6g} >= eps")
    if not slope_ok:
        reasons.append(f"min |slope| {float(slope):.6g} <= M {float(M):.6g}")
    print("FAIL: " + "; ".join(reasons))
    return EXIT_FAIL


def cmd_norm(args) -> int:
    try:
        target = parse_target(args.target)
        spec = parse_measure(args.measure)
        mu = BorelMeasure.from_spec(spec)
        p = _parse_p(args.p)
        tol = float(args.tol)
        if not 0 < tol < math.inf:
            raise ValueError("tol must be positive and finite")
    except (ParseError, MeasureSpecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        est = norms.lp_norm(
            target_evaluator(target), mu, p, tol,
            knots=[float(k) for k in mu.density_breakpoints()],
        )
    except norms.NonIntegrableError as exc:  # also a target it cannot evaluate
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    print(f"value={est.value!r} bound={est.absolute_error_bound!r}")
    return EXIT_OK


def _target_or_nan(target, x) -> float:
    try:
        return float(eval_target(target, x))
    except (EvaluationError, OverflowError):  # or an exact value past the float range
        return math.nan


def cmd_plot(args) -> int:
    try:
        data = read_certificate(args.cert)
        Y = reconstruct_approximant(data)
        target = parse_target(data["request"]["target"])
        lo_text, sep, hi_text = args.window.partition(":")
        if not sep:
            raise ValueError("window must be given as a:b")
        lo = _parse_fraction(lo_text, "window start")
        hi = _parse_fraction(hi_text, "window end")
        if not lo < hi:
            raise ValueError("window requires a < b")
        n = int(args.points)
        if not 2 <= n <= MAX_PLOT_POINTS:
            raise ValueError(f"points must be between 2 and {MAX_PLOT_POINTS}")
        kinks = Y.nondiff_count(lo, hi)
        if kinks > MAX_PLOT_POINTS:
            raise ValueError(f"window holds {kinks} non-differentiability "
                             f"points, more than {MAX_PLOT_POINTS}")
    except (CorruptCertificate, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    # the float abscissae ascend, so Y looks phi0 up by a merge
    xs = np.array(uniform_grid_floats(lo, hi, n - 1))
    ys = Y.eval_arr(xs)
    try:
        ts = eval_target_array(target, xs)
    except EvaluationError:
        # some row cannot be evaluated: the same float abscissae row by
        # row, NaN there
        ts = np.array([_target_or_nan(target, x) for x in xs.tolist()])
    cols = (map(repr, col.tolist()) for col in (xs, ts, ys))
    with open(args.out, "w") as fh:
        fh.write("x,target,approximant\n" + "\n".join(map(",".join, zip(*cols))) + "\n")
    side = args.out + ".nondiff"
    with open(side, "w") as fh:
        fh.write("".join(f"{pt!r}\n" for pt in Y.nondiff_floats(lo, hi)))
    print(f"wrote {args.out} and {side}")
    return EXIT_OK


# ---------------------------------------------------------------------------


@functools.cache
def build_parser():
    """The argparse tree, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="sensapprox",
        description="Approximate an L^p target by a steep piecewise-linear "
        "function and certify the result.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("sensitize", help="run the pipeline, write a certificate")
    s.add_argument("--target", required=True)
    s.add_argument("--measure", required=True)
    s.add_argument("--p", required=True)
    s.add_argument("--eps", required=True)
    s.add_argument("--M", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_sensitize)

    v = sub.add_parser("verify", help="independently check a certificate")
    v.add_argument("--cert", required=True)
    v.add_argument("--samples", type=int, default=1_000_000)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)

    n = sub.add_parser("norm", help="L^p norm of a target under a measure")
    n.add_argument("--target", required=True)
    n.add_argument("--measure", required=True)
    n.add_argument("--p", required=True)
    n.add_argument("--tol", default="1e-6")
    n.set_defaults(func=cmd_norm)

    pl = sub.add_parser("plot", help="CSV samples of target and approximant")
    pl.add_argument("--cert", required=True)
    pl.add_argument("--window", required=True)
    pl.add_argument("--points", required=True)
    pl.add_argument("--out", required=True)
    pl.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
