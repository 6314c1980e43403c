"""Command-line surface: sensitize, verify, norm, plot.

Exit codes: 0 success/PASS, 1 verification FAIL, 2 input error (p out
of range, a number with no float, such as a wave frequency
b >= 2^1024 - 2^970, an unwritable --out, or a target nested too deep),
3 pipeline budget exhausted, 4 hypothesis violation (a numerically
diverging moment, or a target that sensitize or norm cannot evaluate
where the measure has mass). main maps a command's failure to its code
through one table, FAILURES.

Certificate files are JSON, schema_version "1". Quantities that must be
exact (scale, min_abs_slope, sup_bound, breakpoints) are "num/den"
rational strings; measured quantities are shortest round-trip decimals.
read_certificate is write_certificate's inverse: it reads a file back
into the approx.Certificate that writes it, request included, so verify
and plot parse the target and the measure there, and a certificate that
either of them cannot read is an input error.
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
from .intervals import as_rational, uniform_grid_floats
from .measures import BLOCK, BorelMeasure, _check_floats
from .parsing import (
    EvaluationError,
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

# the exit code and stderr prefix of a command's failure: the first row
# whose types match it. The hypothesis errors are ValueErrors, so their
# row comes first; any other exception is a bug and propagates.
FAILURES = (
    ((approx.NonFiniteMomentError, norms.NonIntegrableError),
     EXIT_HYPOTHESIS, "hypothesis violation"),
    ((approx.RefinementCapError,), EXIT_BUDGET, "pipeline budget exhausted"),
    # ParseError, MeasureSpecError, CorruptCertificate and EvaluationError
    # are ValueErrors
    ((ValueError, ArithmeticError, OSError, MemoryError, RecursionError),
     EXIT_INPUT, "error"),
)

# most rows, and most non-differentiability points, that plot writes
MAX_PLOT_POINTS = 10**5
# most Monte Carlo draws that verify takes. The draws go through one
# buffer of one block, so this bounds the time of a verify, not its
# memory: at 10^7 draws, a verify of x^2 | normal(0,1) (p=2, eps=1/10,
# M=5) takes 0.27 s and peaks at 112 788 KiB of address space (VmPeak)
# and 37 MiB resident, 1 136 KiB and about 850 KiB over its peaks at 10^3
# draws (2 vCPU, Python 3.11, numpy 2.4, glibc 2.36, one OpenBLAS thread)
MAX_VERIFY_SAMPLES = 10**7


def _pair(x) -> str:
    """An exact number, a float, a Fraction or an int, as "n/d" in lowest
    terms, from its as_integer_ratio(). A certificate holds no infinite
    end, whose as_integer_ratio() raises OverflowError."""
    return "%d/%d" % x.as_integer_ratio()


def _unpair(text, seen):
    """The number of a certificate's row string, the inverse of _pair:
    "n/d" of decimal digits is the float n / d where that float is exact,
    and Fraction(n, d) otherwise, such as "3/10"; any other form, "0.5" or
    "4 / 8", and "1/0" go through as_rational. A certificate's rows repeat
    their shared ends and many values, so each distinct string is looked
    up in and added to seen, and read, and its Fraction built, once."""
    num = seen.get(text)
    if num is None:
        n, _, d = text.partition("/")
        # int() reads the decimal digits that Fraction(str) reads
        if d.isdecimal() and (n[1:] if n[:1] == "-" else n).isdecimal() and int(d):
            n, d = int(n), int(d)
            try:
                num = n / d
                a, c = num.as_integer_ratio()
                exact = a * d == n * c
            except OverflowError:  # n / d is past the float range
                exact = False
            if not exact:
                num = Fraction(n, d)
        else:
            num = as_rational(text)
        seen[text] = num
    return num


def _rows(phi0: StepFunction):
    """The certificate rows of phi0, written from its held numbers: the
    terms as (lower, upper, value) and the exceptions as (point, value)
    strings, each tuple in the sorted order of its keys."""
    return ([(_pair(lo), _pair(hi), _pair(v)) for v, lo, hi in phi0.terms],
            [(_pair(p), _pair(v)) for p, v in phi0.exceptions])


def _fields(cert: approx.Certificate) -> dict:
    """Every certificate field but the phi0 and exceptions rows: the
    request and its quadrature_tolerance, error_bound and error_method
    as sensitize certified them, and every other field from the
    approximant Y. The window of the non-differentiability count runs
    from phi0's first end minus 1 to its last end plus 1, or is (-1, 1)
    where phi0 has no end."""
    req, Y = cert.request, cert.approximant
    ends = Y.phi0.endpoints()
    lo, hi = ((as_rational(ends[0]) - 1, as_rational(ends[-1]) + 1) if ends
              else (Fraction(-1), Fraction(1)))
    return {
        "schema_version": SCHEMA_VERSION,
        "request": {
            "target": req.target.source_text,
            "measure": req.mu.source_text,
            "p": repr(req.p),
            "eps": _pair(req.eps),
            "M": _pair(req.M),
        },
        "b": Y.wave.b,
        "scale": _pair(Y.scale),
        "error_bound": repr(cert.error_bound),
        "error_method": cert.error_method,
        "min_abs_slope": _pair(Y.min_abs_slope()),
        "sup_bound": _pair(Y.sup_bound()),
        "nondiff_count_in_window": Y.nondiff_count(lo, hi),
        "window": {"lower": _pair(lo), "upper": _pair(hi)},
        "quadrature_tolerance": repr(req.quadrature_tolerance),
    }


# the keys of a phi0 row and of an exceptions row, sorted
_TERM_KEYS = ("lower", "upper", "value")
_EXCEPTION_KEYS = ("point", "value")


def _json_rows(keys, rows) -> str:
    """json.dumps(indent=2) of the list of dicts zip(keys, row), as the
    value of a top-level key: every row through one template. The row
    strings are digits, "-" and "/", which JSON does not escape."""
    if not rows:
        return "[]"
    row = "    {\n" + ",\n".join(f'      "{k}": "%s"' for k in keys) + "\n    }"
    return "[\n" + ",\n".join([row % r for r in rows]) + "\n  ]"


def write_certificate(cert: approx.Certificate, path):
    """The bytes that json.dump(indent=2, sort_keys=True) and a newline
    give for the certificate's fields, its "phi0" rows as objects of
    "lower", "upper" and "value", and its "exceptions" rows as objects of
    "point" and "value". The fields other than the rows go through json,
    with empty row lists; each "[]" is then replaced by the rows. No
    string value holds the text of a key line, as json escapes the quotes
    and newlines of a string."""
    terms, exceptions = _rows(cert.approximant.phi0)
    text = json.dumps({**_fields(cert), "phi0": [], "exceptions": []},
                      indent=2, sort_keys=True)
    for key, keys, rows in (("phi0", _TERM_KEYS, terms),
                            ("exceptions", _EXCEPTION_KEYS, exceptions)):
        text = text.replace(f'\n  "{key}": []', f'\n  "{key}": ' + _json_rows(keys, rows), 1)
    with open(path, "w") as fh:
        fh.write(text + "\n")


class CorruptCertificate(ValueError):
    pass


def read_certificate(path) -> approx.Certificate:
    """The Certificate that write_certificate wrote to path: the request
    from the "request" object, Y from the rows, "scale" and "b", and
    "error_bound" and "error_method" as they stand. The other fields are
    functions of these; they must be present, and min_abs_slope must be
    scale * b. A file that is no certificate raises CorruptCertificate, or
    the error of the target or measure parser, of a request number with
    no float, or of ApproxRequest."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CorruptCertificate(f"cannot read certificate: {exc}") from exc
    if not isinstance(data, dict):
        raise CorruptCertificate("a certificate must be a JSON object")
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
    request = data["request"]
    if not (isinstance(request, dict)
            and all(isinstance(request.get(k), str) for k in ("target", "measure"))):
        raise CorruptCertificate("field 'request' must be an object with string target and measure")
    if type(data["b"]) is not int:  # a bool is an int, and int() would truncate a float
        raise CorruptCertificate(f"field 'b' must be an integer, got {data['b']!r}")
    try:
        # str() of each field: a JSON number reads as its decimal, while
        # true, null or a list is no rational; write_certificate emits the
        # rows in order, so one out of order is an error
        seen = {}
        phi0 = StepFunction(
            terms=[(_unpair(str(t["value"]), seen), _unpair(str(t["lower"]), seen),
                    _unpair(str(t["upper"]), seen)) for t in data["phi0"]],
            exceptions=[(_unpair(str(e["point"]), seen), _unpair(str(e["value"]), seen))
                        for e in data["exceptions"]],
        )
        scale = _parse_fraction(str(data["scale"]), "scale")
        wave = TriangleWave(b=data["b"])
        eps = _parse_fraction(str(request["eps"]), "eps")
        M = _parse_fraction(str(request["M"]), "M")
        p = _parse_float(str(request["p"]), "p")
        stored_slope = _parse_fraction(str(data["min_abs_slope"]), "min_abs_slope")
        error_bound = _parse_float(str(data["error_bound"]), "error_bound")
    except (KeyError, ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise CorruptCertificate(f"malformed certificate field: {exc}") from exc
    if stored_slope != scale * wave.b:
        raise CorruptCertificate(
            f"stored min_abs_slope {stored_slope} != scale*b {scale * wave.b}"
        )
    target = parse_target(request["target"])
    mu = BorelMeasure.from_spec(parse_measure(request["measure"]))
    # verify prints both floats, and ApproxRequest would refuse eps unnamed
    _check_floats("certificate field", "request.eps", eps, error=ValueError)
    _check_floats("certificate field", "request.M", M, error=ValueError)
    return approx.Certificate(
        request=approx.ApproxRequest(target=target, mu=mu, p=p, eps=eps, M=M),
        approximant=SensitiveApproximant(phi0=phi0, scale=scale, wave=wave),
        error_bound=error_bound, error_method=data["error_method"],
    )


# ---------------------------------------------------------------------------
# Flag parsing helpers


def _parse_float(text, name):
    """The float of a flag or a certificate field, a decimal or "n/d"."""
    try:
        return float(Fraction(text)) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"invalid {name}: {text!r}")


def _parse_fraction(text, name):
    """Exact rational of a flag or a certificate field; the sign is
    checked where it is used."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"invalid {name}: {text!r}")


# ---------------------------------------------------------------------------
# Commands: each raises on a failure, and main maps the failure to an
# exit code through FAILURES


def cmd_sensitize(args) -> int:
    req = approx.ApproxRequest(
        target=parse_target(args.target),
        mu=BorelMeasure.from_spec(parse_measure(args.measure)),
        p=_parse_float(args.p, "p"),
        eps=_parse_fraction(args.eps, "eps"),
        M=_parse_fraction(args.M, "M"),
    )
    cert = approx.sensitize(req)
    write_certificate(cert, args.out)
    Y = cert.approximant
    print(
        f"b={Y.wave.b} error_bound={cert.error_bound:.6g} "
        f"min_abs_slope={_pair(Y.min_abs_slope())}"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    cert = read_certificate(args.cert)
    req, Y = cert.request, cert.approximant
    if not 1000 <= args.samples <= MAX_VERIFY_SAMPLES:
        raise ValueError(f"samples must be between 1000 and {MAX_VERIFY_SAMPLES}")
    if args.seed < 0:
        raise ValueError("seed must be nonnegative")

    eps, M = float(req.eps), float(req.M)
    slope = Y.min_abs_slope()
    f = target_evaluator(req.target)
    # Y - X of each block, formed in place in two arrays made once; each
    # is one block, as the draws are: one array of two blocks faulted its
    # pages in afresh on every verify of 2*10^4 draws (2 vCPU, glibc 2.36)
    y_block, x_block = np.empty(min(args.samples, BLOCK)), np.empty(min(args.samples, BLOCK))

    def distance(xs):
        y, x = y_block[:xs.size], x_block[:xs.size]
        Y.eval_arr(xs, out=y, scratch=x)
        return np.subtract(y, f(xs, out=x), out=y)

    try:
        est = norms.mc_norm(distance, req.mu, req.p, n=args.samples, seed=args.seed)
    except MemoryError:
        raise MemoryError("not enough memory to verify: the draws take a few MB "
                          "whatever --samples is")
    distance, radius = est.value, est.absolute_error_bound
    mc_total = distance + radius
    print(f"mc_distance={distance:.6g} radius={radius:.6g} eps={eps:.6g} "
          f"min_abs_slope={_pair(slope)} M={M:.6g}")
    reasons = [reason for ok, reason in (
        (mc_total < eps, f"MC distance + 4-sigma radius {mc_total:.6g} >= eps"),
        (slope > req.M, f"min |slope| {float(slope):.6g} <= M {M:.6g}")) if not ok]
    print("FAIL: " + "; ".join(reasons) if reasons else "PASS")
    return EXIT_FAIL if reasons else EXIT_OK


def cmd_norm(args) -> int:
    target = parse_target(args.target)
    mu = BorelMeasure.from_spec(parse_measure(args.measure))
    # lp_norm rejects a p outside [1, inf) and a tol that is no positive
    # finite number
    est = approx.target_norm(target, mu, _parse_float(args.p, "p"),
                              _parse_float(args.tol, "tol"))
    print(f"value={est.value!r} bound={est.absolute_error_bound!r}")
    return EXIT_OK


def _target_or_nan(target, x) -> float:
    try:
        return eval_target_array(target, [x])[0]
    except EvaluationError:
        return math.nan


def cmd_plot(args) -> int:
    cert = read_certificate(args.cert)
    Y, target = cert.approximant, cert.request.target
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

    # the float abscissae ascend, so Y looks phi0 up by a merge
    xs = np.array(uniform_grid_floats(lo, hi, n - 1))
    ys = Y.eval_arr(xs)
    try:
        ts = eval_target_array(target, xs)
    except EvaluationError:
        # some row cannot be evaluated: the same evaluator row by row,
        # NaN there
        ts = np.array([_target_or_nan(target, x) for x in xs])
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
    try:
        return args.func(args)
    except Exception as exc:
        for types, code, prefix in FAILURES:
            if isinstance(exc, types):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
