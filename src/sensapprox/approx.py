"""The construction pipeline: step-function approximation within eps/2,
then superposition of the scaled triangle wave to reach M-sensitivity
with certified total L^p error below eps.

One route produces the step function. It refines dyadic cells greedily,
splitting only the cells of largest estimated error, gives each cell a
short dyadic value, and certifies the result by quadrature. The first
cells also end at every threshold c of an if() test ``x cmp c`` of the
target, so a jump or kink there is a cell end and is never bisected
toward; a row that ends at a threshold that is no float ends at the
exact rational. Touching cells of one value are one row, so a piecewise
constant target gets one row per constant piece. An atom of mu where the
step function misses the target gets the target's exact value as one
exception of the step function, a multiple of the indicator of a
singleton. The open-set machinery
(approximate_borel_set, truncate_union) is the paper's measure-theoretic
route for indicator data. The pipeline does not use it: the threshold
ends and the atom pins already give indicators exactly, with less code.
It stays a library function, exercised on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import norms
from .funcspace import (
    SensitiveApproximant,
    StepFunction,
    build_zigzag,
)
from .intervals import Interval, IntervalUnion, NEG_INF, POS_INF, as_rational
from .measures import BorelMeasure
from .norms import NonIntegrableError, NormEstimate
from .parsing import (
    EvaluationError,
    TargetFunction,
    eval_target,
    target_evaluator,
    thresholds,
)


class RefinementCapError(RuntimeError):
    """Grid refinement budget exhausted before the error target was met."""

    def __init__(self, message, achieved_error):
        super().__init__(message)
        self.achieved_error = achieved_error


class NonFiniteMomentError(ValueError):
    """Numerical evidence that the target is not in L^p of the measure."""


class TruncationCapError(RuntimeError):
    """Enumeration cap reached before the tail bound was met."""

    def __init__(self, message, achieved_tail):
        super().__init__(message)
        self.achieved_tail = achieved_tail


@dataclass(frozen=True)
class ApproxRequest:
    target: TargetFunction
    mu: BorelMeasure
    p: float
    eps: Fraction
    M: Fraction

    def __post_init__(self):
        object.__setattr__(self, "eps", as_rational(self.eps))
        object.__setattr__(self, "M", as_rational(self.M))
        if not (1 <= self.p < math.inf):
            raise ValueError("p must satisfy 1 <= p < infinity")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.M < 0:
            raise ValueError("M must be nonnegative")


@dataclass(frozen=True)
class Certificate:
    target_text: str
    measure_text: str
    p: float
    eps: Fraction
    M: Fraction
    b: int
    scale: Fraction
    phi0: StepFunction
    error_bound: float
    error_method: str
    min_abs_slope: Fraction
    sup_bound: Fraction
    nondiff_count_in_window: int
    window: tuple
    quadrature_tolerance: float


# ---------------------------------------------------------------------------
# Outer-regularity machinery


def approximate_borel_set(B: IntervalUnion, mu: BorelMeasure, p, tol) -> IntervalUnion:
    """Open finite-union superset V of B with mu(V \\ B) < tol^p.

    Non-open endpoints are enlarged outward by delta, halving delta
    until the added mass drops below tol^p (continuity from above).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    threshold = float(tol) ** p
    delta = Fraction(1)
    for _ in range(2000):
        out = []
        for iv in B.intervals:
            lo = iv.lo if (iv.lo == NEG_INF or not iv.lo_closed) else iv.lo - delta
            hi = iv.hi if (iv.hi == POS_INF or not iv.hi_closed) else iv.hi + delta
            out.append(Interval(lo, False, hi, False))
        V = IntervalUnion(out)
        added = V.difference(B)
        if mu.measure_of(added) < threshold:
            return V
        delta /= 2
    raise RuntimeError("endpoint enlargement failed to converge")


def truncate_union(intervals, union_mass, mu: BorelMeasure, p, tol, cap):
    """Smallest prefix V_1..V_N whose tail mass is below tol^p."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    threshold = float(tol) ** p
    tail = float(union_mass)
    prefix = []
    if tail < threshold:
        return prefix
    for iv in intervals:
        if len(prefix) >= cap:
            raise TruncationCapError(
                f"cap {cap} reached with tail mass {tail:.6g} >= {threshold:.6g}",
                achieved_tail=tail,
            )
        prefix.append(iv)
        tail = float(union_mass) - mu.measure_of(IntervalUnion(prefix))
        if tail < threshold:
            return prefix
    if tail < threshold:
        return prefix
    raise TruncationCapError(
        f"enumeration exhausted with tail mass {tail:.6g} >= {threshold:.6g}",
        achieved_tail=tail,
    )


# ---------------------------------------------------------------------------
# Moment hypothesis check


def check_finite_moment(req: ApproxRequest):
    """Flag targets whose p-th moment estimate diverges; cannot prove it."""
    f = target_evaluator(req.target)
    try:
        norms.lp_norm(f, req.mu, req.p, tol=1e-3)
    except NonIntegrableError as exc:
        raise NonFiniteMomentError(
            f"target appears to have non-finite {req.p}-th moment: {exc}"
        ) from exc
    except (OverflowError, FloatingPointError) as exc:
        raise NonFiniteMomentError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Step-function approximation


def _pin_atoms(phi0: StepFunction, req: ApproxRequest) -> StepFunction:
    """phi0, which has no exceptions, with the exception (loc, X(loc)) at
    each atom of mu where phi0(loc) != X(loc); the atoms are sorted, and a
    location listed twice is pinned once. X(loc) is compared and pinned as
    it is, a float as its exact binary value."""
    pins = []
    for loc, _m in req.mu.atoms:
        if pins and pins[-1][0] == loc:
            continue
        want = eval_target(req.target, loc)
        if phi0.eval(loc) != want:
            pins.append((loc, want))
    return phi0.with_exceptions(pins) if pins else phi0


def _certified_distance(phi0: StepFunction, req: ApproxRequest, tol) -> NormEstimate:
    f = target_evaluator(req.target)
    knots = phi0.endpoint_floats().tolist()
    knots += [float(pt) for pt in req.mu.density_breakpoints()]
    return norms.lp_distance(f, phi0.eval_arr, req.mu, req.p, tol, knots=knots)


# Refinement budget of the grid route. A refinement run ends when the float
# estimate of ||target - phi0||_p^p falls to a share of target_err^p, at
# first (3/4)^p, which leaves the certified quadrature its tolerance of
# target_err / 4; a failed certification halves the share for the next run.
_MAX_CELLS = 1 << 17
_MAX_ROUNDS = 200
_MAX_CHECKS = 8


def _dyadic_cells(span_lo, span_hi, n):
    """Ends of the cells that cover [span_lo, span_hi], all of the least
    power-of-two width at least (span_hi - span_lo) / n; every end is a
    multiple of the width, so every later midpoint of these cells is
    exact. A cell that the grid route ends at a threshold has no exact
    midpoint in general; halving rounds it to a float."""
    width = 2.0 ** math.ceil(math.log2(max(span_hi - span_lo, 2.0**-40) / n))
    return np.arange(math.floor(span_lo / width), math.ceil(span_hi / width) + 1) * width


def _split(lo, hi, marked):
    """The cells, in order, with each marked cell replaced by its halves;
    returns (lo, hi, counts), counts being 2 for a split cell, else 1."""
    counts = 1 + marked
    first = (np.cumsum(counts) - counts)[marked]
    mid = 0.5 * (lo[marked] + hi[marked])
    lo, hi = np.repeat(lo, counts), np.repeat(hi, counts)
    hi[first] = mid
    lo[first + 1] = mid
    return lo, hi, counts


def _grid_route(req: ApproxRequest, target_err, cert_tol):
    """Greedy refinement on dyadic cells with short values (adaptive tree
    approximation: DeVore, *Acta Numerica* 1998, sec. 3; Binev & DeVore,
    *Numer. Math.* 2004).

    The cells tile the dyadic hull of the spans that ``norms`` integrates
    over (every part's spans(1e-12): its window less the pwd cells of
    density 0), starting from about 16 cells of one power-of-two width,
    each cut at the target's if() thresholds inside it. The spans merge
    into disjoint pieces, and a first cell that reaches into two pieces
    is halved until it meets one. A cell's value is the
    target at the midpoint of the cell's part inside its piece, rounded to
    a multiple of a power of two that costs at most target_err / 128 in
    L^p; the target is never evaluated outside the
    pieces, where mu has no mass, and a cell that meets none is dropped. Each
    round estimates the error of the new cells by Simpson's rule on floats,
    then halves the fewest worst cells that hold the error to be removed.
    A deviation large enough for one Monte Carlo draw to fail a check
    weighs 10^6 times more in the estimate. Each run of touching cells of
    one value is one row of phi0.
    """
    f = target_evaluator(req.target)
    p = req.p
    parts = [(float(w), kind) for w, kind in req.mu.parts]
    pieces = []  # the spans, merged into sorted disjoint pieces
    for a, b in sorted(span for _, kind in parts for span in kind.spans(1e-12)):
        if pieces and a <= pieces[-1][1]:
            pieces[-1][1] = max(pieces[-1][1], b)
        else:
            pieces.append([a, b])
    # piece lower ends, padded so that "the piece after k" always exists
    lows = np.array([a for a, _ in pieces] + [math.inf, math.inf])
    highs = np.array([b for _, b in pieces])
    hull = (pieces[0][0], pieces[-1][1]) if pieces else (0.0, 0.0)
    ends = _dyadic_cells(*hull, 16)
    # every if() threshold inside the cells is a cell end, so that a jump or
    # kink of the target there is one; a row that ends at a threshold ends
    # at the threshold itself, which may be no float
    exact = {float(t): t for t in thresholds(req.target) if ends[0] < t < ends[-1]}
    if exact:
        ends = np.union1d(ends, list(exact))
    root = float(req.mu.total_mass) ** (1.0 / p)
    quantum = 2.0 ** -math.ceil(math.log2(64.0 * root / target_err))
    # one draw where |target - v|^p exceeds 1000 target_err^p can fail a
    # Monte Carlo check of 1000 draws, the fewest that verify takes, on its
    # own; such deviations weigh 10^6 times their size in the estimate, so
    # that the mass holding them carries at most 10^-6 of the budget
    outlier = 1000.0 * target_err**p

    def piece(lo):
        """Index of the first piece that ends past each cell's lower end."""
        return np.searchsorted(highs, lo, side="right")

    def inside(lo, hi):
        return lows[piece(lo)] < hi

    def evaluate(lo, hi):
        """Short values and error estimates of sorted cells, each of which
        meets one piece."""
        k = piece(lo)
        a, b = np.maximum(lo, lows[k]), np.minimum(hi, highs[k])
        v = np.round(f(0.5 * (a + b)) / quantum) * quantum

        def g(xs):
            step = v[np.searchsorted(a, xs, side="right") - 1]
            d = np.abs(f(xs) - step) ** p
            d[d > outlier] *= 1e6
            return d * sum(w * kind.pdf_arr(xs) for w, kind in parts)
        return v, norms._simpson_pair(g, a, b)[0]

    lo, hi = ends[:-1], ends[1:]
    while True:
        keep = inside(lo, hi)
        lo, hi = lo[keep], hi[keep]
        straddle = lows[piece(lo) + 1] < hi
        if not straddle.any():
            break
        lo, hi, _ = _split(lo, hi, straddle)
    v, err = evaluate(lo, hi)
    share = 0.75**p
    best = math.inf
    rounds = 0
    for _ in range(_MAX_CHECKS):
        goal = share * target_err**p
        while err.sum() > goal and rounds < _MAX_ROUNDS and len(lo) < _MAX_CELLS:
            # halving a cell cuts a smooth target's error there by 2^p: mark
            # the fewest worst cells that hold the error to be removed, but
            # at most half of the total
            total = err.sum()
            need = min(0.5, (total - goal) / (1.0 - 0.5**p) / total) * total
            order = np.argsort(-err, kind="stable")
            marked = np.zeros(len(lo), dtype=bool)
            marked[order[:np.searchsorted(np.cumsum(err[order]), need) + 1]] = True
            mid = 0.5 * (lo + hi)
            marked &= (lo < mid) & (mid < hi)  # a float cell halves no further
            if not marked.any():
                break
            rounds += 1
            lo, hi, counts = _split(lo, hi, marked)
            v, err = np.repeat(v, counts), np.repeat(err, counts)
            fresh = np.repeat(marked, counts)
            keep = ~fresh | inside(lo, hi)
            lo, hi, v, err, fresh = lo[keep], hi[keep], v[keep], err[keep], fresh[keep]
            v[fresh], err[fresh] = evaluate(lo[fresh], hi[fresh])
        # each run of touching cells of one value is one row: cut[k] says
        # that a row ends before cell k; StepFunction takes each float as
        # its exact binary value
        cut = np.ones(len(lo) + 1, dtype=bool)
        cut[1:-1] = (lo[1:] != hi[:-1]) | (v[1:] != v[:-1])
        starts = cut[:-1]
        terms = [(x, exact.get(a, a), exact.get(b, b)) for a, b, x in
                 zip(lo[starts].tolist(), hi[cut[1:]].tolist(), v[starts].tolist()) if x]
        phi0 = _pin_atoms(StepFunction(terms=terms), req)
        est = _certified_distance(phi0, req, cert_tol)
        achieved = est.value + est.absolute_error_bound
        best = min(best, achieved)
        if achieved < target_err:
            return phi0, est
        if err.sum() > goal:
            break  # refinement stopped short of the goal: no retry helps
        share = min(share, err.sum() / target_err**p) / 2.0
    raise RefinementCapError(
        f"refinement cap reached; best certified error {best:.6g} "
        f">= target {target_err:.6g}",
        achieved_error=best,
    )


def build_step_approximation(req: ApproxRequest, error_target=None):
    """Step function phi0 with certified ||phi0 - target||_p < eps/2.

    error_target (default eps/2) may be tightened by sensitize to leave
    room for the wave term in the total budget.
    """
    eps_f = float(req.eps)
    target_err = eps_f / 2.0 if error_target is None else float(error_target)
    target_err = min(target_err, eps_f / 2.0)
    cert_tol = min(eps_f / 100.0, target_err / 4.0)
    return _grid_route(req, target_err, cert_tol)


# ---------------------------------------------------------------------------
# Final assembly


def certify_error(phi0_err_bound, s, wave_norm_bound):
    """Minkowski chain: total bound = phi0 error + scale * wave norm."""
    if phi0_err_bound < 0 or float(s) < 0 or wave_norm_bound < 0:
        raise ValueError("error components must be nonnegative")
    return phi0_err_bound + float(s) * wave_norm_bound


def _rational_upper_root(total_mass: Fraction, p) -> Fraction:
    """Rational R >= total_mass^(1/p)."""
    r = float(total_mass) ** (1.0 / p)
    r = math.nextafter(math.nextafter(r, math.inf), math.inf)
    return as_rational(r)


def sensitize(req: ApproxRequest):
    """Run the full pipeline; returns (SensitiveApproximant, Certificate)."""
    check_finite_moment(req)

    eps = req.eps
    M = req.M
    total = req.mu.total_mass
    # a finite non-probability measure shrinks the wave by R >= mass^(1/p)
    # so the error chain survives; b = ceil(2 (M+1) R / eps) = ceil((M+1) / scale)
    R = _rational_upper_root(total, req.p) if total > 1 else 1
    scale = eps / (2 * R)
    wave = build_zigzag(eps / R, M)

    wave_ub = norms.wave_norm_bound(wave, req.mu, req.p)
    quad_tol = float(eps) / 100.0
    headroom = float(eps) - quad_tol - float(scale) * wave_ub
    # scale * wave_ub <= eps / 2, as the wave bound is capped at mass^(1/p)
    error_target = min(float(eps) / 2.0, headroom) * (1.0 - 1e-9)

    try:
        phi0, est = build_step_approximation(req, error_target=error_target)
    except (EvaluationError, NonIntegrableError) as exc:
        # the moment check's points can miss a pole that the grid route hits
        raise NonFiniteMomentError(
            f"target cannot be evaluated or integrated where the measure has mass: {exc}"
        ) from exc
    phi0_err = est.value + est.absolute_error_bound
    error_bound = certify_error(phi0_err, scale, wave_ub)

    Y = SensitiveApproximant(phi0=phi0, scale=scale, wave=wave,
                             eps=eps, M=M, p=req.p)
    endpoints = phi0.endpoint_pairs()
    if endpoints:
        w_lo = Fraction(*endpoints[0]) - 1
        w_hi = Fraction(*endpoints[-1]) + 1
    else:
        w_lo, w_hi = Fraction(-1), Fraction(1)
    cert = Certificate(
        target_text=req.target.source_text,
        measure_text=getattr(req.mu, "source_text", ""),
        p=req.p,
        eps=eps,
        M=M,
        b=wave.b,
        scale=scale,
        phi0=phi0,
        error_bound=error_bound,
        error_method="triangle-chain",
        min_abs_slope=Y.min_abs_slope(),
        sup_bound=Y.sup_bound(),
        nondiff_count_in_window=Y.nondiff_count(w_lo, w_hi),
        window=(w_lo, w_hi),
        quadrature_tolerance=quad_tol,
    )
    assert cert.min_abs_slope == scale * wave.b
    assert cert.min_abs_slope >= M + 1
    if error_bound + quad_tol >= float(eps):
        raise RefinementCapError(
            f"total certified bound {error_bound:.6g} + quadrature tolerance "
            f"{quad_tol:.6g} does not clear eps={float(eps):.6g}",
            achieved_error=error_bound,
        )
    return Y, cert
