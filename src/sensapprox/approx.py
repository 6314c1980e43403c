"""The construction pipeline: step-function approximation within eps/2,
then superposition of the scaled triangle wave to reach M-sensitivity
with certified total L^p error below eps.

Two routes produce the step function. When the target is detectably
piecewise constant, its cells are taken literally (exact). Otherwise a
midpoint staircase on an essential window is refined until the
quadrature-certified error passes. The open-set machinery
(approximate_borel_set, truncate_union) realizes the measure-theoretic
route for indicator data and is exercised on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import norms
from .funcspace import (
    SensitiveApproximant,
    StepFunction,
    build_zigzag,
)
from .intervals import (Interval, IntervalUnion, NEG_INF, POS_INF, as_rational,
                        uniform_grid)
from .measures import BorelMeasure
from .norms import NonIntegrableError, NormEstimate
from .parsing import (
    TargetFunction,
    eval_target,
    piecewise_constant_thresholds,
    target_evaluator,
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


def _pin_atoms(phi0: StepFunction, req: ApproxRequest, eta: Fraction) -> StepFunction:
    """Give the step function the exact target value around mu's atoms."""
    for loc, _m in req.mu.atoms:
        want = eval_target(req.target, loc)
        if phi0.eval(loc) == want:
            continue
        gap = eta
        for other, _ in req.mu.atoms:
            if other != loc:
                gap = min(gap, abs(other - loc) / 2)
        phi0 = phi0.override_on(loc - gap, loc + gap, want)
    return phi0


def _certified_distance(phi0: StepFunction, req: ApproxRequest, tol) -> NormEstimate:
    f = target_evaluator(req.target)
    knots = [float(pt) for pt in phi0.endpoints()]
    knots += [float(pt) for pt in req.mu.density_breakpoints()]
    return norms.lp_distance(f, phi0.eval_arr, req.mu, req.p, tol, knots=knots)


def _piecewise_constant_candidate(req: ApproxRequest):
    thresholds = piecewise_constant_thresholds(req.target)
    if thresholds is None:
        return None
    if not thresholds:  # constant target
        return StepFunction() if eval_target(req.target, 0) == 0 else None
    lo_val = eval_target(req.target, thresholds[0] - 1)
    hi_val = eval_target(req.target, thresholds[-1] + 1)
    if lo_val != 0 or hi_val != 0:
        return None  # unbounded support; grid route handles it
    # StepFunction drops the zero values
    return StepFunction(terms=[(eval_target(req.target, (a + b) / 2), a, b)
                               for a, b in zip(thresholds, thresholds[1:])])


def _grid_candidate(req: ApproxRequest, window, n_cells):
    lo, hi = window
    # even points are the cell ends, odd points the cell midpoints
    pts = uniform_grid(lo, hi, 2 * n_cells)
    terms = [(eval_target(req.target, mid), a, b)
             for a, mid, b in zip(pts[0::2], pts[1::2], pts[2::2])]
    return StepFunction(terms=terms), (hi - lo) / n_cells


def build_step_approximation(req: ApproxRequest, error_target=None):
    """Step function phi0 with certified ||phi0 - target||_p < eps/2.

    error_target (default eps/2) may be tightened by sensitize to leave
    room for the wave term in the total budget.
    """
    eps_f = float(req.eps)
    target_err = eps_f / 2.0 if error_target is None else float(error_target)
    target_err = min(target_err, eps_f / 2.0)
    cert_tol = min(eps_f / 100.0, target_err / 4.0)

    candidate = _piecewise_constant_candidate(req)
    if candidate is not None:
        candidate = _pin_atoms(candidate, req, eta=Fraction(1, 1024))
        est = _certified_distance(candidate, req, cert_tol)
        if est.value + est.absolute_error_bound < target_err:
            return candidate, est

    # generic grid route
    delta0 = min(1e-6, (target_err / 4.0) ** req.p)
    a, b = req.mu.essential_window(delta0)
    lo = as_rational(a)
    hi = as_rational(b)
    n_cells = 16
    best = None
    for round_no in range(14):
        phi0, cell_w = _grid_candidate(req, (lo, hi), n_cells)
        phi0 = _pin_atoms(phi0, req, eta=cell_w / 8)
        est = _certified_distance(phi0, req, cert_tol)
        achieved = est.value + est.absolute_error_bound
        if best is None or achieved < best[2]:
            best = (phi0, est, achieved)
        if achieved < target_err:
            return phi0, est
        n_cells *= 2
        if round_no % 3 == 2:
            width = hi - lo
            lo -= width / 4
            hi += width / 4
    raise RefinementCapError(
        f"refinement cap reached; best certified error {best[2]:.6g} "
        f">= target {target_err:.6g}",
        achieved_error=best[2],
    )


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
    # exact binary value: the bound holds for r, its decimal may lie below
    return Fraction(r)


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

    phi0, est = build_step_approximation(req, error_target=error_target)
    phi0_err = est.value + est.absolute_error_bound
    error_bound = certify_error(phi0_err, scale, wave_ub)

    Y = SensitiveApproximant(phi0=phi0, scale=scale, wave=wave,
                             eps=eps, M=M, p=req.p)
    endpoints = phi0.endpoints()
    if endpoints:
        w_lo = endpoints[0] - Fraction(1)
        w_hi = endpoints[-1] + Fraction(1)
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
