"""Certified L^p norms and distances against a BorelMeasure.

The quadrature path is adaptive bisection with a Simpson coarse/fine
pair per segment; kinks of the integrand (step-function endpoints, wave
lattice, density breakpoints) are inserted as mandatory knots so each
segment is smooth. The Monte Carlo path is an independent oracle used
for cross-validation and certificate verification.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .measures import BorelMeasure
from .parsing import EvaluationError


class NonIntegrableError(ValueError):
    """The integral estimate keeps growing under window enlargement."""


@dataclass(frozen=True)
class NormEstimate:
    value: float
    absolute_error_bound: float
    method: str  # adaptive-quadrature | closed-form | monte-carlo
    p: float
    n_samples: int | None = None
    seed: int | None = None


# ---------------------------------------------------------------------------
# Adaptive quadrature of g over segments

_MAX_SEGMENTS = 200_000
_MAX_ROUNDS = 60


def _simpson_pair(g, a, b):
    """Vectorized coarse/fine Simpson over arrays of segment bounds.

    The two endpoint samples are nudged slightly into the segment
    interior: knots sit exactly on kinks and removable discontinuities
    (open-interval step endpoints, density support boundaries), and the
    integral only sees the interior values.  The nudge is O(1e-9 * h),
    so the induced quadrature bias vanishes under refinement.
    """
    h = b - a
    x_lo = a + 1e-9 * h
    x_lo = np.where(x_lo > a, x_lo, np.nextafter(a, b))
    x_hi = b - 1e-9 * h
    x_hi = np.where(x_hi < b, x_hi, np.nextafter(b, a))
    x = np.stack([x_lo, a + 0.25 * h, a + 0.5 * h, a + 0.75 * h, x_hi])
    y = g(x.ravel()).reshape(x.shape)
    coarse = h / 6.0 * (y[0] + 4.0 * y[2] + y[4])
    fine = h / 12.0 * (y[0] + 4.0 * y[1] + 2.0 * y[2] + 4.0 * y[3] + y[4])
    return fine, np.abs(fine - coarse) / 15.0


def _adaptive(g, knots, budget):
    """Integrate g over [knots[0], knots[-1]]; returns (value, error_bound)."""
    a = np.asarray(knots[:-1], dtype=float)
    b = np.asarray(knots[1:], dtype=float)
    keep = b > a
    a, b = a[keep], b[keep]
    if len(a) == 0:
        return 0.0, 0.0
    vals, errs = _simpson_pair(g, a, b)
    if not np.all(np.isfinite(vals)):
        raise NonIntegrableError("non-finite quadrature contribution")
    heap = [(-e, lo, hi, v) for e, lo, hi, v in zip(errs, a, b, vals)]
    heapq.heapify(heap)
    n_segs = len(heap)
    total_err = float(errs.sum())
    for _ in range(_MAX_ROUNDS):
        if total_err <= budget or n_segs >= _MAX_SEGMENTS:
            break
        # split the worst batch of segments
        batch = []
        while heap and len(batch) < max(16, n_segs // 8):
            e, lo, hi, v = heapq.heappop(heap)
            if -e <= budget / (4.0 * max(n_segs, 1)):
                heapq.heappush(heap, (e, lo, hi, v))
                break
            batch.append((lo, hi, v, -e))
        if not batch:
            break
        lo = np.array([s[0] for s in batch])
        hi = np.array([s[1] for s in batch])
        mid = 0.5 * (lo + hi)
        v1, e1 = _simpson_pair(g, lo, mid)
        v2, e2 = _simpson_pair(g, mid, hi)
        if not (np.all(np.isfinite(v1)) and np.all(np.isfinite(v2))):
            raise NonIntegrableError("non-finite quadrature contribution")
        for (slo, shi, sv, serr), nv1, ne1, nv2, ne2, smid in zip(
            batch, v1, e1, v2, e2, mid
        ):
            total_err += ne1 + ne2 - serr
            heapq.heappush(heap, (-ne1, slo, smid, nv1))
            heapq.heappush(heap, (-ne2, smid, shi, nv2))
            n_segs += 1
    value = float(sum(item[3] for item in heap))
    total_err = float(sum(-item[0] for item in heap))
    return value, total_err


def _part_knots(wa, wb, knots):
    """Sorted distinct knots: the window ends plus the knots inside them."""
    k = np.asarray(knots, dtype=float)
    return np.unique(np.concatenate(([wa, wb], k[(wa < k) & (k < wb)])))


def _integral_abs_p(f, mu: BorelMeasure, p, budget, knots=()):
    """(integral of |f|^p d mu, error bound); raises NonIntegrableError."""

    def power(xs):
        return np.abs(f(xs)) ** p

    total = 0.0
    err = 0.0
    for loc, m in mu.atoms:
        total += float(m) * float(power(np.array([float(loc)]))[0])

    cont_w = sum(float(w) for w, _ in mu.parts)
    for w, kind in mu.parts:
        wf = float(w)
        part_budget = budget * (wf / cont_w) if cont_w > 0 else budget

        def g(xs, _k=kind, _w=wf):
            try:
                return power(xs) * _w * _k.pdf_arr(xs)
            except EvaluationError as exc:
                raise NonIntegrableError(f"integrand evaluation failed: {exc}") from exc

        windows = [kind.window(t) for t in (1e-6, 1e-9, 1e-12)]
        (a1, b1), (a2, b2), (a3, b3) = windows
        core, core_err = _adaptive(g, _part_knots(a1, b1, knots), part_budget / 2.0)
        # tail rings; for compactly supported kinds these are empty
        d_lo1, e_lo1 = _ring(g, a2, a1)
        d_hi1, e_hi1 = _ring(g, b1, b2)
        d_lo2, e_lo2 = _ring(g, a3, a2)
        d_hi2, e_hi2 = _ring(g, b2, b3)
        d1 = d_lo1 + d_hi1
        d2 = d_lo2 + d_hi2
        if not all(map(math.isfinite, (core, d1, d2))):
            raise NonIntegrableError("integral diverges (non-finite)")
        if d2 > d1 and d2 > max(part_budget, 1e-300):
            raise NonIntegrableError(
                f"integral keeps growing under window enlargement "
                f"(increments {d1:.3e} -> {d2:.3e})"
            )
        total += core + d1 + d2
        err += core_err + e_lo1 + e_hi1 + e_lo2 + e_hi2 + d2
    return total, err


def _ring(g, a, b):
    if b <= a:
        return 0.0, 0.0
    knots = list(np.linspace(a, b, 65))
    lo = np.array(knots[:-1])
    hi = np.array(knots[1:])
    vals, errs = _simpson_pair(g, lo, hi)
    if not np.all(np.isfinite(vals)):
        raise NonIntegrableError("non-finite tail contribution")
    return float(vals.sum()), float(errs.sum())


def _norm_from_integral(total, err, p):
    total = max(total, 0.0)
    value = total ** (1.0 / p)
    bound = (total + err) ** (1.0 / p) - value + 1e-15
    return value, bound


# ---------------------------------------------------------------------------
# Public operations


def lp_norm(f, mu: BorelMeasure, p, tol, knots=()) -> NormEstimate:
    """(integral |f|^p d mu)^(1/p) with an a posteriori error bound.

    f is an array-callable; knots are mandatory subdivision points
    (kinks of f). The internal integral budget is tol^p, which by
    subadditivity of t -> t^(1/p) caps the norm error at tol when the
    quadrature meets its budget; the reported bound is always honest.
    """
    if p < 1 or not math.isfinite(p):
        raise ValueError("p must satisfy 1 <= p < infinity")
    if tol <= 0:
        raise ValueError("tol must be positive")
    total, err = _integral_abs_p(f, mu, p, budget=tol**p, knots=knots)
    value, bound = _norm_from_integral(total, err, p)
    return NormEstimate(value=value, absolute_error_bound=bound,
                        method="adaptive-quadrature", p=p)


def lp_distance(f, g, mu: BorelMeasure, p, tol, knots=()) -> NormEstimate:
    """lp_norm of the pointwise difference f - g."""
    return lp_norm(lambda xs: f(xs) - g(xs), mu, p, tol, knots=knots)


def mc_norm(f, mu: BorelMeasure, p, n, seed) -> NormEstimate:
    """Monte Carlo ||f||_{L^p(mu)} with a 4-sigma delta-method error radius.

    Draws from mu / mass, then scales value and radius by mass^(1/p). The
    estimate is a mean and a variance over the draws, symmetric in them,
    so the order in which ``mu.sample`` returns them (one ascending block
    per component) leaves it unchanged up to the rounding of the sums.
    """
    if n < 1000:
        raise ValueError("mc_norm requires n >= 1000")
    xs = mu.sample(n, seed)
    z = np.abs(f(xs)) ** p
    m = float(z.mean())
    sd = float(z.std(ddof=1)) / math.sqrt(n)
    root = float(mu.total_mass) ** (1.0 / p)
    if m <= 0.0:
        value, radius = 0.0, (4.0 * sd) ** (1.0 / p)
    else:
        value = m ** (1.0 / p)
        radius = 4.0 * sd * (1.0 / p) * m ** (1.0 / p - 1.0)
    return NormEstimate(value=value * root, absolute_error_bound=radius * root,
                        method="monte-carlo", p=p, n_samples=n, seed=seed)


def wave_norm_bound(wave, mu: BorelMeasure, p) -> float:
    """Upper bound for the wave's L^p norm; at most total_mass^(1/p)."""
    crude = float(mu.total_mass) ** (1.0 / p)
    crude = math.nextafter(crude, math.inf)
    lo_hi = [kind.window(1e-9) for _, kind in mu.parts]
    if not lo_hi:
        # purely atomic: exact sum over atoms
        total = sum(
            float(m) * float(wave.eval(loc)) ** p for loc, m in mu.atoms
        )
        return min(crude, total ** (1.0 / p) + 1e-12)
    lo = min(a for a, _ in lo_hi)
    hi = max(b for _, b in lo_hi)
    lattice = wave.lattice_range(lo, hi)
    # j/b in float64 is the correctly rounded float(Fraction(j, b)) for |j| < 2^53
    knots = np.arange(lattice.start, lattice.stop) / wave.b
    est = lp_norm(wave.eval_arr, mu, p, tol=1e-3, knots=knots)
    return min(crude, est.value + est.absolute_error_bound)
