"""Certified L^p norms and distances against a BorelMeasure.

The quadrature path is adaptive bisection with a Simpson coarse/fine
pair per segment; kinks are mandatory knots, so that each segment is
smooth: a caller passes the integrand's own, and the quadrature adds the
measure's atoms and density jumps. Each bisection round costs one
Simpson call, so one integrand call, whatever the number of segments it
splits. The Monte Carlo path is an
independent oracle used for cross-validation and certificate
verification; it draws, evaluates and folds its sample one cache-sized
block at a time, so that its memory does not grow with the number of
draws. The wave less its mean 1/2, which is what the error chain
charges, has a closed-form bound that costs the same at every frequency;
the wave lattice is never a knot source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import BLOCK, BorelMeasure
from .parsing import EvaluationError


class NonIntegrableError(ValueError):
    """The integral estimate keeps growing under window enlargement."""


@dataclass(frozen=True)
class NormEstimate:
    value: float
    absolute_error_bound: float


# ---------------------------------------------------------------------------
# Adaptive quadrature of g over segments

_MAX_SEGMENTS = 200_000
_MAX_ROUNDS = 60


def simpson_nodes(a, b):
    """The five Simpson nodes of each segment [a, b] of two arrays, node j
    of segment i at [j, i]: the quarter points, and the two ends nudged
    slightly into the segment interior. Knots sit exactly on kinks and
    removable discontinuities (open-interval step endpoints, density
    support boundaries), and the integral only sees the interior values.
    The nudge is O(1e-9 * h), so the induced quadrature bias vanishes under
    refinement."""
    h = b - a
    x = np.empty((5, len(a)))
    np.maximum(a + 1e-9 * h, np.nextafter(a, b), out=x[0])
    np.multiply(h, [[0.25], [0.5], [0.75]], out=x[1:4])
    x[1:4] += a
    np.minimum(b - 1e-9 * h, np.nextafter(b, a), out=x[4])
    return x


def simpson(h, y):
    """The fine (composite, two-panel) Simpson value of each segment of
    width h from its node values y, laid out as simpson_nodes lays out
    the nodes. A non-finite value raises NonIntegrableError."""
    fine = h / 12.0 * (y[0] + 4.0 * y[1] + 2.0 * y[2] + 4.0 * y[3] + y[4])
    if not np.isfinite(fine).all():
        raise NonIntegrableError("non-finite quadrature contribution")
    return fine


def _simpson_pair(g, a, b):
    """Vectorized coarse/fine Simpson over arrays of segment bounds. g is
    called once, on the flat array of simpson_nodes, node j of segment i
    at position j * len(a) + i.
    """
    h = b - a
    y = g(simpson_nodes(a, b).ravel()).reshape(5, -1)
    coarse = h / 6.0 * (y[0] + 4.0 * y[2] + y[4])
    fine = simpson(h, y)
    return fine, np.abs(fine - coarse) / 15.0


def _adaptive(g, pieces, budget):
    """Integrate g over the pieces, each a sorted array of knots from its
    lower to its upper end; returns (value, error_bound).

    The segments are the columns (lo, hi, value, error) of one array. Each
    round bisects the max(16, n // 8) segments of largest error, ties going
    to the smaller left end, that carry more than budget / (4 n) each.
    """
    lo = np.concatenate([k[:-1] for k in pieces])
    hi = np.concatenate([k[1:] for k in pieces])
    keep = hi > lo
    lo, hi = lo[keep], hi[keep]
    if not len(lo):
        return 0.0, 0.0
    seg = np.array([lo, hi, *_simpson_pair(g, lo, hi)])
    for _ in range(_MAX_ROUNDS):
        n = seg.shape[1]
        if seg[3].sum() <= budget or n >= _MAX_SEGMENTS:
            break
        worst = np.lexsort((seg[0], -seg[3]))[:max(16, n // 8)]
        split = worst[seg[3, worst] > budget / (4.0 * n)]
        if not len(split):
            break
        lo, hi = seg[0, split], seg[1, split]
        mid = 0.5 * (lo + hi)
        # the left halves, then the right halves
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        seg = np.concatenate((np.delete(seg, split, axis=1),
                              [lo, hi, *_simpson_pair(g, lo, hi)]), axis=1)
    return float(seg[2].sum()), float(seg[3].sum())


# ---------------------------------------------------------------------------
# Public operations

# a part's core is its spans at the first tail, and its tail rings, of 64
# Simpson segments each, lie between the hulls of its spans at the next two
TAILS = (1e-6, 1e-9, 1e-12)


def abs_pow(d, p, out=None):
    """|d|^p, inf past the float range, with no warning: the one p-th power
    of the quadrature and the grid route's estimate.
    It is np.abs, then the in-place ``**=``, so that at p = 2 it is numpy's
    square. It writes into ``out``, which may be d itself, or else into a
    new array."""
    out = np.abs(d, out=out)
    with np.errstate(over="ignore"):  # an inf fails every check downstream
        out **= p
    return out


def lp_norm(f, mu: BorelMeasure, p, tol, knots=()) -> NormEstimate:
    """(integral |f|^p d mu)^(1/p) with an a posteriori error bound.

    f is an array-callable; knots are mandatory subdivision points, the
    kinks of f (the quadrature adds mu's own). The internal integral
    budget is tol^p, which by subadditivity of t -> t^(1/p) caps the norm
    error at tol when the quadrature meets its budget; the reported bound
    is the quadrature's a posteriori estimate, not an enclosure. Raises
    NonIntegrableError where the integral looks infinite.
    """
    if p < 1 or not math.isfinite(p):
        raise ValueError("p must satisfy 1 <= p < infinity")
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    budget = float(abs_pow(tol, p))  # inf past the float range
    knots = np.concatenate((np.asarray(knots, dtype=float),
                            [float(x) for x in mu.density_breakpoints()]))
    total = err = 0.0
    for loc, m in mu.atoms:
        try:
            total += float(m) * float(abs_pow(f(np.array([float(loc)])), p)[0])
        except EvaluationError as exc:
            raise NonIntegrableError(f"integrand evaluation failed at atom {loc}: {exc}") from exc

    cont_w = sum(float(w) for w, _ in mu.parts)
    for w, kind in mu.parts:
        wf = float(w)
        part_budget = budget * (wf / cont_w) if cont_w > 0 else budget

        def g(xs, _k=kind, _w=wf):
            try:
                return abs_pow(f(xs), p) * _w * _k.pdf_arr(xs)
            except EvaluationError as exc:
                raise NonIntegrableError(f"integrand evaluation failed: {exc}") from exc

        spans = [kind.spans(t) for t in TAILS]
        # the ring ends are the hulls of the spans, and the core is the
        # spans at the first tail, each cut at the knots inside it: a pwd
        # cell of density 0 is no piece
        (a1, b1), (a2, b2), (a3, b3) = [(s[0][0], s[-1][1]) for s in spans]
        pieces = [np.unique(np.concatenate(([a, b], knots[(a < knots) & (knots < b)])))
                  for a, b in spans[0]]
        core, core_err = _adaptive(g, pieces, part_budget / 2.0)
        # the tail rings below and above the core, then below and above the
        # first rings; for compactly supported kinds they are empty
        rings = [_adaptive(g, [np.linspace(a, b, 65)], math.inf)
                 for a, b in ((a2, a1), (b1, b2), (a3, a2), (b2, b3))]
        d1 = rings[0][0] + rings[1][0]
        d2 = rings[2][0] + rings[3][0]
        if not all(map(math.isfinite, (core, d1, d2))):
            raise NonIntegrableError("integral diverges (non-finite)")
        if d2 > d1 and d2 > max(part_budget, 1e-300):
            raise NonIntegrableError(
                f"integral keeps growing under window enlargement "
                f"(increments {d1:.3e} -> {d2:.3e})"
            )
        total += core + d1 + d2
        err += sum((e for _, e in rings), core_err) + d2
    value = max(total, 0.0) ** (1.0 / p)
    bound = (max(total, 0.0) + err) ** (1.0 / p) - value + 1e-15
    return NormEstimate(value=value, absolute_error_bound=bound)


def lp_distance(f, g, mu: BorelMeasure, p, tol, knots=()) -> NormEstimate:
    """lp_norm of the pointwise difference f - g."""
    return lp_norm(lambda xs: f(xs) - g(xs), mu, p, tol, knots=knots)


def mc_norm(f, mu: BorelMeasure, p, n, seed) -> NormEstimate:
    """Monte Carlo ||f||_{L^p(mu)} with a 4-sigma delta-method error radius.

    Draws from mu / mass, then scales value and radius by mass^(1/p). The
    draws come from ``mu.sample_blocks``, one to each of n equal strata,
    ``BLOCK`` at a time, each mapped in place, and f is called on one
    block; it must map each point on its own, and may return an array of
    its own that it writes again for the next block, as verify's does.
    |f/u|^p overwrites the block, u a scale that keeps the powers in the
    float range, and is folded into two running sums: S of the
    |f/u|^p, and D of m s^2 over groups of m neighbouring draws, s^2
    their sample variance. A group is four strata, save the sample's
    last, which takes the 4 to 7 draws that are left. The mean is S / n,
    and D / n^2 estimates its variance (Cochran, *Sampling Techniques*,
    3rd ed., 1977, ch. 5A, on collapsed strata). One draw per stratum
    shows no variance within a stratum, so the strata are collapsed into
    groups. Two draws per stratum and their plain differences, tried
    before, missed the exact norm in 26 of 200 seeds for x|exponential(1)
    at p=2 and 10^4 draws, as a few tail strata hold most of the
    variance; a group adds the spread between its strata, which there is
    large. So no array of n floats is made, and no array of BLOCK floats
    per block where f makes none. The radius can still miss a jump: a
    group sees it only where its draws fall on both sides, so for a
    target with a single jump, constant elsewhere, such as an indicator,
    the radius can be 0 while the error is up to 1/n times the jump.
    """
    if n < 1000:
        raise ValueError("mc_norm requires n >= 1000")
    total = spread = top = 0.0
    # a block's squared differences, of pairs and then of groups, in one
    # array made once per call
    squares = np.empty(min(n, BLOCK) // 2)
    # the sample's last group, gathered from the one or two blocks that
    # hold it
    first = n - 4 - n % 4
    last = np.empty(n - first)
    # the draws before the block, and the unit: the sums are in units of
    # u^p and u^2p, where u is 1 while the largest |f| so far, top, has its
    # p-th power within 2^+-480, so that a sum of squared powers stays in
    # the float range; else u is top, whose power is 1 at every p, and the
    # sums so far are scaled down to it (they are 0 where u falls from 1).
    # An inf or nan |f| leaves the estimate inf or nan, which passes no
    # check
    start, u = 0, 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for z in mu.sample_blocks(n, seed):
            top = max(top, float(np.abs(f(z), out=z).max()))  # |f| into the block
            if 0.0 < top < math.inf and (u != 1.0 or abs(p * math.log2(top)) > 480):
                shrink = (u / top) ** p if top > u else 1.0
                total, spread, u = total * shrink, spread * shrink * shrink, top
                last[:max(start - first, 0)] *= shrink
                z /= u
            z **= p
            total += float(z.sum())
            # the block's draws from index first of the sample on
            cut = min(max(first - start, 0), z.size)
            last[start + cut - first:start + z.size - first] = z[cut:]
            start += z.size
            z = z[:cut]
            # the draws a, b, c, d of a group have 4 s^2 = 2/3 ((a - b)^2
            # + (c - d)^2) + 1/3 (a + b - c - d)^2
            d = np.subtract(z[::2], z[1::2], out=squares[:z.size // 2])
            d *= d
            pairs = float(d.sum())
            np.add(z[::2], z[1::2], out=z[::2])
            d = np.subtract(z[::4], z[2::4], out=squares[:z.size // 4])
            d *= d
            spread += (2.0 * pairs + float(d.sum())) / 3.0
        spread += last.size * float(last.var(ddof=1))
    mean, sd = total / n, math.sqrt(spread) / n
    root = u * float(mu.total_mass) ** (1.0 / p)
    if mean <= 0.0:
        value, radius = 0.0, (4.0 * sd) ** (1.0 / p)
    else:
        value = mean ** (1.0 / p)
        radius = 4.0 * sd * (1.0 / p) * mean ** (1.0 / p - 1.0)
    return NormEstimate(value=value * root, absolute_error_bound=radius * root)


def _gap_upper(u, p):
    """Upper bound of u - u^(p+1) for an exact u in [0, 1]: 0 at 0 and 1,
    else the float value plus its rounding error (the slope in u lies in
    [-p, 1], and the power and the difference round once each)."""
    if u in (0, 1):
        return 0.0
    uf = float(u)
    return max(uf - uf ** (p + 1), 0.0) + (p + 3) * 2.0**-53


def _raise_ulps(x, ulps):
    """x raised by a relative ulps * 2^-52, then to the next float up."""
    return math.nextafter(x * (1.0 + ulps * 2.0**-52), math.inf)


def wave_norm_bound(wave, mu: BorelMeasure, p) -> float:
    """Upper bound for ||wave - 1/2||_{L^p(mu)}; at most total_mass^(1/p) / 2.

    With q = |2 wave - 1|, |wave - 1/2|^p = 2^-p q^p averages 2^-p / (p+1)
    over every half-period, so G, the primitive of |wave - 1/2|^p -
    2^-p / (p+1), is 0 at the lattice points and at their midpoints, and
    |G| = 2^-(p+1) (q - q^(p+1)) / (b(p+1)) <= 2^-(p+1) c_p / (b(p+1)), with
    c_p = p (p+1)^(-1-1/p). Integrating by parts, a unit density f adds
    2^-p / (p+1) - int G df <= 2^-p (1 + S/(2b)) / (p+1), where S sums
    |jump| (q - q^(p+1)) over the jumps of f plus c_p times the rest of its
    variation (a Koksma-type inequality: Kuipers & Niederreiter, *Uniform
    Distribution of Sequences*, 1974, ch. 2). Atoms add
    m |wave(loc) - 1/2|^p. The sum and its root are rounded up past their
    error.
    """
    crude = float(mu.total_mass) ** (1.0 / p) / 2.0
    crude = math.nextafter(crude, math.inf)
    c_p = p * (p + 1) ** (-1.0 - 1.0 / p)
    terms = [float(m) * (float(abs(2 * wave.eval(loc) - 1)) / 2) ** p for loc, m in mu.atoms]
    for w, kind in mu.parts:
        jumps, rest = kind.variation()
        s = math.fsum([abs(float(d)) * _gap_upper(abs(2 * wave.eval(x) - 1), p)
                       for x, d in jumps] + [c_p * float(rest)])
        # not 2.0**p or 2 * b, which pass the float range at a large p or b
        terms.append(float(w) * (1.0 + s / wave.b / 2) / (p + 1) * 0.5**p)
    # nonnegative terms of a few roundings each, and an atom's term carries
    # p times the rounding of its q: p + 32 ulps exceed the sum's error
    total = _raise_ulps(math.fsum(terms), p + 32)
    # an ulp of pow, and the rounding of 1/p times |ln total|
    root = _raise_ulps(total ** (1.0 / p), abs(math.log(total)) / p + 2)
    return min(crude, root)
