"""The construction pipeline: a step-function approximation phi0 within the
share of eps that sensitize gives it, then superposition of the scaled
triangle wave to reach M-sensitivity with certified total L^p error below eps.
This module decides Y and its bound: sensitize returns a Certificate of
the request, Y, the bound and the method that gave it. The certificate
file's other fields are functions of the request and Y, and cli derives
them.

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
singleton. So the pipeline takes neither step of the paper's route for
indicator data, an open superset of a Borel set and a finite prefix of a
union of intervals: the threshold ends and the atom pins give indicators
exactly. That route is no part of the package; the tests keep it as the
reference of acceptance criteria 4 and 5.
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
from .intervals import as_rational
from .measures import BorelMeasure, _check_floats
from .norms import NonIntegrableError
from .parsing import (
    EvaluationError,
    TargetFunction,
    eval_target,
    target_evaluator,
    thresholds,
)


class RefinementCapError(RuntimeError):
    """Grid refinement budget exhausted before the error target was met."""


class NonFiniteMomentError(ValueError):
    """Numerical evidence that the target is not in L^p of the measure."""


@dataclass(frozen=True)
class ApproxRequest:
    """The inputs (X, mu, p, eps, M) that Y answers, held once. Each number
    is read by as_rational, as every number the library takes is: p is
    then held as its float, eps and M as the exact rationals."""
    target: TargetFunction
    mu: BorelMeasure
    p: float
    eps: Fraction
    M: Fraction

    def __post_init__(self):
        for name in ("p", "eps", "M"):
            try:
                object.__setattr__(self, name, as_rational(getattr(self, name)))
            except ValueError as exc:  # NaN, ±inf or a text that is no number
                raise ValueError(f"request {name}: {exc}") from None
        if self.p < 1:
            raise ValueError("p must satisfy 1 <= p < infinity")
        _check_floats("request", "p", self.p, error=ValueError)
        object.__setattr__(self, "p", float(self.p))
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        _check_floats("request", "eps", self.eps, error=ValueError)
        if self.M < 0:
            raise ValueError("M must be nonnegative")

    @property
    def quadrature_tolerance(self) -> float:
        """The certifying quadrature's tolerance; sensitize keeps the total
        bound at least this far below eps."""
        return float(self.eps) / 100.0


@dataclass(frozen=True)
class Certificate:
    """The request, its approximant Y, and the certified bound on
    ||X - Y||_p with the method that gave it. Every other certificate
    field is a function of the request and Y, which cli writes from them."""
    request: ApproxRequest
    approximant: SensitiveApproximant
    error_bound: float
    error_method: str


# ---------------------------------------------------------------------------
# Moment hypothesis check


def target_norm(target: TargetFunction, mu: BorelMeasure, p, tol):
    """lp_norm of target over mu, with its if() thresholds among the knots,
    so a jump there is a cell end, as in the grid route's first cells."""
    return norms.lp_norm(target_evaluator(target), mu, p, tol,
                         knots=[float(t) for t in thresholds(target)])


def check_finite_moment(req: ApproxRequest):
    """Flag targets whose p-th moment estimate diverges; cannot prove it.
    It is the only test of the tails of |X|^p: phi0 follows X out to the
    spans that the certification integrates, which so sees only the
    residual X - c - phi0 there."""
    try:
        target_norm(req.target, req.mu, req.p, 1e-3)
    except NonIntegrableError as exc:
        raise NonFiniteMomentError(
            f"target appears to have non-finite {req.p}-th moment: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# Step-function approximation


# Refinement budget of the grid route. A refinement run ends when the float
# estimate of ||target - phi0||_p^p falls to a share of target_err^p, at
# first (63/64)^p, or after _MAX_ROUNDS rounds or at _MAX_CELLS cells. The
# estimate tracks the certified distance closely, so the first run aims
# at nearly all of target_err. The quadrature then certifies phi0, at most
# _MAX_CHECKS times; a failed certification halves the share for the next
# run.
_MAX_CELLS = 1 << 17
_MAX_ROUNDS = 200
_MAX_CHECKS = 8


def _dyadic_cells(span_lo, span_hi, n):
    """Ends of the cells that cover [span_lo, span_hi], all of the least
    power-of-two width at least (span_hi - span_lo) / n; every end is a
    multiple of the width, so every later midpoint of these cells is
    exact. A cell that the grid route ends at a threshold or at a piece's
    end has no exact midpoint in general; halving rounds it to a float."""
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


def value_quantum(mu: BorelMeasure, p, target_err) -> float:
    """The power of two whose multiples are phi0's values: the largest one
    whose rounding error, at most half of it, costs at most target_err / 128
    in L^p(mu)."""
    root = float(mu.total_mass) ** (1.0 / p)
    return 2.0 ** -math.ceil(math.log2(64.0 * root / target_err))


def build_step_approximation(req: ApproxRequest, target_err, centre=0):
    """Step function phi0 with certified ||target - centre - phi0||_p <
    target_err, by greedy refinement on dyadic cells with short values
    (adaptive tree approximation: DeVore, *Acta Numerica* 1998, sec. 3;
    Binev & DeVore, *Numer. Math.* 2004). The certificate is a quadrature
    of tolerance ``req.quadrature_tolerance``; sensitize sets target_err to
    all of eps that the wave and that tolerance leave, and centre, an exact
    multiple of the value quantum, to about the wave's mean.

    The pieces are ``BorelMeasure.spans`` at the outer tail of the
    quadrature, ``norms.TAILS[-1]``: every part's spans there (its window
    less the pwd cells of density 0), merged into sorted disjoint pieces.
    The first cells tile the hull of the pieces, about 16 cells of one
    power-of-two width, each cut at the target's if() thresholds and at
    the pieces' ends inside it; a first cell is kept when its midpoint
    lies in a piece. So every cell, and each half of a split, lies in one
    piece, and the outer rows end at the pieces' ends, where the
    certification stops integrating. A cell's value is the target at the
    cell's midpoint, rounded to a multiple of a power of two that costs
    at most target_err / 128 in L^p, less centre; the target is never
    evaluated outside the pieces, where mu has no mass. Each round
    estimates the error of the new cells by Simpson's rule on floats,
    then halves the fewest worst cells that hold the error to be removed.
    The rounds aim the estimate at (63/64)^p target_err^p; a failed
    certification halves the p-th power of the aim and refines again.
    A deviation large enough for one Monte Carlo draw to fail a check
    weighs 10^6 times more in the estimate. Each run of touching cells of
    one value is one row of phi0; cells of two pieces never touch, so no
    row spans a gap between pieces.
    """
    target, shift = target_evaluator(req.target), float(centre)
    f = lambda xs: target(xs) - shift  # noqa: E731
    p = req.p
    parts = [(float(w), kind) for w, kind in req.mu.parts]
    pieces = req.mu.spans(norms.TAILS[-1])
    edges = np.array(pieces, dtype=float).reshape(-1)  # a0, b0, a1, b1, ...
    hull = (pieces[0][0], pieces[-1][1]) if pieces else (0.0, 0.0)
    ends = _dyadic_cells(*hull, 16)
    # every if() threshold inside the hull is a cell end, so that a jump or
    # kink of the target there is one; a row that ends at a threshold ends
    # at the threshold itself, which may be no float. Every piece end is a
    # cell end too, so each cell lies in one piece or in a gap
    exact = {float(t): t for t in thresholds(req.target) if hull[0] < t < hull[1]}
    ends = np.union1d(ends[(hull[0] < ends) & (ends < hull[1])], [*exact, *edges])
    quantum = value_quantum(req.mu, p, target_err)
    # one draw where |target - v|^p exceeds 1000 target_err^p can fail a
    # Monte Carlo check of 1000 draws, the fewest that verify takes, on its
    # own; such deviations weigh 10^6 times their size in the estimate, so
    # that the mass holding them carries at most 10^-6 of the budget
    outlier = 1000.0 * target_err**p

    def evaluate(lo, hi):
        """Short values and error estimates of sorted cells."""
        v = np.round(f(0.5 * (lo + hi)) / quantum) * quantum

        def g(xs):
            step = v[np.searchsorted(lo, xs, side="right") - 1]
            d = norms.abs_pow(f(xs) - step, p)
            d[d > outlier] *= 1e6
            return d * sum(w * kind.pdf_arr(xs) for w, kind in parts)
        return v, norms._simpson_pair(g, lo, hi)[0]

    lo, hi = ends[:-1], ends[1:]
    keep = np.searchsorted(edges, 0.5 * (lo + hi), side="right") % 2 == 1  # in a piece
    lo, hi = lo[keep], hi[keep]
    v, err = evaluate(lo, hi)
    # each atom of mu, listed once, with the target's exact value there, a
    # float as its exact binary value, less centre; StepFunction keeps a pin
    # only where phi0 misses that value
    pins = [(loc, as_rational(eval_target(req.target, loc)) - centre)
            for loc in dict.fromkeys(loc for loc, _ in req.mu.atoms)]
    share = (63 / 64)**p
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
            v[fresh], err[fresh] = evaluate(lo[fresh], hi[fresh])
        # each run of touching cells of one value is one row: cut[j] says
        # that a row ends before cell j; cells of two pieces never touch, so
        # no row spans a gap between pieces. StepFunction takes each float
        # as its exact binary value
        cut = np.ones(len(lo) + 1, dtype=bool)
        cut[1:-1] = (lo[1:] != hi[:-1]) | (v[1:] != v[:-1])
        starts = cut[:-1]
        terms = [(x, exact.get(a, a), exact.get(b, b)) for a, b, x in
                 zip(lo[starts].tolist(), hi[cut[1:]].tolist(), v[starts].tolist()) if x]
        phi0 = StepFunction(terms=terms, exceptions=pins)
        est = norms.lp_distance(f, phi0.eval_arr, req.mu, p, req.quadrature_tolerance,
                                knots=phi0.endpoint_floats())
        achieved = est.value + est.absolute_error_bound
        best = min(best, achieved)
        if achieved < target_err:
            return phi0, est
        if err.sum() > goal:
            break  # refinement stopped short of the goal: no retry helps
        share = min(share, err.sum() / target_err**p) / 2.0
    raise RefinementCapError(
        f"refinement cap reached; best certified error {best:.6g} "
        f">= target {target_err:.6g}"
    )


# ---------------------------------------------------------------------------
# Final assembly


def certify_error(phi0_err_bound, s, wave_norm_bound, offset=0):
    """Minkowski chain: total bound = phi0 error + scale * wave norm +
    offset, the exact sum rounded up to a float."""
    if phi0_err_bound < 0 or float(s) < 0 or wave_norm_bound < 0 or offset < 0:
        raise ValueError("error components must be nonnegative")
    total = Fraction(phi0_err_bound) + Fraction(s) * Fraction(wave_norm_bound) + offset
    bound = float(total)
    return bound if bound >= total else math.nextafter(bound, math.inf)


def _rational_upper_root(total_mass: Fraction, p) -> Fraction:
    """Rational R >= total_mass^(1/p)."""
    r = float(total_mass) ** (1.0 / p)
    r = math.nextafter(math.nextafter(r, math.inf), math.inf)
    return as_rational(r)


def wave_centre(req: ApproxRequest, scale: Fraction, headroom):
    """The constant c that phi0 takes of the wave's mean scale / 2, and
    the offset |c - scale/2| R' >= ||c - scale/2||_p, R' >= mass^(1/p)
    rational and 1 at mass 1. c is the multiple of value_quantum(headroom)
    nearest scale / 2, so the offset is about headroom / 128 at most. The build's
    target_err is below headroom, so its quantum is this one or a smaller
    power of two, and c is a multiple of it too: a constant target keeps
    exact row values, and an atom's pin its row value."""
    quantum = Fraction(value_quantum(req.mu, req.p, headroom))
    centre = round(scale / 2 / quantum) * quantum
    mass = req.mu.total_mass
    root = 1 if mass == 1 else _rational_upper_root(mass, req.p)
    return centre, abs(centre - scale / 2) * root


def sensitize(req: ApproxRequest):
    """Run the full pipeline; returns the Certificate of Y = phi0 + scale * wave,
    which is its approximant. phi0 approximates X - c, c from wave_centre,
    so that the chain ||X - Y|| <= ||X - c - phi0|| + scale ||wave - 1/2||
    + ||c - scale/2|| charges the wave less its mean: about half of its
    norm."""
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
    quad_tol = req.quadrature_tolerance
    headroom = float(eps) - quad_tol - float(scale) * wave_ub
    centre, offset = wave_centre(req, scale, headroom)
    # the one split of eps: phi0 gets all that the wave, the offset and the
    # quadrature leave (the paper's eps / 2 for phi0 is a device of its
    # proof); the wave takes about (eps/4)(p+1)^(-1/p), at most eps / 4 as
    # wave_ub <= mass^(1/p) / 2, and the offset, twice over, about
    # headroom / 64 at most
    target_err = (headroom - 2 * float(offset)) * (1.0 - 1e-9)

    try:
        phi0, est = build_step_approximation(req, target_err, centre)
    except (EvaluationError, NonIntegrableError) as exc:
        # the moment check's points can miss a pole that the grid route hits
        raise NonFiniteMomentError(
            f"target cannot be evaluated or integrated where the measure has mass: {exc}"
        ) from exc
    phi0_err = est.value + est.absolute_error_bound
    error_bound = certify_error(phi0_err, scale, wave_ub, offset)

    Y = SensitiveApproximant(phi0=phi0, scale=scale, wave=wave)
    assert Y.min_abs_slope() >= M + 1
    if error_bound + quad_tol >= float(eps):
        raise RefinementCapError(
            f"total certified bound {error_bound:.6g} + quadrature tolerance "
            f"{quad_tol:.6g} does not clear eps={float(eps):.6g}"
        )
    return Certificate(request=req, approximant=Y, error_bound=error_bound,
                       error_method="triangle-chain")
