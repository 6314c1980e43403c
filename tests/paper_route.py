"""The paper's proof route for indicator data and its slope check, the
reference of the tests.

The paper proves density in two steps that rest on the outer regularity
of a finite Borel measure mu:

1. a Borel set B is replaced by an open superset V with
   mu(V \\ B) < tol^p (``approximate_borel_set``);
2. a countable union of intervals is cut to its shortest finite prefix
   whose tail mass is below tol^p (``truncate_union``).

The pipeline in ``sensapprox`` takes neither step: the if() threshold
ends and the atom pins of ``approx`` give indicators exactly. Acceptance
criteria 4 and 5 check these two steps as the reference, and the tests of
``measure_of`` and of the interval algebra check what they rest on.

The theorem's steep approximant Y = phi0 + s * wave has |Y'| = s b > M
wherever it is differentiable. ``slope_profile`` lists Y's affine cells
with their exact slopes, which the tests check against that identity.
This is a helper module: pytest collects no tests from it.

An interval's ends are Fractions (a float becomes its exact binary
value, see ``as_rational``) or +/-infinity, which must be open. A union
is kept in normal form: sorted, pairwise disjoint, no two neighbours
mergeable.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from sensapprox.intervals import as_rational


def _end(x):
    """An interval end: ±inf as itself, any other number as_rational's."""
    return x if x in (-math.inf, math.inf) else as_rational(x)


@dataclass(frozen=True)
class Interval:
    lo: object
    lo_closed: bool
    hi: object
    hi_closed: bool

    def __post_init__(self):
        object.__setattr__(self, "lo", _end(self.lo))
        object.__setattr__(self, "hi", _end(self.hi))
        if self.lo == -math.inf and self.lo_closed:
            raise ValueError("infinite endpoint must be open")
        if self.hi == math.inf and self.hi_closed:
            raise ValueError("infinite endpoint must be open")
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise ValueError("degenerate interval must be closed on both sides")

    def contains(self, x):
        return (self.lo < x < self.hi or (x == self.lo and self.lo_closed)
                or (x == self.hi and self.hi_closed))

    def intersect(self, other):
        """Intersection with another interval, or None if empty: the larger
        lower end and the smaller upper end, open if either is open there."""
        lo, lo_open = max((self.lo, not self.lo_closed), (other.lo, not other.lo_closed))
        hi, hi_closed = min((self.hi, self.hi_closed), (other.hi, other.hi_closed))
        if lo > hi or (lo == hi and (lo_open or not hi_closed)):
            return None
        return Interval(lo, not lo_open, hi, hi_closed)


def open_interval(lo, hi):
    return Interval(lo, False, hi, False)


def closed_interval(lo, hi):
    return Interval(lo, True, hi, True)


def point(x):
    return Interval(x, True, x, True)


@dataclass(frozen=True)
class IntervalUnion:
    """Finite union of intervals in normal form."""

    intervals: tuple = ()

    def __post_init__(self):
        merged = []
        for iv in sorted(self.intervals, key=lambda i: (i.lo, not i.lo_closed)):
            last = merged[-1] if merged else None
            if last and (last.hi > iv.lo
                         or (last.hi == iv.lo and (last.hi_closed or iv.lo_closed))):
                # the larger upper end, closed if either is closed there
                hi, hi_closed = max((last.hi, last.hi_closed), (iv.hi, iv.hi_closed))
                merged[-1] = Interval(last.lo, last.lo_closed, hi, hi_closed)
            else:
                merged.append(iv)
        object.__setattr__(self, "intervals", tuple(merged))

    @property
    def is_empty(self):
        return not self.intervals

    def all_open(self):
        return not any(iv.lo_closed or iv.hi_closed for iv in self.intervals)

    def contains_point(self, x):
        return any(iv.contains(x) for iv in self.intervals)

    def union(self, other):
        return IntervalUnion(self.intervals + other.intervals)

    def complement(self):
        out = []
        # cursor_closed: whether the cursor point itself is uncovered
        cursor, cursor_closed = -math.inf, False
        for iv in self.intervals:
            if cursor < iv.lo:
                out.append(Interval(cursor, cursor_closed, iv.lo, not iv.lo_closed))
            elif cursor == iv.lo and cursor_closed and not iv.lo_closed:
                out.append(point(cursor))
            cursor = iv.hi
            cursor_closed = not iv.hi_closed
        if cursor < math.inf:
            out.append(Interval(cursor, cursor_closed, math.inf, False))
        return IntervalUnion(out)

    def intersect(self, other):
        pieces = (a.intersect(b) for a in self.intervals for b in other.intervals)
        return IntervalUnion([iv for iv in pieces if iv is not None])

    def difference(self, other):
        return self.intersect(other.complement())

    def superset_of(self, other):
        return other.difference(self).is_empty


def measure_of(mu, s: IntervalUnion):
    """Mass under mu of a normal-form interval union (float).

    Atoms are counted exactly; each part takes its cdf_arr at all
    interval ends at once.
    """
    ivs = s.intervals
    mass = float(sum(m for loc, m in mu.atoms if any(iv.contains(loc) for iv in ivs)))
    ends = np.array([float(e) for iv in ivs for e in (iv.lo, iv.hi)])
    for w, kind in mu.parts:
        c = kind.cdf_arr(ends)
        mass += float(w) * math.fsum(c[1::2] - c[0::2])
    return mass


class TruncationCapError(RuntimeError):
    """Enumeration cap reached before the tail bound was met."""

    def __init__(self, message, achieved_tail):
        super().__init__(message)
        self.achieved_tail = achieved_tail


def approximate_borel_set(B: IntervalUnion, mu, p, tol) -> IntervalUnion:
    """Open finite-union superset V of B with mu(V \\ B) < tol^p.

    Non-open endpoints are enlarged outward by delta, halving delta
    until the added mass drops below tol^p (continuity from above).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    threshold = float(tol) ** p
    delta = Fraction(1)
    for _ in range(2000):
        V = IntervalUnion([
            open_interval(iv.lo - delta if iv.lo_closed else iv.lo,
                          iv.hi + delta if iv.hi_closed else iv.hi)
            for iv in B.intervals])
        if measure_of(mu, V.difference(B)) < threshold:
            return V
        delta /= 2
    raise RuntimeError("endpoint enlargement failed to converge")


def truncate_union(intervals, union_mass, mu, p, tol, cap):
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
        tail = float(union_mass) - measure_of(mu, IntervalUnion(prefix))
        if tail < threshold:
            return prefix
    raise TruncationCapError(
        f"enumeration exhausted with tail mass {tail:.6g} >= {threshold:.6g}",
        achieved_tail=tail,
    )


def slope_profile(Y, lo, hi):
    """Maximal affine cells of the window (lo, hi) of the approximant Y,
    with their exact slopes."""
    lo = as_rational(lo)
    hi = as_rational(hi)
    cuts = [lo] + Y.nondiff_points(lo, hi) + [hi]
    out = []
    s = Y.scale
    b = Y.wave.b
    for clo, chi in zip(cuts, cuts[1:]):
        mid = (clo + chi) / 2
        j = math.floor(mid * b)
        sign = 1 if j % 2 == 0 else -1
        out.append((clo, chi, sign * s * b))
    return out
