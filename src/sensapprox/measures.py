"""Finite Borel measures on the real line.

A measure is a finite mixture of point atoms and absolutely continuous
components (uniform, normal, exponential, piecewise-polynomial density).
Masses of interval unions are closed-form for atom/uniform/piecewise
parts (exact rational arithmetic), error-function based for normal
parts, and exponential-CDF based for exponential parts. Sampling is by
composition: pick a component, then invert its CDF exactly (Devroye,
*Non-Uniform Random Variate Generation*, 1986, ch. 2).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist

import numpy as np
from scipy.special import erf as _erf_arr
from scipy.special import ndtri

from .intervals import (Interval, IntervalUnion, NEG_INF, POS_INF, as_rational,
                        uniform_grid)

_SQRT2 = math.sqrt(2.0)
# largest float below 1: keeps ndtri and log1p finite at the top end
_BELOW_ONE = math.nextafter(1.0, 0.0)


def _pieces(masses, u):
    """Split u by cumulative masses: yield (i, hit, t) per piece i that u
    hits, where t is u[hit] less the mass of the pieces before i."""
    if len(masses) == 1:
        yield 0, slice(None), u  # no index or copy of u
        return
    upper = np.array([float(c) for c in itertools.accumulate(masses)])
    lower = np.concatenate(([0.0], upper[:-1]))
    idx = np.searchsorted(upper, u)
    for i in range(len(masses)):
        hit = idx == i
        if hit.any():
            yield i, hit, u[hit] - lower[i]


# ---------------------------------------------------------------------------
# Density kinds (each normalized to unit mass)


@dataclass(frozen=True)
class AtomKind:
    """Unit point mass; kept distinct from continuous kinds."""

    location: Fraction

    def __post_init__(self):
        object.__setattr__(self, "location", as_rational(self.location))

    def inv_cdf_arr(self, v):
        return np.full_like(v, float(self.location))


@dataclass(frozen=True)
class Uniform:
    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", as_rational(self.a))
        object.__setattr__(self, "b", as_rational(self.b))

    def cdf(self, x):
        if x <= self.a:
            return Fraction(0)
        if x >= self.b:
            return Fraction(1)
        return (as_rational(x) - self.a) / (self.b - self.a)

    def cdf_arr(self, xs):
        a, b = float(self.a), float(self.b)
        return np.clip((xs - a) / (b - a), 0.0, 1.0)

    def pdf_arr(self, xs):
        a, b = float(self.a), float(self.b)
        return np.where((xs > a) & (xs < b), 1.0 / (b - a), 0.0)

    def inv_cdf_arr(self, v):
        a, b = float(self.a), float(self.b)
        return a + (b - a) * v

    def breakpoints(self):
        return [self.a, self.b]

    def window(self, tail):
        return float(self.a), float(self.b)


@dataclass(frozen=True)
class Normal:
    mean: Fraction
    std: Fraction

    def __post_init__(self):
        object.__setattr__(self, "mean", as_rational(self.mean))
        object.__setattr__(self, "std", as_rational(self.std))

    def cdf(self, x):
        z = (float(x) - float(self.mean)) / float(self.std)
        return 0.5 * (1.0 + math.erf(z / _SQRT2))

    def cdf_arr(self, xs):
        z = (xs - float(self.mean)) / float(self.std)
        return 0.5 * (1.0 + _erf_arr(z / _SQRT2))

    def pdf_arr(self, xs):
        m, s = float(self.mean), float(self.std)
        z = (xs - m) / s
        return np.exp(-0.5 * z * z) / (s * math.sqrt(2.0 * math.pi))

    def inv_cdf_arr(self, v):
        return float(self.mean) + float(self.std) * ndtri(v)

    def breakpoints(self):
        return []

    def window(self, tail):
        d = NormalDist(float(self.mean), float(self.std))
        return d.inv_cdf(tail), d.inv_cdf(1.0 - tail)


@dataclass(frozen=True)
class Exponential:
    rate: Fraction

    def __post_init__(self):
        object.__setattr__(self, "rate", as_rational(self.rate))

    def cdf(self, x):
        xf = float(x)
        if xf <= 0.0:
            return 0.0
        return -math.expm1(-float(self.rate) * xf)

    def cdf_arr(self, xs):
        return np.where(xs <= 0.0, 0.0, -np.expm1(-float(self.rate) * xs))

    def pdf_arr(self, xs):
        r = float(self.rate)
        return np.where(xs > 0.0, r * np.exp(-r * xs), 0.0)

    def inv_cdf_arr(self, v):
        return -np.log1p(-v) / float(self.rate)

    def breakpoints(self):
        return [Fraction(0)]

    def window(self, tail):
        return 0.0, -math.log(tail) / float(self.rate)


@dataclass(frozen=True)
class PiecewisePoly:
    """Density that is polynomial on each cell of a breakpoint grid.

    coeffs[i] are ascending-power coefficients of the density on
    (breaks[i], breaks[i+1]); the total integral must be exactly 1.
    """

    breaks: tuple
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "breaks", tuple(as_rational(b) for b in self.breaks))
        object.__setattr__(
            self, "coeffs", tuple(tuple(as_rational(c) for c in piece) for piece in self.coeffs)
        )
        self._validate()

    def _validate(self):
        from .parsing import MeasureSpecError

        for (a, b), piece in zip(zip(self.breaks, self.breaks[1:]), self.coeffs):
            for x in uniform_grid(a, b, 100):
                if self._poly(piece, x) < 0:
                    raise MeasureSpecError(
                        f"pwd piece negative at x={float(x):g}"
                    )
        if self._total_integral() != 1:
            raise MeasureSpecError(
                f"pwd density integrates to {self._total_integral()}, expected 1"
            )

    @staticmethod
    def _poly(piece, x):
        acc = Fraction(0)
        for c in reversed(piece):
            acc = acc * x + c
        return acc

    @staticmethod
    def _poly_integral(piece, a, b):
        acc_a = Fraction(0)
        acc_b = Fraction(0)
        for k, c in enumerate(piece):
            acc_a += c * a ** (k + 1) / (k + 1)
            acc_b += c * b ** (k + 1) / (k + 1)
        return acc_b - acc_a

    @staticmethod
    def _anti(piece):
        """Float antiderivative, descending powers (np.polyval), F(0) = 0."""
        anti = [float(c) / (k + 1) for k, c in enumerate(piece)]
        return list(reversed(anti)) + [0.0]

    def _total_integral(self):
        return sum(
            self._poly_integral(piece, a, b)
            for (a, b), piece in zip(zip(self.breaks, self.breaks[1:]), self.coeffs)
        )

    def cdf(self, x):
        xq = as_rational(x) if not isinstance(x, float) or math.isfinite(x) else None
        if xq is None:
            return Fraction(1) if x > 0 else Fraction(0)
        if xq <= self.breaks[0]:
            return Fraction(0)
        acc = Fraction(0)
        for (a, b), piece in zip(zip(self.breaks, self.breaks[1:]), self.coeffs):
            if xq >= b:
                acc += self._poly_integral(piece, a, b)
            else:
                acc += self._poly_integral(piece, a, xq)
                break
        return acc

    def cdf_arr(self, xs):
        # float path: the exact scalar cdf is far too slow for the
        # millions of evaluations inverse-transform sampling makes
        xs = np.asarray(xs, dtype=float)
        out = np.zeros_like(xs)
        acc = 0.0
        for (a, b), piece in zip(zip(self.breaks, self.breaks[1:]), self.coeffs):
            af, bf = float(a), float(b)
            anti = self._anti(piece)
            base = np.polyval(anti, af)
            inside = (xs > af) & (xs < bf)
            if inside.any():
                out[inside] = acc + np.polyval(anti, xs[inside]) - base
            acc += np.polyval(anti, bf) - base
            out[xs >= bf] = acc
        return out

    def pdf_arr(self, xs):
        out = np.zeros_like(xs, dtype=float)
        for (a, b), piece in zip(zip(self.breaks, self.breaks[1:]), self.coeffs):
            mask = (xs > float(a)) & (xs <= float(b))
            if mask.any():
                cs = [float(c) for c in reversed(piece)]
                out[mask] = np.polyval(cs, xs[mask])
        return out

    def inv_cdf_arr(self, v):
        # find the cell by cumulative mass, then solve F(x) = v in it only
        cells = list(zip(zip(self.breaks, self.breaks[1:]), self.coeffs))
        masses = [self._poly_integral(piece, a, b) for (a, b), piece in cells]
        out = np.empty_like(v)
        for i, hit, t in _pieces(masses, v):
            (a, b), piece = cells[i]
            out[hit] = self._cell_inv(piece, a, b, t)
        return out

    def _cell_inv(self, piece, a, b, t):
        """x in [a, b] whose mass from a is t, on one cell."""
        af, bf = float(a), float(b)
        if len(piece) <= 2:
            # density d0 + c1*(x - a): a quadratic CDF, solved in the root
            # form that does not cancel, also where d0 = 0; in place,
            # because at 10^6 draws each temporary array is 8 MB
            d0 = float(self._poly(piece, a))
            c1 = float(piece[1]) if len(piece) == 2 else 0.0
            disc = 2.0 * c1 * t
            disc += d0 * d0
            np.sqrt(np.maximum(disc, 0.0, out=disc), out=disc)
            disc += d0
            x = np.divide(2.0 * t, disc, out=disc)
            x += af
            return np.clip(x, af, bf, out=x)
        anti = self._anti(piece)
        target = t + np.polyval(anti, af)
        lo = np.full_like(t, af)
        hi = np.full_like(t, bf)
        for _ in range(56):
            mid = 0.5 * (lo + hi)
            ge = np.polyval(anti, mid) >= target
            hi = np.where(ge, mid, hi)
            lo = np.where(ge, lo, mid)
        return hi

    def breakpoints(self):
        return list(self.breaks)

    def window(self, tail):
        return float(self.breaks[0]), float(self.breaks[-1])


@dataclass(frozen=True)
class MeasureSpec:
    """Validated parse result: weighted components plus declared mass."""

    components: tuple
    declared_total_mass: Fraction
    source_text: str = ""


# ---------------------------------------------------------------------------
# BorelMeasure


class BorelMeasure:
    """Immutable finite Borel measure: atoms + absolutely continuous parts."""

    def __init__(self, atoms=(), parts=(), total_mass=None, source_text=""):
        self.source_text = source_text
        self.atoms = tuple(sorted(((as_rational(l), as_rational(m)) for l, m in atoms)))
        self.parts = tuple((as_rational(w), kind) for w, kind in parts)
        computed = sum(m for _, m in self.atoms) + sum(w for w, _ in self.parts)
        self.total_mass = as_rational(total_mass) if total_mass is not None else computed
        if computed != self.total_mass:
            raise ValueError(
                f"component masses sum to {computed}, declared {self.total_mass}"
            )
        if self.total_mass <= 0:
            raise ValueError("total mass must be positive")

    @classmethod
    def from_spec(cls, spec: MeasureSpec):
        atoms = []
        parts = []
        for w, kind in spec.components:
            if isinstance(kind, AtomKind):
                if w > 0:
                    atoms.append((kind.location, w))
            elif w > 0:
                parts.append((w, kind))
        return cls(atoms=atoms, parts=parts, total_mass=spec.declared_total_mass,
                   source_text=spec.source_text)

    @property
    def is_probability(self):
        return self.total_mass == 1

    # -- CDF / quantile -----------------------------------------------------

    def cdf(self, x):
        """Right-continuous distribution function at x (float)."""
        acc = 0.0
        for loc, m in self.atoms:
            if loc <= x:
                acc += float(m)
        for w, kind in self.parts:
            acc += float(w) * float(kind.cdf(x))
        return acc

    def cdf_arr(self, xs):
        xs = np.asarray(xs, dtype=float)
        acc = np.zeros_like(xs)
        for loc, m in self.atoms:
            acc += np.where(xs >= float(loc), float(m), 0.0)
        for w, kind in self.parts:
            acc += float(w) * kind.cdf_arr(xs)
        return acc

    def _bracket(self):
        los = [float(loc) - 1.0 for loc, _ in self.atoms]
        his = [float(loc) + 1.0 for loc, _ in self.atoms]
        for _, kind in self.parts:
            a, b = kind.window(1e-16)
            los.append(a - 1.0)
            his.append(b + 1.0)
        if not los:
            return -1.0, 1.0
        return min(los), max(his)

    def quantile(self, q):
        """Generalized inverse: inf{x : cdf(x) >= q}, for q in (0, total]."""
        qf = float(q)
        if not 0.0 < qf <= float(self.total_mass):
            raise ValueError(f"quantile level {q} outside (0, total_mass]")
        for loc, m in self.atoms:
            hi = self.cdf(float(loc))
            if hi - float(m) < qf <= hi:
                return float(loc)
        lo, hi = self._bracket()
        while self.cdf(lo) >= qf:
            lo = 2.0 * lo - 1.0
        while self.cdf(hi) < qf:
            hi = 2.0 * hi + 1.0
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if self.cdf(mid) >= qf:
                hi = mid
            else:
                lo = mid
        return hi

    # -- interval masses ----------------------------------------------------

    def _interval_mass(self, iv: Interval):
        exact = Fraction(0)
        approx = 0.0
        for loc, m in self.atoms:
            if iv.contains(loc):
                exact += m
        for w, kind in self.parts:
            lo_c = kind.cdf(iv.lo) if iv.lo != NEG_INF else Fraction(0)
            hi_c = kind.cdf(iv.hi) if iv.hi != POS_INF else Fraction(1)
            if isinstance(lo_c, Fraction) and isinstance(hi_c, Fraction):
                exact += w * (hi_c - lo_c)
            else:
                approx += float(w) * (float(hi_c) - float(lo_c))
        return exact, approx

    def measure_of(self, s: IntervalUnion):
        """Mass of a normal-form interval union (float)."""
        exact = Fraction(0)
        approx = 0.0
        for iv in s.intervals:
            e, a = self._interval_mass(iv)
            exact += e
            approx += a
        return float(exact) + approx

    # -- sampling -----------------------------------------------------------

    def sample(self, n, seed):
        """n i.i.d. draws by composition; deterministic given seed."""
        rng = np.random.default_rng(seed)
        return self.from_uniforms(1.0 - rng.random(n))  # u in (0, 1]

    def from_uniforms(self, u):
        """Map uniforms u in (0, 1] to draws of this probability measure.

        Composition: the component is picked from cumulative weights
        (atoms first, then parts, in stored order) and u, rescaled to
        v in (0, 1) within it, goes through that component's inverse CDF.
        """
        if not self.is_probability:
            raise ValueError("sampling requires a probability measure")
        comps = [(m, AtomKind(loc)) for loc, m in self.atoms] + list(self.parts)
        out = np.empty_like(u)
        for i, hit, t in _pieces([w for w, _ in comps], u):
            w, kind = comps[i]
            v = t / float(w)
            out[hit] = kind.inv_cdf_arr(np.minimum(v, _BELOW_ONE, out=v))
        return out

    # -- support window ------------------------------------------------------

    def essential_window(self, delta):
        """Finite (a, b) with mass outside at most delta."""
        if not 0 < delta < float(self.total_mass):
            raise ValueError("delta must lie in (0, total_mass)")
        a = self.quantile(delta / 2.0)
        b = self.quantile(float(self.total_mass) - delta / 2.0)
        pad = max(1e-9, 1e-9 * (abs(a) + abs(b)))
        return a - pad, b + pad

    def density_breakpoints(self):
        """Atom locations plus density kink locations (exact values)."""
        pts = [loc for loc, _ in self.atoms]
        for _, kind in self.parts:
            pts.extend(kind.breakpoints())
        return sorted(set(pts))
