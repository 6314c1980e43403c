"""Exact rationals of input numbers. The module keeps no interval algebra.

``as_rational`` is the package's one exact-rational converter: every
module reads an input number through it. ``uniform_grid_floats`` gives
the correctly rounded floats of a uniform grid between two rationals,
the abscissae of the ``plot`` command.
"""

from __future__ import annotations

import math
from fractions import Fraction


def as_rational(x, ends=False) -> Fraction:
    """The one exact rational of an input number: a Fraction as is, an int
    exactly, a float as its exact binary value Fraction(x) (0.1 ->
    3602879701896397/2^55), a string, such as a decimal "0.1", as Fraction
    reads it. NaN raises ValueError, and so does ±inf unless ends."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float) and not math.isfinite(x):
        if ends and math.isinf(x):
            return x
        raise ValueError(f"expected a finite number, got {x!r}")
    return Fraction(x)


def uniform_grid_floats(lo, hi, n):
    """float(x) of each of the n + 1 points x = lo + (hi - lo) i / n: the
    numerators over the common denominator d n of lo, hi and n, divided as
    integers, which rounds correctly, as float(x) does."""
    lo, hi = as_rational(lo), as_rational(hi)
    d = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (d // lo.denominator)
    step = hi.numerator * (d // hi.denominator) - a
    den = d * n
    return [(a * n + step * i) / den for i in range(n + 1)]
