"""The Monte Carlo path drawn at once, the reference of the tests of
``BorelMeasure.sample_blocks`` and ``norms.mc_norm``.

``stratified_uniforms`` draws the whole stratified stream in one array:
stratum k of the n equal strata of (0, 1] takes (k + 1 - V) / n for the
k-th uniform V of ``default_rng(seed)``. ``reference_mc`` maps them by
``from_uniforms`` and computes the two sums of the estimate, of |f|^p
and of m s^2 over its groups of m draws, in plain numpy. This is a helper
module: pytest collects no tests from it.
"""

import math

import numpy as np

from sensapprox.norms import NormEstimate


def stratified_uniforms(n, seed):
    return (np.arange(n) + 1.0 - np.random.default_rng(seed).random(n)) / n


def reference_mc(f, mu, p, n, seed):
    """mc_norm's estimate from the whole sample at once."""
    z = np.abs(f(mu.from_uniforms(stratified_uniforms(n, seed)))) ** p
    # four neighbouring strata, draws a, b, c, d, at a time: 4 s^2 is
    # 2/3 ((a - b)^2 + (c - d)^2) + 1/3 (a + b - c - d)^2; the last group
    # takes the 4 to 7 draws that are left
    first = n - 4 - n % 4
    fours = z[:first]
    pairs = fours[::2] - fours[1::2]
    groups = (fours[::4] + fours[1::4]) - (fours[2::4] + fours[3::4])
    spread = (2.0 * float((pairs ** 2).sum()) + float((groups ** 2).sum())) / 3.0
    spread += (n - first) * float(np.var(z[first:], ddof=1))
    mean, sd = float(z.sum()) / n, math.sqrt(spread) / n
    root = float(mu.total_mass) ** (1.0 / p)
    if mean <= 0.0:
        return NormEstimate(value=0.0, absolute_error_bound=(4.0 * sd) ** (1.0 / p) * root)
    radius = 4.0 * sd * (1.0 / p) * mean ** (1.0 / p - 1.0)
    return NormEstimate(value=mean ** (1.0 / p) * root, absolute_error_bound=radius * root)
