"""The Monte Carlo path drawn at once, the reference of the tests of
``BorelMeasure.sample_blocks`` and ``norms.mc_norm``.

``stratified_uniforms`` draws the whole stratified stream in one array:
at n = 2m, stratum j takes (j + 1 - V) / m for its two uniforms V of
``default_rng(seed)``, the larger V first; at odd n, the first stratum,
(0, 3/n], takes (3 - 3 V) / n for its three, and the pair after it with
upper end t / n takes (t - 2 V) / n. ``reference_mc`` maps them by
``from_uniforms`` and computes the two sums of the estimate, of |f|^p
and of m s^2 over its groups of m draws, in plain numpy. This is a helper
module: pytest collects no tests from it.
"""

import math

import numpy as np

from sensapprox.norms import NormEstimate


def stratified_uniforms(n, seed):
    v = np.random.default_rng(seed).random(n)
    if n % 2 == 0:
        pairs = -np.sort(-v.reshape(-1, 2), axis=1)  # the larger V first
        return ((np.arange(n // 2) + 1.0)[:, None] - pairs).ravel() / (n // 2)
    three = -np.sort(-v[:3])
    pairs = -np.sort(-v[3:].reshape(-1, 2), axis=1)
    tops = 3.0 + 2.0 * (np.arange(len(pairs)) + 1.0)
    return np.concatenate(((3.0 - 3.0 * three) / n, (tops[:, None] - 2.0 * pairs).ravel() / n))


def reference_mc(f, mu, p, n, seed):
    """mc_norm's estimate from the whole sample at once."""
    z = np.abs(f(mu.from_uniforms(stratified_uniforms(n, seed)))) ** p
    three = 3 * (n % 2)
    spread = 3.0 * float(np.var(z[:3], ddof=1)) if three else 0.0
    if (n - three) % 4:  # a last pair
        spread += float(z[-2] - z[-1]) ** 2
    # two neighbouring strata, four draws a, b, c, d, at a time: 4 s^2 is
    # 2/3 ((a - b)^2 + (c - d)^2) + 1/3 (a + b - c - d)^2
    fours = z[three:n - (n - three) % 4]
    pairs = fours[::2] - fours[1::2]
    groups = (fours[::4] + fours[1::4]) - (fours[2::4] + fours[3::4])
    spread += (2.0 * float((pairs ** 2).sum()) + float((groups ** 2).sum())) / 3.0
    mean, sd = float(z.sum()) / n, math.sqrt(spread) / n
    root = float(mu.total_mass) ** (1.0 / p)
    if mean <= 0.0:
        return NormEstimate(value=0.0, absolute_error_bound=(4.0 * sd) ** (1.0 / p) * root)
    radius = 4.0 * sd * (1.0 / p) * mean ** (1.0 / p - 1.0)
    return NormEstimate(value=mean ** (1.0 / p) * root, absolute_error_bound=radius * root)
