"""Seeded case lists for the three benchmark workloads.

Each workload function takes a ``random.Random`` seeded from the
workload seed and returns ``(setup_cases, loop_cases)``: set-up cases run
before the clock starts, loop cases are issued back to back by the
closed loop, a whole pass of the list at a time.  ``PASS_S`` is the
nominal time of one pass on the reference host; the harness plans
``--seconds / PASS_S`` passes from it, so the number of operations a run
attempts depends on its arguments only, never on measured times.  The seed draws the verify sampler seeds and each case's
parameters inside the narrow ranges documented here and in NOTES.md;
the ranges are narrow so that the work per case, not the draw, sets the
timings.

Two inputs are deliberately absent because a run must end:
``1/x | uniform(0,1)`` (sensitize does not finish) and the steep ladder
rung at b ~ 2*10^6 (the process is killed for lack of memory).  The
steep ladder also stops short of b ~ 2*10^5: one such sensitize takes
about 14 s, too long to repeat within a run (see NOTES.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# verify samples in verify_mc (the CLI default)
VERIFY_SAMPLES = 1_000_000
# verify samples behind the PASS check on the sensitize workloads: enough
# for a tight 4-sigma radius, small enough that sampling stays a minor cost
CHECK_SAMPLES = 20_000


@dataclass(frozen=True)
class Sensitize:
    key: str
    target: str
    measure: str
    p: str
    eps: Fraction
    M: Fraction


@dataclass(frozen=True)
class Verify:
    key: str
    cert_of: str  # key of the Sensitize case whose certificate is verified
    samples: int
    seed: int  # repetition r uses seed + r


def _rational_in(rng, lo, hi, max_den=9):
    """A rational drawn from [lo, hi] with a small random denominator."""
    den = rng.randint(1, max_den)
    lo_num = -(-Fraction(lo) * den // 1)
    hi_num = Fraction(hi) * den // 1
    return Fraction(rng.randint(int(lo_num), int(hi_num)), den)


def _seed(rng):
    # never 0, the CLI's default verify seed
    return rng.randrange(1, 2**31)


def _with_checks(rng, sensitize_cases, samples):
    """Interleave each sensitize case with a verify of its certificate."""
    out = []
    for c in sensitize_cases:
        out.append(c)
        out.append(Verify(f"verify:{c.key}", c.key, samples, _seed(rng)))
    return out


# verify_mc: every measure kind; the mass=2 case is ROADMAP item 3's
# verify crash and is counted as a failed operation, not filtered out.
VERIFY_MC = (
    ("x^2", "normal(0,1)", "2"),
    ("sin(x)", "uniform(0,1)", "1"),
    ("x", "exponential(1)", "2"),
    ("x^2", "pwd(breaks(0,1), poly(0,2))", "2"),
    ("x", "mix(0.5*atom(0), 0.5*uniform(0,1))", "1"),
    ("abs(x)", "mix(0.5*normal(0,1), 0.5*uniform(0,1))", "2"),
    ("x", "mix(2*uniform(0,1), mass=2)", "1"),
)


def verify_mc(rng, tiny):
    """Certificates built in set-up (eps=1/10, M in [5, 5.05]); verify is timed."""
    setup, loop = [], []
    samples = CHECK_SAMPLES if tiny else VERIFY_SAMPLES
    for i, (target, measure, p) in enumerate(VERIFY_MC):
        c = Sensitize(f"{i}:{target}|{measure}", target, measure, p,
                      Fraction(1, 10), _rational_in(rng, 5, Fraction(505, 100), 100))
        setup.append(c)
        loop.append(Verify(f"verify:{c.key}", c.key, samples, _seed(rng)))
    return setup, loop


# fine_eps: smooth targets, M=0, eps ladders down to 1/100 where a rung
# costs at most about a second, so that every case repeats often enough
# within a run: 1/50 on x^2 | normal (2 048 cells) and 1/25 on the
# mixture, whose finer rungs cost as much as the normal ones.  Each rung's
# eps is drawn from [0.99, 1] times the rung.  log(x) | uniform(0,1) is
# ROADMAP item 5's DomainError crash, counted as a failed operation.
FINE_EPS = (
    ("x^2", "normal(0,1)", "2", (10, 25, 50)),
    ("sin(x)", "exponential(1)", "1", (10, 25, 50, 100)),
    ("abs(x-0.5)", "pwd(breaks(0,0.5,1), poly(0,4), poly(4,-4))", "1", (10, 25, 50, 100)),
    ("x^2", "mix(0.3*atom(0.5), 0.7*normal(0,1))", "2", (10, 25)),
)


def fine_eps(rng, tiny):
    cases = []
    for target, measure, p, rungs in FINE_EPS:
        for k in rungs[:1] if tiny else rungs:
            eps = Fraction(1000 - rng.randint(0, 10), 1000 * k)
            cases.append(Sensitize(f"{target}|{measure}|1/{k}", target, measure,
                                   p, eps, Fraction(0)))
    cases.append(Sensitize("log(x)|uniform(0,1)", "log(x)", "uniform(0,1)", "2",
                           Fraction(1, 10), Fraction(0)))
    return [], _with_checks(rng, cases, CHECK_SAMPLES)


# steep_b: eps=1/10, so b = 20 (M+1).  Each rung's M is drawn from
# [1, 1.01] times the rung.  The uniform ladder reaches b ~ 2*10^4; the
# normal ladder stops at b ~ 2*10^3 because its lattice window is wider.
STEEP_B = (
    ("x", "uniform(0,1)", "2", (9, 99, 999)),
    ("x^2", "normal(0,1)", "2", (9, 99)),
)


def steep_b(rng, tiny):
    cases = []
    for target, measure, p, rungs in STEEP_B:
        for m in rungs[:1] if tiny else rungs:
            M = _rational_in(rng, m, Fraction(101, 100) * m)
            cases.append(Sensitize(f"{target}|{measure}|M~{m}", target, measure,
                                   p, Fraction(1, 10), M))
    return [], _with_checks(rng, cases, CHECK_SAMPLES)


WORKLOADS = {"verify_mc": verify_mc, "fine_eps": fine_eps, "steep_b": steep_b}
# nominal seconds of one pass of each loop case list on the reference host
PASS_S = {"verify_mc": 13.0, "fine_eps": 5.0, "steep_b": 2.5}
