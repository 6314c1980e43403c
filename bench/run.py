#!/usr/bin/env python3
"""sensapprox benchmark harness.

Run from the root of a checkout:

    python3 bench/run.py --workload verify_mc --seed 1 --seconds 25 --trace 0

One process runs one workload (verify_mc, fine_eps or steep_b; see
cases.py and NOTES.md).  A single client issues the workload's case list
back to back (closed loop) through ``sensapprox.cli.main``, as many
passes as fill ``--seconds`` at the list's nominal pace, checks every
output, and prints one JSON object as the last line of standard output:
the end-to-end metrics with ``--trace 0``, or with ``--trace 1`` the
per-layer metrics of traced passes (spans recorded by wrapping the
public functions of the sensapprox modules, see tracing.py) together
with the tracing overhead against the untraced passes.

Timings are per pass of the case list: each case's median over its
repetitions, summed over the cases.  The number of operations depends on
the arguments only, so runs with the same arguments attempt the same
operations however fast the host is.  The exit code is 0 when every
output check passed, 1 when one failed (the JSON then reads
``"correct": false``) and 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from cases import PASS_S, WORKLOADS, Verify

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
# set-ups per run: one before the loop, the others spread over the loop so
# that their median sees the same host as the timed cases
SETUP_REPEATS = 7
# a loop starts no new pass after this many times its planned seconds
GIVE_UP = 2.5


def _rat(fr):
    return f"{fr.numerator}/{fr.denominator}"


def _ceil(fr):
    return -(-fr.numerator // fr.denominator)


# relative slack allowed between the wave's shrink factor and mass^(1/p)
ROOT_TOL = Fraction(1, 10**9)


def check_certificate(case, path, mass):
    """Problems with a certificate sensitize wrote, and its phi0 cell count."""
    with open(path) as fh:
        data = json.load(fh)
    req = data["request"]
    eps, M, p = case.eps, case.M, Fraction(case.p)
    problems = []
    if (req["target"], req["measure"], Fraction(req["eps"]), Fraction(req["M"])) != (
        case.target, case.measure, eps, M
    ):
        problems.append("request fields do not echo the inputs")
    b = data["b"]
    scale = Fraction(data["scale"])
    if mass <= 1:
        want_scale = eps / 2
        if scale != want_scale:
            problems.append(f"scale {scale} != {want_scale}")
    else:
        want_scale = scale
        # the wave is shrunk to scale = eps / (2 R) with R an upper root of
        # mass^(1/p): R^p >= mass and (R / (1 + ROOT_TOL))^p < mass, in rationals
        R = eps / (2 * scale)
        if (R ** p.numerator < mass ** p.denominator
                or (R / (1 + ROOT_TOL)) ** p.numerator >= mass ** p.denominator):
            problems.append(f"scale {scale} is not eps / (2 mass^(1/p)) "
                            f"within a factor 1 + {ROOT_TOL}")
    # b = ceil((M+1) / scale), that is ceil(2(M+1)/eps) when mass <= 1
    want_b = _ceil((M + 1) / want_scale)
    if b != want_b:
        problems.append(f"b {b} != ceiling oracle {want_b}")
    slope = Fraction(data["min_abs_slope"])
    if slope != scale * b or slope < M + 1:
        problems.append(f"min_abs_slope {slope} is not scale*b >= M+1")
    if not float(data["error_bound"]) < float(eps):
        problems.append(f"error_bound {data['error_bound']} >= eps")
    return problems, len(data["phi0"])


class Runner:
    """Issues operations through cli.main and records their outcomes."""

    def __init__(self, cli, work):
        self.cli = cli
        self.work = Path(work)
        self.masses = {}
        self.records = []
        self.problems = []  # failed output checks: the run is invalid
        self.errors = []  # operations that did not end in exit 0 / PASS
        self.paths = {}  # certificate file of each sensitize case
        self.cells = {}  # phi0 cells of the certificate each sensitize case last wrote
        self.reps = Counter()
        self.tracer = None
        self.phase = None

    def _argv(self, case, rep):
        if isinstance(case, Verify):
            return ["verify", "--cert", str(self.paths[case.cert_of]),
                    "--samples", str(case.samples), "--seed", str(case.seed + rep)]
        path = self.paths.setdefault(case.key, self.work / f"cert{len(self.paths)}.json")
        return ["sensitize", "--target", case.target, "--measure", case.measure,
                "--p", case.p, "--eps", _rat(case.eps), "--M", _rat(case.M),
                "--out", str(path)]

    def run(self, case):
        """Run one operation; None when a verify has no certificate to read."""
        verify = isinstance(case, Verify)
        if verify and case.cert_of not in self.cells:
            return None
        rep = self.reps[case.key]
        self.reps[case.key] += 1
        argv = self._argv(case, rep)
        out = io.StringIO()
        exc = None
        tracer = self.tracer
        if tracer:
            first = len(tracer.spans)
            tracer.op = len(self.records)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = perf_counter()
            try:
                if tracer:
                    rc = tracer.call("cli.main", self.cli.main, (argv,), {})
                else:
                    rc = self.cli.main(argv)
            except Exception as e:  # a crash is a failed operation, not a harness error
                rc, exc = None, e
            dur = perf_counter() - start
        lines = out.getvalue().splitlines()
        ok = rc == 0 and (not verify or lines[-1:] == ["PASS"])
        if verify and rc == 1:
            self.problems.append(f"{case.key} seed {case.seed + rep}: {lines[-1]}")
        if not ok:
            why = f"{type(exc).__name__}: {exc}" if exc else f"exit {rc}"
            self.errors.append(f"{case.key}: {why}")
        if not verify:
            self.cells.pop(case.key, None)
            if ok:
                problems, cells = check_certificate(case, self.paths[case.key],
                                                    self.masses[case.key])
                self.problems += [f"{case.key}: {p}" for p in problems]
                self.cells[case.key] = cells
        record = {"phase": self.phase, "key": case.key,
                  "op": "verify" if verify else "sensitize", "rep": rep,
                  "dur": dur, "ok": ok}
        if tracer:
            record["layers"] = tracer.metrics(first)
        self.records.append(record)
        return record


def planned_passes(seconds, pass_s):
    """Passes of the case list that fill `seconds` at the nominal pace."""
    return max(1, round(seconds / pass_s))


def run_passes(runner, cases, passes, interlude=None, give_up_s=None):
    """Issue the case list `passes` times back to back (closed loop).

    ``interlude(done)`` is called after each pass with the passes done so
    far.  No further pass starts once `give_up_s` seconds have passed, so
    a much slower program still ends in time.
    """
    start = perf_counter()
    for done in range(1, passes + 1):
        for case in cases:
            runner.run(case)
        if interlude:
            interlude(done)
        if give_up_s is not None and perf_counter() - start > give_up_s:
            return


def cold_import():
    """A fresh interpreter imports the CLI module, as every CLI call does."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # no timeout: with one, the wait polls and rounds the time up to 50 ms
    subprocess.run([sys.executable, "-c", "import sensapprox.cli"], cwd=ROOT, env=env,
                   check=True, stdout=subprocess.DEVNULL)


def medians(records):
    """Per case key, the median duration over the key's repetitions."""
    by_key = defaultdict(list)
    for r in records:
        by_key[r["key"]].append(r["dur"])
    return {k: statistics.median(v) for k, v in by_key.items()}


def end_to_end(runner, setup_s, keys):
    untraced = [r for r in runner.records if r["phase"] in ("setup", "loop")]
    sens = medians([r for r in untraced if r["op"] == "sensitize"])
    ok = {k: [] for k in keys}
    for r in untraced:
        ok[r["key"]].append(r["ok"])
    return {
        "setup_s": statistics.median(setup_s),
        "run_s": sum(medians([r for r in untraced if r["phase"] == "loop"]).values()),
        "sensitize_s": sum(sens.values()),
        "sensitize_max_s": max(sens.values()),
        "verify_s": sum(medians([r for r in untraced if r["op"] == "verify"]).values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # share of cases whose operations ended in exit 0 / PASS, each case
        # weighted once however often it repeated; a case never attempted (the
        # verify of a certificate that was not written) counts as failed.
        # 1 - ok_ratio is the fail ratio
        "ok_ratio": statistics.fmean(sum(v) / len(v) if v else 0.0 for v in ok.values()),
        "phi0_cells": sum(runner.cells.values()),
    }


def per_layer(runner, names):
    traced = [r for r in runner.records if r["phase"] in ("traced_setup", "traced")]
    totals = dict.fromkeys(names, 0)
    by_key = defaultdict(list)
    for r in traced:
        by_key[r["key"]].append(r["layers"])
    for reps in by_key.values():
        for name in totals:
            totals[name] += statistics.median(m[name] for m in reps)
    untraced_loop = [r for r in runner.records if r["phase"] == "loop"]
    traced_loop = [r for r in traced if r["phase"] == "traced"]
    totals["trace.overhead_s"] = (sum(medians(traced_loop).values())
                                  - sum(medians(untraced_loop).values()))
    return totals


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="first rung of each ladder and few samples (self-test)")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "sensapprox" / "__init__.py").is_file():
        print(f"error: {SRC / 'sensapprox'} not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(SRC))
    import sensapprox
    from sensapprox import BorelMeasure, cli, parse_measure, parse_target

    import tracing

    if Path(sensapprox.__file__).resolve().parent != SRC / "sensapprox":
        print(f"error: imported sensapprox from {sensapprox.__file__}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    rng = random.Random(f"{args.workload}/{args.seed}")
    setup_cases, loop_cases = WORKLOADS[args.workload](rng, args.tiny)
    sens_cases = [c for c in setup_cases + loop_cases if not isinstance(c, Verify)]

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as work:
        runner = Runner(cli, work)

        def total_mass(case):
            parse_target(case.target)  # the inputs are validated in set-up
            return BorelMeasure.from_spec(parse_measure(case.measure)).total_mass

        def set_up(phase):
            start = perf_counter()
            runner.masses = {c.key: total_mass(c) for c in sens_cases}
            outer, runner.phase = runner.phase, phase
            for case in setup_cases:
                runner.run(case)
            runner.phase = outer
            if phase == "setup":
                cold_import()  # after the timed builds, which it would slow
            return perf_counter() - start

        passes = planned_passes(args.seconds, PASS_S[args.workload])
        untraced = max(1, passes // 2) if args.trace else passes
        give_up_s = GIVE_UP * args.seconds

        def spread_setups(done):
            while len(setups) < 1 + done * (SETUP_REPEATS - 1) // untraced:
                setups.append(set_up("setup"))

        setups = [set_up("setup")]
        runner.phase = "loop"
        run_passes(runner, loop_cases, untraced, spread_setups, give_up_s)
        while len(setups) < SETUP_REPEATS:
            setups.append(set_up("setup"))
        if args.trace:
            runner.tracer = tracing.Tracer()
            with runner.tracer.installed():
                set_up("traced_setup")
                runner.phase = "traced"
                run_passes(runner, loop_cases, max(1, passes - untraced), None, give_up_s)
            values = per_layer(runner, tracing.METRICS)
        else:
            values = end_to_end(runner, setups, [c.key for c in setup_cases + loop_cases])

    for line in sorted(set(runner.errors)):
        print(f"failed operation: {line}", file=sys.stderr)
    for line in runner.problems:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    result = {
        "correct": not runner.problems,
        "attempted": len(runner.records),
        "failed": sum(not r["ok"] for r in runner.records),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec["per_layer" if args.trace else "end_to_end"]},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
