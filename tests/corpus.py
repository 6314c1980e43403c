"""The byte-identity corpus: a fixed set of ``sensitize`` runs whose
outputs a change that keeps behaviour must leave byte for byte as they are.

    PYTHONPATH=src python tests/corpus.py OUT

runs ``cli.main(["sensitize", ...])`` in process on each case and writes,
for case number NNN, the certificate ``OUT/NNN.json`` (none where the run
fails) and ``OUT/NNN.rc``: the case, the exit code, stdout and stderr.
Comparing two checkouts is ``diff -r`` of two such directories, each
written with the other checkout's ``src`` on ``PYTHONPATH``. Each
certificate written is read back as ``verify`` reads it, through
``cli.read_certificate`` and ``cli.reconstruct_approximant``, and the
rows that ``cli`` writes from that phi0 must be the file's ``phi0`` and
``exceptions`` rows. The script exits 1 if a case raises, ends in an exit
code outside {0, 2, 3, 4}, the codes that the CLI documents for
``sensitize``, or writes a certificate whose rows do not read back.

The cases are the 96 of the acceptance grid, the certificates of the
three benchmark workloads at fixed parameters, the golden cases, and
hard cases: a spike narrower than the first cells, an indicator, a
target undefined between the two parts of a mixture, a fast
oscillation, poles with infinite and with finite moments, a moment that
is infinite in the tails, atom pins, a certification that fails once,
an M far past the float range's integers, an if() threshold past the
float range, a float pin, an exact pin and a threshold whose exact
values would pass the exact plan's size limit, and a first cell that
reaches across a gap between two parts where the target is undefined.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(1, str(ROOT))

from bench.cases import FINE_EPS, STEEP_B, VERIFY_MC  # noqa: E402
from sensapprox import cli  # noqa: E402
from test_acceptance import GRID  # noqa: E402
from test_golden import CASES as GOLDEN  # noqa: E402

OK_CODES = {0, 2, 3, 4}

# (target, measure, p, eps, M)
HARD = [
    ("1000*exp(-(10000*(x-0.3217))^2)", "uniform(0,1)", "1", "1/10", "1"),
    ("if(x<0.3,1,0)", "uniform(0,1)", "1", "1/10", "0"),
    ("sqrt((x-1)*(x-2))", "mix(0.5*uniform(0,1), 0.5*uniform(2,3))", "2", "1/10", "1"),
    ("abs(sin(50*x))", "uniform(0,1)", "1", "1/10", "1"),
    ("1/x", "uniform(0,1)", "1", "1/10", "0"),
    ("1/sqrt(abs(x-0.3))", "uniform(0,1)", "1", "1/10", "0"),
    ("1/sqrt(abs(x-0.3))", "normal(0,1)", "1", "1/10", "0"),
    ("1/sqrt(x)", "uniform(0,1)", "1", "1/10", "0"),
    ("exp(x^2)", "normal(0,1)", "1", "1/10", "0"),
    ("x-0.3", "mix(0.5*atom(0.3), 0.5*uniform(0,1))", "1", "1/10", "1"),
    ("x^2", "mix(0.3*atom(0.5), 0.7*normal(0,1))", "1", "1/10", "1"),
    ("if(x < 1/2, if(x > 0, 1, if(x > -1, 2, 0)), 0)",
     "mix(0.5*atom(0), 0.5*uniform(-1,1))", "1", "1/10", "1"),
    ("if(2*x<0.6,1,-1)", "mix(0.5*atom(0.3), 0.5*uniform(0,1))", "1", "1/50", "0"),
    ("x", "normal(0,1)", "1", "1/10", str(10**20)),
    ("if(x < sqrt(2)^1000000, 1, 0)", "mix(0.5*atom(0.5), 0.5*uniform(0,1))",
     "1", "1/10", "0"),
    ("sin(x)", "mix(0.5*atom(0.3), 0.5*uniform(0,1))", "1", "1/10", "1"),
    ("x^20000", "mix(0.5*atom(0.5), 0.5*atom(0.3), 0.5*uniform(0,1))", "1", "1/10", "0"),
    ("if(x < (3^10000)^10000, 1, 0)", "uniform(0,1)", "1", "1/10", "0"),
    ("sqrt((x-0.3)*(x-0.31))", "mix(0.5*uniform(0,0.3), 0.5*uniform(0.31,1))",
     "1", "1/10", "0"),
]


def cases():
    """Every corpus case as (target, measure, p, eps, M), in a fixed order."""
    out = list(GRID)
    out += [(t, m, p, "1/10", "5") for t, m, p in VERIFY_MC]
    out += [(t, m, p, f"99/{100 * k}", "0") for t, m, p, rungs in FINE_EPS for k in rungs]
    out.append(("log(x)", "uniform(0,1)", "2", "1/10", "0"))
    out += [(t, m, p, "1/10", str(M)) for t, m, p, rungs in STEEP_B for M in rungs]
    out += [GOLDEN[name] for name in sorted(GOLDEN)]
    return out + HARD


def rows_read_back(path):
    """Whether the phi0 that verify reads from the certificate at path is
    written as the file's phi0 and exceptions rows."""
    data = cli.read_certificate(path)
    terms, exceptions = cli._rows(cli.reconstruct_approximant(data).phi0)
    return ([dict(zip(cli._TERM_KEYS, row)) for row in terms] == data["phi0"]
            and [dict(zip(cli._EXCEPTION_KEYS, row)) for row in exceptions]
            == data["exceptions"])


def run(out_dir):
    """Write every case's outputs into out_dir; returns the failed cases
    with what went wrong."""
    out_dir.mkdir(parents=True, exist_ok=True)
    failed = []
    for i, case in enumerate(cases()):
        t, m, p, eps, M = case
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                rc = cli.main(["sensitize", "--target", t, "--measure", m, "--p", p,
                               "--eps", eps, "--M", M, "--out", str(out_dir / f"{i:03d}.json")])
            except Exception as exc:  # a bug: the CLI maps every failure to a code
                rc = f"raised {type(exc).__name__}: {exc}"
        record = {"case": case, "exit": rc, "stdout": stdout.getvalue(),
                  "stderr": stderr.getvalue()}
        (out_dir / f"{i:03d}.rc").write_text(json.dumps(record, indent=1) + "\n")
        if rc not in OK_CODES:
            failed.append((i, case, f"exit {rc}"))
        elif rc == 0 and not rows_read_back(out_dir / f"{i:03d}.json"):
            failed.append((i, case, "certificate rows do not read back"))
    return failed


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT")
    failed = run(Path(sys.argv[1]))
    for i, case, why in failed:
        print(f"case {i:03d} {case}: {why}", file=sys.stderr)
    print(f"{len(cases())} cases, {len(failed)} failed: outside the exit codes "
          f"{sorted(OK_CODES)} or rows that do not read back")
    sys.exit(1 if failed else 0)
