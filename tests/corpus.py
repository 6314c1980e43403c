"""The byte-identity corpus: a fixed set of ``sensitize`` runs whose
outputs a change that keeps behaviour must leave byte for byte as they are.

    PYTHONPATH=src python tests/corpus.py OUT

runs ``cli.main(["sensitize", ...])`` in process on each case and writes,
for case number NNN, the certificate ``OUT/NNN.json`` (none where the run
fails) and ``OUT/NNN.rc``: the case, the exit code, stdout and stderr.
Each certificate written is also checked by ``verify --samples 20000
--seed 5``, whose exit code, stdout and stderr the record holds under
"verify"; so the verify path, the reading of a certificate, its step
lookup and ``norms.mc_norm``, is compared too. Comparing two checkouts is
``diff -r`` of two such directories, each written with the other
checkout's ``src`` on ``PYTHONPATH``. Each certificate written is read
back as ``verify`` reads it, through ``cli.read_certificate``, and the
``Certificate`` read back must write the file again, byte for byte,
through ``cli.write_certificate``. The script exits 1 if a case raises,
ends in an exit code outside {0, 2, 3, 4}, the codes that the CLI
documents for ``sensitize``, or writes a certificate that does not read
back. A verify FAIL is recorded, and fails no case: the wide spike of
``HARD`` is a known false certificate.

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
import tempfile
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


def reads_back(path):
    """Whether the Certificate that verify reads from the file at path
    writes that file again, byte for byte."""
    with tempfile.TemporaryDirectory() as tmp:
        back = Path(tmp) / "back.json"
        cli.write_certificate(cli.read_certificate(path), back)
        return back.read_bytes() == Path(path).read_bytes()


def run_cli(argv):
    """cli.main(argv) in process: its exit code, stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a bug: the CLI maps every failure to a code
            rc = f"raised {type(exc).__name__}: {exc}"
    return {"exit": rc, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def run(out_dir):
    """Write every case's outputs into out_dir; returns the failed cases
    with what went wrong, and the number of verify runs that did not PASS."""
    out_dir.mkdir(parents=True, exist_ok=True)
    failed = []
    not_passed = 0
    for i, case in enumerate(cases()):
        t, m, p, eps, M = case
        cert = str(out_dir / f"{i:03d}.json")
        record = {"case": case, **run_cli(["sensitize", "--target", t, "--measure", m,
                                           "--p", p, "--eps", eps, "--M", M, "--out", cert])}
        rc = record["exit"]
        if rc == 0:
            record["verify"] = run_cli(["verify", "--cert", cert, "--samples", "20000",
                                        "--seed", "5"])
            not_passed += record["verify"]["exit"] != 0
        (out_dir / f"{i:03d}.rc").write_text(json.dumps(record, indent=1) + "\n")
        if rc not in OK_CODES:
            failed.append((i, case, f"exit {rc}"))
        elif rc == 0 and not reads_back(cert):
            failed.append((i, case, "certificate does not read back"))
    return failed, not_passed


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT")
    failed, not_passed = run(Path(sys.argv[1]))
    for i, case, why in failed:
        print(f"case {i:03d} {case}: {why}", file=sys.stderr)
    print(f"{len(cases())} cases, {len(failed)} failed: outside the exit codes "
          f"{sorted(OK_CODES)} or certificates that do not read back; "
          f"{not_passed} certificates did not pass verify")
    sys.exit(1 if failed else 0)
