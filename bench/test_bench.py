"""Self-test of the benchmark harness.

Runs every workload at a tiny size (first ladder rung, few samples) and
checks the result line against BENCHMARK.json.  From the repository
root:

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT, seconds=1):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    assert set(got) == set(declared)
    for name, unit in declared.items():
        assert got[name]["unit"] == unit, name
        value = got[name]["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), name
        if not trace:
            assert value > 0, name


def test_operation_counts_depend_on_the_arguments_only():
    # the schedule is planned from --seconds, so two runs with the same
    # arguments attempt and fail the same operations however fast they ran
    first, second = (result_of(run_bench("fine_eps", 0, seconds=8)) for _ in range(2))
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    assert first["failed"] > 0  # the known DomainError case is counted


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run_bench("fine_eps", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_certificate_check_catches_a_wrong_b(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from sensapprox import cli

    from cases import Sensitize
    from run import check_certificate

    case = Sensitize("k", "x", "uniform(0,1)", "2", Fraction(1, 10), Fraction(3, 2))
    path = tmp_path / "cert.json"
    assert cli.main(["sensitize", "--target", "x", "--measure", "uniform(0,1)", "--p", "2",
                     "--eps", "1/10", "--M", "3/2", "--out", str(path)]) == 0
    assert check_certificate(case, path, Fraction(1)) == ([], 16)
    data = json.loads(path.read_text())
    data["b"] += 1
    path.write_text(json.dumps(data))
    problems, _ = check_certificate(case, path, Fraction(1))
    assert any("ceiling oracle" in p for p in problems)


def test_certificate_check_catches_a_wrong_scale_on_mass_2(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from sensapprox import cli

    from cases import Sensitize
    from run import _ceil, check_certificate

    measure = "mix(2*uniform(0,1), mass=2)"
    case = Sensitize("k", "x", measure, "2", Fraction(1, 10), Fraction(4))
    path = tmp_path / "cert.json"
    assert cli.main(["sensitize", "--target", "x", "--measure", measure, "--p", "2",
                     "--eps", "1/10", "--M", "4", "--out", str(path)]) == 0
    problems, _ = check_certificate(case, path, Fraction(2))
    assert problems == []
    # shrink the wave by mass instead of mass^(1/p), keeping b and the slope
    # consistent with the wrong scale
    data = json.loads(path.read_text())
    scale = Fraction(1, 10) / (2 * 2)
    data["scale"] = f"{scale.numerator}/{scale.denominator}"
    data["b"] = _ceil(5 / scale)
    slope = scale * data["b"]
    data["min_abs_slope"] = f"{slope.numerator}/{slope.denominator}"
    path.write_text(json.dumps(data))
    problems, _ = check_certificate(case, path, Fraction(2))
    assert any("mass^(1/p)" in p for p in problems), problems
