"""Self-test of the benchmark: each workload at a tiny size, and gates that can fail.

Run from the repository root with `python3 -m pytest perfbench -q`. With
`--seconds 0` a run times a single operation, or a single traced round.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def copy_benchmark(dest):
    """BENCHMARK.json and perfbench/ copied under `dest`, without run outputs."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return lines[:-1], result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    lines, result = result_of(bench(workload, trace))
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        value = result["metrics"][m["name"]]["value"]
        assert f"metric {m['name']} {value!r} {m['unit']}" in lines
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert f"attempted {result['attempted']} failed 0 error_rate 0.0 ratio" in lines
    if workload == "paper-compare":
        fingerprints = [line.split() for line in lines if line.startswith("fingerprint ")]
        assert len(fingerprints) == 2
        for _, _, _, digest, _, reference, _, drift in fingerprints:
            assert digest == reference and drift == "0"
    if workload == "chernoff-sweep":
        assert any(line.startswith("inputs moved below v/|c|: ") for line in lines)


def test_corrupted_reference_raises_error_rate(tmp_path):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    path = tmp_path / "perfbench" / "references" / "beta_2_98.csv"
    rows = path.read_text().splitlines()
    fields = rows[10].split(",")
    fields[1] = repr(float(fields[1]) * (1.0 + 1e-6))
    rows[10] = ",".join(fields)
    path.write_text("\n".join(rows) + "\n")

    lines, result = result_of(bench("paper-compare", 0, cwd=tmp_path))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    attempted = result["attempted"]
    assert f"attempted {attempted} failed {attempted} error_rate 1.0 ratio" in lines
    assert any(line.startswith("fingerprint beta_2_98.csv") and line.endswith(" drift 1")
               for line in lines)


def test_fails_without_the_library_sources(tmp_path):
    copy_benchmark(tmp_path)
    proc = bench("shape-queries", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_chernoff_check_allows_only_the_optimizer_tolerance():
    """At eps near 1e-5 on a near-symmetric shape the Chernoff and Bernstein
    exponents agree to O(eps^4); the check passes the optimizer's result there
    and still fails an exponent short by more than its tolerance."""
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        import run
        import workloads

        lib = run.import_library()
    finally:
        del sys.path[:2]
    sweep = workloads.ChernoffSweep()
    inp = ((0.5021592132814506, 0.5088128185811628), 1.1200904199355148e-05,
           lib.bounds.TailSide.UPPER)
    result, tail = sweep.run(lib, inp)
    assert sweep.check(lib, inp, (result, tail)) is None
    short = lib.chernoff.ChernoffResult(
        result.exponent - 10 * workloads.EXPONENT_ATOL, result.t_star, result.converged)
    assert "below Bernstein exponent" in sweep.check(lib, inp, (short, tail))
