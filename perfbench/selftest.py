"""Quick self-test of the benchmark (about a minute):

    python3 perfbench/selftest.py

1. Every workload runs at tiny sizes, plain and traced, and prints one JSON
   result line with exactly the metrics that BENCHMARK.json names; only
   known defects fail.
2. One value of each kind of CSV output is corrupted and the matching
   check must reject it, so the checks are shown not to be vacuous.
3. Without ``src/`` next to it, the benchmark exits non-zero and prints no
   result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out", "selftest")
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402


def run_tiny(name, trace, spec):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[key]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, (sorted(set(got) ^ set(want)), got, want)
    return result


def corrupt(study, column, row, change):
    """Run ``study`` for real, check it passes, corrupt one cell, check it fails."""
    import fracvar.cli

    path = os.path.join(OUT, "corrupt.csv")
    assert fracvar.cli.main(list(study.argv) + ["--out", path]) == 0
    header, data = oracles.read_csv(path)
    assert all(e.ok for e in study.check(data)), [e.reasons for e in study.check(data)]
    bad = data.copy()
    bad[row, header.index(column)] = change(bad[row, header.index(column)])
    failed = [e for e in study.check(bad) if not e.ok]
    assert failed, f"corrupted {column} in {study.argv} was not rejected"
    return failed[0]


def main():
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

    results = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result = results[name, trace] = run_tiny(name, trace, spec)
            print(f"ok  tiny {name} trace={trace}: {result['attempted']} entries, "
                  f"{result['failed']} known-defect failures")
    assert results["linear-solve", 0]["failed"] >= 1, "the N=8 defect was not caught"

    bump = lambda v: v * (1.0 + 1e-4) + 1e-9  # noqa: E731
    cases = [
        (workloads.direct("ex1", [20, 40]), "approx", 30, bump),
        (workloads.direct("ex2", [20, 40]), "approx", 30, bump),
        (workloads.direct("ex3", [10, 20]), "approx", 15, bump),
        (workloads.tpbvp(0.5, 200, [2, 4]), "approx", 50, bump),
        (workloads.mesh("gl", "t2", 0.5, [100, 200]), "approx", 20, bump),
        (workloads.mesh("diethelm", "t2", 0.3, [50, 100]), "approx", 60, bump),
        (workloads.moment("exp2t", 0.7, [2, 4], ("--points", "10")), "approx", 3, bump),
        (workloads.bounds("moment", "t4", 0.5, [2, 3]), "dominated", 5, lambda v: 0.0),
        (workloads.bounds("hadamard", "exp2t", 0.5, [2, 3]), "bound", 5, bump),
    ]
    for study, column, row, change in cases:
        entry = corrupt(study, column, row, change)
        print(f"ok  corrupted {column} of {' '.join(study.argv[:3])}: {entry.label} rejected "
              f"({'; '.join(entry.reasons)})")

    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, os.path.join(os.path.basename(HERE), "run.py"),
                           "--workload", "direct-newton", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=180, check=False)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    shutil.rmtree(bare)
    print("ok  without src/ the benchmark exits", proc.returncode, "and prints no result")
    print("selftest passed")


if __name__ == "__main__":
    main()
