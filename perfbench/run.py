"""fracvar benchmark: CLI studies timed end to end, checked against independent
oracles, and traced layer by layer in a separate run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  One process runs one workload,
closed loop: one study at a time, the next after the previous one ended.
Rounds of the workload's studies repeat for ``--seconds`` with inputs drawn
from ``--seed``; every sweep entry is checked after its round's timing.

With ``--trace 0`` the end-to-end metrics are:

* ``setup_s``: median over 5 fresh interpreters of the time to import
  fracvar and make one warm-up call (timed from this process);
* ``study_s``: median time of one round (all CLI calls, CSV writes
  included), scaled to nominal speed as described below;
* ``max_n_1s``: the largest n of the workload's fixed probe grid, searched
  upwards in order, whose solve finishes within 1 s.  A point whose first
  reading lies between 0.6 s and 1.8 s is timed 3 times and the median
  counts; the search stops at the first point that does not make it;
* ``final_error``: the error of the probe path (for ``linear-solve`` the
  TPBVP, N = 4) at the workload's nominal largest sweep entry, alpha = 1/2
  (deterministic);
* ``pass_ratio``: sweep entries that passed their checks over entries
  attempted (``failed_ratio`` is 1 minus it, printed alongside);
* ``peak_rss_mb``: peak resident memory of this process over the rounds
  and the final-error solve (the probe comes after).

``study_s`` and the probe readings of ``max_n_1s`` are wall times scaled
to the machine's nominal speed: each study or probe solve sits between two
passes of the frozen kernel in ``reference.py`` and counts as its wall time
times ``NOMINAL_S`` over the mean of those two passes.  The raw wall times
are printed alongside and kept in the result file.

With ``--trace 1`` untraced and traced rounds alternate and the per-layer
metrics (see ``PER_LAYER``) are the traced rounds' means per study.  No
layer queues work or runs a second thread, so there is no waiting time to
report.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is false
when an entry fails that is not a known defect of the seed commit
(``workloads.KNOWN_DEFECTS``); known defects still count in ``failed``.
Outputs, the environment record and the trace spans are written under
``.perfbench_out/`` at the repository root.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

#: Single-threaded BLAS: at most nproc, and steadier on a shared machine.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 5
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import fracvar.cli; "
    "sys.exit(fracvar.cli.main(sys.argv[2:]))"
)
PROBE_LIMIT_S = 1.0
#: A first reading outside this band decides alone; inside it the median of
#: PROBE_TRIALS readings decides, so one reading taken while the machine ran
#: unusually fast or slow cannot move the result.
PROBE_BAND_S = (0.6, 1.8)
PROBE_TRIALS = 3
MIN_ROUNDS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("study_s", "s"),
    ("max_n_1s", "count"),
    ("final_error", "dimensionless"),
    ("pass_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

_FUNCS = (
    "specfun.gamma", "specfun.mittag_leffler",
    "operators.gl_weights", "operators.gl_left_all", "operators.diethelm_caputo",
    "expansions.moment_coeffs", "expansions.hadamard_moment_coeffs",
    "expansions.expand_moment_left", "expansions.hadamard_expand_moment", "expansions.moments",
    "direct.solve_direct", "direct.residual", "direct.lagrangian",
    "indirect.solve_linear_tpbvp", "indirect.rhs",
    "cli.main",
)
_SELF = ("direct.solve_direct", "direct.residual", "indirect.solve_linear_tpbvp")
PER_LAYER = (
    tuple((f"{f}.calls", "count") for f in _FUNCS)
    + tuple((f"{f}.s", "s") for f in _FUNCS)
    + tuple((f"{f}.self_s", "s") for f in _SELF)
    + (
        ("operators.gl_weights.terms", "count"),
        ("expansions.integrand_points", "count"),
        ("cli.csv_bytes", "bytes"),
    )
    + tuple((f"{layer}.self_s", "s")
            for layer in ("cli", "specfun", "operators", "expansions", "direct", "indirect"))
    + (
        ("trace.study_s", "s"),
        ("trace.self_sum_ratio", "ratio"),
        ("trace.overhead_ratio", "ratio"),
    )
)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test: tiny sizes, one round, two probe points")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# running and checking studies
# ---------------------------------------------------------------------------


class Runner:
    """Runs the CLI in-process, times it, and checks what it wrote."""

    def __init__(self, cli, oracles, out_dir):
        self.cli = cli
        self.oracles = oracles
        self.out_dir = out_dir
        self.entries = []  # every checked entry of the run

    def call(self, argv, path):
        if os.path.exists(path):
            os.remove(path)
        start = time.perf_counter()
        try:
            rc, error = self.cli.main(list(argv) + ["--out", path]), None
        except Exception as exc:  # a crash is a failed study; the run goes on
            rc, error = None, repr(exc)
        return time.perf_counter() - start, rc, error

    def check(self, study, path, rc, error):
        """Check one study's CSV; returns its entries (not yet counted)."""
        import numpy as np

        problem = error or (None if rc in (0, 2) else f"exit code {rc}")
        try:
            data = self.oracles.read_csv(path)[1]
        except (OSError, ValueError, IndexError) as exc:
            data, problem = np.empty((0, 8)), problem or f"unreadable CSV: {exc}"
        entries = study.check(data)
        if problem:
            for entry in entries:
                entry.reasons.append(problem)
        return entries

    def round(self, studies, speed=None):
        """One closed-loop pass: time every study, then check every output.

        Returns the round's wall time, the same scaled study by study to
        nominal speed by ``speed`` (a ``reference.Speed``; None without
        one) and the bytes of CSV written.  Round entries are what
        ``attempted`` and ``pass_ratio`` count."""
        paths = [os.path.join(self.out_dir, f"study{i}.csv") for i in range(len(studies))]
        calls, scaled = [], 0.0
        for study, path in zip(studies, paths):
            calls.append(self.call(study.argv, path))
            if speed:
                scaled += speed.scale(calls[-1][0])
        elapsed = sum(c[0] for c in calls)
        csv_bytes = sum(os.path.getsize(p) for p in paths if os.path.exists(p))
        for study, path, (_, rc, error) in zip(studies, paths, calls):
            self.entries.extend(self.check(study, path, rc, error))
        return elapsed, (scaled if speed else None), csv_bytes

    def single(self, study, name):
        """Time and check one study outside the rounds; only a failure is counted."""
        path = os.path.join(self.out_dir, f"{name}.csv")
        elapsed, rc, error = self.call(study.argv, path)
        entries = self.check(study, path, rc, error)
        failed = [e for e in entries if not e.ok]
        self.entries.extend(failed)
        return elapsed, entries, not failed

    def probe(self, workload, grid):
        """Largest grid n whose probe solve takes <= 1 s at nominal speed;
        the readings made."""
        from reference import Speed

        speed = Speed()
        best, trials = 0, []
        for n in grid:
            times = []
            while len(times) < PROBE_TRIALS:
                elapsed, _, ok = self.single(workload.probe(n), "probe")
                times.append(speed.scale(elapsed) if ok else float("inf"))
                if len(times) == 1 and not PROBE_BAND_S[0] <= times[0] <= PROBE_BAND_S[1]:
                    break
            trials.append((n, times))
            if statistics.median(times) > PROBE_LIMIT_S:
                break
            best = n
        return best, trials


def measure_setup(workload, out_dir):
    """Median time of fresh interpreters that import fracvar and make the
    workload's warm-up call, timed from this process; all the times.

    Unlike the other timings this one is not scaled by the reference
    kernel: import time (file reads, loading extension modules) did not
    track the kernel's speed, and scaling made it noisier, not steadier."""
    path = os.path.join(out_dir, "setup.csv")
    argv = [sys.executable, "-c", SETUP_CODE, SRC, *workload.warmup, "--out", path]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=120, check=False)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            fail(f"set-up call failed: {proc.stderr.decode(errors='replace')[-500:]}")
    return statistics.median(times), times


def blas_threads(np):
    """Threads the bundled OpenBLAS will use, asked from the library itself."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return f"unverified, requested {BLAS_THREADS}"


def environment():
    import numpy as np
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(np),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def run_plain(workload, runner, draws, seconds, tiny):
    import resource

    from reference import Speed

    setup_s, setup_times = measure_setup(workload, runner.out_dir)
    speed = Speed()
    rounds, scaled = [], []
    start = time.perf_counter()
    while len(rounds) < (1 if tiny else MIN_ROUNDS) or time.perf_counter() - start < seconds:
        elapsed, elapsed_scaled, _ = runner.round(workload.round(draws.next_round(), tiny),
                                                  speed)
        rounds.append(elapsed)
        scaled.append(elapsed_scaled)
    final_error = runner.single(workload.final, "final")[1][-1].error
    # before the probe, whose largest solve depends on the machine's speed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    max_n, trials = runner.probe(workload, workload.grid[:2] if tiny else workload.grid)
    failed = sum(not e.ok for e in runner.entries)
    metrics = {
        "setup_s": setup_s,
        "study_s": statistics.median(scaled),
        "max_n_1s": max_n,
        "final_error": final_error,
        "pass_ratio": 1.0 - failed / len(runner.entries),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} interpreters (wall time, not scaled)",
        "study_s": f"median of {len(rounds)} rounds; raw wall median "
                   f"{statistics.median(rounds):.4g} s, min {min(rounds):.4g}, max {max(rounds):.4g}",
        "max_n_1s": "probe " + ", ".join(f"n={n}:{'/'.join(f'{t:.3f}' for t in ts)}s"
                                         for n, ts in trials),
        "failed_ratio": f"{failed / len(runner.entries):.6g} ratio "
                        f"({failed} of {len(runner.entries)} entries; JSON has pass_ratio)",
    }
    detail = {"round_s": rounds, "round_scaled_s": scaled, "setup_s": setup_times,
              "probe_scaled_s": trials}
    return metrics, notes, detail


def run_traced(workload, runner, draws, seconds, tiny, trace_path):
    from tracing import Tracer

    tracer = Tracer()
    plain, traced, csv_bytes = [], [], 0
    start = time.perf_counter()
    while (min(len(plain), len(traced)) < (1 if tiny else 2)
           or time.perf_counter() - start < seconds):
        studies = workload.round(draws.next_round(), tiny)
        if len(traced) < len(plain):
            tracer.install()
            try:
                elapsed, _, size = runner.round(studies)
            finally:
                tracer.uninstall()
            traced.append(elapsed)
            csv_bytes += size
        else:
            plain.append(runner.round(studies)[0])
    k = len(traced)
    metrics = {}
    for name, unit in PER_LAYER:
        func, _, field = name.rpartition(".")
        if func in tracer.stats and field in ("calls", "s", "self_s"):
            calls, total, self_s = tracer.stats[func]
            metrics[name] = {"calls": calls, "s": total, "self_s": self_s}[field] / k
        else:
            metrics[name] = 0.0
    for layer, self_s in tracer.layer_self_s().items():
        metrics[f"{layer}.self_s"] = self_s / k
    for counter, value in tracer.counters.items():
        metrics[counter] = value / k
    metrics["cli.csv_bytes"] = csv_bytes / k
    metrics["trace.study_s"] = statistics.median(traced)
    metrics["trace.self_sum_ratio"] = sum(tracer.layer_self_s().values()) / sum(traced)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    tracer.dump(trace_path, {"workload": workload.name, "traced_rounds": k})
    notes = {
        "trace.study_s": f"median of {k} traced rounds, alternating with {len(plain)} untraced",
        "trace.waiting": "none: no layer has a queue or a second thread",
        "trace.spans": f"{len(tracer.spans)} kept, {tracer.dropped_spans} dropped; {trace_path}",
    }
    return metrics, notes, {"traced_round_s": traced, "plain_round_s": plain}


def run_workload(args):
    import numpy as np

    sys.path.insert(0, HERE)
    import oracles
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r} (have {sorted(workloads.WORKLOADS)}, all)")
    import fracvar
    import fracvar.cli

    if os.path.dirname(os.path.abspath(fracvar.__file__)) != os.path.join(SRC, "fracvar"):
        fail(f"imported fracvar from {fracvar.__file__}, not from {SRC}")
    workload = workloads.WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    out_dir = os.path.join(OUT, tag)
    os.makedirs(out_dir, exist_ok=True)
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    runner = Runner(fracvar.cli, oracles, out_dir)
    draws = workloads.Draws(np.random.default_rng(args.seed))
    seconds = 0.0 if args.tiny else args.seconds
    if args.trace:
        metrics, notes, detail = run_traced(workload, runner, draws, seconds, args.tiny,
                                            os.path.join(out_dir, "trace.json"))
        units = dict(PER_LAYER)
    else:
        metrics, notes, detail = run_plain(workload, runner, draws, seconds, args.tiny)
        units = dict(END_TO_END)
    failures = [e for e in runner.entries if not e.ok]
    unexpected = [e for e in failures if e.label not in workloads.KNOWN_DEFECTS]
    for entry in {e.label: e for e in failures}.values():
        known = "known defect" if entry.label in workloads.KNOWN_DEFECTS else "FAILED"
        print(f"check {known}: {entry.label}: {'; '.join(entry.reasons)}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {args.workload} {name} = {value:.6g} {units[name]}{note}")
    for name, note in notes.items():
        if name not in metrics:
            print(f"note {name}: {note}")
    result = {
        "correct": not unexpected,
        "attempted": len(runner.entries),
        "failed": len(failures),
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in metrics.items()},
    }
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump({**result, "workload": args.workload, "seed": args.seed,
                   "environment": env, "detail": detail,
                   "failures": {e.label: e.reasons for e in failures}}, fh, indent=1)
    print(json.dumps(result))


def run_all(args):
    """Every workload in its own process, one after the other."""
    sys.path.insert(0, HERE)
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fracvar", "__init__.py")):
        fail(f"no fracvar sources under {SRC}")
    # BLAS reads these when numpy is first imported, which only happens below.
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, SRC)
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
