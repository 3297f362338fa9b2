"""drsum solve benchmark.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Runs one workload (an INI file under perfbench/workloads/) as a closed
loop of fresh, single-threaded workload processes, one after another,
for about --seconds.  Each process sets the workload up, solves it,
writes its outputs and gates them (see worker.py); between processes
the runner times a host-speed probe.  The last line of
standard output is {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics untraced, the per-layer metrics with --trace 1.
Exits 1 if any solve failed its gate and 2 if the checkout holds no
drsum sources.  Run records go to .perfbench_out/ in the checkout.
"""

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = sorted(p.stem for p in (HERE / "workloads").glob("*.ini"))
OUT = ROOT / ".perfbench_out"

# Untraced: fresh workload processes per run, one after another, each on
# its own data seed.  The constrained workloads' solve time depends on the
# data (the projection's L-BFGS-B iterations), so they take more seeds.
PROCESSES = {"drlogistic_m20": 10, "fairness_m120": 10}
DEFAULT_PROCESSES = 5
# The shared 2-vCPU host the benchmark was written on changes speed in
# phases of ten seconds to many minutes: kl_dist4's median solve was
# 2.9 s in one run and 4.6 s in a run ten minutes later.  The runner therefore
# times a fixed probe (random lookups in a 200k-entry dict, cache-bound
# like the solver's interpreted inner loop, no drsum code) before and
# after every workload process, and reports set-up and solve times scaled
# by PROBE_REF_S over the run's median probe time.  Over 40 s windows the
# scaling cut the standard deviation of the median solve from 14 % to 6 %
# of its mean.
PROBE_REF_S = 0.010  # probe time the scaled figures are expressed at
PROBE_LOOKUPS = 50_000
PROBE_REPEATS = 5    # probe timings per reading
TIME_LIMIT_S = 170.0  # hard ceiling for one benchmark command
# One BLAS thread: with the default pool the first L-BFGS-B projection in
# a fresh process sometimes stalled for about a second.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name):
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("share", "frac", "imbalance", "overhead",
                      "rows_per_counted_call")):
        return "ratio"
    return "count"


def git_commit():
    """HEAD of the checkout, read without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _probe_table():
    keys = [i * 7919 % 1_000_003 for i in range(200_000)]
    rng = random.Random(0)
    return dict(zip(keys, range(len(keys)))), [
        rng.randrange(1_000_003) for _ in range(PROBE_LOOKUPS)]


def host_probe(table, lookups):
    """PROBE_REPEATS timings of PROBE_LOOKUPS dict lookups, in seconds."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        found = 0
        for key in lookups:
            found += table.get(key, 0)
        times.append(time.perf_counter() - start)
    return times


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("DRSUM_")}
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_process(workload, seed, trace, deadline, timeout):
    """One fresh workload process; returns its JSON record, or a record
    carrying the failure if it crashed or timed out."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--ini", str(HERE / "workloads" / f"{workload}.ini"),
           "--seed", str(seed), "--trace", str(trace),
           "--deadline", f"{deadline:.3f}",
           "--out", str(OUT / workload / f"seed{seed}")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=timeout,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        return {"failures": [f"workload process exceeded {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"failures": [f"workload process exited {proc.returncode}: "
                             + " | ".join(tail)]}
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace):
    """Fresh processes one after another, process k on data seed
    1000 * seed + k.  Untraced: n = PROCESSES of them; process k sets up
    and solves until (k + 1) / n of the run's time has passed (at least
    once), then writes and gates; the host probe runs before the
    first process and after each.  Traced: one untraced and one traced
    solve per process until the time is used.  Returns the process
    records and the probe timings."""
    processes = PROCESSES.get(workload, DEFAULT_PROCESSES)
    probe = None if trace else _probe_table()
    probes = host_probe(*probe) if probe else []
    start = time.monotonic()
    records = []
    while True:
        elapsed = time.monotonic() - start
        if trace and records and elapsed * (1 + 1 / len(records)) > seconds:
            break
        if not trace and len(records) == processes:
            break
        deadline = start + seconds * (len(records) + 1) / processes
        record = run_process(workload, 1000 * seed + len(records), trace,
                             0.0 if trace else deadline,
                             TIME_LIMIT_S - elapsed)
        records.append(record)
        if probe:
            probes += host_probe(*probe)
        print(f"  process {len(records)}: "
              + ", ".join(f"{k}={record[k]:.4g}" for k in
                          ("setup_s", "traced_solve_s", "gap") if k in record)
              + " solves=" + " ".join(f"{s:.3f}" for s in record.get("solves", ()))
              + (f"  FAILED: {'; '.join(record['failures'])}"
                 if record["failures"] else ""), flush=True)
        if time.monotonic() - start > TIME_LIMIT_S / 2:
            break
    return records, probes


def summarize(records, probes, trace):
    ok = [r for r in records if not r["failures"]]
    attempted = failed = 0
    for r in records:
        solves = len(r.get("solves", ())) + ("traced_solve_s" in r)
        attempted += max(solves, 1)
        failed += max(solves, 1) if r["failures"] else 0
    metrics = {}
    if ok and not trace:
        solves = [s for r in ok for s in r["solves"]]
        setup = statistics.median(r["setup_s"] for r in ok)
        solve = statistics.median(solves)
        speed = PROBE_REF_S / statistics.median(probes)
        values = {"setup_s": setup * speed, "solve_s": solve * speed,
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok)}
        for name, unit in END_TO_END_UNITS.items():
            metrics[name] = {"value": values[name], "unit": unit}
        print(f"  solves: {len(solves)}, min {min(solves):.4f} s, median "
              f"{solve:.4f} s, max {max(solves):.4f} s; set-up median "
              f"{setup:.4f} s")
        print(f"  host probe: {len(probes)}, median "
              f"{statistics.median(probes) * 1e3:.3f} ms, speed factor "
              f"{speed:.4f}")
    elif ok:
        # median_low: counts stay counts one process actually made
        for name in ok[0]["layers"]:
            metrics[name] = {"value": statistics.median_low(
                r["layers"][name] for r in ok), "unit": layer_unit(name)}
        metrics["trace.overhead"]["value"] = (
            statistics.median(r["traced_solve_s"] for r in ok)
            / statistics.median(r["solve_s"] for r in ok))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_workload(workload, seed, seconds, trace):
    print(f"== {workload} seed={seed} seconds={seconds} trace={trace}",
          flush=True)
    records, probes = measure(workload, seed, seconds, trace)
    result = summarize(records, probes, trace)
    env = {
        "workload": workload, "seed": seed, "trace": trace,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": next((r["numpy"] for r in records if "numpy" in r), None),
        "scipy": next((r["scipy"] for r in records if "scipy" in r), None),
        "blas_threads": BLAS_ENV, "git_commit": git_commit(),
        "processes": len(records),
    }
    print("  env " + json.dumps(env))
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_frac':32s} {result['failed'] / result['attempted']:.6g}"
          f" ratio ({result['failed']} of {result['attempted']} solves)")
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    record_path.write_text(json.dumps(
        {"env": env, "result": result, "probes": probes,
         "processes": records}, indent=1) + "\n")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "drsum" / "cli.py").is_file():
        print(f"no drsum sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace)
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    results = {w: run_workload(w, args.seed, args.seconds, args.trace)
               for w in WORKLOADS}
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": metric for w, r in results.items()
                    for name, metric in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
