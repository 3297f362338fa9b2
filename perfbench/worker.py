"""One fresh workload process of the benchmark.

Sets the workload up through drsum's public entry points (import
drsum.cli, load_config, Experiment(cfg)), times Experiment.run(), writes
the trajectory CSV and summary JSON, and gates the result against the
closed-form counters and an independent reference optimum.  With
--trace 1 it then repeats set-up and solve with the span tracer
installed.  Prints one JSON line with its measurements.

Run by perfbench/run.py with PYTHONPATH pointing at the checkout's src/.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite literal {token} in JSON output")
    return json.loads(text, parse_constant=reject)


def _load(cli, ini, seed, out_dir):
    cfg = cli.load_config(ini)
    cfg["problem"]["data_seed"] = str(seed)
    cfg["solver"]["seed"] = str(seed)
    cfg["output"]["out_dir"] = str(out_dir)
    return cfg


def _write(cli, cfg, exp, report):
    """Write both outputs the way `drsum solve` does."""
    exp.out_dir.mkdir(parents=True, exist_ok=True)
    cli.write_trajectory_csv(exp.out_dir / exp.trajectory_csv, report)
    cli.write_summary_json(exp.out_dir / exp.summary_json, cfg, exp, report)


def gate(exp, report, ref, best):
    """Every way the solve missed its contract, as messages; empty if none."""
    import numpy as np
    from reference import closed_form_calls, component_count, FEASIBILITY_TOL

    failures = []
    solver_cfg = exp.solver_cfg
    expected = closed_form_calls(component_count(exp.cfg, exp.dataset),
                                 solver_cfg.T, solver_cfg.K,
                                 getattr(solver_cfg, "p", 1))
    counters = report.counters
    if (counters.g_value_calls, counters.h_gradient_calls) != \
            (sum(expected), sum(expected)):
        failures.append(
            f"oracle counters g={counters.g_value_calls} "
            f"h={counters.h_gradient_calls}, closed form {sum(expected)}")
    if report.per_device_counters is not None:
        per_device = [c.g_value_calls for c in report.per_device_counters]
        if per_device != expected:
            failures.append(f"per-device g calls {per_device}, "
                            f"closed form {expected}")
    x = np.asarray(report.final_x, dtype=float)
    if not np.all(np.isfinite(x)) or not math.isfinite(report.final_psi):
        failures.append("non-finite final point or objective")
        return failures
    if ref.constrained:
        worst = float(np.max(ref.constraint_values(x)))
        if worst > FEASIBILITY_TOL:
            failures.append(f"max constraint {worst:.3e} above tolerance")
    gap, tol = ref.gap(x, best)
    if not gap <= tol:
        failures.append(f"objective gap {gap:.3e} above tolerance {tol:g}")

    summary = _strict_json((exp.out_dir / exp.summary_json).read_text())
    if summary["counters"] != counters.as_dict():
        failures.append("summary.json counters differ from the report")
    rows = (exp.out_dir / exp.trajectory_csv).read_text().count("\n") - 1
    if rows != len(report.trajectory):
        failures.append(f"trajectory.csv has {rows} rows, "
                        f"expected {len(report.trajectory)}")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ini", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--deadline", type=float, default=0.0,
                        help="time.monotonic() reading until which to keep "
                             "starting solves (at least one solve)")
    args = parser.parse_args(argv)
    workload = Path(args.ini).stem
    result = {"failures": []}

    def finish():
        print(json.dumps(result))
        return 0

    import_start = time.perf_counter()
    import drsum.cli as cli
    result["import_s"] = time.perf_counter() - import_start
    cfg = _load(cli, args.ini, args.seed, Path(args.out) / "untraced")
    exp = cli.Experiment(cfg)
    result["setup_s"] = time.perf_counter() - START
    import numpy as np
    import scipy

    # Solve while the next solve, as long as the median one so far, ends
    # before the deadline (at least once); a rerun must reproduce the first
    # result exactly.
    result["solves"] = []
    report = None
    while report is None or (time.monotonic() + statistics.median(
            result["solves"]) <= args.deadline):
        try:
            start = time.perf_counter()
            rerun = exp.run()
            result["solves"].append(time.perf_counter() - start)
        except Exception as exc:  # any raise is a failed solve, reported below
            result["failures"].append(
                f"solve raised {type(exc).__name__}: {exc}")
            return finish()
        if report is None:
            report = rerun
        elif not (np.array_equal(rerun.final_x, report.final_x)
                  and rerun.counters.as_dict() == report.counters.as_dict()):
            result["failures"].append("a rerun differs from the first solve")
    result["solve_s"] = result["solves"][0]
    _write(cli, cfg, exp, report)
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        traced = traced_solve(cli, args, workload, result["solve_s"], report)
        result["failures"] += traced.pop("failures")
        traced["layers"]["setup.import_s"] = result["import_s"]
        result.update(traced)

    from reference import reference_for

    result["numpy"], result["scipy"] = np.__version__, scipy.__version__
    ref = reference_for(exp)
    best = ref.optimum()
    result["reference_optimum"] = best
    result["gap"], result["gap_tol"] = ref.gap(report.final_x, best)
    result["failures"] += gate(exp, report, ref, best)
    return finish()


def traced_solve(cli, args, workload, untraced_solve_s, untraced_report):
    """Set up and solve again under the tracer; returns the per-layer
    metrics, the traced solve time, the span table and any failures."""
    import numpy as np
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        cfg = _load(cli, args.ini, args.seed, Path(args.out) / "traced")
        exp = cli.Experiment(cfg)
        tracer.phase("solve")
        start = time.perf_counter()
        report = exp.run()
        solve_s = time.perf_counter() - start
        tracer.phase("write")
        _write(cli, cfg, exp, report)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics(report, solve_s, untraced_solve_s)
    rows = (exp.out_dir / exp.trajectory_csv).read_text().count("\n") - 1
    layers["cli.rows_written"] = rows
    failures = tracer.missing_spans(workload)
    if not np.array_equal(report.final_x, untraced_report.final_x) or \
            report.counters.as_dict() != untraced_report.counters.as_dict():
        failures.append("traced solve differs from the untraced solve")
    return {"traced_solve_s": solve_s, "layers": layers,
            "spans": tracer.span_table(), "failures": failures}


if __name__ == "__main__":
    sys.exit(main())
