"""Outside-in span tracer for the benchmark's traced run.

The program is not edited: the tracer replaces the public names each
drsum module binds (and the oracle fields of every compiled problem)
with timing wrappers, and restores them on uninstall.  Spans are
aggregated in memory per phase ("setup", "solve", "write") under the key
(span name, context), where the context is the nearest enclosing
non-leaf span; each entry holds the call count, inclusive seconds, self
seconds (inclusive minus the time covered by child spans) and a tally
that some spans take from their result.
"""

from __future__ import annotations

import time

import drsum.cli as cli
import drsum.constraints as constraints
import drsum.distributed as distributed
import drsum.problems as problems
import drsum.reductions as reductions
import drsum.solver as solver

# Solve-time spans; every one must fire on every workload unless it is
# listed as absent for that workload below, and absent spans must not.
SOLVE_SPANS = (
    "solver.run_epoch", "distributed.dist_run_epoch",
    "composite.batch_estimates", "composite.delta_update",
    "composite.evaluate_psi", "composite.gradient_mapping",
    "constraints.max_violation", "constraints.project_feasible",
    "constraints.minimize", "constraints.ConstraintSet.eval",
    "reductions.build_wasserstein", "reductions.g_oracle",
    "reductions.h_oracle", "reductions.f_outer", "proxlib.prox",
    "problems.QuadraticLosses.eval", "problems.LogisticLosses.eval",
    "problems.LogisticLosses.score",
)
_UNCONSTRAINED_ABSENT = {
    "constraints.max_violation", "constraints.project_feasible",
    "constraints.minimize", "constraints.ConstraintSet.eval",
    "reductions.build_wasserstein", "problems.LogisticLosses.score",
}
ABSENT_IN_SOLVE = {
    "chi2_quad_m1024": _UNCONSTRAINED_ABSENT | {
        "distributed.dist_run_epoch", "problems.LogisticLosses.eval"},
    "kl_dist4_logistic_m1024": _UNCONSTRAINED_ABSENT | {
        "solver.run_epoch", "problems.QuadraticLosses.eval"},
    # the constraints are closures over the data, not a loss family
    "drlogistic_m20": {
        "distributed.dist_run_epoch", "problems.QuadraticLosses.eval",
        "problems.LogisticLosses.eval", "problems.LogisticLosses.score"},
    # m = 2 components: every inner pass is a full pass (no deltas)
    "fairness_m120": {
        "distributed.dist_run_epoch", "composite.delta_update",
        "problems.QuadraticLosses.eval"},
}
# Spans that fire on some data seeds only: the smoothed fairness result
# is usually feasible already, so the projection seldom needs L-BFGS-B.
MAY_FIRE_IN_SOLVE = {"fairness_m120": {"constraints.minimize"}}
SETUP_SPANS = ("cli.Experiment._build_data", "cli.Experiment._build_problem")
WRITE_SPANS = ("cli.write_trajectory_csv", "cli.write_summary_json")

FAMILY_SPANS = ("problems.QuadraticLosses.eval",
                "problems.LogisticLosses.eval",
                "problems.LogisticLosses.score")
ORACLE_SPANS = ("reductions.g_oracle", "reductions.h_oracle",
                "reductions.f_outer")


class Tracer:
    """Installs span wrappers on drsum's public names and aggregates them."""

    def __init__(self):
        self.phases = {}
        self.stats = None
        self._stack = []     # open spans: [context, seconds covered by children]
        self._patches = []   # (owner, attribute, original), in install order
        self.phase("setup")

    def phase(self, name):
        """Aggregate the spans that follow under the named phase."""
        self.stats = self.phases.setdefault(name, {})

    def wrap(self, name, fn, context=False, tally=None):
        """fn wrapped in a span; a context span names the context of the
        spans it encloses, a leaf span passes its own context on."""
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            outer = stack[-1][0] if stack else None
            frame = [name if context else outer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                entry = self.stats.get((name, outer))
                if entry is None:
                    entry = self.stats[(name, outer)] = [0, 0.0, 0.0, 0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
            if tally is not None:
                entry[3] += tally(result)
            return result

        return traced

    def _patch(self, owner, attr, name, context=True, tally=None):
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, context, tally))

    def _trace_problem(self, problem):
        problem.g_oracle = self.wrap("reductions.g_oracle", problem.g_oracle)
        problem.h_oracle = self.wrap("reductions.h_oracle", problem.h_oracle)
        problem.f_outer = self.wrap("reductions.f_outer", problem.f_outer)
        r_term = problem.r_term
        if "prox" not in vars(r_term):   # stages may share one term
            r_term.prox = self.wrap("proxlib.prox", r_term.prox)
        return problem

    def _patch_builder(self, module, attr):
        build = vars(module)[attr]

        def build_traced(*args, **kwargs):
            return self._trace_problem(build(*args, **kwargs))

        self._patches.append((module, attr, build))
        setattr(module, attr,
                self.wrap("reductions." + attr, build_traced, context=True))

    def install(self):
        """Wrap every hook; call before Experiment(cfg), because the
        compilers capture the loss family's eval when they build."""
        for module, epoch in ((solver, "run_epoch"),
                              (distributed, "dist_run_epoch")):
            self._patch(module, epoch,
                        f"{module.__name__.rpartition('.')[2]}.{epoch}")
            for attr in ("batch_estimates", "delta_update", "evaluate_psi",
                         "gradient_mapping"):
                self._patch(module, attr, "composite." + attr)
            self._patch(module, "max_violation", "constraints.max_violation")
        self._patch(solver, "project_feasible", "constraints.project_feasible",
                    tally=lambda result: result[2])
        self._patch(constraints, "minimize", "constraints.minimize",
                    context=False)
        self._patch(constraints.ConstraintSet, "eval",
                    "constraints.ConstraintSet.eval", context=False)
        for cls, attr in ((problems.QuadraticLosses, "eval"),
                          (problems.LogisticLosses, "eval"),
                          (problems.LogisticLosses, "score")):
            self._patch(cls, attr, f"problems.{cls.__name__}.{attr}",
                        context=False)
        self._patch(cli.Experiment, "_build_data", "cli.Experiment._build_data")
        self._patch(cli.Experiment, "_build_problem",
                    "cli.Experiment._build_problem")
        self._patch_builder(cli, "build_chi2")
        self._patch_builder(cli, "build_kl")
        self._patch_builder(reductions, "build_wasserstein")
        for attr in ("write_trajectory_csv", "write_summary_json"):
            self._patch(cli, attr, "cli." + attr)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading the aggregate -------------------------------------------

    def _sum(self, phase, names, field, context=None):
        stats = self.phases.get(phase, {})
        return sum(entry[field] for (name, ctx), entry in stats.items()
                   if name in names and (context is None or ctx == context))

    def count(self, phase, *names, context=None):
        return self._sum(phase, names, 0, context)

    def seconds(self, phase, *names):
        return self._sum(phase, names, 1)

    def self_seconds(self, phase, *names):
        return self._sum(phase, names, 2)

    def tally(self, phase, *names):
        return self._sum(phase, names, 3)

    def missing_spans(self, workload):
        """Spans that fired where their layer does not run, or stayed
        silent where it does; empty when the hooks match the program."""
        absent = ABSENT_IN_SOLVE[workload]
        optional = MAY_FIRE_IN_SOLVE.get(workload, set())
        problems_found = []
        for phase, names in (("setup", SETUP_SPANS), ("write", WRITE_SPANS),
                             ("solve", SOLVE_SPANS)):
            for name in (n for n in names if n not in optional):
                calls = self.count(phase, name)
                if name in absent and calls:
                    problems_found.append(f"{phase} span {name} fired "
                                          f"{calls} times, expected none")
                elif name not in absent and not calls:
                    problems_found.append(f"{phase} span {name} never fired")
        return problems_found

    def layer_metrics(self, report, traced_solve_s, untraced_solve_s):
        """Per-layer metrics of one traced solve (see README.md)."""
        S = "solve"
        g_calls = self.count(S, "reductions.g_oracle")
        h_calls = self.count(S, "reductions.h_oracle")
        oracle_calls = self.count(S, *ORACLE_SPANS)
        counted_g = report.counters.g_value_calls
        counted_h = report.counters.h_gradient_calls
        counted = counted_g + counted_h
        family_evals = self.count(S, *FAMILY_SPANS)
        diag_s = self.seconds(S, "composite.evaluate_psi",
                              "composite.gradient_mapping",
                              "constraints.max_violation")
        epochs = ("solver.run_epoch", "distributed.dist_run_epoch")
        devices = [c.g_value_calls for c in report.per_device_counters or ()]
        return {
            "solver.steps": self.count(S, "proxlib.prox", context=epochs[0])
                            + self.count(S, "proxlib.prox", context=epochs[1]),
            "solver.self_s": self.self_seconds(S, *epochs),
            "dist.worker_calls_max": max(devices, default=0),
            "dist.imbalance": (max(devices) * len(devices) / sum(devices)
                               if devices else 0.0),
            "estimator.calls": self.count(S, "composite.batch_estimates",
                                          "composite.delta_update"),
            "estimator.batch_s": self.self_seconds(S, "composite.batch_estimates"),
            "estimator.delta_s": self.self_seconds(S, "composite.delta_update"),
            "diag.psi_s": self.seconds(S, "composite.evaluate_psi"),
            "diag.gradmap_s": self.seconds(S, "composite.gradient_mapping"),
            "diag.violation_s": self.seconds(S, "constraints.max_violation"),
            "diag.share": diag_s / traced_solve_s,
            "oracle.g_calls": g_calls,
            "oracle.h_calls": h_calls,
            "oracle.counted_g_calls": counted_g,
            "oracle.counted_h_calls": counted_h,
            "oracle.counted_calls": counted,
            "oracle.uncounted_frac": 1.0 - counted / (g_calls + h_calls),
            "oracle.s": self.seconds(S, *ORACLE_SPANS),
            "oracle.us_per_call": 1e6 * self.seconds(S, *ORACLE_SPANS)
                                  / oracle_calls,
            "oracle.counted_per_s": counted / untraced_solve_s,
            "family.evals": family_evals,
            "family.s": self.seconds(S, *FAMILY_SPANS),
            "family.rows_per_counted_call": family_evals / counted,
            "setup.data_s": self.seconds("setup", "cli.Experiment._build_data"),
            "setup.compile_s": self.seconds("setup",
                                            "cli.Experiment._build_problem"),
            "constraint.evals": self.count(S, "constraints.ConstraintSet.eval"),
            "constraint.s": self.seconds(S, "constraints.ConstraintSet.eval"),
            "projection.s": self.seconds(S, "constraints.project_feasible"),
            "projection.iterations": self.tally(S, "constraints.project_feasible"),
            "projection.rounds": self.count(S, "constraints.minimize"),
            "projection.constraint_evals": self.count(
                S, "constraints.ConstraintSet.eval",
                context="constraints.project_feasible"),
            "prox.calls": self.count(S, "proxlib.prox"),
            "prox.s": self.seconds(S, "proxlib.prox"),
            "cli.write_s": self.seconds("write", *WRITE_SPANS),
            "trace.overhead": traced_solve_s / untraced_solve_s,
        }

    def span_table(self):
        """The aggregate as JSON-ready rows, for the run record."""
        return [{"phase": phase, "span": name, "context": ctx, "calls": e[0],
                 "total_s": e[1], "self_s": e[2], "tally": e[3]}
                for phase, stats in self.phases.items()
                for (name, ctx), e in sorted(stats.items(), key=str)]
