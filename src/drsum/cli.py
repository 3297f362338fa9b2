"""Configuration-driven experiment runner.

Commands: solve, check, bench.  Experiments are described by an INI file
with three sections ([problem], [solver], [output]); any key can be
overridden by an environment variable DRSUM_<SECTION>__<KEY>.  The solve
command writes a trajectory CSV (one row per proximal step, shortest
round-trip float formatting, reruns byte-identical except wall_s) and a
JSON summary whose echoed configuration reproduces the run.

Exit codes: 0 success, 1 configuration error, 2 solver or projection
nonconvergence (including a diverging iterate or a numerical overflow),
3 failed check.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .composite import check_jacobians, evaluate_psi, gradient_mapping
from .constraints import ConstraintSet, ProjectionError, max_violation
from .diagnostics import baseline_solve, estimate_constants
from .distributed import DistConfig, dist_solve
from .problems import (
    BrokenJacobianLosses,
    FairnessSpec,
    MeanLossObjective,
    build_fairness_constraints,
    error_rate,
    ingest_csv,
    make_losses,
    make_synthetic,
    make_xor_dataset,
    max_fairness_violation,
)
from .proxlib import SquaredNormTerm
from .reductions import (
    Chi2Config,
    KlConfig,
    WassersteinConfig,
    brute_force_penalized_max,
    build_chi2,
    build_dr_logistic,
    build_kl,
    build_mean,
    chi2_worst_case_weights,
    convexify_constraints,
    wasserstein_penalty,
)
from .solver import (
    SolverConfig,
    Schedule,
    SolverReport,
    solve_constrained_wasserstein,
    solve_restarted,
)

ENV_PREFIX = "DRSUM_"
CSV_HEADER = ("stage,epoch,step,oracle_g_calls,oracle_h_calls,"
              "psi,grad_map_sq,max_violation,wall_s")


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the key."""


def load_config(path):
    """Read the INI file and fold in environment overrides.

    Returns a plain {section: {key: str}} dict.  Duplicate sections or
    keys are configuration errors, as are unknown sections.
    """
    parser = configparser.ConfigParser(strict=True, interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except configparser.DuplicateSectionError as exc:
        raise ConfigError(f"duplicate section [{exc.section}] in {path}")
    except configparser.DuplicateOptionError as exc:
        raise ConfigError(
            f"duplicate key {exc.option!r} in section [{exc.section}] of {path}")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}")
    known = {"problem", "solver", "output"}
    unknown = set(parser.sections()) - known
    if unknown:
        raise ConfigError(f"unknown sections: {sorted(unknown)}")
    cfg = {s: dict(parser.items(s)) for s in parser.sections()}
    cfg.setdefault("problem", {})
    cfg.setdefault("solver", {})
    cfg.setdefault("output", {})
    for env_key, value in sorted(os.environ.items()):
        if not env_key.startswith(ENV_PREFIX):
            continue
        rest = env_key[len(ENV_PREFIX):]
        if "__" not in rest:
            continue
        section, key = rest.split("__", 1)
        section = section.lower()
        if section in known:
            cfg[section][key.lower()] = value
    return cfg


def _get(cfg, section, key, default=None, cast=str, required=False):
    raw = cfg[section].get(key)
    if raw is None:
        if required:
            raise ConfigError(f"missing required key {section}.{key}")
        return default
    try:
        if cast is bool:
            lowered = str(raw).strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return cast(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"cannot parse {section}.{key} = {raw!r}")


class Experiment:
    """Everything a command needs: the compiled problem, solver config,
    and the handles for constraint and fairness diagnostics."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.reduction = _get(cfg, "problem", "reduction", default="none")
        if self.reduction not in ("chi2", "kl", "wasserstein", "none"):
            raise ConfigError(f"unknown problem.reduction {self.reduction!r}")
        self.kind = _get(cfg, "problem", "kind", default="quadratic")
        self.dataset = None
        self.family = None
        self.constraints = None
        self.objective = None
        self.problem = None
        self.wcfg = None
        self.fairness_spec = None
        self._build_data()
        self._build_problem()
        self._build_solver()
        self._resolve_output()

    # -- problem assembly -------------------------------------------------

    def _build_data(self):
        cfg = self.cfg
        if self.kind == "corner_toy":
            return
        source = _get(cfg, "problem", "source", default="synthetic")
        if source == "csv":
            path = _get(cfg, "problem", "csv_path", required=True)
            if not Path(path).exists():
                raise ConfigError(f"problem.csv_path does not exist: {path}")
            features = _get(cfg, "problem", "feature_columns", required=True)
            schema = {c.strip(): "feature" for c in features.split(",") if c.strip()}
            schema[_get(cfg, "problem", "label_column", required=True)] = "label"
            group_col = _get(cfg, "problem", "group_column")
            if group_col:
                schema[group_col] = "group"
            self.dataset = ingest_csv(
                path, schema,
                standardize=_get(cfg, "problem", "standardize", True, bool))
        elif source == "synthetic":
            m = _get(cfg, "problem", "m", default=16, cast=int)
            d = _get(cfg, "problem", "d", default=5, cast=int)
            seed = _get(cfg, "problem", "data_seed", default=0, cast=int)
            synthetic = _get(cfg, "problem", "synthetic", default=None)
            if self.kind == "quadratic":
                self.family = make_synthetic(
                    synthetic or "strongly_convex_quadratic", m=m, d=d,
                    seed=seed, cond=_get(cfg, "problem", "cond", 10.0, float))
                if synthetic == "nonconvex_toy":
                    self.family = make_synthetic("nonconvex_toy", m=m, d=d, seed=seed)
                return
            if synthetic == "xor" or (synthetic is None and self.kind == "mlp2"):
                self.dataset = make_xor_dataset(m=m, seed=seed)
            elif synthetic in (None, "two_group_bias"):
                self.dataset = make_synthetic(
                    "two_group_bias", m=m, seed=seed,
                    min_gap=_get(cfg, "problem", "min_gap", 0.1, float))
            else:
                raise ConfigError(f"unknown problem.synthetic {synthetic!r}")
        else:
            raise ConfigError(f"unknown problem.source {source!r}")

        if self.kind in ("logistic", "mlp2"):
            self.family = make_losses(
                self.kind, self.dataset,
                hidden=_get(cfg, "problem", "hidden", 4, int))
        elif self.kind not in ("quadratic", "dr_logistic"):
            raise ConfigError(f"unknown problem.kind {self.kind!r}")
        if _get(cfg, "problem", "inject_jacobian_fault", False, bool):
            if self.family is None:
                raise ConfigError(
                    "inject_jacobian_fault needs a loss family problem")
            self.family = BrokenJacobianLosses(self.family)

    def _build_problem(self):
        cfg = self.cfg
        gamma = _get(cfg, "problem", "gamma", default=None, cast=float)
        if self.reduction == "chi2":
            if gamma is None:
                raise ConfigError("chi2 reduction needs problem.gamma")
            self.problem = build_chi2(self.family, Chi2Config(gamma=gamma))
        elif self.reduction == "kl":
            if gamma is None:
                raise ConfigError("kl reduction needs problem.gamma")
            self.problem = build_kl(self.family, KlConfig(gamma=gamma))
        elif self.reduction == "none":
            if self.family is None:
                raise ConfigError(f"kind {self.kind!r} requires a reduction")
            self.problem = build_mean(self.family)
        else:
            self._build_wasserstein_pieces(gamma)

    def _build_wasserstein_pieces(self, gamma):
        cfg = self.cfg
        alpha = _get(cfg, "problem", "alpha", required=True, cast=float)
        use_gamma_from_restarts = _get(cfg, "problem", "gamma_from_restarts", False, bool)
        K = _get(cfg, "solver", "k", default=1, cast=int)
        if use_gamma_from_restarts:
            self.wcfg = WassersteinConfig(alpha=alpha, K=K)
        else:
            if gamma is None:
                raise ConfigError(
                    "wasserstein reduction needs problem.gamma or "
                    "problem.gamma_from_restarts = true")
            self.wcfg = WassersteinConfig(alpha=alpha, gamma=gamma)

        if self.kind == "corner_toy":
            target = _parse_vector(_get(cfg, "problem", "target", "2,2"))
            bound = _parse_vector(_get(cfg, "problem", "bound", "1,1"))
            if target.size != bound.size:
                raise ConfigError("problem.target and problem.bound sizes differ")
            self.objective = SquaredNormTerm(1.0, center=target)
            self.objective.dim = target.size
            self.constraints = ConstraintSet.affine(np.eye(target.size), bound)
            return
        if self.kind == "dr_logistic":
            if self.dataset is None:
                raise ConfigError("dr_logistic needs a dataset")
            self.objective, self.constraints = build_dr_logistic(
                self.dataset,
                eps_radius=_get(cfg, "problem", "eps_radius", 0.1, float),
                kappa_flip=_get(cfg, "problem", "kappa_flip", 1.0, float))
            return
        if self.family is None or self.dataset is None:
            raise ConfigError(
                "wasserstein fairness runs need a classifier kind and dataset")
        self.fairness_spec = FairnessSpec(
            eps_slack=_get(cfg, "problem", "eps_slack", 0.05, float),
            surrogate_temp=_get(cfg, "problem", "surrogate_temp", 5.0, float))
        self.constraints = build_fairness_constraints(
            self.dataset, self.family, self.fairness_spec)
        mu = _get(cfg, "problem", "mu_convexify", 0.0, float)
        if mu > 0:
            self.constraints = convexify_constraints(
                self.constraints, np.full(self.constraints.m, mu))
        self.objective = MeanLossObjective(self.family)

    # -- solver -----------------------------------------------------------

    def _build_solver(self):
        cfg = self.cfg
        self.method = _get(cfg, "solver", "method", default="vr")
        if self.method not in ("vr", "dist_vr", "full_prox_gradient",
                               "naive_biased_sgd"):
            raise ConfigError(f"unknown solver.method {self.method!r}")
        schedule = Schedule(
            mode=_get(cfg, "solver", "schedule", "fixed_sqrt_m"),
            beta=_get(cfg, "solver", "beta", 1.0, float),
            zeta=_get(cfg, "solver", "zeta", 0.0, float),
            tau=_get(cfg, "solver", "tau", 1, int),
        )
        common = dict(
            eta=_get(cfg, "solver", "eta", required=True, cast=float),
            T=_get(cfg, "solver", "t", 1, int),
            K=_get(cfg, "solver", "k", 1, int),
            schedule=schedule,
            seed=_get(cfg, "solver", "seed", 0, int),
            output_rule=_get(cfg, "solver", "output_rule", "last_iterate"),
            grad_map_every=_get(cfg, "solver", "grad_map_every", 0, int),
        )
        try:
            if self.method == "dist_vr":
                self.solver_cfg = DistConfig(
                    p=_get(cfg, "solver", "workers", 1, int), **common)
            else:
                self.solver_cfg = SolverConfig(**common)
        except ValueError as exc:
            raise ConfigError(f"solver configuration invalid: {exc}")
        self.baseline_iters = _get(cfg, "solver", "iters", 100, int)
        self.baseline_batch = _get(cfg, "solver", "batch_size", 1, int)

    def _resolve_output(self):
        cfg = self.cfg
        self.out_dir = Path(_get(cfg, "output", "out_dir", "runs"))
        self.trajectory_csv = _get(cfg, "output", "trajectory_csv",
                                   "trajectory.csv")
        self.summary_json = _get(cfg, "output", "summary_json", "summary.json")
        self.bench_csv = _get(cfg, "output", "bench_csv", "bench.csv")

    # -- execution ----------------------------------------------------------

    def x0(self):
        explicit = self.cfg["solver"].get("x0")
        if explicit:
            return _parse_vector(explicit)
        if self.reduction == "wasserstein":
            dim = getattr(self.objective, "dim", None)
            if dim is None and hasattr(self.objective, "slope"):
                dim = self.objective.slope.size
            return np.zeros(int(dim))
        return np.zeros(self.problem.dim_x)

    def run(self) -> SolverReport:
        if self.method == "vr":
            if self.reduction == "wasserstein":
                return solve_constrained_wasserstein(
                    self.objective, self.constraints, self.wcfg,
                    self.solver_cfg, x0=self.x0())
            return solve_restarted(self.problem, self.x0(), self.solver_cfg)
        if self.method == "dist_vr":
            if self.reduction == "wasserstein":
                raise ConfigError(
                    "dist_vr does not support the wasserstein reduction; "
                    "use method = vr")
            return dist_solve(self.problem, self.x0(), self.solver_cfg)
        problem = self.problem if self.problem is not None else \
            build_mean(self.family)
        return baseline_solve(problem, self.method, self.baseline_iters,
                              self.solver_cfg.eta, seed=self.solver_cfg.seed,
                              x0=self.x0() if self.reduction != "wasserstein" else None,
                              batch_size=self.baseline_batch)


def _parse_vector(text):
    try:
        return np.array([float(v) for v in str(text).split(",") if v.strip() != ""])
    except ValueError:
        raise ConfigError(f"cannot parse vector {text!r}")


def _fmt(value):
    if value is None:
        return ""
    return repr(float(value))


def write_trajectory_csv(path, report):
    lines = [CSV_HEADER]
    for rec in report.trajectory:
        lines.append(",".join([
            str(rec.stage), str(rec.epoch), str(rec.step),
            str(rec.g_calls), str(rec.h_calls),
            _fmt(rec.psi), _fmt(rec.grad_map_sq), _fmt(rec.max_violation),
            _fmt(rec.wall_s),
        ]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def config_to_ini(cfg):
    out = []
    for section in ("problem", "solver", "output"):
        out.append(f"[{section}]")
        for key, value in sorted(cfg.get(section, {}).items()):
            out.append(f"{key} = {value}")
        out.append("")
    return "\n".join(out)


def write_summary_json(path, cfg, exp, report):
    summary = {
        "version": __version__,
        "seed": exp.solver_cfg.seed,
        "method": exp.method,
        "reduction": exp.reduction,
        "final_x": [float(v) for v in np.asarray(report.final_x)],
        "final_psi": report.final_psi,
        "wall_time_s": report.wall_time,
        "counters": report.counters.as_dict(),
        "config": cfg,
    }
    if report.per_device_counters is not None:
        summary["per_device_counters"] = [
            c.as_dict() for c in report.per_device_counters]
    if report.x_unprojected is not None:
        summary["projection"] = {
            "objective_before": report.objective_before,
            "objective_after": report.objective_after,
            "gap": report.projection_gap,
            "residual": report.projection_residual,
            "iterations": report.projection_iterations,
        }
    if exp.constraints is not None:
        summary["final_max_violation"] = max_violation(
            exp.constraints, report.final_x)
    if exp.dataset is not None and exp.fairness_spec is not None:
        summary["true_group_violation"] = max_fairness_violation(
            exp.dataset, exp.family, report.final_x,
            exp.fairness_spec.eps_slack)
        summary["error_rate"] = error_rate(exp.dataset, exp.family,
                                           report.final_x)
    text = json.dumps(summary, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def cmd_solve(cfg):
    exp = Experiment(cfg)
    try:
        report = exp.run()
    except (ProjectionError, ArithmeticError) as exc:
        print(f"solver nonconvergence: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    exp.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = exp.out_dir / exp.trajectory_csv
    json_path = exp.out_dir / exp.summary_json
    write_trajectory_csv(csv_path, report)
    write_summary_json(json_path, cfg, exp, report)
    print(f"wrote {csv_path} ({len(report.trajectory)} steps) and {json_path}")
    return 0


def _check_rows(exp):
    rows = []
    if exp.problem is not None:
        jac = check_jacobians(exp.problem, num_probes=25,
                              seed=exp.solver_cfg.seed)
        rows.append(("jacobian-check", jac.max_rel_error <= 1e-5,
                     f"max rel err {jac.max_rel_error:.2e}"))
        est = estimate_constants(exp.problem, num_probes=100,
                                 seed=exp.solver_cfg.seed)
        finite = all(np.isfinite(v) for v in
                     (est.l_f, est.L_f, est.l_g, est.L_g, est.l_h, est.L_h))
        rows.append(("constant-estimates", finite,
                     f"L_g>={est.L_g:.3g} L_f>={est.L_f:.3g} L_h>={est.L_h:.3g}"))
    if exp.reduction in ("chi2", "kl") and exp.problem.m <= 12:
        rng = np.random.default_rng(exp.solver_cfg.seed)
        x = 0.5 * rng.standard_normal(exp.problem.dim_x)
        values = np.array([exp.family.eval(i, x)[0]
                           for i in range(exp.family.m)])
        gamma = float(exp.cfg["problem"]["gamma"])
        psi = evaluate_psi(exp.problem, x)
        if exp.reduction == "chi2":
            if chi2_worst_case_weights(values, gamma).feasible:
                oracle = brute_force_penalized_max(values, "chi2", gamma)
                rows.append(("chi2-equivalence", abs(psi - oracle) <= 1e-6,
                             f"|psi - oracle| = {abs(psi - oracle):.2e}"))
            else:
                rows.append(("chi2-equivalence", True,
                             "skipped: worst case outside simplex at probe"))
        else:
            oracle = brute_force_penalized_max(values, "kl", gamma)
            gap = abs(gamma * psi + gamma * np.log(exp.problem.m) - oracle)
            rows.append(("kl-equivalence", gap <= 1e-8, f"gap = {gap:.2e}"))
    if exp.reduction == "wasserstein":
        rng = np.random.default_rng(exp.solver_cfg.seed)
        gamma = exp.wcfg.resolve_gamma(exp.constraints.m)
        ok = True
        worst = 0.0
        for _ in range(200):
            x = exp.x0() + 0.5 * rng.standard_normal(exp.x0().size)
            vals = exp.constraints.values(x)
            pen = wasserstein_penalty(vals, exp.wcfg.alpha, gamma)
            lo = max(0.0, exp.wcfg.alpha * float(np.max(vals)))
            hi = lo + gamma * np.log(exp.constraints.m + 1)
            err = max(lo - pen, pen - hi)
            worst = max(worst, err)
            ok = ok and err <= 1e-9
        rows.append(("sandwich", ok, f"worst excursion {worst:.2e}"))
        rho = _get(exp.cfg, "problem", "rho", default=None, cast=float)
        G_r = _get(exp.cfg, "problem", "g_r", default=None, cast=float)
        if rho and G_r:
            if exp.wcfg.alpha <= G_r / rho:
                print(f"warning: alpha = {exp.wcfg.alpha:g} <= G_r/rho = "
                      f"{G_r / rho:g}; projection guarantee does not apply")
            rows.append(("alpha-condition", True,
                         f"alpha {exp.wcfg.alpha:g} vs G_r/rho {G_r / rho:g}"))
    return rows


def cmd_check(cfg):
    exp = Experiment(cfg)
    rows = _check_rows(exp)
    width = max(len(name) for name, _, _ in rows)
    failed = []
    for name, ok, note in rows:
        print(f"{name.ljust(width)}  {'PASS' if ok else 'FAIL'}  {note}")
        if not ok:
            failed.append(name)
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return 3
    return 0


def _metrics_at(exp, problem, x):
    psi = evaluate_psi(problem, x) if problem is not None else None
    if exp.reduction == "wasserstein":
        psi = None
    gm = None
    if problem is not None:
        _, gm = gradient_mapping(problem, exp.solver_cfg.eta, x)
    viol = max_violation(exp.constraints, x) if exp.constraints is not None else None
    err = None
    if exp.dataset is not None and exp.family is not None \
            and hasattr(exp.family, "score"):
        err = error_rate(exp.dataset, exp.family, x)
    return psi, gm, viol, err


def cmd_bench(cfg):
    exp = Experiment(cfg)
    try:
        report = exp.run()
    except (ProjectionError, ArithmeticError) as exc:
        print(f"solver nonconvergence: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    if exp.family is None:
        raise ConfigError("bench needs a loss-family problem")
    primary_name = "vr" if exp.reduction == "none" else f"vr_{exp.reduction}"

    budgets = []
    last_stage = None
    for rec in report.trajectory:
        if last_stage is not None and rec.stage != last_stage:
            budgets.append(prev.g_calls)
        prev = rec
        last_stage = rec.stage
    budgets.append(report.trajectory[-1].g_calls)

    mean_problem = build_mean(exp.family) if exp.family is not None else exp.problem
    rows = []
    stage_xs = report.stage_outputs or [report.final_x]
    eval_problem = exp.problem if exp.problem is not None else mean_problem
    for budget, x in zip(budgets, stage_xs):
        psi, gm, viol, err = _metrics_at(exp, eval_problem, x)
        if psi is None and mean_problem is not None:
            psi = evaluate_psi(mean_problem, x)
        rows.append((primary_name, budget, psi, gm, viol, err))

    cost_per_iter = mean_problem.m
    for budget in budgets:
        iters = max(1, budget // cost_per_iter)
        base = baseline_solve(mean_problem, "full_prox_gradient", iters,
                              exp.solver_cfg.eta, seed=exp.solver_cfg.seed)
        psi, gm, viol, err = _metrics_at(exp, mean_problem, base.final_x)
        if psi is None:
            psi = evaluate_psi(mean_problem, base.final_x)
        rows.append(("unconstrained", base.counters.g_value_calls,
                     psi, gm, viol, err))

    if exp.reduction in ("chi2", "kl"):
        for budget in budgets:
            iters = max(1, budget // exp.baseline_batch)
            base = baseline_solve(exp.problem, "naive_biased_sgd", iters,
                                  exp.solver_cfg.eta, seed=exp.solver_cfg.seed,
                                  batch_size=exp.baseline_batch)
            psi, gm, viol, err = _metrics_at(exp, exp.problem, base.final_x)
            rows.append(("biased_sgd", base.counters.g_value_calls,
                         psi, gm, viol, err))

    exp.out_dir.mkdir(parents=True, exist_ok=True)
    path = exp.out_dir / exp.bench_csv
    lines = ["method,budget,psi,grad_map_sq,max_violation,error_rate"]
    for method, budget, psi, gm, viol, err in rows:
        lines.append(",".join([method, str(budget), _fmt(psi), _fmt(gm),
                               _fmt(viol), _fmt(err)]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="drsum",
        description="Robust finite-sum optimization experiments")
    parser.add_argument("command", choices=["solve", "check", "bench"])
    parser.add_argument("config", help="path to the INI experiment file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override solver.seed")
    parser.add_argument("--out", default=None, help="override output.out_dir")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["solver"]["seed"] = str(args.seed)
        if args.out is not None:
            cfg["output"]["out_dir"] = args.out
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "check":
            return cmd_check(cfg)
        return cmd_bench(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
