"""Configuration-driven experiment runner.

Commands: solve, check, bench.  Experiments are described by an INI file
with three sections ([problem], [solver], [output]) whose keys are those
of SCHEMA; any key can be overridden by an environment variable
DRSUM_<SECTION>__<KEY>.  The solve
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
import math
import os
import sys
from collections import namedtuple
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .composite import check_jacobians, evaluate_psi, gradient_mapping
from .constraints import ConstraintSet, ProjectionError, max_violation
from .diagnostics import baseline_solve, estimate_constants
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
    DivergenceError,
    KlConfig,
    WassersteinConfig,
    build_chi2,
    build_dr_logistic,
    build_kl,
    build_mean,
    convexify_constraints,
    restart_gamma,
    wasserstein_penalty,
    wasserstein_stages,
)
from .solver import (
    SolverConfig,
    Schedule,
    SolverReport,
    shard_sizes,
    solve,
    split_batch,
)

ENV_PREFIX = "DRSUM_"
CSV_HEADER = ("stage,epoch,step,oracle_g_calls,oracle_h_calls,"
              "psi,grad_map_sq,max_violation,wall_s")


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the key."""


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _bool(text):  # a KeyError for any other word
    return configparser.ConfigParser.BOOLEAN_STATES[str(text).strip().lower()]


def _vector(text):
    """Comma-separated finite floats; None, as if unset, if there are none."""
    values = tuple(_finite(v) for v in str(text).split(",") if v.strip())
    return values or None


# check: an int lower bound, or a tuple of the allowed values
Key = namedtuple("Key", "cast default doc check", defaults=(None,))
QUADRATIC_SYNTHETIC = ("strongly_convex_quadratic", "nonconvex_toy")

# Every key of the three sections.  A key not listed here is a
# configuration error; a listed one that the run does not read is ignored.
SCHEMA = {
    "problem": {
        "kind": Key(str, "quadratic", "loss family or constrained program",
                    ("quadratic", "logistic", "mlp2", "dr_logistic",
                     "corner_toy")),
        "source": Key(str, "synthetic", "data source", ("synthetic", "csv")),
        "m": Key(int, 16, "synthetic component count", 1),
        "d": Key(int, 5, "synthetic dimension", 1),
        "data_seed": Key(int, 0, "synthetic data seed", 0),
        "cond": Key(_finite, 10.0, "synthetic quadratic conditioning", 1),
        "synthetic": Key(str, None, "generator, by default the kind's",
                         QUADRATIC_SYNTHETIC + ("two_group_bias", "xor")),
        "min_gap": Key(_finite, 0.1, "planted tpr gap of two_group_bias"),
        "hidden": Key(int, 4, "hidden units of mlp2", 1),
        "csv_path": Key(str, None, "csv file (source = csv)"),
        "feature_columns": Key(str, None, "csv feature columns, a comma list"),
        "label_column": Key(str, None, "csv label column"),
        "group_column": Key(str, None, "csv group column, optional"),
        "standardize": Key(_bool, True, "standardize the csv features"),
        "reduction": Key(str, "none", "robust objective (none: the mean)",
                         ("chi2", "kl", "wasserstein", "none")),
        "gamma": Key(_finite, None, "penalty weight or temperature"),
        "gamma_from_restarts": Key(_bool, False, "wasserstein gamma from k"),
        "alpha": Key(_finite, None, "wasserstein constraint scale"),
        "eps_slack": Key(_finite, 0.05, "fairness margin", 0),
        "surrogate_temp": Key(_finite, 5.0, "fairness sigmoid sharpness"),
        "mu_convexify": Key(_finite, 0.0, "mu ||x||^2 on each constraint", 0),
        "eps_radius": Key(_finite, 0.1, "dr_logistic radius"),
        "kappa_flip": Key(_finite, 1.0, "dr_logistic label-flip cost"),
        "target": Key(_vector, (2.0, 2.0), "corner_toy target"),
        "bound": Key(_vector, (1.0, 1.0), "corner_toy box bound"),
        "inject_jacobian_fault": Key(_bool, False, "corrupt the gradients"),
    },
    "solver": {
        "method": Key(str, "vr", "solver or baseline", (
            "vr", "dist_vr", "full_prox_gradient", "naive_biased_sgd")),
        "eta": Key(_finite, None, "step size, required", 0),
        "t": Key(int, 1, "epochs per stage", 1),
        "k": Key(int, 1, "restart stages", 1),
        "schedule": Key(str, "fixed_sqrt_m", "epoch schedule mode",
                        ("fixed_sqrt_m", "adaptive", "full_batch")),
        "beta": Key(_finite, 1.0, "adaptive ramp slope"),
        "zeta": Key(_finite, 0.0, "adaptive ramp offset"),
        "tau": Key(int, 1, "epoch length of full_batch", 1),
        "workers": Key(int, 1, "dist_vr worker count", 1),
        "seed": Key(int, 0, "sampling seed", 0),
        "output_rule": Key(str, "last_iterate", "stage output rule",
                           ("last_iterate", "uniform_random_iterate")),
        "grad_map_every": Key(int, 0, "gradient-mapping cadence"),
        "iters": Key(int, 100, "baseline steps", 1),
        "batch_size": Key(int, 1, "baseline sample size", 1),
        "x0": Key(_vector, None, "start point (comma vector)"),
    },
    "output": {
        "out_dir": Key(str, "runs", "output directory"),
        "trajectory_csv": Key(str, "trajectory.csv", "trajectory file"),
        "summary_json": Key(str, "summary.json", "summary file"),
        "bench_csv": Key(str, "bench.csv", "bench file"),
    },
}


def load_config(path):
    """Read the INI file and fold in environment overrides.

    Returns a plain {section: {key: str}} dict, checked by read_settings.
    Duplicate sections or keys are configuration errors, as is a DRSUM_
    variable that is not DRSUM_<SECTION>__<KEY> with a known section.
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
    cfg = {s: dict(parser.items(s)) for s in parser.sections()}
    for section in SCHEMA:
        cfg.setdefault(section, {})
    for env_key, value in sorted(os.environ.items()):
        if not env_key.startswith(ENV_PREFIX):
            continue
        section, sep, key = env_key[len(ENV_PREFIX):].lower().partition("__")
        if not sep or section not in SCHEMA:
            raise ConfigError(f"{env_key} is not DRSUM_<SECTION>__<KEY> "
                              f"for a section in {', '.join(SCHEMA)}")
        cfg[section][key] = value
    read_settings(cfg)
    return cfg


def read_settings(cfg):
    """{section: {key: value}} for every key of SCHEMA: the key's cast of
    its text in cfg, or its default.  An unknown section or key, and a
    value that its cast, bound or choices reject, are ConfigErrors."""
    settings = {section: {key: spec.default for key, spec in keys.items()}
                for section, keys in SCHEMA.items()}
    for section, raw in cfg.items():
        known = SCHEMA.get(section)
        if known is None:
            raise ConfigError(f"unknown section [{section}]")
        for key, text in raw.items():
            if key not in known:
                # imported here: a run with known keys does not pay for it
                from difflib import get_close_matches
                near = get_close_matches(key, known, n=1)
                raise ConfigError(f"unknown key {section}.{key}" + (
                    f"; did you mean {section}.{near[0]}?" if near else ""))
            cast, _, _, check = known[key]
            try:
                value = settings[section][key] = cast(text)
            except (KeyError, TypeError, ValueError):
                raise ConfigError(f"cannot parse {section}.{key} = {text!r}")
            if isinstance(check, tuple) and value not in check:
                raise ConfigError(f"unknown {section}.{key} {value!r}")
            if isinstance(check, int) and value < check:
                raise ConfigError(
                    f"{section}.{key} must be >= {check}, got {value}")
    return settings


class Experiment:
    """Everything a command needs: the run's decision dimension dim,
    component count m and stage builder stages (k, x_start) -> problem,
    the solver config, and the handles for constraint and fairness
    diagnostics.  cfg is the raw {section: {key: str}} dict; settings
    holds its typed values."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.settings = read_settings(cfg)
        self.reduction = self.settings["problem"]["reduction"]
        self.kind = self.settings["problem"]["kind"]
        self.dataset = None
        self.family = None
        self.constraints = None
        self.objective = None
        self.problem = None
        self.wcfg = None
        self.fairness_spec = None
        try:
            self._build_data()
            self._build_problem()
            self._build_solver()
            self._check_sizes()
        except ConfigError:
            raise
        except ValueError as exc:  # a value the library rejects
            raise ConfigError(f"invalid value: {exc}")
        out = self.settings["output"]
        self.out_dir = Path(out["out_dir"])
        self.trajectory_csv = out["trajectory_csv"]
        self.summary_json = out["summary_json"]
        self.bench_csv = out["bench_csv"]

    def _required(self, section, key):
        value = self.settings[section][key]
        if value is None:
            raise ConfigError(f"missing required key {section}.{key}")
        return value

    # -- problem assembly -------------------------------------------------

    def _build_data(self):
        p = self.settings["problem"]
        if self.kind == "corner_toy":
            return
        if p["source"] == "csv":
            path = self._required("problem", "csv_path")
            if not Path(path).exists():
                raise ConfigError(f"problem.csv_path does not exist: {path}")
            features = self._required("problem", "feature_columns")
            schema = {c.strip(): "feature" for c in features.split(",") if c.strip()}
            schema[self._required("problem", "label_column")] = "label"
            if p["group_column"]:
                schema[p["group_column"]] = "group"
            self.dataset = ingest_csv(path, schema,
                                      standardize=p["standardize"])
        else:
            m, seed, synthetic = p["m"], p["data_seed"], p["synthetic"]
            quadratic = self.kind == "quadratic"
            if synthetic is not None and \
                    quadratic != (synthetic in QUADRATIC_SYNTHETIC):
                raise ConfigError(f"problem.synthetic {synthetic!r} does "
                                  f"not fit problem.kind {self.kind!r}")
            if quadratic:
                self.family = make_synthetic(
                    synthetic or "strongly_convex_quadratic", m=m, d=p["d"],
                    seed=seed, cond=p["cond"])
            elif synthetic == "xor" or (synthetic is None and self.kind == "mlp2"):
                self.dataset = make_xor_dataset(m=m, seed=seed)
            else:
                self.dataset = make_synthetic(
                    "two_group_bias", m=m, seed=seed, min_gap=p["min_gap"])

        if self.kind in ("logistic", "mlp2"):
            self.family = make_losses(self.kind, self.dataset,
                                      hidden=p["hidden"])
        if p["inject_jacobian_fault"]:
            if self.family is None:
                raise ConfigError(
                    "inject_jacobian_fault needs a loss family problem")
            self.family = BrokenJacobianLosses(self.family)

    def _build_problem(self):
        """Set dim, m and stages: the fixed problem of a chi2, kl or mean
        run, or the re-anchored stages of a wasserstein one."""
        gamma = self.settings["problem"]["gamma"]
        if self.reduction == "wasserstein":
            self._build_wasserstein_pieces()
            self.m = self.constraints.m
            alpha = self._required("problem", "alpha")
            if self.settings["problem"]["gamma_from_restarts"]:
                # the temperature of the run's solver.k restarts
                gamma = restart_gamma(self.settings["solver"]["k"], self.m)
            elif gamma is None:
                raise ConfigError(
                    "wasserstein reduction needs problem.gamma or "
                    "problem.gamma_from_restarts = true")
            self.wcfg = WassersteinConfig(alpha=alpha, gamma=gamma)
            self.stages = wasserstein_stages(
                self.objective, self.constraints, self.wcfg, self.dim)
            return
        if self.reduction == "none":
            if self.family is None:
                raise ConfigError(f"kind {self.kind!r} requires a reduction")
            self.problem = build_mean(self.family)
        elif gamma is None:
            raise ConfigError(f"{self.reduction} reduction needs problem.gamma")
        elif self.reduction == "chi2":
            self.problem = build_chi2(self.family, Chi2Config(gamma=gamma))
        else:
            self.problem = build_kl(self.family, KlConfig(gamma=gamma))
        self.dim, self.m = self.problem.dim_x, self.problem.m
        self.stages = lambda k, x_start: self.problem

    def _build_wasserstein_pieces(self):
        """Set the objective, the constraint set and dim."""
        p = self.settings["problem"]
        if self.kind == "corner_toy":
            target, bound = np.array(p["target"]), np.array(p["bound"])
            if target.size != bound.size:
                raise ConfigError("problem.target and problem.bound sizes differ")
            self.dim = target.size
            self.objective = SquaredNormTerm(1.0, center=target)
            self.constraints = ConstraintSet.affine(np.eye(self.dim), bound)
            return
        if self.kind == "dr_logistic":
            if self.dataset is None:
                raise ConfigError("dr_logistic needs a dataset")
            self.objective, self.constraints = build_dr_logistic(
                self.dataset, eps_radius=p["eps_radius"],
                kappa_flip=p["kappa_flip"])
            # (beta, lam, one slack per sample)
            self.dim = self.dataset.dim + 1 + self.dataset.m
            return
        if self.family is None or self.dataset is None:
            raise ConfigError(
                "wasserstein fairness runs need a classifier kind and dataset")
        self.fairness_spec = FairnessSpec(
            eps_slack=p["eps_slack"], surrogate_temp=p["surrogate_temp"])
        self.constraints = build_fairness_constraints(
            self.dataset, self.family, self.fairness_spec)
        mu = p["mu_convexify"]
        if mu > 0:
            self.constraints = convexify_constraints(
                self.constraints, np.full(self.constraints.m, mu))
        self.objective = MeanLossObjective(self.family)
        self.dim = self.family.dim

    # -- solver -----------------------------------------------------------

    def _build_solver(self):
        s = self.settings["solver"]
        self.method = s["method"]
        if self.method not in ("vr", "dist_vr") and self.family is None \
                and self.problem is None:
            raise ConfigError(f"{self.method} needs a loss-family problem")
        schedule = Schedule(mode=s["schedule"], beta=s["beta"],
                            zeta=s["zeta"], tau=s["tau"])
        self.solver_cfg = SolverConfig(
            eta=self._required("solver", "eta"), T=s["t"], K=s["k"],
            schedule=schedule, seed=s["seed"], output_rule=s["output_rule"],
            grad_map_every=s["grad_map_every"],
            p=s["workers"] if self.method == "dist_vr" else 1,
        )
        if self.method in ("full_prox_gradient", "naive_biased_sgd") \
                and self.solver_cfg.eta <= 0:
            raise ConfigError(f"solver.eta must be positive for {self.method}")

    def _check_sizes(self):
        """Check x0's length and, for the methods that run the configured
        schedule, the schedule and the workers against the m components."""
        self.x0()
        if self.method in ("vr", "dist_vr"):
            # the first epoch opens on the schedule's smallest batch
            batch = self.solver_cfg.schedule.params(1, self.m)[2]
            split_batch(batch, shard_sizes(self.m, self.solver_cfg.p))

    # -- execution ----------------------------------------------------------

    def x0(self):
        """solver.x0, or else the origin of the decision space; for mlp2,
        whose origin is a saddle of its losses, 0.1 N(0, I) drawn from a
        stream seeded by solver.seed."""
        explicit = self.settings["solver"]["x0"]
        if explicit is not None:
            x0 = np.array(explicit)
        elif self.kind == "mlp2":
            rng = np.random.default_rng(self.solver_cfg.seed)
            x0 = 0.1 * rng.standard_normal(self.dim)
        else:
            x0 = np.zeros(self.dim)
        if x0.size != self.dim:
            raise ConfigError(f"solver.x0 has {x0.size} entries; the "
                              f"decision vector has {self.dim}")
        return x0

    def run(self) -> SolverReport:
        if self.method in ("vr", "dist_vr"):
            return solve(self.stages, self.x0(), self.solver_cfg,
                         constraints=self.constraints)
        s = self.settings["solver"]
        return baseline_solve(
            self.problem or build_mean(self.family), self.method,
            replace(self.solver_cfg, T=s["iters"], K=1),
            x0=self.x0(), batch_size=s["batch_size"])


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
    if exp.method == "dist_vr":
        summary["per_device_counters"] = [
            c.as_dict() for c in report.per_device_counters]
    if report.projection is not None:
        summary["projection"] = report.projection
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
    report = exp.run()
    exp.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = exp.out_dir / exp.trajectory_csv
    json_path = exp.out_dir / exp.summary_json
    write_trajectory_csv(csv_path, report)
    write_summary_json(json_path, cfg, exp, report)
    print(f"wrote {csv_path} ({len(report.trajectory)} steps) and {json_path}")
    return 0


def _rows_check(name, source, x0, seed):
    """Check row of a constraint set or loss family, read by eval(idx, x,
    jac): at a seeded point near x0, eval on m + 1 seeded rows (so one
    repeats) must equal those rows of the whole-set read to 1e-12, and
    the values-only read must equal its values exactly."""
    rng = np.random.default_rng(seed)
    x = x0 + 0.5 * rng.standard_normal(x0.size)
    idx = rng.integers(0, source.m, size=source.m + 1)
    full = source.eval(None, x)
    worst = max(float(np.max(np.abs(got - want[idx])))
                for got, want in zip(source.eval(idx, x), full))
    exact = np.array_equal(source.eval(None, x, jac=False), full[0])
    return (name, worst <= 1e-12 and exact, f"rows off by {worst:.1e}, "
            f"values-only read {'exact' if exact else 'differs'}")


def _objective_row(exp, problem, x0):
    """Objective row: at seeded points near x0, evaluate_psi of the
    compiled problem must equal, to 1e-10 relative to max(1, |value|),
    the reduction's objective computed from the loss or constraint
    values alone."""
    rng = np.random.default_rng(exp.solver_cfg.seed)
    gamma = exp.settings["problem"]["gamma"]
    worst = 0.0
    for _ in range(3):
        x = x0 + 0.5 * rng.standard_normal(x0.size)
        if exp.reduction == "wasserstein":
            obj = exp.objective
            want = (obj.value(x) if hasattr(obj, "value")
                    else obj.value_grad(x)[0])
            want += wasserstein_penalty(exp.constraints.values(x),
                                        exp.wcfg.alpha, exp.wcfg.gamma)
            want -= exp.wcfg.gamma * np.log(exp.m + 1)
        else:
            f = exp.family.eval(None, x, jac=False)
            if exp.reduction == "chi2":
                want = f.mean() + f.var() / (2.0 * gamma)
            elif exp.reduction == "kl":
                s = f / gamma
                want = s.max() + np.log(np.mean(np.exp(s - s.max())))
            else:
                want = f.mean()
        gap = abs(evaluate_psi(problem, x) - want) / max(1.0, abs(want))
        worst = max(worst, gap)
    return ("objective", worst <= 1e-10, f"max rel gap {worst:.1e}")


def _check_rows(exp):
    rows = []
    x0 = exp.x0()
    first = exp.stages(1, x0)  # the first stage, anchored at x0
    jac = check_jacobians(first, num_probes=25, seed=exp.solver_cfg.seed)
    rows.append(("jacobian-check", jac.max_rel_error <= 1e-5,
                 f"max rel err {jac.max_rel_error:.2e}"))
    if exp.problem is not None:
        est = estimate_constants(exp.problem, num_probes=100,
                                 seed=exp.solver_cfg.seed, center=x0)
        finite = all(np.isfinite(v) for v in
                     (est.l_f, est.L_f, est.l_g, est.L_g, est.l_h, est.L_h))
        rows.append(("constant-estimates", finite,
                     f"L_g>={est.L_g:.3g} L_f>={est.L_f:.3g} L_h>={est.L_h:.3g}"))
    if exp.family is not None:
        rows.append(_rows_check("family-rows", exp.family, x0,
                                exp.solver_cfg.seed))
    if exp.reduction == "wasserstein":
        rows.append(_rows_check("constraint-rows", exp.constraints,
                                x0, exp.solver_cfg.seed))
    rows.append(_objective_row(exp, first, x0))
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
    psi = evaluate_psi(problem, x)
    _, gm = gradient_mapping(problem, exp.solver_cfg.eta, x)
    viol = max_violation(exp.constraints, x) if exp.constraints is not None else None
    err = None
    if exp.dataset is not None and hasattr(exp.family, "score"):
        err = error_rate(exp.dataset, exp.family, x)
    return psi, gm, viol, err


def _stage_rows(exp, name, report, problem):
    """One row per stage of report: the oracle budget spent by the
    stage's end and the metrics at its output."""
    ends = {rec.stage: rec.g_calls for rec in report.trajectory}
    return [(name, ends[k], *_metrics_at(exp, problem, x))
            for k, x in enumerate(report.stage_outputs, start=1)]


def _bench_rows(exp):
    """Rows of (method, budget, metrics) at the configured solver's
    stage ends, then the baselines', one solve per method.  With b the
    solver's first budget and K its stage count, a baseline runs K
    stages of floor(b / cost) steps, cost being the per-step oracle
    calls (m for full_prox_gradient, batch_size for biased_sgd); stage
    k's output is the iterate after k * floor(b / cost) steps of one
    long run.  A diverging biased_sgd baseline leaves out its rows with
    a note on stderr; any other numerical failure ends the bench."""
    if exp.family is None:
        raise ConfigError("bench needs a loss-family problem")
    if exp.solver_cfg.eta <= 0:
        raise ConfigError("solver.eta must be positive for bench's baselines")
    mean_problem = build_mean(exp.family)
    primary_name = "vr" if exp.reduction == "none" else f"vr_{exp.reduction}"
    rows = _stage_rows(exp, primary_name, exp.run(),
                       exp.problem or mean_problem)
    budget, K = rows[0][1], len(rows)
    eta, seed = exp.solver_cfg.eta, exp.solver_cfg.seed
    batch = exp.settings["solver"]["batch_size"]

    def baseline(problem, kind, cost):
        config = SolverConfig(eta=eta, T=max(1, budget // cost), K=K,
                              seed=seed, grad_map_every=-1)
        return baseline_solve(problem, kind, config, x0=exp.x0(),
                              batch_size=batch)

    rows += _stage_rows(exp, "unconstrained", baseline(
        mean_problem, "full_prox_gradient", mean_problem.m), mean_problem)
    if exp.reduction in ("chi2", "kl"):
        try:
            report = baseline(exp.problem, "naive_biased_sgd", batch)
        except DivergenceError as exc:
            print(f"biased_sgd baseline {exc}; its rows are left out",
                  file=sys.stderr)
        else:
            rows += _stage_rows(exp, "biased_sgd", report, exp.problem)
    return rows


def cmd_bench(cfg):
    exp = Experiment(cfg)
    rows = _bench_rows(exp)
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
    except (ProjectionError, ArithmeticError) as exc:
        # a located re-raise already starts with its cause's type
        kind = "" if exc.__cause__ is not None else f"{type(exc).__name__}: "
        print(f"solver nonconvergence: {kind}{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
