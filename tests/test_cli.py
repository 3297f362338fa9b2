import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from drsum.cli import config_to_ini, main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
CHI2_CONFIG = str(CONFIGS / "chi2_quadratic.ini")
KL_CONFIG = str(CONFIGS / "kl_distributed.ini")

QUAD_CHI2 = """
[problem]
kind = quadratic
source = synthetic
m = 16
d = 5
data_seed = 7
reduction = chi2
gamma = 10.0

[solver]
method = vr
eta = 0.05
t = 2
k = 3
schedule = fixed_sqrt_m
seed = 5

[output]
out_dir = {out}
"""

FAIRNESS = """
[problem]
kind = logistic
source = synthetic
synthetic = two_group_bias
m = 60
data_seed = 1
min_gap = 0.12
reduction = wasserstein
alpha = 4.0
gamma = 0.02
eps_slack = 0.05

[solver]
method = vr
eta = 0.05
t = 20
k = 2
seed = 3

[output]
out_dir = {out}
"""


# a misspelt key in the file: QUAD_CHI2 with `synthtic` for `synthetic`
MISSPELT_KEY = QUAD_CHI2.replace("source = synthetic",
                                 "source = synthetic\nsynthtic = xor")


def write_cfg(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def strip_wall(csv_text):
    return ["," .join(line.split(",")[:-1]) for line in csv_text.splitlines()]


class TestSolve:
    def test_row_count_matches_schedule(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUAD_CHI2.format(out=tmp_path / "run"))
        assert main(["solve", cfg]) == 0
        csv_text = (tmp_path / "run" / "trajectory.csv").read_text()
        lines = csv_text.splitlines()
        # K * T * tau proximal steps, tau = ceil(sqrt(16)) = 4
        assert len(lines) == 1 + 3 * 2 * 4
        assert lines[0] == ("stage,epoch,step,oracle_g_calls,oracle_h_calls,"
                            "psi,grad_map_sq,max_violation,wall_s")
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["seed"] == 5
        assert summary["counters"]["g_value_calls"] == 3 * 2 * (16 + 2 * 4 * 3)
        # only a dist_vr summary lists the devices
        assert "per_device_counters" not in summary

    def test_rerun_byte_identical_except_wall(self, tmp_path):
        cfg = write_cfg(tmp_path, QUAD_CHI2.format(out=tmp_path / "a"))
        assert main(["solve", cfg]) == 0
        first = (tmp_path / "a" / "trajectory.csv").read_text()
        cfg2 = write_cfg(tmp_path, QUAD_CHI2.format(out=tmp_path / "b"), "e2.ini")
        assert main(["solve", cfg2]) == 0
        second = (tmp_path / "b" / "trajectory.csv").read_text()
        assert strip_wall(first) == strip_wall(second)

    def test_summary_config_round_trips(self, tmp_path):
        cfg = write_cfg(tmp_path, QUAD_CHI2.format(out=tmp_path / "a"))
        assert main(["solve", cfg]) == 0
        summary = json.loads((tmp_path / "a" / "summary.json").read_text())
        echoed = dict(summary["config"])
        echoed["output"] = dict(echoed["output"], out_dir=str(tmp_path / "b"))
        replay = write_cfg(tmp_path, config_to_ini(echoed), "replay.ini")
        assert main(["solve", replay]) == 0
        a = (tmp_path / "a" / "trajectory.csv").read_text()
        b = (tmp_path / "b" / "trajectory.csv").read_text()
        assert strip_wall(a) == strip_wall(b)

    def test_seed_and_out_flags(self, tmp_path):
        cfg = write_cfg(tmp_path, QUAD_CHI2.format(out=tmp_path / "ignored"))
        assert main(["solve", cfg, "--seed", "99", "--out",
                     str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["seed"] == 99

    def test_env_override(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, QUAD_CHI2.format(out=tmp_path / "e"))
        monkeypatch.setenv("DRSUM_SOLVER__SEED", "123")
        assert main(["solve", cfg]) == 0
        summary = json.loads((tmp_path / "e" / "summary.json").read_text())
        assert summary["seed"] == 123

    @pytest.mark.parametrize("text", [QUAD_CHI2, FAIRNESS],
                             ids=["chi2", "wasserstein"])
    def test_baseline_starts_at_x0(self, tmp_path, monkeypatch, text):
        # one step of length 1e-9 ends next to where it starts
        cfg = write_cfg(tmp_path, text.format(out=tmp_path / "x"))
        monkeypatch.setenv("DRSUM_SOLVER__METHOD", "full_prox_gradient")
        monkeypatch.setenv("DRSUM_SOLVER__ITERS", "1")
        monkeypatch.setenv("DRSUM_SOLVER__ETA", "1e-9")
        assert main(["solve", cfg]) == 0
        summary = json.loads((tmp_path / "x" / "summary.json").read_text())
        dim = len(summary["final_x"])
        monkeypatch.setenv("DRSUM_SOLVER__X0", ",".join(["0.5"] * dim))
        assert main(["solve", cfg]) == 0
        summary = json.loads((tmp_path / "x" / "summary.json").read_text())
        assert np.allclose(summary["final_x"], 0.5, atol=1e-6)

    def test_mlp2_starts_off_its_saddle(self, tmp_path, monkeypatch):
        # at the origin every mlp2 gradient but the output bias's vanishes,
        # so the default start is drawn from solver.seed's stream
        monkeypatch.setenv("DRSUM_PROBLEM__KIND", "mlp2")
        out = tmp_path / "mlp2"
        assert main(["solve", str(CONFIGS / "fairness_wasserstein.ini"),
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["error_rate"] < 0.5
        dim = len(summary["final_x"])
        rng = np.random.default_rng(summary["seed"])
        start = 0.1 * rng.standard_normal(dim)
        monkeypatch.setenv("DRSUM_SOLVER__METHOD", "full_prox_gradient")
        monkeypatch.setenv("DRSUM_SOLVER__ITERS", "1")
        monkeypatch.setenv("DRSUM_SOLVER__ETA", "1e-9")
        assert main(["solve", str(CONFIGS / "fairness_wasserstein.ini"),
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert np.allclose(summary["final_x"], start, atol=1e-6)

    def test_baseline_honours_grad_map_every(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DRSUM_SOLVER__METHOD", "full_prox_gradient")
        monkeypatch.setenv("DRSUM_SOLVER__GRAD_MAP_EVERY", "-1")
        out = tmp_path / "run"
        assert main(["solve", CHI2_CONFIG, "--out", str(out)]) == 0
        rows = (out / "trajectory.csv").read_text().splitlines()[1:]
        assert len(rows) == 100
        assert all(row.split(",")[6] == "" for row in rows)

    def test_distributed_summary_is_strict_json_of_ints(self, tmp_path,
                                                        monkeypatch):
        # four workers, then one: one counter per worker, the devices' g
        # and h calls sum to the totals, and every counter is an int that
        # json writes and reads back
        def reject(token):
            raise ValueError(f"non-finite literal {token}")

        for workers in (4, 1):
            monkeypatch.setenv("DRSUM_SOLVER__WORKERS", str(workers))
            out = tmp_path / f"run{workers}"
            assert main(["solve", KL_CONFIG, "--out", str(out)]) == 0
            with open(out / "summary.json", encoding="utf-8") as fh:
                summary = json.load(fh, parse_constant=reject)
            devices = summary["per_device_counters"]
            assert len(devices) == workers
            for counter in [summary["counters"], *devices]:
                assert all(type(v) is int for v in counter.values())
            for name in ("g_value_calls", "h_gradient_calls"):
                assert sum(c[name] for c in devices) == \
                    summary["counters"][name]


NONCONVEX_TOY = """
[problem]
kind = quadratic
source = synthetic
synthetic = nonconvex_toy
m = 9
d = 2
data_seed = 4
reduction = none

[solver]
method = vr
eta = 0.1
t = 3
k = 2
seed = 1

[output]
out_dir = {out}
"""


class TestNonconvexToySolve:
    def test_solves_the_toy_family(self, tmp_path):
        import numpy as np

        from drsum.problems import make_synthetic
        from drsum.reductions import build_mean
        from drsum.solver import SolverConfig, solve

        cfg = write_cfg(tmp_path, NONCONVEX_TOY.format(out=tmp_path / "run"))
        assert main(["solve", cfg]) == 0
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        family = make_synthetic("nonconvex_toy", m=9, d=2, seed=4)
        report = solve(build_mean(family), np.zeros(2),
                       SolverConfig(eta=0.1, T=3, K=2, seed=1))
        assert summary["final_x"] == report.final_x.tolist()
        assert summary["final_psi"] == report.final_psi


DR_LOGISTIC = """
[problem]
kind = dr_logistic
source = synthetic
m = 10
data_seed = 1
min_gap = 0.05
reduction = wasserstein
alpha = 3.0
gamma = 0.05
eps_radius = 0.1
kappa_flip = 1.0

[solver]
method = vr
eta = 0.002
t = 300
k = 2
seed = 0

[output]
out_dir = {out}
"""


CORNER_TOY = """
[problem]
kind = corner_toy
target = 2,2
bound = 1,1
reduction = wasserstein
alpha = 2.0
gamma_from_restarts = true

[solver]
method = vr
eta = 0.015
t = 200
k = 4
seed = 0

[output]
out_dir = {out}
"""


class TestCornerToy:
    def test_projected_solution_at_the_corner(self, tmp_path):
        cfg = write_cfg(tmp_path, CORNER_TOY.format(out=tmp_path / "toy"))
        assert main(["solve", cfg]) == 0
        summary = json.loads((tmp_path / "toy" / "summary.json").read_text())
        x = summary["final_x"]
        assert abs(x[0] - 1.0) < 1e-2 and abs(x[1] - 1.0) < 1e-2
        assert summary["final_max_violation"] <= 1e-8
        assert summary["counters"]["projection_calls"] == 1


class TestDrLogisticSolve:
    def test_solve_writes_projection_report(self, tmp_path):
        cfg = write_cfg(tmp_path, DR_LOGISTIC.format(out=tmp_path / "dr"))
        assert main(["solve", cfg]) == 0
        summary = json.loads((tmp_path / "dr" / "summary.json").read_text())
        assert summary["counters"]["projection_calls"] == 1
        assert summary["final_max_violation"] <= 1e-6
        assert "projection" in summary

    def test_range_error_maps_to_exit_2(self, tmp_path, capsys):
        text = DR_LOGISTIC.format(out=tmp_path / "dr").replace(
            "eta = 0.002", "eta = 0.05")
        cfg = write_cfg(tmp_path, text)
        assert main(["solve", cfg]) == 2
        assert "nonconvergence" in capsys.readouterr().err

    def test_summary_reports_the_projection_cost(self, tmp_path,
                                                 monkeypatch):
        # the projecting drlogistic_m20 run: one jacobian() per point the
        # SQP visits, the start and one trial per iteration, and no other
        # jacobian() read in the whole solve
        from drsum.constraints import ConstraintSet

        reads = []
        jacobian = ConstraintSet.jacobian

        def counted(self, x):
            reads.append(x)
            return jacobian(self, x)

        monkeypatch.setattr(ConstraintSet, "jacobian", counted)
        out = tmp_path / "dr"
        assert main(["solve", DR_LOGISTIC_WORKLOAD, "--seed", "1",
                     "--out", str(out)]) == 0
        projection = json.loads((out / "summary.json").read_text())[
            "projection"]
        assert projection["iterations"] == 8
        assert projection["jacobian_calls"] == len(reads) == 9

    def test_projection_error_maps_to_exit_2(self, tmp_path, monkeypatch,
                                             capsys):
        import drsum.solver

        project = drsum.solver.project_feasible
        monkeypatch.setattr(drsum.solver, "project_feasible",
                            lambda cset, x: project(cset, x, max_iter=1))
        out = tmp_path / "dr"
        assert main(["solve", DR_LOGISTIC_WORKLOAD, "--seed", "1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "solver nonconvergence: ProjectionError: no convergence in 1 "
            "iterations: residual ")
        assert not (out / "summary.json").exists()

    def test_bench_rejects_config_before_solving(self, tmp_path, monkeypatch,
                                                 capsys):
        import drsum.cli

        def no_solve(self):
            raise AssertionError("bench solved a config it cannot bench")

        monkeypatch.setattr(drsum.cli.Experiment, "run", no_solve)
        cfg = write_cfg(tmp_path, DR_LOGISTIC.format(out=tmp_path / "dr"))
        assert main(["bench", cfg]) == 1
        assert "loss-family" in capsys.readouterr().err
        assert not (tmp_path / "dr").exists()


class TestDistributedWasserstein:
    """dist_vr runs a constrained config on the same driver as vr."""

    def test_two_workers_solve_robust_logistic(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DRSUM_SOLVER__METHOD", "dist_vr")
        monkeypatch.setenv("DRSUM_SOLVER__WORKERS", "2")
        out = tmp_path / "run"
        assert main(["solve", str(CONFIGS / "robust_logistic.ini"),
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["method"] == "dist_vr"
        assert summary["projection"]["residual"] <= 1e-8
        assert summary["final_max_violation"] <= 1e-8
        assert summary["counters"]["projection_calls"] == 1
        assert [c["projection_calls"]
                for c in summary["per_device_counters"]] == [0, 0]

    def test_more_workers_than_constraints_exit_1(self, tmp_path, monkeypatch,
                                                  capsys):
        # the fairness set has m = 2 group constraints
        monkeypatch.setenv("DRSUM_SOLVER__METHOD", "dist_vr")
        monkeypatch.setenv("DRSUM_SOLVER__WORKERS", "3")
        out = tmp_path / "run"
        assert main(["solve", str(CONFIGS / "fairness_wasserstein.ini"),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "more workers (3)" in err
        assert not out.exists()


class TestNumericalFailure:
    @pytest.mark.parametrize("overrides, error", [
        ({"DRSUM_SOLVER__ETA": "0.3"}, "non-finite iterate at stage"),
        ({"DRSUM_SOLVER__ETA": "0.5", "DRSUM_PROBLEM__M": "256"},
         r"NumericalRangeError: chi2 outer map overflows: the inner mean "
         r"u = \S+ squares past the float range at stage 1, epoch 1, step 5"),
    ], ids=["diverging_iterate", "outer_map_overflow"])
    def test_exit_2_and_no_nan_summary(self, tmp_path, monkeypatch, capsys,
                                       overrides, error):
        for key, value in overrides.items():
            monkeypatch.setenv(key, value)
        out = tmp_path / "run"
        assert main(["solve", CHI2_CONFIG, "--out", str(out)]) == 2
        assert re.search(error, capsys.readouterr().err)
        assert not (out / "summary.json").exists()


    def test_diverging_baseline_exit_2_and_no_files(self, tmp_path,
                                                    monkeypatch, capsys):
        monkeypatch.setenv("DRSUM_SOLVER__METHOD", "full_prox_gradient")
        monkeypatch.setenv("DRSUM_SOLVER__ETA", "0.5")
        out = tmp_path / "run"
        assert main(["solve", CHI2_CONFIG, "--out", str(out)]) == 2
        assert "non-finite iterate at stage 1, epoch 8, step 0" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("eta, code", [("0.3", 2), ("0.05", 0)],
                             ids=["diverging", "bounded"])
    def test_finite_baseline_divergence_exit_2(self, tmp_path, monkeypatch,
                                               capsys, eta, code):
        # eta 0.3 takes psi from 0.6 towards 2.9e37 with finite iterates;
        # eta 0.05 peaks at psi 0.75 and must still succeed
        monkeypatch.setenv("DRSUM_SOLVER__METHOD", "naive_biased_sgd")
        monkeypatch.setenv("DRSUM_SOLVER__ETA", eta)
        out = tmp_path / "run"
        assert main(["solve", CHI2_CONFIG, "--out", str(out)]) == code
        if code == 2:
            assert "DivergenceError: diverged at stage 1, epoch 8, step 0" in \
                capsys.readouterr().err
            assert not out.exists()
        else:
            summary = json.loads((out / "summary.json").read_text())
            assert summary["final_psi"] < 1.0

    def test_vr_finite_divergence_exit_2_and_no_files(self, tmp_path,
                                                      capsys):
        # eta = 2.05 / L on the plain quadratic mean: psi passes 1e6 times
        # its start while every iterate stays finite
        text = QUAD_CHI2.format(out=tmp_path / "run").replace(
            "reduction = chi2", "reduction = none").replace(
            "eta = 0.05", "eta = 0.205").replace("t = 2", "t = 8").replace(
            "k = 3", "k = 2")
        cfg = write_cfg(tmp_path, text)
        assert main(["solve", cfg]) == 2
        assert "DivergenceError: diverged at stage 1, epoch 7, step 2" in \
            capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_kl_estimate_below_zero_names_the_estimate(self, tmp_path,
                                                       monkeypatch, capsys):
        # from x0 = 1 the exponents reach about 18 and the variance-reduced
        # mean of the exponentials crosses zero: the outer log's domain is
        # left by the estimate, with no exponential underflowing
        monkeypatch.setenv("DRSUM_SOLVER__X0", "1,1,1,1,1")
        out = tmp_path / "run"
        assert main(["solve", KL_CONFIG, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("solver nonconvergence: ")
        assert "non-positive" in err
        assert "at stage 1, epoch 4, step 2" in err
        assert not (out / "summary.json").exists()

    def test_located_error_names_its_type_once(self, tmp_path, monkeypatch,
                                               capsys):
        monkeypatch.setenv("DRSUM_SOLVER__X0", "1,1,1,1,1")
        out = tmp_path / "run"
        assert main(["solve", KL_CONFIG, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        # the typed domain error, named once
        assert err.count("OuterDomainError") == 1
        assert "NumericalRangeError" not in err

    def test_bench_baseline_failure_exit_2(self, tmp_path, monkeypatch,
                                           capsys):
        import drsum.cli
        from drsum.reductions import NumericalRangeError

        def diverging(*args, **kwargs):
            raise NumericalRangeError("non-finite iterate at iteration 1")

        monkeypatch.setattr(drsum.cli, "baseline_solve", diverging)
        out = tmp_path / "bench"
        assert main(["bench", CHI2_CONFIG, "--out", str(out)]) == 2
        assert "non-finite iterate" in capsys.readouterr().err
        assert not out.exists()


class TestConfigErrors:
    @pytest.mark.parametrize("method", ["full_prox_gradient",
                                        "naive_biased_sgd"])
    def test_baseline_without_loss_family_exit_1(self, tmp_path, monkeypatch,
                                                 capsys, method):
        import drsum.cli

        def no_solve(self):
            raise AssertionError("solved a config the baseline cannot run")

        monkeypatch.setattr(drsum.cli.Experiment, "run", no_solve)
        monkeypatch.setenv("DRSUM_SOLVER__METHOD", method)
        cfg = write_cfg(tmp_path, DR_LOGISTIC.format(out=tmp_path / "dr"))
        assert main(["solve", cfg]) == 1
        assert f"{method} needs a loss-family problem" in \
            capsys.readouterr().err
        assert not (tmp_path / "dr").exists()

    @pytest.mark.parametrize("command, method, key, value", [
        ("solve", "full_prox_gradient", "iters", "0"),
        ("solve", "naive_biased_sgd", "batch_size", "0"),
        ("solve", "vr", "batch_size", "0"),
        ("solve", "full_prox_gradient", "eta", "0"),
        ("solve", "naive_biased_sgd", "eta", "0"),
        ("bench", "vr", "eta", "0"),
    ])
    def test_invalid_baseline_setting_exit_1(self, tmp_path, monkeypatch,
                                             capsys, command, method, key,
                                             value):
        monkeypatch.setenv("DRSUM_SOLVER__METHOD", method)
        monkeypatch.setenv(f"DRSUM_SOLVER__{key.upper()}", value)
        out = tmp_path / "run"
        assert main([command, CHI2_CONFIG, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"config error: solver.{key} must be")
        assert not out.exists()

    @pytest.mark.parametrize("config, overrides, key", [
        (KL_CONFIG, {"X0": "1,1"}, "solver.x0"),
        (str(CONFIGS / "robust_logistic.ini"), {"X0": "1,1"}, "solver.x0"),
        (KL_CONFIG, {"WORKERS": "100"}, "workers"),
        (KL_CONFIG, {"SCHEDULE": "bogus"}, "schedule"),
        (KL_CONFIG, {"SCHEDULE": "adaptive", "ZETA": "9"}, "zeta"),
        (KL_CONFIG, {"SCHEDULE": "adaptive"}, "workers"),
        (KL_CONFIG, {"PROBLEM__GAMMA": "-1"}, "gamma"),
        (KL_CONFIG, {"PROBLEM__COND": "-1"}, "cond"),
        (str(CONFIGS / "fairness_wasserstein.ini"),
         {"PROBLEM__MIN_GAP": "0.95"}, "min_gap"),
        (CHI2_CONFIG, {"SOLVR__ETA": "5"}, "DRSUM_SOLVR__ETA"),
        (CHI2_CONFIG, {"SEED": "-2"}, "seed"),
        (KL_CONFIG, {"SEED": "-1"}, "seed"),
        (str(CONFIGS / "fairness_wasserstein.ini"),
         {"PROBLEM__MU_CONVEXIFY": "nan"}, "problem.mu_convexify = 'nan'"),
        (CHI2_CONFIG, {"ETA": "nan"}, "solver.eta = 'nan'"),
        (KL_CONFIG, {"PROBLEM__GAMMA": "nan"}, "problem.gamma = 'nan'"),
        (str(CONFIGS / "robust_logistic.ini"),
         {"PROBLEM__EPS_RADIUS": "nan"}, "problem.eps_radius = 'nan'"),
        (KL_CONFIG, {"X0": "nan,0,0,0,0"}, "solver.x0"),
        (KL_CONFIG, {"ETA": "inf"}, "solver.eta = 'inf'"),
        (KL_CONFIG, {"PROBLEM__GAMMA": "inf"}, "problem.gamma = 'inf'"),
        (str(CONFIGS / "robust_logistic.ini"),
         {"PROBLEM__ALPHA": "inf"}, "problem.alpha = 'inf'"),
        (KL_CONFIG, {"PROBLEM__DATA_SEED": "-1"}, "problem.data_seed"),
        (KL_CONFIG, {"PROBLEM__M": "0"}, "problem.m"),
        (KL_CONFIG, {"PROBLEM__M": "-3"}, "problem.m"),
        (KL_CONFIG, {"PROBLEM__D": "0"}, "problem.d"),
        (KL_CONFIG, {"ETAA": "5"},
         "unknown key solver.etaa; did you mean solver.eta?"),
        (KL_CONFIG, {"DRSUM_SOLVER_ETA": "5"}, "DRSUM_SOLVER_ETA"),
        (MISSPELT_KEY, {}, "problem.synthtic; did you mean problem.synthetic?"),
    ], ids=["x0_length", "x0_length_dr_logistic", "workers_over_m",
            "unknown_schedule", "zeta_over_sqrt_m", "ramp_under_workers",
            "negative_gamma", "negative_cond", "unreachable_min_gap",
            "unknown_env_section", "negative_seed", "negative_seed_dist_vr",
            "nan_mu_convexify", "nan_eta", "nan_gamma", "nan_eps_radius",
            "nan_x0", "inf_eta", "inf_gamma", "inf_alpha",
            "negative_data_seed", "zero_m", "negative_m", "zero_d",
            "unknown_env_key", "env_without_separator", "unknown_file_key"])
    def test_invalid_value_exit_1_names_key(self, tmp_path, monkeypatch,
                                            capsys, config, overrides, key):
        # a name given whole is set as it is; else it is DRSUM_<name>, or
        # DRSUM_SOLVER__<name> for a name without a section
        for name, value in overrides.items():
            if not name.startswith("DRSUM_"):
                name = "DRSUM_" + ("" if "__" in name else "SOLVER__") + name
            monkeypatch.setenv(name, value)
        if "[problem]" in config:  # an INI text, not a path
            config = write_cfg(tmp_path, config.format(out=tmp_path))
        out = tmp_path / "run"
        assert main(["solve", config, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert key in err
        assert not out.exists()

    def test_duplicate_section_exit_1(self, tmp_path, capsys):
        text = QUAD_CHI2.format(out=tmp_path) + "\n[problem]\nkind = logistic\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["solve", cfg]) == 1
        assert "duplicate section [problem]" in capsys.readouterr().err

    def test_duplicate_key_exit_1(self, tmp_path, capsys):
        text = QUAD_CHI2.format(out=tmp_path).replace(
            "reduction = chi2", "reduction = chi2\nreduction = kl")
        cfg = write_cfg(tmp_path, text)
        assert main(["solve", cfg]) == 1
        assert "duplicate key 'reduction'" in capsys.readouterr().err

    def test_missing_file_exit_1(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.ini")]) == 1

    def test_bad_value_names_key(self, tmp_path, capsys):
        text = QUAD_CHI2.format(out=tmp_path).replace("eta = 0.05", "eta = fast")
        cfg = write_cfg(tmp_path, text)
        assert main(["solve", cfg]) == 1
        assert "solver.eta" in capsys.readouterr().err

    def test_missing_gamma_named(self, tmp_path, capsys):
        text = QUAD_CHI2.format(out=tmp_path).replace("gamma = 10.0", "")
        cfg = write_cfg(tmp_path, text)
        assert main(["solve", cfg]) == 1
        assert "gamma" in capsys.readouterr().err


def test_readme_key_tables_match_schema():
    # the README's [problem], [solver] and [output] tables list exactly
    # the schema's keys, each section both ways
    from drsum.cli import SCHEMA

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    dialect = readme.split("### Config dialect", 1)[1].split("\n### ", 1)[0]
    _, *parts = re.split(r"^`\[(\w+)\]`$", dialect, flags=re.M)
    documented = {
        section: {key for line in body.splitlines() if line.startswith("| `")
                  for key in re.findall(r"`(\w+)`", line.split("|")[1])}
        for section, body in zip(parts[::2], parts[1::2])}
    assert documented == {section: set(keys)
                          for section, keys in SCHEMA.items()}


class TestCheck:
    def test_builtin_fixture_passes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUAD_CHI2.format(out=tmp_path / "c")
                        .replace("m = 16", "m = 8"))
        assert main(["check", cfg]) == 0
        out = capsys.readouterr().out
        assert "jacobian-check" in out and "PASS" in out
        assert "chi2-equivalence" in out

    def test_kl_reduction_check_passes(self, tmp_path, capsys):
        text = QUAD_CHI2.format(out=tmp_path / "c").replace(
            "reduction = chi2", "reduction = kl").replace(
            "gamma = 10.0", "gamma = 2.0").replace("m = 16", "m = 8")
        cfg = write_cfg(tmp_path, text)
        assert main(["check", cfg]) == 0
        out = capsys.readouterr().out
        assert "kl-equivalence" in out

    @pytest.mark.parametrize("kind", ["logistic", "quadratic"])
    def test_broken_jacobian_exit_3(self, tmp_path, capsys, kind):
        text = QUAD_CHI2.format(out=tmp_path / "c").replace(
            "reduction = chi2", "reduction = chi2\ninject_jacobian_fault = true"
        ).replace("m = 16", "m = 8")
        if kind == "logistic":
            text = text.replace("kind = quadratic", "kind = logistic").replace(
                "source = synthetic",
                "source = synthetic\nsynthetic = two_group_bias")
        cfg = write_cfg(tmp_path, text)
        assert main(["check", cfg]) == 3
        captured = capsys.readouterr()
        assert "jacobian-check" in captured.err

    def test_wasserstein_alpha_warning_still_passes(self, tmp_path, capsys):
        text = FAIRNESS.format(out=tmp_path / "w").replace(
            "eps_slack = 0.05", "eps_slack = 0.05\nrho = 1.0\ng_r = 10.0")
        cfg = write_cfg(tmp_path, text)
        assert main(["check", cfg]) == 0
        out = capsys.readouterr().out
        assert "sandwich" in out
        assert "alpha-condition" in out
        assert "warning" in out

    @pytest.mark.parametrize("name", ["robust_logistic",
                                      "fairness_wasserstein"])
    def test_wasserstein_configs_check_jacobians_and_rows(self, name,
                                                          capsys):
        assert main(["check", str(CONFIGS / f"{name}.ini")]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^jacobian-check +PASS ", out, re.M)
        assert re.search(r"^constraint-rows +PASS ", out, re.M)

    @pytest.mark.parametrize("fault", ["rows", "values_only"])
    def test_constraint_rows_catches_a_faulty_batch(self, fault, monkeypatch,
                                                    capsys):
        # a batch that reads the wrong rows, or whose values-only read
        # differs in the last bits, fails the check with exit 3
        from dataclasses import replace

        import drsum.cli

        build = drsum.cli.build_dr_logistic

        def faulty(*args, **kwargs):
            objective, cset = build(*args, **kwargs)

            def batch(idx, x, jac=True):
                if fault == "rows" and idx is not None:
                    idx = (idx + 1) % cset.m
                out = cset.batch(idx, x, jac=jac)
                return out if jac or fault == "rows" else out * (1 + 1e-15)

            return objective, replace(cset, batch=batch)

        monkeypatch.setattr(drsum.cli, "build_dr_logistic", faulty)
        assert main(["check", str(CONFIGS / "robust_logistic.ini")]) == 3
        captured = capsys.readouterr()
        assert re.search(r"^constraint-rows +FAIL ", captured.out, re.M)
        assert "constraint-rows" in captured.err

    @pytest.mark.parametrize("name", ["chi2_quadratic", "kl_distributed",
                                      "fairness_wasserstein"])
    def test_family_configs_check_family_rows(self, name, capsys):
        assert main(["check", str(CONFIGS / f"{name}.ini")]) == 0
        assert re.search(r"^family-rows +PASS ", capsys.readouterr().out,
                         re.M)

    @pytest.mark.parametrize("fault", ["rows", "values_only"])
    def test_family_rows_catches_a_faulty_read(self, fault, monkeypatch,
                                               capsys):
        # the one-read contract of a constraint set holds for a loss
        # family too: a read of the wrong rows, or a values-only read that
        # differs in the last bits, fails the check with exit 3
        from drsum.problems import QuadraticLosses

        read = QuadraticLosses.eval

        def faulty(self, idx, x, jac=True):
            if fault == "rows" and idx is not None:
                idx = (idx + 1) % self.m
            out = read(self, idx, x, jac)
            return out if jac or fault == "rows" else out * (1 + 1e-15)

        monkeypatch.setattr(QuadraticLosses, "eval", faulty)
        assert main(["check", str(CONFIGS / "chi2_quadratic.ini")]) == 3
        captured = capsys.readouterr()
        assert re.search(r"^family-rows +FAIL ", captured.out, re.M)
        assert "family-rows" in captured.err


class TestBench:
    def test_diverging_biased_baseline_rows_left_out(self, tmp_path, capsys):
        # the shipped chi2 config's eta 0.08 diverges the biased baseline
        out = tmp_path / "bench"
        assert main(["bench", CHI2_CONFIG, "--out", str(out)]) == 0
        assert "biased_sgd baseline diverged at stage 1, epoch 59, step 0" in \
            capsys.readouterr().err
        methods = [line.split(",")[0] for line in
                   (out / "bench.csv").read_text().splitlines()[1:]]
        assert set(methods) == {"vr_chi2", "unconstrained"}

    def test_fairness_bench_rows(self, tmp_path):
        cfg = write_cfg(tmp_path, FAIRNESS.format(out=tmp_path / "bench"))
        assert main(["bench", cfg]) == 0
        text = (tmp_path / "bench" / "bench.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "method,budget,psi,grad_map_sq,max_violation,error_rate"
        methods = {line.split(",")[0] for line in lines[1:]}
        assert "vr_wasserstein" in methods
        assert "unconstrained" in methods
        final_violation = {}
        for method in methods:
            rows = [line.split(",") for line in lines[1:]
                    if line.split(",")[0] == method]
            budgets = [int(r[1]) for r in rows]
            assert budgets == sorted(budgets)
            final_violation[method] = float(rows[-1][4])
        # the constrained arm ends with less violation than the baseline
        assert final_violation["vr_wasserstein"] < final_violation["unconstrained"]

    def test_unconstrained_rows_start_at_x0(self, tmp_path, monkeypatch):
        # the chi2 objective is quartic: far from 0 it needs a shorter step
        monkeypatch.setenv("DRSUM_SOLVER__ETA", "0.005")

        def unconstrained_rows(out):
            assert main(["bench", CHI2_CONFIG, "--out", str(out)]) == 0
            return [line for line in
                    (out / "bench.csv").read_text().splitlines()
                    if line.startswith("unconstrained,")]

        zero_start = unconstrained_rows(tmp_path / "zero")
        monkeypatch.setenv("DRSUM_SOLVER__X0", "1,1,1,1,1")
        ones_start = unconstrained_rows(tmp_path / "ones")
        assert len(ones_start) == len(zero_start) == 8
        assert all(a != b for a, b in zip(zero_start, ones_start))

    def test_one_solve_per_baseline(self, tmp_path, monkeypatch):
        import drsum.cli

        calls = []

        def counted(problem, kind, *args, **kwargs):
            calls.append(kind)
            return baseline_solve(problem, kind, *args, **kwargs)

        baseline_solve = drsum.cli.baseline_solve
        monkeypatch.setattr(drsum.cli, "baseline_solve", counted)
        out = tmp_path / "bench"
        assert main(["bench", KL_CONFIG, "--out", str(out)]) == 0
        assert calls == ["full_prox_gradient", "naive_biased_sgd"]
        rows = [line.split(",") for line in
                (out / "bench.csv").read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == \
            ["vr_kl"] * 3 + ["unconstrained"] * 3 + ["biased_sgd"] * 3


REPO = Path(__file__).resolve().parents[1]
DR_LOGISTIC_WORKLOAD = str(REPO / "perfbench" / "workloads" / "drlogistic_m20.ini")
PROJECTION_MODULES = ("scipy.optimize", "scipy.special")


def fresh_interpreter(code, *args):
    """Run code in a new python with src/ on the path; returns its stdout.
    The test process itself has loaded scipy, so its sys.modules tells
    nothing about what drsum imports."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", code, *args], cwd=REPO,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestImportFootprint:
    """No command loads scipy: the terminal projection is drsum's own
    numpy SQP, so scipy serves only the tests and the benchmark's
    reference solutions."""

    def loaded(self, code, *args):
        out = fresh_interpreter(
            code + "\nprint(json.dumps(sorted(m for m in sys.modules"
                   f" if m in {PROJECTION_MODULES!r})))", *args)
        return json.loads(out.splitlines()[-1])

    def test_importing_the_package_loads_no_scipy(self):
        assert self.loaded("import json, sys, drsum, drsum.cli") == []

    @pytest.mark.parametrize("config", [CHI2_CONFIG, KL_CONFIG],
                             ids=["chi2", "kl"])
    def test_unconstrained_commands_load_no_scipy(self, tmp_path, config):
        code = (
            "import json, sys\n"
            "from drsum.cli import main\n"
            "for command in ('solve', 'bench'):\n"
            "    out = sys.argv[2] + '/' + command\n"
            "    assert main([command, sys.argv[1], '--out', out]) == 0\n")
        assert self.loaded(code, config, str(tmp_path)) == []

    def test_projecting_run_loads_no_scipy(self, tmp_path):
        # the run projects (iterations > 0), imports nothing while it
        # runs, and has loaded no scipy by its end, set-up included
        code = (
            "import json, sys\n"
            "from drsum.cli import Experiment, load_config\n"
            "cfg = load_config(sys.argv[1])\n"
            "cfg['output']['out_dir'] = sys.argv[2]\n"
            "cfg['solver']['seed'] = '1'  # ends outside the set\n"
            "exp = Experiment(cfg)\n"
            "before = set(sys.modules)\n"
            "report = exp.run()\n"
            "assert report.counters.projection_calls == 1\n"
            "assert report.projection['iterations'] > 0, report.projection\n"
            "new = sorted(set(sys.modules) - before)\n"
            "assert not new, new[:10]\n")
        assert self.loaded(code, DR_LOGISTIC_WORKLOAD, str(tmp_path)) == []


class TestShippedChi2Step:
    """configs/chi2_quadratic.ini's eta 0.08 solves every solver seed of
    0-19 with its own method and with dist_vr (eta 0.1 diverged on seed
    2), while its biased baseline still diverges at the config's seed."""

    @pytest.mark.parametrize("method", ["vr", "dist_vr"])
    def test_seeds_0_to_19_solve(self, tmp_path, monkeypatch, method):
        monkeypatch.setenv("DRSUM_SOLVER__METHOD", method)
        for seed in range(20):
            out = tmp_path / str(seed)
            assert main(["solve", CHI2_CONFIG, "--seed", str(seed),
                         "--out", str(out)]) == 0, seed
            summary = json.loads((out / "summary.json").read_text())
            assert np.isfinite(summary["final_psi"]), seed

    def test_biased_baseline_still_diverges(self, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.setenv("DRSUM_SOLVER__METHOD", "naive_biased_sgd")
        assert main(["solve", CHI2_CONFIG, "--out", str(tmp_path)]) == 2
        assert "DivergenceError" in capsys.readouterr().err


class TestBenchmarkTracerHooks:
    """The benchmark's tracer (perfbench/tracing.py) patches names that
    drsum's modules and classes bind; every one must exist, or a traced
    benchmark run fails, and uninstall must restore each."""

    def test_install_finds_every_name_and_uninstall_restores_them(self):
        import importlib.util

        import drsum.cli
        import drsum.constraints
        import drsum.distributed
        import drsum.problems
        import drsum.reductions
        import drsum.solver

        path = REPO / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                      path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        owners = (drsum.cli, drsum.cli.Experiment, drsum.constraints,
                  drsum.constraints.ConstraintSet, drsum.distributed,
                  drsum.problems.QuadraticLosses,
                  drsum.problems.LogisticLosses, drsum.reductions,
                  drsum.solver)
        before = [dict(vars(owner)) for owner in owners]
        tracer = tracing.Tracer()
        try:
            tracer.install()
            patched = {(owner.__name__, name)
                       for owner, names in zip(owners, before)
                       for name, value in vars(owner).items()
                       if names.get(name) is not value}
        finally:
            tracer.uninstall()
        # the names the solver's diagnostics and epochs are read through,
        # in both modules that bind them
        for module in ("drsum.solver", "drsum.distributed"):
            for name in ("batch_estimates", "delta_update", "evaluate_psi",
                         "gradient_mapping", "max_violation"):
                assert (module, name) in patched
        assert ("ConstraintSet", "eval") in patched
        for owner, names in zip(owners, before):
            now = vars(owner)
            assert now.keys() == names.keys(), owner
            assert all(now[name] is value for name, value in names.items()), \
                owner
