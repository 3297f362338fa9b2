import json
from pathlib import Path

import pytest

from drsum.cli import config_to_ini, main

CHI2_CONFIG = str(Path(__file__).resolve().parents[1] / "configs"
                  / "chi2_quadratic.ini")

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


class TestNumericalFailure:
    @pytest.mark.parametrize("overrides, error", [
        ({"DRSUM_SOLVER__ETA": "0.3"}, "non-finite iterate at stage"),
        ({"DRSUM_SOLVER__ETA": "0.5", "DRSUM_PROBLEM__M": "256"},
         "OverflowError"),
    ], ids=["diverging_iterate", "outer_map_overflow"])
    def test_exit_2_and_no_nan_summary(self, tmp_path, monkeypatch, capsys,
                                       overrides, error):
        for key, value in overrides.items():
            monkeypatch.setenv(key, value)
        out = tmp_path / "run"
        assert main(["solve", CHI2_CONFIG, "--out", str(out)]) == 2
        assert error in capsys.readouterr().err
        assert not (out / "summary.json").exists()


class TestConfigErrors:
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

    def test_broken_jacobian_exit_3(self, tmp_path, capsys):
        text = QUAD_CHI2.format(out=tmp_path / "c").replace(
            "kind = quadratic", "kind = logistic").replace(
            "reduction = chi2", "reduction = chi2\ninject_jacobian_fault = true"
        ).replace("m = 16", "m = 8").replace(
            "source = synthetic", "source = synthetic\nsynthetic = two_group_bias")
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


class TestBench:
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
