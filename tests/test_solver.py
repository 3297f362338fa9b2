import math
from dataclasses import replace

import numpy as np
import pytest

from drsum.composite import (
    OracleCounter,
    batch_estimates,
    delta_update,
    evaluate_psi,
    full_phi_gradient,
    per_index,
)
from drsum.constraints import ConstraintSet
from drsum.proxlib import SquaredNormTerm
from drsum.reductions import (
    Chi2Config,
    WassersteinConfig,
    build_chi2,
    build_mean,
    restart_gamma,
    wasserstein_stages,
)
from drsum.solver import (
    SolverConfig,
    Schedule,
    expected_oracle_calls,
    run_epoch,
    solve,
)

from conftest import affine_rows, closed_form, reference_set


class TestSchedule:
    def test_fixed_mode(self):
        s = Schedule(mode="fixed_sqrt_m")
        assert s.params(1, 16) == (4, 4, 16)
        assert s.params(9, 10) == (4, 4, 10)  # ceil(sqrt(10)) = 4

    def test_adaptive_ramp_then_fixed(self):
        s = Schedule(mode="adaptive", beta=1.0, zeta=1.0)
        m = 64
        assert s.ramp_end(m) == 7
        assert s.params(1, m) == (2, 2, 4)
        assert s.params(3, m) == (4, 4, 16)
        assert s.params(7, m) == (8, 8, 64)
        assert s.params(8, m) == (8, 8, 64)

    def test_adaptive_batch_capped_at_m(self):
        s = Schedule(mode="adaptive", beta=3.0, zeta=0.0)
        tau, S, B = s.params(2, 10)
        assert B <= 10 and tau == S

    def test_full_batch_mode(self):
        s = Schedule(mode="full_batch", tau=3)
        assert s.params(5, 8) == (3, 8, 8)

    def test_invalid_modes_and_params(self):
        with pytest.raises(ValueError):
            Schedule(mode="warp")
        with pytest.raises(ValueError):
            Schedule(mode="adaptive", beta=0.0).params(1, 4)
        with pytest.raises(ValueError):
            Schedule(mode="adaptive", beta=1.0, zeta=5.0).params(1, 4)

    def test_expected_calls_formula(self):
        s = Schedule(mode="fixed_sqrt_m")
        # m=4: per epoch 4 + 2*2*1 = 8
        assert expected_oracle_calls(s, T=3, m=4) == 24
        a = Schedule(mode="adaptive", beta=1.0, zeta=0.0)
        total = sum(a.params(t, 16)[2] + 2 * a.params(t, 16)[1] * (a.params(t, 16)[0] - 1)
                    for t in range(1, 6))
        assert expected_oracle_calls(a, T=5, m=16) == total


class StubSchedule:
    def __init__(self, tau, S, B):
        self._p = (tau, S, B)

    def params(self, t, m):
        return self._p


class StubRng:
    """Replays a fixed sequence of index draws."""

    def __init__(self, draws):
        self.draws = [np.asarray(d) for d in draws]
        self.i = 0

    def integers(self, lo, hi, size=None):
        out = self.draws[self.i]
        self.i += 1
        return out


def steps_of(run, *args, **kwargs):
    """run(*args, on_step=...) -> (its return value, the (x, grad_est,
    x_new) of every step)."""
    steps = []
    out = run(*args, **kwargs, on_step=lambda s, t, j, tau, x, g, x_new:
              steps.append((x.copy(), g.copy(), x_new.copy())))
    return out, steps


def one_worker_epoch(problem, x, t, schedule, eta, rng, **hook):
    """run_epoch on one shard of every index, sampled with rng, charged
    to throwaway counters."""
    return run_epoch(problem, x, t, schedule, eta, [problem.m], [rng],
                     [OracleCounter()], OracleCounter(), **hook)


class TestRunEpoch:
    def test_hand_unrolled_recursion(self):
        # two linear components with slopes 1 and 3, outer map u^2 / 2, so
        # a step's gradient estimate z * y reads both estimators; batch
        # opens with the full pass, the single inner step samples
        # component 1 only
        slopes = np.array([1.0, 3.0])

        def g_oracle(i, x):
            return np.array([slopes[i] * x[0]]), np.array([[slopes[i]]])

        def h_oracle(i, x):
            return 0.0, np.zeros(1)

        def f_outer(u):
            return 0.5 * float(u[0]) ** 2, np.array([float(u[0])])

        from drsum.composite import CompositeProblem
        prob = CompositeProblem(1, 1, 2, per_index(g_oracle),
                                per_index(h_oracle), f_outer)
        x0 = np.array([1.5])
        eta = 0.1
        x, steps = steps_of(one_worker_epoch, prob, x0, 1,
                            StubSchedule(tau=2, S=1, B=2), eta,
                            StubRng([np.array([1])]))
        # the batch means: y = 2 x0 (mean slope 2), z = 2
        assert steps[0][1] == pytest.approx([2.0 * 2.0 * x0[0]], abs=1e-15)
        x1 = x0 - eta * steps[0][1]
        assert np.array_equal(steps[1][0], x1)
        # the sampled delta moves y by 3 (x1 - x0); the slope deltas vanish
        expected_y = 2.0 * x0[0] + 3.0 * (x1[0] - x0[0])
        assert steps[1][1] == pytest.approx([2.0 * expected_y], abs=1e-15)
        assert np.array_equal(x, x1 - eta * steps[1][1])

    def test_zero_step_leaves_estimators_fixed(self, quad16):
        losses, d, _, _ = quad16
        prob = build_chi2(losses, Chi2Config(gamma=10.0), dim=d)
        x0 = np.zeros(d)
        x, steps = steps_of(one_worker_epoch, prob, x0, 1,
                            StubSchedule(tau=3, S=2, B=prob.m), 0.0,
                            StubRng([np.array([3, 5]), np.array([0, 9])]))
        y0, z0, w0 = batch_estimates(prob, range(prob.m), x0)
        want = z0.T @ prob.f_outer(y0)[1] + w0
        assert np.array_equal(x, x0)
        assert len(steps) == 3
        for x_step, grad_est, x_new in steps:
            assert np.array_equal(x_step, x0) and np.array_equal(x_new, x0)
            assert grad_est.tobytes() == want.tobytes()

    def test_schedule_errors(self, quad16):
        losses, d, _, _ = quad16
        prob = build_mean(losses, dim=d)
        with pytest.raises(ValueError):
            one_worker_epoch(prob, np.zeros(d), 1,
                             StubSchedule(tau=1, S=0, B=4), 0.1, StubRng([]))

    def test_full_batch_gradient_matches_exact(self, quad16):
        losses, d, _, _ = quad16
        prob = build_chi2(losses, Chi2Config(gamma=10.0), dim=d)
        x, steps = steps_of(one_worker_epoch, prob, np.zeros(d), 1,
                            Schedule(mode="full_batch", tau=4), 0.05,
                            np.random.default_rng(0))
        assert len(steps) == 4
        for x_step, grad_est, _ in steps:
            assert np.array_equal(grad_est, full_phi_gradient(prob, x_step))
        assert x.tobytes() == steps[-1][2].tobytes()


class TestFullBatchDegeneracy:
    def test_bit_identical_to_proximal_gradient(self, quad16):
        losses, d, _, _ = quad16
        prob = build_chi2(losses, Chi2Config(gamma=10.0), dim=d)
        eta = 0.05
        iterates = []
        probe = lambda stage, t, j, x, g: iterates.append(x.copy())
        cfg = SolverConfig(eta=eta, T=10, K=1,
                          schedule=Schedule(mode="full_batch", tau=5), seed=3)
        report = solve(prob, np.zeros(d), cfg, probe=probe)

        x = np.zeros(d)
        manual = []
        for _ in range(50):
            manual.append(x.copy())
            x = prob.r_term.prox(x - eta * full_phi_gradient(prob, x), eta)
        assert len(iterates) == 50
        for a, b in zip(iterates, manual):
            assert np.array_equal(a, b)
        assert np.array_equal(report.final_x, x)


class TestEstimatorRecursion:
    def test_bit_level_telescoping_sampled_path(self, quad16):
        losses, d, _, _ = quad16
        prob = build_chi2(losses, Chi2Config(gamma=10.0), dim=d)
        rng = np.random.default_rng(5)
        xs = [rng.standard_normal(d) for _ in range(5)]
        y, z, w = batch_estimates(prob, range(prob.m), xs[0])
        y0, z0, w0 = y.copy(), z.copy(), w.copy()
        deltas = []
        for j in range(1, 5):
            idx = rng.integers(0, prob.m, size=4)
            y_new, z_new, w_new = delta_update(prob, idx, xs[j], xs[j - 1], y, z, w)
            deltas.append((y_new - y, z_new - z, w_new - w))
            y, z, w = y_new, z_new, w_new
        acc_y, acc_z, acc_w = y0, z0, w0
        for dy, dz, dw in deltas:
            acc_y = acc_y + dy
            acc_z = acc_z + dz
            acc_w = acc_w + dw
        assert np.array_equal(acc_y, y)
        assert np.array_equal(acc_z, z)
        assert np.array_equal(acc_w, w)

    def test_full_pass_tracks_exact_means(self, quad16):
        # every step's estimate is the one the exact means at its start
        # point give, bit for bit, and the epoch returns the last iterate
        losses, d, _, _ = quad16
        prob = build_chi2(losses, Chi2Config(gamma=10.0), dim=d)
        x, steps = steps_of(one_worker_epoch, prob, np.zeros(d), 1,
                            Schedule(mode="full_batch", tau=6), 0.03,
                            np.random.default_rng(1))
        assert len(steps) == 6
        for x_step, grad_est, x_new in steps:
            y_exact, z_exact, w_exact = batch_estimates(prob, range(prob.m),
                                                        x_step)
            want = z_exact.T @ prob.f_outer(y_exact)[1] + w_exact
            assert grad_est.tobytes() == want.tobytes()
            assert x_new.tobytes() == prob.r_term.prox(
                x_step - 0.03 * want, 0.03).tobytes()
        assert x.tobytes() == steps[-1][2].tobytes()

    def test_update_unbiased_over_fresh_draws(self, quad16):
        losses, d, _, _ = quad16
        prob = build_chi2(losses, Chi2Config(gamma=5.0), dim=d)
        rng = np.random.default_rng(11)
        x_old = rng.standard_normal(d)
        x_new = x_old + 0.1 * rng.standard_normal(d)
        y_prev, z_prev, w_prev = batch_estimates(prob, rng.integers(0, prob.m, 4), x_old)
        y_full_new, _, _ = batch_estimates(prob, range(prob.m), x_new)
        y_full_old, _, _ = batch_estimates(prob, range(prob.m), x_old)
        exact = y_prev + y_full_new - y_full_old
        trials = 3000
        samples = np.empty(trials)
        for k in range(trials):
            idx = rng.integers(0, prob.m, size=4)
            y_k, _, _ = delta_update(prob, idx, x_new, x_old, y_prev, z_prev, w_prev)
            samples[k] = y_k[0]
        se = samples.std(ddof=1) / np.sqrt(trials)
        assert abs(samples.mean() - exact[0]) <= 4.0 * se + 1e-15


class TestRunStage:
    """One stage: solve with K = 1."""

    def test_single_step_stage(self, quad16):
        losses, d, _, _ = quad16
        prob = build_chi2(losses, Chi2Config(gamma=10.0), dim=d)
        eta = 0.05
        cfg = SolverConfig(eta=eta, T=1, schedule=Schedule(mode="full_batch", tau=1))
        report = solve(prob, np.zeros(d), cfg)
        expected = prob.r_term.prox(-eta * full_phi_gradient(prob, np.zeros(d)), eta)
        assert np.array_equal(report.final_x, expected)
        assert len(report.trajectory) == 1

    def test_counter_matches_formula(self, quad16):
        losses, d, _, _ = quad16
        m4 = losses[:4]
        prob = build_chi2(m4, Chi2Config(gamma=10.0), dim=d)
        cfg = SolverConfig(eta=0.02, T=3, schedule=Schedule(mode="fixed_sqrt_m"), seed=2)
        counter = solve(prob, np.zeros(d), cfg).counters
        expected = expected_oracle_calls(cfg.schedule, cfg.T, 4)
        assert expected == 3 * 8
        assert counter.g_value_calls == expected
        assert counter.h_gradient_calls == expected

    def test_random_output_rule_reproducible(self, quad16):
        losses, d, _, _ = quad16
        prob = build_chi2(losses, Chi2Config(gamma=10.0), dim=d)
        cfg = SolverConfig(eta=0.02, T=2, seed=9,
                          output_rule="uniform_random_iterate")
        x1 = solve(prob, np.zeros(d), cfg).final_x
        x2 = solve(prob, np.zeros(d), cfg).final_x
        assert np.array_equal(x1, x2)
        cfg_last = SolverConfig(eta=0.02, T=2, seed=9, output_rule="last_iterate")
        x3 = solve(prob, np.zeros(d), cfg_last).final_x
        # sampling draws are unaffected by the selection stream
        assert x1.shape == x3.shape


class TestSolveRestarted:
    def test_determinism_of_full_report(self, quad16):
        losses, d, _, _ = quad16
        prob = build_chi2(losses, Chi2Config(gamma=10.0), dim=d)
        cfg = SolverConfig(eta=0.02, T=3, K=2, seed=13)
        r1 = solve(prob, np.zeros(d), cfg)
        r2 = solve(prob, np.zeros(d), cfg)
        assert np.array_equal(r1.final_x, r2.final_x)
        assert [rec.psi for rec in r1.trajectory] == [rec.psi for rec in r2.trajectory]
        assert r1.counters.as_dict() == r2.counters.as_dict()

    def test_chi2_matches_long_reference_run(self, quad16):
        losses, d, _, _ = quad16
        m8 = losses[:8]
        prob = build_chi2(m8, Chi2Config(gamma=10.0), dim=d)
        cfg = SolverConfig(eta=0.05, T=30, K=4, seed=1)
        report = solve(prob, np.zeros(d), cfg)
        x = np.zeros(d)
        for _ in range(4000):
            x = prob.r_term.prox(x - 0.05 * full_phi_gradient(prob, x), 0.05)
        assert abs(report.final_psi - evaluate_psi(prob, x)) < 1e-4

    def test_stage_errors_decrease_geometrically(self, quad16):
        losses, d, _, _ = quad16
        prob = build_chi2(losses, Chi2Config(gamma=10.0), dim=d)
        cfg = SolverConfig(eta=0.08, T=4, K=6, seed=3)
        report = solve(prob, np.zeros(d), cfg)
        x = np.zeros(d)
        for _ in range(20000):
            x = prob.r_term.prox(x - 0.05 * full_phi_gradient(prob, x), 0.05)
        psi_star = evaluate_psi(prob, x)
        errors = [evaluate_psi(prob, xs) - psi_star for xs in report.stage_outputs]
        assert all(e > 0 for e in errors)
        # monotone decrease across stages
        assert errors[-1] < errors[0] * 1e-2


class TestOracleCounting:
    """The counters advance once per batch; they must still equal the
    rows the oracles actually receive."""

    @staticmethod
    def count_calls(problem):
        calls = {"g": 0, "h": 0}

        def counted(family, oracle):
            def wrapped(idx, x):
                calls[family] += len(idx)
                return oracle(idx, x)
            return wrapped

        return replace(problem, g_oracle=counted("g", problem.g_oracle),
                       h_oracle=counted("h", problem.h_oracle)), calls

    @pytest.mark.parametrize("method", ["vr", "dist_vr_p3", "biased_sgd"])
    def test_counters_equal_oracle_calls(self, method):
        # component_values serves psi and grad_map_every = -1 skips the
        # gradient mapping, so only the counted solver loop calls g and h
        from drsum.diagnostics import baseline_solve
        from drsum.problems import make_synthetic

        family = make_synthetic("strongly_convex_quadratic", m=16, d=5, seed=7)
        prob, calls = self.count_calls(
            build_chi2(family, Chi2Config(gamma=10.0)))
        assert closed_form(prob.component_values)
        common = dict(eta=0.02, T=3, K=2, seed=3, grad_map_every=-1)
        x0 = np.zeros(prob.dim_x)
        if method == "vr":
            report = solve(prob, x0, SolverConfig(**common))
        elif method == "dist_vr_p3":
            report = solve(prob, x0, SolverConfig(p=3, **common))
        else:
            report = baseline_solve(prob, "naive_biased_sgd",
                                    SolverConfig(**common), batch_size=3)
        assert calls["g"] > 0
        assert report.counters.g_value_calls == calls["g"]
        assert report.counters.h_gradient_calls == calls["h"]


class TestRecordCadence:
    """One record per proximal step; the gradient mapping at the
    configured cadence, the violation whenever a set is given."""

    @pytest.mark.parametrize("eta, grad_map_every, at_cadence", [
        (0.05, 0, lambda j, tau: j == tau - 1),
        (0.05, 2, lambda j, tau: (j + 1) % 2 == 0),
        (0.05, -1, lambda j, tau: False),
        (0.0, 0, lambda j, tau: False),
    ], ids=["epoch_ends", "every_2nd", "never", "zero_step"])
    @pytest.mark.parametrize("with_violations", [False, True])
    def test_records_follow_cadence(self, quad16, eta, grad_map_every,
                                    at_cadence, with_violations):
        losses, d, _, _ = quad16
        prob = build_chi2(losses, Chi2Config(gamma=10.0), dim=d)
        cset = (ConstraintSet.affine(np.eye(d), np.ones(d))
                if with_violations else None)
        K, T, tau = 2, 2, 3
        cfg = SolverConfig(eta=eta, T=T, K=K, seed=0,
                           schedule=Schedule(mode="full_batch", tau=tau),
                           grad_map_every=grad_map_every)
        x0 = np.full(d, 0.25)
        probed = []
        report = solve(
            prob, x0, cfg, constraints=cset,
            probe=lambda s, t, j, x, g: probed.append((s, t, j, x.copy())))

        steps = [(k, t, j) for k in range(1, K + 1)
                 for t in range(1, T + 1) for j in range(tau)]
        assert [(r.stage, r.epoch, r.step)
                for r in report.trajectory] == steps
        assert [p[:3] for p in probed] == steps
        assert np.array_equal(probed[0][3], x0)
        for rec in report.trajectory:
            assert np.isfinite(rec.psi)
            assert (rec.grad_map_sq is not None) == at_cadence(rec.step, tau)
            assert (rec.max_violation is not None) == with_violations


class TestVarianceReduction:
    def test_late_epoch_estimator_error_shrinks(self, quad16):
        losses, d, _, _ = quad16
        prob = build_chi2(losses, Chi2Config(gamma=10.0), dim=d)
        sq_errors = {}

        def probe(stage, t, j, x, g_est):
            exact = full_phi_gradient(prob, x)
            sq_errors.setdefault(t, []).append(float(np.sum((g_est - exact) ** 2)))

        cfg = SolverConfig(eta=0.04, T=10, K=1, seed=6)
        solve(prob, np.zeros(d), cfg, probe=probe)
        first = np.mean(sq_errors[1])
        last = np.mean(sq_errors[10])
        assert last <= 0.10 * first


def constrained_solve(objective, cset, wcfg, cfg, x0):
    """The Wasserstein stages of (objective, cset) solved from x0, ending
    with the one projection onto cset."""
    return solve(wasserstein_stages(objective, cset, wcfg, x0.size),
                 x0, cfg, constraints=cset)


class TestConstrainedSolve:
    def toy(self):
        objective = SquaredNormTerm(1.0, center=np.array([2.0, 2.0]))
        cset = ConstraintSet.affine(np.eye(2), np.ones(2))
        return objective, cset

    def test_two_dim_toy_converges_to_corner(self):
        objective, cset = self.toy()
        gamma = restart_gamma(4, 2)
        wcfg = WassersteinConfig(alpha=2.0, gamma=gamma)
        eta = 1.0 / (1.0 + 2.0 * 2.0**2 / (4.0 * gamma))
        T = math.ceil(5.0 / (math.sqrt(2.0) * eta))
        cfg = SolverConfig(eta=eta, T=T, K=4, seed=0)
        report = constrained_solve(objective, cset, wcfg, cfg, np.zeros(2))
        assert np.linalg.norm(report.final_x - np.array([1.0, 1.0])) < 1e-3
        assert report.projection["residual"] <= 1e-8
        assert report.counters.projection_calls == 1
        assert report.projection["gap"] >= -1e-12

    def test_feasible_end_point_projects_to_itself(self):
        # constraints already satisfied: projection is the identity, gap 0
        objective = SquaredNormTerm(1.0, center=np.array([-2.0, -2.0]))
        cset = ConstraintSet.affine(np.eye(2), np.ones(2))
        wcfg = WassersteinConfig(alpha=2.0, gamma=0.05)
        cfg = SolverConfig(eta=0.2, T=40, K=2, seed=1)
        report = constrained_solve(objective, cset, wcfg, cfg, np.zeros(2))
        assert np.array_equal(report.final_x, report.stage_outputs[-1])
        assert report.projection["gap"] == 0.0
        assert report.projection["iterations"] == 0

    def test_wall_time_covers_projection(self, monkeypatch):
        import time

        import drsum.solver

        project = drsum.solver.project_feasible

        def slow_projection(*args, **kwargs):
            time.sleep(0.05)
            return project(*args, **kwargs)

        monkeypatch.setattr(drsum.solver, "project_feasible", slow_projection)
        objective, cset = self.toy()
        wcfg = WassersteinConfig(alpha=2.0, gamma=0.1)
        cfg = SolverConfig(eta=0.05, T=1, K=1, seed=0)
        report = constrained_solve(objective, cset, wcfg, cfg, np.zeros(2))
        assert report.wall_time >= 0.05

    def test_each_stage_builds_its_problem_once(self, monkeypatch):
        import drsum.reductions

        build = drsum.reductions.build_wasserstein
        anchors = []

        def counted(*args, shift_anchor=None, **kwargs):
            anchors.append(shift_anchor.copy())
            return build(*args, shift_anchor=shift_anchor, **kwargs)

        monkeypatch.setattr(drsum.reductions, "build_wasserstein", counted)
        objective, cset = self.toy()
        wcfg = WassersteinConfig(alpha=2.0, gamma=0.1)
        cfg = SolverConfig(eta=0.05, T=2, K=3, seed=0)
        report = constrained_solve(objective, cset, wcfg, cfg, np.zeros(2))
        assert report.counters.projection_calls == 1
        # stage k anchors at its warm start, stage k-1's output
        assert len(anchors) == cfg.K
        starts = [np.zeros(2)] + report.stage_outputs[:-1]
        for anchor, start in zip(anchors, starts):
            assert np.array_equal(anchor, start)


class TestRobustLogisticSolve:
    def test_end_to_end_reaches_feasibility(self):
        from drsum.constraints import max_violation
        from drsum.problems import make_synthetic
        from drsum.reductions import build_dr_logistic

        data = make_synthetic("two_group_bias", m=10, seed=1, min_gap=0.05)
        objective, cset = build_dr_logistic(data, eps_radius=0.1,
                                            kappa_flip=1.0)
        wcfg = WassersteinConfig(alpha=3.0, gamma=0.05)
        # exponential-valued constraints need steps well below the
        # curvature scale gamma/alpha^2 or the range guard fires
        cfg = SolverConfig(eta=0.002, T=300, K=2, seed=0)
        rep = constrained_solve(objective, cset, wcfg, cfg,
                                np.zeros(objective.slope.size))
        assert max_violation(cset, rep.final_x) <= 1e-6
        assert rep.counters.projection_calls == 1
        # slack objective stays finite and the projection never helps it
        assert rep.projection["gap"] >= -1e-9

    def test_aggressive_step_raises_range_error(self):
        from drsum.problems import make_synthetic
        from drsum.reductions import NumericalRangeError, build_dr_logistic

        data = make_synthetic("two_group_bias", m=10, seed=1, min_gap=0.05)
        objective, cset = build_dr_logistic(data, eps_radius=0.1,
                                            kappa_flip=1.0)
        wcfg = WassersteinConfig(alpha=3.0, gamma=0.05)
        cfg = SolverConfig(eta=0.05, T=400, K=1, seed=0)
        with pytest.raises(NumericalRangeError):
            constrained_solve(objective, cset, wcfg, cfg,
                              np.zeros(objective.slope.size))

    def test_aggressive_step_error_names_its_step(self):
        from drsum.problems import make_synthetic
        from drsum.reductions import NumericalRangeError, build_dr_logistic

        data = make_synthetic("two_group_bias", m=10, seed=1, min_gap=0.05)
        objective, cset = build_dr_logistic(data, eps_radius=0.1,
                                            kappa_flip=1.0)
        wcfg = WassersteinConfig(alpha=3.0, gamma=0.05)
        cfg = SolverConfig(eta=0.05, T=400, K=1, seed=0)
        with pytest.raises(NumericalRangeError,
                           match=r"^\w+: .+ at stage 1, epoch \d+, step \d+$"):
            constrained_solve(objective, cset, wcfg, cfg,
                              np.zeros(objective.slope.size))


class TestBatchDiagnosticsLeaveSolverAlone:
    """component_values feeds only the diagnostics: a solve with the batch
    value path takes exactly the steps of one with the per-index path."""

    @staticmethod
    def assert_same_run(fast, ref):
        assert np.array_equal(fast.final_x, ref.final_x)
        assert fast.counters == ref.counters
        assert len(fast.trajectory) == len(ref.trajectory)
        for a, b in zip(fast.trajectory, ref.trajectory):
            assert (a.stage, a.epoch, a.step, a.g_calls, a.h_calls) == \
                (b.stage, b.epoch, b.step, b.g_calls, b.h_calls)
            assert a.psi == pytest.approx(b.psi, rel=1e-12)
            assert a.grad_map_sq == b.grad_map_sq
            if b.max_violation is None:
                assert a.max_violation is None
            else:
                assert a.max_violation == pytest.approx(b.max_violation,
                                                        rel=1e-12)
        assert fast.final_psi == pytest.approx(ref.final_psi, rel=1e-12)

    def test_anchor_shift_ignores_batch_values(self):
        from drsum.reductions import build_wasserstein

        # the anchored shift enters every g_i, so a values-only read that
        # differs from the rows the estimators read (here by 1e-9) must not
        # move them
        cset = ConstraintSet.affine(np.eye(2), np.ones(2))
        skewed = replace(cset, batch=lambda idx, x, jac=True: (
            cset.batch(idx, x) if jac
            else cset.batch(idx, x, jac=False) + 1e-9))
        wcfg = WassersteinConfig(alpha=2.0, gamma=0.1)
        x = np.array([0.5, 2.0])
        exact, fuzzy = (
            build_wasserstein(SquaredNormTerm(1.0), c, wcfg,
                              shift_anchor=np.array([3.0, -1.0]), dim=2)
            for c in (cset, skewed))
        for i in range(2):
            for a, b in zip(exact.g_oracle(np.array([i]), x),
                            fuzzy.g_oracle(np.array([i]), x)):
                assert np.array_equal(a, b)

    def test_solve_restarted(self):
        from drsum.problems import make_synthetic

        family = make_synthetic("strongly_convex_quadratic", m=16, d=5, seed=7)
        prob = build_chi2(family, Chi2Config(gamma=10.0))
        cset = ConstraintSet.affine(np.eye(5), np.full(5, 0.1))
        cfg = SolverConfig(eta=0.002, T=3, K=2, seed=3, grad_map_every=2)
        fast = solve(prob, np.ones(5), cfg, constraints=cset)
        ref = solve(
            replace(prob, component_values=None), np.ones(5), cfg,
            constraints=reference_set(
                affine_rows(np.eye(5), np.full(5, 0.1)), 5))
        assert closed_form(prob.component_values)
        self.assert_same_run(fast, ref)

    def test_dist_solve(self):
        from drsum.problems import make_losses, make_synthetic
        from drsum.reductions import KlConfig, build_kl

        data = make_synthetic("two_group_bias", m=64, seed=2, min_gap=0.1)
        prob = build_kl(make_losses("logistic", data), KlConfig(gamma=1.0))
        cfg = SolverConfig(eta=0.5, T=3, K=2, seed=5, p=4)
        fast = solve(prob, np.zeros(prob.dim_x), cfg)
        ref = solve(replace(prob, component_values=None),
                    np.zeros(prob.dim_x), cfg)
        assert closed_form(prob.component_values)
        self.assert_same_run(fast, ref)
        assert fast.per_device_counters == ref.per_device_counters

    def test_constrained_solve_restarted(self):
        from drsum.problems import make_synthetic
        from drsum.reductions import build_dr_logistic

        data = make_synthetic("two_group_bias", m=6, seed=1, min_gap=0.05)
        objective, cset = build_dr_logistic(data, eps_radius=0.1,
                                            kappa_flip=1.0)
        wcfg = WassersteinConfig(alpha=3.0, gamma=0.05)
        cfg = SolverConfig(eta=0.002, T=60, K=2, seed=0)  # projection runs
        x0 = np.zeros(objective.slope.size)
        # the reference's values-only read takes the values of the full
        # jacobian read; every other read is the fast run's own
        ref_set = replace(cset, batch=lambda idx, x, jac=True: (
            cset.batch(idx, x) if jac else cset.batch(idx, x)[0]))
        fast = constrained_solve(objective, cset, wcfg, cfg, x0)
        ref = constrained_solve(objective, ref_set, wcfg, cfg, x0)
        self.assert_same_run(fast, ref)
        # both reads compute the values alike, so the runs agree bit for bit
        assert [(a.psi, a.max_violation) for a in fast.trajectory] == \
            [(b.psi, b.max_violation) for b in ref.trajectory]
        assert fast.final_psi == ref.final_psi
        assert np.array_equal(fast.stage_outputs[-1], ref.stage_outputs[-1])
        assert fast.projection["iterations"] == \
            ref.projection["iterations"] > 0


class TestFailLoud:
    def test_out_of_range_row_inside_a_batch_is_located(self):
        # f_i(x) = 0.5 (a_i x - 0.5)^2 on d = 1 with one steep row: every
        # exponent is 0.125 at x0 = 0, and after the first step the steep
        # row's passes EXP_LIMIT, so the step-1 correction over the rows
        # [0, 3, 1] raises from inside one batch call
        from drsum.problems import QuadraticLosses
        from drsum.reductions import KlConfig, NumericalRangeError, build_kl

        steep = QuadraticLosses(np.array([[1.0], [1.0], [1.0], [30.0]]),
                                np.full(4, 0.5))
        prob = build_kl(steep, KlConfig(gamma=1.0))
        with pytest.raises(NumericalRangeError, match="exceeds range"):
            batch_estimates(prob, np.array([0, 3, 1]), np.array([4.125]))
        batch_estimates(prob, np.array([0, 1, 2]), np.array([4.125]))
        with pytest.raises(NumericalRangeError,
                           match=r"^NumericalRangeError: exponent 7595\.3 "
                                 r"exceeds range after shift; .+ at stage 1, "
                                 r"epoch 1, step 1$") as raised:
            one_worker_epoch(prob, np.zeros(1), 1,
                             StubSchedule(tau=2, S=3, B=4), 1.0,
                             StubRng([np.array([0, 3, 1])]))
        assert type(raised.value.__cause__) is NumericalRangeError

    @pytest.mark.parametrize("tau", [1, 3])
    def test_non_finite_gradient_estimate_named(self, tau):
        # h_i(x) = exp(-800 x) overflows at x0 = -1, and the box prox clips
        # the infinite step to the finite corner x = 1 with psi 0
        from drsum.composite import CompositeProblem
        from drsum.proxlib import BoxTerm
        from drsum.reductions import NumericalRangeError

        def h_oracle(i, x):
            value = np.exp(-800.0 * x[0])
            return value, np.array([-800.0 * value])

        prob = CompositeProblem(
            1, 1, 4, per_index(lambda i, x: (np.zeros(1), np.zeros((1, 1)))),
            per_index(h_oracle), lambda u: (0.0, np.zeros(1)),
            r_term=BoxTerm(-1.0, 1.0))
        cfg = SolverConfig(eta=0.1, T=3,
                           schedule=Schedule(mode="full_batch", tau=tau))
        with np.errstate(over="ignore"), pytest.raises(
                NumericalRangeError, match="^non-finite gradient estimate "
                                           "at stage 1, epoch 1, step 0$"):
            solve(prob, np.array([-1.0]), cfg)

    @pytest.mark.parametrize("p", [1, 2], ids=["centralized", "dist_p2"])
    def test_finite_divergence_raises_at_run_end(self, p):
        # eta = 2.05 / L on the quadratic mean: the iterates stay finite
        # while psi grows past 1e6 * max(1, |psi(x0)|)
        from drsum.problems import make_synthetic
        from drsum.reductions import DivergenceError

        family = make_synthetic("strongly_convex_quadratic", m=16, d=5, seed=7)
        L = np.linalg.eigvalsh(family.A.T @ family.A / family.m).max()
        common = dict(eta=2.05 / L, T=8, K=2, seed=0)
        starts = []
        probe = lambda stage, t, j, x, grad_est: starts.append(x)
        with pytest.raises(DivergenceError,
                           match=r"^diverged at stage 2, epoch \d+, step \d+: "
                                 r"psi \S+ exceeds 1\.000e\+06$"):
            solve(build_mean(family), np.zeros(5),
                  SolverConfig(p=p, **common), probe=probe)
        assert len(starts) == 2 * 8 * 4
        assert np.all(np.isfinite(starts))
