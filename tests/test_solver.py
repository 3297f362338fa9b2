import numpy as np
import pytest

from drsum.composite import (
    EpochState,
    OracleCounter,
    SmoothnessSpec,
    batch_estimates,
    delta_update,
    evaluate_psi,
    full_phi_gradient,
)
from drsum.constraints import ConstraintSet
from drsum.proxlib import SquaredNormTerm
from drsum.reductions import Chi2Config, WassersteinConfig, build_chi2, build_mean
from drsum.solver import (
    SolverConfig,
    Schedule,
    derive_step_size,
    expected_oracle_calls,
    run_epoch,
    run_stage,
    solve_constrained_wasserstein,
    solve_restarted,
    recommended_epochs,
    recommended_stages,
)


def fresh_state(x0, p, d):
    x0 = np.asarray(x0, dtype=float)
    return EpochState(x=x0, est_g_value=np.zeros(p),
                      est_g_jac=np.zeros((p, d)), est_h_grad=np.zeros(d),
                      x_prev=x0)


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


class TestStepSize:
    def test_zero_curvature_strongly_convex(self):
        spec = SmoothnessSpec(l_g=1.0, L_f=1.0)  # L_phi = 1, G0 = 3*l_g^4*L_f^2 = 3
        # construct G0 = 0 instead: l_g=0, L_g = 1, l_f = 1 gives L_phi = 1
        spec = SmoothnessSpec(l_f=1.0, L_g=1.0)
        assert spec.G0 == pytest.approx(3.0)  # 3 * l_f^2 L_g^2
        spec = SmoothnessSpec(L_h=1.0)
        assert spec.L_phi == 1.0 and spec.G0 == 0.0
        assert derive_step_size(spec, "strongly_convex") == pytest.approx(0.9)
        assert derive_step_size(spec, "nonconvex") == pytest.approx(1.8)

    def test_general_arithmetic(self):
        spec = SmoothnessSpec(L_h=2.0, l_h=np.sqrt(1.0 / 3.0))  # L_phi=2, G0=1
        assert spec.G0 == pytest.approx(1.0)
        eta = derive_step_size(spec, "strongly_convex")
        assert eta == pytest.approx(0.9 * 2.0 / (2.0 + np.sqrt(4.0 + 36.0)), abs=1e-9)
        assert eta == pytest.approx(0.21623, abs=1e-4)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            derive_step_size(SmoothnessSpec(), "strongly_convex")

    def test_recommended_counts(self):
        assert recommended_epochs(m=16, mu=1.0, eta=0.5) == np.ceil(5.0 / 2.0)
        assert recommended_epochs(m=1, mu=100.0, eta=1.0) == 1
        assert recommended_stages(np.exp(-3.0)) == 3
        with pytest.raises(ValueError):
            recommended_stages(2.0)


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


class TestRunEpoch:
    def test_hand_unrolled_recursion(self):
        # two linear components with slopes 1 and 3, identity outer map;
        # batch opens with the full pass, the single inner step samples
        # component 1 only
        slopes = np.array([1.0, 3.0])

        def g_oracle(i, x):
            return np.array([slopes[i] * x[0]]), np.array([[slopes[i]]])

        def h_oracle(i, x):
            return 0.0, np.zeros(1)

        def f_outer(u):
            return float(u[0]), np.array([1.0])

        from drsum.composite import CompositeProblem
        prob = CompositeProblem(1, 1, 2, g_oracle, h_oracle, f_outer)
        x0 = np.array([1.5])
        eta = 0.1
        state, _ = run_epoch(prob, fresh_state(x0, 1, 1), 1,
                             StubSchedule(tau=2, S=1, B=2), eta,
                             StubRng([np.array([1])]))
        x1 = x0 - eta * 2.0  # batch gradient = mean slope = 2
        assert state.x_prev == pytest.approx(x1)
        expected_y = 2.0 * x0[0] + 3.0 * (x1[0] - x0[0])
        assert state.est_g_value[0] == pytest.approx(expected_y, abs=1e-15)
        assert state.est_g_jac[0, 0] == pytest.approx(2.0)  # slope deltas vanish

    def test_zero_step_leaves_estimators_fixed(self, quad16):
        losses, d, _, _ = quad16
        prob = build_chi2(losses, Chi2Config(gamma=10.0), dim=d)
        x0 = np.zeros(d)
        state, _ = run_epoch(prob, fresh_state(x0, 1, d), 1,
                             StubSchedule(tau=3, S=2, B=prob.m), 0.0,
                             StubRng([np.array([3, 5]), np.array([0, 9])]))
        y0, z0, w0 = batch_estimates(prob, range(prob.m), x0)
        assert np.array_equal(state.x, x0)
        assert np.allclose(state.est_g_value, y0, atol=0, rtol=0)
        assert np.allclose(state.est_g_jac, z0, atol=0, rtol=0)
        assert np.allclose(state.est_h_grad, w0, atol=0, rtol=0)

    def test_schedule_errors(self, quad16):
        losses, d, _, _ = quad16
        prob = build_mean(losses, dim=d)
        with pytest.raises(ValueError):
            run_epoch(prob, fresh_state(np.zeros(d), 1, d), 1,
                      StubSchedule(tau=1, S=0, B=4), 0.1, StubRng([]))

    def test_full_batch_gradient_matches_exact(self, quad16):
        losses, d, _, _ = quad16
        prob = build_chi2(losses, Chi2Config(gamma=10.0), dim=d)
        grads = []
        probe = lambda stage, t, j, x, g: grads.append((x.copy(), g.copy()))
        state, _ = run_epoch(prob, fresh_state(np.zeros(d), 1, d), 1,
                             Schedule(mode="full_batch", tau=4), 0.05,
                             np.random.default_rng(0), probe=probe)
        for x, g in grads:
            assert np.array_equal(g, full_phi_gradient(prob, x))


class TestFullBatchDegeneracy:
    def test_bit_identical_to_proximal_gradient(self, quad16):
        losses, d, _, _ = quad16
        prob = build_chi2(losses, Chi2Config(gamma=10.0), dim=d)
        eta = 0.05
        iterates = []
        probe = lambda stage, t, j, x, g: iterates.append(x.copy())
        cfg = SolverConfig(eta=eta, T=10, K=1,
                          schedule=Schedule(mode="full_batch", tau=5), seed=3)
        report = solve_restarted(prob, np.zeros(d), cfg, probe=probe)

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
        losses, d, _, _ = quad16
        prob = build_chi2(losses, Chi2Config(gamma=10.0), dim=d)
        final = {}
        probe = lambda stage, t, j, x, g: final.__setitem__("x", x.copy())
        state, _ = run_epoch(prob, fresh_state(np.zeros(d), 1, d), 1,
                             Schedule(mode="full_batch", tau=6), 0.03,
                             np.random.default_rng(1), probe=probe)
        y_exact, z_exact, w_exact = batch_estimates(prob, range(prob.m), state.x_prev)
        assert np.array_equal(state.est_g_value, y_exact)
        assert np.array_equal(state.est_g_jac, z_exact)
        assert np.array_equal(state.est_h_grad, w_exact)

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
    def test_single_step_stage(self, quad16):
        losses, d, _, _ = quad16
        prob = build_chi2(losses, Chi2Config(gamma=10.0), dim=d)
        eta = 0.05
        cfg = SolverConfig(eta=eta, T=1, schedule=Schedule(mode="full_batch", tau=1))
        x_out, records = run_stage(prob, np.zeros(d), cfg, OracleCounter())
        expected = prob.r_term.prox(-eta * full_phi_gradient(prob, np.zeros(d)), eta)
        assert np.array_equal(x_out, expected)
        assert len(records) == 1

    def test_counter_matches_formula(self, quad16):
        losses, d, _, _ = quad16
        m4 = losses[:4]
        prob = build_chi2(m4, Chi2Config(gamma=10.0), dim=d)
        cfg = SolverConfig(eta=0.02, T=3, schedule=Schedule(mode="fixed_sqrt_m"), seed=2)
        counter = OracleCounter()
        run_stage(prob, np.zeros(d), cfg, counter)
        expected = expected_oracle_calls(cfg.schedule, cfg.T, 4)
        assert expected == 3 * 8
        assert counter.g_value_calls == expected
        assert counter.g_jacobian_calls == expected
        assert counter.h_gradient_calls == expected

    def test_random_output_rule_reproducible(self, quad16):
        losses, d, _, _ = quad16
        prob = build_chi2(losses, Chi2Config(gamma=10.0), dim=d)
        cfg = SolverConfig(eta=0.02, T=2, seed=9,
                          output_rule="uniform_random_iterate")
        x1, _ = run_stage(prob, np.zeros(d), cfg, OracleCounter())
        x2, _ = run_stage(prob, np.zeros(d), cfg, OracleCounter())
        assert np.array_equal(x1, x2)
        cfg_last = SolverConfig(eta=0.02, T=2, seed=9, output_rule="last_iterate")
        x3, _ = run_stage(prob, np.zeros(d), cfg_last, OracleCounter())
        # sampling draws are unaffected by the selection stream
        assert x1.shape == x3.shape


class TestSolveRestarted:
    def test_single_stage_equals_run_stage(self, quad16):
        losses, d, _, _ = quad16
        prob = build_chi2(losses, Chi2Config(gamma=10.0), dim=d)
        cfg = SolverConfig(eta=0.02, T=2, K=1, seed=4)
        report = solve_restarted(prob, np.zeros(d), cfg)
        x_direct, _ = run_stage(prob, np.zeros(d), cfg, OracleCounter(),
                                rng=np.random.default_rng(4))
        assert np.array_equal(report.final_x, x_direct)

    def test_determinism_of_full_report(self, quad16):
        losses, d, _, _ = quad16
        prob = build_chi2(losses, Chi2Config(gamma=10.0), dim=d)
        cfg = SolverConfig(eta=0.02, T=3, K=2, seed=13)
        r1 = solve_restarted(prob, np.zeros(d), cfg)
        r2 = solve_restarted(prob, np.zeros(d), cfg)
        assert np.array_equal(r1.final_x, r2.final_x)
        assert [rec.psi for rec in r1.trajectory] == [rec.psi for rec in r2.trajectory]
        assert r1.counters.as_dict() == r2.counters.as_dict()

    def test_chi2_matches_long_reference_run(self, quad16):
        losses, d, _, _ = quad16
        m8 = losses[:8]
        prob = build_chi2(m8, Chi2Config(gamma=10.0), dim=d)
        cfg = SolverConfig(eta=0.05, T=30, K=4, seed=1)
        report = solve_restarted(prob, np.zeros(d), cfg)
        x = np.zeros(d)
        for _ in range(4000):
            x = prob.r_term.prox(x - 0.05 * full_phi_gradient(prob, x), 0.05)
        assert abs(report.final_psi - evaluate_psi(prob, x)) < 1e-4

    def test_stage_errors_decrease_geometrically(self, quad16):
        losses, d, _, _ = quad16
        prob = build_chi2(losses, Chi2Config(gamma=10.0), dim=d)
        cfg = SolverConfig(eta=0.08, T=4, K=6, seed=3)
        report = solve_restarted(prob, np.zeros(d), cfg)
        x = np.zeros(d)
        for _ in range(20000):
            x = prob.r_term.prox(x - 0.05 * full_phi_gradient(prob, x), 0.05)
        psi_star = evaluate_psi(prob, x)
        errors = [evaluate_psi(prob, xs) - psi_star for xs in report.stage_outputs]
        assert all(e > 0 for e in errors)
        # monotone decrease across stages
        assert errors[-1] < errors[0] * 1e-2


class TestVarianceReduction:
    def test_late_epoch_estimator_error_shrinks(self, quad16):
        losses, d, _, _ = quad16
        prob = build_chi2(losses, Chi2Config(gamma=10.0), dim=d)
        sq_errors = {}

        def probe(stage, t, j, x, g_est):
            exact = full_phi_gradient(prob, x)
            sq_errors.setdefault(t, []).append(float(np.sum((g_est - exact) ** 2)))

        cfg = SolverConfig(eta=0.04, T=10, K=1, seed=6)
        solve_restarted(prob, np.zeros(d), cfg, probe=probe)
        first = np.mean(sq_errors[1])
        last = np.mean(sq_errors[10])
        assert last <= 0.10 * first


class TestConstrainedSolve:
    def toy(self):
        objective = SquaredNormTerm(1.0, center=np.array([2.0, 2.0]))
        cset = ConstraintSet.affine(np.eye(2), np.ones(2))
        return objective, cset

    def test_two_dim_toy_converges_to_corner(self):
        objective, cset = self.toy()
        wcfg = WassersteinConfig(alpha=2.0, K=4)
        gamma = wcfg.resolve_gamma(2)
        eta = 1.0 / (1.0 + 2.0 * 2.0**2 / (4.0 * gamma))
        cfg = SolverConfig(eta=eta, T=recommended_epochs(2, 1.0, eta), K=4, seed=0)
        report = solve_constrained_wasserstein(objective, cset, wcfg, cfg,
                                               x0=np.zeros(2))
        assert np.linalg.norm(report.final_x - np.array([1.0, 1.0])) < 1e-3
        assert report.projection_residual <= 1e-8
        assert report.counters.projection_calls == 1
        assert report.projection_gap >= -1e-12

    def test_feasible_end_point_projects_to_itself(self):
        # constraints already satisfied: projection is the identity, gap 0
        objective = SquaredNormTerm(1.0, center=np.array([-2.0, -2.0]))
        cset = ConstraintSet.affine(np.eye(2), np.ones(2))
        wcfg = WassersteinConfig(alpha=2.0, gamma=0.05)
        cfg = SolverConfig(eta=0.2, T=40, K=2, seed=1)
        report = solve_constrained_wasserstein(objective, cset, wcfg, cfg,
                                               x0=np.zeros(2))
        assert np.array_equal(report.final_x, report.x_unprojected)
        assert report.projection_gap == 0.0
        assert report.projection_iterations == 0

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
        report = solve_constrained_wasserstein(objective, cset, wcfg, cfg,
                                               x0=np.zeros(2))
        assert report.wall_time >= 0.05

    def test_alpha_condition_warning(self):
        objective, cset = self.toy()
        wcfg = WassersteinConfig(alpha=0.5, gamma=0.1)
        cfg = SolverConfig(eta=0.05, T=2, K=1, seed=0)
        spec = SmoothnessSpec(G_r=1.0, rho=1.0)
        with pytest.warns(UserWarning, match="G_r/rho"):
            solve_constrained_wasserstein(objective, cset, wcfg, cfg,
                                          x0=np.zeros(2), smoothness=spec)


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
        rep = solve_constrained_wasserstein(
            objective, cset, wcfg, cfg,
            x0=np.zeros(objective.slope.size), projection_tol=1e-6)
        assert max_violation(cset, rep.final_x) <= 1e-6
        assert rep.counters.projection_calls == 1
        # slack objective stays finite and the projection never helps it
        assert rep.projection_gap >= -1e-9

    def test_aggressive_step_raises_range_error(self):
        from drsum.problems import make_synthetic
        from drsum.reductions import NumericalRangeError, build_dr_logistic

        data = make_synthetic("two_group_bias", m=10, seed=1, min_gap=0.05)
        objective, cset = build_dr_logistic(data, eps_radius=0.1,
                                            kappa_flip=1.0)
        wcfg = WassersteinConfig(alpha=3.0, gamma=0.05)
        cfg = SolverConfig(eta=0.05, T=400, K=1, seed=0)
        with pytest.raises(NumericalRangeError):
            solve_constrained_wasserstein(
                objective, cset, wcfg, cfg,
                x0=np.zeros(objective.slope.size))
