import numpy as np
import pytest

from drsum.composite import CompositeProblem, per_index
from drsum.diagnostics import (
    baseline_solve,
    estimate_constants,
    fit_rate,
)
from drsum.reductions import Chi2Config, build_chi2, build_mean
from drsum.problems import make_synthetic
from drsum.solver import SolverConfig

from conftest import quadratic_losses


def linear_value_problem(slopes):
    """g_i(x) = a_i * x (d = 1), identity outer map, h = 0."""
    slopes = np.asarray(slopes, dtype=float)

    def g_oracle(i, x):
        return np.array([slopes[i] * x[0]]), np.array([[slopes[i]]])

    def h_oracle(i, x):
        return 0.0, np.zeros(1)

    def f_outer(u):
        return float(u[0]), np.array([1.0])

    return CompositeProblem(1, 1, slopes.size, per_index(g_oracle),
                            per_index(h_oracle), f_outer)


class TestEstimateConstants:
    def test_linear_inner_map(self):
        prob = linear_value_problem([3.0])
        est = estimate_constants(prob, num_probes=50, seed=0)
        assert est.l_g == pytest.approx(3.0, abs=1e-12)
        assert est.L_g == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_outer_derivative(self):
        # chi2 outer map u -> -u^2/(2 gamma) has |f''| = 1/gamma everywhere
        losses, d, _, _ = quadratic_losses(m=4, d=3, seed=1)
        prob = build_chi2(losses, Chi2Config(gamma=1.0), dim=d)
        est = estimate_constants(prob, num_probes=1000, seed=3)
        assert est.L_f == pytest.approx(1.0, abs=1e-12)
        # value slope sup over [ubar/2, 3 ubar/2] is 1.5 |ubar| / gamma,
        # approached from below
        ubar = np.mean([f(np.zeros(d))[0] for f in losses])
        sup = 1.5 * abs(ubar)
        assert 0.95 * sup <= est.l_f <= sup

    def test_quadratic_h_matches_spectral_bound(self):
        fam = make_synthetic("strongly_convex_quadratic", m=4, d=3, seed=5)

        def g_oracle(i, x):
            return np.zeros(1), np.zeros((1, 3))

        def f_outer(u):
            return 0.0, np.zeros(1)

        # h_i are the family's losses, read through its batch eval
        prob = CompositeProblem(3, 1, 4, per_index(g_oracle), fam.eval,
                                f_outer)
        true_L = max(float(np.linalg.norm(a) ** 2) for a in fam.A)
        est = estimate_constants(prob, num_probes=2000, seed=0)
        assert est.L_h <= true_L + 1e-9
        assert est.L_h >= 0.9 * true_L

    def test_survives_domain_restricted_outer_map(self):
        # the entropic outer map rejects nonpositive arguments; probes that
        # land there are skipped, not fatal
        from drsum.reductions import KlConfig, build_kl
        losses, d, _, _ = quadratic_losses(m=4, d=3, seed=1)
        prob = build_kl(losses, KlConfig(gamma=1.0), dim=d)
        est = estimate_constants(prob, num_probes=200, seed=0)
        assert np.isfinite(est.L_f) and est.L_f > 0

    def test_log_outer_map_probed_inside_its_domain(self):
        # ln u has |f''| = 1/u^2, whose supremum on [ubar/2, 3 ubar/2] is
        # 4/ubar^2; probes near u = 0 would report far more
        from drsum.reductions import KlConfig, build_kl
        losses, d, _, _ = quadratic_losses(m=4, d=3, seed=1)
        prob = build_kl(losses, KlConfig(gamma=1.0), dim=d)
        ubar = np.mean(prob.g_oracle(np.arange(4), np.zeros(d))[0])
        est = estimate_constants(prob, num_probes=200, seed=0)
        assert 0.0 < est.L_f <= 4.0 / ubar**2
        assert 0.0 < est.l_f <= 2.0 / ubar

    def test_monotone_in_probe_count(self):
        losses, d, _, _ = quadratic_losses(m=6, d=3, seed=2)
        prob = build_chi2(losses, Chi2Config(gamma=2.0), dim=d)
        few = estimate_constants(prob, num_probes=50, seed=9)
        many = estimate_constants(prob, num_probes=400, seed=9)
        for name in ("l_f", "L_f", "l_g", "L_g", "l_h", "L_h"):
            assert getattr(many, name) >= getattr(few, name) - 1e-15


class TestBaselines:
    def test_full_prox_gradient_converges(self):
        fam = make_synthetic("strongly_convex_quadratic", m=16, d=5, seed=7,
                             cond=3.0)
        prob = build_mean(fam)
        report = baseline_solve(prob, "full_prox_gradient",
                                SolverConfig(eta=0.2, T=500))
        assert report.trajectory[-1].grad_map_sq <= 1e-10
        assert report.counters.g_value_calls == 500 * 16

    def test_linear_outer_naive_sgd_is_unbiased(self):
        # with an affine outer map the batch plug-in estimator is unbiased:
        # the Monte-Carlo mean of the step gradient matches the full gradient
        prob = linear_value_problem([1.0, 2.0, 3.0, 4.0])
        from drsum.composite import batch_estimates, full_phi_gradient
        rng = np.random.default_rng(0)
        x = np.ones(1)
        exact = full_phi_gradient(prob, x)
        trials = 4000
        samples = np.empty(trials)
        for k in range(trials):
            idx = rng.integers(0, 4, size=2)
            y, z, w = batch_estimates(prob, idx, x)
            _, fp = prob.f_outer(y)
            samples[k] = (z.T @ fp + w)[0]
        se = samples.std(ddof=1) / np.sqrt(trials)
        assert abs(samples.mean() - exact[0]) <= 4 * se

    def test_curved_outer_naive_sgd_stalls(self):
        # correlated slopes and offsets with a curved outer map: the plug-in
        # estimator's bias leaves a gradient-mapping floor that the exact
        # loop does not have
        rng = np.random.default_rng(4)
        slopes = rng.uniform(0.5, 2.0, size=16)
        offsets = 2.0 * slopes + 0.2 * rng.standard_normal(16)

        def g_oracle(i, x):
            return (np.array([slopes[i] * x[0] + offsets[i]]),
                    np.array([[slopes[i]]]))

        def h_oracle(i, x):
            return 0.0, np.zeros(1)

        def f_outer(u):
            return float(u[0]) ** 2, np.array([2.0 * u[0]])

        prob = CompositeProblem(1, 1, 16, per_index(g_oracle),
                                per_index(h_oracle), f_outer)
        naive = baseline_solve(prob, "naive_biased_sgd",
                               SolverConfig(eta=0.05, T=400, seed=1),
                               batch_size=2)
        exact = baseline_solve(prob, "full_prox_gradient",
                               SolverConfig(eta=0.05, T=400))
        naive_floor = np.median([r.grad_map_sq for r in naive.trajectory[-100:]])
        assert exact.trajectory[-1].grad_map_sq < 1e-16
        assert naive_floor > 1e-4

    def test_naive_sgd_matches_independent_loop(self):
        # the plug-in loop written out: uniform draws with replacement from
        # the seeded stream, batch means, outer derivative, prox
        from drsum.composite import OracleCounter, batch_estimates

        rng = np.random.default_rng(4)
        slopes = rng.uniform(0.5, 2.0, size=16)
        offsets = 2.0 * slopes + 0.2 * rng.standard_normal(16)
        prob = CompositeProblem(
            1, 1, 16,
            per_index(lambda i, x: (np.array([slopes[i] * x[0] + offsets[i]]),
                                    np.array([[slopes[i]]]))),
            per_index(lambda i, x: (0.0, np.zeros(1))),
            lambda u: (float(u[0]) ** 2, np.array([2.0 * u[0]])))
        eta, seed, batch, iters = 0.05, 1, 2, 25
        stream = np.random.default_rng(seed)
        counter = OracleCounter()
        x = np.zeros(1)
        iterates, counts = [], []
        for _ in range(iters):
            idx = stream.integers(0, prob.m, size=batch)
            y, z, w = batch_estimates(prob, idx, x, counter)
            _, fprime = prob.f_outer(y)
            counter.f_outer_calls += 1
            x = prob.r_term.prox(x - eta * (z.T @ fprime + w), eta)
            counter.prox_calls += 1
            iterates.append(x)
            counts.append(counter.copy())
        for k in range(1, iters + 1):
            report = baseline_solve(prob, "naive_biased_sgd",
                                    SolverConfig(eta=eta, T=k, seed=seed),
                                    batch_size=batch)
            assert np.array_equal(report.final_x, iterates[k - 1])
            assert report.counters == counts[k - 1]
        assert [(r.g_calls, r.h_calls) for r in report.trajectory] == \
            [(c.g_value_calls, c.h_gradient_calls) for c in counts]
        # K = 5 stages of T = 5: one long run read at its stage ends
        staged = baseline_solve(prob, "naive_biased_sgd",
                                SolverConfig(eta=eta, T=5, K=5, seed=seed),
                                batch_size=batch)
        for k, x in enumerate(staged.stage_outputs, start=1):
            assert np.array_equal(x, iterates[5 * k - 1])
        assert [(r.stage, r.epoch, r.step) for r in staged.trajectory] == \
            [(k, i, 0) for k in range(1, 6) for i in range(1, 6)]
        assert [(r.g_calls, r.h_calls) for r in staged.trajectory] == \
            [(c.g_value_calls, c.h_gradient_calls) for c in counts]

    def test_validation(self):
        prob = linear_value_problem([1.0])
        with pytest.raises(ValueError):
            baseline_solve(prob, "annealing", SolverConfig(eta=0.1, T=10))
        with pytest.raises(ValueError):
            baseline_solve(prob, "full_prox_gradient", SolverConfig(eta=0.1, T=0))
        with pytest.raises(ValueError):
            baseline_solve(prob, "full_prox_gradient", SolverConfig(eta=0.0, T=10))


class TestFitRate:
    def test_exact_geometric_sequence(self):
        fit = fit_rate([1.0, 0.1, 0.01])
        assert fit.slope == pytest.approx(-np.log(10.0), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)

    def test_constant_sequence(self):
        fit = fit_rate([0.5, 0.5, 0.5, 0.5])
        assert fit.slope == pytest.approx(0.0, abs=1e-15)
        assert fit.r_squared == pytest.approx(1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_rate([1.0, 0.0, 0.1])
        with pytest.raises(ValueError):
            fit_rate([1.0])
