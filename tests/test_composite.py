from dataclasses import replace

import numpy as np
import pytest

from drsum.composite import (
    CompositeProblem,
    OracleCounter,
    check_jacobians,
    evaluate_psi,
    full_phi_gradient,
    gradient_mapping,
    per_index,
)
from drsum.proxlib import BoxTerm, ZeroTerm


def make_linear_quadratic(seed=0, d=3, p=2, m=4):
    """g_i linear, h_i quadratic, f quadratic: every piece hand-differentiable."""
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((m, p, d))
    offs = rng.standard_normal((m, p))
    quads = rng.standard_normal((m, d, d))
    quads = 0.5 * (quads + np.transpose(quads, (0, 2, 1)))
    b = rng.standard_normal(p)

    def g_oracle(i, x):
        return mats[i] @ x + offs[i], mats[i]

    def h_oracle(i, x):
        return 0.5 * float(x @ quads[i] @ x), quads[i] @ x

    def f_outer(u):
        return 0.5 * float(u @ u) + float(b @ u), u + b

    return CompositeProblem(dim_x=d, dim_g=p, m=m,
                            g_oracle=per_index(g_oracle),
                            h_oracle=per_index(h_oracle), f_outer=f_outer)


def scalar_problem(phi="half_sq", r_term=None):
    """Tiny m=1 composites for the hand-checked gradient-mapping cases."""
    if phi == "half_sq":
        # Phi(x) = 0.5 ||x||^2 via h; g inert
        def h_oracle(i, x):
            return 0.5 * float(x @ x), x.copy()
    elif phi == "linear":
        def h_oracle(i, x):
            return float(np.sum(x)), np.ones_like(x)
    else:
        raise ValueError(phi)

    def g_oracle(i, x):
        return np.zeros(1), np.zeros((1, x.size))

    def f_outer(u):
        return 0.0, np.zeros(1)

    dim = 2 if phi == "half_sq" else 1
    return CompositeProblem(dim_x=dim, dim_g=1, m=1,
                            g_oracle=per_index(g_oracle),
                            h_oracle=per_index(h_oracle), f_outer=f_outer,
                            r_term=r_term or ZeroTerm())


class TestFullGradient:
    def test_single_component_chain_rule(self):
        # g(x) = x, f(u) = u^2/2, h = 0 at x = 3 -> gradient 3
        def g_oracle(i, x):
            return x.copy(), np.ones((1, 1))

        def h_oracle(i, x):
            return 0.0, np.zeros(1)

        def f_outer(u):
            return 0.5 * float(u[0]) ** 2, u.copy()

        prob = CompositeProblem(1, 1, 1, per_index(g_oracle),
                                per_index(h_oracle), f_outer)
        grad = full_phi_gradient(prob, np.array([3.0]))
        assert grad == pytest.approx(np.array([3.0]))

    def test_identity_outer_collapses_to_mean(self):
        rng = np.random.default_rng(1)
        slopes = rng.standard_normal((5, 4))

        def g_oracle(i, x):
            return np.array([float(slopes[i] @ x)]), slopes[i].reshape(1, -1)

        def h_oracle(i, x):
            return 0.0, np.zeros(4)

        def f_outer(u):
            return float(u[0]), np.array([1.0])

        prob = CompositeProblem(4, 1, 5, per_index(g_oracle),
                                per_index(h_oracle), f_outer)
        grad = full_phi_gradient(prob, rng.standard_normal(4))
        assert np.allclose(grad, slopes.mean(axis=0), atol=1e-12)

    def test_matches_finite_differences(self):
        prob = make_linear_quadratic(seed=3)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(prob.dim_x)
        grad = full_phi_gradient(prob, x)

        step = 1e-6 * (1.0 + np.max(np.abs(x)))
        fd = np.zeros_like(x)
        for k in range(x.size):
            e = np.zeros_like(x)
            e[k] = step
            fd[k] = (evaluate_psi(prob, x + e) - evaluate_psi(prob, x - e)) / (2 * step)
        assert np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(fd)) < 1e-5

    def test_counter_incremented_m_per_family(self):
        prob = make_linear_quadratic()
        counter = OracleCounter()
        full_phi_gradient(prob, np.zeros(prob.dim_x), counter)
        assert counter.g_value_calls == prob.m
        assert counter.h_gradient_calls == prob.m
        assert counter.f_outer_calls == 1


class TestGradientMapping:
    def test_reduces_to_gradient_without_r(self):
        prob = scalar_problem("half_sq")
        vec, sq = gradient_mapping(prob, 0.5, np.array([2.0, 0.0]))
        assert np.allclose(vec, [2.0, 0.0])
        assert sq == pytest.approx(4.0)

    def test_zero_at_stationary_point(self):
        prob = scalar_problem("half_sq")
        vec, sq = gradient_mapping(prob, 0.5, np.zeros(2))
        assert sq == 0.0

    def test_halfline_prox_clamps(self):
        # Phi(x) = x on d=1 with r = indicator of [0, inf): at x=0 the
        # prox clamps 0 - eta back to 0, so the mapping vanishes.
        prob = scalar_problem("linear", r_term=BoxTerm(lo=[0.0], hi=[np.inf]))
        vec, sq = gradient_mapping(prob, 1.0, np.array([0.0]))
        assert np.allclose(vec, [0.0])
        assert sq == 0.0

    def test_zero_iff_prox_fixed_point(self):
        prob = scalar_problem("half_sq", r_term=BoxTerm(lo=[1.0, 1.0], hi=[2.0, 2.0]))
        # x = (1, 1) is the constrained minimizer of 0.5||x||^2 over the box
        vec, sq = gradient_mapping(prob, 0.3, np.array([1.0, 1.0]))
        assert sq == pytest.approx(0.0, abs=1e-24)
        # interior non-stationary point is not a fixed point
        _, sq2 = gradient_mapping(prob, 0.3, np.array([1.5, 1.5]))
        assert sq2 > 1e-6

    def test_rejects_nonpositive_eta(self):
        with pytest.raises(ValueError):
            gradient_mapping(scalar_problem("half_sq"), 0.0, np.zeros(2))


class TestCheckJacobians:
    def test_passes_on_consistent_problem(self):
        report = check_jacobians(make_linear_quadratic(), num_probes=15, seed=2)
        assert report.max_rel_error <= 1e-5

    def test_reports_instead_of_aborting_on_outer_domain_errors(self):
        # losses pushed deeply negative drive the entropic inner values
        # toward zero; finite-difference probes of ln(u) can cross zero and
        # must be skipped, not raised
        from drsum.reductions import KlConfig, build_kl

        def loss(x):
            return -25.0 + float(x[0]), np.array([1.0])

        prob = build_kl([loss, loss], KlConfig(gamma=1.0), dim=1)
        report = check_jacobians(prob, num_probes=20, seed=0)
        assert report.max_rel_error_g <= 1e-5

    def test_detects_wrong_jacobian(self):
        prob = make_linear_quadratic()
        good_g = prob.g_oracle

        def bad_g(idx, x):
            val, jac = good_g(idx, x)
            return val, jac * 1.5

        broken = CompositeProblem(prob.dim_x, prob.dim_g, prob.m, bad_g,
                                  prob.h_oracle, prob.f_outer)
        report = check_jacobians(broken, num_probes=10, seed=2)
        assert report.max_rel_error_g > 1e-2


    @staticmethod
    def robust_logistic_stage():
        """The stage-1 compiled problem of configs/robust_logistic.ini."""
        from pathlib import Path

        from drsum.cli import Experiment, load_config
        from drsum.reductions import wasserstein_stages

        exp = Experiment(load_config(Path(__file__).resolve().parents[1]
                                     / "configs" / "robust_logistic.ini"))
        x0 = exp.x0()
        return wasserstein_stages(exp.objective, exp.constraints, exp.wcfg,
                                  x0.size)(1, x0)

    @pytest.mark.parametrize("scale, seed", [(0.1, 0), (1.0, 0), (1.0, 4),
                                             (1.0, 28)])
    def test_wasserstein_log_near_zero(self, scale, seed):
        # at scale 0.1 (seed 0) a probe reads u = 1.17e-6, where an
        # absolute step of 1e-6 (1 + |u|) misread the log's derivative by
        # 33% (by 44% and 38% on seeds 4 and 28 at scale 1.0); at scale
        # 1.0 probes also read u far below the penalty's constant term,
        # where a step of 1e-6 |u| alone is lost in rounding
        report = check_jacobians(self.robust_logistic_stage(), seed=seed,
                                 scale=scale)
        assert 0.0 < report.max_rel_error_f <= 1e-5

    @pytest.mark.parametrize("scale", [0.1, 1.0])
    def test_detects_wrong_outer_derivative(self, scale):
        prob = self.robust_logistic_stage()
        good_f = prob.f_outer

        def bad_f(u):
            val, deriv = good_f(u)
            return val, 1.5 * deriv

        report = check_jacobians(replace(prob, f_outer=bad_f), seed=0,
                                 scale=scale)
        assert report.max_rel_error_f > 1e-2

    def test_misshaped_g_jacobian_is_a_failed_probe(self):
        # p = 2: a (d,) jacobian cannot be the (p, d) one, and the checker
        # reports it instead of raising
        prob = make_linear_quadratic()
        good_g = prob.g_oracle

        def flat_g(idx, x):
            val, jac = good_g(idx, x)
            return val, jac[:, 0]

        broken = CompositeProblem(prob.dim_x, prob.dim_g, prob.m, flat_g,
                                  prob.h_oracle, prob.f_outer)
        report = check_jacobians(broken, num_probes=5, seed=2)
        assert report.max_rel_error_g == np.inf
        assert report.max_rel_error_h <= 1e-5

    @pytest.mark.parametrize("fault, want", [(np.nan, np.inf), (np.inf, 0.0)],
                             ids=["nan", "inf"])
    def test_non_finite_g_jacobian(self, fault, want):
        # a NaN jacobian is a failed probe; an infinite one is beyond the
        # float range, and its probe is skipped
        prob = make_linear_quadratic()
        good_g = prob.g_oracle

        def bad_g(idx, x):
            val, jac = good_g(idx, x)
            return val, jac * fault

        report = check_jacobians(replace(prob, g_oracle=bad_g),
                                 num_probes=5, seed=2)
        assert report.max_rel_error_g == want
        assert report.max_rel_error_h <= 1e-5

    def test_probe_beyond_the_float_range_is_skipped(self):
        # seed 3 at scale 1 reads one row where exp(alpha c / gamma - shift)
        # nears 1e304 and its jacobian row overflows; the other 24 probes
        # pass, as does `drsum check` on this config
        report = check_jacobians(self.robust_logistic_stage(), num_probes=25,
                                 seed=3)
        assert report.max_rel_error <= 1e-5

def test_counters_monotone_and_copy():
    prob = make_linear_quadratic()
    counter = OracleCounter()
    snaps = []
    for _ in range(3):
        full_phi_gradient(prob, np.zeros(prob.dim_x), counter)
        snaps.append(counter.copy())
    values = [s.g_value_calls for s in snaps]
    assert values == sorted(values)
    assert snaps[-1].as_dict()["g_value_calls"] == 3 * prob.m


class TestBatchCalls:
    """Each estimator helper calls each oracle field once per point on the
    whole batch, never row by row, and charges one call per row."""

    @staticmethod
    def recorded(problem):
        """The problem with g_oracle / h_oracle logging each call's rows."""
        log = {"g": [], "h": []}

        def logged(name, oracle):
            def wrapped(idx, x):
                log[name].append(len(idx))
                return oracle(idx, x)
            return wrapped

        return replace(problem, g_oracle=logged("g", problem.g_oracle),
                       h_oracle=logged("h", problem.h_oracle)), log

    def test_each_field_once_per_point_per_batch(self, monkeypatch):
        from drsum.composite import batch_estimates, delta_update
        from drsum.problems import QuadraticLosses, make_synthetic
        from drsum.reductions import Chi2Config, build_chi2

        family_calls = []
        original = QuadraticLosses.eval

        def eval_logged(self, idx, x):
            family_calls.append(len(idx))
            return original(self, idx, x)

        # patched before the build, which binds the family's eval
        monkeypatch.setattr(QuadraticLosses, "eval", eval_logged)
        family = make_synthetic("strongly_convex_quadratic", m=16, d=5, seed=7)
        prob, log = self.recorded(build_chi2(family, Chi2Config(gamma=10.0)))
        idx = np.array([3, 3, 0, 15, 7])
        x_old, x_new = np.zeros(5), np.ones(5)
        counter = OracleCounter()

        y, z, w = batch_estimates(prob, idx, x_old, counter)
        assert log == {"g": [5], "h": [5]}
        assert counter == OracleCounter(5, 5)
        delta_update(prob, idx, x_new, x_old, y, z, w, counter)
        assert log == {"g": [5, 5, 5], "h": [5, 5, 5]}
        assert counter == OracleCounter(15, 15)
        full_phi_gradient(prob, x_new, counter)
        assert log == {"g": [5, 5, 5, 16], "h": [5, 5, 5, 16]}
        assert counter == OracleCounter(31, 31, 1)
        # chi2's g and h each read the family once per call
        assert family_calls == [5, 5, 5, 5, 5, 5, 16, 16]

    def test_solve_calls_each_field_once_per_batch(self):
        # m = 16: tau = S = 4, B = 16; per epoch one opening call and two
        # calls (one per point) at each of the tau - 1 corrections
        from drsum.problems import make_synthetic
        from drsum.reductions import Chi2Config, build_chi2
        from drsum.solver import SolverConfig, expected_oracle_calls, \
            solve_restarted

        family = make_synthetic("strongly_convex_quadratic", m=16, d=5, seed=7)
        prob, log = self.recorded(build_chi2(family, Chi2Config(gamma=10.0)))
        cfg = SolverConfig(eta=0.02, T=3, K=2, seed=3, grad_map_every=-1)
        report = solve_restarted(prob, np.zeros(5), cfg)
        per_epoch = [16] + [4] * 6
        assert log["g"] == log["h"] == per_epoch * 6
        assert report.counters.g_value_calls == sum(log["g"]) == \
            expected_oracle_calls(cfg.schedule, 3, 16, 2)

    def test_segments_reduce_each_segment_in_one_call(self):
        from drsum.composite import batch_estimates, delta_update

        prob, log = self.recorded(make_linear_quadratic(m=6))
        idx = np.array([0, 5, 5, 2, 3, 1])
        lengths = [2, 1, 3]
        pieces = np.split(idx, [2, 3])
        x_old, x_new = np.zeros(3), np.ones(3)
        counters = [OracleCounter(), None, OracleCounter()]

        opened = batch_estimates(prob, idx, x_old, counters,
                                 segments=lengths)
        corrected = delta_update(prob, idx, x_new, x_old, *zip(*opened),
                                 counters, segments=lengths)
        assert log == {"g": [6, 6, 6], "h": [6, 6, 6]}
        assert counters[0] == OracleCounter(6, 6)
        assert counters[2] == OracleCounter(9, 9)

        def same(a, b):
            return all(u.tobytes() == v.tobytes() for u, v in zip(a, b))

        for rows, start, end in zip(pieces, opened, corrected):
            assert same(start, batch_estimates(prob, rows, x_old))
            assert same(end, delta_update(prob, rows, x_new, x_old, *start))

    @pytest.mark.parametrize("lengths", [[2, 3], [2, 1, 4], [3, 0, 3]],
                             ids=["short", "long", "empty_segment"])
    def test_segments_must_tile_the_batch(self, lengths):
        from drsum.composite import batch_estimates, delta_update

        prob = make_linear_quadratic(m=6)
        idx = np.arange(6)
        x = np.zeros(3)
        counters = [None] * len(lengths)
        with pytest.raises(ValueError, match="segment"):
            batch_estimates(prob, idx, x, counters, segments=lengths)
        ests = [(np.zeros(2), np.zeros((2, 3)), np.zeros(3))] * len(lengths)
        with pytest.raises(ValueError, match="segment"):
            delta_update(prob, idx, x, x, *zip(*ests), counters,
                         segments=lengths)
