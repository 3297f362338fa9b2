from dataclasses import replace

import numpy as np
import pytest

from drsum.composite import (
    OracleCounter,
    at_index,
    check_jacobians,
    evaluate_psi,
    full_phi_gradient,
)
from drsum.constraints import ConstraintSet
from drsum.proxlib import SquaredNormTerm
from drsum.reductions import (
    Chi2Config,
    KlConfig,
    NumericalRangeError,
    WassersteinConfig,
    brute_force_penalized_max,
    build_chi2,
    build_dr_logistic,
    build_kl,
    build_mean,
    build_wasserstein,
    chi2_worst_case_weights,
    convexify_constraints,
    kl_worst_case_weights,
    restart_gamma,
    wasserstein_penalty,
)


def affine_losses(consts, slopes=None):
    """f_i(x) = c_i + <a_i, x> as plain loss oracles."""
    consts = np.asarray(consts, dtype=float)
    if slopes is None:
        slopes = np.zeros((consts.size, 1))
    slopes = np.asarray(slopes, dtype=float)

    def make(i):
        def f(x):
            return consts[i] + float(slopes[i] @ x), slopes[i].copy()
        return f

    return [make(i) for i in range(consts.size)], slopes.shape[1]


class TestChi2:
    def test_single_constant_loss(self):
        losses, d = affine_losses([3.7])
        prob = build_chi2(losses, Chi2Config(gamma=2.0), dim=d)
        assert evaluate_psi(prob, np.zeros(d)) == pytest.approx(3.7)

    def test_equal_losses_no_penalty(self):
        losses, d = affine_losses([1.3, 1.3, 1.3])
        prob = build_chi2(losses, Chi2Config(gamma=0.5), dim=d)
        assert evaluate_psi(prob, np.zeros(d)) == pytest.approx(1.3)

    def test_two_point_value_against_brute_force(self):
        losses, d = affine_losses([0.0, 1.0])
        prob = build_chi2(losses, Chi2Config(gamma=1.0), dim=d)
        psi = evaluate_psi(prob, np.zeros(d))
        assert psi == pytest.approx(0.625, abs=1e-12)
        oracle = brute_force_penalized_max([0.0, 1.0], "chi2", 1.0)
        assert psi == pytest.approx(oracle, abs=1e-8)

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            Chi2Config(gamma=0.0)

    def test_equivalence_interior_regime(self):
        # values in [0,1] and gamma >= 2 keep the closed form on the simplex
        rng = np.random.default_rng(11)
        for _ in range(25):
            m = int(rng.integers(1, 6))
            values = rng.uniform(0.0, 1.0, size=m)
            gamma = float(rng.uniform(2.0, 6.0))
            losses, d = affine_losses(values)
            prob = build_chi2(losses, Chi2Config(gamma=gamma), dim=d)
            psi = evaluate_psi(prob, np.zeros(d))
            oracle = brute_force_penalized_max(values, "chi2", gamma)
            assert abs(psi - oracle) < 1e-6

    def test_jacobians_of_built_problem(self):
        rng = np.random.default_rng(5)
        losses, d = affine_losses(rng.uniform(0, 1, 4), rng.standard_normal((4, 3)))
        prob = build_chi2(losses, Chi2Config(gamma=2.0), dim=d)
        assert check_jacobians(prob, num_probes=10, seed=1).max_rel_error < 1e-5


class TestChi2Weights:
    def test_equal_losses_uniform(self):
        w = chi2_worst_case_weights(np.full(4, 2.0), gamma=1.0)
        assert w.feasible
        assert np.allclose(w.p, 0.25)

    def test_interior_closed_form(self):
        w = chi2_worst_case_weights([0.0, 1.0], gamma=1.0)
        assert w.feasible
        assert np.allclose(w.p, [0.25, 0.75])

    def test_clipped_when_outside_simplex(self):
        w = chi2_worst_case_weights([0.0, 10.0], gamma=1.0)
        assert not w.feasible
        assert np.allclose(w.p, [0.0, 1.0])
        # constrained brute-force optimum agrees with the clipped vertex
        val = brute_force_penalized_max([0.0, 10.0], "chi2", 1.0)
        assert val == pytest.approx(9.5, abs=1e-8)

    def test_weights_always_on_simplex(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            m = int(rng.integers(1, 8))
            values = rng.normal(0, 5, size=m)
            gamma = float(rng.uniform(0.05, 3.0))
            w = chi2_worst_case_weights(values, gamma)
            assert np.all(w.p >= -1e-15)
            assert np.sum(w.p) == pytest.approx(1.0, abs=1e-12)
            raw = ((values - np.mean(values)) / gamma + 1.0) / m
            inside = bool(np.all(raw >= -1e-12) and np.all(raw <= 1 + 1e-12))
            assert w.feasible == inside

    def test_feasible_weights_reproduce_objective(self):
        # plugging the extracted weights into the penalized inner objective
        # recovers the built composite value
        rng = np.random.default_rng(9)
        for _ in range(50):
            m = int(rng.integers(2, 6))
            values = rng.uniform(0, 1, size=m)
            gamma = float(rng.uniform(2.0, 5.0))
            w = chi2_worst_case_weights(values, gamma)
            assert w.feasible
            inner = float(w.p @ values) - gamma * (m / 2.0) * float(
                np.sum((w.p - 1.0 / m) ** 2))
            losses, d = affine_losses(values)
            prob = build_chi2(losses, Chi2Config(gamma=gamma), dim=d)
            assert abs(inner - evaluate_psi(prob, np.zeros(d))) < 1e-10


class TestKl:
    def test_equal_losses(self):
        losses, d = affine_losses([0.7, 0.7, 0.7])
        prob = build_kl(losses, KlConfig(gamma=1.0), dim=d)
        assert evaluate_psi(prob, np.zeros(d)) == pytest.approx(0.7)

    def test_single_term(self):
        losses, d = affine_losses([1.2])
        prob = build_kl(losses, KlConfig(gamma=0.5), dim=d)
        assert evaluate_psi(prob, np.zeros(d)) == pytest.approx(1.2 / 0.5)

    def test_two_point_value(self):
        losses, d = affine_losses([0.0, np.log(4.0)])
        prob = build_kl(losses, KlConfig(gamma=1.0), dim=d)
        psi = evaluate_psi(prob, np.zeros(d))
        assert psi == pytest.approx(np.log(2.5), abs=1e-12)
        # gamma*Psi + gamma*ln m equals the exact penalized maximum
        oracle = brute_force_penalized_max([0.0, np.log(4.0)], "kl", 1.0)
        assert psi + np.log(2.0) == pytest.approx(oracle, abs=1e-8)

    def test_equivalence_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            m = int(rng.integers(1, 7))
            values = rng.uniform(0.0, 1.0, size=m)
            gamma = float(rng.uniform(0.4, 3.0))
            losses, d = affine_losses(values)
            prob = build_kl(losses, KlConfig(gamma=gamma), dim=d)
            psi = evaluate_psi(prob, np.zeros(d))
            oracle = brute_force_penalized_max(values, "kl", gamma)
            assert abs(gamma * psi + gamma * np.log(m) - oracle) < 1e-8

    def test_shift_anchor_keeps_value(self):
        losses, d = affine_losses([200.0, 190.0])
        prob = build_kl(losses, KlConfig(gamma=0.5), dim=d,
                        shift_anchor=np.zeros(d))
        assert evaluate_psi(prob, np.zeros(d)) == pytest.approx(
            np.log(0.5 * (np.exp(0.0) + np.exp(-20.0))) + 400.0)

    def test_overflow_without_anchor_raises(self):
        losses, d = affine_losses([500.0, 490.0])
        prob = build_kl(losses, KlConfig(gamma=0.5), dim=d)
        with pytest.raises(NumericalRangeError):
            evaluate_psi(prob, np.zeros(d))

    def test_outer_domain_error_is_typed(self):
        from drsum import OuterDomainError

        losses, d = affine_losses([0.0])
        kl = build_kl(losses, KlConfig(gamma=1.0), dim=d)
        wasserstein = build_wasserstein(
            SquaredNormTerm(1.0), ConstraintSet.affine(np.eye(1), np.zeros(1)),
            WassersteinConfig(alpha=1.0, gamma=1.0), dim=1)
        # the Wasserstein log argument is 1 + m u
        for prob, u in ((kl, 0.0), (kl, -1.0), (wasserstein, -2.0)):
            with pytest.raises(OuterDomainError, match="is non-positive"):
                prob.f_outer(np.array([u]))
        assert issubclass(OuterDomainError, NumericalRangeError)

    def test_anchor_handles_deeply_negative_losses(self):
        # every exponential underflows without the (negative) shift
        losses, d = affine_losses([-400.0, -405.0])
        prob = build_kl(losses, KlConfig(gamma=0.5), dim=d,
                        shift_anchor=np.zeros(d))
        expected = np.log(0.5 * (1.0 + np.exp(-10.0))) - 800.0
        assert evaluate_psi(prob, np.zeros(d)) == pytest.approx(expected, rel=1e-12)


class TestKlWeights:
    def test_uniform_for_equal_losses(self):
        w = kl_worst_case_weights(np.full(5, 1.1), gamma=2.0)
        assert np.allclose(w.p, 0.2)
        assert w.feasible

    def test_softmax_against_grid_search(self):
        values = np.array([0.0, np.log(4.0)])
        w = kl_worst_case_weights(values, gamma=1.0)
        assert np.allclose(w.p, [0.2, 0.8], atol=1e-12)
        q = np.linspace(1e-9, 1 - 1e-9, 200_001)
        inner = q * values[0] + (1 - q) * values[1] - 1.0 * (
            q * np.log(q) + (1 - q) * np.log(1 - q))
        assert abs(q[np.argmax(inner)] - 0.2) < 1e-4

    def test_high_temperature_limit(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(-3, 3, size=6)
        w = kl_worst_case_weights(values, gamma=1e6)
        assert np.max(np.abs(w.p - 1.0 / 6.0)) < 1e-5


class TestWassersteinPenalty:
    def test_deep_feasible_vanishes(self):
        assert wasserstein_penalty([-100.0], alpha=1.0, gamma=0.1) < 1e-12

    def test_single_active_constraint(self):
        assert wasserstein_penalty([0.0], 1.0, 1.0) == pytest.approx(np.log(2.0))

    def test_two_constraint_value_and_sandwich(self):
        pen = wasserstein_penalty([1.0, 0.5], alpha=2.0, gamma=0.5)
        expected = 0.5 * np.log(1.0 + np.exp(4.0) + np.exp(2.0))
        assert pen == pytest.approx(expected, abs=1e-12)
        assert 2.0 <= pen <= 2.0 + 0.5 * np.log(3.0)

    def test_sandwich_property(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            m = int(rng.integers(1, 9))
            vals = rng.uniform(-50, 50, size=m)
            alpha = float(rng.uniform(0.05, 10.0))
            gamma = float(rng.uniform(0.01, 10.0))
            pen = wasserstein_penalty(vals, alpha, gamma)
            lo = max(0.0, alpha * float(np.max(vals)))
            assert lo - 1e-9 <= pen <= lo + gamma * np.log(m + 1) + 1e-9


class TestBuildWasserstein:
    def setup_method(self):
        self.cset = ConstraintSet.affine(np.eye(2), np.array([1.0, 1.0]))
        self.objective = SquaredNormTerm(1.0, center=np.array([2.0, 2.0]))

    def test_composite_matches_penalty(self):
        cfg = WassersteinConfig(alpha=2.0, gamma=0.5)
        prob = build_wasserstein(self.objective, self.cset, cfg, dim=2)
        x = np.array([2.0, 1.5])
        pen = wasserstein_penalty(self.cset.values(x), 2.0, 0.5)
        expected = self.objective.value(x) + pen - 0.5 * np.log(3.0)
        assert evaluate_psi(prob, x) == pytest.approx(expected, abs=1e-12)

    def test_shift_anchor_preserves_value_and_gradient(self):
        cfg = WassersteinConfig(alpha=2.0, gamma=0.01)
        x = np.array([1.4, 0.2])
        anchored = build_wasserstein(self.objective, self.cset, cfg, dim=2,
                                     shift_anchor=x)
        plain_pen = wasserstein_penalty(self.cset.values(x), 2.0, 0.01)
        expected = self.objective.value(x) + plain_pen - 0.01 * np.log(3.0)
        assert evaluate_psi(anchored, x) == pytest.approx(expected, rel=1e-12)
        # full_phi_gradient covers the smooth part only: difference out the
        # prox-slot objective before comparing against finite differences
        grad = full_phi_gradient(anchored, x)
        step = 1e-7
        fd = np.zeros(2)

        def phi(v):
            return evaluate_psi(anchored, v) - self.objective.value(v)

        for k in range(2):
            e = np.zeros(2)
            e[k] = step
            fd[k] = (phi(x + e) - phi(x - e)) / (2 * step)
        assert np.allclose(grad, fd, rtol=1e-4, atol=1e-8)

    def test_anchored_build_survives_huge_exponents(self):
        # alpha*c/gamma around 1e4: raw exponentials overflow, anchored do not
        cfg = WassersteinConfig(alpha=1.0, gamma=1e-4)
        x = np.array([2.0, 2.0])  # constraint values (1, 1) -> exponents 1e4
        prob = build_wasserstein(self.objective, self.cset, cfg, dim=2,
                                 shift_anchor=x)
        psi = evaluate_psi(prob, x)
        pen = wasserstein_penalty(self.cset.values(x), 1.0, 1e-4)
        assert psi == pytest.approx(self.objective.value(x) + pen - 1e-4 * np.log(3.0),
                                    rel=1e-10)

    def test_overflow_despite_shift_raises(self):
        cfg = WassersteinConfig(alpha=1.0, gamma=1e-4)
        prob = build_wasserstein(self.objective, self.cset, cfg, dim=2,
                                 shift_anchor=np.array([0.0, 0.0]))
        with pytest.raises(NumericalRangeError):
            evaluate_psi(prob, np.array([2.0, 2.0]))

    def test_gamma_from_restart_count(self):
        assert restart_gamma(4, 2) == pytest.approx(np.exp(-4.0) / np.log(3.0))
        with pytest.raises(ValueError):
            restart_gamma(0, 2)


class TestDrLogistic:
    def test_dimension_bookkeeping(self):
        Z = np.array([[1.0, 0.0]])
        y = np.array([1.0])
        objective, cset = build_dr_logistic((Z, y), eps_radius=0.1, kappa_flip=1.0)
        assert objective.slope.size == 2 + 1 + 1
        assert cset.m == 3

    def test_loss_at_zero_model(self):
        Z = np.array([[0.5, -0.2]])
        y = np.array([-1.0])
        _, cset = build_dr_logistic((Z, y), eps_radius=0.1, kappa_flip=1.0)
        x = np.zeros(4)  # beta = 0, lam = 0, s = 0
        val, _ = at_index(cset.eval, 0, x)
        assert val == pytest.approx(np.log(2.0))

    def test_hand_evaluated_constraints(self):
        Z = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.array([1.0, -1.0])
        objective, cset = build_dr_logistic((Z, y), eps_radius=0.1, kappa_flip=1.0)
        x = np.array([1.0, 1.0, 2.0, 1.0, 1.0])  # beta=(1,1), lam=2, s=(1,1)
        vals = cset.values(x)
        expected = np.array([
            np.log(1 + np.exp(-1.0)) - 1.0,
            np.log(1 + np.exp(1.0)) - 1.0,
            np.log(1 + np.exp(1.0)) - 2.0 - 1.0,
            np.log(1 + np.exp(-1.0)) - 2.0 - 1.0,
            np.sqrt(2.0) - 2.0,
        ])
        assert np.allclose(vals, expected, atol=1e-12)
        assert vals[0] == pytest.approx(-0.6867, abs=1e-4)
        # objective value lam*eps + mean(s)
        assert objective.value(x) == pytest.approx(2.0 * 0.1 + 1.0)

    def test_constraint_gradients_match_fd(self):
        rng = np.random.default_rng(4)
        Z = rng.standard_normal((3, 2))
        y = np.array([1.0, -1.0, 1.0])
        _, cset = build_dr_logistic((Z, y), eps_radius=0.2, kappa_flip=0.7)
        x = rng.standard_normal(2 + 1 + 3)
        x[2] = abs(x[2]) + 1.0  # keep lam away from the norm-cone kink
        for i in range(cset.m):
            val, grad = at_index(cset.eval, i, x)
            fd = np.zeros_like(x)
            for k in range(x.size):
                e = np.zeros_like(x)
                e[k] = 1e-6
                fd[k] = (at_index(cset.eval, i, x + e)[0]
                         - at_index(cset.eval, i, x - e)[0]) / 2e-6
            assert np.allclose(grad, fd, atol=1e-5)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            build_dr_logistic((np.zeros((0, 2)), np.zeros(0)), 0.1, 1.0)


class TestConvexify:
    def base_set(self):
        return ConstraintSet.from_functions(
            [lambda x: (-float(x[0]) ** 2, np.array([-2.0 * x[0]]))])

    def test_zero_shift_is_identity(self):
        cset = self.base_set()
        out = convexify_constraints(cset, [0.0])
        x = np.array([1.7])
        for a, b in zip(out.eval([0], x), cset.eval([0], x)):
            assert np.array_equal(a, b)

    def test_symbolic_sum(self):
        out = convexify_constraints(self.base_set(), [2.0])
        val, grad = at_index(out.eval, 0, np.array([3.0]))
        assert val == pytest.approx(9.0)
        assert grad[0] == pytest.approx(6.0)

    def test_shift_vanishes_at_origin(self):
        cset = self.base_set()
        out = convexify_constraints(cset, [5.0])
        assert at_index(out.eval, 0, np.zeros(1))[0] == \
            at_index(cset.eval, 0, np.zeros(1))[0]

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError):
            convexify_constraints(self.base_set(), [-1.0])


class TestBruteForce:
    def test_chi2_interior(self):
        assert brute_force_penalized_max([0.0, 1.0], "chi2", 1.0) == pytest.approx(
            0.625, abs=1e-8)

    def test_chi2_boundary(self):
        assert brute_force_penalized_max([0.0, 10.0], "chi2", 1.0) == pytest.approx(
            9.5, abs=1e-8)

    def test_kl_softmax_value(self):
        assert brute_force_penalized_max([0.0, np.log(4.0)], "kl", 1.0) == pytest.approx(
            np.log(5.0), abs=1e-8)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            brute_force_penalized_max(np.zeros(13), "chi2", 1.0)

    def test_unknown_divergence(self):
        with pytest.raises(ValueError):
            brute_force_penalized_max([0.0], "tv", 1.0)


def test_build_mean_is_plain_average():
    rng = np.random.default_rng(8)
    losses, d = affine_losses(rng.uniform(0, 1, 5), rng.standard_normal((5, 3)))
    prob = build_mean(losses, dim=d)
    x = rng.standard_normal(3)
    direct = np.mean([losses[i](x)[0] for i in range(5)])
    assert evaluate_psi(prob, x) == pytest.approx(direct, abs=1e-12)
    counter = OracleCounter()
    grad = full_phi_gradient(prob, x, counter)
    assert counter.g_value_calls == 5
    direct_grad = np.mean([losses[i](x)[1] for i in range(5)], axis=0)
    assert np.allclose(grad, direct_grad)


def test_chi2_psi_evaluates_each_loss_once_without_batch():
    # a plain sequence has no values(x): psi stacks the per-index eval
    # once and reads it for both g and h, not once per side
    losses, d = affine_losses([0.3, 1.1, 2.0, 0.7],
                              np.arange(8.0).reshape(4, 2))
    calls = [0] * len(losses)

    def counted(i):
        def f(x):
            calls[i] += 1
            return losses[i](x)
        return f

    prob = build_chi2([counted(i) for i in range(len(losses))],
                      Chi2Config(gamma=0.5), dim=d)
    x = np.array([0.2, -0.1])
    psi = evaluate_psi(prob, x)
    assert calls == [1] * len(losses)
    reference = build_chi2(losses, Chi2Config(gamma=0.5), dim=d)
    assert psi == evaluate_psi(replace(reference, component_values=None), x)


# -- the batch oracles pinned bit for bit to their formulas --------------

# every row once, out of order, and two rows repeated
PINNED_ROWS = np.array([5, 0, 3, 3, 1, 4, 2, 0])


def _pinned_family():
    from drsum.problems import LogisticLosses, TabularDataset

    rng = np.random.default_rng(12)
    Z = rng.standard_normal((6, 3))
    y = np.where(rng.uniform(size=6) < 0.5, 1.0, -1.0)
    return LogisticLosses(TabularDataset(features=Z, labels=y,
                                         group_ids=np.zeros(6, dtype=int)))


def _assert_oracles_equal(prob, x, g_formula, h_formula, idx=PINNED_ROWS):
    """Every g_oracle / h_oracle output over the index batch equals its
    formula, written over the same rows, exactly."""
    n, d = idx.size, x.size
    (gv, gj), (want_gv, want_gj) = prob.g_oracle(idx, x), g_formula(idx)
    (hv, hg), (want_hv, want_hg) = prob.h_oracle(idx, x), h_formula(idx)
    assert np.array_equal(gv, want_gv) and gv.shape == (n, 1)
    assert np.array_equal(gj, want_gj) and gj.shape == (n, 1, d)
    assert np.array_equal(hv, want_hv) and hv.shape == (n,)
    assert np.array_equal(hg, want_hg) and hg.shape == (n, d)


@pytest.mark.parametrize("reduction", ("chi2", "kl", "kl_anchored", "mean"))
def test_loss_oracles_bit_for_bit(reduction):
    family = _pinned_family()
    rng = np.random.default_rng(3)
    x = rng.standard_normal(family.dim)
    gamma = 0.7
    d = family.dim

    def zero_h(idx):
        return np.zeros(idx.size), np.zeros((idx.size, d))

    def g_identity(idx):
        val, grad = family.eval(idx, x)
        return val[:, None], grad[:, None, :]

    if reduction == "chi2":
        prob = build_chi2(family, Chi2Config(gamma=gamma))

        def h_formula(idx):
            val, grad = family.eval(idx, x)
            return (val + val * val / (2.0 * gamma),
                    (1.0 + val / gamma)[:, None] * grad)

        _assert_oracles_equal(prob, x, g_identity, h_formula)
    elif reduction == "mean":
        _assert_oracles_equal(build_mean(family), x, g_identity, zero_h)
    else:
        anchor = rng.standard_normal(d) if reduction == "kl_anchored" else None
        prob = build_kl(family, KlConfig(gamma=gamma), shift_anchor=anchor)
        shift = 0.0 if anchor is None else float(np.max(
            family.eval(np.arange(family.m), anchor)[0] / gamma))

        def g_formula(idx):
            val, grad = family.eval(idx, x)
            gv = np.exp(val / gamma - shift)
            return gv[:, None], ((gv / gamma)[:, None] * grad)[:, None, :]

        _assert_oracles_equal(prob, x, g_formula, zero_h)


@pytest.mark.parametrize("objective_kind", ("simple", "smooth"))
def test_wasserstein_oracles_bit_for_bit(objective_kind):
    from drsum.problems import MeanLossObjective

    family = _pinned_family()
    d = family.dim
    rng = np.random.default_rng(4)
    cset = convexify_constraints(
        ConstraintSet.affine(rng.standard_normal((5, d)),
                             rng.standard_normal(5)),
        rng.uniform(0.0, 1.0, size=5))
    x, anchor = rng.standard_normal(d), rng.standard_normal(d)
    alpha, gamma = 1.7, 0.3
    if objective_kind == "simple":
        objective = SquaredNormTerm(1.0)

        def h_formula(idx):
            return np.zeros(idx.size), np.zeros((idx.size, d))
    else:
        objective = MeanLossObjective(family)

        def h_formula(idx):
            val, grad = objective.value_grad(x)
            return np.full(idx.size, float(val)), np.tile(grad, (idx.size, 1))
    prob = build_wasserstein(objective, cset,
                             WassersteinConfig(alpha=alpha, gamma=gamma),
                             shift_anchor=anchor, dim=d)
    vals = cset.eval(np.arange(cset.m), anchor)[0]
    shift = max(0.0, float(np.max(alpha * vals / gamma)))

    def g_formula(idx):
        # the sampled constraint rows are read in one batch
        val, grad = cset.eval(idx, x)
        gv = np.exp(alpha * val / gamma - shift)
        return gv[:, None], ((gv * alpha / gamma)[:, None] * grad)[:, None, :]

    _assert_oracles_equal(prob, x, g_formula, h_formula,
                          idx=PINNED_ROWS[PINNED_ROWS < cset.m])


@pytest.mark.parametrize("set_kind", ("dr_logistic", "fairness"))
def test_wasserstein_reads_constraints_through_eval(set_kind, monkeypatch):
    """The compiled g_oracle, the anchor shift, values() and jacobian()
    each read the set through ConstraintSet.eval, looked up at call time,
    so a class-level wrapper installed after the build sees every row
    read (the benchmark's traced run times the constraint layer so, on
    drlogistic_m20 and fairness_m120).  values() keeps its last point,
    so psi at a point already read makes no read."""
    from drsum.problems import (FairnessSpec, LogisticLosses,
                                MeanLossObjective, build_fairness_constraints,
                                make_synthetic)

    data = make_synthetic("two_group_bias", m=12, seed=1, min_gap=0.1)
    if set_kind == "dr_logistic":
        objective, cset = build_dr_logistic(data, 0.1, 1.0)
        dim = objective.slope.size
    else:
        family = LogisticLosses(data)
        objective, dim = MeanLossObjective(family), family.dim
        cset = build_fairness_constraints(data, family, FairnessSpec())
    wcfg = WassersteinConfig(alpha=3.0, gamma=0.5)
    x = 0.1 * np.random.default_rng(0).standard_normal(dim)
    prob = build_wasserstein(objective, cset, wcfg, dim=dim)
    reads = []
    unwrapped = ConstraintSet.eval

    def counted(self, idx, x, jac=True):
        reads.append((self.m if idx is None else len(idx), jac))
        return unwrapped(self, idx, x, jac)

    monkeypatch.setattr(ConstraintSet, "eval", counted)
    idx = np.array([0, cset.m - 1, cset.m - 1, 1])
    prob.g_oracle(idx, x)
    assert reads == [(4, True)]
    cset.values(x)
    assert reads[-1] == (cset.m, False)
    cset.jacobian(x)
    assert reads[-1] == (cset.m, True)
    n = len(reads)
    evaluate_psi(prob, x)  # x was read: the set's last values serve psi
    assert len(reads) == n
    evaluate_psi(prob, 2.0 * x)  # a fresh point: the values alone, once
    assert reads[n:] == [(cset.m, False)]
    build_wasserstein(objective, cset, wcfg, shift_anchor=x, dim=dim)
    assert reads[-1] == (cset.m, True)  # the shift reads the estimators' rows
    assert sum(rows for rows, _ in reads) == 4 + 4 * cset.m
