"""Acceptance gate: one test per release criterion, each printing a
pass/fail line with its tolerance and runtime.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np

from drsum.composite import (
    CompositeProblem,
    batch_estimates,
    delta_update,
    evaluate_psi,
    full_phi_gradient,
    gradient_mapping,
    per_index,
)
from drsum.constraints import ConstraintSet
from drsum.diagnostics import baseline_solve, fit_rate
from drsum.distributed import DistConfig, dist_expected_oracle_calls, dist_solve
from drsum.problems import (
    FairnessSpec,
    MeanLossObjective,
    build_fairness_constraints,
    error_rate,
    make_losses,
    make_synthetic,
    make_xor_dataset,
    max_fairness_violation,
)
from drsum.proxlib import SquaredNormTerm
from drsum.reductions import (
    Chi2Config,
    WassersteinConfig,
    brute_force_penalized_max,
    build_chi2,
    build_kl,
    build_mean,
    restart_gamma,
    wasserstein_penalty,
    wasserstein_stages,
)
from drsum.reductions import KlConfig
from drsum.solver import (
    SolverConfig,
    Schedule,
    expected_oracle_calls,
    solve_restarted,
)


def report(criterion, t0, detail):
    print(f"\n[criterion-{criterion}] PASS ({time.perf_counter() - t0:.2f}s): {detail}")


def constant_losses(values):
    values = np.asarray(values, dtype=float)

    def make(i):
        def f(x):
            return float(values[i]), np.zeros(1)
        return f

    return [make(i) for i in range(values.size)]


def test_criterion_1_chi2_reduction_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 6))
        values = rng.uniform(0.0, 1.0, size=m)
        gamma = float(rng.uniform(2.0, 6.0))
        prob = build_chi2(constant_losses(values), Chi2Config(gamma=gamma), dim=1)
        psi = evaluate_psi(prob, np.zeros(1))
        oracle = brute_force_penalized_max(values, "chi2", gamma)
        worst = max(worst, abs(psi - oracle))
        assert abs(psi - oracle) < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(1, t0, f"100 instances, worst |psi - oracle| = {worst:.2e} (tol 1e-6)")


def test_criterion_2_kl_reduction_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 8))
        values = rng.uniform(0.0, 1.0, size=m)
        gamma = float(rng.uniform(0.3, 3.0))
        prob = build_kl(constant_losses(values), KlConfig(gamma=gamma), dim=1)
        psi = evaluate_psi(prob, np.zeros(1))
        oracle = brute_force_penalized_max(values, "kl", gamma)
        gap = abs(gamma * psi + gamma * np.log(m) - oracle)
        worst = max(worst, gap)
        assert gap < 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(2, t0, f"100 instances, worst identity gap = {worst:.2e} (tol 1e-8)")


def test_criterion_3_sandwich_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    violations = 0
    for _ in range(1000):
        m = int(rng.integers(1, 9))
        vals = rng.uniform(-50.0, 50.0, size=m)
        alpha = float(rng.uniform(0.05, 10.0))
        gamma = float(rng.uniform(0.01, 10.0))
        pen = wasserstein_penalty(vals, alpha, gamma)
        lo = max(0.0, alpha * float(np.max(vals)))
        hi = lo + gamma * np.log(m + 1)
        if pen < lo - 1e-9 or pen > hi + 1e-9:
            violations += 1
    assert violations == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(3, t0, "1000 draws inside [max(0, a*max c), +gamma*ln(m+1)], 0 violations")


def test_criterion_4_full_batch_degeneracy():
    t0 = time.perf_counter()
    fam = make_synthetic("strongly_convex_quadratic", m=16, d=5, seed=7)
    prob = build_chi2(fam, Chi2Config(gamma=10.0))
    eta = 0.05
    iterates = []
    cfg = SolverConfig(eta=eta, T=10, K=1, seed=3,
                      schedule=Schedule(mode="full_batch", tau=5))
    rep = solve_restarted(prob, np.zeros(5), cfg,
                          probe=lambda s, t, j, x, g: iterates.append(x.copy()))
    ref = baseline_solve(prob, "full_prox_gradient",
                         SolverConfig(eta=eta, T=50), x0=np.zeros(5))
    assert len(iterates) == 50
    x = np.zeros(5)
    for k in range(50):
        assert np.array_equal(iterates[k], x)
        x = prob.r_term.prox(x - eta * full_phi_gradient(prob, x), eta)
    assert np.array_equal(rep.final_x, x)
    assert np.array_equal(rep.final_x, ref.final_x)
    report(4, t0, "50 iterations bit-identical to deterministic proximal gradient")


def test_criterion_5_estimator_unbiasedness():
    t0 = time.perf_counter()
    fam = make_synthetic("strongly_convex_quadratic", m=8, d=4, seed=11)
    prob = build_chi2(fam, Chi2Config(gamma=5.0))
    rng = np.random.default_rng(55)
    x_old = 0.4 * rng.standard_normal(4)
    x_new = x_old + 0.15 * rng.standard_normal(4)
    y0, z0, w0 = batch_estimates(prob, rng.integers(0, 8, size=3), x_old)
    y_full_new, z_full_new, w_full_new = batch_estimates(prob, range(8), x_new)
    y_full_old, z_full_old, w_full_old = batch_estimates(prob, range(8), x_old)
    exact = np.concatenate([
        (y0 + y_full_new - y_full_old).ravel(),
        (z0 + z_full_new - z_full_old).ravel(),
        (w0 + w_full_new - w_full_old).ravel(),
    ])
    draws = 10_000
    samples = np.empty((draws, exact.size))
    S = 3
    for k in range(draws):
        idx = rng.integers(0, 8, size=S)
        y, z, w = delta_update(prob, idx, x_new, x_old, y0, z0, w0)
        samples[k] = np.concatenate([y.ravel(), z.ravel(), w.ravel()])
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / np.sqrt(draws)
    dev = np.abs(mean - exact)
    assert np.all(dev <= 4.0 * se + 1e-15)
    worst = float(np.max(np.where(se > 0, dev / np.maximum(se, 1e-300), 0.0)))
    report(5, t0, f"10^4 draws, worst |mean - exact| = {worst:.2f} standard errors (limit 4)")


def test_criterion_6_linear_convergence_and_exact_counters():
    t0 = time.perf_counter()
    fam = make_synthetic("strongly_convex_quadratic", m=16, d=5, seed=7, cond=10.0)
    prob = build_chi2(fam, Chi2Config(gamma=10.0))
    # reference optimum from a long exact proximal-gradient run
    x = np.zeros(5)
    for _ in range(30_000):
        x = x - 0.05 * full_phi_gradient(prob, x)
    psi_star = evaluate_psi(prob, x)

    cfg = SolverConfig(eta=0.1, T=2, K=8, seed=3)
    rep = solve_restarted(prob, np.zeros(5), cfg)
    errors = [evaluate_psi(prob, xs) - psi_star for xs in rep.stage_outputs]
    assert all(e > 0 for e in errors)
    fit = fit_rate(errors)
    assert fit.slope < 0
    assert fit.r_squared >= 0.95

    expected = expected_oracle_calls(cfg.schedule, cfg.T, 16, K=cfg.K)
    assert rep.counters.g_value_calls == expected
    assert rep.counters.h_gradient_calls == expected
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(6, t0, f"stage-error fit R^2 = {fit.r_squared:.3f} (>= 0.95), "
                  f"slope = {fit.slope:.2f}, counters exact at {expected}")


def test_criterion_7_nonconvex_adaptive_decay():
    t0 = time.perf_counter()
    data = make_xor_dataset(m=64, seed=2)
    fam = make_losses("mlp2", data, hidden=4)
    prob = build_chi2(fam, Chi2Config(gamma=1.0))
    schedule = Schedule(mode="adaptive", beta=1.0, zeta=1.0)
    cfg = SolverConfig(eta=0.5, T=10, K=1, seed=5, schedule=schedule)
    x0 = 0.3 * np.random.default_rng(0).standard_normal(fam.dim)
    rep = solve_restarted(prob, x0, cfg)
    sampled = [r.grad_map_sq for r in rep.trajectory if r.grad_map_sq is not None]
    best = min(sampled)
    assert best < 1e-3

    expected = expected_oracle_calls(schedule, cfg.T, 64)
    assert rep.counters.g_value_calls == expected
    assert rep.counters.h_gradient_calls == expected
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(7, t0, f"sampled ||G||^2 reaches {best:.2e} (< 1e-3), "
                  f"adaptive counters exact at {expected}")


def test_criterion_8_single_projection_and_gap_decay():
    t0 = time.perf_counter()
    objective = SquaredNormTerm(1.0, center=np.array([2.0, 2.0]))
    cset = ConstraintSet.affine(np.eye(2), np.ones(2))
    gaps = {}
    for K in (2, 4, 6, 8):
        gamma = restart_gamma(K, 2)
        wcfg = WassersteinConfig(alpha=2.0, gamma=gamma)
        # local curvature of the smoothed penalty caps the step size
        eta = 1.0 / (1.0 + 2.0 * 2.0**2 / (4.0 * gamma))
        T = max(1, int(np.ceil(16.0 / eta / (2 * K))))
        cfg = SolverConfig(eta=eta, T=T, K=K, seed=0)
        rep = solve_restarted(wasserstein_stages(objective, cset, wcfg, 2),
                              np.zeros(2), cfg, constraints=cset)
        gaps[K] = rep.projection["gap"]
        if K == 8:
            assert np.linalg.norm(rep.final_x - np.array([1.0, 1.0])) < 1e-3
            assert rep.projection["residual"] <= 1e-8
            assert rep.counters.projection_calls == 1
    ordered = [gaps[K] for K in (2, 4, 6, 8)]
    assert all(a >= b - 1e-12 for a, b in zip(ordered, ordered[1:]))
    report(8, t0, f"projected point at the corner, one projection, gap decays "
                  f"{ordered[0]:.2e} -> {ordered[-1]:.2e} over K = 2..8")


def test_criterion_9_distributed_equivalence():
    t0 = time.perf_counter()
    fam = make_synthetic("strongly_convex_quadratic", m=16, d=5, seed=7)
    prob = build_chi2(fam, Chi2Config(gamma=10.0))

    central = solve_restarted(prob, np.zeros(5),
                              SolverConfig(eta=0.05, T=4, K=2, seed=11))
    single = dist_solve(prob, np.zeros(5),
                        DistConfig(eta=0.05, T=4, K=2, seed=11, p=1))
    assert np.array_equal(central.final_x, single.final_x)
    assert [r.psi for r in central.trajectory] == [r.psi for r in single.trajectory]

    schedule = Schedule(mode="full_batch", tau=3)
    central_iters = []
    solve_restarted(prob, np.zeros(5),
                    SolverConfig(eta=0.05, T=3, K=1, seed=0, schedule=schedule),
                    probe=lambda s, t, j, x, g: central_iters.append(x.copy()))
    for p in (2, 4):
        dist_iters = []
        dist_solve(prob, np.zeros(5),
                   DistConfig(eta=0.05, T=3, K=1, seed=0, schedule=schedule, p=p),
                   probe=lambda s, t, j, x, g: dist_iters.append(x.copy()))
        worst = max(float(np.max(np.abs(a - b)))
                    for a, b in zip(central_iters, dist_iters))
        assert worst < 1e-10

    fixed = Schedule(mode="fixed_sqrt_m")
    per_dev = {}
    for p in (2, 4):
        rep = dist_solve(prob, np.zeros(5),
                         DistConfig(eta=0.05, T=2, K=1, seed=3, p=p,
                                    schedule=fixed))
        expected = dist_expected_oracle_calls(fixed, 2, 16, p)
        for dev, want in zip(rep.per_device_counters, expected):
            assert dev.g_value_calls == want
            assert dev.h_gradient_calls == want
        per_dev[p] = expected[0]
    inner = 2 * 2 * 4 * 3  # T * 2 * S * (tau - 1)
    assert per_dev[2] - inner == 2 * 16 // 2
    assert per_dev[4] - inner == 2 * 16 // 4
    report(9, t0, "p=1 bit-identical, p in {2,4} within 1e-10, per-device "
                  f"counters exact ({per_dev[2]} vs {per_dev[4]}: batch term halves)")


def test_criterion_10_desk_scale_fairness():
    t0 = time.perf_counter()
    eps = 0.05
    data = make_synthetic("two_group_bias", m=120, seed=3, min_gap=0.2)
    fam = make_losses("logistic", data)

    unconstrained = baseline_solve(build_mean(fam), "full_prox_gradient",
                                   SolverConfig(eta=0.5, T=400))
    viol_base = max_fairness_violation(data, fam, unconstrained.final_x, eps)
    err_base = error_rate(data, fam, unconstrained.final_x)
    assert viol_base >= 0.10

    spec = FairnessSpec(eps_slack=eps, surrogate_temp=5.0)
    cset = build_fairness_constraints(data, fam, spec)
    stages = wasserstein_stages(MeanLossObjective(fam), cset,
                                WassersteinConfig(alpha=4.0, gamma=0.02),
                                fam.dim)
    rep = solve_restarted(stages, np.zeros(fam.dim),
                          SolverConfig(eta=0.1, T=60, K=2, seed=0),
                          constraints=cset)
    viol = max_fairness_violation(data, fam, rep.final_x, eps)
    err = error_rate(data, fam, rep.final_x)
    assert viol <= 0.06
    assert err - err_base <= 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(10, t0, f"constrained violation {viol:.3f} (<= 0.06) vs baseline "
                   f"{viol_base:.3f} (>= 0.10); error {err:.3f} vs {err_base:.3f}")


def test_criterion_11_bias_floor_of_naive_sgd():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    slopes = rng.uniform(0.5, 2.0, size=16)
    offsets = 2.0 * slopes + 0.2 * rng.standard_normal(16)

    def g_oracle(i, x):
        return np.array([slopes[i] * x[0] + offsets[i]]), np.array([[slopes[i]]])

    def h_oracle(i, x):
        return 0.0, np.zeros(1)

    def f_outer(u):
        return float(u[0]) ** 2, np.array([2.0 * u[0]])

    prob = CompositeProblem(1, 1, 16, per_index(g_oracle), per_index(h_oracle),
                            f_outer)
    eta = 0.05
    rep = solve_restarted(prob, np.zeros(1),
                          SolverConfig(eta=eta, T=30, K=1, seed=2))
    budget = rep.counters.g_value_calls
    _, gm_vr = gradient_mapping(prob, eta, rep.final_x)

    batch = 2
    naive = baseline_solve(prob, "naive_biased_sgd",
                           SolverConfig(eta=eta, T=budget // batch, seed=1),
                           batch_size=batch)
    assert naive.counters.g_value_calls == budget
    tail = naive.trajectory[-(len(naive.trajectory) // 4):]
    floor = float(np.median([r.grad_map_sq for r in tail]))
    assert floor >= 10.0 * gm_vr
    report(11, t0, f"equal budget {budget}: biased plateau {floor:.2e} vs "
                   f"variance-reduced {gm_vr:.2e} (>= 10x)")
