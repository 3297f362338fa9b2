"""Empirical probes for the smoothness constants, sampling variance,
convergence rates, and simple reference solvers.

The constant estimates are honest lower bounds: maxima of difference
quotients over sampled pairs, probed from a reproducible stream so more
probes never shrink an estimate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .composite import OracleCounter, batch_estimates, evaluate_psi, \
    full_phi_gradient
from .solver import SolverReport, record_step


@dataclass
class ConstantEstimates:
    """Sampled lower bounds for the value/gradient Lipschitz constants."""

    l_f: float
    L_f: float
    l_g: float
    L_g: float
    l_h: float
    L_h: float

    def as_smoothness_spec(self, mu=0.0, G_r=0.0, rho=0.0):
        """Constants record for the step-size rules.  The growth modulus,
        objective smoothness and boundary gradient floor cannot be probed
        and stay user-supplied."""
        from .composite import SmoothnessSpec

        return SmoothnessSpec(l_f=self.l_f, L_f=self.L_f, l_g=self.l_g,
                              L_g=self.L_g, l_h=self.l_h, L_h=self.L_h,
                              mu=mu, G_r=G_r, rho=rho)


@dataclass
class RateFit:
    """Least-squares fit of log(error) against the iteration index."""

    slope: float
    intercept: float
    r_squared: float


def estimate_constants(problem, num_probes=200, seed=0, center=None,
                       radius=1.0, u_radius=1.0):
    """Max difference quotients over random pairs in a ball around center
    (unit ball at the origin by default); outer-map probes live in
    [-u_radius, u_radius]^p.  Lower bounds of the true constants, never
    upper bounds."""
    if num_probes < 2:
        raise ValueError("need at least two probes")
    rng = np.random.default_rng(seed)
    d, p, m = problem.dim_x, problem.dim_g, problem.m
    center = np.zeros(d) if center is None else np.asarray(center, dtype=float)
    l_g = L_g = l_h = L_h = l_f = L_f = 0.0
    for _ in range(num_probes):
        i = int(rng.integers(0, m))
        x1 = center + radius * _ball_point(rng, d)
        x2 = center + radius * _ball_point(rng, d)
        dx = float(np.linalg.norm(x1 - x2))
        if dx < 1e-12:
            continue
        g1, j1 = problem.g(i, x1)
        g2, j2 = problem.g(i, x2)
        l_g = max(l_g, float(np.linalg.norm(g1 - g2)) / dx)
        L_g = max(L_g, float(np.linalg.norm(j1 - j2)) / dx)
        h1, hg1 = problem.h(i, x1)
        h2, hg2 = problem.h(i, x2)
        l_h = max(l_h, abs(h1 - h2) / dx)
        L_h = max(L_h, float(np.linalg.norm(hg1 - hg2)) / dx)
        u1 = rng.uniform(-u_radius, u_radius, size=p)
        u2 = rng.uniform(-u_radius, u_radius, size=p)
        du = float(np.linalg.norm(u1 - u2))
        if du < 1e-12:
            continue
        try:
            f1, fp1 = problem.f(u1)
            f2, fp2 = problem.f(u2)
        except (ArithmeticError, ValueError):
            continue  # probe left the outer map's domain
        l_f = max(l_f, abs(f1 - f2) / du)
        L_f = max(L_f, float(np.linalg.norm(fp1 - fp2)) / du)
    return ConstantEstimates(l_f=l_f, L_f=L_f, l_g=l_g, L_g=L_g, l_h=l_h, L_h=L_h)


def _ball_point(rng, d):
    v = rng.standard_normal(d)
    v /= max(np.linalg.norm(v), 1e-12)
    return v * rng.uniform(0.0, 1.0) ** (1.0 / d)


def estimate_variance(problem, x, batch_size, num_trials=200, seed=0):
    """Monte-Carlo estimate of E || mean_B grad g - grad g ||^2.

    A batch of size m is the deterministic full pass and returns zero
    exactly; otherwise sampling is uniform with replacement, matching the
    solver.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    x = np.asarray(x, dtype=float)
    m = problem.m
    if batch_size >= m:
        return 0.0
    rng = np.random.default_rng(seed)
    _, z_exact, _ = batch_estimates(problem, range(m), x)
    total = 0.0
    for _ in range(num_trials):
        idx = rng.integers(0, m, size=batch_size)
        _, z_batch, _ = batch_estimates(problem, idx, x)
        diff = z_batch - z_exact
        total += float(np.sum(diff * diff))
    return total / num_trials


def baseline_solve(problem, kind, iters, eta, seed=0, x0=None,
                   batch_size=1) -> SolverReport:
    """Reference loops with the same oracle accounting as the main solver.

    full_prox_gradient: exact gradient every step.
    naive_biased_sgd: plugs mini-batch means straight into the outer
    derivative; the batch couples the value and jacobian estimates, so
    the composite gradient estimate is biased whenever the outer map is
    curved, and the loop stalls at the bias floor.
    """
    if kind not in ("full_prox_gradient", "naive_biased_sgd"):
        raise ValueError(f"unknown baseline {kind!r}")
    if iters < 1 or eta <= 0:
        raise ValueError("iters must be >= 1 and eta positive")
    counter = OracleCounter()
    rng = np.random.default_rng(seed)
    x = np.zeros(problem.dim_x) if x0 is None else np.asarray(x0, dtype=float)
    records = []
    start = time.perf_counter()
    for it in range(1, iters + 1):
        if kind == "full_prox_gradient":
            grad = full_phi_gradient(problem, x, counter)
        else:
            idx = rng.integers(0, problem.m, size=batch_size)
            y, z, w = batch_estimates(problem, idx, x, counter)
            _, fprime = problem.f(y, counter)
            grad = z.T @ fprime + w
        x = problem.r_term.prox(x - eta * grad, eta)
        counter.prox_calls += 1
        records.append(record_step(problem, x, eta, 1, it, 0, [counter], start))
    return SolverReport(
        trajectory=records, counters=counter, final_x=x,
        wall_time=time.perf_counter() - start,
        final_psi=evaluate_psi(problem, x),
    )


def fit_rate(errors) -> RateFit:
    """Least squares of ln(error) against 0, 1, 2, ...; errors must be
    positive.  A perfectly flat sequence fits exactly (r_squared 1)."""
    e = np.asarray(errors, dtype=float)
    if e.ndim != 1 or e.size < 2:
        raise ValueError("need a 1-D sequence of at least two errors")
    if np.any(e <= 0):
        raise ValueError("errors must be positive")
    idx = np.arange(e.size, dtype=float)
    logs = np.log(e)
    design = np.vstack([np.ones_like(idx), idx]).T
    coef, *_ = np.linalg.lstsq(design, logs, rcond=None)
    intercept, slope = float(coef[0]), float(coef[1])
    fitted = intercept + slope * idx
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 if ss_tot < 1e-300 else 1.0 - ss_res / ss_tot
    return RateFit(slope=slope, intercept=intercept,
                   r_squared=min(1.0, max(0.0, r2)))
