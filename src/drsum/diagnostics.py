"""Empirical probes for the smoothness constants, convergence-rate
fits, and simple reference solvers.

The constant estimates are honest lower bounds: maxima of difference
quotients over sampled pairs, probed from a reproducible stream so more
probes never shrink an estimate; the outer map is probed around the
exact inner mean, where the estimators live.  The reference solvers are
tau = 1 schedules of the solver's own loop, so they share its oracle
accounting, records and failure checks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .composite import at_index
from .solver import SolverReport, solve


@dataclass
class ConstantEstimates:
    """Sampled lower bounds for the value/gradient Lipschitz constants."""

    l_f: float
    L_f: float
    l_g: float
    L_g: float
    l_h: float
    L_h: float


@dataclass
class RateFit:
    """Least-squares fit of log(error) against the iteration index."""

    slope: float
    intercept: float
    r_squared: float


def estimate_constants(problem, num_probes=200, seed=0, center=None,
                       radius=1.0, u_radius=0.5):
    """Max difference quotients over random pairs in a ball around center
    (unit ball at the origin by default); outer-map probes live in the
    box ubar +- u_radius * |ubar| around the exact inner mean ubar at
    center.  Lower bounds of the true constants, never upper bounds."""
    if num_probes < 2:
        raise ValueError("need at least two probes")
    rng = np.random.default_rng(seed)
    d, m = problem.dim_x, problem.m
    center = np.zeros(d) if center is None else np.asarray(center, dtype=float)
    g, h, f = problem.g_oracle, problem.h_oracle, problem.f_outer
    ubar = g(np.arange(m), center)[0].sum(axis=0) / m
    u_lo, u_hi = ubar - u_radius * np.abs(ubar), ubar + u_radius * np.abs(ubar)
    l_g = L_g = l_h = L_h = l_f = L_f = 0.0
    for _ in range(num_probes):
        i = int(rng.integers(0, m))
        x1 = center + radius * _ball_point(rng, d)
        x2 = center + radius * _ball_point(rng, d)
        dx = float(np.linalg.norm(x1 - x2))
        if dx < 1e-12:
            continue
        g1, j1 = at_index(g, i, x1)
        g2, j2 = at_index(g, i, x2)
        l_g = max(l_g, float(np.linalg.norm(g1 - g2)) / dx)
        L_g = max(L_g, float(np.linalg.norm(j1 - j2)) / dx)
        h1, hg1 = at_index(h, i, x1)
        h2, hg2 = at_index(h, i, x2)
        l_h = max(l_h, abs(h1 - h2) / dx)
        L_h = max(L_h, float(np.linalg.norm(hg1 - hg2)) / dx)
        u1 = rng.uniform(u_lo, u_hi)
        u2 = rng.uniform(u_lo, u_hi)
        du = float(np.linalg.norm(u1 - u2))
        if du < 1e-12:
            continue
        try:
            f1, fp1 = f(u1)
            f2, fp2 = f(u2)
        except (ArithmeticError, ValueError):
            continue  # probe left the outer map's domain
        l_f = max(l_f, abs(f1 - f2) / du)
        L_f = max(L_f, float(np.linalg.norm(fp1 - fp2)) / du)
    return ConstantEstimates(l_f=l_f, L_f=L_f, l_g=l_g, L_g=L_g, l_h=l_h, L_h=L_h)


def _ball_point(rng, d):
    v = rng.standard_normal(d)
    v /= max(np.linalg.norm(v), 1e-12)
    return v * rng.uniform(0.0, 1.0) ** (1.0 / d)


@dataclass
class _OneStepSchedule:
    """tau = 1 epochs opening on min(batch, m) indices: the recursive
    estimator correction never runs, so every step uses a fresh batch."""

    batch: int

    def params(self, t, m):
        return 1, m, min(self.batch, m)


def baseline_solve(problem, kind, config, x0=None,
                   batch_size=1) -> SolverReport:
    """Reference methods as the config's K stages of T one-step epochs
    of the solver's loop on one worker (its schedule replaced), so stage
    k's iteration i is recorded (and any failure named) as stage k,
    epoch i, step 0.  Every epoch opens on a fresh
    batch from one stream, so with the last-iterate rule stage k
    outputs the iterate after k*T steps of a one-stage run.

    full_prox_gradient: exact gradient every step.
    naive_biased_sgd: plugs mini-batch means straight into the outer
    derivative; the batch couples the value and jacobian estimates, so
    the composite gradient estimate is biased whenever the outer map is
    curved, and the loop stalls at the bias floor.  A batch_size >= m is
    the deterministic full pass.
    """
    if kind not in ("full_prox_gradient", "naive_biased_sgd"):
        raise ValueError(f"unknown baseline {kind!r}")
    if config.eta <= 0:
        raise ValueError("eta must be positive")
    batch = problem.m if kind == "full_prox_gradient" else batch_size
    x0 = np.zeros(problem.dim_x) if x0 is None else x0
    return solve(problem, x0, replace(
        config, schedule=_OneStepSchedule(batch), p=1))


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
