"""Epoch-structured variance-reduced proximal solver for composite sums.

Each epoch opens with batch estimates of the inner value, jacobian and
extra-gradient means, then runs incremental inner steps that correct all
three estimators with sampled deltas before every proximal step.  A
restart driver chains stages, warm-starting each from the last output;
constrained runs finish with a single feasibility projection.

The epoch loop exists once, in sharded form (_sharded_epoch), and so
does the stage/restart driver (_run_stage, _run_stages).  The centralized
solver (run_epoch, run_stage, solve_restarted) is their 1-worker case:
one shard holding every index, sampled from the solver's stream with
weight 1.0.  The simulated multi-worker solver in the distributed module
runs the same loop with one shard per worker.

Determinism contract: a run is fully determined by (problem, config,
seed).  Full passes (batch or inner sample size equal to m) never touch
the random stream and reproduce deterministic proximal gradient bit for
bit.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .composite import (
    CompositeProblem,
    EpochState,
    OracleCounter,
    batch_estimates,
    delta_update,
    evaluate_psi,
    gradient_mapping,
)
from .constraints import ConstraintSet, max_violation, project_feasible
from .reductions import NumericalRangeError

FIXED_SQRT_M = "fixed_sqrt_m"
ADAPTIVE = "adaptive"
FULL_BATCH = "full_batch"

# Salt for the output-selection stream, kept apart from the sampling
# streams so centralized and simulated-distributed runs select alike.
_SELECT_SALT = 0x5E1EC7


@dataclass
class Schedule:
    """Epoch length and batch sizes as functions of the epoch index.

    fixed_sqrt_m:  tau_t = S_t = ceil(sqrt(m)), B_t = m for all t.
    adaptive:      ramp tau_t = S_t = ceil(beta*t + zeta), B_t = tau_t^2
                   (capped at m) until t exceeds T0 = ceil((sqrt(m) - zeta)/beta),
                   then the fixed regime.
    full_batch:    tau_t = tau, S_t = B_t = m (degenerates to plain
                   proximal gradient).
    """

    mode: str = FIXED_SQRT_M
    beta: float = 1.0
    zeta: float = 0.0
    tau: int = 1

    def __post_init__(self):
        if self.mode not in (FIXED_SQRT_M, ADAPTIVE, FULL_BATCH):
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        if self.mode == FULL_BATCH and self.tau < 1:
            raise ValueError("tau must be >= 1")

    def ramp_end(self, m):
        """Epoch index after which the adaptive ramp hands over to fixed."""
        root = math.sqrt(m)
        if self.zeta < 0 or self.zeta >= root:
            raise ValueError("adaptive mode needs 0 <= zeta < sqrt(m)")
        if self.beta <= 0:
            raise ValueError("adaptive mode needs beta > 0")
        return math.ceil((root - self.zeta) / self.beta)

    def params(self, t, m):
        """(tau_t, S_t, B_t) for epoch t >= 1 on an m-component problem."""
        if t < 1:
            raise ValueError("epoch index starts at 1")
        root = math.ceil(math.sqrt(m))
        if self.mode == FIXED_SQRT_M:
            return root, root, m
        if self.mode == FULL_BATCH:
            return self.tau, m, m
        if t <= self.ramp_end(m):
            tau = math.ceil(self.beta * t + self.zeta)
            tau = max(1, min(tau, root))
            return tau, tau, min(tau * tau, m)
        return root, root, m


def expected_oracle_calls(schedule, T, m, K=1):
    """Per-family oracle calls of K stages: K * sum_t (B_t + 2 S_t (tau_t - 1))."""
    total = 0
    for t in range(1, T + 1):
        tau, S, B = schedule.params(t, m)
        total += B + 2 * S * (tau - 1)
    return K * total


def derive_step_size(spec, regime):
    """0.9 times the admissible step-size bound for the given regime.

    strongly_convex: 2 / (L_phi + sqrt(L_phi^2 + 36 G0))
    nonconvex:       4 / (L_phi + sqrt(L_phi^2 + 12 G0))
    """
    L = spec.L_phi
    G0 = spec.G0
    if L <= 0 and G0 <= 0:
        raise ValueError("cannot derive a step size from all-zero constants")
    if regime == "strongly_convex":
        bound = 2.0 / (L + math.sqrt(L * L + 36.0 * G0))
    elif regime == "nonconvex":
        bound = 4.0 / (L + math.sqrt(L * L + 12.0 * G0))
    else:
        raise ValueError(f"unknown regime {regime!r}")
    return 0.9 * bound


def recommended_epochs(m, mu, eta):
    """Stage length T = ceil(5 / (sqrt(m) * mu * eta)), floored at 1."""
    if mu <= 0 or eta <= 0:
        raise ValueError("mu and eta must be positive")
    return max(1, math.ceil(5.0 / (math.sqrt(m) * mu * eta)))


def recommended_stages(epsilon):
    """Restart count K = ceil(ln(1/epsilon)), floored at 1."""
    if epsilon <= 0 or epsilon >= 1:
        raise ValueError("epsilon must lie in (0, 1)")
    return max(1, math.ceil(math.log(1.0 / epsilon)))


@dataclass
class SolverConfig:
    """Solver configuration: step size, epochs per stage, restart stages."""

    eta: float
    T: int
    K: int = 1
    schedule: Schedule = field(default_factory=Schedule)
    seed: int = 0
    output_rule: str = "last_iterate"
    grad_map_every: int = 0  # 0: exact gradient mapping at epoch ends only

    def __post_init__(self):
        if self.eta < 0:
            raise ValueError("eta must be nonnegative")
        if self.T < 1 or self.K < 1:
            raise ValueError("T and K must be >= 1")
        if self.output_rule not in ("last_iterate", "uniform_random_iterate"):
            raise ValueError(f"unknown output rule {self.output_rule!r}")


@dataclass
class TrajectoryRecord:
    """One proximal step of the run, with counter snapshots."""

    stage: int
    epoch: int
    step: int
    psi: float
    grad_map_sq: Optional[float]
    max_violation: Optional[float]
    g_calls: int
    h_calls: int
    wall_s: float


@dataclass
class SolverReport:
    """Trajectory, exact oracle accounting, and the selected output."""

    trajectory: list
    counters: OracleCounter
    final_x: np.ndarray
    wall_time: float
    final_psi: Optional[float] = None
    stage_outputs: list = field(default_factory=list)
    per_device_counters: Optional[list] = None
    x_unprojected: Optional[np.ndarray] = None
    objective_before: Optional[float] = None
    objective_after: Optional[float] = None
    projection_gap: Optional[float] = None
    projection_residual: Optional[float] = None
    projection_iterations: Optional[int] = None


def _select_rng(seed):
    return np.random.default_rng(int(seed) ^ _SELECT_SALT)


def split_batch(total, shard_sizes):
    """Largest-remainder split of a batch across shards, proportional to size."""
    sizes = np.asarray(shard_sizes, dtype=float)
    m = sizes.sum()
    if total < len(shard_sizes):
        raise ValueError(
            f"batch of {total} cannot cover {len(shard_sizes)} workers; "
            "delay the ramp (larger zeta) or reduce the worker count"
        )
    exact = total * sizes / m
    shares = np.floor(exact).astype(int)
    shares = np.maximum(shares, 1)
    while shares.sum() > total:
        k = int(np.argmax(shares))
        shares[k] -= 1
    remainder = exact - shares
    order = np.argsort(-remainder)
    i = 0
    while shares.sum() < total:
        shares[order[i % len(order)]] += 1
        i += 1
    return [int(s) for s in shares]


def _sample(shard, rng, n):
    """n uniform draws, with replacement, from the shard's indices."""
    return shard[rng.integers(0, len(shard), size=n)]


def _weighted_sum(parts, weights):
    total = weights[0] * parts[0]
    for w, part in zip(weights[1:], parts[1:]):
        total = total + w * part
    return total


def record_step(problem, x, eta, stage, epoch, step, counters, start_time, *,
                gradient_map=True, violation_set=None):
    """TrajectoryRecord of iterate x.  The counter snapshots sum the
    given counters (None counts as zero); the diagnostics (objective
    value, exact gradient mapping, constraint violation) bypass them."""
    gm = gradient_mapping(problem, eta, x)[1] if gradient_map else None
    viol = (max_violation(violation_set, x)
            if violation_set is not None else None)
    return TrajectoryRecord(
        stage=stage, epoch=epoch, step=step,
        psi=evaluate_psi(problem, x),
        grad_map_sq=gm, max_violation=viol,
        g_calls=sum(c.g_value_calls for c in counters if c is not None),
        h_calls=sum(c.h_gradient_calls for c in counters if c is not None),
        wall_s=time.perf_counter() - start_time,
    )


def _sharded_epoch(problem, x, t, schedule, eta, shards, rngs, counters,
                   server_counter, *, stage, start_time, grad_map_every,
                   violation_set, probe, candidates, order=None):
    """The epoch loop, over components split into shards.

    Shard i keeps its own estimator triple, samples from shards[i] with
    rngs[i] and charges its oracle calls to counters[i]; shards are
    visited in `order` and reduced in index order.  The opening batch of
    B_t splits across the shards by size (every shard in full when
    B_t = m).  Each of the tau proximal steps uses the size-weighted
    mean of the shard estimators and charges its outer-map and prox
    calls to server_counter.

    A full inner pass (S_t = m) corrects the estimators with the
    association exact_mean(x_new) + (estimate - exact_mean(x_old)),
    algebraically identical to the delta recursion, whose correction
    term vanishes bit-exactly once the estimators track the exact
    means, so full-batch runs reproduce plain proximal gradient bit for
    bit.  Both paths evaluate every index at the two points, keeping the
    per-family cost at 2*S.

    Returns (state with the averaged estimators, records).  A non-finite
    iterate raises NumericalRangeError naming its stage, epoch and step.
    """
    m = problem.m
    tau, S, B = schedule.params(t, m)
    if S < 1 or B < 1:
        raise ValueError("schedule produced an empty batch")
    t0 = start_time if start_time is not None else time.perf_counter()
    order = range(len(shards)) if order is None else order
    sizes = [len(shard) for shard in shards]
    weights = [size / m for size in sizes]
    b_shares = None if B >= m else split_batch(B, sizes)

    x_cur = np.asarray(x, dtype=float)
    x_prev = x_cur
    est = [None] * len(shards)
    for i in order:
        batch = (shards[i] if b_shares is None
                 else _sample(shards[i], rngs[i], b_shares[i]))
        est[i] = batch_estimates(problem, batch, x_cur, counters[i])

    records = []
    for j in range(tau):
        if j > 0:
            for i in order:
                if S >= m:
                    new, old = (batch_estimates(problem, shards[i], point,
                                                counters[i])
                                for point in (x_cur, x_prev))
                    est[i] = tuple(a + (e - b)
                                   for a, e, b in zip(new, est[i], old))
                else:
                    est[i] = delta_update(
                        problem, _sample(shards[i], rngs[i], S),
                        x_cur, x_prev, *est[i], counters[i])
        y, z, w = (_weighted_sum(parts, weights) for parts in zip(*est))
        _, fprime = problem.f(y, server_counter)
        grad_est = z.T @ fprime + w
        if probe is not None:
            probe(stage, t, j, x_cur, grad_est)
        x_prev = x_cur
        x_cur = problem.r_term.prox(x_cur - eta * grad_est, eta)
        if server_counter is not None:
            server_counter.prox_calls += 1
        if not np.all(np.isfinite(x_cur)):
            raise NumericalRangeError(
                f"non-finite iterate at stage {stage}, epoch {t}, step {j}")
        if candidates is not None:
            candidates.append(x_cur.copy())

        if grad_map_every > 0:
            at_cadence = (j + 1) % grad_map_every == 0
        else:  # 0: at epoch ends only
            at_cadence = grad_map_every == 0 and j == tau - 1
        records.append(record_step(
            problem, x_cur, eta, stage, t, j, counters, t0,
            gradient_map=eta > 0 and at_cadence,
            violation_set=violation_set))

    return EpochState(x=x_cur, est_g_value=y, est_g_jac=z,
                      est_h_grad=w, x_prev=x_prev), records


def run_epoch(problem, state, t, schedule, eta, rng, counter=None, *,
              stage=1, start_time=None, grad_map_every=0,
              violation_set: Optional[ConstraintSet] = None,
              probe: Optional[Callable] = None, candidates=None):
    """One epoch: batch estimates at the carried-in iterate, then tau
    proximal steps (the first from the batch estimators, the remaining
    tau-1 after sampled estimator corrections).  The 1-worker case of
    _sharded_epoch: one shard of every index, sampled with rng, all of
    whose calls go to counter.  Returns (state, records).
    """
    return _sharded_epoch(
        problem, state.x, t, schedule, eta, [np.arange(problem.m)], [rng],
        [counter], counter, stage=stage, start_time=start_time,
        grad_map_every=grad_map_every, violation_set=violation_set,
        probe=probe, candidates=candidates)


def _run_stage(problem, x0, config, epoch, select_rng, stage, start_time):
    """T epochs from x0, each epoch(problem, state, t, stage=...,
    start_time=..., candidates=...); returns (x_out, records) with x_out
    chosen by the configured output rule (last iterate, or a
    uniform-random iterate drawn from select_rng)."""
    x0 = np.asarray(x0, dtype=float)
    collect = config.output_rule == "uniform_random_iterate"
    candidates = [x0.copy()] if collect else None
    state = EpochState(
        x=x0,
        est_g_value=np.zeros(problem.dim_g),
        est_g_jac=np.zeros((problem.dim_g, problem.dim_x)),
        est_h_grad=np.zeros(problem.dim_x),
        x_prev=x0,
    )
    records = []
    for t in range(1, config.T + 1):
        state, recs = epoch(problem, state, t, stage=stage,
                            start_time=start_time, candidates=candidates)
        records.extend(recs)
    if collect:
        pick = int(select_rng.integers(0, len(candidates)))
        return candidates[pick], records
    return state.x, records


def _run_stages(problem_builder, x0, config, run) -> SolverReport:
    """K warm-started stages, each run(problem, x_start, stage=...,
    select_rng=..., start_time=...) -> (x_out, records).  problem_builder
    is either a fixed CompositeProblem or a callable (stage_index,
    x_start) -> problem.  The caller attaches the report's counters."""
    if isinstance(problem_builder, CompositeProblem):
        fixed = problem_builder
        builder = lambda k, x_start: fixed
    else:
        builder = problem_builder

    select_rng = _select_rng(config.seed)
    start = time.perf_counter()
    x = np.asarray(x0, dtype=float)
    records = []
    stage_outputs = []
    for k in range(1, config.K + 1):
        problem = builder(k, x)
        x, recs = run(problem, x, stage=k, select_rng=select_rng,
                      start_time=start)
        records.extend(recs)
        stage_outputs.append(x.copy())
    final_psi = evaluate_psi(problem, x)
    return SolverReport(
        trajectory=records,
        counters=None,
        final_x=x,
        wall_time=time.perf_counter() - start,
        final_psi=final_psi,
        stage_outputs=stage_outputs,
    )


def run_stage(problem, x0, config: SolverConfig, counter=None, *, stage=1,
              rng=None, select_rng=None, start_time=None,
              violation_set=None, probe=None):
    """T epochs from x0; returns (x_out, records) with x_out chosen by
    the configured output rule (last iterate, or a uniform-random
    iterate drawn from the dedicated selection stream)."""
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    select_rng = select_rng if select_rng is not None else _select_rng(config.seed)
    start_time = start_time if start_time is not None else time.perf_counter()
    epoch = partial(run_epoch, schedule=config.schedule, eta=config.eta,
                    rng=rng, counter=counter,
                    grad_map_every=config.grad_map_every,
                    violation_set=violation_set, probe=probe)
    return _run_stage(problem, x0, config, epoch, select_rng, stage,
                      start_time)


def solve_restarted(problem_builder, x0, config: SolverConfig, *,
                    violation_set=None, probe=None) -> SolverReport:
    """K warm-started stages.  problem_builder is either a fixed
    CompositeProblem or a callable (stage_index, x_start) -> problem,
    which lets parameterized objectives re-anchor per stage."""
    counter = OracleCounter()
    run = partial(run_stage, config=config, counter=counter,
                  rng=np.random.default_rng(config.seed),
                  violation_set=violation_set, probe=probe)
    report = _run_stages(problem_builder, x0, config, run)
    report.counters = counter
    return report


def _objective_value(objective, x):
    if hasattr(objective, "value"):
        return float(objective.value(x))
    return float(objective.value_grad(x)[0])


def solve_constrained_wasserstein(objective, constraints, wcfg, config: SolverConfig,
                                  x0=None, smoothness=None, gamma_schedule=None,
                                  projection_tol=1e-8,
                                  projection_max_iter=100_000) -> SolverReport:
    """Restarted solve of the smoothed constrained problem followed by a
    single terminal projection onto the feasible set.

    The smoothing temperature is held at the configured value for every
    stage unless a gamma_schedule(stage_index) hook is supplied; each
    stage re-anchors the compiled exponentials at its warm start.  When
    smoothness constants are supplied, alpha <= G_r/rho draws a warning
    (the projection-quality guarantee needs alpha > G_r/rho) but the run
    proceeds.  The report carries the objective value before and after
    the single projection and their gap.
    """
    from .reductions import WassersteinConfig, build_wasserstein

    m = constraints.m
    gamma0 = wcfg.resolve_gamma(m)
    if wcfg.K is not None and wcfg.K != config.K:
        warnings.warn(
            f"restart counts disagree: temperature derived for K={wcfg.K}, "
            f"running K={config.K}"
        )
    if smoothness is not None and smoothness.rho > 0 and smoothness.G_r > 0:
        if wcfg.alpha <= smoothness.G_r / smoothness.rho:
            warnings.warn(
                f"alpha={wcfg.alpha:g} does not exceed G_r/rho="
                f"{smoothness.G_r / smoothness.rho:g}; projection-quality "
                "guarantee does not apply"
            )

    dim = None
    if hasattr(objective, "dim"):
        dim = int(objective.dim)
    elif hasattr(objective, "slope"):
        dim = int(objective.slope.size)
    if x0 is None:
        if dim is None:
            raise ValueError("pass x0: decision dimension cannot be inferred")
        x0 = np.zeros(dim)
    x0 = np.asarray(x0, dtype=float)
    dim = x0.size

    def builder(k, x_start):
        gamma_k = gamma0 if gamma_schedule is None else float(gamma_schedule(k))
        stage_cfg = WassersteinConfig(alpha=wcfg.alpha, gamma=gamma_k)
        return build_wasserstein(objective, constraints, stage_cfg,
                                 shift_anchor=np.asarray(x_start, dtype=float),
                                 dim=dim)

    start = time.perf_counter()
    report = solve_restarted(builder, x0, config, violation_set=constraints)

    x_raw = report.final_x
    x_proj, residual, iterations = project_feasible(
        constraints, x_raw, tol=projection_tol, max_iter=projection_max_iter)
    report.counters.projection_calls += 1
    report.final_psi = evaluate_psi(builder(config.K, x_raw), x_proj)

    report.x_unprojected = x_raw
    report.final_x = x_proj
    report.objective_before = _objective_value(objective, x_raw)
    report.objective_after = _objective_value(objective, x_proj)
    report.projection_gap = report.objective_after - report.objective_before
    report.projection_residual = residual
    report.projection_iterations = iterations
    report.wall_time = time.perf_counter() - start
    return report
