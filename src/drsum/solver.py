"""Epoch-structured variance-reduced proximal solver for composite sums.

Each epoch opens with batch estimates of the inner value, jacobian and
extra-gradient means, then runs incremental inner steps that correct all
three estimators with sampled deltas before every proximal step.  A
restart driver chains stages, warm-starting each from the last output.

There is one epoch loop (run_epoch), over components split into one
contiguous shard per simulated worker, reporting each proximal step
through one hook, and one driver (solve), which records the steps,
applies the output rule, checks the run for divergence and, given a
constraint set, ends the run with the single terminal projection onto
it.  The split follows from (m, p) alone: shard_sizes gives each worker
m // p rows, in order, and the last worker the remainder too.

The p workers are simulated in synchronous rounds: no networking, no
failures.  Each worker keeps its own three estimators over its shard
and samples only from it, with its own stream; the server averages the
worker estimators, weighted by shard size in worker order, takes the
proximal step and broadcasts the iterate.  The centralized solver is
the default p = 1: one shard holding every index, sampled from the
stream seeded by the solver's seed, with weight 1.0.  The reference
baselines in the diagnostics module run the same loop and driver with
one step per epoch.

Determinism contract: a run is fully determined by (problem, config,
seed).  Full passes (batch or inner sample size equal to m) never touch
the random stream and reproduce deterministic proximal gradient bit for
bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .composite import (
    CompositeProblem,
    OracleCounter,
    batch_estimates,
    delta_update,
    evaluate_psi,
    gradient_mapping,
)
from .constraints import max_violation, project_feasible
from .reductions import DivergenceError, NumericalRangeError

FIXED_SQRT_M = "fixed_sqrt_m"
ADAPTIVE = "adaptive"
FULL_BATCH = "full_batch"

DIVERGENCE_FACTOR = 1e6  # psi growth over max(1, |psi(x0)|) that ends a run

# Salt for the output-selection stream, kept apart from the sampling
# streams so runs on any number of workers select alike.
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
    """Per-family oracle calls of K stages: K * sum_t (B_t + 2 S_t (tau_t - 1)),
    the one-device case of dist_expected_oracle_calls."""
    return dist_expected_oracle_calls(schedule, T, m, 1, K)[0]


def shard_sizes(m, p):
    """The row counts of the p workers' contiguous shards of range(m):
    m // p rows each, the remainder on the last worker."""
    if p > m:
        raise ValueError(f"more workers ({p}) than components ({m})")
    base = m // p
    return [base] * (p - 1) + [m - base * (p - 1)]


def dist_expected_oracle_calls(schedule, T, m, p, K=1):
    """Per-device oracle calls per family under the sharded schedule.

    The opening batch term splits across devices (a full batch costs each
    device its shard); the inner term 2*S_t*(tau_t - 1) is paid by every
    device, except that a full inner pass also reduces to the shard.
    """
    sizes = shard_sizes(m, p)
    totals = [0] * p
    for t in range(1, T + 1):
        tau, S, B = schedule.params(t, m)
        b_shares = sizes if B >= m else split_batch(B, sizes)
        for i in range(p):
            inner = sizes[i] if S >= m else S
            totals[i] += b_shares[i] + 2 * inner * (tau - 1)
    return [K * t for t in totals]


@dataclass
class SolverConfig:
    """Solver configuration: step size, epochs per stage, restart stages
    and worker count.

    Worker i owns the i-th contiguous shard of shard_sizes(m, p) and
    samples with a stream seeded by seed ^ i, so the one worker of the
    default p = 1 samples with the seed's own stream.
    """

    eta: float
    T: int
    K: int = 1
    schedule: Schedule = field(default_factory=Schedule)
    seed: int = 0
    output_rule: str = "last_iterate"
    grad_map_every: int = 0  # 0: exact gradient mapping at epoch ends only
    p: int = 1

    def __post_init__(self):
        if self.eta < 0:
            raise ValueError("eta must be nonnegative")
        if self.T < 1 or self.K < 1:
            raise ValueError("T and K must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.output_rule not in ("last_iterate", "uniform_random_iterate"):
            raise ValueError(f"unknown output rule {self.output_rule!r}")
        if self.p < 1:
            raise ValueError("worker count must be >= 1")


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
    counters: OracleCounter  # the devices' and the server's, summed
    final_x: np.ndarray
    wall_time: float
    final_psi: Optional[float] = None
    stage_outputs: list = field(default_factory=list)
    per_device_counters: list = field(default_factory=list)  # one per worker
    projection: Optional[dict] = None  # constrained runs only


def split_batch(total, sizes):
    """Largest-remainder split of a batch across shards, proportional to size."""
    if total < len(sizes):
        raise ValueError(
            f"batch of {total} cannot cover {len(sizes)} workers; "
            "delay the ramp (larger zeta) or reduce the worker count"
        )
    sizes = np.asarray(sizes, dtype=float)
    exact = total * sizes / sizes.sum()
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


def _draw(sizes, rngs, shares):
    """shares[i] uniform draws, with replacement, from the i-th contiguous
    shard of the given sizes with its own stream rngs[i], concatenated in
    shard order."""
    draws, lo = [], 0
    for size, rng, share in zip(sizes, rngs, shares):
        draws.append(lo + rng.integers(0, size, size=share))
        lo += size
    return _joined(draws)


def _joined(parts):
    """The parts concatenated; one part is itself, uncopied."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _weighted_sum(parts, weights):
    """sum_k weights[k] * parts[k], in index order; one part of weight 1.0
    is itself, as 1.0 * x is x exactly."""
    if len(parts) == 1 and weights[0] == 1.0:
        return parts[0]
    total = weights[0] * parts[0]
    for w, part in zip(weights[1:], parts[1:]):
        total = total + w * part
    return total


def run_epoch(problem, x, t, schedule, eta, sizes, rngs, counters,
              server_counter, *, stage=1, on_step=None):
    """One epoch: batch estimates at the iterate x, then tau proximal
    steps (the first from the batch estimators, the remaining tau-1
    after sampled estimator corrections), over components split into
    contiguous shards of the given sizes.

    Shard i keeps its own estimator triple, samples from its rows with
    rngs[i] and charges its oracle calls to counters[i].  Each read of
    the estimators concatenates the shards' rows, in shard order, into
    one batch: one call per oracle field and point for all shards
    together, reduced per shard over its own contiguous segment, which
    charges that shard's counter.  The opening batch of B_t splits
    across the shards by size (every shard in full when B_t = m).  Each
    of the tau proximal steps uses the size-weighted mean of the shard
    estimators, reduced in shard order, and charges its outer-map and
    prox calls to server_counter.

    A full inner pass (S_t = m) corrects the estimators with the
    association exact_mean(x_new) + (estimate - exact_mean(x_old)),
    algebraically identical to the delta recursion, whose correction
    term vanishes bit-exactly once the estimators track the exact
    means, so full-batch runs reproduce plain proximal gradient bit for
    bit.  Both paths evaluate every index at the two points, keeping the
    per-family cost at 2*S.

    After each step it passes (stage, t, j, tau, x, grad_est, x_new) to
    the on_step hook, if given: the step's start point, estimate and new
    iterate.  It returns the last iterate: the next epoch opens its
    estimators afresh.  A non-finite iterate or gradient estimate (a box
    prox clips an infinite step to a finite iterate) or an
    ArithmeticError in a step (the opening batch is step 0) raises
    NumericalRangeError naming stage, epoch, step.
    """
    m = problem.m
    tau, S, B = schedule.params(t, m)
    if S < 1 or B < 1:
        raise ValueError("schedule produced an empty batch")
    weights = [size / m for size in sizes]
    shares = sizes if B >= m else split_batch(B, sizes)
    inner = [S] * len(sizes)
    every = np.arange(m) if max(B, S) >= m else None

    x_cur = np.asarray(x, dtype=float)
    x_prev = x_cur
    j = 0
    try:
        # batch_estimates and delta_update are read from this module at
        # call time, so wrappers of the module names see every call
        batch = every if B >= m else _draw(sizes, rngs, shares)
        est = batch_estimates(problem, batch, x_cur, counters,
                              segments=shares)

        for j in range(tau):
            if j > 0:
                if S >= m:
                    new, old = (batch_estimates(problem, every, point,
                                                counters, segments=sizes)
                                for point in (x_cur, x_prev))
                    est = [tuple(a + (e - b) for a, e, b in zip(*triples))
                           for triples in zip(new, est, old)]
                else:
                    est = delta_update(
                        problem, _draw(sizes, rngs, inner),
                        x_cur, x_prev, *zip(*est), counters, segments=inner)
            y, z, w = (_weighted_sum(parts, weights) for parts in zip(*est))
            _, fprime = problem.f_outer(y)
            grad_est = z.T @ fprime + w
            x_prev = x_cur
            x_cur = problem.r_term.prox(x_cur - eta * grad_est, eta)
            server_counter.f_outer_calls += 1
            server_counter.prox_calls += 1
            if not np.isfinite(x_cur).all():
                bad = "iterate"
                break
            if not np.isfinite(grad_est).all():
                bad = "gradient estimate"
                break
            if on_step is not None:
                on_step(stage, t, j, tau, x_prev, grad_est, x_cur)
        else:
            return x_cur
    except ArithmeticError as exc:
        raise NumericalRangeError(
            f"{type(exc).__name__}: {exc} at stage {stage}, epoch {t}, "
            f"step {j}") from exc
    # reached only through a break on a non-finite value
    raise NumericalRangeError(
        f"non-finite {bad} at stage {stage}, epoch {t}, step {j}")


def _smooth_value(problem, x):
    """r(x) + mean_i h_i(x): Psi without the outer map, which for a
    Wasserstein problem is the objective without the penalty."""
    _, h_vals = (problem.component_values or problem._stacked_values)(x)
    return float(problem.r_term.value(x) + float(np.sum(h_vals)) / problem.m)


def solve(problem_builder, x0, config: SolverConfig, *, constraints=None,
          probe=None) -> SolverReport:
    """K warm-started stages of T epochs on config.p simulated workers,
    worker i on the i-th contiguous shard of shard_sizes(m, p).
    problem_builder is either a fixed CompositeProblem or a callable
    (stage_index, x_start) -> problem, which lets parameterized
    objectives re-anchor per stage.

    After every proximal step the driver calls probe(stage, t, j, x,
    grad_est), records the new iterate (counter snapshots summed over
    the devices, the gradient mapping at the grad_map_every cadence,
    the violation of `constraints` if given) and keeps it as an output
    candidate.  Each stage outputs its last iterate, or a uniform-random
    one drawn from the selection stream.  A run whose recorded psi
    exceeds DIVERGENCE_FACTOR * max(1, |psi(x0)|) on stage 1's problem
    raises DivergenceError at its end, naming the first such step.
    Given constraints, the server ends the run with one projection onto
    them, and its report dict: _smooth_value before and after, their
    gap, the residual and the iterations.  final_psi is read on the
    last stage's problem.

    The report carries one OracleCounter per device (that device's g/h
    evaluations) and their sum with the server's counter (the outer-map,
    prox and projection calls) as the totals.
    """
    builder = problem_builder
    if isinstance(problem_builder, CompositeProblem):
        builder = lambda k, x_start: problem_builder
    if config.p == 1:
        run = run_epoch
    else:
        # run_epoch under its second name, which exists only for the
        # benchmark's tracer: it wraps both names to tell 1-worker epochs
        # from p-worker ones.  Imported here: that module imports this one
        from . import distributed
        run = distributed.dist_run_epoch

    rngs = [np.random.default_rng(config.seed ^ i) for i in range(config.p)]
    devices = [OracleCounter() for _ in range(config.p)]
    server = OracleCounter()
    select_rng = np.random.default_rng(int(config.seed) ^ _SELECT_SALT)
    collect = config.output_rule == "uniform_random_iterate"
    every = config.grad_map_every
    start = time.perf_counter()
    records = []

    def on_step(stage, t, j, tau, x, grad_est, x_new):
        if probe is not None:
            probe(stage, t, j, x, grad_est)
        if collect:
            candidates.append(x_new.copy())
        if every > 0:
            at_cadence = (j + 1) % every == 0
        else:  # 0: at epoch ends only
            at_cadence = every == 0 and j == tau - 1
        gm = (gradient_mapping(problem, config.eta, x_new)[1]
              if config.eta > 0 and at_cadence else None)
        viol = (max_violation(constraints, x_new)
                if constraints is not None else None)
        records.append(TrajectoryRecord(
            stage=stage, epoch=t, step=j, psi=evaluate_psi(problem, x_new),
            grad_map_sq=gm, max_violation=viol,
            g_calls=sum(c.g_value_calls for c in devices),
            h_calls=sum(c.h_gradient_calls for c in devices),
            wall_s=time.perf_counter() - start))

    x = np.asarray(x0, dtype=float)
    stage_outputs = []
    # the non-finite and range checks locate what numpy would warn of
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, config.K + 1):
            problem = builder(k, x)
            if k == 1:
                psi_limit = DIVERGENCE_FACTOR * max(
                    1.0, abs(evaluate_psi(problem, x)))
            sizes = shard_sizes(problem.m, config.p)
            candidates = [x.copy()]
            for t in range(1, config.T + 1):
                x = run(problem, x, t, config.schedule, config.eta, sizes,
                        rngs, devices, server, stage=k, on_step=on_step)
            if collect:
                x = candidates[int(select_rng.integers(0, len(candidates)))]
            stage_outputs.append(x.copy())
    tripped = next((r for r in records if not r.psi <= psi_limit), None)
    if tripped is not None:
        raise DivergenceError(
            f"diverged at stage {tripped.stage}, epoch {tripped.epoch}, "
            f"step {tripped.step}: psi {tripped.psi:.3e} exceeds "
            f"{psi_limit:.3e}")
    projection = None
    if constraints is not None:
        x_raw = x
        reads = constraints.jacobian_calls
        x, residual, iterations = project_feasible(constraints, x_raw)
        server.projection_calls += 1
        before, after = (_smooth_value(problem, v) for v in (x_raw, x))
        projection = {
            "objective_before": before, "objective_after": after,
            "gap": after - before, "residual": residual,
            "iterations": iterations,
            "jacobian_calls": constraints.jacobian_calls - reads}
    return SolverReport(
        trajectory=records,
        counters=sum(devices, server),
        final_x=x,
        wall_time=time.perf_counter() - start,
        final_psi=evaluate_psi(problem, x),
        stage_outputs=stage_outputs,
        per_device_counters=devices,
        projection=projection,
    )

