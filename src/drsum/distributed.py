"""Simulated multi-worker variant of the variance-reduced solver.

The m components are partitioned across p workers.  Every worker keeps
its own three estimators over its shard and samples exclusively from it;
the server averages the worker estimators (weighted by shard size, in
fixed worker order), takes the proximal step, and broadcasts the
iterate.  The simulation is a synchronous round model: no networking,
no failures, and results are independent of worker execution order.

The epoch loop and the stage driver live in the solver module; this
module supplies the partition, the per-worker streams and the
per-device accounting.  The centralized solver is the p = 1 case of the
same loop, so with p = 1 the sampling stream, the arithmetic, and hence
the whole trajectory coincide bit for bit with it under the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .composite import OracleCounter
# Bound but unused: the benchmark's tracer patches these names in this module.
from .composite import (  # noqa: F401
    batch_estimates,
    delta_update,
    evaluate_psi,
    gradient_mapping,
)
from .constraints import max_violation  # noqa: F401
from .solver import (
    SolverConfig,
    SolverReport,
    _run_stage,
    _run_stages,
    _sharded_epoch,
    split_batch,
)


@dataclass
class DistConfig(SolverConfig):
    """Solver configuration plus worker count and data partition.

    partition maps each worker to the component indices it owns; the
    default is a contiguous equal split with the remainder on the last
    worker.  Worker i samples with a stream seeded by seed ^ i, so
    worker 0 of a single-worker run replays the centralized stream.
    """

    p: int = 1
    partition: Optional[list] = None

    def __post_init__(self):
        super().__post_init__()
        if self.p < 1:
            raise ValueError("worker count must be >= 1")

    def resolve_partition(self, m):
        if self.p > m:
            raise ValueError("more workers than components")
        if self.partition is not None:
            shards = [np.asarray(s, dtype=int) for s in self.partition]
            if len(shards) != self.p:
                raise ValueError("one shard per worker required")
            flat = np.sort(np.concatenate(shards))
            if not np.array_equal(flat, np.arange(m)):
                raise ValueError("partition must assign every index exactly once")
            return shards
        base = m // self.p
        shards = []
        for i in range(self.p):
            hi = (i + 1) * base if i < self.p - 1 else m
            shards.append(np.arange(i * base, hi))
        return shards


def dist_expected_oracle_calls(schedule, T, m, p, K=1, partition_sizes=None):
    """Per-device oracle calls per family under the sharded schedule.

    The opening batch term splits across devices (a full batch costs each
    device its shard); the inner term 2*S_t*(tau_t - 1) is paid by every
    device, except that a full inner pass also reduces to the shard.
    """
    if partition_sizes is None:
        base = m // p
        partition_sizes = [base] * (p - 1) + [m - base * (p - 1)]
    totals = [0] * p
    for t in range(1, T + 1):
        tau, S, B = schedule.params(t, m)
        if B >= m:
            b_shares = list(partition_sizes)
        else:
            b_shares = split_batch(B, partition_sizes)
        for i in range(p):
            inner = partition_sizes[i] if S >= m else S
            totals[i] += b_shares[i] + 2 * inner * (tau - 1)
    return [K * t for t in totals]


def _merge_counters(device_counters, server_counter):
    total = OracleCounter()
    for c in device_counters:
        total.g_value_calls += c.g_value_calls
        total.g_jacobian_calls += c.g_jacobian_calls
        total.h_gradient_calls += c.h_gradient_calls
    total.f_outer_calls = server_counter.f_outer_calls
    total.prox_calls = server_counter.prox_calls
    total.projection_calls = server_counter.projection_calls
    return total


def dist_run_epoch(problem, state, t, dcfg: DistConfig, shards,
                   worker_rngs, device_counters, server_counter, *,
                   stage=1, start_time=None, violation_set=None,
                   exec_order=None, candidates=None, probe=None):
    """One synchronous distributed epoch: the solver's sharded epoch with
    one shard per worker, visited in exec_order and reduced in fixed
    index order.  Returns (state, records); the state carries the
    server-averaged estimators.
    """
    return _sharded_epoch(
        problem, state.x, t, dcfg.schedule, dcfg.eta, shards, worker_rngs,
        device_counters, server_counter, stage=stage, start_time=start_time,
        grad_map_every=dcfg.grad_map_every, violation_set=violation_set,
        probe=probe, candidates=candidates, order=exec_order)


def dist_solve(problem_builder, x0, dcfg: DistConfig, *,
               violation_set=None, exec_order=None, probe=None) -> SolverReport:
    """K warm-started stages of the simulated distributed solver.

    The report carries one OracleCounter per device (that device's g/h
    evaluations) alongside the merged totals; the server-side outer-map
    and prox calls live only in the totals.
    """
    worker_rngs = [np.random.default_rng(dcfg.seed ^ i) for i in range(dcfg.p)]
    device_counters = [OracleCounter() for _ in range(dcfg.p)]
    server_counter = OracleCounter()

    def run(problem, x_start, **kwargs):
        epoch = partial(
            dist_run_epoch, dcfg=dcfg,
            shards=dcfg.resolve_partition(problem.m), worker_rngs=worker_rngs,
            device_counters=device_counters, server_counter=server_counter,
            violation_set=violation_set, exec_order=exec_order, probe=probe)
        return _run_stage(problem, x_start, dcfg, epoch, **kwargs)

    report = _run_stages(problem_builder, x0, dcfg, run)
    report.counters = _merge_counters(device_counters, server_counter)
    report.per_device_counters = device_counters
    return report
