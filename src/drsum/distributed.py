"""Simulated multi-worker variant of the variance-reduced solver.

The m components are partitioned across p workers.  Every worker keeps
its own three estimators over its shard and samples exclusively from it;
the server averages the worker estimators (weighted by shard size, in
fixed worker order), takes the proximal step, and broadcasts the
iterate.  The simulation is a synchronous round model: no networking,
no failures, and results are independent of worker execution order.
It costs one call per oracle field and point per step across all
workers: each step concatenates the workers' sampled rows into one
batch, and every worker's estimators and per-device counter advance by
its own segment of it.  exec_order orders only the per-worker draws.

The epoch loop and the stage driver live in the solver module: the
loop reports each proximal step through one hook, and the driver
records steps, applies the output rule and ends a constrained run with
its one projection.  This module supplies the partition, the
per-worker streams and the per-device accounting.  The centralized
solver is the p = 1 case of the same loop, so with p = 1 the sampling
stream, the arithmetic, and hence the whole trajectory coincide bit for
bit with it under the same seed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
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
    _run_stages,
    _sharded_epoch,
)
# re-exported: the closed-form call counts and the batch split live in solver
from .solver import dist_expected_oracle_calls, split_batch  # noqa: F401


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
            raise ValueError(f"more workers ({self.p}) than components ({m})")
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


def dist_run_epoch(problem, x, t, dcfg: DistConfig, shards,
                   worker_rngs, device_counters, server_counter, *,
                   stage=1, exec_order=None, on_step=None):
    """One synchronous distributed epoch: the solver's sharded epoch with
    one shard per worker.  Each step makes one call per oracle field and
    point for all workers together; each worker's estimators and
    device counter advance by its own segment of the batch.  exec_order
    orders only the per-worker draws; the server reduces in fixed index
    order.  Returns the last iterate.
    """
    return _sharded_epoch(
        problem, x, t, dcfg.schedule, dcfg.eta, shards, worker_rngs,
        device_counters, server_counter, stage=stage, on_step=on_step,
        order=exec_order)


def dist_solve(problem_builder, x0, dcfg: DistConfig, *,
               constraints=None, exec_order=None, probe=None) -> SolverReport:
    """K warm-started stages of the simulated distributed solver; given a
    constraint set, the server ends the run with one projection onto it.

    The report carries one OracleCounter per device (that device's g/h
    evaluations) alongside the merged totals; the server-side outer-map,
    prox and projection calls live only in the totals.
    """
    worker_rngs = [np.random.default_rng(dcfg.seed ^ i) for i in range(dcfg.p)]
    device_counters = [OracleCounter() for _ in range(dcfg.p)]
    server_counter = OracleCounter()
    # resolve_partition sorts, concatenates and validates: once per run
    partition = functools.cache(dcfg.resolve_partition)
    # looked up per call, so wrappers of the module name see every epoch
    epoch = lambda problem, x, t, **hook: dist_run_epoch(
        problem, x, t, dcfg, partition(problem.m),
        worker_rngs, device_counters, server_counter,
        exec_order=exec_order, **hook)
    report = _run_stages(problem_builder, x0, dcfg, epoch, device_counters,
                         server_counter, constraints=constraints, probe=probe)
    # devices count only g/h calls, the server the outer-map, prox and
    # projection calls
    report.counters = sum(device_counters, server_counter)
    report.per_device_counters = device_counters
    return report
