from dataclasses import asdict

import numpy as np
import pytest

from drsum.constraints import ConstraintSet

from drsum.distributed import (
    DistConfig,
    dist_expected_oracle_calls,
    dist_solve,
    split_batch,
)
from drsum.reductions import Chi2Config, build_chi2, build_mean
from drsum.solver import SolverConfig, Schedule, expected_oracle_calls, solve_restarted

from conftest import quadratic_losses


def chi2_problem(m=16, gamma=10.0, seed=7):
    losses, d, _, _ = quadratic_losses(m=m, d=5, seed=seed)
    return build_chi2(losses, Chi2Config(gamma=gamma), dim=d), d


class TestSingleWorkerEquivalence:
    def test_bit_identical_trajectory_and_counters(self):
        prob, d = chi2_problem()
        central_cfg = SolverConfig(eta=0.05, T=4, K=2, seed=11)
        dist_cfg = DistConfig(eta=0.05, T=4, K=2, seed=11, p=1)

        central = solve_restarted(prob, np.zeros(d), central_cfg)
        dist = dist_solve(prob, np.zeros(d), dist_cfg)

        assert np.array_equal(central.final_x, dist.final_x)
        assert [r.psi for r in central.trajectory] == [r.psi for r in dist.trajectory]
        dev = dist.per_device_counters[0]
        assert dev.g_value_calls == central.counters.g_value_calls
        assert dev.g_jacobian_calls == central.counters.g_jacobian_calls
        assert dev.h_gradient_calls == central.counters.h_gradient_calls
        assert dist.counters.as_dict() == central.counters.as_dict()

    @pytest.mark.parametrize("schedule", [
        Schedule(mode="fixed_sqrt_m"),
        Schedule(mode="adaptive", beta=1.0, zeta=1.0),  # B_t < m early on
        Schedule(mode="full_batch", tau=3),
    ], ids=lambda s: s.mode)
    @pytest.mark.parametrize("grad_map_every", [0, 2])
    def test_bit_identical_every_record_field(self, schedule,
                                              grad_map_every):
        prob, d = chi2_problem()
        cset = ConstraintSet.affine(np.eye(d), np.full(d, -0.1))
        common = dict(eta=0.05, T=4, K=2, seed=11, schedule=schedule,
                      grad_map_every=grad_map_every)
        central_cfg = SolverConfig(**common)
        dist_cfg = DistConfig(**common, p=1)

        central = solve_restarted(prob, np.zeros(d), central_cfg,
                                  violation_set=cset)
        dist = dist_solve(prob, np.zeros(d), dist_cfg, violation_set=cset)

        assert np.array_equal(central.final_x, dist.final_x)

        def fields(report):
            return [{k: v for k, v in asdict(r).items() if k != "wall_s"}
                    for r in report.trajectory]

        assert fields(central) == fields(dist)
        assert any(r.max_violation for r in central.trajectory)
        dev = dist.per_device_counters[0]
        assert dev.g_value_calls == central.counters.g_value_calls
        assert dev.g_jacobian_calls == central.counters.g_jacobian_calls
        assert dev.h_gradient_calls == central.counters.h_gradient_calls
        assert dist.counters.as_dict() == central.counters.as_dict()

    def test_bit_identical_with_random_output_rule(self):
        prob, d = chi2_problem()
        central = solve_restarted(
            prob, np.zeros(d),
            SolverConfig(eta=0.05, T=3, K=1, seed=5,
                        output_rule="uniform_random_iterate"))
        dist = dist_solve(
            prob, np.zeros(d),
            DistConfig(eta=0.05, T=3, K=1, seed=5, p=1,
                       output_rule="uniform_random_iterate"))
        assert np.array_equal(central.final_x, dist.final_x)


class TestFullBatchEquivalence:
    @pytest.mark.parametrize("p", [2, 4])
    def test_matches_centralized_within_summation_tolerance(self, p):
        prob, d = chi2_problem()
        schedule = Schedule(mode="full_batch", tau=3)
        central_iters, dist_iters = [], []
        solve_restarted(prob, np.zeros(d),
                        SolverConfig(eta=0.05, T=3, K=1, seed=0, schedule=schedule),
                        probe=lambda s, t, j, x, g: central_iters.append(x.copy()))
        dist_solve(prob, np.zeros(d),
                   DistConfig(eta=0.05, T=3, K=1, seed=0, schedule=schedule, p=p),
                   probe=lambda s, t, j, x, g: dist_iters.append(x.copy()))
        assert len(central_iters) == len(dist_iters) == 9
        for a, b in zip(central_iters, dist_iters):
            assert np.max(np.abs(a - b)) < 1e-10

    def test_unequal_shards_weighted_mean_identity(self):
        prob, d = chi2_problem(m=10)
        schedule = Schedule(mode="full_batch", tau=2)
        partition = [np.arange(0, 3), np.arange(3, 10)]
        central = solve_restarted(
            prob, np.zeros(d), SolverConfig(eta=0.05, T=2, K=1, schedule=schedule))
        dist = dist_solve(
            prob, np.zeros(d),
            DistConfig(eta=0.05, T=2, K=1, schedule=schedule, p=2,
                       partition=partition))
        assert np.max(np.abs(central.final_x - dist.final_x)) < 1e-10

    def test_hand_computed_full_batch_mean(self):
        # four linear components with slopes 1..4, two workers: the server
        # average of the shard means is the global mean slope at x = 1
        slopes = np.array([1.0, 2.0, 3.0, 4.0])

        def make(i):
            def f(x):
                return slopes[i] * float(x[0]), np.array([slopes[i]])
            return f

        prob = build_mean([make(i) for i in range(4)], dim=1)
        grads = []
        dist_solve(prob, np.array([1.0]),
                   DistConfig(eta=0.0, T=1, K=1, p=2,
                              schedule=Schedule(mode="full_batch", tau=1)),
                   probe=lambda s, t, j, x, g: grads.append(g.copy()))
        # estimator of the mean value at x0=1 equals mean(slopes) = 2.5;
        # with identity outer map the step gradient is the mean jacobian
        assert grads[0][0] == pytest.approx(2.5)


class TestPerDeviceCounters:
    def test_sharded_formula_m16_p4(self):
        prob, d = chi2_problem()
        dcfg = DistConfig(eta=0.05, T=2, K=1, seed=3, p=4)
        report = dist_solve(prob, np.zeros(d), dcfg)
        expected = dist_expected_oracle_calls(dcfg.schedule, 2, 16, 4)
        assert expected == [56, 56, 56, 56]
        for dev, want in zip(report.per_device_counters, expected):
            assert dev.g_value_calls == want
            assert dev.g_jacobian_calls == want
            assert dev.h_gradient_calls == want

    def test_batch_term_scales_inner_term_fixed(self):
        schedule = Schedule(mode="fixed_sqrt_m")
        m, T = 16, 3
        per2 = dist_expected_oracle_calls(schedule, T, m, 2)[0]
        per4 = dist_expected_oracle_calls(schedule, T, m, 4)[0]
        inner = 2 * 4 * 3 * T  # 2 * S * (tau - 1) per epoch, all devices
        assert per2 - inner == T * m // 2
        assert per4 - inner == T * m // 4

    def test_total_is_sum_of_device_formulas(self):
        # every device pays the full inner term; only the batch term shards,
        # so the grand total is the sum of the per-device formula
        prob, d = chi2_problem()
        dcfg = DistConfig(eta=0.05, T=3, K=2, seed=9, p=4)
        report = dist_solve(prob, np.zeros(d), dcfg)
        per_device = dist_expected_oracle_calls(dcfg.schedule, 3, 16, 4, K=2)
        assert report.counters.g_value_calls == sum(per_device)
        assert sum(per_device) > expected_oracle_calls(dcfg.schedule, 3, 16, K=2)


class TestAggregationOrder:
    def test_worker_completion_order_irrelevant(self):
        prob, d = chi2_problem()
        dcfg = DistConfig(eta=0.05, T=3, K=1, seed=21, p=4)
        base = dist_solve(prob, np.zeros(d), dcfg)
        permuted = dist_solve(prob, np.zeros(d), dcfg, exec_order=[3, 1, 0, 2])
        assert np.array_equal(base.final_x, permuted.final_x)
        assert [r.psi for r in base.trajectory] == [r.psi for r in permuted.trajectory]


class TestValidation:
    def test_more_workers_than_components(self):
        prob, d = chi2_problem(m=4)
        with pytest.raises(ValueError):
            dist_solve(prob, np.zeros(d), DistConfig(eta=0.1, T=1, p=8))

    def test_partition_must_cover_indices(self):
        prob, d = chi2_problem(m=6)
        bad = DistConfig(eta=0.1, T=1, p=2,
                         partition=[np.array([0, 1]), np.array([2, 3])])
        with pytest.raises(ValueError):
            dist_solve(prob, np.zeros(d), bad)

    def test_split_batch(self):
        assert split_batch(8, [4, 4]) == [4, 4]
        assert sum(split_batch(7, [3, 3, 4])) == 7
        assert min(split_batch(3, [5, 5, 5])) == 1
        with pytest.raises(ValueError):
            split_batch(1, [2, 2])

    def test_default_partition_remainder_to_last(self):
        dcfg = DistConfig(eta=0.1, T=1, p=3)
        shards = dcfg.resolve_partition(10)
        assert [len(s) for s in shards] == [3, 3, 4]
