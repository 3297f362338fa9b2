"""Checks of the benchmark's own helpers against the program.

Run from the repository root:  python -m pytest perfbench/tests
"""

import numpy as np
import pytest
from scipy.optimize import check_grad

import drsum.solver as solver
from drsum.cli import Experiment, load_config
from drsum.composite import evaluate_psi
from drsum.distributed import dist_expected_oracle_calls
from drsum.reductions import WassersteinConfig, build_wasserstein
from drsum.solver import expected_oracle_calls

from reference import (closed_form_calls, component_count, reference_for)
from tracing import Tracer
from conftest import BENCH

# g (= h) calls of one solve, total and per device
COUNTERS = {
    "chi2_quad_m1024": [24_064],
    "kl_dist4_logistic_m1024": [17_920] * 4,
    "drlogistic_m20": [12_500],
    "fairness_m120": [720],
}


def _config(workload, seed=0, **solver_overrides):
    cfg = load_config(BENCH / "workloads" / f"{workload}.ini")
    cfg["problem"]["data_seed"] = cfg["solver"]["seed"] = str(seed)
    cfg["solver"].update({k: str(v) for k, v in solver_overrides.items()})
    return cfg


@pytest.fixture(scope="module")
def experiments():
    return {w: Experiment(_config(w)) for w in COUNTERS}


@pytest.mark.parametrize("workload", sorted(COUNTERS))
def test_closed_form_counters_match_program(experiments, workload):
    exp = experiments[workload]
    cfg = exp.solver_cfg
    m = component_count(exp.cfg, exp.dataset)
    p = getattr(cfg, "p", 1)
    ours = closed_form_calls(m, cfg.T, cfg.K, p)
    assert ours == COUNTERS[workload]
    if p > 1:
        assert ours == dist_expected_oracle_calls(cfg.schedule, cfg.T, m, p,
                                                  cfg.K)
    else:
        assert ours == [expected_oracle_calls(cfg.schedule, cfg.T, m, cfg.K)]


@pytest.mark.parametrize("workload", sorted(COUNTERS))
def test_reference_objectives_match_evaluate_psi(experiments, workload):
    exp = experiments[workload]
    ref = reference_for(exp)
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = 0.5 * rng.standard_normal(exp.x0().size)
        if ref.constrained:
            wcfg = WassersteinConfig(alpha=exp.wcfg.alpha, gamma=exp.wcfg.gamma)
            problem = build_wasserstein(exp.objective, exp.constraints, wcfg,
                                        shift_anchor=x, dim=x.size)
            np.testing.assert_allclose(ref.constraint_values(x),
                                       exp.constraints.values(x),
                                       rtol=1e-12, atol=1e-14)
            assert check_grad(lambda v: ref.constraint_values(v)[0],
                              lambda v: ref.constraint_jacobian(v)[0],
                              x) < 1e-6
        else:
            problem = exp.problem
            assert check_grad(ref.psi, lambda v: ref.value_grad(v)[1],
                              x) < 1e-5 * (1 + np.linalg.norm(x))
        assert ref.psi(x) == pytest.approx(evaluate_psi(problem, x),
                                           rel=1e-12, abs=1e-14)


def test_tracer_fires_every_hook_and_restores_the_program():
    original = solver.run_epoch
    tracer = Tracer()
    tracer.install()
    try:
        exp = Experiment(_config("drlogistic_m20", t=3))
        tracer.phase("solve")
        report = exp.run()
    finally:
        tracer.uninstall()
    assert solver.run_epoch is original
    assert tracer.count("solve", "reductions.g_oracle") >= \
        report.counters.g_value_calls
    missing = [msg for msg in tracer.missing_spans("drlogistic_m20")
               if not msg.startswith("write")]
    assert missing == []
