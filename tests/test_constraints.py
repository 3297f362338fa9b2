from dataclasses import replace

import numpy as np
import pytest

from conftest import dr_logistic_batch, dr_logistic_rows, reference_set
from drsum.composite import at_index
from drsum.constraints import (
    ConstraintSet,
    ProjectionError,
    max_violation,
    project_feasible,
)
from drsum.reductions import build_dr_logistic


class TestMaxViolation:
    def test_feasible_is_zero(self):
        cset = ConstraintSet.affine(np.eye(2), np.ones(2))
        assert max_violation(cset, np.array([-1.0, 0.5])) == 0.0

    def test_componentwise_max(self):
        cset = ConstraintSet.from_functions(
            [lambda x, v=v: (v, np.zeros(1)) for v in (-1.0, 0.3, 0.1)])
        assert max_violation(cset, np.zeros(1)) == pytest.approx(0.3)

    def test_dr_logistic_binding_loss(self):
        Z = np.array([[1.0, 0.0]])
        y = np.array([1.0])
        _, cset = build_dr_logistic((Z, y), eps_radius=0.1, kappa_flip=1.0)
        # beta = 0, lam = 1, s = 0: the plain loss constraint ln 2 binds
        x = np.array([0.0, 0.0, 1.0, 0.0])
        assert max_violation(cset, x) == pytest.approx(np.log(2.0))


class TestAffineProjection:
    def test_feasible_point_untouched(self):
        cset = ConstraintSet.affine(np.eye(2), np.ones(2))
        x = np.array([0.2, -0.3])
        x_proj, residual, iters = project_feasible(cset, x)
        assert np.array_equal(x_proj, x)
        assert residual == 0.0
        assert iters == 0

    def test_single_halfspace(self):
        cset = ConstraintSet.affine(np.array([[1.0, 0.0]]), np.array([1.0]))
        x_proj, residual, _ = project_feasible(cset, np.array([2.0, 0.0]))
        assert np.allclose(x_proj, [1.0, 0.0], atol=1e-10)
        assert residual <= 1e-8

    def test_orthant_corner(self):
        cset = ConstraintSet.affine(np.eye(2), np.zeros(2))
        x_proj, residual, _ = project_feasible(cset, np.array([1.0, 1.0]))
        assert np.allclose(x_proj, [0.0, 0.0], atol=1e-10)
        assert residual <= 1e-8

    def test_oblique_halfspaces_match_quadratic_solve(self):
        # independent oracle: exact projection onto one active halfspace
        a = np.array([1.0, 2.0])
        cset = ConstraintSet.affine(a.reshape(1, -1), np.array([1.0]))
        x = np.array([3.0, 1.0])
        x_proj, _, _ = project_feasible(cset, x)
        expected = x - (a @ x - 1.0) / (a @ a) * a
        assert np.allclose(x_proj, expected, atol=1e-10)

    def test_idempotence(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((4, 3))
        cset = ConstraintSet.affine(A, rng.uniform(0.5, 1.5, size=4))
        x = 5.0 * rng.standard_normal(3)
        once, _, _ = project_feasible(cset, x)
        twice, _, _ = project_feasible(cset, once)
        assert np.allclose(once, twice, atol=1e-8)

    def test_variational_optimality(self):
        # <x - proj, y - proj> <= tol * ||x - proj|| for feasible y
        rng = np.random.default_rng(1)
        A = np.vstack([np.eye(2), -np.eye(2)])  # box [-1, 1]^2
        cset = ConstraintSet.affine(A, np.ones(4))
        x = np.array([2.5, 0.7])
        proj, _, _ = project_feasible(cset, x)
        gap = np.linalg.norm(x - proj)
        for _ in range(100):
            y = rng.uniform(-1.0, 1.0, size=2)
            assert (x - proj) @ (y - proj) <= 1e-8 * gap + 1e-12

    def test_nonconvergence_error_carries_residual(self):
        # infeasible intersection: x1 <= -1 and -x1 <= -1 (i.e. x1 >= 1)
        cset = ConstraintSet.affine(np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0]))
        with pytest.raises(ProjectionError) as err:
            project_feasible(cset, np.array([0.0]), max_iter=200)
        assert err.value.residual > 0


class TestProjectionError:
    """The error names why the solve stopped and the residual there."""

    def test_inconsistent_linearization_names_its_iteration(self):
        # affine constraints are their own linearization: x1 <= -1 and
        # x1 >= 1 have no common point, which the first subproblem finds
        cset = ConstraintSet.affine(np.array([[1.0], [-1.0]]),
                                    np.array([-1.0, -1.0]))
        with pytest.raises(ProjectionError) as err:
            project_feasible(cset, np.array([0.0]))
        assert str(err.value) == ("linearized constraints infeasible at "
                                  "iteration 0: residual 1.000e+00")
        assert err.value.residual == 1.0

    def test_iteration_bound_names_itself(self):
        # the disc from (2, 2): one step lands on the tangent plane
        # y1 + y2 = 2.25, still outside the disc
        with pytest.raises(ProjectionError) as err:
            project_feasible(disc_set(), np.array([2.0, 2.0]), max_iter=1)
        assert str(err.value).startswith(
            "no convergence in 1 iterations: residual ")
        assert err.value.residual == pytest.approx(2 * 1.125 ** 2 - 1.0)


def counting(cset):
    """cset with a batch that logs the rows of each read that names its
    rows; a read of the whole set (idx None) is not logged."""
    calls = []

    def batch(idx, x, jac=True):
        if idx is not None:
            calls.append(idx)
        return cset.batch(idx, x, jac=jac)

    return replace(cset, batch=batch), calls


def disc(x):
    return float(x @ x) - 1.0, 2.0 * x


def disc_set():
    return ConstraintSet.from_functions([disc])


def disc_and_halfspace_set():
    return ConstraintSet.from_functions(
        [disc, lambda x: (float(x[0]), np.array([1.0, 0.0]))])


def drlogistic_data(seed):
    """The drlogistic_m20 data of one data seed."""
    from drsum.problems import make_synthetic

    return make_synthetic("two_group_bias", m=20, seed=seed, min_gap=0.05)


class TestSmoothProjection:
    def test_disc_projection(self):
        # one smooth convex constraint: ||x||^2 - 1 <= 0
        cset = disc_set()
        x = np.array([2.0, 2.0])
        x_proj, residual, _ = project_feasible(cset, x, tol=1e-8)
        expected = x / np.linalg.norm(x)
        assert residual <= 1e-8
        assert np.allclose(x_proj, expected, atol=1e-4)

    def test_disc_and_halfspace(self):
        cset = disc_and_halfspace_set()
        x_proj, residual, _ = project_feasible(cset, np.array([1.5, 1.5]), tol=1e-8)
        assert residual <= 1e-8
        assert x_proj[0] <= 1e-6
        assert abs(x_proj[1] - 1.0) < 1e-3


class TestBatchJacobianProjection:
    """The batch feeds the projection; the per-index rows in conftest are
    the reference path."""

    @staticmethod
    def dr_logistic_set(seed):
        """The drlogistic_m20 set of one data seed and the point its solve
        hands to the terminal projection."""
        from drsum.reductions import WassersteinConfig, build_wasserstein
        from drsum.solver import SolverConfig, solve

        data = drlogistic_data(seed)
        objective, cset = build_dr_logistic(data, eps_radius=0.1,
                                            kappa_flip=1.0)
        wcfg = WassersteinConfig(alpha=3.0, gamma=0.05)
        x0 = np.zeros(objective.slope.size)

        def builder(k, x_start):
            return build_wasserstein(objective, cset, wcfg,
                                     shift_anchor=x_start, dim=x0.size)

        report = solve(builder, x0,
                       SolverConfig(eta=0.001, T=50, K=2, seed=0))
        return cset, report.final_x

    @pytest.mark.parametrize("seed", [3000, 3001, 3002])
    def test_agrees_with_per_index_path(self, seed):
        cset, x = self.dr_logistic_set(seed)
        assert max_violation(cset, x) > 1e-8
        fast, fast_residual, _ = project_feasible(cset, x)
        ref, ref_residual, _ = project_feasible(
            reference_set(dr_logistic_rows(drlogistic_data(seed), 1.0),
                          cset.m), x)
        assert fast_residual <= 1e-8 and ref_residual <= 1e-8
        assert np.max(np.abs(fast - ref)) <= 1e-6

    def test_solve_makes_no_per_index_evaluation(self, monkeypatch):
        # the SQP reads the whole set at each point, never a subset of rows
        import drsum.constraints

        cset, x = self.dr_logistic_set(3000)
        logged, calls = counting(cset)
        per_solve = []
        minimize = drsum.constraints.minimize

        def counted_minimize(*args, **kwargs):
            before = len(calls)
            out = minimize(*args, **kwargs)
            per_solve.append(len(calls) - before)
            return out

        monkeypatch.setattr(drsum.constraints, "minimize", counted_minimize)
        _, residual, _ = project_feasible(logged, x)
        assert residual <= 1e-8
        assert per_solve == [0]
        assert calls == []

    def test_one_batch_jacobian_per_sqp_point(self):
        # every point the SQP visits, the start and each line search
        # trial, is read through one jacobian() call, and no point twice
        cset, x = self.dr_logistic_set(3000)
        points = []

        def batch(idx, v, jac=True):
            if jac:
                points.append(v.copy())
            return cset.batch(idx, v, jac=jac)

        counted = replace(cset, batch=batch, jacobian_calls=0)
        _, residual, nit = project_feasible(counted, x)
        assert residual <= 1e-8 and nit > 0
        assert counted.jacobian_calls == len(points) >= nit + 1
        assert np.array_equal(points[0], x)
        assert len({v.tobytes() for v in points}) == len(points)

    def test_dykstra_reads_the_batch(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        cset, calls = counting(ConstraintSet.affine(A, np.ones(3)))
        x_proj, _, _ = project_feasible(cset, np.array([2.0, 2.0]))
        assert calls == []
        assert np.allclose(x_proj, [0.5, 0.5], atol=1e-8)


CASES = ["3000", "3001", "3002", "12006", "disc", "disc_and_halfspace",
         "affine_box", "fairness"]


class TestEuclideanProjection:
    """The result satisfies the KKT conditions of min ||y - x||^2/2 over
    c(y) <= 0: some constraint is active at y, and x - y is a nonnegative
    combination of the active gradients."""

    @staticmethod
    def case(name):
        if name == "disc":
            return disc_set(), np.array([2.0, 2.0])
        if name == "disc_and_halfspace":
            return disc_and_halfspace_set(), np.array([1.5, 1.5])
        if name == "affine_box":
            A = np.vstack([np.eye(3), -np.eye(3), np.ones((1, 3))])
            return (ConstraintSet.affine(A, np.r_[np.ones(6), 1.5]),
                    np.array([2.0, -3.0, 0.5]))
        if name == "fairness":
            # equal opportunity on the planted-bias data: nonconvex, so
            # the projection is local
            from drsum.problems import (FairnessSpec,
                                        build_fairness_constraints,
                                        make_losses, make_synthetic)

            data = make_synthetic("two_group_bias", m=120, seed=3, min_gap=0.2)
            family = make_losses("logistic", data)
            cset = build_fairness_constraints(
                data, family, FairnessSpec(eps_slack=0.05, surrogate_temp=5.0))
            return cset, 2.0 * np.random.default_rng(0).standard_normal(3)
        return TestBatchJacobianProjection.dr_logistic_set(int(name))

    @pytest.mark.parametrize("name", CASES)
    def test_kkt(self, name):
        from scipy.optimize import nnls

        cset, x = self.case(name)
        assert max_violation(cset, x) > 1e-8
        y, residual, _ = project_feasible(cset, x)
        assert residual <= 1e-8
        values, jac = cset.jacobian(y)
        active = values >= -1e-7
        # nnls on a matrix with no columns aborts the interpreter
        assert np.any(active), f"no active constraint, max c_i {values.max():.3e}"
        _, dual_residual = nnls(jac[active].T, x - y)
        assert dual_residual <= 1e-6 * np.linalg.norm(x - y)

    @pytest.mark.parametrize("name", CASES)
    def test_agrees_with_scipy_slsqp(self, name):
        # scipy's SLSQP, Kraft's own code, on the same distance problem; on
        # the disc it ends with a line search message, at the projection
        from scipy.optimize import minimize

        cset, x = self.case(name)
        assert max_violation(cset, x) > 1e-8
        y, residual, _ = project_feasible(cset, x)
        ref = minimize(lambda v: (0.5 * (v - x) @ (v - x), v - x), x,
                       jac=True, method="SLSQP",
                       constraints={"type": "ineq",
                                    "fun": lambda v: -cset.values(v),
                                    "jac": lambda v: -cset.jacobian(v)[1]},
                       options={"maxiter": 1000, "ftol": 1e-12})
        assert residual <= 1e-8
        assert np.max(np.abs(y - ref.x)) <= 1e-6


class TestConstraintSet:
    def test_affine_tag_constant_gradient(self):
        cset = ConstraintSet.affine(np.array([[1.0, -2.0]]), np.array([0.5]))
        rng = np.random.default_rng(3)
        g1 = at_index(cset.eval, 0, rng.standard_normal(2))[1]
        g2 = at_index(cset.eval, 0, rng.standard_normal(2))[1]
        assert np.array_equal(g1, g2)

    def test_from_functions(self):
        cset = ConstraintSet.from_functions(
            [lambda x: (float(x[0]) - 1.0, np.array([1.0]))])
        assert cset.m == 1
        assert at_index(cset.eval, 0, np.array([3.0]))[0] == \
            pytest.approx(2.0)



class TestValuesMemo:
    """values() keeps the last point's read: one whole-set read per point."""

    @staticmethod
    def logged_set():
        A = np.array([[1.0, -2.0], [0.5, 1.0], [-1.0, 0.0]])
        reads = []
        inner = ConstraintSet.affine(A, np.ones(3))

        def batch(idx, x, jac=True):
            reads.append((idx, jac))
            return inner.batch(idx, x, jac=jac)

        return ConstraintSet(m=3, batch=batch), A, reads

    def test_a_new_point_is_read_again(self):
        cset, A, reads = self.logged_set()
        x, y = np.array([0.5, -1.0]), np.array([0.5, -1.5])
        first = cset.values(x)
        assert np.array_equal(cset.values(x), first)
        assert len(reads) == 1
        assert np.array_equal(cset.values(y), A @ y - 1.0)
        assert len(reads) == 2
        # the key is the bytes of the float point: an int list reads alike
        assert np.array_equal(cset.values([1, 2]), A @ [1.0, 2.0] - 1.0)
        assert cset.values(np.array([1.0, 2.0])) is cset.values([1, 2])
        assert len(reads) == 3

    def test_jacobian_and_row_reads_are_not_kept(self):
        cset, _, reads = self.logged_set()
        x = np.array([0.5, -1.0])
        cset.values(x)
        cset.jacobian(x)
        cset.eval(None, x, jac=False)
        cset.eval([0, 2], x)
        assert [jac for _, jac in reads] == [False, True, False, True]
        assert cset.jacobian_calls == 1

    def test_values_are_read_only(self):
        cset, _, _ = self.logged_set()
        values = cset.values(np.zeros(2))
        with pytest.raises(ValueError):
            values[0] = 5.0
        assert np.array_equal(cset.values(np.zeros(2)), -np.ones(3))

    def test_a_replaced_batch_never_sees_the_old_values(self):
        cset, A, _ = self.logged_set()
        x = np.array([0.5, -1.0])
        cset.values(x)
        shifted = replace(cset, batch=lambda idx, v, jac=True: (
            ConstraintSet.affine(A, np.zeros(3)).batch(idx, v, jac=jac)))
        assert np.array_equal(shifted.values(x), A @ x)
        assert np.array_equal(cset.values(x), A @ x - 1.0)

    def test_threads_sharing_a_set_read_their_own_points(self):
        # the entry is swapped whole, so a thread that races another's
        # miss still gets the values of its own point
        import os
        import sys
        import threading

        A = np.array([[1.0, -2.0], [0.5, 1.0], [-1.0, 0.0]])
        cset = ConstraintSet.affine(A, np.ones(3))
        n = (os.cpu_count() or 2) + 2
        points = [np.array([float(k), -0.5 * k]) for k in range(2 * n)]
        wrong = []

        def reader(k):
            for r in range(300):
                x = points[2 * k + r % 2]
                if not np.array_equal(cset.values(x), A @ x - 1.0):
                    wrong.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(k,))
                       for k in range(n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_one_whole_set_read_per_recorded_step(self, monkeypatch):
        # drlogistic_m20 (seed 1), which ends outside its set: at every
        # step the violation and psi read the new iterate once between
        # them; outside the steps psi reads x0 and the projected point,
        # while the projection's start, the objective before it and the
        # final psi re-read the last iterate or the projected point
        from pathlib import Path

        from drsum.cli import Experiment, load_config

        ini = (Path(__file__).resolve().parents[1] / "perfbench"
               / "workloads" / "drlogistic_m20.ini")
        cfg = load_config(str(ini))
        cfg["problem"]["data_seed"] = cfg["solver"]["seed"] = "1"
        exp = Experiment(cfg)
        reads = []
        unwrapped = ConstraintSet.eval

        def counted(self, idx, x, jac=True):
            reads.append((idx is None, jac))
            return unwrapped(self, idx, x, jac)

        monkeypatch.setattr(ConstraintSet, "eval", counted)
        report = exp.run()
        assert len(report.trajectory) == 700
        assert report.projection["iterations"] > 0
        assert reads.count((True, False)) == 700 + 2
        assert reads.count((True, True)) == \
            report.projection["jacobian_calls"]


class TestDrLogisticBatch:
    """The table-driven batch equals the row-by-row gather it replaced
    (conftest.dr_logistic_batch) bit for bit."""

    @pytest.mark.parametrize("seed", [1, 2, 3000])
    def test_bit_identical_to_the_reference(self, seed):
        data = drlogistic_data(seed)
        objective, cset = build_dr_logistic(data, eps_radius=0.1,
                                            kappa_flip=1.5)
        reference = dr_logistic_batch(data, 1.5)
        rng = np.random.default_rng(seed)
        m, dim = cset.m, objective.slope.size
        d_beta = data.features.shape[1]
        for k in range(100):
            x = rng.standard_normal(dim) * rng.choice([0.1, 1.0, 10.0])
            if k % 10 == 0:
                x[:d_beta] = 0.0  # the cone's gradient at beta = 0
            idx = (None if k % 4 == 0 else
                   rng.integers(0, m, size=int(rng.integers(1, 2 * m))))
            if k % 7 == 0 and idx is not None:
                idx[0] = m - 1  # the cone row, repeated
                idx[-1] = m - 1
            for jac in (True, False):
                got = cset.batch(idx, x, jac=jac)
                want = reference(idx, x, jac=jac)
                got, want = ((got, want) if jac else ((got,), (want,)))
                for a, b in zip(got, want, strict=True):
                    assert a.shape == b.shape
                    assert a.tobytes() == b.tobytes()
