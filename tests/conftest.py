from functools import partial

import numpy as np
import pytest
from scipy.special import expit

from drsum.composite import (
    at_index,
    batch_estimates,
    delta_update,
    per_index,
)
from drsum.constraints import ConstraintSet
from drsum.problems import sigmoids
from drsum.solver import _weighted_sum, split_batch


def closed_form(batch):
    """Whether a problem's component_values field is set; an unset one is
    read as the g and h fields over every index."""
    return batch is not None


def rowwise(batch):
    """A batch oracle field read one row at a time: the per-index adapter
    over its one-row calls, the reference a batch path must agree with."""
    return per_index(lambda i, x: at_index(batch, i, x))


def per_shard_epoch(problem, x, t, schedule, eta, shards, rngs, counters,
                    server_counter, *, stage, on_step, order=None):
    """The sharded epoch loop with one batch_estimates or delta_update call
    per shard, visited in order: the reference the solver's joint batch,
    one call per field and point for all shards, must equal bit for bit.
    Takes and returns what solver._sharded_epoch does, without its
    non-finite checks."""
    m = problem.m
    tau, S, B = schedule.params(t, m)
    order = range(len(shards)) if order is None else order
    sizes = [len(shard) for shard in shards]
    weights = [size / m for size in sizes]
    b_shares = None if B >= m else split_batch(B, sizes)

    def sample(i, n):
        return shards[i][rngs[i].integers(0, len(shards[i]), size=n)]

    x_cur = x_prev = np.asarray(x, dtype=float)
    est = [None] * len(shards)
    for i in order:
        batch = shards[i] if b_shares is None else sample(i, b_shares[i])
        est[i] = batch_estimates(problem, batch, x_cur, counters[i])
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
                    est[i] = delta_update(problem, sample(i, S), x_cur,
                                          x_prev, *est[i], counters[i])
        y, z, w = (_weighted_sum(parts, weights) for parts in zip(*est))
        _, fprime = problem.f_outer(y)
        grad_est = z.T @ fprime + w
        x_prev = x_cur
        x_cur = problem.r_term.prox(x_cur - eta * grad_est, eta)
        server_counter.f_outer_calls += 1
        server_counter.prox_calls += 1
        if on_step is not None:
            on_step(stage, t, j, tau, x_prev, grad_est, x_cur)
    return x_cur


def quadratic_losses(m=16, d=5, seed=7, cond=10.0, noise=0.5):
    """Least-squares losses f_i(x) = 0.5 (<a_i, x> - b_i)^2 with a data
    matrix whose Gram spectrum has the requested condition number.

    Returns (loss oracles, d, A, b); the mean loss has the closed-form
    minimizer solving (A^T A) x = A^T b.
    """
    rng = np.random.default_rng(seed)
    U, _, Vt = np.linalg.svd(rng.standard_normal((m, d)), full_matrices=False)
    # nonzero Gram eigenvalues of A^T A / m span [1, cond]
    spectrum = np.sqrt(m) * np.linspace(1.0, np.sqrt(cond), min(m, d))
    A = (U * spectrum) @ Vt
    x_true = 0.5 * rng.standard_normal(d)
    b = A @ x_true + noise * rng.standard_normal(m)

    def make(i):
        def f(x):
            resid = float(A[i] @ x - b[i])
            return 0.5 * resid * resid, resid * A[i]
        return f

    return [make(i) for i in range(m)], d, A, b


@pytest.fixture
def quad16():
    return quadratic_losses(m=16, d=5, seed=7, cond=10.0)


# -- per-index constraint rows: the references the closed-form batches of
# ConstraintSet.affine, build_dr_logistic and convexify_constraints are
# tested against, written one row at a time; each is (i, x) -> (value,
# gradient)


def reference_set(rows, m):
    """A constraint set reading the per-index rows one at a time."""
    return ConstraintSet.from_functions([partial(rows, i) for i in range(m)])


def affine_rows(A, b):
    def oracle(i, x):
        return float(A[i] @ x - b[i]), A[i].copy()

    return oracle


def convexified_rows(rows, mu):
    """rows(i, x) + mu_i ||x||^2 with the matching gradient."""

    def oracle(i, x):
        x = np.asarray(x, dtype=float)
        val, grad = rows(i, x)
        return val + mu[i] * float(x @ x), grad + 2.0 * mu[i] * x

    return oracle


def dr_logistic_rows(dataset, kappa_flip):
    """The 2m + 1 rows of build_dr_logistic over (beta, lam, s): the true
    and flipped logistic losses of each sample minus its slack (and
    lam * kappa on the flipped one), then the norm cone ||beta|| - lam."""
    Z, y = ((dataset.features, dataset.labels)
            if hasattr(dataset, "features") else dataset)
    m, d_beta = Z.shape
    dim = d_beta + 1 + m

    def split(x):
        return x[:d_beta], float(x[d_beta]), x[d_beta + 1:]

    def loss_and_grad(beta, z, label):
        margin = -label * float(beta @ z)
        val = float(np.logaddexp(0.0, margin))
        return val, -label * expit(margin) * z

    def oracle(i, x):
        beta, lam, s = split(np.asarray(x, dtype=float))
        grad = np.zeros(dim)
        if i < m:
            val, gbeta = loss_and_grad(beta, Z[i], y[i])
            grad[:d_beta] = gbeta
            grad[d_beta + 1 + i] = -1.0
            return val - s[i], grad
        if i < 2 * m:
            j = i - m
            val, gbeta = loss_and_grad(beta, Z[j], -y[j])
            grad[:d_beta] = gbeta
            grad[d_beta] = -kappa_flip
            grad[d_beta + 1 + j] = -1.0
            return val - lam * kappa_flip - s[j], grad
        norm = float(np.linalg.norm(beta))
        if norm > 0:
            grad[:d_beta] = beta / norm
        grad[d_beta] = -1.0
        return norm - lam, grad

    return oracle


def dr_logistic_batch(dataset, kappa_flip):
    """The batch of build_dr_logistic as it read its rows before its
    tables: every row's margin sign and sigmoid scale a gathered sample,
    the jacobian is built from zeros, and the norm is read on every call.
    The reference the table-driven batch must equal bit for bit."""
    Z, y = ((dataset.features, dataset.labels)
            if hasattr(dataset, "features") else dataset)
    Z, y = np.asarray(Z, dtype=float), np.asarray(y, dtype=float)
    m, d_beta = Z.shape
    dim = d_beta + 1 + m
    every = np.arange(2 * m + 1)
    sample = np.concatenate([every[:m], every[:m], [0]])
    sign = np.concatenate([-y, y, [0.0]])
    lam_coef = np.concatenate([np.zeros(m), np.full(m, -kappa_flip), [-1.0]])

    def batch(idx, x, jac=True):
        beta, lam, s = x[:d_beta], float(x[d_beta]), x[d_beta + 1:]
        rows = every if idx is None else idx
        cone = rows == 2 * m
        j = sample[rows]
        t = sign[rows] * (Z @ beta)[j]
        norm = float(np.linalg.norm(beta))
        values = np.logaddexp(0.0, t) + lam_coef[rows] * lam - s[j]
        values[cone] = norm - lam
        if not jac:
            return values
        jacobian = np.zeros((values.size, dim))
        jacobian[:, :d_beta] = (sign[rows] * sigmoids(t))[:, None] * Z[j]
        jacobian[:, d_beta] = lam_coef[rows]
        jacobian[~cone, d_beta + 1 + j[~cone]] = -1.0
        jacobian[cone, :d_beta] = beta / norm if norm > 0 else 0.0
        return values, jacobian

    return batch
