import numpy as np
import pytest

from drsum.composite import at_index, per_index


def closed_form(batch):
    """Whether a batch field (a constraint set's batch or a problem's
    component_values) is set; an unset one is read as the per-index
    oracles stacked."""
    return batch is not None


def rowwise(batch):
    """A batch oracle field read one row at a time: the per-index adapter
    over its one-row calls, the reference a batch path must agree with."""
    return per_index(lambda i, x: at_index(batch, i, x))


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
