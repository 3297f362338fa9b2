"""Constraint sets, violation metrics, and the terminal feasibility projection.

A ConstraintSet holds m inequality constraints c_i(x) <= 0 through a
per-index oracle returning value and gradient, and one batch over all m
constraints: batch(x) -> (values (m,), jacobian (m, d)), or the values
alone with jac=False.  values() feeds the violation metric and the
exact objective; jacobian() feeds the projection.  Both read the
per-index eval stacked row by row (composite.per_index), the reference
path, when the set has no batch; ConstraintSet.affine, build_dr_logistic
and convexify_constraints write theirs in closed form.  The Wasserstein
g_oracle reads the per-index eval of the sampled rows through the same
adapter.

The projection onto the feasible set is one SLSQP solve of the
distance problem for every set, reading the constraints through one
jacobian() call per SLSQP point; it is exact on convex sets and local
on nonconvex ones.

scipy is imported only when a projection runs: minimize is a module
function that imports scipy.optimize on each call (a dictionary lookup
once loaded) and forwards to scipy's minimize, so unconstrained runs
never load scipy.  It stays a module attribute, which the projection
calls by name, so it can be replaced or wrapped there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .composite import per_index


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on the call."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


class ProjectionError(RuntimeError):
    """Projection did not reach the violation tolerance within max_iter."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


@dataclass
class ConstraintSet:
    """m constraints c_i(x) <= 0 with value/gradient access."""

    m: int
    oracle: Callable  # (index, x) -> (value, gradient)
    # (x, jac=True) -> (values (m,), jacobian (m, d)); values alone if not jac
    batch: Optional[Callable] = None

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("constraint set must be nonempty")

    def eval(self, i, x):
        val, grad = self.oracle(i, np.asarray(x, dtype=float))
        return float(val), np.asarray(grad, dtype=float)

    def _stacked(self, x, jac=True):
        """The per-index eval stacked row by row: the reference batch."""
        values, jacobian = per_index(self.eval)(range(self.m), x)
        return (values, jacobian) if jac else values

    def values(self, x):
        return (self.batch or self._stacked)(np.asarray(x, dtype=float),
                                             jac=False)

    def jacobian(self, x):
        """(values (m,), jacobian (m, d)) from one batch call."""
        return (self.batch or self._stacked)(np.asarray(x, dtype=float))

    @classmethod
    def from_functions(cls, funcs):
        """Build from a list of per-constraint callables x -> (value, grad)."""
        funcs = list(funcs)

        def oracle(i, x):
            return funcs[i](x)

        return cls(m=len(funcs), oracle=oracle)

    @classmethod
    def affine(cls, A, b):
        """Halfspace intersection {x : A x - b <= 0}, one row per constraint."""
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if A.shape[0] != b.shape[0]:
            raise ValueError("A and b row counts disagree")

        def oracle(i, x):
            return float(A[i] @ x - b[i]), A[i].copy()

        def batch(x, jac=True):
            values = A @ x - b
            return (values, A) if jac else values

        return cls(m=A.shape[0], oracle=oracle, batch=batch)


def max_violation(cset, x):
    """max(0, max_i c_i(x)): zero exactly on the feasible set."""
    return float(max(0.0, np.max(cset.values(x))))


def project_feasible(cset, x, tol=1e-8, max_iter=100_000):
    """Euclidean projection of x onto {c_i <= 0 for all i}.

    One SLSQP solve of min ||y - x||^2/2 subject to c(y) <= 0 for every
    set.  The constraint values and their jacobian both come from one
    jacobian() call per SLSQP point, so the projection reads the
    constraints through one path.  Exact on convex sets; on a nonconvex
    set it returns a local projection.

    Returns (x_proj, residual, iterations); raises ProjectionError with the
    residual if the result violates the set by more than tol.
    """
    x = np.asarray(x, dtype=float)
    residual = max_violation(cset, x)
    if residual <= tol:
        return x.copy(), residual, 0

    def distance(v):
        return 0.5 * float((v - x) @ (v - x)), v - x

    last = [None, None]  # the last point read and its negated jacobian()

    def negated(v):
        if last[0] is None or not np.array_equal(v, last[0]):
            vals, jac = cset.jacobian(v)
            last[:] = [v.copy(), (-vals, -jac)]
        return last[1]

    res = minimize(distance, x, jac=True, method="SLSQP",
                   constraints={"type": "ineq",
                                "fun": lambda v: negated(v)[0],
                                "jac": lambda v: negated(v)[1]},
                   options={"maxiter": max_iter, "ftol": 1e-12})
    residual = max_violation(cset, res.x)
    if residual > tol:
        raise ProjectionError(
            f"SLSQP projection did not converge: residual {residual:.3e} "
            f"> tol {tol:.3e} ({res.message})",
            residual,
        )
    return res.x, residual, int(res.nit)
