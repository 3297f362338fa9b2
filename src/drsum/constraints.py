"""Constraint sets, violation metrics, and the terminal feasibility projection.

A ConstraintSet holds m inequality constraints c_i(x) <= 0 through a
single oracle returning value and gradient per index, plus two optional
batches over all m constraints: batch_values (x -> values) feeds
values(), which the violation metric and the exact objective use, and
batch_eval (x -> (values, jacobian)) feeds jacobian(), which the
projection uses.  Without them both methods stack the per-index
oracle, the reference path.  ConstraintSet.affine, build_dr_logistic
and convexify_constraints fill both fields; the estimators and the
Wasserstein g_oracle stay per index.

The projection onto the feasible set is exact cyclic Dykstra for
all-affine sets and a smoothed-penalty continuation for general smooth
convex sets; both read the constraints through jacobian().
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import minimize

AFFINE = "affine"
CONVEX_SMOOTH = "convex_smooth"
GENERAL = "general"


class ProjectionError(RuntimeError):
    """Projection did not reach the violation tolerance within max_iter."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


@dataclass
class ConstraintSet:
    """m constraints c_i(x) <= 0 with value/gradient access and kind tags."""

    m: int
    oracle: Callable  # (index, x) -> (value, gradient)
    kinds: Sequence[str] = field(default_factory=tuple)
    batch_values: Optional[Callable] = None  # x -> all m values, shape (m,)
    batch_eval: Optional[Callable] = None  # x -> (values (m,), jacobian (m, d))

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("constraint set must be nonempty")
        if not self.kinds:
            self.kinds = tuple(GENERAL for _ in range(self.m))
        if len(self.kinds) != self.m:
            raise ValueError("one kind tag per constraint required")

    def eval(self, i, x):
        val, grad = self.oracle(i, np.asarray(x, dtype=float))
        return float(val), np.asarray(grad, dtype=float)

    def values(self, x):
        x = np.asarray(x, dtype=float)
        if self.batch_values is not None:
            return np.asarray(self.batch_values(x), dtype=float)
        return np.array([self.eval(i, x)[0] for i in range(self.m)])

    def jacobian(self, x):
        """(values (m,), jacobian (m, d)): the batch when set, otherwise
        the per-index oracle stacked row by row."""
        x = np.asarray(x, dtype=float)
        if self.batch_eval is not None:
            vals, jac = self.batch_eval(x)
            return np.asarray(vals, dtype=float), np.asarray(jac, dtype=float)
        evals = [self.eval(i, x) for i in range(self.m)]
        return (np.array([val for val, _ in evals]),
                np.vstack([grad for _, grad in evals]))

    @property
    def all_affine(self):
        return all(k == AFFINE for k in self.kinds)

    @classmethod
    def from_functions(cls, funcs, kinds=None):
        """Build from a list of per-constraint callables x -> (value, grad)."""
        funcs = list(funcs)

        def oracle(i, x):
            return funcs[i](x)

        return cls(m=len(funcs), oracle=oracle, kinds=tuple(kinds) if kinds else ())

    @classmethod
    def affine(cls, A, b):
        """Halfspace intersection {x : A x - b <= 0}, one row per constraint."""
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if A.shape[0] != b.shape[0]:
            raise ValueError("A and b row counts disagree")

        def oracle(i, x):
            return float(A[i] @ x - b[i]), A[i].copy()

        return cls(m=A.shape[0], oracle=oracle, kinds=tuple(AFFINE for _ in b),
                   batch_values=lambda x: A @ x - b,
                   batch_eval=lambda x: (A @ x - b, A))


def max_violation(cset, x):
    """max(0, max_i c_i(x)): zero exactly on the feasible set."""
    return float(max(0.0, np.max(cset.values(x))))


def project_feasible(cset, x, tol=1e-8, max_iter=100_000):
    """Euclidean projection of x onto {c_i <= 0 for all i}.

    Affine-only sets use cyclic Dykstra alternating projections onto the
    halfspaces, run until the successive-iterate change drops below 1e-10;
    this converges to the exact projection.  Sets with smooth nonaffine
    constraints minimize ||y - x||^2/2 plus a log-sum-exp penalty whose
    temperature shrinks by 10x per round until the violation is below tol.

    Returns (x_proj, residual, iterations); raises ProjectionError with the
    last residual if max_iter is exhausted above tolerance.
    """
    x = np.asarray(x, dtype=float)
    residual = max_violation(cset, x)
    if residual <= tol:
        return x.copy(), residual, 0
    if cset.all_affine:
        return _dykstra_affine(cset, x, tol, max_iter)
    return _penalty_projection(cset, x, tol, max_iter)


def _dykstra_affine(cset, x, tol, max_iter, step_tol=1e-10):
    values, A = cset.jacobian(np.zeros_like(x))
    b = -values
    sq_norms = np.einsum("ij,ij->i", A, A)
    if np.any(sq_norms <= 0):
        raise ValueError("affine constraint with zero normal")

    y = x.copy()
    corrections = np.zeros((cset.m, x.size))
    iterations = 0
    for _ in range(max_iter):
        y_before = y.copy()
        for i in range(cset.m):
            v = y + corrections[i]
            excess = (A[i] @ v - b[i]) / sq_norms[i]
            projected = v - max(0.0, excess) * A[i]
            corrections[i] = v - projected
            y = projected
        iterations += 1
        if np.linalg.norm(y - y_before) < step_tol:
            break
    residual = max_violation(cset, y)
    if residual > tol:
        raise ProjectionError(
            f"Dykstra did not converge: residual {residual:.3e} > tol {tol:.3e}",
            residual,
        )
    return y, residual, iterations


def _penalty_projection(cset, x, tol, max_iter):
    """Smoothed-max penalty continuation solved with a quasi-Newton inner loop.

    Round k minimizes ||y - x||^2/2 + gamma_k * lse(w_k * c(y)/gamma_k) with
    gamma shrinking 10x and the penalty weight doubling per round.  Early
    rounds land slightly inside the set (the smoothed penalty pushes past
    the boundary), so the loop continues until the iterate stabilizes, not
    merely until it is feasible.
    """
    y = x.copy()
    gamma = 1.0
    weight = 10.0
    iterations = 0
    residual = max_violation(cset, y)
    for _ in range(60):

        def objective(v):
            values, jac = cset.jacobian(v)
            exponents = weight * values / gamma
            shift = max(0.0, float(np.max(exponents)))
            soft = np.exp(exponents - shift)
            denom = np.exp(-shift) + np.sum(soft)
            obj = 0.5 * float((v - x) @ (v - x)) + gamma * (shift + np.log(denom))
            return obj, (v - x) + jac.T @ (weight * soft / denom)

        res = minimize(objective, y, jac=True, method="L-BFGS-B",
                       options={"maxiter": 500, "ftol": 1e-18, "gtol": 1e-14})
        moved = float(np.linalg.norm(res.x - y))
        y = res.x
        iterations += max(1, int(res.nit))
        residual = max_violation(cset, y)
        gamma *= 0.1
        weight *= 2.0
        if residual <= tol and moved < max(1e-10, 0.01 * tol):
            return y, residual, iterations
        if iterations >= max_iter:
            break
    if residual > tol:
        raise ProjectionError(
            f"penalty projection did not converge: residual {residual:.3e}",
            residual,
        )
    return y, residual, iterations


def estimate_rho(cset, dim, num_probes=50, seed=0, radius=2.0, bisect_steps=60):
    """Optimistic sampled estimate of the boundary gradient-norm floor.

    Searches segments between random feasible/infeasible point pairs for
    boundary crossings of c(x) = max_i c_i(x) and returns the smallest
    active-constraint gradient norm found.  Diagnostic only: a sample
    minimum over part of the boundary, not a certified bound.
    """
    rng = np.random.default_rng(seed)
    best = np.inf
    found = 0
    for _ in range(num_probes * 4):
        if found >= num_probes:
            break
        a = radius * rng.standard_normal(dim)
        bpt = radius * rng.standard_normal(dim)
        fa = float(np.max(cset.values(a)))
        fb = float(np.max(cset.values(bpt)))
        if fa * fb >= 0:
            continue
        lo, hi = (a, bpt) if fa < 0 else (bpt, a)
        for _ in range(bisect_steps):
            mid = 0.5 * (lo + hi)
            if float(np.max(cset.values(mid))) < 0:
                lo = mid
            else:
                hi = mid
        boundary = 0.5 * (lo + hi)
        vals = cset.values(boundary)
        active = int(np.argmax(vals))
        _, grad = cset.eval(active, boundary)
        best = min(best, float(np.linalg.norm(grad)))
        found += 1
    return best
