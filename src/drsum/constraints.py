"""Constraint sets, violation metrics, and the terminal feasibility projection.

A ConstraintSet holds m constraints c_i(x) <= 0 behind one field, read
like a loss family: batch(idx, x, jac=True) -> (values (n,), jacobian
(n, d)) of the rows idx (repeats allowed, None for all m), the values
alone with jac=False.  eval reads it: the Wasserstein g_oracle reads the
sampled rows, values() all values (the violation metric and the exact
objective) and the counted jacobian() all rows (the projection).
affine, build_dr_logistic, build_fairness_constraints and
convexify_constraints index their rows in closed form; from_functions,
for a set written by hand as one callable per constraint, stacks them
with composite.per_index, the adapter plain sequences of loss functions
go through.

values() keeps the last point it read: one (x.tobytes(), values) entry,
swapped in one assignment, whose array is read-only.  The solver's
per-step diagnostics read the violation and the exact objective at the
same iterate, so the two share one whole-set read.  A miss reads
through eval, so a wrapper of eval sees every real read, and a
dataclasses.replace copy starts with no entry.  A set is thus still
shareable read-only across threads: a thread reads either entry whole.

The projection onto the feasible set solves the distance problem
min ||y - x||^2/2 subject to c(y) <= 0 with minimize, a sequential
quadratic programming method in numpy after Kraft (1988, "A software
package for sequential quadratic programming"), the method of SLSQP.
Each iteration reads the constraints through one jacobian() call per
point it visits, takes a damped BFGS model of the Lagrangian's Hessian,
and solves its quadratic subproblem as a least-distance program
(least_distance) by Lawson-Hanson nonnegative least squares (nnls;
Lawson & Hanson 1974, "Solving Least Squares Problems", ch. 23), each
of whose fits is a least-squares solve on the passive columns.  The
projection is exact on convex sets and local on nonconvex ones.
minimize stays a module attribute, which the projection calls by name,
so it can be replaced or wrapped there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .composite import per_index


class ProjectionError(RuntimeError):
    """The projection stopped short of the feasible set; the message names
    why, and residual holds the violation where it stopped."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


@dataclass
class ConstraintSet:
    """m constraints c_i(x) <= 0, read in batches of rows."""

    m: int
    # (idx, x, jac=True) -> (values (n,), jacobian (n, d)) of the rows idx,
    # every row for idx None; the values alone if not jac
    batch: Callable
    # jacobian() calls so far: the projection's cost, read as a difference
    jacobian_calls: int = field(default=0, compare=False)
    # values() at the last point it read: (x.tobytes(), read-only values)
    _last: tuple = field(default=(None, None), init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("constraint set must be nonempty")

    def eval(self, idx, x, jac=True):
        """The rows idx (an index array, or None for all m) at x."""
        return self.batch(None if idx is None else np.asarray(idx),
                          np.asarray(x, dtype=float), jac=jac)

    def values(self, x):
        """Every value at x (read-only), read once per new point."""
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        last_key, last = self._last
        if key == last_key:
            return last
        values = self.eval(None, x, jac=False).view()
        values.flags.writeable = False
        self._last = (key, values)
        return values

    def jacobian(self, x):
        """(values (m,), jacobian (m, d)) from one batch call, counted."""
        self.jacobian_calls += 1
        return self.eval(None, x)

    @classmethod
    def from_functions(cls, funcs):
        """Build from a list of per-constraint callables x -> (value, grad)."""
        funcs = list(funcs)
        return cls(m=len(funcs),
                   batch=per_index(lambda i, x: funcs[i](x), len(funcs)))

    @classmethod
    def affine(cls, A, b):
        """Halfspace intersection {x : A x - b <= 0}, one row per constraint."""
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if A.shape[0] != b.shape[0]:
            raise ValueError("A and b row counts disagree")

        def batch(idx, x, jac=True):
            rows = slice(None) if idx is None else idx
            values = A[rows] @ x - b[rows]
            return (values, A[rows]) if jac else values

        return cls(m=A.shape[0], batch=batch)


def max_violation(cset, x):
    """max(0, max_i c_i(x)): zero exactly on the feasible set."""
    return max(0.0, float(cset.values(x).max()))


EPS = np.finfo(float).eps
# ||E u - f||^2 at or below this reads as inconsistent: a least-distance
# solution of norm above 1e6
INCONSISTENT = 1e-12
# minimize stops after a step of at most this length, relative to
# 1 + ||y||, that ends within the violation tolerance
STEP_TOL = 1e-6


def nnls(A, b, start=()):
    """Lawson-Hanson nonnegative least squares: argmin ||A u - b|| over
    u >= 0 (Lawson & Hanson 1974, ch. 23).

    The passive set P starts as the columns in start (a warm start),
    shrunk until their least squares fit is positive.  Then the column
    with the largest gradient A_j^T (b - A u) beyond round-off enters P,
    and u moves towards z, the least squares fit on P's columns of A (the
    least-norm one if they are dependent), until z is positive on P,
    dropping the columns that reach 0 on the way.  If the fit does not
    take the entering column up (z_j <= 0), its gradient was round-off
    and u is returned.  At most 3n columns enter.  Returns u.
    """
    n = A.shape[1]

    def fit(passive):
        z = np.zeros(n)
        z[passive] = np.linalg.lstsq(A[:, passive], b, rcond=None)[0]
        return z

    # the gradient's round-off, from a bound on the column sums of
    # |[A b]^T [A b]| that reads |[A b]| alone
    magnitude = np.abs(np.column_stack([A, b]))
    tol = 10 * max(A.shape) * EPS * (magnitude.sum(axis=1) @ magnitude).max()
    passive = np.zeros(n, dtype=bool)
    passive[np.asarray(start, dtype=int)] = True
    while passive.any():  # shrink the start to a positive fit
        u = fit(passive)
        if u[passive].min() > 0:
            break
        passive &= u > 0
    else:
        u = np.zeros(n)
    for _ in range(3 * n):
        gradient = np.where(passive, -np.inf, A.T @ (b - A @ u))
        j = gradient.argmax()
        if not gradient[j] > tol:
            break
        passive[j] = True
        z = fit(passive)
        if not z[j] > 0:
            break
        while np.any(z[passive] <= 0):
            # move from u towards z until the first passive entry reaches 0
            blocking = np.flatnonzero(passive & (z <= 0))
            ratios = u[blocking] / (u[blocking] - z[blocking])
            u = np.where(passive, u + ratios.min() * (z - u), 0.0)
            u[blocking[ratios.argmin()]] = 0.0
            passive &= u > 0
            z = fit(passive)
        u = z
    return u


def least_distance(G, h, start=()):
    """The least-distance program min ||w|| subject to G w >= h.

    Solved by nnls on E = [G^T; h^T] against f = (0, ..., 0, 1), warm
    started from start (Lawson & Hanson 1974, ch. 23).  At the solution u,
    ||E u - f||^2 = 1 - h^T u = 1 / (1 + ||w||^2), and it vanishes exactly
    when the constraints are inconsistent.  Returns (w, lam) with w =
    G^T lam and the multipliers lam >= 0, or None if inconsistent.
    """
    f = np.zeros(G.shape[1] + 1)
    f[-1] = 1.0
    u = nnls(np.vstack([G.T, h]), f, start)
    scale = 1.0 - float(h @ u)
    if not scale > INCONSISTENT:
        return None
    lam = u / scale
    return G.T @ lam, lam


def minimize(cset, x, tol, max_iter):
    """The SQP solve of min ||y - x||^2/2 subject to c(y) <= 0, from y = x.

    Kraft's method.  B, a damped (Powell) BFGS model of the Lagrangian's
    Hessian, starts at I and is kept as its inverse H = C C^T.  Through
    the Cholesky factor C, the quadratic subproblem at y, min p^T B p/2 +
    g^T p subject to c + J p <= 0 with g = y - x, becomes the
    least-distance program min ||w|| subject to -J C w >= c - J H g, with
    p = C (w - C^T g); least_distance solves it, warm started from the
    previous active set (the most violated rows at the first iterate).
    A backtracking line search on the L1 merit ||y - x||^2/2 + sum_i mu_i
    max(0, c_i(y)) globalizes the step; after ten cuts it takes the last
    trial.  One cset.jacobian() per point visited.  Stops after a step of
    at most STEP_TOL (1 + ||y||) that ends within tol of the set.

    Returns (y, residual, iterations), the residual max(0, max_i c_i(y))
    from y's jacobian() read; raises ProjectionError if a subproblem's
    linearized constraints are inconsistent or max_iter iterations do not
    converge.
    """
    y = x
    values, jac = cset.jacobian(y)
    inverse = np.eye(x.size)
    # the violated rows, at most x.size of them, most violated first: the
    # program has x.size + 1 rows, and nnls shrinks a start to a positive fit
    active = np.argsort(-values)[:x.size]
    active = active[values[active] > 0]
    mu = np.zeros(cset.m)
    for k in range(max_iter):
        factor = np.linalg.cholesky(inverse)
        g = y - x
        scaled_g = g @ factor
        G = -jac @ factor
        solved = least_distance(G, values + G @ scaled_g, active)
        if solved is None:
            residual = max(0.0, float(values.max()))
            raise ProjectionError(
                f"linearized constraints infeasible at iteration {k}: "
                f"residual {residual:.3e}", residual)
        w, lam = solved
        step = factor @ (w - scaled_g)
        active = np.flatnonzero(lam)
        mu = np.maximum(lam, 0.5 * (mu + lam))
        penalty = mu @ np.maximum(values, 0.0)
        merit = 0.5 * float(g @ g) + penalty
        slope = float(g @ step) - penalty
        alpha = 1.0
        for _ in range(10):
            trial = y + alpha * step
            new_values, new_jac = cset.jacobian(trial)
            gap = trial - x
            change = (0.5 * float(gap @ gap)
                      + mu @ np.maximum(new_values, 0.0) - merit)
            if change <= 0.1 * alpha * slope:
                break
            # quadratic interpolation of the merit along the step
            alpha *= min(0.5, max(0.1, 0.5 * alpha * slope
                                  / (alpha * slope - change)))
        # damped BFGS on the change of the Lagrangian's gradient, with
        # B s = -alpha (g + J^T lam) from the subproblem's optimality
        s = trial - y
        change_grad = s + (new_jac - jac).T @ lam
        bs = -alpha * (g + jac.T @ lam)
        sbs, sv = float(s @ bs), float(s @ change_grad)
        if sv < 0.2 * sbs:  # Powell's damping keeps B positive definite
            theta = 0.8 * sbs / (sbs - sv)
            change_grad = theta * change_grad + (1.0 - theta) * bs
            sv = float(s @ change_grad)
        if sv > 0:
            hv = inverse @ change_grad
            cross = (s / sv)[:, None] * hv
            inverse = (inverse - cross - cross.T
                       + (1.0 + float(change_grad @ hv) / sv) / sv
                       * s[:, None] * s)
        y, values, jac = trial, new_values, new_jac
        residual = max(0.0, float(values.max()))
        if (np.sqrt(step @ step) <= STEP_TOL * (1.0 + np.sqrt(y @ y))
                and residual <= tol):
            return y, residual, k + 1
    residual = max(0.0, float(values.max()))
    raise ProjectionError(
        f"no convergence in {max_iter} iterations: residual {residual:.3e}",
        residual)


def project_feasible(cset, x, tol=1e-8, max_iter=100):
    """Euclidean projection of x onto {c_i <= 0 for all i}.

    One minimize solve of min ||y - x||^2/2 subject to c(y) <= 0 for
    every set, reading the constraints through one jacobian() call per
    point it visits.  Exact on convex sets; on a nonconvex set it returns
    a local projection.

    Returns (x_proj, residual, iterations); raises ProjectionError with the
    residual if the solve stops short of tol: inconsistent linearized
    constraints, or no convergence in max_iter iterations.
    """
    x = np.asarray(x, dtype=float)
    residual = max_violation(cset, x)
    if residual <= tol:
        return x.copy(), residual, 0
    return minimize(cset, x, tol, max_iter)
