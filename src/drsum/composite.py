"""Canonical composite finite-sum problem and its exact-evaluation machinery.

The objective is

    Psi(x) = r(x) + (1/m) sum_i h_i(x) + f((1/m) sum_i g_i(x)),

with r a simple convex term (see proxlib), h_i scalar maps, g_i vector
maps into R^p, and f an outer scalar map on R^p.  All solvers consume
problems in this form; the reductions module compiles the robust
objectives into it.

The oracle fields are batch-first: g_oracle and h_oracle take a 1-D
array of component indices (repeats allowed) and return every sampled
row in one call, so an estimator update costs one call per field and
point, however many rows it samples.  Given segments=, a list of
consecutive segment lengths, batch_estimates and delta_update reduce
each segment of the batch on its own and charge each segment's
counter by its length, so the simulated workers of a multi-worker
solve share one call per field and point per step across all
workers.  Loss families and constraint sets read rows with the same
eval(idx, x, jac=True), idx None for every row and jac=False for the
values alone.  per_index(oracle, m) stacks a per-index callable (i, x)
-> (value, derivative) into such a read, for hand-built problems, plain
sequences of loss functions and from_functions constraint sets.
at_index reads one component through a batch field.

Oracles are pure functions of (indices, point), so a problem instance
is safely shareable read-only across threads.  Every helper calls the
oracle fields directly and trusts the output shapes CompositeProblem
documents; check_jacobians validates a hand-built problem.  Accounting
is explicit: a helper given an OracleCounter advances it once per batch,
by the number of rows it evaluated.

A problem also carries a value-only batch oracle, component_values,
returning every g_i and h_i value at one point, which is the one path
of the exact objective (evaluate_psi).  Every reduction writes one;
evaluate_psi reads the g and h fields over every index when a problem
has none.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, astuple, dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .proxlib import SimpleTerm, ZeroTerm


@dataclass
class OracleCounter:
    """Running tally of single-component oracle evaluations."""

    g_value_calls: int = 0
    h_gradient_calls: int = 0
    f_outer_calls: int = 0
    prox_calls: int = 0
    projection_calls: int = 0

    def copy(self):
        return replace(self)

    def as_dict(self):
        return asdict(self)

    def __add__(self, other):
        """Field-wise sum."""
        return OracleCounter(*(a + b for a, b in
                               zip(astuple(self), astuple(other))))


@dataclass
class CompositeProblem:
    """Composite finite-sum objective in canonical form.

    For a 1-D integer array idx of n component indices (repeats allowed):
    g_oracle(idx, x) -> (values, shape (n, p); jacobians, shape (n, p, d))
    h_oracle(idx, x) -> (values, shape (n,); gradients, shape (n, d))
    f_outer(u)       -> (float value; derivative, shape (p,)), u of shape (p,)
    r_term           -- simple term with value and prox oracles
    component_values(x) -> (g values, shape (m, p); h values, shape (m,)):
                      every component value in one call, or None: the
                      g and h fields over every index

    Arrays in and out are float arrays of exactly these shapes; nothing
    coerces them.  Row k of each output belongs to component idx[k].
    """

    dim_x: int
    dim_g: int
    m: int
    g_oracle: Callable
    h_oracle: Callable
    f_outer: Callable
    r_term: SimpleTerm = field(default_factory=ZeroTerm)
    component_values: Optional[Callable] = None

    def __post_init__(self):
        if self.dim_x < 1 or self.dim_g < 1 or self.m < 1:
            raise ValueError("dim_x, dim_g and m must be positive")

    def _stacked_values(self, x):
        """Every g_i and h_i value from one call of each oracle field over
        every index, read at call time: the reference batch."""
        every = np.arange(self.m)
        return self.g_oracle(every, x)[0], self.h_oracle(every, x)[0]


def per_index(oracle, m=None):
    """Batch oracle (idx, x, jac=True) -> (values, derivatives) stacking a
    per-index oracle (i, x) -> (value, derivative) row by row, in index
    order: every one of the m rows for idx None, the values alone if not
    jac."""

    def batch(idx, x, jac=True):
        rows = [oracle(i, x) for i in (range(m) if idx is None else idx)]
        values = np.array([value for value, _ in rows], dtype=float)
        if not jac:
            return values
        return values, np.array([deriv for _, deriv in rows], dtype=float)

    return batch


def at_index(oracle, i, x):
    """(value, derivative) of component i through a batch oracle field:
    the one-row batch [i]."""
    value, deriv = oracle(np.array([i]), x)
    return value[0], deriv[0]


def _index_batch(indices):
    idx = np.asarray(indices)
    if idx.size == 0:
        raise ValueError("empty index batch")
    return idx


def _charge(counter, calls):
    if counter is not None:
        counter.g_value_calls += calls
        counter.h_gradient_calls += calls


def _segments(n, segments, counter):
    """(counter, lo, hi) of each consecutive row segment of an n-row
    batch: every row, charged to counter, when segments is None; else
    one segment per length, charged to its own counter[k].  Lengths stay
    built-in ints, so the counters they charge stay JSON-safe."""
    if segments is None:
        return [(counter, 0, n)]
    parts, lo = [], 0
    for c, size in zip(counter, map(operator.index, segments), strict=True):
        if size < 1:
            raise ValueError(f"segment lengths must be positive, got {size}")
        parts.append((c, lo, lo + size))
        lo += size
    if lo != n:
        raise ValueError(f"segment lengths sum to {lo}, not the batch "
                         f"size {n}")
    return parts


def batch_estimates(problem, indices, x, counter=None, segments=None):
    """Means of g values, g jacobians and h gradients over the index batch:
    one call per oracle field, reduced over the rows in index order.
    Charges n calls per family for n indices.

    Given segments, a list of consecutive segment lengths summing to the
    batch size, it returns one triple per segment, each the mean over
    that segment's rows, and counter is a sequence of one counter (or
    None) per segment, charged by its segment's length; the oracle calls
    are still one per field.
    """
    idx = _index_batch(indices)
    parts = _segments(idx.size, segments, counter)
    g_vals, g_jacs = problem.g_oracle(idx, x)
    h_grads = problem.h_oracle(idx, x)[1]
    triples = []
    for c, lo, hi in parts:
        n = hi - lo
        _charge(c, n)
        triples.append((g_vals[lo:hi].sum(axis=0) / n,
                        g_jacs[lo:hi].sum(axis=0) / n,
                        h_grads[lo:hi].sum(axis=0) / n))
    return triples[0] if segments is None else triples


def delta_update(problem, indices, x_new, x_old, y, z, w, counter=None,
                 segments=None):
    """One incremental correction of the three estimators.

    Returns (y', z', w') with, e.g.,
        y' = y + (1/|S|) sum_{i in S} [g_i(x_new) - g_i(x_old)],
    calling each oracle field once per point on the whole batch and
    charging 2n calls per family for n indices.

    Given segments (see batch_estimates), y, z and w are sequences of
    one estimator per segment, counter is one counter per segment, and
    it returns one corrected triple per segment, each over its own rows.
    """
    idx = _index_batch(indices)
    parts = _segments(idx.size, segments, counter)
    g_new, j_new = problem.g_oracle(idx, x_new)
    g_old, j_old = problem.g_oracle(idx, x_old)
    h_new = problem.h_oracle(idx, x_new)[1]
    h_old = problem.h_oracle(idx, x_old)[1]
    if segments is None:
        y, z, w = (y,), (z,), (w,)
    dg, dj, dh = g_new - g_old, j_new - j_old, h_new - h_old
    triples = []
    for y_k, z_k, w_k, (c, lo, hi) in zip(y, z, w, parts, strict=True):
        n = hi - lo
        _charge(c, 2 * n)
        triples.append((y_k + dg[lo:hi].sum(axis=0) / n,
                        z_k + dj[lo:hi].sum(axis=0) / n,
                        w_k + dh[lo:hi].sum(axis=0) / n))
    return triples[0] if segments is None else triples


def evaluate_psi(problem, x, counter=None):
    """Exact objective value Psi(x), averaging all m components.

    Reads every component value through one component_values call; the
    counter advances by m per g/h family and by one outer-map call.
    """
    m = problem.m
    g_vals, h_vals = (problem.component_values or problem._stacked_values)(x)
    f_val, _ = problem.f_outer(g_vals.sum(axis=0) / m)
    if counter is not None:
        counter.g_value_calls += m
        counter.h_gradient_calls += m
        counter.f_outer_calls += 1
    return float(problem.r_term.value(x) + float(h_vals.sum()) / m + f_val)


def full_phi_gradient(problem, x, counter=None):
    """Exact gradient of Phi = (1/m) sum h_i + f((1/m) sum g_i).

    Chain rule with the exact batch means:  Dg(x)^T f'(g(x)) + grad h(x).
    Increments the counters by m per family when given one.
    """
    y, z, w = batch_estimates(problem, np.arange(problem.m), x, counter)
    _, fprime = problem.f_outer(y)
    if counter is not None:
        counter.f_outer_calls += 1
    return z.T @ fprime + w


def gradient_mapping(problem, eta, x, counter=None):
    """Proximal gradient mapping of Psi with the exact full gradient.

    G_eta(x) = (1/eta) * [x - prox_r(x - eta * grad Phi(x), eta)].
    Returns (vector, squared norm).  With r = 0 the vector is grad Phi(x).
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    x = np.asarray(x, dtype=float)
    grad = full_phi_gradient(problem, x, counter)
    stepped = problem.r_term.prox(x - eta * grad, eta)
    if counter is not None:
        counter.prox_calls += 1
    vec = (x - stepped) / eta
    return vec, float(vec @ vec)


@dataclass
class JacobianReport:
    """Worst relative finite-difference errors found by check_jacobians."""

    max_rel_error_g: float
    max_rel_error_h: float
    max_rel_error_f: float
    probes: int

    @property
    def max_rel_error(self):
        return max(self.max_rel_error_g, self.max_rel_error_h, self.max_rel_error_f)


def check_jacobians(problem, num_probes=20, seed=0, scale=1.0):
    """Compare analytic jacobians/gradients against central differences.

    Probes random (i, x) pairs, one row at a time; relative error is
    ||analytic - fd|| over max(1, ||fd||).  A g jacobian whose shape is not
    (p, d), or a NaN anywhere in a probe, counts as an infinite error; a
    probe whose analytic row or difference quotient is infinite (beyond
    the float range) is skipped, as one outside the outer map's domain
    is.  Reports the worst error per oracle family and never aborts.
    """
    g, h, f = problem.g_oracle, problem.h_oracle, problem.f_outer
    rng = np.random.default_rng(seed)
    d, p, m = problem.dim_x, problem.dim_g, problem.m
    worst_g = worst_h = worst_f = 0.0
    for _ in range(num_probes):
        x = scale * rng.standard_normal(d)
        i = int(rng.integers(0, m))
        step = 1e-6 * (1.0 + float(np.max(np.abs(x))))

        u, jac = at_index(g, i, x)
        if np.shape(jac) == (p, d):
            fd = _central_differences(lambda v: at_index(g, i, v)[0], x, step)
            worst_g = max(worst_g, _rel_err(jac, fd))
        else:
            worst_g = np.inf
        fd = _central_differences(lambda v: at_index(h, i, v)[0], x, step)
        worst_h = max(worst_h, _rel_err(at_index(h, i, x)[1], fd))

        # probe the outer map at the inner value actually produced, by a
        # step of 1e-6 max|u| (1e-6 at u = 0) grown tenfold while rounding
        # hides a difference, up to 1e-6 (1 + max|u|); skip probes outside
        # its domain (a log's) so the checker reports instead of aborting
        size = float(np.max(np.abs(u)))
        ustep = 1e-6 * (size or 1.0)
        try:
            value, deriv = f(u)
            fd = _central_differences(lambda v: f(v)[0], u, ustep)
            while not (np.all(2.0 * ustep * np.abs(fd) > 1e-8 * abs(value))
                       or ustep >= 1e-6 * (1.0 + size)):
                ustep *= 10.0
                fd = _central_differences(lambda v: f(v)[0], u, ustep)
            worst_f = max(worst_f, _rel_err(deriv, fd))
        except (ArithmeticError, ValueError):
            pass
    return JacobianReport(worst_g, worst_h, worst_f, num_probes)


def _central_differences(value, point, step):
    """Central difference quotients of value() along each coordinate of
    point, stacked on the last axis."""
    columns = []
    for k in range(point.size):
        e = np.zeros(point.size)
        e[k] = step
        columns.append((value(point + e) - value(point - e)) / (2 * step))
    return np.stack(columns, axis=-1)


def _rel_err(a, b):
    """||a - b|| / max(1, ||b||): 0, a skipped probe, where a, b or a norm
    is infinite (beyond the float range), else inf on a NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        diff, size = np.linalg.norm(a - b), np.linalg.norm(b)
    if np.isinf(a).any() or np.isinf(b).any() or np.isinf(diff + size):
        return 0.0
    if np.isnan(diff):
        return np.inf
    return float(diff / max(1.0, size))
