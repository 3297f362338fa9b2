"""Compile the robust objectives into the canonical composite form.

Three reductions are provided: a variance-penalized form (chi-square
penalty on the adversarial weights), an entropic form (KL penalty), and
a smoothed heavily-constrained form (one constraint per sample, folded
into a log-sum-exp penalty).  Each comes with a worst-case-weight
extractor, and a brute-force simplex maximizer certifies the penalized
forms on small instances.

All exponentials run in max-shifted log space; the compiled problems
carry a fixed shift anchored at a reference point so the estimator
recursions stay consistent across evaluations.

One compiler, _compile, writes every reduction's batch g_oracle and
h_oracle and its component_values (every component value in one array
pass, which the exact objective reads) from maps g_i = phi(f_i) and
h_i = psi(f_i) of the loss or constraint values, applied to a whole
batch of rows at once.  Loss families and constraint sets share one
read, eval(idx, x, jac=True); a plain sequence of loss functions goes
through composite.per_index.  The oracles read the sampled rows and
component_values the values alone of every row (idx None, jac=False),
which in the Wasserstein form is the constraint set's values(x), so
the exact objective and the violation share one read per point.  kl
and wasserstein share one shifted-exponential map with one range
check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .composite import CompositeProblem, per_index
from .constraints import ConstraintSet
from .problems import sigmoids
from .proxlib import AffineTerm, SimpleTerm, ZeroTerm

EXP_LIMIT = 700.0  # largest exponent fed to np.exp after shifting


class NumericalRangeError(FloatingPointError):
    """A value left the floating-point range: an exponent despite
    shifting, or a solver iterate that diverged."""


class DivergenceError(NumericalRangeError):
    """A run whose objective grew far past its start while staying
    finite."""


class OuterDomainError(NumericalRangeError):
    """A mean estimate outside the outer map's domain: the log argument
    of the kl or Wasserstein outer map is not positive."""


@dataclass
class Chi2Config:
    """Penalty weight of the variance-penalized reduction."""

    gamma: float

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")


@dataclass
class KlConfig:
    """Entropy weight of the KL-penalized reduction."""

    gamma: float

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")


@dataclass
class WassersteinConfig:
    """Constraint scale alpha and smoothing temperature gamma (see
    restart_gamma for the temperature a restart count sets)."""

    alpha: float
    gamma: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")


def restart_gamma(K, m):
    """exp(-K)/ln(m+1): the temperature that shrinks the smoothing bias
    gamma*ln(m+1) of m constraints to exp(-K) after K restarts."""
    if K < 1:
        raise ValueError("K must be a positive integer")
    return float(np.exp(-K) / np.log(m + 1))


@dataclass
class WorstCaseWeights:
    """Adversarial distribution over the m summands.

    feasible is True iff the closed form already lay in [0,1]^m; when it
    does not, the weights are clipped and renormalized and the flag is
    False.
    """

    p: np.ndarray
    feasible: bool


def _as_family(losses, dim=None):
    """Normalize loss input to (m, dim, eval): eval(idx, x, jac=True) ->
    (values (n,), gradients (n, d)) of the rows idx, every row for None,
    the values alone if not jac.  A plain sequence of callables x ->
    (value, gradient) is stacked by per_index."""
    if hasattr(losses, "eval") and hasattr(losses, "m"):
        return losses.m, losses.dim, losses.eval
    funcs = list(losses)
    if dim is None:
        raise ValueError("dim is required when losses is a plain sequence")
    return len(funcs), dim, per_index(lambda i, x: funcs[i](x), len(funcs))


def _identity(v):
    return v, None  # unit slope: the gradients pass through unscaled


def _scaled(slope, grads):
    """Row k of grads (n, d) times slope[k]; grads itself for no slope."""
    return grads if slope is None else slope[:, None] * grads


def _compile(family, g_map, f_outer, h_map=None, h_side=None, r_term=None):
    """Composite problem with g_i = g_map(f_i), h_i = h_map(f_i) over a
    family (m, dim, eval).  A map takes an array of loss values
    to (image, slope), elementwise; the slope scales each row's loss
    gradient, and None stands for slope 1.  h is zero without h_map, or
    h_side = (h_oracle, h_values(x, losses)).
    """
    m, d, ev = family

    def g_oracle(idx, x):
        vals, grads = ev(idx, x)
        gv, slope = g_map(vals)
        return gv[:, None], _scaled(slope, grads)[:, None, :]

    if h_side is not None:
        h_oracle, h_values = h_side
    elif h_map is not None:
        def h_oracle(idx, x):
            vals, grads = ev(idx, x)
            hv, slope = h_map(vals)
            return hv, _scaled(slope, grads)

        def h_values(x, v):
            return h_map(v)[0]
    else:
        def h_oracle(idx, x):
            return np.zeros(len(idx)), np.zeros((len(idx), d))

        def h_values(x, v):
            return np.zeros(m)

    def component_values(x):
        v = ev(None, x, jac=False)
        return g_map(v)[0][:, None], h_values(x, v)

    return CompositeProblem(dim_x=d, dim_g=1, m=m, g_oracle=g_oracle,
                            h_oracle=h_oracle, f_outer=f_outer,
                            r_term=r_term or ZeroTerm(),
                            component_values=component_values)


def _shifted_exp(family, alpha, gamma, anchor, floor=-np.inf):
    """(shift, map v -> exp(alpha*v/gamma - shift)): the shift is the
    largest exponent at the anchor, at least floor (zero without one);
    the map raises NumericalRangeError past EXP_LIMIT."""
    m, _, ev = family
    shift = 0.0
    if anchor is not None:
        # through the rows the estimators read, not the whole-set value
        # read: the shift enters every g_i, so it must not move by the
        # rounding of the value-only batch
        shift = max(floor, float(np.max(
            alpha * ev(np.arange(m), anchor)[0] / gamma)))

    def exp_map(v):
        e = alpha * v / gamma - shift
        top = np.fmax.reduce(e)  # skips NaN, which the compare would too
        if top > EXP_LIMIT:
            raise NumericalRangeError(
                f"exponent {top:.1f} exceeds range after shift; increase "
                "gamma or re-anchor"
            )
        gv = np.exp(e)
        return gv, gv * alpha / gamma

    return shift, exp_map


def build_chi2(losses, cfg: Chi2Config, dim=None):
    """Variance-penalized objective as a composite problem.

    Psi(x) = mean(f) + (1/(2*gamma*m)) * sum_i (f_i - mean(f))^2, realized
    with g_i = f_i, h_i = f_i + f_i^2/(2*gamma), outer map u -> -u^2/(2*gamma).
    The brute-force simplex oracle certifies this value on small instances.
    The batch path evaluates each loss once for both g and h.
    """
    gamma = cfg.gamma

    def h_map(v):
        return v + v * v / (2.0 * gamma), 1.0 + v / gamma

    def f_outer(u):
        u0 = np.float64(u[0])
        with np.errstate(over="ignore"):
            square = u0 ** 2  # numpy's pow, as float's, but inf past the range
        if np.isinf(square) and np.isfinite(u0):
            raise NumericalRangeError(
                f"chi2 outer map overflows: the inner mean u = {u0:.3e} "
                "squares past the float range")
        return float(-square / (2.0 * gamma)), np.array([-u0 / gamma])

    return _compile(_as_family(losses, dim), _identity, f_outer, h_map)


def chi2_worst_case_weights(loss_values, gamma):
    """Closed-form maximizer weights p_i = (1/m)((f_i - mean)/gamma + 1)."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    f = np.asarray(loss_values, dtype=float)
    m = f.size
    raw = ((f - f.mean()) / gamma + 1.0) / m
    feasible = bool(np.all(raw >= -1e-12) and np.all(raw <= 1.0 + 1e-12))
    if feasible:
        return WorstCaseWeights(p=np.clip(raw, 0.0, 1.0), feasible=True)
    clipped = np.clip(raw, 0.0, 1.0)
    return WorstCaseWeights(p=clipped / clipped.sum(), feasible=False)


def build_kl(losses, cfg: KlConfig, dim=None, shift_anchor=None):
    """Entropic objective Psi(x) = ln((1/m) sum_i exp(f_i(x)/gamma)).

    Compiled with g_i = exp(f_i/gamma - c) and outer map u -> ln(u) + c,
    where the fixed shift c is the largest exponent seen at the anchor
    point (zero without an anchor).
    """
    family = _as_family(losses, dim)
    # no implicit unit term as in the constrained penalty, so a negative
    # shift is fine (and needed when every loss is deeply negative)
    shift, exp_map = _shifted_exp(family, 1.0, cfg.gamma, shift_anchor)

    def f_outer(u):
        u0 = float(u[0])
        if u0 <= 0.0:
            raise OuterDomainError(
                f"mean estimate u = {u0:.3e} is non-positive, outside ln's "
                "domain (a variance-reduced estimate can cross zero; else all "
                "shifted exponentials underflowed: re-anchor or raise gamma)"
            )
        return np.log(u0) + shift, np.array([1.0 / u0])

    return _compile(family, exp_map, f_outer)


def kl_worst_case_weights(loss_values, gamma):
    """Softmax maximizer of the entropy-penalized inner problem."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    f = np.asarray(loss_values, dtype=float) / gamma
    e = np.exp(f - f.max())
    return WorstCaseWeights(p=e / e.sum(), feasible=True)


def wasserstein_penalty(constraint_values, alpha, gamma):
    """Smoothed constraint penalty gamma * ln(1 + sum_i exp(alpha*c_i/gamma)).

    Evaluated in max-shifted log space (the implicit leading 1 is the
    exponent 0).  Sandwiched between max(0, alpha*max_i c_i) and the same
    plus gamma*ln(m+1).
    """
    c = np.asarray(constraint_values, dtype=float)
    exponents = alpha * c / gamma
    shift = max(0.0, float(np.max(exponents)))
    return gamma * (shift + np.log(np.exp(-shift) + np.sum(np.exp(exponents - shift))))


def build_wasserstein(objective, constraints: ConstraintSet, cfg: WassersteinConfig,
                      shift_anchor=None, dim=None):
    """Smoothed heavily-constrained objective as a composite problem.

    Psi(x) = objective(x) + gamma * ln((1 + sum_i exp(alpha*c_i(x)/gamma)) / (m+1)).

    A prox-capable objective (SimpleTerm) goes into the simple slot with
    h = 0; a smooth objective exposing value_grad(x) is folded uniformly
    into every h_i, which the delta estimators then track exactly.  The
    compiled exponentials carry a fixed shift anchored at shift_anchor.
    """
    m = constraints.m
    alpha = cfg.alpha
    gamma = cfg.gamma

    if isinstance(objective, SimpleTerm):
        r_term, h_side = objective, None
        if dim is None:
            raise ValueError("dim is required when the objective is a simple term")
        d = dim
    elif hasattr(objective, "value_grad"):
        r_term = ZeroTerm()
        d = dim if dim is not None else getattr(objective, "dim", None)
        if d is None:
            raise ValueError("cannot infer decision dimension; pass dim")

        def h_oracle(idx, x):
            val, grad = objective.value_grad(x)
            n = len(idx)
            return (np.full(n, float(val)),
                    np.tile(np.asarray(grad, dtype=float), (n, 1)))

        def h_values(x, _):
            return np.full(m, float(objective.value_grad(x)[0]))

        h_side = (h_oracle, h_values)
    else:
        raise TypeError("objective must be a SimpleTerm or expose value_grad(x)")

    def rows(idx, x, jac=True):
        # through the set's eval at call time, so a class-level wrapper
        # sees it; every value through values(x), which the violation
        # reads at the same point
        if idx is None and not jac:
            return constraints.values(x)
        return constraints.eval(idx, x, jac)

    family = (m, d, rows)
    shift, exp_map = _shifted_exp(family, alpha, gamma, shift_anchor, floor=0.0)
    base = np.exp(-shift)  # the constant 1 of the penalty, in shifted space
    log_m1 = np.log(m + 1.0)

    def f_outer(u):
        u0 = float(u[0])
        total = base + m * u0
        if total <= 0.0:
            raise OuterDomainError(
                f"mean estimate u = {u0:.3e} is non-positive, and so is the "
                f"log argument {total:.3e} (a variance-reduced estimate can "
                "cross zero; else the penalty underflowed: re-anchor the shift)"
            )
        val = gamma * (np.log(total) - log_m1 + shift)
        return val, np.array([gamma * m / total])

    return _compile(family, exp_map, f_outer, h_side=h_side, r_term=r_term)


def wasserstein_stages(objective, constraints, cfg: WassersteinConfig, dim):
    """Stage builder (k, x_start) -> build_wasserstein(..., shift_anchor=
    x_start): every stage keeps the temperature and re-anchors the
    compiled exponentials at its warm start."""

    def builder(k, x_start):  # looked up per call, so wrappers see it
        return build_wasserstein(objective, constraints, cfg,
                                 shift_anchor=np.asarray(x_start, dtype=float),
                                 dim=dim)

    return builder


def build_mean(losses, dim=None):
    """Plain empirical risk mean(f) as a composite (identity outer map)."""

    def f_outer(u):
        return float(u[0]), np.array([1.0])

    return _compile(_as_family(losses, dim), _identity, f_outer)


def build_dr_logistic(dataset, eps_radius, kappa_flip):
    """Robust logistic regression as an affine objective plus constraints.

    Decision vector (beta, lam, s_1..s_m) of dimension d_beta + 1 + m.
    The objective is lam*eps + mean(s).  Constraints: per sample, the
    logistic loss on the true label minus the slack, the loss on the
    flipped label minus lam*kappa minus the slack, and the norm cone
    ||beta|| <= lam (which also forces lam >= 0).
    """
    if hasattr(dataset, "features"):
        Z = np.asarray(dataset.features, dtype=float)
        y = np.asarray(dataset.labels, dtype=float)
    else:
        Z, y = dataset
        Z = np.asarray(Z, dtype=float)
        y = np.asarray(y, dtype=float)
    if Z.shape[0] == 0:
        raise ValueError("empty dataset")
    if eps_radius <= 0 or kappa_flip <= 0:
        raise ValueError("eps_radius and kappa_flip must be positive")
    m, d_beta = Z.shape
    dim = d_beta + 1 + m

    slope = np.zeros(dim)
    slope[d_beta] = eps_radius
    slope[d_beta + 1:] = 1.0 / m
    objective = AffineTerm(slope)

    # each row's sample j, margin sign and coefficient on lam: the true
    # rows, the flipped rows, then the norm cone (sample 0, sign 0)
    every = np.arange(2 * m + 1)
    sample = np.concatenate([every[:m], every[:m], [0]])
    sign = np.concatenate([-y, y, [0.0]])
    lam_coef = np.concatenate([np.zeros(m), np.full(m, -kappa_flip), [-1.0]])
    # the jacobian's fixed entries (the lam column, each loss row's -1 on
    # its slack) and each row's signed sample, which scales by its sigmoid
    # to the beta block: a sign of +-1 or 0 multiplies exactly
    fixed = np.zeros((2 * m + 1, dim))
    fixed[:, d_beta] = lam_coef
    fixed[every[:-1], d_beta + 1 + sample[:-1]] = -1.0
    signed_Z = sign[:, None] * Z[sample]

    def batch(idx, x, jac=True):
        beta, lam, s = x[:d_beta], float(x[d_beta]), x[d_beta + 1:]
        # every row: views of the tables, the cone row last
        rows, cone = ((slice(None), slice(-1, None)) if idx is None
                      else (idx, idx == 2 * m))
        has_cone = idx is None or cone.any()
        j = sample[rows]
        t = sign[rows] * (Z @ beta)[j]
        values = np.logaddexp(0.0, t) + lam_coef[rows] * lam - s[j]
        if has_cone:
            norm = math.sqrt(beta @ beta)  # np.linalg.norm's own formula
            values[cone] = norm - lam
        if not jac:
            return values
        jacobian = fixed.copy() if idx is None else fixed[idx]
        jacobian[:, :d_beta] = sigmoids(t)[:, None] * signed_Z[rows]
        if has_cone:
            jacobian[cone, :d_beta] = beta / norm if norm > 0 else 0.0
        return values, jacobian

    return objective, ConstraintSet(m=2 * m + 1, batch=batch)


def convexify_constraints(cset: ConstraintSet, mu_vec):
    """Shifted constraints c_i(x) + mu_i * ||x||^2 with matching gradients."""
    mu = np.asarray(mu_vec, dtype=float)
    if mu.size != cset.m:
        raise ValueError("one mu per constraint required")
    if np.any(mu < 0):
        raise ValueError("mu entries must be nonnegative")

    def batch(idx, x, jac=True):
        rows = slice(None) if idx is None else idx
        shift = mu[rows] * float(x @ x)
        if not jac:
            return cset.eval(idx, x, jac=False) + shift
        vals, jacobian = cset.eval(idx, x)
        return vals + shift, jacobian + 2.0 * mu[rows, None] * x

    return ConstraintSet(m=cset.m, batch=batch)


def _project_simplex(v):
    """Euclidean projection onto the probability simplex (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    cond = u - (css - 1.0) / idx > 0
    rho = int(np.nonzero(cond)[0][-1])
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def brute_force_penalized_max(loss_values, divergence, gamma, max_iter=100_000):
    """Independent oracle for the penalized inner maximum over the simplex.

    Projected gradient ascent from the uniform distribution with step
    1/(10*gamma*m) (stopped early once the iterate is numerically
    stationary), plus vertex enumeration for m <= 3; returns the larger
    value.  Test-scale only: m <= 12.
    """
    f = np.asarray(loss_values, dtype=float)
    m = f.size
    if m > 12:
        raise ValueError("brute-force oracle is restricted to m <= 12")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if divergence not in ("chi2", "kl"):
        raise ValueError(f"unknown divergence {divergence!r}")

    def value(p):
        if divergence == "chi2":
            return float(p @ f - gamma * (m / 2.0) * np.sum((p - 1.0 / m) ** 2))
        q = np.clip(p, 1e-300, None)
        return float(p @ f - gamma * np.sum(p * np.log(q)))

    def grad(p):
        if divergence == "chi2":
            return f - gamma * m * (p - 1.0 / m)
        return f - gamma * (np.log(np.clip(p, 1e-300, None)) + 1.0)

    step = 1.0 / (10.0 * gamma * m)
    p = np.full(m, 1.0 / m)
    for _ in range(max_iter):
        p_new = _project_simplex(p + step * grad(p))
        if np.max(np.abs(p_new - p)) < 1e-16:
            p = p_new
            break
        p = p_new
    best = value(p)

    if m <= 3:
        for i in range(m):
            vertex = np.zeros(m)
            vertex[i] = 1.0
            best = max(best, value(vertex))
    return best
