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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from scipy.special import expit

from .composite import CompositeProblem
from .constraints import AFFINE, CONVEX_SMOOTH, GENERAL, ConstraintSet
from .proxlib import AffineTerm, SimpleTerm, ZeroTerm

EXP_LIMIT = 700.0  # largest exponent fed to np.exp after shifting


class NumericalRangeError(FloatingPointError):
    """A value left the floating-point range: an exponent despite
    shifting, or a solver iterate that diverged."""


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
    """Constraint scale alpha and smoothing temperature gamma.

    gamma may be given directly, or derived from the restart count K as
    exp(-K)/ln(m+1) (the schedule that shrinks the smoothing bias to the
    target accuracy); call resolve_gamma(m) in the latter case.
    """

    alpha: float
    gamma: float | None = None
    K: int | None = None

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.gamma is None and self.K is None:
            raise ValueError("provide gamma or K")
        if self.gamma is not None and self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.K is not None and self.K < 1:
            raise ValueError("K must be a positive integer")

    def resolve_gamma(self, m):
        if self.gamma is not None:
            return self.gamma
        return float(np.exp(-self.K) / np.log(m + 1))


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
    """Normalize loss input to (m, dim, eval) with eval(i, x) -> (val, grad)."""
    if hasattr(losses, "eval") and hasattr(losses, "m"):
        return losses.m, losses.dim, losses.eval
    funcs = list(losses)
    if dim is None:
        raise ValueError("dim is required when losses is a plain sequence")
    return len(funcs), dim, lambda i, x: funcs[i](x)


def build_chi2(losses, cfg: Chi2Config, dim=None):
    """Variance-penalized objective as a composite problem.

    Psi(x) = mean(f) + (1/(2*gamma*m)) * sum_i (f_i - mean(f))^2, realized
    with g_i = f_i, h_i = f_i + f_i^2/(2*gamma), outer map u -> -u^2/(2*gamma).
    The brute-force simplex oracle certifies this value on small instances.
    """
    m, d, ev = _as_family(losses, dim)
    gamma = cfg.gamma

    def g_oracle(i, x):
        val, grad = ev(i, x)
        return np.array([val]), np.asarray(grad, dtype=float).reshape(1, -1)

    def h_oracle(i, x):
        val, grad = ev(i, x)
        return val + val * val / (2.0 * gamma), (1.0 + val / gamma) * np.asarray(grad, dtype=float)

    def f_outer(u):
        return -float(u[0]) ** 2 / (2.0 * gamma), np.array([-float(u[0]) / gamma])

    return CompositeProblem(dim_x=d, dim_g=1, m=m, g_oracle=g_oracle,
                            h_oracle=h_oracle, f_outer=f_outer, name="chi2")


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
    m, d, ev = _as_family(losses, dim)
    gamma = cfg.gamma
    shift = 0.0
    if shift_anchor is not None:
        # center the largest exponent at zero; unlike the constrained
        # penalty there is no implicit unit term, so a negative shift is
        # fine (and needed when every loss is deeply negative)
        shift = float(max(ev(i, shift_anchor)[0] / gamma for i in range(m)))

    def g_oracle(i, x):
        val, grad = ev(i, x)
        e = val / gamma - shift
        if e > EXP_LIMIT:
            raise NumericalRangeError(
                f"exponent {e:.1f} exceeds range after shift; increase gamma"
            )
        gv = np.exp(e)
        return np.array([gv]), (gv / gamma) * np.asarray(grad, dtype=float).reshape(1, -1)

    def f_outer(u):
        u0 = float(u[0])
        if u0 <= 0.0:
            raise NumericalRangeError(
                "all shifted exponentials underflowed; re-anchor the shift or increase gamma"
            )
        return np.log(u0) + shift, np.array([1.0 / u0])

    def h_oracle(i, x):
        return 0.0, np.zeros(d)

    return CompositeProblem(dim_x=d, dim_g=1, m=m, g_oracle=g_oracle,
                            h_oracle=h_oracle, f_outer=f_outer, name="kl")


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
    gamma = cfg.resolve_gamma(m)

    if isinstance(objective, SimpleTerm):
        r_term = objective
        if dim is None:
            raise ValueError("dim is required when the objective is a simple term")
        d = dim

        def h_oracle(i, x):
            return 0.0, np.zeros(d)
    elif hasattr(objective, "value_grad"):
        r_term = ZeroTerm()
        d = dim if dim is not None else getattr(objective, "dim", None)
        if d is None:
            raise ValueError("cannot infer decision dimension; pass dim")

        def h_oracle(i, x):
            val, grad = objective.value_grad(x)
            return float(val), np.asarray(grad, dtype=float)
    else:
        raise TypeError("objective must be a SimpleTerm or expose value_grad(x)")

    shift = 0.0
    if shift_anchor is not None:
        vals = constraints.values(shift_anchor)
        shift = max(0.0, float(np.max(alpha * vals / gamma)))
    base = np.exp(-shift)  # the constant 1 of the penalty, in shifted space

    def g_oracle(i, x):
        val, grad = constraints.eval(i, x)
        e = alpha * val / gamma - shift
        if e > EXP_LIMIT:
            raise NumericalRangeError(
                f"constraint exponent {e:.1f} exceeds range after shift; "
                "increase gamma or re-anchor"
            )
        gv = np.exp(e)
        return np.array([gv]), (gv * alpha / gamma) * np.asarray(grad, dtype=float).reshape(1, -1)

    def f_outer(u):
        u0 = float(u[0])
        total = base + m * u0
        if total <= 0.0:
            raise NumericalRangeError(
                "smoothed penalty underflowed entirely; re-anchor the shift"
            )
        val = gamma * (np.log(total) - np.log(m + 1.0) + shift)
        return val, np.array([gamma * m / total])

    return CompositeProblem(dim_x=d, dim_g=1, m=m, g_oracle=g_oracle,
                            h_oracle=h_oracle, f_outer=f_outer,
                            r_term=r_term, name="wasserstein")


def build_mean(losses, dim=None):
    """Plain empirical risk mean(f) as a composite (identity outer map)."""
    m, d, ev = _as_family(losses, dim)

    def g_oracle(i, x):
        val, grad = ev(i, x)
        return np.array([val]), np.asarray(grad, dtype=float).reshape(1, -1)

    def h_oracle(i, x):
        return 0.0, np.zeros(d)

    def f_outer(u):
        return float(u[0]), np.array([1.0])

    return CompositeProblem(dim_x=d, dim_g=1, m=m, g_oracle=g_oracle,
                            h_oracle=h_oracle, f_outer=f_outer, name="mean")


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

    def split(x):
        return x[:d_beta], float(x[d_beta]), x[d_beta + 1:]

    def loss_and_grad(beta, z, label):
        margin = -label * float(beta @ z)
        val = float(np.logaddexp(0.0, margin))
        return val, -label * float(expit(margin)) * z

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

    kinds = tuple([CONVEX_SMOOTH] * (2 * m) + [GENERAL])
    return objective, ConstraintSet(m=2 * m + 1, oracle=oracle, kinds=kinds)


def convexify_constraints(cset: ConstraintSet, mu_vec):
    """Shifted constraints c_i(x) + mu_i * ||x||^2 with matching gradients."""
    mu = np.asarray(mu_vec, dtype=float)
    if mu.size != cset.m:
        raise ValueError("one mu per constraint required")
    if np.any(mu < 0):
        raise ValueError("mu entries must be nonnegative")

    def oracle(i, x):
        x = np.asarray(x, dtype=float)
        val, grad = cset.eval(i, x)
        return val + mu[i] * float(x @ x), grad + 2.0 * mu[i] * x

    kinds = []
    for k, mu_i in zip(cset.kinds, mu):
        if mu_i == 0.0:
            kinds.append(k)
        elif k in (AFFINE, CONVEX_SMOOTH):
            kinds.append(CONVEX_SMOOTH)
        else:
            kinds.append(GENERAL)
    return ConstraintSet(m=cset.m, oracle=oracle, kinds=tuple(kinds))


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
