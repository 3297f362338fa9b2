"""Concrete losses, datasets, synthetic generators, and fairness constraints.

Loss families read rows the way constraint sets do, through one batch
oracle eval(idx, x, jac=True) -> (values (n,), gradients (n, d)) over a
1-D array of row indices (repeats allowed, None for all m rows), the
values alone with jac=False, each in one array expression.  Classifier
families read their raw scores the same way, score(idx, x, jac=True) ->
(scores (n,), gradients (n, d)), the scores alone with jac=False; the
fairness constraints differentiate through that read, and the hard-rate
metrics read score(None, x, jac=False).  Everything is deterministic
under an explicit seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .constraints import ConstraintSet


def sigmoids(t):
    """1 / (1 + exp(-t)) elementwise; an overflowing exp gives 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-t))


@dataclass
class TabularDataset:
    """Feature matrix, labels in {-1, +1}, optional group ids."""

    features: np.ndarray
    labels: np.ndarray
    group_ids: Optional[np.ndarray] = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("feature and label row counts disagree")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain NaN or Inf")
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        if self.group_ids is not None:
            self.group_ids = np.asarray(self.group_ids, dtype=int)
            if self.group_ids.shape[0] != self.labels.shape[0]:
                raise ValueError("group id row count disagrees")
            if np.any(self.group_ids < 0):
                raise ValueError("group ids must be nonnegative")

    @property
    def m(self):
        return self.features.shape[0]

    @property
    def dim(self):
        return self.features.shape[1]


@dataclass
class FairnessSpec:
    """Margin and surrogate sharpness for equal-opportunity constraints."""

    eps_slack: float = 0.05
    surrogate_temp: float = 5.0
    groups: Optional[Sequence[int]] = None

    def __post_init__(self):
        if self.eps_slack < 0:
            raise ValueError("eps_slack must be nonnegative")
        if self.surrogate_temp <= 0:
            raise ValueError("surrogate_temp must be positive")


class QuadraticLosses:
    """f_i(x) = 0.5 (<a_i, x> - b_i)^2 with the closed-form least-squares
    minimizer available for exact baselines."""

    def __init__(self, A, b):
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        if self.A.shape[0] != self.b.shape[0]:
            raise ValueError("A and b row counts disagree")
        self.m = self.A.shape[0]
        self.dim = self.A.shape[1]

    def eval(self, idx, x, jac=True):
        rows = slice(None) if idx is None else idx
        A = self.A[rows]
        resid = A @ x - self.b[rows]
        values = 0.5 * resid * resid
        return (values, resid[:, None] * A) if jac else values

    def minimizer(self):
        return np.linalg.solve(self.A.T @ self.A, self.A.T @ self.b)


class LogisticLosses:
    """Per-sample logistic loss log(1 + exp(-y_i <x, z_i>))."""

    def __init__(self, dataset: TabularDataset):
        self.dataset = dataset
        self.m = dataset.m
        self.dim = dataset.dim

    def eval(self, idx, x, jac=True):
        rows = slice(None) if idx is None else idx
        Z, y = self.dataset.features[rows], self.dataset.labels[rows]
        margins = -y * (Z @ x)
        values = np.logaddexp(0.0, margins)
        if not jac:
            return values
        return values, (-y * sigmoids(margins))[:, None] * Z

    def score(self, idx, x, jac=True):
        """Scores <x, z_i> of the rows idx (n,), every row for None, and
        their gradients z_i (n, d); the scores alone if not jac."""
        Z = self.dataset.features[slice(None) if idx is None else idx]
        return (Z @ x, Z) if jac else Z @ x


class Mlp2Losses:
    """Two-layer tanh network scored against logistic loss.

    Parameters pack as [W (hidden x d), b1 (hidden), v (hidden), b2];
    score(z) = <v, tanh(W z + b1)> + b2.
    """

    def __init__(self, dataset: TabularDataset, hidden=4):
        if hidden < 1:
            raise ValueError("hidden must be >= 1")
        self.dataset = dataset
        self.hidden = hidden
        self.m = dataset.m
        self.d_in = dataset.dim
        self.dim = hidden * self.d_in + hidden + hidden + 1

    def _unpack(self, x):
        h, d = self.hidden, self.d_in
        W = x[: h * d].reshape(h, d)
        b1 = x[h * d: h * d + h]
        v = x[h * d + h: h * d + 2 * h]
        b2 = x[-1]
        return W, b1, v, b2

    def score(self, idx, x, jac=True):
        """Scores of the rows idx (n,), every row for None, and their
        parameter gradients (n, D); the scores alone if not jac."""
        W, b1, v, b2 = self._unpack(np.asarray(x, dtype=float))
        Z = self.dataset.features[slice(None) if idx is None else idx]
        t = np.tanh(Z @ W.T + b1)
        if not jac:
            return t @ v + b2
        dt = (1.0 - t * t) * v  # per-row, per-unit sensitivity
        n = len(Z)
        sgrad = np.concatenate(
            [(dt[:, :, None] * Z[:, None, :]).reshape(n, -1), dt, t,
             np.ones((n, 1))], axis=1)
        return t @ v + b2, sgrad

    def eval(self, idx, x, jac=True):
        y = self.dataset.labels[slice(None) if idx is None else idx]
        if not jac:
            return np.logaddexp(0.0, -y * self.score(idx, x, jac=False))
        s, sgrad = self.score(idx, x)
        margins = -y * s
        grads = (-y * sigmoids(margins))[:, None] * sgrad
        return np.logaddexp(0.0, margins), grads


class MeanLossObjective:
    """Smooth objective (1/m) sum_i f_i(x) over a loss family."""

    def __init__(self, family):
        self.family = family
        self.dim = family.dim

    def value_grad(self, x):
        m = self.family.m
        vals, grads = self.family.eval(None, x)
        return float(np.sum(vals)) / m, grads.sum(axis=0) / m


class BrokenJacobianLosses:
    """Wrap a family with deliberately scaled gradients (checker fixture)."""

    def __init__(self, family, scale=1.5):
        self.family = family
        self.scale = scale
        self.m = family.m
        self.dim = family.dim

    def eval(self, idx, x, jac=True):
        if not jac:
            return self.family.eval(idx, x, jac=False)
        v, g = self.family.eval(idx, x)
        return v, self.scale * g


def make_losses(kind, dataset=None, *, m=None, d=None, seed=0, hidden=4, cond=10.0):
    """Loss family of the requested kind.

    logistic and mlp2 need a TabularDataset; quadratic accepts either an
    (A, b) pair or synthetic parameters (m, d, seed, cond).
    """
    if kind == "logistic":
        if dataset is None or dataset.m == 0:
            raise ValueError("logistic losses need a nonempty dataset")
        return LogisticLosses(dataset)
    if kind == "mlp2":
        if dataset is None or dataset.m == 0:
            raise ValueError("mlp2 losses need a nonempty dataset")
        return Mlp2Losses(dataset, hidden=hidden)
    if kind == "quadratic":
        if dataset is not None:
            A, b = dataset
            return QuadraticLosses(A, b)
        if m is None or d is None:
            raise ValueError("synthetic quadratic needs m and d")
        return make_synthetic("strongly_convex_quadratic", m=m, d=d, seed=seed,
                              cond=cond)
    raise ValueError(f"unknown loss kind {kind!r}")


def surrogate_tpr(scores, temp):
    """Sigmoid-relaxed true-positive rate of the given positive-row scores."""
    return float(np.mean(sigmoids(temp * np.asarray(scores, dtype=float))))


def build_fairness_constraints(dataset: TabularDataset, family,
                               spec: FairnessSpec) -> ConstraintSet:
    """One equal-opportunity constraint per group, in spec.groups order:

        tpr(ALL) - tpr(group) - eps <= 0,

    with the true-positive rates relaxed by a sigmoid of the classifier
    score at the configured temperature.  Each read scores the positive
    rows once; a fixed weight matrix W (n_pos, G), 1/n_pos minus 1/n_g on
    group g's rows, turns their sigmoids into every value, and their
    score gradients into every jacobian row.
    """
    if dataset.group_ids is None:
        raise ValueError("dataset carries no group ids")
    if not hasattr(family, "score"):
        raise ValueError("loss family does not expose classifier scores")
    groups = list(spec.groups) if spec.groups is not None else \
        sorted(int(g) for g in np.unique(dataset.group_ids))
    positives = np.nonzero(dataset.labels > 0)[0]
    if positives.size == 0:
        raise ValueError("dataset has no positive-labeled rows")
    W = np.empty((positives.size, len(groups)))
    for j, g in enumerate(groups):
        in_group = dataset.group_ids[positives] == g
        if not in_group.any():
            raise ValueError(f"group {g} has no positive-labeled rows")
        W[:, j] = 1.0 / positives.size - in_group / in_group.sum()
    temp = spec.surrogate_temp
    eps = spec.eps_slack

    def batch(idx, x, jac=True):
        cols = W if idx is None else W[:, idx]
        if not jac:
            s = family.score(positives, x, jac=False)
            return sigmoids(temp * s) @ cols - eps
        s, grads = family.score(positives, x)
        sig = sigmoids(temp * s)
        slopes = temp * sig * (1.0 - sig)
        return sig @ cols - eps, cols.T @ (slopes[:, None] * grads)

    return ConstraintSet(m=len(groups), batch=batch)


def group_true_positive_rates(dataset: TabularDataset, family, x):
    """Hard-indicator tpr overall and per group at the given parameters."""
    scores = family.score(None, x, jac=False)
    pos = dataset.labels > 0
    rates = {"ALL": float(np.mean(scores[pos] > 0))}
    if dataset.group_ids is not None:
        for g in np.unique(dataset.group_ids):
            rows = pos & (dataset.group_ids == g)
            if rows.any():
                rates[int(g)] = float(np.mean(scores[rows] > 0))
    return rates


def max_fairness_violation(dataset, family, x, eps):
    """Largest true-group equal-opportunity violation at x."""
    rates = group_true_positive_rates(dataset, family, x)
    overall = rates.pop("ALL")
    return max(0.0, max(overall - r - eps for r in rates.values()))


def error_rate(dataset: TabularDataset, family, x):
    scores = family.score(None, x, jac=False)
    predicted = np.where(scores > 0, 1.0, -1.0)
    return float(np.mean(predicted != dataset.labels))


def ingest_csv(path, schema, standardize=True):
    """Load a comma-separated file into a TabularDataset.

    schema maps column names to roles: feature | label | group.  The
    label column must take values in {-1, +1} (or {0, 1}, mapped).
    Feature columns are z-scored per column unless disabled; malformed
    cells report their row number and column name.
    """
    roles = dict(schema)
    bad = {r for r in roles.values() if r not in ("feature", "label", "group")}
    if bad:
        raise ValueError(f"unknown roles: {sorted(bad)}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty file: header row required")
        header = [h.strip() for h in header]
        missing = [c for c in roles if c not in header]
        if missing:
            raise ValueError(f"unknown columns (not in header): {missing}")
        feature_cols = [c for c in header if roles.get(c) == "feature"]
        label_cols = [c for c in header if roles.get(c) == "label"]
        group_cols = [c for c in header if roles.get(c) == "group"]
        if len(label_cols) != 1:
            raise ValueError("exactly one label column required")
        if len(group_cols) > 1:
            raise ValueError("at most one group column allowed")
        col_index = {c: header.index(c) for c in header}

        features, labels, groups = [], [], []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"row {line_no}: expected {len(header)} cells, got {len(row)}")

            def parse(col, caster):
                cell = row[col_index[col]].strip()
                try:
                    return caster(cell)
                except ValueError:
                    raise ValueError(
                        f"row {line_no}, column {col!r}: cannot parse {cell!r}")

            features.append([parse(c, float) for c in feature_cols])
            raw_label = parse(label_cols[0], float)
            if raw_label in (-1.0, 1.0):
                labels.append(raw_label)
            elif raw_label in (0.0,):
                labels.append(-1.0)
            else:
                raise ValueError(
                    f"row {line_no}, column {label_cols[0]!r}: label "
                    f"{raw_label} not in {{-1, +1}} or {{0, 1}}")
            if group_cols:
                groups.append(parse(group_cols[0], lambda s: int(float(s))))

    X = np.asarray(features, dtype=float)
    if X.size == 0:
        raise ValueError("file contains no data rows")
    if standardize:
        mean = X.mean(axis=0)
        std = X.std(axis=0, ddof=0)
        X = X - mean
        nonzero = std > 1e-12
        X[:, nonzero] = X[:, nonzero] / std[nonzero]
    return TabularDataset(
        features=X,
        labels=np.asarray(labels, dtype=float),
        group_ids=np.asarray(groups, dtype=int) if group_cols else None,
    )


class NonconvexToyLosses:
    """Tilted double-well losses with two distinct local minima of the mean.

    f_i(x) = 0.25 (x_1^2 - c_i)^2 + g_i x_1 + 0.5 ||x_rest||^2.
    """

    def __init__(self, c, g, d):
        self.c = np.asarray(c, dtype=float)
        self.g = np.asarray(g, dtype=float)
        self.m = self.c.size
        self.dim = d

    def eval(self, idx, x, jac=True):
        x = np.asarray(x, dtype=float)
        x1 = float(x[0])
        rest = x[1:]
        rows = slice(None) if idx is None else idx
        c, g = self.c[rows], self.g[rows]
        vals = 0.25 * (x1 * x1 - c) ** 2 + g * x1 + 0.5 * float(rest @ rest)
        if not jac:
            return vals
        grads = np.empty((len(c), x.size))
        grads[:, 0] = x1 * (x1 * x1 - c) + g
        grads[:, 1:] = rest
        return vals, grads


def _fit_logistic(dataset, iters=400, eta=0.5, ridge=1e-4):
    """Quick full-gradient logistic fit used by the bias-planting generator:
    one matrix-vector gradient (the sum of the eval gradients over every
    row) per iteration.  The loop enters errstate once; with labels +-1,
    -y / (1 + exp(y z)) is -y * sigmoids(-y z) bit for bit."""
    Z, y = dataset.features, dataset.labels
    x = np.zeros(dataset.dim)
    with np.errstate(over="ignore"):
        for _ in range(iters):
            grad = Z.T @ (-y / (1.0 + np.exp(y * (Z @ x))))
            x = x - eta * (grad / dataset.m + ridge * x)
    return x


def make_xor_dataset(m=64, seed=0, margin=0.1):
    """Planar points labeled by the sign of x1*x2 (nonconvex fit target)."""
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < m:
        z = rng.uniform(-1.0, 1.0, size=2)
        if abs(z[0] * z[1]) >= margin:
            pts.append(z)
    Z = np.array(pts)
    y = np.where(Z[:, 0] * Z[:, 1] > 0, 1.0, -1.0)
    return TabularDataset(features=Z, labels=y)


def make_synthetic(kind, m, d=2, seed=0, *, cond=10.0, min_gap=0.1,
                   group_fraction=0.2, max_tries=50):
    """Deterministic desk-scale fixtures.

    strongly_convex_quadratic: least-squares family with Gram spectrum
    spanning [1, cond] (times m), exact minimizer available.
    two_group_bias: binary classification set whose unconstrained
    logistic fit under-serves the minority group's positives by at least
    min_gap in true-positive rate (the generator resamples until the gap
    holds).
    nonconvex_toy: tilted double-well family with two distinct local
    minima of the mean loss.
    """
    if kind == "strongly_convex_quadratic":
        if not 1.0 <= cond < np.inf:
            raise ValueError(f"cond must be finite and >= 1, got {cond}")
        rng = np.random.default_rng(seed)
        U, _, Vt = np.linalg.svd(rng.standard_normal((m, d)), full_matrices=False)
        spectrum = np.sqrt(m) * np.linspace(1.0, np.sqrt(cond), min(m, d))
        A = (U * spectrum) @ Vt
        x_true = 0.5 * rng.standard_normal(d)
        b = A @ x_true + 0.3 * rng.standard_normal(m)
        return QuadraticLosses(A, b)

    if kind == "nonconvex_toy":
        rng = np.random.default_rng(seed)
        c = rng.uniform(0.8, 1.6, size=m)
        g = rng.uniform(0.08, 0.15, size=m)
        return NonconvexToyLosses(c, g, d)

    if kind == "two_group_bias":
        for attempt in range(max_tries):
            dataset = _sample_two_group(m, seed + 1000 * attempt, group_fraction)
            x_hat = _fit_logistic(dataset)
            rates = group_true_positive_rates(dataset, LogisticLosses(dataset), x_hat)
            overall = rates.pop("ALL")
            gap = max(overall - r for r in rates.values())
            if gap >= min_gap:
                return dataset
        raise ValueError(f"could not plant a tpr gap >= min_gap = "
                         f"{min_gap} in {max_tries} tries")

    raise ValueError(f"unknown synthetic kind {kind!r}")


def _sample_two_group(m, seed, group_fraction):
    """Majority group separable along the first feature; the minority
    group's positives sit near the boundary there but are identified by
    the second feature, which the pooled fit mostly ignores."""
    rng = np.random.default_rng(seed)
    n_minority = max(4, int(round(group_fraction * m)))
    n_majority = m - n_minority
    rows, labels, groups = [], [], []
    for k in range(n_majority):
        y = 1.0 if k % 2 == 0 else -1.0
        x1 = rng.normal(2.0 * y, 1.0)
        x2 = rng.normal(0.0, 1.0)
        rows.append([x1, x2, 1.0])
        labels.append(y)
        groups.append(0)
    for k in range(n_minority):
        y = 1.0 if k % 2 == 0 else -1.0
        if y > 0:
            x1 = rng.normal(-0.5, 0.8)
            x2 = rng.normal(2.0, 0.8)
        else:
            x1 = rng.normal(-2.0, 1.0)
            x2 = rng.normal(0.0, 1.0)
        rows.append([x1, x2, 1.0])
        labels.append(y)
        groups.append(1)
    return TabularDataset(features=np.array(rows), labels=np.array(labels),
                          group_ids=np.array(groups))
