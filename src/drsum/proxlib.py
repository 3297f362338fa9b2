"""Closed-form proximal operators for the simple term of a composite objective.

Each term r supplies a value oracle and the proximal map

    prox_r(v, eta) = argmin_y [ r(y) + (1/(2*eta)) * ||y - v||^2 ],

which the solver applies once per iteration.  Only terms with a
closed-form prox live here; anything else must come with a user-supplied
prox oracle (CustomTerm).
"""

from __future__ import annotations

import numpy as np


class SimpleTerm:
    """Base class: convex, lower-semicontinuous term with a prox oracle."""

    def value(self, x):
        raise NotImplementedError

    def prox(self, v, eta):
        raise NotImplementedError


class ZeroTerm(SimpleTerm):
    """r = 0.  The prox is the identity for any step size."""

    def value(self, x):
        return 0.0

    def prox(self, v, eta):
        return np.asarray(v, dtype=float)


class AffineTerm(SimpleTerm):
    """r(x) = <slope, x> + offset.  prox(v) = v - eta * slope."""

    def __init__(self, slope, offset=0.0):
        self.slope = np.asarray(slope, dtype=float)
        self.offset = float(offset)

    def value(self, x):
        return float(self.slope @ np.asarray(x, dtype=float)) + self.offset

    def prox(self, v, eta):
        return np.asarray(v, dtype=float) - eta * self.slope


class SquaredNormTerm(SimpleTerm):
    """r(x) = (weight/2) * ||x - center||^2.

    prox(v) = (v + eta*weight*center) / (1 + eta*weight).
    """

    def __init__(self, weight, center=None):
        if weight < 0:
            raise ValueError("weight must be nonnegative")
        self.weight = float(weight)
        self.center = None if center is None else np.asarray(center, dtype=float)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        d = x if self.center is None else x - self.center
        return 0.5 * self.weight * float(d @ d)

    def prox(self, v, eta):
        v = np.asarray(v, dtype=float)
        c = 0.0 if self.center is None else self.center
        return (v + eta * self.weight * c) / (1.0 + eta * self.weight)


class L1Term(SimpleTerm):
    """r(x) = lam * ||x||_1, prox = soft threshold at eta*lam."""

    def __init__(self, lam):
        if lam < 0:
            raise ValueError("lam must be nonnegative")
        self.lam = float(lam)

    def value(self, x):
        return self.lam * float(np.sum(np.abs(x)))

    def prox(self, v, eta):
        v = np.asarray(v, dtype=float)
        t = eta * self.lam
        return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


class BoxTerm(SimpleTerm):
    """Indicator of the box [lo, hi]^d; prox = componentwise clip."""

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if np.any(self.lo > self.hi):
            raise ValueError("box is empty: lo > hi")

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if np.all(x >= self.lo - 1e-12) and np.all(x <= self.hi + 1e-12):
            return 0.0
        return np.inf

    def prox(self, v, eta):
        return np.clip(np.asarray(v, dtype=float), self.lo, self.hi)


class CustomTerm(SimpleTerm):
    """User-supplied value and prox oracles for terms outside the library."""

    def __init__(self, value_fn, prox_fn):
        self._value_fn = value_fn
        self._prox_fn = prox_fn

    def value(self, x):
        return float(self._value_fn(x))

    def prox(self, v, eta):
        return np.asarray(self._prox_fn(v, eta), dtype=float)
