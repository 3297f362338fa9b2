import numpy as np

from drsum.proxlib import (
    AffineTerm,
    BoxTerm,
    CustomTerm,
    L1Term,
    SquaredNormTerm,
    ZeroTerm,
)


def test_zero_term_is_identity():
    x = np.array([3.0, -2.0])
    out = ZeroTerm().prox(x, 0.1)
    assert np.array_equal(out, x)


def test_box_projection():
    out = BoxTerm(lo=[0.0, 0.0], hi=[1.0, 1.0]).prox(np.array([2.0, -0.5]), 0.7)
    assert np.array_equal(out, np.array([1.0, 0.0]))


def test_soft_threshold_against_grid_minimization():
    # independent oracle: dense grid minimization of r(y) + (1/(2 eta))(y - x)^2
    eta, x, lam = 0.3, 1.0, 1.0
    grid = np.linspace(-2.0, 2.0, 400_001)
    objective = lam * np.abs(grid) + (grid - x) ** 2 / (2 * eta)
    expected = grid[np.argmin(objective)]
    assert abs(expected - 0.7) < 1e-5

    out = L1Term(lam).prox(np.array([x]), eta)
    assert abs(out[0] - 0.7) < 1e-12


def test_squared_norm_prox_matches_grid():
    eta, w = 0.5, 2.0
    center = np.array([1.0])
    grid = np.linspace(-3.0, 3.0, 600_001)
    objective = 0.5 * w * (grid - center[0]) ** 2 + (grid - 2.0) ** 2 / (2 * eta)
    expected = grid[np.argmin(objective)]
    out = SquaredNormTerm(w, center).prox(np.array([2.0]), eta)
    assert abs(out[0] - expected) < 1e-5


def test_affine_prox():
    slope = np.array([2.0, -1.0])
    out = AffineTerm(slope).prox(np.array([1.0, 1.0]), 0.25)
    assert np.allclose(out, np.array([0.5, 1.25]))


def test_custom_term_roundtrip():
    term = CustomTerm(lambda x: float(np.sum(x)), lambda v, eta: v * 0.0)
    assert term.value(np.array([1.0, 2.0])) == 3.0
    assert np.array_equal(term.prox(np.ones(2), 1.0), np.zeros(2))


def test_prox_nonexpansive_all_terms():
    # ||prox(a) - prox(b)|| <= ||a - b|| over 1000 random pairs per term
    rng = np.random.default_rng(42)
    terms = [
        ZeroTerm(),
        AffineTerm(np.array([1.0, -2.0, 0.5])),
        SquaredNormTerm(1.7, center=np.array([0.3, -0.4, 1.0])),
        L1Term(0.8),
        BoxTerm(lo=-np.ones(3), hi=np.ones(3)),
    ]
    for term in terms:
        for _ in range(1000):
            a = 5.0 * rng.standard_normal(3)
            b = 5.0 * rng.standard_normal(3)
            eta = float(rng.uniform(0.01, 3.0))
            pa = term.prox(a, eta)
            pb = term.prox(b, eta)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12
