"""Randomized algebraic properties, fuzzed beyond the seeded suites."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from drsum.composite import (
    OracleCounter,
    at_index,
    batch_estimates,
    delta_update,
    evaluate_psi,
    per_index,
)
from drsum.constraints import ConstraintSet, least_distance, nnls
from drsum.diagnostics import fit_rate
from drsum.problems import (
    BrokenJacobianLosses,
    FairnessSpec,
    LogisticLosses,
    MeanLossObjective,
    TabularDataset,
    build_fairness_constraints,
    make_losses,
    make_synthetic,
)
from drsum.proxlib import L1Term, SquaredNormTerm, prox_step
from drsum.reductions import (
    Chi2Config,
    KlConfig,
    NumericalRangeError,
    WassersteinConfig,
    build_chi2,
    build_dr_logistic,
    build_kl,
    build_mean,
    build_wasserstein,
    chi2_worst_case_weights,
    convexify_constraints,
    kl_worst_case_weights,
    wasserstein_penalty,
)

from conftest import (
    affine_rows,
    closed_form,
    convexified_rows,
    dr_logistic_rows,
    rowwise,
)

finite_floats = st.floats(min_value=-20.0, max_value=20.0,
                          allow_nan=False, allow_infinity=False)


@given(st.lists(finite_floats, min_size=1, max_size=10),
       st.floats(min_value=0.01, max_value=50.0))
def test_chi2_weights_live_on_simplex(values, gamma):
    w = chi2_worst_case_weights(np.array(values), gamma)
    assert np.all(w.p >= -1e-12)
    assert abs(float(np.sum(w.p)) - 1.0) < 1e-9


@given(st.lists(finite_floats, min_size=1, max_size=10),
       st.floats(min_value=0.05, max_value=50.0))
def test_kl_weights_live_on_simplex(values, gamma):
    w = kl_worst_case_weights(np.array(values), gamma)
    assert w.feasible
    assert np.all(w.p >= 0.0)
    assert abs(float(np.sum(w.p)) - 1.0) < 1e-9


@given(st.lists(finite_floats, min_size=1, max_size=8),
       st.floats(min_value=0.05, max_value=8.0),
       st.floats(min_value=0.01, max_value=8.0))
def test_penalty_sandwich_fuzzed(values, alpha, gamma):
    vals = np.array(values)
    pen = wasserstein_penalty(vals, alpha, gamma)
    lo = max(0.0, alpha * float(np.max(vals)))
    assert lo - 1e-9 <= pen <= lo + gamma * np.log(vals.size + 1) + 1e-9


@given(st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=0.0, max_value=3.0),
       st.floats(min_value=0.01, max_value=2.0))
def test_soft_threshold_shrinks_toward_zero(x, lam, eta):
    out = prox_step(L1Term(lam), eta, np.array([x]))[0]
    assert abs(out) <= abs(x) + 1e-12
    assert out * x >= 0.0  # never crosses the origin


@settings(max_examples=50)
@given(st.floats(min_value=0.01, max_value=10.0),
       st.floats(min_value=-2.0, max_value=-0.01),
       st.integers(min_value=3, max_value=20))
def test_fit_rate_recovers_exact_geometric_decay(start, slope, n):
    errors = start * np.exp(slope * np.arange(n))
    fit = fit_rate(errors)
    assert abs(fit.slope - slope) < 1e-9
    assert fit.r_squared > 1 - 1e-12


# -- batched component values against the per-index reference path ------

FAMILIES = ("quadratic", "logistic", "mlp2", "nonconvex_toy")
# loss inputs over a logistic family: a plain sequence of loss functions
# (its batch stacks the per-index callables) and the fault-injecting
# wrapper
STACKED_INPUTS = ("plain_sequence", "broken_jacobian")
CONSTRAINT_SETS = ("dr_logistic", "affine", "convexified", "fairness")


def _dataset(rng, m, d=3):
    Z = rng.standard_normal((m, d))
    y = np.where(rng.uniform(size=m) < 0.5, 1.0, -1.0)
    groups = rng.integers(0, 2, size=m)
    y[:2], groups[:2] = 1.0, (0, 1)  # a positive row in each group
    return TabularDataset(features=Z, labels=y, group_ids=groups)


def _family(kind, rng, m, d=3):
    if kind in ("quadratic", "nonconvex_toy"):
        synthetic = ("strongly_convex_quadratic" if kind == "quadratic"
                     else kind)
        return make_synthetic(synthetic, m=m, d=d,
                              seed=int(rng.integers(1 << 16)))
    return make_losses(kind, _dataset(rng, m, d), hidden=2)


def _fairness_spec(rng):
    """A random margin and sharpness, over every group or over a permuted
    subset of the groups {0, 1}."""
    groups = None if rng.uniform() < 0.5 else \
        [int(g) for g in rng.permutation(2)[:rng.integers(1, 3)]]
    return FairnessSpec(eps_slack=rng.uniform(0.0, 0.2),
                        surrogate_temp=rng.uniform(0.5, 10.0), groups=groups)


def fairness_rows(dataset, spec, score_row):
    """The equal-opportunity rows of build_fairness_constraints, one group
    at a time over the one-row score reads score_row(i, x) -> (score,
    gradient): the surrogate tpr of the positives overall minus a
    group's, minus eps, in spec.groups order."""
    temp = spec.surrogate_temp
    positive = np.nonzero(dataset.labels > 0)[0]
    groups = (np.unique(dataset.group_ids) if spec.groups is None
              else spec.groups)

    def tpr(rows, x):
        reads = [score_row(i, x) for i in rows]
        sig = expit(temp * np.array([score for score, _ in reads]))
        grads = np.array([grad for _, grad in reads])
        return sig.mean(), (temp * sig * (1.0 - sig)) @ grads / sig.size

    def oracle(j, x):
        all_tpr, all_grad = tpr(positive, x)
        in_group = dataset.group_ids[positive] == groups[j]
        tpr_j, grad_j = tpr(positive[in_group], x)
        return all_tpr - tpr_j - spec.eps_slack, all_grad - grad_j

    return oracle


def logistic_scores(dataset):
    """The score rows of a logistic family, z_i . x with gradient z_i."""
    Z = dataset.features

    def score_row(i, x):
        return Z[i] @ x, Z[i]

    return score_row


def _objective_and_constraints(kind, rng, m, d=3):
    """(objective, constraint set, its per-index reference rows, decision
    dimension) of one set kind."""
    if kind == "dr_logistic":
        dataset = _dataset(rng, m, d)
        objective, cset = build_dr_logistic(dataset, 0.1, 1.0)
        return (objective, cset, dr_logistic_rows(dataset, 1.0),
                objective.slope.size)
    if kind == "fairness":
        dataset, spec = _dataset(rng, m, d), _fairness_spec(rng)
        family = LogisticLosses(dataset)
        cset = build_fairness_constraints(dataset, family, spec)
        return (MeanLossObjective(family), cset,
                fairness_rows(dataset, spec, logistic_scores(dataset)), d)
    A, b = rng.standard_normal((m, d)), rng.standard_normal(m)
    cset, rows = ConstraintSet.affine(A, b), affine_rows(A, b)
    if kind == "affine":
        return SquaredNormTerm(1.0), cset, rows, d
    # a smooth objective, so h takes the value_grad branch
    mu = rng.uniform(0.0, 1.0, size=m)
    return (MeanLossObjective(_family("quadratic", rng, m, d)),
            convexify_constraints(cset, mu), convexified_rows(rows, mu), d)


def _assert_paths_agree(problem, x):
    """evaluate_psi through component_values equals the per-index loop:
    same value to rounding, same counters, or the same range error.  The
    batch path must not read the per-index oracle fields."""
    reference = replace(problem, component_values=None)
    batch_only = replace(problem, g_oracle=None, h_oracle=None)
    fast_counter, ref_counter = OracleCounter(), OracleCounter()
    try:
        expected = evaluate_psi(reference, x, ref_counter)
    except NumericalRangeError:
        with pytest.raises(NumericalRangeError):
            evaluate_psi(batch_only, x, fast_counter)
        return
    got = evaluate_psi(batch_only, x, fast_counter)
    assert isinstance(got, float)
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)
    assert fast_counter == ref_counter


@pytest.mark.parametrize("family_kind", FAMILIES + STACKED_INPUTS)
@pytest.mark.parametrize("reduction", ("chi2", "kl", "mean"))
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 12),
       scale=st.floats(0.0, 3.0), gamma=st.floats(0.2, 20.0),
       anchored=st.booleans())
def test_batched_psi_matches_per_index(reduction, family_kind, seed, m,
                                       scale, gamma, anchored):
    rng = np.random.default_rng(seed)
    stacked = family_kind in STACKED_INPUTS
    family = _family("logistic" if stacked else family_kind, rng, m)
    x = scale * rng.standard_normal(family.dim)
    np.testing.assert_allclose(
        family.eval(None, x, jac=False),
        [at_index(family.eval, i, x)[0] for i in range(m)],
        rtol=1e-12, atol=1e-12)
    if hasattr(family, "score"):
        scores, grads = family.score(None, x)
        only = family.score(None, x, jac=False)
        ref = [at_index(family.score, i, x) for i in range(m)]
        np.testing.assert_allclose(only, [s for s, _ in ref],
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grads, [g for _, g in ref],
                                   rtol=1e-12, atol=1e-12)
        assert only.tobytes() == scores.tobytes()
    losses = family
    if family_kind == "plain_sequence":
        losses = [lambda v, i=i: at_index(family.eval, i, v) for i in range(m)]
    elif family_kind == "broken_jacobian":
        losses = BrokenJacobianLosses(family)
    if reduction == "chi2":
        problem = build_chi2(losses, Chi2Config(gamma=gamma), dim=family.dim)
    elif reduction == "kl":
        anchor = rng.standard_normal(family.dim) if anchored else None
        problem = build_kl(losses, KlConfig(gamma=gamma), dim=family.dim,
                           shift_anchor=anchor)
    else:
        problem = build_mean(losses, dim=family.dim)
    assert closed_form(problem.component_values)
    _assert_paths_agree(problem, x)


@pytest.mark.parametrize("set_kind", CONSTRAINT_SETS)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 10),
       scale=st.floats(0.0, 3.0), alpha=st.floats(0.1, 5.0),
       gamma=st.floats(0.01, 2.0), anchored=st.booleans())
def test_batched_wasserstein_psi_matches_per_index(set_kind, seed, m, scale,
                                                   alpha, gamma, anchored):
    rng = np.random.default_rng(seed)
    objective, cset, rows, dim = _objective_and_constraints(set_kind, rng, m)
    x = scale * rng.standard_normal(dim)
    np.testing.assert_allclose(cset.values(x),
                               [rows(i, x)[0] for i in range(cset.m)],
                               rtol=1e-12, atol=1e-12)
    anchor = x + rng.standard_normal(dim) if anchored else None
    problem = build_wasserstein(objective, cset,
                                WassersteinConfig(alpha=alpha, gamma=gamma),
                                shift_anchor=anchor, dim=dim)
    # psi reads the set's values-only batch
    assert closed_form(problem.component_values)
    _assert_paths_agree(problem, x)


def test_both_paths_raise_out_of_range():
    x = np.array([5.0, 0.0])
    family = make_synthetic("nonconvex_toy", m=4, d=2, seed=0)
    kl = build_kl(family, KlConfig(gamma=1e-3))
    cset = ConstraintSet.affine(np.eye(2), np.zeros(2))
    wasserstein = build_wasserstein(
        SquaredNormTerm(1.0), cset, WassersteinConfig(alpha=1.0, gamma=1e-3),
        dim=2)
    for problem in (kl, wasserstein):
        for path in (problem, replace(problem, component_values=None)):
            with pytest.raises(NumericalRangeError, match="exceeds range"):
                evaluate_psi(path, x)


# -- constraint and loss rows against the per-index references ----------

JACOBIAN_SETS = ("dr_logistic", "affine", "convexified_affine",
                 "convexified_functions", "fairness", "fairness_mlp2",
                 "from_functions")
# every loss family, a plain sequence of loss functions stacked by
# per_index, and the fault-injecting wrapper, all read through the one
# eval(idx, x, jac) a constraint set has
ROW_SOURCES = JACOBIAN_SETS + FAMILIES + STACKED_INPUTS


def _ball_constraint(center, radius):
    def func(x):
        return float((x - center) @ (x - center)) - radius, 2.0 * (x - center)

    return func


def _jacobian_set(kind, rng, m, d, mu_positive):
    """(constraint set or loss family, its per-index reference rows,
    decision dimension) of one kind; a family's reference is its one-row
    reads."""
    if kind in FAMILIES + STACKED_INPUTS:
        family = _family("logistic" if kind in STACKED_INPUTS else kind,
                         rng, m, d)

        def rows(i, x):
            return at_index(family.eval, i, x)

        if kind == "plain_sequence":
            return SimpleNamespace(m=m, eval=per_index(rows, m)), rows, \
                family.dim
        if kind == "broken_jacobian":
            def broken_rows(i, x):
                value, grad = rows(i, x)
                return value, 1.5 * grad

            return BrokenJacobianLosses(family), broken_rows, family.dim
        return family, rows, family.dim
    if kind == "dr_logistic":
        dataset, kappa = _dataset(rng, m, d), rng.uniform(0.1, 3.0)
        _, cset = build_dr_logistic(dataset, rng.uniform(0.01, 1.0), kappa)
        return cset, dr_logistic_rows(dataset, kappa), d + 1 + m
    if kind in ("fairness", "fairness_mlp2"):
        dataset, spec = _dataset(rng, m, d), _fairness_spec(rng)
        if kind == "fairness":
            family, score_row = LogisticLosses(dataset), logistic_scores(dataset)
        else:  # the reference reads the family's scores one row at a time
            family = make_losses("mlp2", dataset, hidden=2)

            def score_row(i, x):
                return at_index(family.score, i, x)
        return (build_fairness_constraints(dataset, family, spec),
                fairness_rows(dataset, spec, score_row), family.dim)
    if kind in ("from_functions", "convexified_functions"):
        funcs = [_ball_constraint(rng.standard_normal(d),
                                  rng.uniform(0.1, 2.0)) for _ in range(m)]
        inner = ConstraintSet.from_functions(funcs)

        def rows(i, x):
            return funcs[i](x)
    else:
        A, b = rng.standard_normal((m, d)), rng.standard_normal(m)
        inner, rows = ConstraintSet.affine(A, b), affine_rows(A, b)
    if kind in ("affine", "from_functions"):
        return inner, rows, d
    mu = rng.uniform(0.0, 1.0, size=m) if mu_positive else np.zeros(m)
    return convexify_constraints(inner, mu), convexified_rows(rows, mu), d


@pytest.mark.parametrize("kind", ROW_SOURCES)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 10),
       d=st.integers(1, 4), scale=st.floats(0.0, 3.0),
       mu_positive=st.booleans(), zero_beta=st.booleans(),
       picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=20))
def test_batch_jacobian_matches_per_index(kind, seed, m, d, scale,
                                          mu_positive, zero_beta, picks):
    """A constraint set's or loss family's eval on an index multiset with
    repeats, and on every row (idx None), equals the per-index reference
    rows to rounding, and the multiset's rows equal those rows of the
    whole read; the values-only read equals the values of the jacobian
    read bit for bit; a set's values() and jacobian() are its whole
    reads."""
    rng = np.random.default_rng(seed)
    source, rows, dim = _jacobian_set(kind, rng, m, d, mu_positive)
    x = scale * rng.standard_normal(dim)
    if kind == "dr_logistic" and zero_beta:
        x[:d] = 0.0  # the norm cone's kink: its beta part is zero
    idx = np.array(picks) % source.m
    for chosen in (idx, None):
        values, jac = source.eval(chosen, x)
        ref = [rows(i, x) for i in (range(source.m) if chosen is None
                                    else chosen)]
        ref_values = np.array([value for value, _ in ref])
        ref_jac = np.array([grad for _, grad in ref])
        assert jac.shape == ref_jac.shape == (len(ref), dim)
        np.testing.assert_allclose(values, ref_values, rtol=1e-12,
                                   atol=1e-12)
        np.testing.assert_allclose(jac, ref_jac, rtol=1e-12, atol=1e-12)
        only = source.eval(chosen, x, jac=False)
        assert only.shape == values.shape
        assert only.tobytes() == values.tobytes()
    full = source.eval(None, x)
    for got, whole in zip(source.eval(idx, x), full):
        np.testing.assert_allclose(got, whole[idx], rtol=1e-12, atol=1e-12)
    if isinstance(source, ConstraintSet):
        assert source.values(x).tobytes() == full[0].tobytes()
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(source.jacobian(x), full))


# -- batched estimators against the per-index adapter --------------------


def _estimator_problem(kind, rng, m, gamma, anchored):
    """(problem, decision dimension) of a loss family under chi2, kl or
    mean (a plain sequence of loss functions among them), or of the
    Wasserstein form over a constraint set."""
    if kind in CONSTRAINT_SETS:
        objective, cset, _, dim = _objective_and_constraints(kind, rng, m)
        anchor = rng.standard_normal(dim) if anchored else None
        return build_wasserstein(objective, cset,
                                 WassersteinConfig(alpha=1.0, gamma=gamma),
                                 shift_anchor=anchor, dim=dim), dim
    family_kind, reduction = kind
    family = _family("logistic" if family_kind == "plain_sequence"
                     else family_kind, rng, m)
    losses = family
    if family_kind == "plain_sequence":
        losses = [lambda v, i=i: at_index(family.eval, i, v) for i in range(m)]
    dim = family.dim
    if reduction == "chi2":
        return build_chi2(losses, Chi2Config(gamma=gamma), dim=dim), dim
    if reduction == "kl":
        anchor = rng.standard_normal(dim) if anchored else None
        return build_kl(losses, KlConfig(gamma=gamma), dim=dim,
                        shift_anchor=anchor), dim
    return build_mean(losses, dim=dim), dim


ESTIMATOR_PROBLEMS = (
    [(family, reduction) for family in FAMILIES + ("plain_sequence",)
     for reduction in ("chi2", "kl", "mean")] + list(CONSTRAINT_SETS))


def _estimators(problem, idx, x_new, x_old):
    """The opening batch at x_old, then one delta correction to x_new over
    the reversed multiset, with the counter after each."""
    counter = OracleCounter()
    opened = batch_estimates(problem, idx, x_old, counter)
    opened_calls = counter.copy()
    corrected = delta_update(problem, idx[::-1], x_new, x_old, *opened,
                             counter)
    return opened, corrected, opened_calls, counter


def _row_by_row(problem, idx, x_new, x_old):
    """_estimators written as the per-index loop over one-row calls, and
    each part's magnitude: the same sums over the absolute terms, which
    bound its rounding where the terms cancel."""
    n = idx.size

    def rows(i, x):
        (gv, gj), (_, hg) = (at_index(field, i, x) for field in
                             (problem.g_oracle, problem.h_oracle))
        return gv, gj, hg

    old = [rows(i, x_old) for i in idx]
    new = [rows(i, x_new) for i in idx[::-1]]
    opened = [sum(parts) / n for parts in zip(*old)]
    deltas = [sum(parts) / n for parts in
              zip(*(tuple(a - b for a, b in zip(*pair))
                    for pair in zip(new, old[::-1])))]
    corrected = [a + b for a, b in zip(opened, deltas)]
    opened_size = [sum(map(np.abs, parts)) / n for parts in zip(*old)]
    delta_size = [sum(np.abs(a) + np.abs(b) for a, b in zip(*parts)) / n
                  for parts in zip(zip(*new), zip(*old[::-1]))]
    corrected_size = [a + b for a, b in zip(opened_size, delta_size)]
    return (tuple(opened), tuple(corrected), OracleCounter(n, n),
            OracleCounter(3 * n, 3 * n), opened_size + corrected_size)


@pytest.mark.parametrize("kind", ESTIMATOR_PROBLEMS, ids=str)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 10),
       picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=20),
       scale=st.floats(0.0, 2.0), gamma=st.floats(0.2, 5.0),
       anchored=st.booleans())
def test_batched_estimators_match_per_index(kind, seed, m, picks, scale,
                                            gamma, anchored):
    """batch_estimates and delta_update, one call per field and point,
    equal the per-index loop over one-row calls (through the per_index
    adapter and without it) to rounding, on an index multiset with
    repeats: each part within 1e-12 (1 + the sum over its absolute
    terms), which is 1e-12 (1 + |part|) where nothing cancels.  They
    charge exactly n calls per family for the opening batch and 2n for
    the correction, or every path raises the range error."""
    rng = np.random.default_rng(seed)
    problem, dim = _estimator_problem(kind, rng, m, gamma, anchored)
    adapted = replace(problem, g_oracle=rowwise(problem.g_oracle),
                      h_oracle=rowwise(problem.h_oracle))
    idx = np.array(picks) % problem.m
    x_old = scale * rng.standard_normal(dim)
    x_new = x_old + 0.1 * rng.standard_normal(dim)
    try:
        want = _row_by_row(problem, idx, x_new, x_old)
    except NumericalRangeError:
        for path in (problem, adapted):
            with pytest.raises(NumericalRangeError, match="exceeds range"):
                _estimators(path, idx, x_new, x_old)
        return
    for got in (_estimators(problem, idx, x_new, x_old),
                _estimators(adapted, idx, x_new, x_old)):
        for got_part, want_part, size in zip(got[0] + got[1],
                                             want[0] + want[1], want[4]):
            assert got_part.shape == want_part.shape
            error = np.abs(got_part - want_part)
            assert np.all(error <= 1e-12 * (1.0 + size)), (error, size)
        assert got[2:] == want[2:4]


# small integers: exact dependencies (repeated, scaled and zero columns,
# more columns than rows) come up often
small_ints = st.integers(-4, 4)


def _integers(draw, *shape):
    size = int(np.prod(shape))
    return np.array(draw(st.lists(small_ints, min_size=size, max_size=size)),
                    dtype=float).reshape(shape)


@st.composite
def nnls_instances(draw):
    """(A, b, start) with columns made dependent on purpose."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 9))
    A = _integers(draw, rows, cols)
    kind = draw(st.sampled_from(["plain", "repeated", "zero"]))
    if kind == "repeated" and cols > 1:
        A[:, -1] = 2.0 * A[:, 0]
    if kind == "zero":
        A[:, draw(st.integers(0, cols - 1))] = 0.0
    start = draw(st.lists(st.integers(0, cols - 1), unique=True,
                          max_size=cols))
    return A, _integers(draw, rows), start


@settings(max_examples=300, deadline=None)
@given(nnls_instances())
# a warm start holding a zero column and a column repeated at twice its
# scale: the start shrinks to the two repeated ones
@example((np.array([[1.0, 0.0, 2.0, 1.0], [2.0, 0.0, 4.0, -1.0],
                    [0.0, 0.0, 0.0, 3.0]]), np.array([1.0, 3.0, 1.0]),
          [0, 1, 2]))
# passive columns 1-5 span R^5 and fit b exactly; column 6 enters on a
# round-off gradient, and the fit on all six does not take it up (z_6 < 0),
# which ends the loop
@example((np.array([[-1.0, 1.0, 3.0, -4.0, -3.0, 0.0, -2.0],
                    [-2.0, 4.0, -2.0, 1.0, -4.0, -2.0, -4.0],
                    [3.0, -2.0, 4.0, 4.0, -2.0, 0.0, 6.0],
                    [-3.0, 1.0, -1.0, -1.0, 0.0, -4.0, -6.0],
                    [0.0, -4.0, 4.0, 0.0, 2.0, 0.0, 0.0]]),
          np.array([-4.0, 0.0, -3.0, -4.0, 3.0]), [2]))
# two passive columns reach 0 on the way to one fit: two interior steps
@example((np.array([[1.0, -2.0, 0.0], [-1.0, -4.0, -2.0], [3.0, 4.0, 2.0]]),
          np.array([2.0, -4.0, 2.0]), [1]))
def test_nnls_matches_scipy(instance):
    """The Lawson-Hanson solve, from any warm start, meets the KKT
    conditions, which make A u - b the unique optimal residual, and its
    residual is no longer than scipy's (which can stop short on dependent
    columns)."""
    from scipy.optimize import nnls as scipy_nnls

    A, b, start = instance
    u = nnls(A, b, start)
    ref, ref_norm = scipy_nnls(A, b, maxiter=50 * A.shape[1])
    scale = 1.0 + np.linalg.norm(A) * (1.0 + np.linalg.norm(b))
    gradient = A.T @ (b - A @ u)
    assert u.shape == ref.shape and np.all(u >= 0)
    assert np.all(gradient <= 1e-9 * scale)
    assert np.all(np.abs(gradient[u > 0]) <= 1e-9 * scale)
    assert np.linalg.norm(A @ u - b) <= ref_norm + 1e-9 * scale


@settings(max_examples=300, deadline=None)
@given(nnls_instances(), st.booleans())
# rows (-1, 0), (-1, 3), (-2, 6) and h = (1, 10, 20), the third row twice
# the second: the optimum is (-1, 3), and scipy's nnls stops short of it
@example((np.array([[-1.0, -1.0, -2.0], [0.0, 3.0, 6.0]]),
          np.array([-1.0, 10.0 / 3.0]), []), False)
# inconsistent: g w >= 1 and -g w >= 1 (g = (1, 1)) added to a
# warm-started pair of rows
@example((np.array([[1.0, -1.0], [2.0, 0.0]]), np.array([1.0, -1.0]),
          [0, 1]), True)
def test_least_distance_matches_scipy(instance, infeasible):
    """min ||w|| subject to G w >= h, one constraint row per column of
    the instance.  The feasible instances hold the point w0 = b by
    construction, and the answer meets the KKT conditions (w = G^T lam,
    lam >= 0, lam_i (G w - h)_i = 0, G w >= h) and is no longer than
    scipy's nnls makes it through the same Lawson-Hanson reduction.  The
    infeasible ones add the rows g w >= 1 and -g w >= 1."""
    from scipy.optimize import nnls as scipy_nnls

    A, w0, start = instance
    G = A.T
    h = G @ w0 - np.abs(np.arange(len(G)) % 3)
    if infeasible:
        g = np.ones(G.shape[1])
        G, h = np.vstack([G, g, -g]), np.r_[h, 1.0, 1.0]
    solved = least_distance(G, h, start)
    if infeasible:
        assert solved is None
        return
    assert solved is not None
    w, lam = solved
    slack = G @ w - h
    tol = 1e-8 * (1.0 + np.abs(G).sum() + np.abs(h).max())
    assert np.all(lam >= 0) and np.allclose(G.T @ lam, w, atol=tol)
    assert np.all(slack >= -tol) and np.all(lam * np.abs(slack) <= tol)
    E = np.vstack([G.T, h])
    f = np.zeros(E.shape[0])
    f[-1] = 1.0
    u, _ = scipy_nnls(E, f, maxiter=50 * E.shape[1])
    residual = E @ u - f
    assert np.linalg.norm(w) <= np.linalg.norm(w0) + tol
    assert np.linalg.norm(w) <= np.linalg.norm(residual[:-1] / residual[-1]) + tol
