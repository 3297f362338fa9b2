import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit

from drsum.composite import at_index, check_jacobians, full_phi_gradient
from drsum.problems import (
    BrokenJacobianLosses,
    FairnessSpec,
    LogisticLosses,
    MeanLossObjective,
    TabularDataset,
    build_fairness_constraints,
    error_rate,
    group_true_positive_rates,
    ingest_csv,
    make_losses,
    make_synthetic,
    make_xor_dataset,
    sigmoids,
    surrogate_tpr,
)
from drsum.reductions import build_mean


def small_dataset(seed=0, m=12):
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((m, 3))
    y = np.where(rng.uniform(size=m) < 0.5, 1.0, -1.0)
    y[0] = 1.0  # at least one positive
    g = rng.integers(0, 2, size=m)
    return TabularDataset(features=Z, labels=y, group_ids=g)


class TestSigmoid:
    """sigmoids runs numpy's exp on scipy's expit formula, so it may differ
    from expit in the last bit."""

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.integers(1, 64)))
    def test_array_agrees_with_expit(self, t):
        # relative 1e-15 down to the smallest normal float; below it the
        # spacing of subnormals is the only meaningful error
        np.testing.assert_allclose(sigmoids(t), expit(t), rtol=1e-15,
                                   atol=np.finfo(float).tiny)

    def test_array_saturates_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sigmoids(np.array([-1e4, 1e4]))
        assert got.tolist() == [0.0, 1.0]


class TestLossFamilies:
    def test_logistic_at_zero_is_ln2(self):
        family = make_losses("logistic", small_dataset())
        x = np.zeros(family.dim)
        for i in range(family.m):
            val, _ = at_index(family.eval, i, x)
            assert val == pytest.approx(np.log(2.0))

    def test_logistic_gradients_pass_checker(self):
        family = make_losses("logistic", small_dataset(3))
        prob = build_mean(family)
        assert check_jacobians(prob, num_probes=15, seed=0).max_rel_error <= 1e-5

    def test_quadratic_closed_form_minimizer(self):
        family = make_losses("quadratic", m=10, d=4, seed=5)
        x_star = family.minimizer()
        prob = build_mean(family)
        assert np.linalg.norm(full_phi_gradient(prob, x_star)) < 1e-9

    def test_mlp2_gradients_pass_checker(self):
        dataset = make_xor_dataset(m=20, seed=1)
        family = make_losses("mlp2", dataset, hidden=4)
        assert family.dim == 4 * 2 + 4 + 4 + 1
        prob = build_mean(family)
        assert check_jacobians(prob, num_probes=20, seed=2).max_rel_error <= 1e-5

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_losses("hinge", small_dataset())

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            make_losses("logistic", None)

    def test_broken_jacobian_detected(self):
        family = BrokenJacobianLosses(make_losses("logistic", small_dataset()), 1.5)
        prob = build_mean(family)
        assert check_jacobians(prob, num_probes=10, seed=0).max_rel_error_g > 1e-2

    def test_mean_loss_objective(self):
        family = make_losses("logistic", small_dataset(7))
        obj = MeanLossObjective(family)
        val, grad = obj.value_grad(np.zeros(family.dim))
        assert val == pytest.approx(np.log(2.0))
        direct = np.mean([at_index(family.eval, i, np.zeros(family.dim))[1]
                          for i in range(family.m)], axis=0)
        assert np.allclose(grad, direct)


class ConstantScoreFamily:
    """Fixed scores, zero gradients: isolates the surrogate arithmetic."""

    def __init__(self, scores, dim=1):
        self.scores = np.asarray(scores, dtype=float)
        self.m = self.scores.size
        self.dim = dim

    def score(self, idx, x, jac=True):
        s = self.scores[slice(None) if idx is None else idx]
        return (s, np.zeros((s.size, self.dim))) if jac else s

    def eval(self, idx, x):
        return np.zeros(len(idx)), np.zeros((len(idx), self.dim))


class TestFairnessConstraints:
    def test_one_constraint_per_group(self):
        rng = np.random.default_rng(2)
        Z = rng.standard_normal((30, 2))
        y = np.ones(30)
        g = np.repeat([0, 1, 2], 10)
        dataset = TabularDataset(features=Z, labels=y, group_ids=g)
        cset = build_fairness_constraints(dataset, LogisticLosses(dataset),
                                          FairnessSpec(eps_slack=0.05))
        assert cset.m == 3

    def test_vacuous_margin_always_satisfied(self):
        dataset = small_dataset(4)
        family = LogisticLosses(dataset)
        cset = build_fairness_constraints(dataset, family,
                                          FairnessSpec(eps_slack=1.0))
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.standard_normal(family.dim)
            assert np.all(cset.values(x) <= 0.0)

    def test_hand_built_scores(self):
        # overall surrogate tpr 0.8 (8 of 10 positives scored high), group-1
        # surrogate tpr 0.6 (3 of its 5), margin 0.05 -> violation 0.15
        scores = np.array([50.0] * 5 + [50.0, 50.0, 50.0, -50.0, -50.0])
        labels = np.ones(10)
        groups = np.array([0] * 5 + [1] * 5)
        dataset = TabularDataset(features=np.zeros((10, 1)), labels=labels,
                                 group_ids=groups)
        family = ConstantScoreFamily(scores)
        cset = build_fairness_constraints(dataset, family,
                                          FairnessSpec(eps_slack=0.05,
                                                       surrogate_temp=5.0))
        val, _ = at_index(cset.eval, 1, np.zeros(1))
        assert val == pytest.approx(0.15, abs=1e-9)
        val0, _ = at_index(cset.eval, 0, np.zeros(1))
        assert val0 == pytest.approx(0.8 - 1.0 - 0.05, abs=1e-9)

    def test_stacked_batch_and_one_psi_path(self, monkeypatch):
        # the fairness set reads every group in one batch, and
        # values() and jacobian() read it through eval, looked up at call
        # time, so a class-level wrapper sees every row read; psi reads the
        # mean loss once instead of once per h_i; eval and the oracle
        # fields are counted in rows
        from dataclasses import replace

        from drsum.composite import evaluate_psi
        from drsum.constraints import ConstraintSet
        from drsum.reductions import WassersteinConfig, build_wasserstein

        dataset = small_dataset(9)
        family = LogisticLosses(dataset)
        cset = build_fairness_constraints(dataset, family,
                                          FairnessSpec(eps_slack=0.05))
        x = np.random.default_rng(1).standard_normal(family.dim)
        problem = build_wasserstein(MeanLossObjective(family), cset,
                                    WassersteinConfig(alpha=4.0, gamma=0.02),
                                    shift_anchor=x, dim=family.dim)
        reference = replace(problem, component_values=None)
        calls = dict.fromkeys(("eval", "value_grad", "g_oracle", "h_oracle"),
                              0)

        def counted(name, method, weight=lambda *args, **kwargs: 1):
            def wrapper(*args, **kwargs):
                calls[name] += weight(*args, **kwargs)
                return method(*args, **kwargs)
            return wrapper

        def rows(idx, x):
            return len(idx)

        def set_rows(self, idx, x, jac=True):
            return self.m if idx is None else len(idx)

        monkeypatch.setattr(ConstraintSet, "eval",
                            counted("eval", ConstraintSet.eval, set_rows))
        monkeypatch.setattr(MeanLossObjective, "value_grad",
                            counted("value_grad", MeanLossObjective.value_grad))
        reference.g_oracle = counted("g_oracle", reference.g_oracle, rows)

        values = cset.values(x)
        assert calls["eval"] == cset.m
        vals, jac = cset.jacobian(x)
        assert calls["eval"] == 2 * cset.m
        assert np.array_equal(vals, values)
        assert jac.shape == (cset.m, family.dim)

        psi = evaluate_psi(problem, x)
        assert (calls["value_grad"], calls["g_oracle"]) == (1, 0)
        expected = evaluate_psi(reference, x)
        # the reference's h field reads the mean loss once for every row
        assert (calls["value_grad"], calls["g_oracle"]) == (2, cset.m)
        assert psi == pytest.approx(expected, rel=1e-14, abs=0.0)

        # the batch is resolved at each read, so a replace() copy reads its
        # own field
        zeroed = replace(cset, batch=lambda idx, v, jac=True: np.zeros(
            cset.m if idx is None else len(idx)))
        assert not zeroed.values(x).any()
        evaluate_psi(replace(reference, h_oracle=counted(
            "h_oracle", reference.h_oracle, rows)), x)
        assert calls["h_oracle"] == cset.m

    def test_one_score_read_per_constraint_read(self, monkeypatch):
        # LogisticLosses.score wrapped at class level, as the benchmark
        # tracer wraps it: a kl solve over the family never reads scores,
        # and a fairness solve reads them once per constraint read
        from drsum.constraints import ConstraintSet
        from drsum.reductions import (
            KlConfig,
            WassersteinConfig,
            build_kl,
            wasserstein_stages,
        )
        from drsum.solver import SolverConfig, solve

        data = make_synthetic("two_group_bias", m=120, seed=3, min_gap=0.2)
        family = LogisticLosses(data)
        calls = {"score": 0, "eval": 0}

        def counted(name, method):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(LogisticLosses, "score",
                            counted("score", vars(LogisticLosses)["score"]))
        monkeypatch.setattr(ConstraintSet, "eval",
                            counted("eval", ConstraintSet.eval))
        cfg = SolverConfig(eta=0.1, T=10, K=2, seed=0)
        solve(build_kl(family, KlConfig(gamma=1.0)),
              np.zeros(family.dim), cfg)
        assert calls == {"score": 0, "eval": 0}

        cset = build_fairness_constraints(data, family, FairnessSpec())
        stages = wasserstein_stages(MeanLossObjective(family), cset,
                                    WassersteinConfig(alpha=4.0, gamma=0.02),
                                    family.dim)
        solve(stages, np.zeros(family.dim), cfg, constraints=cset)
        assert calls["eval"] > 0
        assert calls["score"] == calls["eval"]

    def test_gradients_match_finite_differences(self):
        dataset = small_dataset(9)
        family = LogisticLosses(dataset)
        cset = build_fairness_constraints(dataset, family,
                                          FairnessSpec(eps_slack=0.05))
        rng = np.random.default_rng(1)
        x = rng.standard_normal(family.dim)
        for j in range(cset.m):
            _, grad = at_index(cset.eval, j, x)
            fd = np.zeros_like(x)
            for k in range(x.size):
                e = np.zeros_like(x)
                e[k] = 1e-6
                fd[k] = (at_index(cset.eval, j, x + e)[0]
                         - at_index(cset.eval, j, x - e)[0]) / 2e-6
            assert np.allclose(grad, fd, atol=1e-6)

    def test_group_without_positives_rejected(self):
        dataset = TabularDataset(
            features=np.zeros((4, 1)),
            labels=np.array([1.0, 1.0, -1.0, -1.0]),
            group_ids=np.array([0, 0, 1, 1]),
        )
        with pytest.raises(ValueError, match="group 1"):
            build_fairness_constraints(dataset, ConstantScoreFamily(np.zeros(4)),
                                       FairnessSpec())

    def test_surrogate_approaches_hard_rate_with_temperature(self):
        scores = np.array([0.6, 1.3, 2.2, -0.9, 0.4])
        hard = float(np.mean(scores > 0))
        temps = [1.0, 2.0, 5.0, 10.0, 40.0]
        gaps = [abs(surrogate_tpr(scores, t) - hard) for t in temps]
        assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.02


class TestIngestCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_basic_fixture(self, tmp_path):
        path = self.write(tmp_path, "a,b,y,g\n1.0,2.0,1,0\n2.0,0.5,-1,1\n3.5,1.5,1,0\n")
        data = ingest_csv(path, {"a": "feature", "b": "feature",
                                 "y": "label", "g": "group"})
        assert data.m == 3
        assert data.dim == 2
        assert np.array_equal(data.labels, [1.0, -1.0, 1.0])
        assert np.array_equal(data.group_ids, [0, 1, 0])

    def test_standardization_moments(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = ["x1,x2,y"]
        for _ in range(40):
            rows.append(f"{rng.normal(3, 2)},{rng.normal(-1, 0.5)},{1 if rng.uniform() < 0.5 else -1}")
        path = self.write(tmp_path, "\n".join(rows) + "\n")
        data = ingest_csv(path, {"x1": "feature", "x2": "feature", "y": "label"})
        assert np.max(np.abs(data.features.mean(axis=0))) <= 1e-12
        assert np.max(np.abs(data.features.std(axis=0) - 1.0)) <= 1e-12

    def test_no_standardize(self, tmp_path):
        path = self.write(tmp_path, "a,y\n5.0,1\n7.0,-1\n")
        data = ingest_csv(path, {"a": "feature", "y": "label"}, standardize=False)
        assert np.array_equal(data.features[:, 0], [5.0, 7.0])

    def test_malformed_cell_names_row_and_column(self, tmp_path):
        path = self.write(tmp_path, "a,y\n1.0,1\nbogus,-1\n")
        with pytest.raises(ValueError, match=r"row 3, column 'a'"):
            ingest_csv(path, {"a": "feature", "y": "label"})

    def test_unknown_column_rejected(self, tmp_path):
        path = self.write(tmp_path, "a,y\n1.0,1\n")
        with pytest.raises(ValueError, match="unknown columns"):
            ingest_csv(path, {"a": "feature", "z": "feature", "y": "label"})

    def test_zero_one_labels_mapped(self, tmp_path):
        path = self.write(tmp_path, "a,y\n1.0,0\n2.0,1\n")
        data = ingest_csv(path, {"a": "feature", "y": "label"})
        assert np.array_equal(data.labels, [-1.0, 1.0])

    def test_bad_label_value(self, tmp_path):
        path = self.write(tmp_path, "a,y\n1.0,3\n")
        with pytest.raises(ValueError, match="label"):
            ingest_csv(path, {"a": "feature", "y": "label"})


class TestSynthetic:
    def test_quadratic_deterministic(self):
        f1 = make_synthetic("strongly_convex_quadratic", m=16, d=5, seed=7)
        f2 = make_synthetic("strongly_convex_quadratic", m=16, d=5, seed=7)
        assert np.array_equal(f1.A, f2.A)
        assert np.array_equal(f1.b, f2.b)

    def test_quadratic_condition_number(self):
        fam = make_synthetic("strongly_convex_quadratic", m=16, d=5, seed=7,
                             cond=10.0)
        eigs = np.linalg.eigvalsh(fam.A.T @ fam.A / 16)
        assert eigs[-1] / eigs[0] == pytest.approx(10.0, rel=1e-9)

    def test_two_group_bias_plants_gap(self):
        dataset = make_synthetic("two_group_bias", m=120, seed=3, min_gap=0.1)
        from drsum.problems import _fit_logistic
        x_hat = _fit_logistic(dataset)
        rates = group_true_positive_rates(dataset, LogisticLosses(dataset), x_hat)
        overall = rates.pop("ALL")
        assert max(overall - r for r in rates.values()) >= 0.1
        # deterministic under the seed
        again = make_synthetic("two_group_bias", m=120, seed=3, min_gap=0.1)
        assert np.array_equal(dataset.features, again.features)

    @pytest.mark.parametrize("m,seed", [(120, 3), (20, 1001)])
    def test_vectorized_fit_matches_per_row_loop(self, m, seed):
        from drsum.problems import _fit_logistic, _sample_two_group
        dataset = _sample_two_group(m, seed, 0.2)
        family = LogisticLosses(dataset)
        x_ref = np.zeros(dataset.dim)
        for _ in range(400):
            grad = np.zeros(dataset.dim)
            for i in range(m):
                grad += at_index(family.eval, i, x_ref)[1]
            x_ref = x_ref - 0.5 * (grad / m + 1e-4 * x_ref)
        np.testing.assert_allclose(_fit_logistic(dataset), x_ref,
                                   rtol=1e-12, atol=1e-12)

    def test_nonconvex_toy_two_value_clusters(self):
        family = make_synthetic("nonconvex_toy", m=12, d=3, seed=2)
        prob = build_mean(family)
        finals = []
        for start in (np.array([1.5, 0.3, -0.2]), np.array([-1.5, 0.3, -0.2])):
            x = start.copy()
            for _ in range(3000):
                x = x - 0.05 * full_phi_gradient(prob, x)
            from drsum.composite import evaluate_psi
            finals.append(evaluate_psi(prob, x))
        assert abs(finals[0] - finals[1]) > 1e-3

    def test_xor_dataset(self):
        data = make_xor_dataset(m=20, seed=1)
        assert data.m == 20
        assert np.all(np.sign(data.features[:, 0] * data.features[:, 1]) == data.labels)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_synthetic("mystery", m=4)


def test_error_rate_and_tpr_helpers():
    dataset = TabularDataset(
        features=np.array([[1.0], [1.0], [-1.0], [-1.0]]),
        labels=np.array([1.0, 1.0, -1.0, -1.0]),
        group_ids=np.array([0, 1, 0, 1]),
    )
    family = LogisticLosses(dataset)
    x = np.array([2.0])
    assert error_rate(dataset, family, x) == 0.0
    rates = group_true_positive_rates(dataset, family, x)
    assert rates["ALL"] == 1.0 and rates[0] == 1.0 and rates[1] == 1.0
