"""Aggregated estimator, sensitivity inequality and ensembles."""

import numpy as np
import pytest

from alrite.data import generate_acic_like, generate_ihdp_like, split
from alrite.learner import (AlriteModel, EnsembleModel, aggregate_tau,
                            alrite_fit, alrite_predict, combine_ensemble_grid,
                            ensemble_predict, eta_sensitivity_check,
                            rank_members, select_ensemble_hyperparam,
                            select_eta, softmax_weights)
from alrite.metrics import make_linear_instance, pehe
from alrite.pipeline import PipelineHyperparams, predict_mu, predict_tau
from alrite.propensity import (DEFAULT_PROPENSITY_GRID, PropensityModel, predict_eta,
                               select_propensity)


def constant_eta_model(value: float, d: int = 2) -> PropensityModel:
    """Logistic model with zero weights and a bias hitting the target value."""
    logit = np.log(value / (1 - value))
    return PropensityModel("logistic_regression",
                           {"weights": np.zeros(d), "bias": float(logit),
                            "l2_strength": 0.0, "x_mean": np.zeros(d),
                            "x_scale": np.ones(d)})


def val_mu_risk(p, ds, idx):
    """Factual MSE of one member over the indices, as `alrite sweep` records it."""
    return float(np.mean((ds.y[idx] - predict_mu(p, ds.x[idx], ds.t[idx])) ** 2))


def linear_members(seed, count=4, n=60, d=2):
    members0, members1 = [], []
    # shared dataset; members differ by their head perturbation scale
    ds, truth, _, _, _ = make_linear_instance(seed, n=n, d=d, noise=0.1)
    for k in range(count):
        _, _, p0, p1, _ = make_linear_instance(seed, n=n, d=d, noise=0.1,
                                               head_perturbation=0.05 * (k + 1))
        members0.append(p0)
        members1.append(p1)
    return ds, truth, members0, members1


def small_fit(seed=0):
    ds, truth = generate_ihdp_like(seed, n=150, d=4, noise_scale=0.5)
    sp = split(ds, 0.2, 0.3, seed)
    hp = PipelineHyperparams(alpha=0.1, beta=0.1, embed_layers=1, head_layers=1,
                             batch_size=50, epochs=8)
    model, reports = alrite_fit(ds, sp, hp, hp, seed=seed)
    return ds, truth, sp, model, reports


def test_alrite_fit_smoke_and_determinism():
    ds, truth, sp, model, reports = small_fit(0)
    tau = alrite_predict(model, ds.x[sp.test])
    assert np.all(np.isfinite(tau))
    assert reports["p0"].retained_epoch >= 0
    _, _, _, model2, _ = small_fit(0)
    assert np.array_equal(alrite_predict(model2, ds.x[sp.test]), tau)


def test_predict_is_propensity_convex_combination():
    ds, truth, sp, model, _ = small_fit(1)
    x = ds.x[:20]
    tau0 = predict_tau(model.p0, x)
    tau1 = predict_tau(model.p1, x)
    eta = predict_eta(model.eta, x)
    assert np.allclose(alrite_predict(model, x), (1 - eta) * tau0 + eta * tau1)
    # convexity: the aggregate lies between the two arm estimates
    lo = np.minimum(tau0, tau1)
    hi = np.maximum(tau0, tau1)
    agg = alrite_predict(model, x)
    assert np.all(agg >= lo - 1e-12) and np.all(agg <= hi + 1e-12)


def test_predict_degenerate_eta():
    ds, truth, p0, p1, _ = make_linear_instance(0, n=40, d=2, noise=0.1)
    # eta forced to 0.5: the aggregate is the plain average
    model = AlriteModel(p0, p1, constant_eta_model(0.5))
    tau0 = predict_tau(p0, ds.x)
    tau1 = predict_tau(p1, ds.x)
    assert np.allclose(alrite_predict(model, ds.x), 0.5 * (tau0 + tau1))
    # near-zero eta sits at the clip floor: the control-driven estimate
    # weighs 0.99, the treatment-driven one 0.01
    model_lo = AlriteModel(p0, p1, constant_eta_model(1e-9))
    assert np.allclose(alrite_predict(model_lo, ds.x), 0.99 * tau0 + 0.01 * tau1)


def test_predict_hand_values():
    # eta = 0.5, tau0 = 1, tau1 = 3 -> 2 (scalar recomposition)
    assert 0.5 * 1.0 + 0.5 * 3.0 == 2.0  # the formula itself
    ds, _, p0, p1, _ = make_linear_instance(1, n=30, d=2, noise=0.1)
    model = AlriteModel(p0, p1, constant_eta_model(0.3))
    x = ds.x[:5]
    expect = 0.7 * predict_tau(p0, x) + 0.3 * predict_tau(p1, x)
    assert np.allclose(alrite_predict(model, x), expect)


def test_select_eta_keeps_no_copy_of_the_training_rows(peak_bytes):
    # acic_like's 58 columns, 3000 training rows at the default split. Copying
    # the training rows out for the whole 5-fold CV peaks at 6.35 times their
    # bytes; gathering each fold's rows, and the refit's after the last fold,
    # from the dataset peaks at 5.35 times. The model is the copy form's.
    ds, _ = generate_acic_like(1, 5000)
    sp = split(ds, 0.1, 0.3, 0)
    train_rows = ds.x[sp.train]
    peak = peak_bytes(select_eta, ds, sp, DEFAULT_PROPENSITY_GRID, 3)
    assert peak < 5.85 * train_rows.nbytes
    copied = select_propensity(train_rows, ds.t[sp.train], DEFAULT_PROPENSITY_GRID, folds=5,
                               seed=3)
    assert select_eta(ds, sp, DEFAULT_PROPENSITY_GRID, 3).to_dict() == copied.to_dict()


def test_eta_sensitivity_trivial_zeros():
    ds, truth, p0, p1, _ = make_linear_instance(2, n=50, d=2, noise=0.1)
    model = AlriteModel(p0, p1, constant_eta_model(0.4))
    eta_hat = np.full(ds.n, predict_eta(model.eta, ds.x[:1])[0])
    # true eta equals the estimate -> lhs = 0
    lhs, rhs = eta_sensitivity_check(model, eta_hat, ds, truth.tau)
    assert lhs == pytest.approx(0.0, abs=1e-12)
    # identical arm estimates -> lhs = 0 for any eta
    from alrite.pipeline import Pipeline
    twin_of_p0 = Pipeline(p0.phi, p0.h0, p0.h1, "treatment_driven")
    model_same = AlriteModel(p0, twin_of_p0, model.eta)
    lhs2, _ = eta_sensitivity_check(model_same, np.full(ds.n, 0.9), ds, truth.tau)
    assert lhs2 == pytest.approx(0.0, abs=1e-12)


def test_eta_sensitivity_inequality_random_models():
    rng = np.random.default_rng(3)
    for seed in range(20):
        ds, truth, p0, p1, _ = make_linear_instance(seed, n=60, d=3, noise=0.2)
        model = AlriteModel(p0, p1, constant_eta_model(float(rng.uniform(0.1, 0.9)), d=3))
        eta_true = rng.uniform(0.05, 0.95, size=ds.n)
        lhs, rhs = eta_sensitivity_check(model, eta_true, ds, truth.tau)
        assert lhs <= rhs + 1e-9


def test_eta_sensitivity_requires_truth():
    ds, truth, p0, p1, _ = make_linear_instance(4, n=30, d=2, noise=0.1)
    model = AlriteModel(p0, p1, constant_eta_model(0.5))
    with pytest.raises(ValueError, match="unsupported"):
        eta_sensitivity_check(model, None, ds, truth.tau)


def test_topk_k1_equals_best_single_member():
    ds, truth, members0, members1 = linear_members(0)
    eta = constant_eta_model(0.4)
    risks0 = [0.1, 0.2, 0.3, 0.4]
    risks1 = [0.15, 0.25, 0.35, 0.45]
    ens = EnsembleModel(members0, members1, eta, "top_k", 1, risks0, risks1)
    expect = aggregate_tau(members0[0], members1[0], eta, ds.x)
    assert np.array_equal(ensemble_predict(ens, ds.x), expect)


def test_topk_identical_members_collapse():
    ds, truth, members0, members1 = linear_members(1, count=1)
    eta = constant_eta_model(0.5)
    m0 = [members0[0]] * 3
    m1 = [members1[0]] * 3
    ens = EnsembleModel(m0, m1, eta, "top_k", 3, [0.1] * 3, [0.1] * 3)
    single = aggregate_tau(members0[0], members1[0], eta, ds.x)
    assert np.allclose(ensemble_predict(ens, ds.x), single)


def test_topk_k3_hand_average():
    ds, truth, members0, members1 = linear_members(2)
    eta = constant_eta_model(0.3)
    ens = EnsembleModel(members0, members1, eta, "top_k", 3,
                        [0.1, 0.2, 0.3, 0.4], [0.1, 0.2, 0.3, 0.4])
    avg0 = np.mean([predict_tau(p, ds.x) for p in members0[:3]], axis=0)
    avg1 = np.mean([predict_tau(p, ds.x) for p in members1[:3]], axis=0)
    assert np.allclose(ensemble_predict(ens, ds.x), 0.7 * avg0 + 0.3 * avg1)


def test_topk_trimmed_to_k_members_predicts_bit_equal():
    ds, truth, members0, members1 = linear_members(4)
    eta = constant_eta_model(0.3)
    risks0, risks1 = [0.1, 0.2, 0.3, 0.4], [0.15, 0.25, 0.35, 0.45]
    rng = np.random.default_rng(4)
    x = np.vstack([ds.x, 1e3 * rng.standard_normal((20, 2)), np.zeros((1, 2))])
    for k in range(1, 5):
        full = EnsembleModel(members0, members1, eta, "top_k", k, risks0, risks1)
        trimmed = EnsembleModel(members0[:k], members1[:k], eta, "top_k", k,
                                risks0[:k], risks1[:k])
        assert ensemble_predict(trimmed, x).tobytes() == ensemble_predict(full, x).tobytes()


def test_topk_k_out_of_range():
    ds, truth, members0, members1 = linear_members(3, count=2)
    eta = constant_eta_model(0.5)
    with pytest.raises(ValueError):
        EnsembleModel(members0, members1, eta, "top_k", 3, [0.1, 0.2], [0.1, 0.2])
    with pytest.raises(ValueError):
        EnsembleModel(members0, members1, eta, "top_k", 0, [0.1, 0.2], [0.1, 0.2])


def test_softmax_weights_probability_vector_and_hand_value():
    w = softmax_weights([0.0, np.log(2.0)], lam=1.0)
    assert np.allclose(w, [2 / 3, 1 / 3])
    rng = np.random.default_rng(4)
    for _ in range(20):
        w = softmax_weights(rng.uniform(0, 5, size=6), lam=float(rng.uniform(0, 10)))
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) < 1e-12


def test_softmax_limits():
    ds, truth, members0, members1 = linear_members(5)
    eta = constant_eta_model(0.5)
    risks0 = [0.1, 0.2, 0.3, 0.4]
    risks1 = [0.12, 0.22, 0.32, 0.42]
    # lambda -> 0: plain average
    tiny = EnsembleModel(members0, members1, eta, "softmax", 1e-12, risks0, risks1)
    full = EnsembleModel(members0, members1, eta, "top_k", 4, risks0, risks1)
    assert np.allclose(ensemble_predict(tiny, ds.x), ensemble_predict(full, ds.x),
                       atol=1e-9)
    # huge lambda: the single lowest-risk member
    sharp = EnsembleModel(members0, members1, eta, "softmax", 1e6, risks0, risks1)
    best = EnsembleModel(members0, members1, eta, "top_k", 1, risks0, risks1)
    assert np.allclose(ensemble_predict(sharp, ds.x), ensemble_predict(best, ds.x),
                       atol=1e-6)


def test_softmax_overflow_guard():
    w = softmax_weights([1e6, 2e6], lam=10.0)
    assert np.all(np.isfinite(w)) and abs(w.sum() - 1.0) < 1e-12


def test_ensemble_validation():
    ds, truth, members0, members1 = linear_members(6, count=2)
    eta = constant_eta_model(0.5)
    with pytest.raises(ValueError, match="sorted"):
        EnsembleModel(members0, members1, eta, "top_k", 1, [0.3, 0.1], [0.1, 0.2])
    with pytest.raises(ValueError, match="lambda"):
        EnsembleModel(members0, members1, eta, "softmax", 0.0, [0.1, 0.2], [0.1, 0.2])


def test_ensemble_refuses_fractional_k_and_non_finite_lambda():
    ds, truth, members0, members1 = linear_members(6, count=2)
    eta = constant_eta_model(0.5)
    risks = [0.1, 0.2]
    for mode, param in (("top_k", 1.5), ("softmax", np.inf), ("softmax", np.nan)):
        with pytest.raises(ValueError, match="whole number" if mode == "top_k" else "finite"):
            EnsembleModel(members0, members1, eta, mode, param, risks, risks)
    # ensemble.json stores K as a float
    k2 = EnsembleModel(members0, members1, eta, "top_k", 2.0, risks, risks)
    assert np.array_equal(ensemble_predict(k2, ds.x), ensemble_predict(
        EnsembleModel(members0, members1, eta, "top_k", 2, risks, risks), ds.x))


def test_rank_members_sorted_by_validation_risk():
    ds, truth, members0, _ = linear_members(7)
    idx = np.arange(ds.n)
    mse = [val_mu_risk(p, ds, idx) for p in members0]
    indices = [10 + k for k in range(len(members0))]
    ranked_indices, ranked, risks = rank_members(indices, members0, mse)
    assert risks == sorted(mse)
    assert [id(p) for p in ranked] == [id(members0[i]) for i in np.argsort(mse)]
    assert ranked_indices == [indices[i] for i in np.argsort(mse)]
    # stable: equal risks keep their submission order
    ranked_indices, ranked, risks = rank_members(indices, members0, [0.5] * len(members0))
    assert [id(p) for p in ranked] == [id(p) for p in members0]
    assert ranked_indices == indices
    assert risks == [0.5] * len(members0)


def test_select_ensemble_hyperparam_dominance_and_tie():
    ds, truth, members0, members1 = linear_members(8)
    eta = constant_eta_model(0.5)
    idx = np.arange(ds.n)
    _, ranked0, risks0 = rank_members(range(4), members0,
                                      [val_mu_risk(p, ds, idx) for p in members0])
    _, ranked1, risks1 = rank_members(range(4), members1,
                                      [val_mu_risk(p, ds, idx) for p in members1])
    mu0 = [predict_mu(p, ds.x, ds.t) for p in ranked0]
    mu1 = [predict_mu(p, ds.x, ds.t) for p in ranked1]
    eta_val = predict_eta(eta, ds.x)
    chosen, table = select_ensemble_hyperparam(mu0, mu1, eta_val, ds.y, "top_k",
                                               [1, 2, 3, 4], risks0, risks1)
    assert chosen in (1, 2, 3, 4)
    assert len(table) == 4
    assert table[[row["candidate"] for row in table].index(chosen)]["mu_risk"] == \
        min(row["mu_risk"] for row in table)
    # single candidate: returned as-is
    only, _ = select_ensemble_hyperparam(mu0, mu1, eta_val, ds.y, "top_k", [2],
                                         risks0, risks1)
    assert only == 2
    # each candidate's risk is that of the ensemble the members predict
    for row, pred in zip(table, combine_ensemble_grid(mu0, mu1, eta_val, "top_k",
                                                      [1, 2, 3, 4], risks0, risks1)):
        assert row["mu_risk"] == float(np.mean((ds.y - pred) ** 2))
    with pytest.raises(ValueError, match="empty candidate"):
        select_ensemble_hyperparam(mu0, mu1, eta_val, ds.y, "top_k", [], risks0, risks1)
    with pytest.raises(ValueError, match="K out of range"):
        select_ensemble_hyperparam(mu0, mu1, eta_val, ds.y, "top_k", [5], risks0, risks1)
    with pytest.raises(ValueError, match="lambda"):
        select_ensemble_hyperparam(mu0, mu1, eta_val, ds.y, "softmax", [1.0, 0.0],
                                   risks0, risks1)
    with pytest.raises(ValueError, match="sorted"):
        select_ensemble_hyperparam(mu0, mu1, eta_val, ds.y, "top_k", [1], risks0[::-1], risks1)
    with pytest.raises(ValueError, match="one mu-risk per member"):
        select_ensemble_hyperparam(mu0[:3], mu1, eta_val, ds.y, "top_k", [1], risks0, risks1)


def test_select_ensemble_hyperparam_refuses_fractional_k_and_non_finite_lambda():
    ds, truth, members0, members1 = linear_members(12, count=2)
    risks = [0.1, 0.2]
    mu0 = [predict_mu(p, ds.x, ds.t) for p in members0]
    mu1 = [predict_mu(p, ds.x, ds.t) for p in members1]
    eta_val = predict_eta(constant_eta_model(0.5), ds.x)
    for mode, grid in (("top_k", [1, 1.5]), ("softmax", [1.0, np.inf]), ("softmax", [np.nan])):
        with pytest.raises(ValueError, match="whole number" if mode == "top_k" else "finite"):
            select_ensemble_hyperparam(mu0, mu1, eta_val, ds.y, mode, grid, risks, risks)
    chosen, table = select_ensemble_hyperparam(mu0, mu1, eta_val, ds.y, "top_k", [1.0, 2.0],
                                               risks, risks)
    assert chosen in (1.0, 2.0) and all(np.isfinite(row["mu_risk"]) for row in table)


def test_ensemble_grid_matches_each_ensemble():
    ds, truth, members0, members1 = linear_members(11)
    eta = constant_eta_model(0.3)
    risks = [0.1, 0.2, 0.3, 0.4]
    lams = [0.5, 2.0, 8.0]
    e = predict_eta(eta, ds.x)
    taus = combine_ensemble_grid([predict_tau(p, ds.x) for p in members0],
                                 [predict_tau(p, ds.x) for p in members1], e, "softmax", lams,
                                 risks, risks)
    per0 = [predict_mu(p, ds.x, ds.t) for p in members0]
    per1 = [predict_mu(p, ds.x, ds.t) for p in members1]
    mus = combine_ensemble_grid(per0, per1, e, "softmax", lams, risks, risks)
    for lam, tau, mu in zip(lams, taus, mus):
        ens = EnsembleModel(members0, members1, eta, "softmax", lam, risks, risks)
        assert np.array_equal(tau, ensemble_predict(ens, ds.x))
        w = softmax_weights(risks, lam)
        expect = (1 - e) * sum(wi * v for wi, v in zip(w, per0)) \
            + e * sum(wi * v for wi, v in zip(w, per1))
        assert np.allclose(mu, expect)


def test_serialization_round_trips():
    ds, truth, members0, members1 = linear_members(9, count=2)
    eta = constant_eta_model(0.4)
    model = AlriteModel(members0[0], members1[0], eta)
    d = model.to_dict()
    assert "clip" not in d and "fitted" not in d["eta"]
    clone = AlriteModel.from_dict(d)
    assert np.allclose(alrite_predict(clone, ds.x), alrite_predict(model, ds.x))
    # older files carry "clip" and "fitted"; both are ignored
    old = AlriteModel.from_dict({**d, "clip": 0.2, "eta": {**d["eta"], "fitted": True}})
    assert alrite_predict(old, ds.x).tobytes() == alrite_predict(model, ds.x).tobytes()


def test_role_invariant_enforced():
    ds, truth, p0, p1, _ = make_linear_instance(10, n=30, d=2, noise=0.1)
    with pytest.raises(ValueError):
        AlriteModel(p1, p0, constant_eta_model(0.5))
