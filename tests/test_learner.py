"""Aggregated estimator, sensitivity inequality and ensembles."""

import numpy as np
import pytest

from alrite.data import generate_ihdp_like, split
from alrite.learner import (AlriteModel, EnsembleModel, aggregate_tau,
                            alrite_fit, alrite_predict, build_softmax_ensemble,
                            build_topk_ensemble, ensemble_predict,
                            eta_sensitivity_check, predict_ensemble_grid,
                            rank_members, select_ensemble_hyperparam,
                            softmax_weights)
from alrite.metrics import make_linear_instance, pehe
from alrite.pipeline import PipelineHyperparams, factual_mse, predict_mu, predict_tau
from alrite.propensity import PropensityModel, predict_eta


def constant_eta_model(value: float, d: int = 2) -> PropensityModel:
    """Logistic model with zero weights and a bias hitting the target value."""
    logit = np.log(value / (1 - value))
    return PropensityModel("logistic_regression",
                           {"weights": np.zeros(d), "bias": float(logit),
                            "l2_strength": 0.0, "x_mean": np.zeros(d),
                            "x_scale": np.ones(d)}, fitted=True)


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
    eta = predict_eta(model.eta, x, model.clip)
    assert np.allclose(alrite_predict(model, x), (1 - eta) * tau0 + eta * tau1)
    # convexity: the aggregate lies between the two arm estimates
    lo = np.minimum(tau0, tau1)
    hi = np.maximum(tau0, tau1)
    agg = alrite_predict(model, x)
    assert np.all(agg >= lo - 1e-12) and np.all(agg <= hi + 1e-12)


def test_predict_degenerate_eta():
    ds, truth, p0, p1, _ = make_linear_instance(0, n=40, d=2, noise=0.1)
    # eta forced to 0.5: the aggregate is the plain average
    model = AlriteModel(p0, p1, constant_eta_model(0.5), clip=0.0)
    tau0 = predict_tau(p0, ds.x)
    tau1 = predict_tau(p1, ds.x)
    assert np.allclose(alrite_predict(model, ds.x), 0.5 * (tau0 + tau1))
    # near-zero eta: the control-driven estimate dominates
    model_lo = AlriteModel(p0, p1, constant_eta_model(1e-9), clip=0.0)
    assert np.allclose(alrite_predict(model_lo, ds.x), tau0, atol=1e-6)


def test_predict_hand_values():
    # eta = 0.5, tau0 = 1, tau1 = 3 -> 2 (scalar recomposition)
    assert 0.5 * 1.0 + 0.5 * 3.0 == 2.0  # the formula itself
    ds, _, p0, p1, _ = make_linear_instance(1, n=30, d=2, noise=0.1)
    model = AlriteModel(p0, p1, constant_eta_model(0.3), clip=0.0)
    x = ds.x[:5]
    expect = 0.7 * predict_tau(p0, x) + 0.3 * predict_tau(p1, x)
    assert np.allclose(alrite_predict(model, x), expect)


def test_eta_sensitivity_trivial_zeros():
    ds, truth, p0, p1, _ = make_linear_instance(2, n=50, d=2, noise=0.1)
    model = AlriteModel(p0, p1, constant_eta_model(0.4), clip=0.0)
    eta_hat = np.full(ds.n, predict_eta(model.eta, ds.x[0], 0.0))
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
    ens = build_topk_ensemble(members0, members1, eta, 1, risks0, risks1, clip=0.0)
    expect = aggregate_tau(members0[0], members1[0], eta, ds.x, clip=0.0)
    assert np.array_equal(ensemble_predict(ens, ds.x), expect)


def test_topk_identical_members_collapse():
    ds, truth, members0, members1 = linear_members(1, count=1)
    eta = constant_eta_model(0.5)
    m0 = [members0[0]] * 3
    m1 = [members1[0]] * 3
    ens = build_topk_ensemble(m0, m1, eta, 3, [0.1] * 3, [0.1] * 3, clip=0.0)
    single = aggregate_tau(members0[0], members1[0], eta, ds.x, clip=0.0)
    assert np.allclose(ensemble_predict(ens, ds.x), single)


def test_topk_k3_hand_average():
    ds, truth, members0, members1 = linear_members(2)
    eta = constant_eta_model(0.3)
    ens = build_topk_ensemble(members0, members1, eta, 3,
                              [0.1, 0.2, 0.3, 0.4], [0.1, 0.2, 0.3, 0.4], clip=0.0)
    avg0 = np.mean([predict_tau(p, ds.x) for p in members0[:3]], axis=0)
    avg1 = np.mean([predict_tau(p, ds.x) for p in members1[:3]], axis=0)
    assert np.allclose(ensemble_predict(ens, ds.x), 0.7 * avg0 + 0.3 * avg1)


def test_topk_k_out_of_range():
    ds, truth, members0, members1 = linear_members(3, count=2)
    eta = constant_eta_model(0.5)
    with pytest.raises(ValueError):
        build_topk_ensemble(members0, members1, eta, 3, [0.1, 0.2], [0.1, 0.2])
    with pytest.raises(ValueError):
        build_topk_ensemble(members0, members1, eta, 0, [0.1, 0.2], [0.1, 0.2])


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
    tiny = build_softmax_ensemble(members0, members1, eta, 1e-12, risks0, risks1, clip=0.0)
    full = build_topk_ensemble(members0, members1, eta, 4, risks0, risks1, clip=0.0)
    assert np.allclose(ensemble_predict(tiny, ds.x), ensemble_predict(full, ds.x),
                       atol=1e-9)
    # huge lambda: the single lowest-risk member
    sharp = build_softmax_ensemble(members0, members1, eta, 1e6, risks0, risks1, clip=0.0)
    best = build_topk_ensemble(members0, members1, eta, 1, risks0, risks1, clip=0.0)
    assert np.allclose(ensemble_predict(sharp, ds.x), ensemble_predict(best, ds.x),
                       atol=1e-6)


def test_softmax_overflow_guard():
    w = softmax_weights([1e6, 2e6], lam=10.0)
    assert np.all(np.isfinite(w)) and abs(w.sum() - 1.0) < 1e-12


def test_ensemble_validation():
    ds, truth, members0, members1 = linear_members(6, count=2)
    eta = constant_eta_model(0.5)
    with pytest.raises(ValueError, match="sorted"):
        build_topk_ensemble(members0, members1, eta, 1, [0.3, 0.1], [0.1, 0.2])
    with pytest.raises(ValueError, match="lambda"):
        build_softmax_ensemble(members0, members1, eta, 0.0, [0.1, 0.2], [0.1, 0.2])


def test_rank_members_sorted_by_validation_risk():
    ds, truth, members0, _ = linear_members(7)
    idx = np.arange(ds.n)
    mse = [factual_mse(p, ds, idx) for p in members0]
    ranked, risks = rank_members(members0, mse)
    assert risks == sorted(mse)
    assert [id(p) for p in ranked] == [id(members0[i]) for i in np.argsort(mse)]
    # stable: equal risks keep their submission order
    ranked, risks = rank_members(members0, [0.5] * len(members0))
    assert [id(p) for p in ranked] == [id(p) for p in members0]
    assert risks == [0.5] * len(members0)


def test_select_ensemble_hyperparam_dominance_and_tie():
    ds, truth, members0, members1 = linear_members(8)
    eta = constant_eta_model(0.5)
    idx = np.arange(ds.n)
    ranked0, risks0 = rank_members(members0, [factual_mse(p, ds, idx) for p in members0])
    ranked1, risks1 = rank_members(members1, [factual_mse(p, ds, idx) for p in members1])
    chosen, table = select_ensemble_hyperparam(ranked0, ranked1, eta, "top_k",
                                               [1, 2, 3, 4], ds, idx, risks0, risks1)
    assert chosen in (1, 2, 3, 4)
    assert len(table) == 4
    assert table[[row["candidate"] for row in table].index(chosen)]["mu_risk"] == \
        min(row["mu_risk"] for row in table)
    # single candidate: returned as-is
    only, _ = select_ensemble_hyperparam(ranked0, ranked1, eta, "top_k", [2],
                                         ds, idx, risks0, risks1)
    assert only == 2


def test_ensemble_grid_matches_each_ensemble():
    ds, truth, members0, members1 = linear_members(11)
    eta = constant_eta_model(0.3)
    risks = [0.1, 0.2, 0.3, 0.4]
    lams = [0.5, 2.0, 8.0]
    taus = predict_ensemble_grid(members0, members1, eta, "softmax", lams,
                                 risks, risks, ds.x)
    mus = predict_ensemble_grid(members0, members1, eta, "softmax", lams,
                                risks, risks, ds.x, ds.t)
    for lam, tau, mu in zip(lams, taus, mus):
        ens = build_softmax_ensemble(members0, members1, eta, lam, risks, risks)
        assert np.array_equal(tau, ensemble_predict(ens, ds.x))
        per0 = [predict_mu(p, ds.x, ds.t) for p in members0]
        per1 = [predict_mu(p, ds.x, ds.t) for p in members1]
        e = predict_eta(eta, ds.x, ens.clip)
        w = softmax_weights(risks, lam)
        expect = (1 - e) * sum(wi * v for wi, v in zip(w, per0)) \
            + e * sum(wi * v for wi, v in zip(w, per1))
        assert np.allclose(mu, expect)


def test_serialization_round_trips():
    ds, truth, members0, members1 = linear_members(9, count=2)
    eta = constant_eta_model(0.4)
    model = AlriteModel(members0[0], members1[0], eta)
    clone = AlriteModel.from_dict(model.to_dict())
    assert np.allclose(alrite_predict(clone, ds.x), alrite_predict(model, ds.x))
    ens = build_softmax_ensemble(members0, members1, eta, 2.0, [0.1, 0.2], [0.1, 0.2])
    ens2 = EnsembleModel.from_dict(ens.to_dict())
    assert np.allclose(ensemble_predict(ens2, ds.x), ensemble_predict(ens, ds.x))


def test_role_invariant_enforced():
    ds, truth, p0, p1, _ = make_linear_instance(10, n=30, d=2, noise=0.1)
    with pytest.raises(ValueError):
        AlriteModel(p1, p0, constant_eta_model(0.5))
