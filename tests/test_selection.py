"""Auxiliary regressors, the eight proxy risks against a hand-evaluated
table, rank statistics against enumeration oracles, and candidate choice."""

import numpy as np
import pytest

import alrite.twin
from alrite.data import Dataset, GroundTruth
from alrite.propensity import DEFAULT_CLIP, PropensityModel, predict_eta
from alrite.selection import (PROXY_KINDS, Auxiliaries, KernelRidge, _fit_kernel_ridge,
                              _median_pairwise_distance, _rbf_kernel, _rbf_predictions,
                              _solve_ridges, fit_auxiliaries, fit_kernel_ridge_cv,
                              nn_imputed_outcome, proxy_score, proxy_terms,
                              rank_agreement, score_candidate, _average_ranks,
                              _inverse_propensity)


class ConstPredictor:
    """Stub regressor returning a fixed value for every query."""

    def __init__(self, value):
        self.value = float(value)

    def predict(self, x):
        return np.full(len(x), self.value)


def half_eta(d=1) -> PropensityModel:
    return PropensityModel("logistic_regression",
                           {"weights": np.zeros(d), "bias": 0.0, "l2_strength": 0.0,
                            "x_mean": np.zeros(d), "x_scale": np.ones(d)})


def hand_table():
    ds = Dataset(np.zeros((5, 1)), np.array([1, 0, 1, 0, 1]),
                 np.array([2.0, 1.0, 0.0, -1.0, 3.0]), ["continuous"])
    aux = Auxiliaries(
        mu0_hat=ConstPredictor(0.5), mu1_hat=ConstPredictor(1.5),
        m_hat=ConstPredictor(1.0), eta_hat=half_eta(),
        donors_x=np.array([[10.0], [20.0]]), donors_t=np.array([0, 1]),
        donors_y=np.array([5.0, 7.0]))
    candidate = {"tau": np.array([1.0, 2.0, 0.0, -1.0, 1.0]),
                 "mu": np.array([1.8, 0.9, 0.2, -0.8, 2.5])}
    return ds, aux, candidate


HAND_EXPECTED = {
    "mu_risk": 0.076,
    "mu_risk_iptw": 0.152,
    "r_risk": 2.15,
    "tau_naive": 1.2,
    "tau_1nni": 29.4,
    "tau_iptw": 11.8,
    "tau_u": 8.6,
    "tau_dr": 8.6,
}


@pytest.mark.parametrize("kind", PROXY_KINDS)
def test_proxy_rows_match_hand_evaluation(kind):
    ds, aux, candidate = hand_table()
    score = proxy_score(kind, candidate, ds, np.arange(5), aux)
    assert score == pytest.approx(HAND_EXPECTED[kind], rel=1e-12)


def test_proxy_kind_mismatch_errors():
    ds, aux, candidate = hand_table()
    with pytest.raises(ValueError, match="mu"):
        proxy_score("mu_risk", {"tau": candidate["tau"]}, ds, np.arange(5), aux)
    with pytest.raises(ValueError, match="tau"):
        proxy_score("tau_dr", {"mu": candidate["mu"]}, ds, np.arange(5), aux)
    with pytest.raises(ValueError, match="unknown"):
        proxy_score("pi_risk", candidate, ds, np.arange(5), aux)


def test_mu_risk_perfect_predictor_is_zero():
    ds, aux, _ = hand_table()
    assert proxy_score("mu_risk", {"mu": ds.y.copy()}, ds, np.arange(5), aux) == 0.0


def test_proxy_rows_match_direct_formulas_off_half_propensity():
    # at eta = 0.5 both arms share one inverse propensity; 0.3 tells them apart
    ds, aux, candidate = hand_table()
    aux.eta_hat.params["bias"] = float(np.log(0.3 / 0.7))
    x, t, y = ds.x, ds.t, ds.y
    tau, mu = candidate["tau"], candidate["mu"]
    eta = np.full(5, 0.3)
    rho = np.where(t == 1, 1 / eta, 1 / (1 - eta))
    rho_opposite = np.where(t == 1, 1 / (1 - eta), 1 / eta)
    sign = 2.0 * t - 1.0
    mu0, mu1, m = 0.5, 1.5, 1.0
    expected = {
        "mu_risk": np.mean((y - mu) ** 2),
        "mu_risk_iptw": np.mean(rho * (y - mu) ** 2),
        "r_risk": np.mean((tau * (t - eta) - (y - m)) ** 2),
        "tau_naive": np.mean((tau - (mu1 - mu0)) ** 2),
        "tau_1nni": np.mean((tau - sign * (y - nn_imputed_outcome(aux, x, t))) ** 2),
        "tau_iptw": np.mean((tau - sign * rho * y) ** 2),
        "tau_u": np.mean((tau - sign * rho_opposite * (y - m)) ** 2),
        "tau_dr": np.mean((tau - (mu1 - mu0 + sign * rho * (y - np.where(t == 1, mu1, mu0))))
                          ** 2),
    }
    for kind in PROXY_KINDS:
        assert proxy_score(kind, candidate, ds, np.arange(5), aux) == \
            pytest.approx(expected[kind], rel=1e-12), kind


def test_terms_built_once_score_like_proxy_score():
    ds, aux, candidate = hand_table()
    terms = proxy_terms(ds, np.arange(5), aux)
    assert set(terms) == set(PROXY_KINDS)
    for kind in PROXY_KINDS:
        w, a, s = terms[kind]
        pred = candidate["mu" if kind.startswith("mu_") else "tau"]
        assert score_candidate(kind, terms, candidate) == \
            proxy_score(kind, candidate, ds, np.arange(5), aux) == \
            float(np.mean(w * (a * pred - s) ** 2))


def test_terms_take_given_eta_instead_of_predicting():
    ds, aux, candidate = hand_table()
    eta = predict_eta(aux.eta_hat, ds.x)
    given, computed = proxy_terms(ds, np.arange(5), aux, eta), proxy_terms(ds, np.arange(5), aux)
    for kind in PROXY_KINDS:
        assert score_candidate(kind, given, candidate) == score_candidate(kind, computed, candidate)
    # the given eta is used as is: another one moves the propensity-weighted terms
    shifted = proxy_terms(ds, np.arange(5), aux, np.full(5, 0.25))
    assert score_candidate("tau_dr", shifted, candidate) != \
        score_candidate("tau_dr", computed, candidate)


def test_terms_without_auxiliaries_hold_mu_risk_only():
    ds, _, candidate = hand_table()
    terms = proxy_terms(ds, np.arange(5), None)
    assert list(terms) == ["mu_risk"]
    assert score_candidate("mu_risk", terms, candidate) == pytest.approx(0.076, rel=1e-12)
    with pytest.raises(ValueError, match="auxiliaries"):
        score_candidate("tau_dr", terms, candidate)


def test_tau_naive_self_consistency():
    ds, aux, _ = hand_table()
    tau = np.full(5, 1.5 - 0.5)  # the auxiliaries' own difference
    assert proxy_score("tau_naive", {"tau": tau}, ds, np.arange(5), aux) == 0.0


def test_rho_bounded_by_clip():
    ds, aux, _ = hand_table()
    rho = _inverse_propensity(predict_eta(aux.eta_hat, ds.x), ds.t)
    assert np.all(rho <= 1.0 / DEFAULT_CLIP + 1e-9)
    assert np.all(rho >= 1.0)


def test_nn_imputation_instance_space():
    _, aux, _ = hand_table()
    x = np.array([[9.0], [19.0]])
    # treated query -> control donor (10 -> y 5); control query -> treated (20 -> 7)
    out = nn_imputed_outcome(aux, x, np.array([1, 0]))
    assert list(out) == [5.0, 7.0]


def linear_dataset(seed, n=80, d=2, noise=0.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    b = rng.standard_normal(d)
    y = x @ b + noise * rng.standard_normal(n)
    t = rng.integers(0, 2, size=n)
    t[:2] = [0, 1]
    return Dataset(x, t, y, ["continuous"] * d), b


def test_kernel_ridge_fits_noiseless_linear():
    ds, _ = linear_dataset(0)
    aux = fit_auxiliaries(ds, np.arange(ds.n), seed=0, eta_hat=half_eta(2))
    for model, mask in ((aux.mu0_hat, ds.t == 0), (aux.mu1_hat, ds.t == 1),
                        (aux.m_hat, np.ones(ds.n, dtype=bool))):
        mse = float(np.mean((model.predict(ds.x[mask]) - ds.y[mask]) ** 2))
        assert mse < 1e-3


def test_kernel_ridge_constant_target():
    x = np.random.default_rng(1).standard_normal((30, 2))
    model = fit_kernel_ridge_cv(x, np.full(30, 2.5), seed=0)
    assert np.allclose(model.predict(x), 2.5, atol=1e-9)
    assert np.allclose(model.predict(np.zeros((3, 2))), 2.5, atol=1e-6)


@pytest.mark.parametrize("n, d, bandwidth, ridge",
                         [(1, 1, 1.0, 1e-6), (7, 2, 0.5, 1e-3), (120, 5, 2.0, 1e-1),
                          (333, 25, 3.0, 1e-6)])
def test_kernel_ridge_in_place_ridge_keeps_bytes(n, d, bandwidth, ridge):
    rng = np.random.default_rng(n)
    x, y = rng.standard_normal((n, d)), rng.standard_normal(n)
    k = _rbf_kernel(x, x, bandwidth)
    expect = np.linalg.solve(k + ridge * np.eye(n), y - float(np.mean(y)))
    assert _fit_kernel_ridge(x, y, bandwidth, ridge).alpha.tobytes() == expect.tobytes()


def test_ridges_sharing_one_kernel_keep_the_bytes_of_separate_fits():
    # each ridge's solve sees k + ridge * I, never an earlier ridge's diagonal
    rng = np.random.default_rng(4)
    x, y, q = rng.standard_normal((90, 4)), rng.standard_normal(90), rng.standard_normal((30, 4))
    ridges = (1e-6, 1e-3, 1e-1)
    y_mean, alphas = _solve_ridges(x, y, 1.5, ridges)
    k = _rbf_kernel(x, x, 1.5)
    preds = _rbf_predictions(q, x, 1.5, alphas, y_mean)
    for ridge, alpha, pred in zip(ridges, alphas, preds):
        expect = np.linalg.solve(k + ridge * np.eye(90), y - float(np.mean(y)))
        assert alpha.tobytes() == expect.tobytes()
        model = KernelRidge(x, expect, 1.5, ridge, y_mean)
        assert pred.tobytes() == model.predict(q).tobytes()


def test_kernel_ridge_fit_holds_one_kernel_matrix(peak_bytes):
    # building k + ridge * I next to the kernel k would hold a second n x n array
    n = 1500
    rng = np.random.default_rng(5)
    x, y = rng.standard_normal((n, 10)), rng.standard_normal(n)
    peak = peak_bytes(_fit_kernel_ridge, x, y, 1.0, 1e-3)
    assert peak < 1.5 * n * n * 8


def fit_each_grid_point(x, y, seed, factors=(0.5, 1.0, 2.0), ridges=(1e-6, 1e-3, 1e-1)):
    """`fit_kernel_ridge_cv` as one fit and `predict` per (bandwidth, ridge,
    fold), each building its own kernels."""
    rng = np.random.default_rng(seed)
    base = _median_pairwise_distance(x, rng)
    folds = min(5, len(x))
    assignment = rng.permutation(len(x)) % folds
    grid = [(base * f, r) for f in factors for r in ridges]
    scores = []
    for bandwidth, ridge in grid:
        errs = []
        for f in range(folds):
            val = assignment == f
            model = _fit_kernel_ridge(x[~val], y[~val], bandwidth, ridge)
            errs.append(float(np.mean((model.predict(x[val]) - y[val]) ** 2)))
        scores.append(np.mean(errs))
    return _fit_kernel_ridge(x, y, *grid[int(np.argmin(scores))])


@pytest.mark.parametrize("budget", (None, 12_000))  # 12_000: validation rows in 2 blocks
@pytest.mark.parametrize("n, d, ties", [(7, 1, False), (60, 3, True), (500, 25, False)])
def test_kernel_ridge_cv_equals_a_fit_per_grid_point(monkeypatch, n, d, ties, budget):
    if budget is not None:
        monkeypatch.setattr(alrite.twin, "BLOCK_ENTRIES", budget)
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, d))
    if ties:
        x = np.round(x)
    y = np.sin(x.sum(axis=1)) + 0.1 * rng.standard_normal(n)
    got, expect = fit_kernel_ridge_cv(x, y, seed=n), fit_each_grid_point(x, y, seed=n)
    assert (got.bandwidth, got.ridge, got.y_mean) == (expect.bandwidth, expect.ridge,
                                                     expect.y_mean)
    assert got.alpha.tobytes() == expect.alpha.tobytes()
    assert got.x_train.tobytes() == expect.x_train.tobytes()


def test_fit_auxiliaries_deterministic():
    ds, _ = linear_dataset(2, noise=0.3)
    a = fit_auxiliaries(ds, np.arange(ds.n), seed=7, eta_hat=half_eta(2))
    b = fit_auxiliaries(ds, np.arange(ds.n), seed=7, eta_hat=half_eta(2))
    assert np.allclose(a.m_hat.predict(ds.x), b.m_hat.predict(ds.x))
    assert a.m_hat.bandwidth == b.m_hat.bandwidth


def test_average_ranks_with_ties():
    assert list(_average_ranks(np.array([3.0, 1.0, 2.0]))) == [3.0, 1.0, 2.0]
    assert list(_average_ranks(np.array([1.0, 1.0, 2.0]))) == [1.5, 1.5, 3.0]


def test_rank_agreement_perfect_and_inverted():
    u = np.array([0.1, 0.4, 0.2, 0.9, 0.5])
    out = rank_agreement(u, u)
    assert out["spearman"] == pytest.approx(1.0)
    assert out["kendall"] == pytest.approx(1.0)
    inv = rank_agreement(u, -u)
    assert inv["spearman"] == pytest.approx(-1.0)
    assert inv["kendall"] == pytest.approx(-1.0)


def test_rank_agreement_enumeration_oracle():
    u = np.array([0.5, 0.1, 0.9, 0.3, 0.7])
    v = np.array([2.0, 1.0, 2.5, 1.5, 0.5])
    c = 5
    ru = _average_ranks(u)
    rv = _average_ranks(v)
    spearman = np.corrcoef(ru, rv)[0, 1]
    concordant = sum(np.sign(u[i] - u[j]) * np.sign(v[i] - v[j])
                     for i in range(c) for j in range(i + 1, c))
    kendall = concordant / (c * (c - 1) / 2)
    order = np.argsort(u)
    dcg = sum(2.0 ** ((rv[order[j]] - 1) / (c - 1)) / np.log(j + 2) for j in range(c))
    out = rank_agreement(u, v)
    assert out["spearman"] == pytest.approx(spearman)
    assert out["kendall"] == pytest.approx(kendall)
    assert out["dcg"] == pytest.approx(dcg)


def test_rank_agreement_monotone_invariance():
    rng = np.random.default_rng(4)
    u = rng.uniform(0.1, 2.0, size=8)
    v = rng.uniform(0.1, 2.0, size=8)
    base = rank_agreement(u, v)
    for transform in (lambda w: 2 * w + 1, lambda w: w**3):
        same = rank_agreement(u, transform(v))
        assert same == base


def test_rank_agreement_errors():
    with pytest.raises(ValueError):
        rank_agreement([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        rank_agreement([1.0], [1.0])


def test_mu_risk_selection_tracks_pehe():
    # pool of perturbed predictors: factual risk must order like true error
    wins = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n, d = 120, 2
        x = rng.standard_normal((n, d))
        b0, b1 = rng.standard_normal(d), rng.standard_normal(d)
        mu0, mu1 = x @ b0, x @ b1
        t = rng.integers(0, 2, size=n)
        t[:2] = [0, 1]
        y = np.where(t == 1, mu1, mu0) + 0.2 * rng.standard_normal(n)
        ds = Dataset(x, t, y, ["continuous"] * d)
        truth = GroundTruth(mu0, mu1)
        candidates, pehes = [], []
        for k in range(12):
            scale = 0.05 * k
            e0 = scale * rng.standard_normal(d)
            e1 = scale * rng.standard_normal(d)
            mu0_hat, mu1_hat = x @ (b0 + e0), x @ (b1 + e1)
            tau_hat = mu1_hat - mu0_hat
            candidates.append({"tau": tau_hat,
                               "mu": np.where(t == 1, mu1_hat, mu0_hat)})
            pehes.append(float(np.mean((tau_hat - truth.tau) ** 2)))
        winner = int(np.argmin([proxy_score("mu_risk", c, ds, np.arange(n), None)
                                for c in candidates]))
        if pehes[winner] <= np.quantile(pehes, 0.25):
            wins += 1
    assert wins >= 8


@pytest.mark.parametrize("ties", (False, True))
@pytest.mark.parametrize("d", (3, 25, 58))
def test_blocked_kernel_ridge_and_imputation_keep_bytes(blocked, d, ties):
    rng = np.random.default_rng(d)
    x, q = rng.standard_normal((800, d)), rng.standard_normal((620, d))
    if ties:
        x, q = np.round(2.0 * x), np.round(2.0 * q)
    y = rng.standard_normal(800)
    model = fit_kernel_ridge_cv(x[:400], y[:400], seed=0)
    whole, parts = blocked(lambda: model.predict(q[:310]))
    for got in parts:
        assert got.tobytes() == whole.tobytes()
    aux = Auxiliaries(None, None, None, half_eta(d), x, np.arange(800) % 2, y)
    t = rng.permutation(np.arange(620) % 2)
    whole, parts = blocked(lambda: nn_imputed_outcome(aux, q, t))
    for got in parts:
        assert got.tobytes() == whole.tobytes()


def test_kernel_ridge_and_imputation_take_zero_rows():
    _, aux, _ = hand_table()
    model = fit_kernel_ridge_cv(np.arange(6.0)[:, None], np.arange(6.0), seed=0)
    assert model.predict(np.zeros((0, 1))).shape == (0,)
    assert nn_imputed_outcome(aux, np.zeros((0, 1)), np.zeros(0, dtype=int)).shape == (0,)
