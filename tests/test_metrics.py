"""Metrics and bound evaluators: hand oracles, constructed trivial cases,
the loss-decomposition identity and slack non-negativity."""

import numpy as np
import pytest

from alrite.data import Dataset, GenerationError, GroundTruth
from alrite.metrics import (BoundReport, Lemma4Case, bound_m1, bound_m2,
                            bound_m3, eps_ate, lemma4_sanity,
                            make_linear_instance, pehe, policy_risks,
                            _linear_mlp)
from alrite.pipeline import Pipeline


def test_pehe_trivials():
    truth = GroundTruth(np.zeros(4), np.array([1.0, 2.0, 3.0, 4.0]))
    assert pehe(truth.tau, truth)[0] == 0.0
    mse, root = pehe(truth.tau + 0.5, truth)
    assert np.isclose(mse, 0.25) and np.isclose(root, 0.5)
    truth2 = GroundTruth(np.zeros(2), np.array([1.0, 3.0]))
    assert np.isclose(pehe(np.array([2.0, 2.0]), truth2)[0], 1.0)


def test_pehe_indices_and_empty():
    truth = GroundTruth(np.zeros(3), np.arange(3.0))
    assert pehe(np.array([0.0]), truth, indices=[0])[0] == 0.0
    with pytest.raises(ValueError):
        pehe(np.array([]), truth, indices=[])


def test_eps_ate_trivials():
    truth = GroundTruth(np.zeros(3), np.array([1.0, 2.0, 3.0]))
    assert eps_ate(np.array([3.0, 1.0, 2.0]), truth) == 0.0  # permutation
    assert np.isclose(eps_ate(truth.tau - 0.7, truth), 0.7)
    truth2 = GroundTruth(np.zeros(2), np.array([0.0, 4.0]))
    tau_hat = np.array([4.0, 0.0])
    assert eps_ate(tau_hat, truth2) == 0.0
    assert pehe(tau_hat, truth2)[0] == 16.0


def test_pehe_dominates_squared_ate_error():
    rng = np.random.default_rng(0)
    for _ in range(50):
        truth = GroundTruth(rng.standard_normal(20), rng.standard_normal(20))
        tau_hat = rng.standard_normal(20)
        assert pehe(tau_hat, truth)[0] >= eps_ate(tau_hat, truth) ** 2 - 1e-12


def test_policy_risk_treat_everyone():
    rng = np.random.default_rng(1)
    n = 50
    truth = GroundTruth(rng.standard_normal(n), rng.standard_normal(n))
    ds = Dataset(rng.standard_normal((n, 2)), rng.integers(0, 2, n),
                 rng.standard_normal(n), ["continuous"] * 2)
    out = policy_risks(np.ones(n), ds, truth)
    assert np.isclose(out["rpol"], 1.0 - truth.mu1.mean())
    assert "rpol_control" in out["empty_cells"]


def test_policy_risk_hand_table():
    ds = Dataset(np.zeros((4, 1)), np.array([1, 0, 1, 0]),
                 np.array([1.0, 1.0, 3.0, 5.0]), ["continuous"])
    truth = GroundTruth(np.array([0.0, 1.0, 1.0, 5.0]), np.array([1.0, 2.0, 3.0, 4.0]))
    out = policy_risks(np.array([1.0, -1.0, 1.0, -1.0]), ds, truth)
    # treat {0,2}: Rpol = 1 - .5*mean(mu1[0,2]) - .5*mean(mu0[1,3]) = -1.5
    assert np.isclose(out["rpol"], -1.5)
    assert np.isclose(out["orpol"], -1.5)
    assert out["empty_cells"] == []


def test_policy_risks_coincide_under_uniform_assignment():
    rng = np.random.default_rng(2)
    n = 2000
    mu0 = np.tanh(rng.standard_normal(n))
    mu1 = np.tanh(rng.standard_normal(n))
    t = rng.binomial(1, 0.5, size=n)
    y = np.where(t == 1, mu1, mu0)
    ds = Dataset(rng.standard_normal((n, 2)), t, y, ["continuous"] * 2)
    truth = GroundTruth(mu0, mu1)
    tau_hat = truth.tau + 0.3 * rng.standard_normal(n)
    out = policy_risks(tau_hat, ds, truth)
    assert abs(out["rpol"] - out["orpol"]) < 0.05


def paired_instance(seed, n_pairs=20, d=3):
    """Duplicated covariates across arms: twin distances are exactly zero."""
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((n_pairs, d))
    x = np.vstack([xs, xs])
    t = np.array([0] * n_pairs + [1] * n_pairs)
    b0, b1 = rng.standard_normal(d), rng.standard_normal(d)
    mu0, mu1 = x @ b0, x @ b1
    y = np.where(t == 1, mu1, mu0)
    ds = Dataset(x, t, y, ["continuous"] * d)
    truth = GroundTruth(mu0, mu1)
    lipschitz = float(max(np.linalg.norm(b0), np.linalg.norm(b1)))

    def perfect(role):
        return Pipeline(_linear_mlp(np.eye(d)), _linear_mlp(b0[:, None]),
                        _linear_mlp(b1[:, None]), role)

    return ds, truth, perfect("control_driven"), perfect("treatment_driven"), lipschitz


def test_bound_m1_perfect_model_is_zero():
    ds, truth, p0, _, lip = paired_instance(0)
    rep = bound_m1(p0, ds, truth, lip)
    assert rep.bound == pytest.approx(0.0, abs=1e-12)
    assert rep.pehe == pytest.approx(0.0, abs=1e-12)
    assert rep.certified


def test_bound_m1_factual_term_quadratic_homogeneity():
    ds, truth, p0, p1, lip = make_linear_instance(1, n=60, d=2, noise=0.0,
                                                  head_perturbation=0.1)
    rep1 = bound_m1(p0, ds, truth, lip)
    # doubling the heads' error doubles every residual: the same instance
    # regenerated with twice the head perturbation scales the term by 4
    _, _, p_doubled, _, _ = make_linear_instance(1, n=60, d=2, noise=0.0,
                                                 head_perturbation=0.2)
    rep2 = bound_m1(p_doubled, ds, truth, lip)
    assert np.isclose(rep2.terms["weighted_factual"],
                      4.0 * rep1.terms["weighted_factual"])


def test_bound_m1_requires_truth_and_unscaled():
    ds, truth, p0, _, lip = make_linear_instance(2, noise=0.0)
    with pytest.raises(ValueError):
        bound_m1(p0, ds, None, lip)
    rep = bound_m1(p0, ds, truth, None)
    assert not rep.certified  # report-only without the true Lipschitz constant


def test_bound_m1_slack_nonnegative_noiseless():
    for seed in range(30):
        ds, truth, p0, _, lip = make_linear_instance(seed, n=80, d=3, noise=0.0)
        rep = bound_m1(p0, ds, truth, lip)
        assert rep.slack >= -1e-9


def test_bound_m2_perfect_model_zero_and_kappa():
    ds, truth, p0, p1, lip = paired_instance(3)
    rep = bound_m2(p0, p1, ds, truth, lip)
    assert rep.bound == pytest.approx(0.0, abs=1e-12)
    assert rep.pehe == pytest.approx(0.0, abs=1e-12)
    assert rep.terms["kappa_y"] == 0.0  # noiseless outcomes


def test_bound_m2_slack_nonnegative_with_noise():
    for seed in range(50):
        ds, truth, p0, p1, lip = make_linear_instance(seed, n=80, d=3, noise=0.3)
        rep = bound_m2(p0, p1, ds, truth, lip)
        assert rep.slack >= -1e-9


def test_bound_m3_equals_bound_m2():
    # the loss-decomposition assembly telescopes back to the direct one
    for seed in range(20):
        ds, truth, p0, p1, lip = make_linear_instance(seed, n=60, d=3, noise=0.2)
        m2 = bound_m2(p0, p1, ds, truth, lip)
        m3 = bound_m3(p0, p1, ds, truth, lip, gamma0=0.01, gamma1=0.02)
        assert abs(m3.bound - m2.bound) < 1e-9
        assert abs(m3.pehe - m2.pehe) < 1e-12


def test_bound_m3_zero_on_perfect_instance():
    ds, truth, p0, p1, lip = paired_instance(4)
    rep = bound_m3(p0, p1, ds, truth, lip)
    assert rep.bound == pytest.approx(0.0, abs=1e-12)


def test_bound_m3_slack_nonnegative():
    for seed in range(50):
        ds, truth, p0, p1, lip = make_linear_instance(seed, n=80, d=3, noise=0.3)
        rep = bound_m3(p0, p1, ds, truth, lip)
        assert rep.slack >= -1e-9


def test_make_linear_instance_lipschitz_claim():
    ds, truth, p0, p1, lip = make_linear_instance(5, n=50, d=4, noise=0.1)
    # recover the generating linear maps and confirm L bounds their norms
    beta0 = np.linalg.lstsq(ds.x, truth.mu0, rcond=None)[0]
    beta1 = np.linalg.lstsq(ds.x, truth.mu1, rcond=None)[0]
    assert max(np.linalg.norm(beta0), np.linalg.norm(beta1)) <= lip + 1e-9


def test_make_linear_instance_draws_the_arms_at_most_ten_times():
    with pytest.raises(GenerationError):  # one row never holds both arms
        make_linear_instance(0, n=1)
    with pytest.raises(GenerationError):  # at n=2, d=2 this seed needs an 11th draw
        make_linear_instance(8754, n=2)
    # within ten draws, t is the one an unbounded redraw loop gives
    for seed in range(50):
        rng = np.random.default_rng(seed)
        rng.standard_normal((2, 2))
        t = rng.binomial(1, 0.5, size=2)
        while t.sum() in (0, 2):
            t = rng.binomial(1, 0.5, size=2)
        assert np.array_equal(make_linear_instance(seed, n=2)[0].t, t)


def test_lemma4_constant_per_cell_passes():
    case = Lemma4Case(weights=np.array([0.3, 0.2, 0.4, 0.1]),
                      cells=np.array([0, 0, 1, 1]),
                      mu0=np.array([2.0, 2.0, -1.0, -1.0]))
    result = lemma4_sanity(case)
    assert result.status == "pass"
    assert np.allclose(result.minimizer, case.mu0)


def test_lemma4_variance_dependence_still_passes():
    # the collapsed coordinate may drive the noise variance; only the mean
    # must be expressible through the cells
    case = Lemma4Case(weights=np.array([0.25, 0.25, 0.25, 0.25]),
                      cells=np.array([0, 0, 1, 1]),
                      mu0=np.array([1.0, 1.0, 3.0, 3.0]))
    assert lemma4_sanity(case).status == "pass"


def test_lemma4_non_expressible_reported_as_hypothesis_violation():
    case = Lemma4Case(weights=np.array([0.5, 0.5]),
                      cells=np.array([0, 0]),
                      mu0=np.array([0.0, 1.0]))
    result = lemma4_sanity(case)
    assert result.status == "hypothesis_violation"
    # the exhaustive minimizer is the weighted cell mean
    assert np.allclose(result.minimizer, 0.5)


def test_lemma4_weighted_mean_oracle():
    # exhaustive scalar check: weighted mean minimizes the weighted risk
    case = Lemma4Case(weights=np.array([0.7, 0.3]),
                      cells=np.array([0, 0]),
                      mu0=np.array([0.0, 1.0]))
    result = lemma4_sanity(case)
    grid = np.linspace(-1, 2, 3001)
    risks = [np.sum(case.weights * (case.mu0 - v) ** 2) for v in grid]
    assert abs(result.minimizer[0] - grid[int(np.argmin(risks))]) < 1e-3
