"""End-to-end acceptance suite. Each test prints one PASS/FAIL line for its
criterion; the whole file is runnable standalone via pytest."""

import itertools
import json
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from alrite.cli import main as cli_main
from alrite.data import (Dataset, GroundTruth, generate_ihdp_like,
                         generate_two_cluster_toy, split)
from alrite.learner import (AlriteModel, EnsembleModel, alrite_fit, ensemble_predict,
                            eta_sensitivity_check, rank_members,
                            select_ensemble_hyperparam, softmax_weights)
from alrite.metrics import (Lemma4Case, bound_m1, bound_m2, bound_m3,
                            lemma4_sanity, make_linear_instance, pehe)
from alrite.nn import forward
from alrite.pipeline import (Pipeline, PipelineHyperparams, compound_loss,
                             compound_loss_grads, predict_mu, predict_tau,
                             train_pipeline)
from alrite.propensity import (DEFAULT_PROPENSITY_GRID, predict_eta, select_propensity)
from alrite.selection import (_average_ranks, proxy_score, rank_agreement)
from alrite.twin import cross_pipeline_weights, mirror_twins
from alrite.pipeline import build_pipeline


def report(number, passed, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {number}: {detail}"


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_gradient_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for i in range(50):
        n, d = 10, int(rng.integers(2, 4))
        x = rng.standard_normal((n, d))
        t = rng.integers(0, 2, size=n)
        t[0], t[1] = 0, 1
        y = rng.standard_normal(n)
        # cycle through settings that isolate each loss term, plus mixtures
        settings = [(0.0, 0.0, 0.0), (0.8, 0.0, 0.0), (0.0, 0.5, 0.0),
                    (0.0, 0.0, 0.1), (0.7, 0.4, 0.01)]
        alpha, beta, gamma = settings[i % len(settings)]
        hp = PipelineHyperparams(alpha=alpha, beta=beta, gamma=gamma,
                                 embed_layers=1, head_layers=1, embed_width=3,
                                 head_width=3, batch_size=n, epochs=1,
                                 normalize_embedding=bool(i % 2))
        role = "control_driven" if i % 3 else "treatment_driven"
        p = build_pipeline(d, role, hp, rng)
        for net in p.networks():
            for b in net.biases:
                b += 0.1 * rng.standard_normal(b.shape)
        tm = mirror_twins(forward(p.phi, x), t)
        _, _, grad = compound_loss_grads(p, x, t, y, tm, hp)
        h = 1e-6
        for j in range(p.theta.size):
            old = p.theta[j]
            p.theta[j] = old + h
            up, _ = compound_loss(p, x, t, y, tm, hp)
            p.theta[j] = old - h
            down, _ = compound_loss(p, x, t, y, tm, hp)
            p.theta[j] = old
            fd = (up - down) / (2 * h)
            worst = max(worst, abs(fd - grad[j]) / max(abs(fd), abs(grad[j]), 1e-6))
    elapsed = time.perf_counter() - start
    report(1, worst < 1e-4 and elapsed < 30,
           f"max relative gradient error {worst:.2e} over 50 instances, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 2

def exhaustive_twins(z, t):
    dist = np.sqrt(np.sum((z[:, None, :] - z[None, :, :]) ** 2, axis=2))
    n = len(t)
    idx = np.empty(n, dtype=int)
    d_out = np.empty(n)
    for i in range(n):
        opp = np.flatnonzero(t != t[i])
        j = opp[np.argmin(dist[i, opp])]
        idx[i], d_out[i] = j, dist[i, j]
    weight = np.bincount(idx, minlength=n).astype(float)
    return idx, d_out, weight


def test_criterion_2_twin_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    ok = True
    for _ in range(100):
        n = int(rng.integers(4, 1001))
        k = int(rng.integers(1, 4))
        z0 = rng.standard_normal((n, k))
        z1 = rng.standard_normal((n, k))
        t = rng.integers(0, 2, size=n)
        t[0], t[1] = 0, 1
        tm = mirror_twins(z0, t)
        ridx, rdist, rw = exhaustive_twins(z0, t)
        ok &= np.array_equal(tm.twin_index, ridx)
        ok &= np.allclose(tm.twin_distance, rdist)
        ok &= np.array_equal(tm.weight, rw)
        ok &= tm.weight.sum() == n
        w = cross_pipeline_weights(z0, z1, t).weight
        idx0, _, _ = exhaustive_twins(z0, t)
        idx1, _, _ = exhaustive_twins(z1, t)
        # control votes are cast under the control embedding, treated under
        # the treatment embedding; each elected sample tallies its votes
        votes = np.concatenate([idx0[t == 0], idx1[t == 1]])
        ok &= np.array_equal(w, np.bincount(votes, minlength=n))
        ok &= w.sum() == n
    elapsed = time.perf_counter() - start
    report(2, ok and elapsed < 60,
           f"100 exhaustive-oracle instances matched exactly, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_bound_suite():
    start = time.perf_counter()
    min_slack = np.inf
    for seed in range(100):
        ds0, truth0, q0, _, l0 = make_linear_instance(seed, n=80, d=3, noise=0.0)
        ds1, truth1, p0, p1, l1 = make_linear_instance(seed, n=80, d=3, noise=0.3)
        for rep in (bound_m1(q0, ds0, truth0, l0),
                    bound_m2(p0, p1, ds1, truth1, l1),
                    bound_m3(p0, p1, ds1, truth1, l1)):
            min_slack = min(min_slack, rep.slack)
    elapsed = time.perf_counter() - start
    report(3, min_slack >= -1e-9 and elapsed < 300,
           f"minimum slack {min_slack:.3e} over 300 bound evaluations, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_eta_sensitivity():
    worst_gap = -np.inf
    ok = True
    for seed in range(20):
        ds, truth = generate_ihdp_like(seed, n=140, d=4, noise_scale=0.5)
        sp = split(ds, 0.2, 0.3, seed)
        hp = PipelineHyperparams(alpha=0.1, beta=0.1, embed_layers=1, head_layers=1,
                                 batch_size=50, epochs=6)
        model, _ = alrite_fit(ds, sp, hp, hp, seed=seed)
        eta_true = np.full(ds.n, float(np.mean(ds.t)))
        lhs, rhs = eta_sensitivity_check(model, eta_true, ds, truth.tau)
        worst_gap = max(worst_gap, lhs - rhs)
        ok &= lhs <= rhs + 1e-9
    report(4, ok, f"20 fitted models, worst lhs-rhs gap {worst_gap:.3e}")


# ---------------------------------------------------------------- criterion 5

def linear_fleet(seed, count=4):
    ds, truth, p0, p1, _ = make_linear_instance(seed, n=120, d=3, noise=0.2)
    rng = np.random.default_rng(seed + 500)
    members0, members1 = [], []
    for k in range(count):
        q0, q1 = Pipeline.from_dict(p0.to_dict()), Pipeline.from_dict(p1.to_dict())
        for q in (q0, q1):
            for w in q.h0.weights + q.h1.weights:
                w += 0.05 * (k + 1) * rng.standard_normal(w.shape)
        members0.append(q0)
        members1.append(q1)
    return ds, truth, members0, members1


def val_mu_risk(p, ds, idx):
    """Factual MSE of one member over the indices, as `alrite sweep` records it."""
    return float(np.mean((ds.y[idx] - predict_mu(p, ds.x[idx], ds.t[idx])) ** 2))


def test_criterion_5_ensemble_identities():
    from alrite.propensity import train_propensity_lr
    ds, truth, members0, members1 = linear_fleet(2)
    val = np.arange(ds.n)
    eta = train_propensity_lr(ds.x, ds.t, 1.0)
    _, members0, risks0 = rank_members(range(4), members0,
                                       [val_mu_risk(p, ds, val) for p in members0])
    _, members1, risks1 = rank_members(range(4), members1,
                                       [val_mu_risk(p, ds, val) for p in members1])
    top1 = EnsembleModel(members0, members1, eta, "top_k", 1, risks0, risks1)
    single = AlriteModel(members0[0], members1[0], eta)
    from alrite.learner import alrite_predict
    exact = np.array_equal(ensemble_predict(top1, ds.x), alrite_predict(single, ds.x))
    sharp = EnsembleModel(members0, members1, eta, "softmax", 1e6, risks0, risks1)
    near = np.max(np.abs(ensemble_predict(sharp, ds.x)
                         - alrite_predict(single, ds.x))) < 1e-6
    sums_ok = all(abs(softmax_weights(np.asarray(r), lam).sum() - 1.0) < 1e-12
                  for r in (risks0, risks1) for lam in (1e-2, 1.0, 1e6))
    report(5, exact and near and sums_ok,
           "top-1 exact, softmax(1e6) within 1e-6, weights sum to 1 within 1e-12")


# ---------------------------------------------------- criteria 6 and 10 suite

SWEEP_SEARCH = {
    "alpha_grid": (0.0, 0.01, 0.1, 1.0),
    "beta_grid": (0.0, 0.1, 1.0),
    "layer_grid": (1, 2),
    "width_grid": (20, 50),
    "batch_grid": (100,),
    "epochs": 60,
}


def _sample_hp(rng):
    pick = lambda key: rng.choice(np.asarray(SWEEP_SEARCH[key]))
    return PipelineHyperparams(
        alpha=float(pick("alpha_grid")), beta=float(pick("beta_grid")),
        embed_layers=int(pick("layer_grid")), head_layers=int(pick("layer_grid")),
        embed_width=int(pick("width_grid")), head_width=int(pick("width_grid")),
        batch_size=100, epochs=SWEEP_SEARCH["epochs"])


def run_benchmark_instance(seed):
    """One criterion-6 instance: modest sweep vs an OLS-2 T-learner."""
    ds, truth = generate_ihdp_like(seed)
    sp = split(ds, 0.1, 0.3, seed)
    hp_rng = np.random.default_rng(np.random.SeedSequence([seed, 6]))
    members0, members1 = [], []
    for k in range(6):
        p, _ = train_pipeline(ds, sp, "control_driven", _sample_hp(hp_rng),
                              seed=1000 * seed + k)
        members0.append(p)
    for k in range(6):
        p, _ = train_pipeline(ds, sp, "treatment_driven", _sample_hp(hp_rng),
                              seed=1000 * seed + 100 + k)
        members1.append(p)
    eta = select_propensity(ds.x[sp.train], ds.t[sp.train],
                            DEFAULT_PROPENSITY_GRID, folds=5, seed=seed)
    _, members0, risks0 = rank_members(range(6), members0,
                                       [val_mu_risk(p, ds, sp.validation) for p in members0])
    _, members1, risks1 = rank_members(range(6), members1,
                                       [val_mu_risk(p, ds, sp.validation) for p in members1])

    single = EnsembleModel(members0, members1, eta, "top_k", 1, risks0, risks1)
    single_rmse = pehe(ensemble_predict(single, ds.x[sp.test]), truth, sp.test)[1]

    x_val, t_val = ds.x[sp.validation], ds.t[sp.validation]
    chosen, _ = select_ensemble_hyperparam([predict_mu(p, x_val, t_val) for p in members0],
                                           [predict_mu(p, x_val, t_val) for p in members1],
                                           predict_eta(eta, x_val), ds.y[sp.validation],
                                           "top_k", list(range(1, 7)), risks0, risks1)
    ensemble = EnsembleModel(members0, members1, eta, "top_k", chosen, risks0, risks1)
    ens_rmse = pehe(ensemble_predict(ensemble, ds.x[sp.test]), truth, sp.test)[1]

    fit_idx = np.concatenate([sp.train, sp.validation])
    xb = np.hstack([np.ones((ds.n, 1)), ds.x])
    mask0 = ds.t[fit_idx] == 0
    b0 = np.linalg.lstsq(xb[fit_idx][mask0], ds.y[fit_idx][mask0], rcond=None)[0]
    b1 = np.linalg.lstsq(xb[fit_idx][~mask0], ds.y[fit_idx][~mask0], rcond=None)[0]
    baseline_rmse = pehe((xb @ b1 - xb @ b0)[sp.test], truth, sp.test)[1]
    return single_rmse, ens_rmse, baseline_rmse


@pytest.fixture(scope="session")
def benchmark_suite():
    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(run_benchmark_instance, range(20)))
    return np.asarray(results), time.perf_counter() - start


def test_criterion_6_beats_linear_baseline(benchmark_suite):
    results, elapsed = benchmark_suite
    single, _, baseline = results.T
    wins = int(np.sum(single < baseline))
    report(6, wins >= 14 and elapsed < 1800,
           f"selected model beats OLS-2 T-learner on {wins}/20 instances "
           f"(mean sqrt PEHE {single.mean():.2f} vs {baseline.mean():.2f}), "
           f"{elapsed:.0f}s")


def test_criterion_10_ensemble_improves(benchmark_suite):
    results, _ = benchmark_suite
    single, ensemble, _ = results.T
    report(10, ensemble.mean() <= single.mean() + 1e-9,
           f"selected top-K ensemble mean sqrt PEHE {ensemble.mean():.3f} "
           f"vs single model {single.mean():.3f}")


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_proxy_reliability():
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n, d = 150, 3
        x = rng.standard_normal((n, d))
        b0, b1 = rng.standard_normal(d), rng.standard_normal(d)
        t = rng.integers(0, 2, size=n)
        t[0], t[1] = 0, 1
        y = np.where(t == 1, x @ b1, x @ b0) + 0.3 * rng.standard_normal(n)
        ds = Dataset(x, t, y, ["continuous"] * d)
        truth = GroundTruth(x @ b0, x @ b1)
        scores, pehes = [], []
        for k in range(20):
            scale = 0.04 * k
            mu0_hat = x @ (b0 + scale * rng.standard_normal(d))
            mu1_hat = x @ (b1 + scale * rng.standard_normal(d))
            cand = {"tau": mu1_hat - mu0_hat,
                    "mu": np.where(t == 1, mu1_hat, mu0_hat)}
            scores.append(proxy_score("mu_risk", cand, ds, np.arange(n), None))
            pehes.append(pehe(cand["tau"], truth)[0])
        if rank_agreement(pehes, scores)["spearman"] > 0.5:
            hits += 1

    # exact enumeration oracle over every permutation of a 5-element list
    v = np.array([0.3, 0.9, 0.1, 0.7, 0.5])
    rv = _average_ranks(v)
    enumeration_ok = True
    for perm in itertools.permutations(range(1, 6)):
        u = np.asarray(perm, dtype=float)
        out = rank_agreement(u, v)
        spearman = np.corrcoef(_average_ranks(u), rv)[0, 1]
        kendall = sum(np.sign(u[i] - u[j]) * np.sign(v[i] - v[j])
                      for i in range(5) for j in range(i + 1, 5)) / 10.0
        order = np.argsort(u)
        dcg = sum(2.0 ** ((rv[order[j]] - 1) / 4.0) / np.log(j + 2) for j in range(5))
        enumeration_ok &= (abs(out["spearman"] - spearman) < 1e-12
                           and abs(out["kendall"] - kendall) < 1e-12
                           and abs(out["dcg"] - dcg) < 1e-12)
    report(7, hits >= 16 and enumeration_ok,
           f"Spearman(mu-risk, PEHE) > 0.5 on {hits}/20 seeds; "
           f"rank statistics match enumeration on all 120 permutations")


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_twin_distance_shrinks_with_n():
    hits = 0
    for seed in range(20):
        medians = {}
        for n in (200, 2000):
            ds, _ = generate_ihdp_like(seed, n=n, d=6, p_treat=0.4, noise_scale=0.5)
            tm = mirror_twins(ds.x, ds.t)  # fixed identity embedding
            medians[n] = float(np.median(tm.twin_distance))
        hits += medians[2000] < medians[200]
    report(8, hits >= 18,
           f"median twin distance shrinks from n=200 to n=2000 on {hits}/20 seeds")


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_positivity_toy_projection():
    hits = 0
    for seed in range(20):
        ds = generate_two_cluster_toy(seed)
        identity = mirror_twins(ds.x, ds.t).twin_distance.mean()
        projected = mirror_twins(ds.x[:, :1], ds.t).twin_distance.mean()
        hits += projected < identity
    report(9, hits == 20,
           f"x-axis projection beats identity embedding on {hits}/20 seeds")


# --------------------------------------------------------------- criterion 11

def test_criterion_11_lemma4_cases():
    expressible = Lemma4Case(weights=np.array([0.3, 0.2, 0.4, 0.1]),
                             cells=np.array([0, 0, 1, 1]),
                             mu0=np.array([2.0, 2.0, -1.0, -1.0]))
    variance_only = Lemma4Case(weights=np.full(4, 0.25),
                               cells=np.array([0, 0, 1, 1]),
                               mu0=np.array([1.0, 1.0, 3.0, 3.0]))
    counter = Lemma4Case(weights=np.array([0.5, 0.5]),
                         cells=np.array([0, 0]),
                         mu0=np.array([0.0, 1.0]))
    ok = (lemma4_sanity(expressible).status == "pass"
          and lemma4_sanity(variance_only).status == "pass"
          and lemma4_sanity(counter).status == "hypothesis_violation")
    report(11, ok, "expressible cases pass, counter-example flagged as "
                   "hypothesis violation")


# --------------------------------------------------------------- criterion 12

def test_criterion_12_byte_identical_reruns(tmp_path, written):
    config = {
        "seed": 7,
        "dataset": {"kind": "ihdp_like", "n": 150, "d": 5, "noise_scale": 0.5},
        "split": {"test_fraction": 0.2, "val_fraction": 0.3},
        "search": {"l0": 2, "l1": 2, "epochs": 6, "layer_grid": [1],
                   "width_grid": [20], "batch_grid": [50]},
        "bounds": {"instances": 3, "n": 40, "d": 2},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        for command in ("generate", "sweep", "bounds"):
            assert cli_main([command, "--config", str(cfg), "--out", str(out)]) == 0
        # every file these commands write, 4 member models among them
        outputs.append(written(out, "generate", "sweep", "bounds"))
    ok = len(outputs[0]) == 12 and outputs[0] == outputs[1]
    report(12, ok, f"{len(outputs[0])} files of generate, sweep and bounds byte-identical "
                   "across reruns")
