"""Evaluation metrics (PEHE, ATE error, policy risks) and computable
evaluators for the three PEHE upper bounds, plus the discrete factual-risk
minimizer sanity check.

Bound evaluators work on unscaled pipelines (raw outcome units). They only
certify when the true-model Lipschitz constant is supplied, which is the
case for constructed synthetic instances; otherwise they run report-only.
Each takes the twin map it reads as `twinmap`, or searches it when that is
None, so bounds that read one map can share one search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, GroundTruth, _retry_arms
from .nn import Mlp, forward, lipschitz_upper_bound
from .pipeline import Pipeline, PipelineHyperparams, compound_loss
from .twin import TwinMap, cross_pipeline_weights, mirror_twins


def pehe(tau_hat: np.ndarray, truth: GroundTruth, indices=None) -> tuple[float, float]:
    """Mean squared error between estimated and true effects, and its root."""
    tau_hat = np.asarray(tau_hat, dtype=float)
    tau = truth.tau if indices is None else truth.tau[np.asarray(indices, dtype=int)]
    if len(tau) == 0:
        raise ValueError("empty index set")
    mse = float(np.mean((tau - tau_hat) ** 2))
    return mse, float(np.sqrt(mse))


def eps_ate(tau_hat: np.ndarray, truth: GroundTruth, indices=None) -> float:
    tau_hat = np.asarray(tau_hat, dtype=float)
    tau = truth.tau if indices is None else truth.tau[np.asarray(indices, dtype=int)]
    if len(tau) == 0:
        raise ValueError("empty index set")
    return float(abs(np.mean(tau_hat) - np.mean(tau)))


def policy_risks(tau_hat: np.ndarray, dataset: Dataset,
                 truth: GroundTruth | None = None) -> dict:
    """Policy risk (needs ground truth) and observational policy risk.
    Empty policy cells contribute 0 and are flagged."""
    tau_hat = np.asarray(tau_hat, dtype=float)
    treat = tau_hat > 0
    p_treat = float(np.mean(treat))
    flags = []

    def cell(values, mask, name):
        if mask.sum() == 0:
            flags.append(name)
            return 0.0
        return float(np.mean(values[mask]))

    rpol = None
    if truth is not None:
        rpol = 1.0 - p_treat * cell(truth.mu1, treat, "rpol_treat") \
            - (1 - p_treat) * cell(truth.mu0, ~treat, "rpol_control")
    obs_treat = treat & (dataset.t == 1)
    obs_control = ~treat & (dataset.t == 0)
    orpol = 1.0 - p_treat * cell(dataset.y, obs_treat, "orpol_treat") \
        - (1 - p_treat) * cell(dataset.y, obs_control, "orpol_control")
    return {"rpol": rpol, "orpol": orpol, "empty_cells": flags}


@dataclass
class BoundReport:
    bound: float
    pehe: float
    terms: dict
    certified: bool

    @property
    def slack(self) -> float:
        return self.bound - self.pehe


def _bound_preamble(truth: GroundTruth | None, L: float | None, *pipelines: Pipeline) -> float:
    """The true Lipschitz constant a bound uses: L, or 0 when L is unknown
    (the bound is then report-only). Refuses a missing truth and a pipeline
    not in raw data units."""
    if truth is None:
        raise ValueError("ground truth required")
    for p in pipelines:
        if (p.scaler.y_scale != 1.0 or p.scaler.y_mean != 0.0
                or np.any(p.scaler.x_scale != 1.0) or np.any(p.scaler.x_mean != 0.0)):
            raise ValueError("bound evaluators require pipelines in raw data units")
    return 0.0 if L is None else L


def _head_bound(*heads) -> float:
    return max(lipschitz_upper_bound(h) for h in heads)


def bound_m1(p: Pipeline, dataset: Dataset, truth: GroundTruth | None,
             L: float | None, twinmap: TwinMap | None = None) -> BoundReport:
    """Single-embedding bound: weighted factual errors plus Lipschitz-scaled
    twin distances (latent-space distances, matching the derivation). Reads
    both arms' twins under p's embedding: `twinmap`, or
    `mirror_twins(forward(p.phi, x), t)` when None."""
    l_true = _bound_preamble(truth, L, p)
    x, t, y = dataset.x, dataset.t, dataset.y
    n = dataset.n
    z = forward(p.phi, x)
    tm = mirror_twins(z, t) if twinmap is None else twinmap
    mu0, mu1 = forward(p.h0, z)[:, 0], forward(p.h1, z)[:, 0]
    pred = np.where(t == 1, mu1, mu0)
    factual = float(np.sum((1.0 + tm.weight) * (pred - y) ** 2))
    dist_sq = float(np.sum(tm.twin_distance**2))
    l_hat = _head_bound(p.h0, p.h1)
    bound = 4.0 / n * (factual + (l_true**2 + l_hat**2) * dist_sq)
    return BoundReport(bound, pehe(mu1 - mu0, truth)[0],
                       {"weighted_factual": factual, "twin_dist_sq": dist_sq,
                        "l_true": l_true, "l_hat": l_hat}, L is not None)


def _cross_quantities(p0: Pipeline, p1: Pipeline, dataset: Dataset,
                      twinmap: TwinMap | None):
    """Latents, the cross-pipeline twin map (each arm searched under its own
    pipeline's embedding; `twinmap` unless None) and the cross heads'
    predictions and plug-in effect surrogate shared by the two-pipeline
    bounds."""
    x, t, y = dataset.x, dataset.t, dataset.y
    z0 = forward(p0.phi, x)
    z1 = forward(p1.phi, x)
    tm = cross_pipeline_weights(z0, z1, t) if twinmap is None else twinmap
    cross0 = forward(p0.h1, z0)[:, 0]  # treated head of the control pipeline
    cross1 = forward(p1.h0, z1)[:, 0]  # control head of the treatment pipeline
    tau_bar = np.where(t == 0, cross0 - y, y - cross1)
    return z0, z1, tm, cross0, cross1, tau_bar


def _kappa_y(w: np.ndarray, dataset: Dataset, truth: GroundTruth) -> float:
    mu_fact = np.where(dataset.t == 1, truth.mu1, truth.mu0)
    return float(np.sum((1.0 + w) * (dataset.y - mu_fact) ** 2))


def bound_m2(p0: Pipeline, p1: Pipeline, dataset: Dataset,
             truth: GroundTruth | None, L: float | None,
             twinmap: TwinMap | None = None) -> BoundReport:
    """Two-pipeline bound on the plug-in within-sample PEHE built from the
    cross heads and observed factual outcomes. Reads the cross-pipeline map:
    `twinmap`, or `cross_pipeline_weights` of both latents when None."""
    l_true = _bound_preamble(truth, L, p0, p1)
    t, y = dataset.t, dataset.y
    n = dataset.n
    _, _, tm, cross0, cross1, tau_bar = _cross_quantities(p0, p1, dataset, twinmap)
    w = tm.weight
    factual = float(np.sum(w[t == 1] * (cross0[t == 1] - y[t == 1]) ** 2)
                    + np.sum(w[t == 0] * (cross1[t == 0] - y[t == 0]) ** 2))
    dist_sq = float(np.sum(tm.twin_distance**2))
    kappa = _kappa_y(w, dataset, truth)
    l_hat = _head_bound(p0.h1, p1.h0)
    bound = 5.0 / n * (factual + (l_true**2 + l_hat**2) * dist_sq + kappa)
    return BoundReport(bound, float(np.mean((tau_bar - truth.tau) ** 2)),
                       {"weighted_cross_factual": factual, "twin_dist_sq": dist_sq,
                        "kappa_y": kappa, "l_true": l_true, "l_hat": l_hat}, L is not None)


def bound_m3(p0: Pipeline, p1: Pipeline, dataset: Dataset,
             truth: GroundTruth | None, L: float | None,
             gamma0: float = 0.0, gamma1: float = 0.0,
             twinmap: TwinMap | None = None) -> BoundReport:
    """Loss-decomposition bound: both compound losses evaluated at the
    canonical hyper-parameter setting (alpha arm-balanced at L^2 + Lhat^2,
    beta = 1), corrected by the regularizers and the factual sums. Reads the
    cross-pipeline map, as `bound_m2` does."""
    l_true = _bound_preamble(truth, L, p0, p1)
    x, t, y = dataset.x, dataset.t, dataset.y
    n, n1 = dataset.n, dataset.n1
    n0 = n - n1
    p_frac = n1 / n
    z0, z1, tm, cross0, cross1, tau_bar = _cross_quantities(p0, p1, dataset, twinmap)
    l_hat = _head_bound(p0.h1, p1.h0)
    lam = l_true**2 + l_hat**2
    hp0 = PipelineHyperparams(alpha=(1 - p_frac) * lam, beta=1.0, gamma=gamma0)
    hp1 = PipelineHyperparams(alpha=p_frac * lam, beta=1.0, gamma=gamma1)
    # p0 reads control rows' twins and treated rows' votes, p1 the mirror:
    # both are in the one cross map
    loss0, _ = compound_loss(p0, x, t, y, tm, hp0)
    loss1, _ = compound_loss(p1, x, t, y, tm, hp1)
    own0 = forward(p0.h0, z0)[:, 0]
    own1 = forward(p1.h1, z1)[:, 0]
    own_sum = float(np.sum((own0[t == 0] - y[t == 0]) ** 2)) / n0 \
        + float(np.sum((own1[t == 1] - y[t == 1]) ** 2)) / n1
    cross_sum = (float(np.sum((cross1[t == 0] - y[t == 0]) ** 2))
                 + float(np.sum((cross0[t == 1] - y[t == 1]) ** 2))) / n
    kappa = _kappa_y(tm.weight, dataset, truth) / n
    reg = gamma0 * float(p0.theta @ p0.theta) + gamma1 * float(p1.theta @ p1.theta)
    bound = 5.0 * (loss0 + loss1 - reg + kappa - own_sum - cross_sum)
    return BoundReport(bound, float(np.mean((tau_bar - truth.tau) ** 2)),
                       {"loss0": loss0, "loss1": loss1, "regularizers": reg,
                        "kappa_y_per_n": kappa, "own_factual": own_sum,
                        "cross_factual": cross_sum, "l_true": l_true, "l_hat": l_hat},
                       L is not None)


def _linear_mlp(weight: np.ndarray) -> Mlp:
    w = np.atleast_2d(np.asarray(weight, dtype=float).T).T
    return Mlp([w.shape[0], w.shape[1]], [w], [np.zeros(w.shape[1])], "identity")


def make_linear_instance(seed: int, n: int = 100, d: int = 2,
                         noise: float = 0.1, head_perturbation: float = 0.2):
    """Synthetic instance satisfying the bound hypotheses by construction:
    identity embeddings, linear true surfaces with known Lipschitz constant,
    and linear heads perturbed away from the truth.

    Returns (dataset, truth, p0, p1, L). Use noise = 0 for the
    single-pipeline bound, which holds surely only for noiseless outcomes.
    Raises GenerationError when MAX_RETRIES draws of the treatment leave an
    arm empty, as every draw does at n = 1.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    t = _retry_arms(lambda: rng.binomial(1, 0.5, size=n))
    b0 = rng.standard_normal(d)
    b1 = rng.standard_normal(d)
    mu0, mu1 = x @ b0, x @ b1
    y = np.where(t == 1, mu1, mu0) + noise * rng.standard_normal(n)
    dataset = Dataset(x, t, y, ["continuous"] * d)
    truth = GroundTruth(mu0, mu1)
    lipschitz = float(max(np.linalg.norm(b0), np.linalg.norm(b1)))

    def pipeline(role):
        h0 = _linear_mlp((b0 + head_perturbation * rng.standard_normal(d))[:, None])
        h1 = _linear_mlp((b1 + head_perturbation * rng.standard_normal(d))[:, None])
        return Pipeline(_linear_mlp(np.eye(d)), h0, h1, role)

    return dataset, truth, pipeline("control_driven"), pipeline("treatment_driven"), lipschitz


@dataclass
class Lemma4Case:
    """Finite discrete toy: per-point probability mass of the control
    population, a many-to-one cell assignment (the embedding) and the true
    control response per point."""

    weights: np.ndarray  # P(X = x | T = 0) per point
    cells: np.ndarray  # latent cell index per point
    mu0: np.ndarray  # true control response per point


@dataclass
class Lemma4Result:
    status: str  # pass | fail | hypothesis_violation
    minimizer: np.ndarray  # optimal tabular predictor, per point


CELL_SPREAD_ATOL = 1e-12  # the largest spread of mu0 in a cell that counts as constant


def lemma4_sanity(case: Lemma4Case) -> Lemma4Result:
    """Exhaustively minimize the control factual risk over tabular candidates
    on the latent cells; the minimizer is the cell-wise weighted mean. When
    the true response is expressible through the cells, it must coincide
    with the minimizer everywhere."""
    weights = np.asarray(case.weights, dtype=float)
    cells = np.asarray(case.cells, dtype=int)
    mu0 = np.asarray(case.mu0, dtype=float)
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError("weights must be a non-degenerate mass function")
    minimizer = np.empty_like(mu0)
    expressible = True
    for c in np.unique(cells):
        mask = cells == c
        wsum = weights[mask].sum()
        value = float(np.sum(weights[mask] * mu0[mask]) / wsum) if wsum > 0 \
            else float(np.mean(mu0[mask]))
        minimizer[mask] = value
        if np.ptp(mu0[mask]) > CELL_SPREAD_ATOL:
            expressible = False
    if not expressible:
        return Lemma4Result("hypothesis_violation", minimizer)
    status = "pass" if np.allclose(minimizer, mu0, atol=1e-9) else "fail"
    return Lemma4Result(status, minimizer)
