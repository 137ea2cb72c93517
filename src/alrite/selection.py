"""Model selection without ground-truth effects: auxiliary nuisance models
(kernel ridge regressors and a propensity model), the eight proxy risk
metrics computable from factual data, and rank-agreement statistics that
measure how well a proxy orders candidates relative to their true error.

Every proxy scores a candidate's predictions `pred` as mean(w * (a * pred -
s) ** 2), where the weight w, coefficient a and surrogate s are fixed by the
validation set and the auxiliaries: built once by `proxy_terms`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .propensity import PropensityModel, predict_eta
from .twin import pairwise_sq_dists, row_blocks

PROXY_KINDS = ("mu_risk", "mu_risk_iptw", "r_risk", "tau_naive",
               "tau_1nni", "tau_iptw", "tau_u", "tau_dr")


@dataclass
class KernelRidge:
    """RBF kernel ridge regression with a mean-centered target."""

    x_train: np.ndarray
    alpha: np.ndarray
    bandwidth: float
    ridge: float
    y_mean: float

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predictions at each row of the (n, d) batch x."""
        return _rbf_predictions(x, self.x_train, self.bandwidth, [self.alpha], self.y_mean)[0]


def _rbf_predictions(x: np.ndarray, x_train: np.ndarray, bandwidth: float, alphas,
                     y_mean: float) -> list[np.ndarray]:
    """y_mean + k(x, x_train) @ alpha for each alpha, the kernel of each row
    block built once for all of them."""
    outs = [np.empty(len(x)) for _ in alphas]
    ref_sq = np.sum(x_train * x_train, axis=1)
    for rows in row_blocks(len(x), len(x_train)):
        kb = _rbf_kernel(x[rows], x_train, bandwidth, ref_sq)
        for out, alpha in zip(outs, alphas):
            out[rows] = y_mean + kb @ alpha
    return outs


def _rbf_kernel(a: np.ndarray, b: np.ndarray, bandwidth: float,
                b_sq: np.ndarray | None = None) -> np.ndarray:
    k = pairwise_sq_dists(a, b, b_sq)
    np.maximum(k, 0.0, out=k)
    np.negative(k, out=k)
    k /= 2.0 * bandwidth**2
    return np.exp(k, out=k)


def _solve_ridges(x: np.ndarray, y: np.ndarray, bandwidth: float,
                  ridges) -> tuple[float, list[np.ndarray]]:
    """y's mean and, per ridge, the alpha solving (k + ridge * I) alpha = y -
    mean, with one kernel k for every ridge: the ridge is added to its
    diagonal in place, the same bits as k + ridge * I, and the saved diagonal
    put back after the solve, so no second n x n array is held."""
    y_mean = float(np.mean(y))
    k = _rbf_kernel(x, x, bandwidth)
    diagonal = k.diagonal().copy()
    centred = y - y_mean
    alphas = []
    for ridge in ridges:
        k.flat[:: len(x) + 1] += ridge
        alphas.append(np.linalg.solve(k, centred))
        k.flat[:: len(x) + 1] = diagonal
    return y_mean, alphas


def _fit_kernel_ridge(x: np.ndarray, y: np.ndarray, bandwidth: float,
                      ridge: float) -> KernelRidge:
    y_mean, (alpha,) = _solve_ridges(x, y, bandwidth, (ridge,))
    return KernelRidge(x.copy(), alpha, bandwidth, ridge, y_mean)


def _median_pairwise_distance(x: np.ndarray, rng: np.random.Generator) -> float:
    # subsample for large n; the bandwidth heuristic needs no precision
    if len(x) > 500:
        x = x[rng.choice(len(x), 500, replace=False)]
    sq = pairwise_sq_dists(x, x)
    np.maximum(sq, 0.0, out=sq)
    d = np.sqrt(sq[np.triu_indices(len(x), k=1)])
    med = float(np.median(d)) if d.size else 1.0
    return med if med > 0 else 1.0


# the kernel-ridge CV's folds and grid: bandwidths as multiples of the
# median pairwise distance, and ridge strengths
KR_FOLDS = 5
KR_BANDWIDTH_FACTORS = (0.5, 1.0, 2.0)
KR_RIDGES = (1e-6, 1e-3, 1e-1)


def fit_kernel_ridge_cv(x: np.ndarray, y: np.ndarray, seed: int) -> KernelRidge:
    """KR_FOLDS-fold CV over the KR_BANDWIDTH_FACTORS x KR_RIDGES grid; ties
    keep the first grid point; the winner refits on all data.
    Each (fold, bandwidth) builds its training kernel once for every ridge,
    and each validation row block's kernel once for every ridge's
    prediction."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 2:
        raise ValueError("need at least two samples")
    rng = np.random.default_rng(seed)
    base = _median_pairwise_distance(x, rng)
    folds = min(KR_FOLDS, len(x))
    assignment = rng.permutation(len(x)) % folds
    grid = [(base * f, r) for f in KR_BANDWIDTH_FACTORS for r in KR_RIDGES]
    errs = [[] for _ in grid]  # per grid point, each fold's validation MSE
    for b, factor in enumerate(KR_BANDWIDTH_FACTORS):
        for f in range(folds):
            val = assignment == f
            if val.all() or not val.any():
                continue
            x_fit, bandwidth = x[~val], base * factor
            y_mean, alphas = _solve_ridges(x_fit, y[~val], bandwidth, KR_RIDGES)
            preds = _rbf_predictions(x[val], x_fit, bandwidth, alphas, y_mean)
            for r, pred in enumerate(preds):
                errs[b * len(KR_RIDGES) + r].append(float(np.mean((pred - y[val]) ** 2)))
    scores = [np.mean(e) if e else np.inf for e in errs]
    bandwidth, ridge = grid[int(np.argmin(scores))]
    return _fit_kernel_ridge(x, y, bandwidth, ridge)


@dataclass
class Auxiliaries:
    """Nuisance estimates backing the proxy metrics, all fitted on training
    samples only. Donor arrays feed the opposite-arm nearest-neighbor
    imputation, which works in instance space."""

    mu0_hat: KernelRidge
    mu1_hat: KernelRidge
    m_hat: KernelRidge
    eta_hat: PropensityModel
    donors_x: np.ndarray
    donors_t: np.ndarray
    donors_y: np.ndarray


def _inverse_propensity(eta: np.ndarray, t) -> np.ndarray:
    return np.where(np.asarray(t, dtype=int) == 1, 1.0 / eta, 1.0 / (1.0 - eta))


def auxiliary_jobs(dataset: Dataset, train_indices, seed: int) -> list[tuple]:
    """The (x, y, seed) that `fit_kernel_ridge_cv` takes for each kernel
    ridge nuisance, largest first: m_hat on every training row, then mu0_hat
    and mu1_hat on each arm's rows."""
    idx = np.asarray(train_indices, dtype=int)
    x, t, y = dataset.x[idx], dataset.t[idx], dataset.y[idx]
    if t.sum() in (0, len(t)):
        raise ValueError("both arms required on the training indices")
    s0, s1, sm = np.random.SeedSequence(seed).generate_state(3)
    return [(x, y, int(sm)), (x[t == 0], y[t == 0], int(s0)), (x[t == 1], y[t == 1], int(s1))]


def assemble_auxiliaries(dataset: Dataset, train_indices, eta_hat: PropensityModel,
                         fits) -> Auxiliaries:
    """Auxiliaries from `fits`, the `fit_kernel_ridge_cv` results of
    `auxiliary_jobs` in its order; the donors are the training rows."""
    m, mu0, mu1 = fits
    idx = np.asarray(train_indices, dtype=int)
    return Auxiliaries(mu0, mu1, m, eta_hat, dataset.x[idx], dataset.t[idx], dataset.y[idx])


def fit_auxiliaries(dataset: Dataset, train_indices, seed: int,
                    eta_hat: PropensityModel) -> Auxiliaries:
    """Kernel ridge nuisances fitted on the training indices; `eta_hat` is the
    propensity model already selected on the same rows."""
    fits = [fit_kernel_ridge_cv(*job) for job in auxiliary_jobs(dataset, train_indices, seed)]
    return assemble_auxiliaries(dataset, train_indices, eta_hat, fits)


def nn_imputed_outcome(aux: Auxiliaries, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Outcome of the nearest opposite-arm donor in instance space (ties
    break on the smallest donor index)."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=int)
    out = np.empty(len(x))
    for arm in (0, 1):
        mask = t == arm
        if not mask.any():
            continue
        donors = np.flatnonzero(aux.donors_t == 1 - arm)
        if donors.size == 0:
            raise ValueError("no opposite-arm donors available")
        query, ref = np.flatnonzero(mask), aux.donors_x[donors]
        ref_sq = np.sum(ref * ref, axis=1)
        for rows in row_blocks(len(query), len(ref)):
            nearest = np.argmin(pairwise_sq_dists(x[query[rows]], ref, ref_sq), axis=1)
            out[query[rows]] = aux.donors_y[donors[nearest]]
    return out


def proxy_terms(dataset: Dataset, val_indices, aux: Auxiliaries | None,
                eta: np.ndarray | None = None) -> dict:
    """Per proxy kind, the (w, a, s) of mean(w * (a * pred - s) ** 2) on one
    validation set, each nuisance predicted once per row. `eta` is the
    clipped `aux.eta_hat` on those rows, predicted here when not given.
    Without auxiliaries only mu_risk is available."""
    idx = np.asarray(val_indices, dtype=int)
    if idx.size == 0:
        raise ValueError("empty validation set")
    x, t, y = dataset.x[idx], dataset.t[idx], dataset.y[idx]
    terms = {"mu_risk": (1.0, 1.0, y)}
    if aux is None:
        return terms
    if eta is None:
        eta = predict_eta(aux.eta_hat, x)
    rho, rho_opposite = _inverse_propensity(eta, t), _inverse_propensity(eta, 1 - t)
    mu0, mu1, m = aux.mu0_hat.predict(x), aux.mu1_hat.predict(x), aux.m_hat.predict(x)
    sign = 2.0 * t - 1.0
    terms.update({
        "mu_risk_iptw": (rho, 1.0, y),
        "r_risk": (1.0, t - eta, y - m),
        "tau_naive": (1.0, 1.0, mu1 - mu0),
        "tau_1nni": (1.0, 1.0, sign * (y - nn_imputed_outcome(aux, x, t))),
        "tau_iptw": (1.0, 1.0, sign * rho * y),
        "tau_u": (1.0, 1.0, sign * rho_opposite * (y - m)),
        "tau_dr": (1.0, 1.0, mu1 - mu0 + sign * rho * (y - np.where(t == 1, mu1, mu0))),
    })
    return terms


def score_candidate(kind: str, terms: dict, candidate: dict) -> float:
    """One proxy risk of one candidate from its validation set's
    `proxy_terms`: mu_* kinds read the candidate's "mu", the others "tau"."""
    if kind not in PROXY_KINDS:
        raise ValueError(f"unknown proxy kind {kind!r}")
    if kind not in terms:
        raise ValueError(f"proxy kind {kind!r} requires auxiliaries")
    key = "mu" if kind.startswith("mu_") else "tau"
    if candidate.get(key) is None:
        raise ValueError(f"proxy kind {kind!r} requires candidate {key!r} predictions")
    w, a, s = terms[kind]
    return float(np.mean(w * (a * np.asarray(candidate[key], dtype=float) - s) ** 2))


def proxy_score(kind: str, candidate: dict, dataset: Dataset, val_indices,
                aux: Auxiliaries | None) -> float:
    """Mean of the proxy risk mean(w * (a * pred - s) ** 2) over the
    validation indices; w, a and s are fixed per validation set. `candidate`
    carries predictions aligned with `val_indices`: "tau" for effect
    estimates, "mu" for its own factual predictions. `aux` may be None for
    mu_risk."""
    return score_candidate(kind, proxy_terms(dataset, val_indices, aux), candidate)


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the average of their positions."""
    v = np.asarray(v, dtype=float)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(len(v))
    i = 0
    while i < len(v):
        j = i
        while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def rank_agreement(u, v) -> dict:
    """Agreement between a true-error list u and a proxy list v: Spearman
    correlation (Pearson on average ranks), Kendall tau-a (tied pairs count
    in the denominator only), and a discounted cumulative gain over all
    models ordered by increasing u, with exponent the normalized proxy
    rank."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if len(u) != len(v):
        raise ValueError("length mismatch")
    c = len(u)
    if c < 2:
        raise ValueError("need at least two candidates")
    ru, rv = _average_ranks(u), _average_ranks(v)
    du, dv = ru - ru.mean(), rv - rv.mean()
    denom = np.sqrt(np.sum(du**2) * np.sum(dv**2))
    spearman = float(np.sum(du * dv) / denom) if denom > 0 else 0.0

    concordant = 0
    for i in range(c):
        su = np.sign(u[i] - u[i + 1 :])
        sv = np.sign(v[i] - v[i + 1 :])
        concordant += int(np.sum(su * sv))
    kendall = concordant / (c * (c - 1) / 2)

    norm_rank = (rv - 1.0) / (c - 1.0)
    by_pehe = np.argsort(u, kind="stable")
    dcg = float(sum(2.0 ** norm_rank[k] / np.log(j + 2) for j, k in enumerate(by_pehe)))
    return {"spearman": spearman, "kendall": kendall, "dcg": dcg}
