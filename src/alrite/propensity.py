"""Propensity score models: logistic regression trained on a class-balanced
cross-entropy, a k-nearest-neighbor classifier and a CART-style decision
tree, plus grid-search cross-validation and calibration diagnostics.

Predictions are always clipped into [clip, 1 - clip]; default clip 0.01,
bounding inverse-propensity weights by 100.

Tie rules, both exact:
- kNN: the k nearest references are picked by partition; a row whose k-th
  distance is shared by a reference outside the k falls back to a stable
  sort, so equidistant neighbours are taken in index order.
- Tree: splits are scanned feature by feature, left to right, and a split
  replaces the best so far only if its Gini gain is larger by more than
  1e-15, so the first of near-equal splits wins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import AdamState, adam_step
from .twin import pairwise_sq_dists

DEFAULT_CLIP = 0.01


def _sigmoid(u: np.ndarray) -> np.ndarray:
    out = np.empty_like(u, dtype=float)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    e = np.exp(u[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def balanced_cross_entropy(eta: np.ndarray, t: np.ndarray, floor: float = 1e-12) -> float:
    """Arm-averaged negative log-likelihood (each arm weighted equally)."""
    eta = np.clip(eta, floor, 1 - floor)
    n1 = max(int(np.sum(t == 1)), 1)
    n0 = max(int(np.sum(t == 0)), 1)
    return float(-np.sum(np.log(eta[t == 1])) / n1 - np.sum(np.log(1 - eta[t == 0])) / n0)


@dataclass
class PropensityModel:
    variant: str  # logistic_regression | knn_classifier | decision_tree
    params: dict
    fitted: bool = False
    warning: str | None = None

    def to_dict(self) -> dict:
        params = dict(self.params)
        for k, v in params.items():
            if isinstance(v, np.ndarray):
                params[k] = v.tolist()
        return {"variant": self.variant, "params": params, "fitted": self.fitted,
                "warning": self.warning}

    @classmethod
    def from_dict(cls, d: dict) -> "PropensityModel":
        params = dict(d["params"])
        for k in ("weights", "x_mean", "x_scale", "ref_x", "ref_t"):
            if k in params and isinstance(params[k], list):
                params[k] = np.asarray(params[k], dtype=float)
        return cls(d["variant"], params, d["fitted"], d.get("warning"))


def train_propensity_lr(dataset_x: np.ndarray, t: np.ndarray, l2_strength: float,
                        max_steps: int = 5000, grad_tol: float = 1e-6,
                        base_lr: float = 0.1) -> PropensityModel:
    """Full-batch Adam on the class-balanced cross-entropy with an L2 penalty
    on the weights (bias excluded). Features are standardized internally."""
    x = np.asarray(dataset_x, dtype=float)
    t = np.asarray(t, dtype=int)
    if t.sum() in (0, len(t)):
        raise ValueError("both arms required to fit a propensity model")
    mean = x.mean(axis=0)
    sd = x.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    xs = (x - mean) / sd
    n1 = int(t.sum())
    n0 = len(t) - n1
    w = np.zeros(x.shape[1])
    b = np.zeros(1)
    state = AdamState.for_params([w, b], base_lr=base_lr, decay_rate=1.0)
    best = (np.inf, w.copy(), b.copy())
    converged = False
    for _ in range(max_steps):
        eta = _sigmoid(xs @ w + b[0])
        # d/du of the balanced CE: -(eta-ish) residual, arm-normalized
        r = np.where(t == 1, -(1 - eta) / n1, eta / n0)
        gw = xs.T @ r + 2.0 * l2_strength * w
        gb = np.array([r.sum()])
        loss = balanced_cross_entropy(eta, t) + l2_strength * float(w @ w)
        if loss < best[0]:
            best = (loss, w.copy(), b.copy())
        gnorm = np.sqrt(float(gw @ gw) + float(gb @ gb))
        if gnorm < grad_tol:
            converged = True
            break
        adam_step([w, b], [gw, gb], state)
    _, w, b = best
    model = PropensityModel(
        "logistic_regression",
        {"weights": w, "bias": float(b[0]), "l2_strength": l2_strength,
         "x_mean": mean, "x_scale": sd},
        fitted=True,
    )
    if not converged:
        model.warning = "gradient tolerance not reached (possible separation)"
    return model


def lr_loss_and_grad(x: np.ndarray, t: np.ndarray, w: np.ndarray, b: float,
                     l2_strength: float):
    """Balanced cross-entropy objective and its exact gradient, for checking."""
    t = np.asarray(t, dtype=int)
    n1 = int(t.sum())
    n0 = len(t) - n1
    eta = _sigmoid(x @ w + b)
    loss = balanced_cross_entropy(eta, t) + l2_strength * float(w @ w)
    r = np.where(t == 1, -(1 - eta) / n1, eta / n0)
    gw = x.T @ r + 2.0 * l2_strength * w
    gb = float(r.sum())
    return loss, gw, gb


def fit_knn(x: np.ndarray, t: np.ndarray, k: int) -> PropensityModel:
    if not 1 <= k <= len(t):
        raise ValueError("k out of range")
    return PropensityModel(
        "knn_classifier",
        {"k": int(k), "ref_x": np.asarray(x, dtype=float), "ref_t": np.asarray(t, dtype=float)},
        fitted=True,
    )


def _gini(count1, total):
    p = count1 / total
    return 2.0 * p * (1.0 - p)


def _scan_first_best(gain: np.ndarray, best):
    """Where the sequential scan `if best is None or g > best + 1e-15: take g`
    over `gain` ends: (index, gain), or (None, best) if nothing is taken.

    Every gain before a taken one is at most `best + 1e-15`, so the next one
    taken is the first whose running maximum exceeds that: one binary search
    per taken split instead of one comparison per split."""
    running = np.maximum.accumulate(gain)
    pos = None
    if best is None:
        pos, best = 0, gain[0]
    while True:
        q = int(np.searchsorted(running, best + 1e-15, side="right"))
        if q == len(gain):
            return pos, best
        pos, best = q, gain[q]


def _build_tree(x, t, depth, max_depth, min_leaf):
    n = len(t)
    rate = float(np.mean(t))
    node = {"leaf": True, "value": rate, "n": n}
    if depth >= max_depth or n < 2 * min_leaf or rate in (0.0, 1.0):
        return node
    n1 = t.sum()
    parent_impurity = _gini(n1, n)
    # every feature sorted at once; a split after the first `size` sorted
    # samples leaves at least min_leaf on each side
    order = np.argsort(x, axis=0, kind="stable")
    xv = np.take_along_axis(x, order, axis=0)
    size = np.arange(min_leaf, n - min_leaf + 1)
    left1 = np.cumsum(t[order], axis=0)[size - 1]
    admissible = xv[size - 1] != xv[size]  # cannot split between equal values
    best = None
    for j in range(x.shape[1]):
        ok = admissible[:, j]
        i, l1 = size[ok], left1[ok, j]
        if i.size == 0:
            continue
        impurity = (i * _gini(l1, i) + (n - i) * _gini(n1 - l1, n - i)) / n
        pos, gain = _scan_first_best(parent_impurity - impurity,
                                     None if best is None else best[0])
        if pos is not None:
            k = i[pos]
            best = (gain, j, 0.5 * (xv[k - 1, j] + xv[k, j]))
    if best is None or best[0] <= 1e-12:
        return node
    _, j, thr = best
    mask = x[:, j] <= thr
    return {
        "leaf": False,
        "feature": j,
        "threshold": float(thr),
        "left": _build_tree(x[mask], t[mask], depth + 1, max_depth, min_leaf),
        "right": _build_tree(x[~mask], t[~mask], depth + 1, max_depth, min_leaf),
    }


def fit_tree(x: np.ndarray, t: np.ndarray, max_depth: int, min_leaf: int = 10) -> PropensityModel:
    """Greedy CART on Gini impurity; leaves predict the treated rate."""
    if min_leaf < 1:
        raise ValueError("min_leaf must be at least 1")
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=int)
    root = _build_tree(x, t, 0, max_depth, min_leaf)
    return PropensityModel("decision_tree", {"max_depth": int(max_depth),
                                             "min_leaf": int(min_leaf), "root": root},
                           fitted=True)


def _tree_predict(root, x: np.ndarray) -> np.ndarray:
    out = np.empty(len(x))
    for i, xi in enumerate(x):
        node = root
        while not node["leaf"]:
            node = node["left"] if xi[node["feature"]] <= node["threshold"] else node["right"]
        out[i] = node["value"]
    return out


def _k_nearest(sq: np.ndarray, k: int) -> np.ndarray:
    """Per row, the columns of its k smallest entries, ties at the k-th value
    taken in column order (as a stable argsort would), in no fixed order."""
    nearest = np.argpartition(sq, k - 1, axis=1)[:, :k].copy()  # frees the full index block
    kth = sq[np.arange(len(sq)), nearest[:, k - 1]]
    tied = np.count_nonzero(sq <= kth[:, None], axis=1) != k
    if tied.any():
        nearest[tied] = np.argsort(sq[tied], axis=1, kind="stable")[:, :k]
    return nearest


def predict_eta(model: PropensityModel, x: np.ndarray, clip: float = DEFAULT_CLIP):
    """Clipped treatment probability; accepts a vector or an (n, d) batch."""
    if not model.fitted:
        raise ValueError("model is not fitted")
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    xb = np.atleast_2d(x)
    p = model.params
    if model.variant == "logistic_regression":
        xs = (xb - p["x_mean"]) / p["x_scale"]
        eta = _sigmoid(xs @ p["weights"] + p["bias"])
    elif model.variant == "knn_classifier":
        eta = p["ref_t"][_k_nearest(pairwise_sq_dists(xb, p["ref_x"]), p["k"])].mean(axis=1)
    elif model.variant == "decision_tree":
        eta = _tree_predict(p["root"], xb)
    else:
        raise ValueError(f"unknown variant {model.variant!r}")
    eta = np.clip(eta, clip, 1 - clip)
    return float(eta[0]) if single else eta


def _fit_grid_member(spec: dict, x: np.ndarray, t: np.ndarray) -> PropensityModel:
    kind = spec["kind"]
    if kind == "lr":
        return train_propensity_lr(x, t, spec.get("l2", 1e-3))
    if kind == "knn":
        return fit_knn(x, t, min(spec["k"], len(t)))
    if kind == "tree":
        return fit_tree(x, t, spec.get("max_depth", 3), spec.get("min_leaf", 10))
    raise ValueError(f"unknown grid member kind {kind!r}")


def _stratified_folds(t: np.ndarray, folds: int, rng: np.random.Generator):
    """Per-arm round-robin assignment so every fold sees both arms when
    possible."""
    assignment = np.empty(len(t), dtype=int)
    for arm in (0, 1):
        idx = rng.permutation(np.flatnonzero(t == arm))
        assignment[idx] = np.arange(len(idx)) % folds
    return [np.flatnonzero(assignment == f) for f in range(folds)]


DEFAULT_PROPENSITY_GRID = (
    {"kind": "lr", "l2": 1e-3},
    {"kind": "lr", "l2": 1e-1},
    {"kind": "knn", "k": 10},
    {"kind": "knn", "k": 30},
    {"kind": "tree", "max_depth": 3},
)


def select_propensity(x: np.ndarray, t: np.ndarray, grid, folds: int, seed: int,
                      clip: float = DEFAULT_CLIP) -> PropensityModel:
    """Grid search by mean cross-validated balanced cross-entropy; the winner
    is refit on all given samples. Ties keep the first grid member."""
    grid = list(grid)
    if not grid:
        raise ValueError("propensity grid is empty")
    if folds < 2:
        raise ValueError("need folds >= 2")
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=int)
    rng = np.random.default_rng(seed)
    fold_idx = _stratified_folds(t, folds, rng)
    scores = []
    for spec in grid:
        losses = []
        for f in range(folds):
            val = fold_idx[f]
            trn = np.concatenate([fold_idx[g] for g in range(folds) if g != f])
            if len(val) == 0 or t[trn].sum() in (0, len(trn)):
                continue
            model = _fit_grid_member(spec, x[trn], t[trn])
            eta = predict_eta(model, x[val], clip)
            losses.append(balanced_cross_entropy(np.atleast_1d(eta), t[val]))
        scores.append(np.mean(losses) if losses else np.inf)
    winner = int(np.argmin(scores))  # argmin keeps the first of tied members
    return _fit_grid_member(grid[winner], x, t)


def calibration_table(model: PropensityModel, x: np.ndarray, t: np.ndarray,
                      bins: int, clip: float = DEFAULT_CLIP) -> list[dict]:
    """Equal-width bins over [0, 1]: mean predicted score vs empirical
    treated rate. Empty bins carry count 0 and None statistics."""
    if bins < 2:
        raise ValueError("need bins >= 2")
    eta = np.atleast_1d(predict_eta(model, x, clip))
    t = np.asarray(t, dtype=int)
    edges = np.linspace(0, 1, bins + 1)
    which = np.clip(np.digitize(eta, edges[1:-1]), 0, bins - 1)
    table = []
    for b in range(bins):
        mask = which == b
        count = int(mask.sum())
        table.append({
            "bin": (float(edges[b]), float(edges[b + 1])),
            "count": count,
            "mean_eta": float(eta[mask].mean()) if count else None,
            "treated_rate": float(t[mask].mean()) if count else None,
        })
    return table
