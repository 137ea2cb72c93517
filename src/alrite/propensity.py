"""Propensity score models: logistic regression trained on a class-balanced
cross-entropy, a k-nearest-neighbor classifier and a CART-style decision
tree, plus grid-search cross-validation and calibration diagnostics.

Predictions are always clipped into [DEFAULT_CLIP, 1 - DEFAULT_CLIP] =
[0.01, 0.99], bounding inverse-propensity weights by 100.

Tie rules, both exact:
- kNN: the k nearest references are picked by partition; a row whose k-th
  distance is shared by a reference outside the k falls back to a stable
  sort, so equidistant neighbours are taken in index order.
- Tree: splits are scanned feature by feature, left to right, and a split
  replaces the best so far only if its Gini gain is larger by more than
  1e-15, so the first of near-equal splits wins.

Shared work, done once, with the same bits as doing it per member:
- The grid search runs fold by fold. All kNN members of a fold share one
  distance block per row block: the largest k's neighbours are picked from
  the whole row, each smaller k's from those (they hold the row's k smallest
  distances), and the tie check still counts over the whole row. The mean
  of 0/1 labels is exact in any order. Each block is freed before the next,
  and each fold's row copies and models before the next fold and the refit.
- A tree sorts every feature once per fit, into an (n, d) int32 order filled
  one feature at a time (so a tree fits at most 2**31 - 1 rows). A child's
  order is its parent's, filtered to the child's rows, which is the child's
  own stable argsort; it is computed only for a node that may split, never
  for a leaf. A node's split search scans one feature at a time: that
  feature's sorted values, admissible mask and int32 label counts are its
  only O(n) arrays, none of them n×d.
- A logistic fit finds its arms' rows once, and each objective evaluation
  gathers the arms' propensities by those indices instead of masking
  full-length arrays.

The logistic fit is a damped Newton method (IRLS) on the standardized
features:
- Step: solve (H + δI) p = -g, where H is the Hessian, built in blocks from
  the curvature weights s = c·η(1-η) (c = 1/n₁ or 1/n₀ by arm): xsᵀ(s·xs) +
  2λI, xsᵀs and Σs. The objective hands back the η it computed, so one
  sigmoid per evaluation serves the loss, the gradient and the next Hessian.
- Damping: δ = 1e-12·max(1, largest diagonal entry of H). A singular H, such
  as a constant feature at l2 = 0 (its standardized column is all zeros),
  then gives a finite step, and a coordinate with no curvature and no
  gradient does not move.
- Armijo backtracking halves the step, at most LINE_SEARCH_HALVINGS times,
  until the loss falls by at least 1e-4·|gᵀp| times the step length. So the
  loss never rises, and the last iterate is the best.
- It stops when the gradient norm drops below GRAD_TOL, after NEWTON_MAX_ITER
  iterations, or when no step length lowers the loss.
- Separation: at l2 = 0, rows that a hyperplane separates have no finite
  optimum, and the gradient vanishes only as the weights diverge. The fit
  warns "gradient tolerance not reached (possible separation)" when it
  stopped short of the tolerance, or when l2 = 0 and its scores separate the
  arms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .twin import pairwise_sq_dists, row_blocks

DEFAULT_CLIP = 0.01
ETA_FLOOR = 1e-12  # the cross-entropy's clip, so an eta of 0 or 1 costs a finite loss
# Newton iterations a logistic fit may take: a fit on the default grid meets
# the gradient tolerance in a handful
NEWTON_MAX_ITER = 100
GRAD_TOL = 1e-6  # gradient norm at which a logistic fit stops
LINE_SEARCH_HALVINGS = 40
SEPARATION_WARNING = "gradient tolerance not reached (possible separation)"


def _sigmoid(u: np.ndarray) -> np.ndarray:
    # e = exp(-|u|): 1/(1+e) for u >= 0, e/(1+e) below. np.minimum returns its
    # first argument when both are NaN, so a NaN keeps its sign bit
    e = np.exp(np.minimum(u, -u))
    return np.where(u >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _arm_cross_entropy(eta1: np.ndarray, eta0: np.ndarray) -> float:
    """Balanced cross-entropy of the treated rows' propensities eta1 and the
    control rows' eta0, each clipped to [ETA_FLOOR, 1 - ETA_FLOOR]."""
    lo, hi = ETA_FLOOR, 1 - ETA_FLOOR
    return float(-np.sum(np.log(np.clip(eta1, lo, hi))) / max(len(eta1), 1)
                 - np.sum(np.log(1 - np.clip(eta0, lo, hi))) / max(len(eta0), 1))


def balanced_cross_entropy(eta: np.ndarray, t: np.ndarray) -> float:
    """Arm-averaged negative log-likelihood (each arm weighted equally)."""
    eta = np.asarray(eta)
    return _arm_cross_entropy(eta[t == 1], eta[t == 0])


@dataclass
class PropensityModel:
    variant: str  # logistic_regression | knn_classifier | decision_tree
    params: dict
    warning: str | None = None

    def to_dict(self) -> dict:
        params = dict(self.params)
        for k, v in params.items():
            if isinstance(v, np.ndarray):
                params[k] = v.tolist()
        return {"variant": self.variant, "params": params, "warning": self.warning}

    @classmethod
    def from_dict(cls, d: dict) -> "PropensityModel":
        """Inverse of `to_dict`; the "fitted" key of older files is ignored."""
        params = dict(d["params"])
        for k in ("weights", "x_mean", "x_scale", "ref_x", "ref_t"):
            if k in params and isinstance(params[k], list):
                params[k] = np.asarray(params[k], dtype=float)
        return cls(d["variant"], params, d.get("warning"))


def train_propensity_lr(dataset_x: np.ndarray, t: np.ndarray,
                        l2_strength: float) -> PropensityModel:
    """Damped Newton with Armijo backtracking (see the module docstring) on
    the class-balanced cross-entropy with an L2 penalty on the weights (bias
    excluded). Features are standardized internally."""
    x = np.asarray(dataset_x, dtype=float)
    t = np.asarray(t, dtype=int)
    n1 = t.sum()
    if n1 in (0, len(t)):
        raise ValueError("both arms required to fit a propensity model")
    mean = x.mean(axis=0)
    sd = x.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    xs = (x - mean) / sd
    d = x.shape[1]
    arm_weight = np.where(t == 1, 1.0 / n1, 1.0 / (len(t) - n1))
    objective = _lr_objective(xs, t, l2_strength)
    theta = np.zeros(d + 1)  # [weights, bias]
    loss, grad, eta = objective(theta)
    hess = np.empty((d + 1, d + 1))
    for _ in range(NEWTON_MAX_ITER):
        if np.linalg.norm(grad) < GRAD_TOL:
            break
        s = arm_weight * eta * (1 - eta)
        hess[:d, :d] = xs.T @ (s[:, None] * xs)
        hess[:d, d] = hess[d, :d] = xs.T @ s
        hess[d, d] = s.sum()
        hess[range(d), range(d)] += 2.0 * l2_strength
        hess[range(d + 1), range(d + 1)] += 1e-12 * max(1.0, hess.diagonal().max())
        step = np.linalg.solve(hess, -grad)
        slope, alpha = float(grad @ step), 1.0
        for _ in range(LINE_SEARCH_HALVINGS):
            candidate = theta + alpha * step
            trial = objective(candidate)
            if trial[0] <= loss + 1e-4 * alpha * slope:
                break
            alpha *= 0.5
        else:
            break  # no step length lowers the loss
        theta, (loss, grad, eta) = candidate, trial
    w, b = theta[:-1], float(theta[-1])
    model = PropensityModel(
        "logistic_regression",
        {"weights": w, "bias": b, "l2_strength": l2_strength, "x_mean": mean, "x_scale": sd},
    )
    score = xs @ w + b
    if (np.linalg.norm(grad) >= GRAD_TOL
            or l2_strength == 0 and score[t == 1].min() > score[t == 0].max()):
        model.warning = SEPARATION_WARNING
    return model


def _lr_objective(x: np.ndarray, t: np.ndarray, l2_strength: float):
    """The balanced cross-entropy objective on the rows x with 0/1 labels t,
    as a function of theta = [weights, bias]: (loss, gradient in theta, the
    propensities η). The arm indices, their counts and the residual buffer
    are built once."""
    t = np.asarray(t, dtype=int)
    treated, control = np.flatnonzero(t == 1), np.flatnonzero(t == 0)
    n1, n0 = len(treated), len(control)
    r = np.empty(len(t))

    def objective(theta: np.ndarray):
        w, b = theta[:-1], theta[-1]
        eta = _sigmoid(x @ w + b)
        eta1, eta0 = eta[treated], eta[control]
        loss = _arm_cross_entropy(eta1, eta0) + l2_strength * float(w @ w)
        # d/du of the balanced CE: arm-normalized residual
        r[treated] = -(1 - eta1) / n1
        r[control] = eta0 / n0
        grad = np.empty(len(theta))
        grad[:-1] = x.T @ r + 2.0 * l2_strength * w
        grad[-1] = r.sum()
        return loss, grad, eta

    return objective


def fit_knn(x: np.ndarray, t: np.ndarray, k: int) -> PropensityModel:
    if not 1 <= k <= len(t):
        raise ValueError("k out of range")
    return PropensityModel(
        "knn_classifier",
        {"k": int(k), "ref_x": np.asarray(x, dtype=float), "ref_t": np.asarray(t, dtype=float)},
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


def _best_split(x, t, order, min_leaf):
    """(gain, feature, threshold) of the node's first best admissible split,
    or None. `order` is x's stable argsort along axis 0."""
    n = len(t)
    n1 = t.sum()
    parent_impurity = _gini(n1, n)
    # a split after the first `size` sorted samples leaves at least min_leaf
    # on each side; size - 1 and size are contiguous, so both are slices
    size = np.arange(min_leaf, n - min_leaf + 1)
    below, at = slice(min_leaf - 1, n - min_leaf), slice(min_leaf, n - min_leaf + 1)
    t32 = t.astype(np.int32)
    best = None
    for j in range(x.shape[1]):
        o = order[:, j]
        xv = x[:, j].take(o)
        ok = xv[below] != xv[at]  # cannot split between equal values
        i = size[ok]
        if i.size == 0:
            continue
        l1 = t32.take(o).cumsum(dtype=np.int32)[below][ok]
        impurity = (i * _gini(l1, i) + (n - i) * _gini(n1 - l1, n - i)) / n
        pos, gain = _scan_first_best(parent_impurity - impurity,
                                     None if best is None else best[0])
        if pos is not None:
            k = i[pos]
            best = (gain, j, 0.5 * (xv[k - 1] + xv[k]))
    return best


def _build_tree(x, t, sort, depth, max_depth, min_leaf):
    """`sort()` gives x's stable argsort along axis 0, every feature sorted;
    only a node that may split calls it. A node's split search frees its
    arrays before the children are built; only `order` stays for them."""
    n = len(t)
    rate = float(np.mean(t))
    node = {"leaf": True, "value": rate, "n": n}
    if depth >= max_depth or n < 2 * min_leaf or rate in (0.0, 1.0):
        return node
    order = sort()
    best = _best_split(x, t, order, min_leaf)
    if best is None or best[0] <= 1e-12:
        return node
    _, j, thr = best
    mask = x[:, j] <= thr
    left, right = (_build_tree(x[keep], t[keep], partial(_child_order, order, keep), depth + 1,
                               max_depth, min_leaf) for keep in (mask, ~mask))
    return {"leaf": False, "feature": j, "threshold": float(thr), "left": left, "right": right}


def _child_order(order: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The stable argsort of x[keep] along axis 0, given x's: each column of
    `order` with the dropped rows filtered out (which keeps the relative
    order, ties included) and the kept rows renumbered, in int32."""
    renumber = np.cumsum(keep, dtype=np.int32) - 1
    kept = keep[order.T]  # per feature, row by row: (d, n)
    return renumber[order.T[kept]].reshape(len(kept), -1).T


def _sort_columns(x: np.ndarray) -> np.ndarray:
    """x's stable argsort along axis 0 as an (n, d) int32 array, filled one
    feature at a time; each column is contiguous, as `_child_order`'s are."""
    order = np.empty(x.shape[::-1], dtype=np.int32)
    for j in range(x.shape[1]):
        order[j] = np.argsort(x[:, j], kind="stable")
    return order.T


def fit_tree(x: np.ndarray, t: np.ndarray, max_depth: int, min_leaf: int) -> PropensityModel:
    """Greedy CART on Gini impurity; leaves predict the treated rate. Row
    orders and label counts are int32, so at most 2**31 - 1 rows."""
    if min_leaf < 1:
        raise ValueError("min_leaf must be at least 1")
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=int)
    if len(t) > np.iinfo(np.int32).max:
        raise ValueError(f"a tree fits at most {np.iinfo(np.int32).max} rows, got {len(t)}")
    root = _build_tree(x, t, partial(_sort_columns, x), 0, max_depth, min_leaf)
    return PropensityModel("decision_tree", {"max_depth": int(max_depth),
                                             "min_leaf": int(min_leaf), "root": root})


def _tree_predict(root, x: np.ndarray) -> np.ndarray:
    out = np.empty(len(x))
    for i, xi in enumerate(x):
        node = root
        while not node["leaf"]:
            node = node["left"] if xi[node["feature"]] <= node["threshold"] else node["right"]
        out[i] = node["value"]
    return out


def _k_nearest(sq: np.ndarray, k: int, pool: np.ndarray | None = None) -> np.ndarray:
    """Per row, the columns of its k smallest entries, ties at the k-th value
    taken in column order (as a stable argsort would), in no fixed order.

    `pool`, a wider `_k_nearest` result of the same `sq`, holds each row's k
    smallest values, so the k-th is found by partitioning the pool alone."""
    if pool is None:
        nearest = np.argpartition(sq, k - 1, axis=1)[:, :k].copy()  # frees the full index block
    else:
        within = np.argpartition(np.take_along_axis(sq, pool, axis=1), k - 1, axis=1)[:, :k]
        nearest = np.take_along_axis(pool, within, axis=1)
    kth = sq[np.arange(len(sq)), nearest[:, k - 1]]
    tied = np.count_nonzero(sq <= kth[:, None], axis=1) != k
    if tied.any():
        nearest[tied] = np.argsort(sq[tied], axis=1, kind="stable")[:, :k]
    return nearest


def _knn_etas(x: np.ndarray, ref_x: np.ndarray, ref_t: np.ndarray, ks) -> list[np.ndarray]:
    """Unclipped kNN treated rate at each row of x for every k in `ks`: one
    distance block per row block serves all k, the smaller ones picked from
    the largest k's neighbours."""
    widest = max(ks)
    etas = [np.empty(len(x)) for _ in ks]
    ref_sq = np.sum(ref_x * ref_x, axis=1)
    for rows in row_blocks(len(x), len(ref_x)):
        sq = pairwise_sq_dists(x[rows], ref_x, ref_sq)
        pool = _k_nearest(sq, widest)
        for eta, k in zip(etas, ks):
            eta[rows] = ref_t[pool if k == widest else _k_nearest(sq, k, pool)].mean(axis=1)
        del sq  # freed before the next block is allocated
    return etas


def predict_eta(model: PropensityModel, x: np.ndarray) -> np.ndarray:
    """Treatment probability at each row of the (n, d) batch x, clipped into
    [DEFAULT_CLIP, 1 - DEFAULT_CLIP]."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"input shape {x.shape} is not an (n, d) batch")
    p = model.params
    if model.variant == "logistic_regression":
        xs = (x - p["x_mean"]) / p["x_scale"]
        eta = _sigmoid(xs @ p["weights"] + p["bias"])
    elif model.variant == "knn_classifier":
        eta = _knn_etas(x, p["ref_x"], p["ref_t"], [p["k"]])[0]
    elif model.variant == "decision_tree":
        eta = _tree_predict(p["root"], x)
    else:
        raise ValueError(f"unknown variant {model.variant!r}")
    return np.clip(eta, DEFAULT_CLIP, 1 - DEFAULT_CLIP)


def _fit_grid_member(spec: dict, x: np.ndarray, t: np.ndarray) -> PropensityModel:
    kind = spec["kind"]
    if kind == "lr":
        return train_propensity_lr(x, t, spec["l2"])
    if kind == "knn":
        return fit_knn(x, t, min(spec["k"], len(t)))
    if kind == "tree":
        return fit_tree(x, t, spec["max_depth"], spec["min_leaf"])
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
    {"kind": "tree", "max_depth": 3, "min_leaf": 10},
)


def _fold_losses(grid, x, t, fold_idx, f) -> list[float]:
    """Each grid member's balanced cross-entropy on fold f, fit on the other
    folds; [] if fold f is empty or its training rows hold one arm. The
    fold's row copies and models are freed on return."""
    val = fold_idx[f]
    trn = np.concatenate([rows for g, rows in enumerate(fold_idx) if g != f])
    if len(val) == 0 or t[trn].sum() in (0, len(trn)):
        return []
    x_trn, t_trn, x_val, t_val = x[trn], t[trn], x[val], t[val]
    models = [_fit_grid_member(spec, x_trn, t_trn) for spec in grid]
    knn = [i for i, m in enumerate(models) if m.variant == "knn_classifier"]
    etas = [None if i in knn else predict_eta(m, x_val) for i, m in enumerate(models)]
    if knn:  # the kNN members share their references: one search serves every k
        ref = models[knn[0]].params
        ks = [models[i].params["k"] for i in knn]
        for i, eta in zip(knn, _knn_etas(x_val, ref["ref_x"], ref["ref_t"], ks)):
            etas[i] = np.clip(eta, DEFAULT_CLIP, 1 - DEFAULT_CLIP)
    return [balanced_cross_entropy(eta, t_val) for eta in etas]


def select_propensity(x: np.ndarray, t: np.ndarray, grid, folds: int,
                      seed: int) -> PropensityModel:
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
    losses = [[] for _ in grid]  # per member, in fold order
    for f in range(folds):
        for member, loss in zip(losses, _fold_losses(grid, x, t, fold_idx, f)):
            member.append(loss)
    scores = [np.mean(member) if member else np.inf for member in losses]
    winner = int(np.argmin(scores))  # argmin keeps the first of tied members
    return _fit_grid_member(grid[winner], x, t)


def calibration_table(model: PropensityModel, x: np.ndarray, t: np.ndarray,
                      bins: int) -> list[dict]:
    """Equal-width bins over [0, 1]: mean predicted score vs empirical
    treated rate. Empty bins carry count 0 and None statistics."""
    if bins < 2:
        raise ValueError("need bins >= 2")
    eta = predict_eta(model, x)
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
