"""Propensity models: logistic-regression gradient and convergence, kNN and
tree oracles, clipping, cross-validated selection and calibration."""

import numpy as np
import pytest

import alrite.propensity as propensity
from alrite.data import generate_acic_like, generate_ihdp_like
from alrite.propensity import (DEFAULT_CLIP, DEFAULT_PROPENSITY_GRID,
                               PropensityModel, _fit_grid_member, _k_nearest,
                               _knn_etas, _lr_objective, _scan_first_best, _sigmoid,
                               _stratified_folds, balanced_cross_entropy,
                               calibration_table, fit_knn, fit_tree, predict_eta,
                               select_propensity, train_propensity_lr)
from alrite.twin import BLOCK_ENTRIES, pairwise_sq_dists, row_blocks


def test_balanced_cross_entropy_hand_value():
    eta = np.array([0.8, 0.4])
    t = np.array([1, 0])
    expect = -np.log(0.8) - np.log(0.6)
    assert np.isclose(balanced_cross_entropy(eta, t), expect)


def test_balanced_cross_entropy_weights_arms_equally():
    # three control, one treated: each arm still contributes one average term
    eta = np.array([0.5, 0.5, 0.5, 0.5])
    t = np.array([0, 0, 0, 1])
    assert np.isclose(balanced_cross_entropy(eta, t), -2 * np.log(0.5))


def masked_sigmoid(u):
    """The logistic function as each sign's branch on a masked copy."""
    out = np.empty_like(u, dtype=float)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    e = np.exp(u[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def test_sigmoid_keeps_the_masked_formulas_bits():
    rng = np.random.default_rng(0)
    edge = np.array([0.0, -0.0, 800.0, -800.0, 745.2, -745.2, 36.7, -36.7, 1e-320,
                     -1e-320, 5e-324, np.inf, -np.inf, np.nan, -np.nan])
    inputs = [edge] + [rng.standard_normal(500) * 10.0 ** rng.uniform(-300, 300)
                       for _ in range(50)]
    with np.errstate(over="ignore"):
        for u in inputs:
            assert _sigmoid(u).tobytes() == masked_sigmoid(u).tobytes()


def test_lr_gradient_finite_differences():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n, d = 20, 3
        x = rng.standard_normal((n, d))
        t = rng.integers(0, 2, size=n)
        t[0], t[1] = 0, 1
        w = rng.standard_normal(d)
        b = float(rng.standard_normal())
        theta = np.append(w, b)
        objective = _lr_objective(x, t, 0.05)
        _, grad, _ = objective(theta)
        h = 1e-6
        for j in range(d + 1):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            fd = (objective(tp)[0] - objective(tm)[0]) / (2 * h)
            assert abs(fd - grad[j]) < 1e-5 * max(1, abs(fd))


def reference_lr_fit(x, t, l2_strength, max_steps=5000, grad_tol=1e-6, base_lr=0.1):
    """The logistic fit rebuilding its arm masks and full-length residual
    every step, as the objective was first written."""
    from alrite.nn import AdamState, adam_step

    def loss_and_grad(xs, w, b):
        treated = t == 1
        n1 = np.count_nonzero(treated)
        n0 = len(t) - n1
        eta = _sigmoid(xs @ w + b)
        loss = balanced_cross_entropy(eta, t) + l2_strength * float(w @ w)
        r = np.where(treated, -(1 - eta) / n1, eta / n0)
        return loss, xs.T @ r + 2.0 * l2_strength * w, float(r.sum())

    mean, sd = x.mean(axis=0), x.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    xs = (x - mean) / sd
    theta = np.zeros(x.shape[1] + 1)
    w, b = theta[:-1], theta[-1:]
    state = AdamState.for_params(theta, base_lr=base_lr, decay_rate=1.0, decay_period=100)
    best = (np.inf, theta.copy())
    converged = False
    for _ in range(max_steps):
        loss, gw, gb = loss_and_grad(xs, w, b[0])
        if loss < best[0]:
            best = (loss, theta.copy())
        if np.sqrt(float(gw @ gw) + gb * gb) < grad_tol:
            converged = True
            break
        adam_step(theta, np.append(gw, gb), state)
    model = PropensityModel("logistic_regression",
                            {"weights": best[1][:-1], "bias": float(best[1][-1]),
                             "l2_strength": l2_strength, "x_mean": mean, "x_scale": sd})
    if not converged:
        model.warning = "gradient tolerance not reached (possible separation)"
    return model


def fit_gradient(model, x, t):
    """The loss and gradient norm of a logistic fit on its standardized rows."""
    p = model.params
    xs = (x - p["x_mean"]) / p["x_scale"]
    loss, grad, _ = _lr_objective(xs, t, p["l2_strength"])(np.append(p["weights"], p["bias"]))
    return loss, float(np.linalg.norm(grad))


def fit_hessian(model, x, t):
    """The objective's Hessian in [weights, bias] at a logistic fit."""
    p = model.params
    xs = np.hstack([(x - p["x_mean"]) / p["x_scale"], np.ones((len(x), 1))])
    eta = _sigmoid(xs[:, :-1] @ p["weights"] + p["bias"])
    s = np.where(t == 1, 1 / t.sum(), 1 / (len(t) - t.sum())) * eta * (1 - eta)
    hess = xs.T @ (s[:, None] * xs)
    hess[:-1, :-1] += 2 * p["l2_strength"] * np.eye(x.shape[1])
    return hess


@pytest.mark.parametrize("l2", (0.0, 1e-3, 0.1))
@pytest.mark.parametrize("kind", ["acic_like", "ihdp_like", "separable"])
def test_lr_newton_fit_meets_the_adam_baseline(kind, l2):
    if kind == "acic_like":
        ds, _ = generate_acic_like(1, 600)
        x, t = ds.x, ds.t.astype(int)
    elif kind == "ihdp_like":
        ds, _ = generate_ihdp_like(1, n=747)
        x, t = ds.x, ds.t.astype(int)
    else:  # no finite optimum without a penalty
        x = np.random.default_rng(7).standard_normal((120, 3))
        t = (x[:, 0] > 0).astype(int)
    got = train_propensity_lr(x, t, l2)
    adam = reference_lr_fit(x, t, l2)
    (loss, gnorm), (adam_loss, adam_gnorm) = fit_gradient(got, x, t), fit_gradient(adam, x, t)
    assert loss <= adam_loss
    if adam.warning is not None:  # only the separable rows at l2 = 0
        assert (kind, l2) == ("separable", 0.0)
        assert got.warning == adam.warning
        return
    assert got.warning is None and gnorm < 1e-6
    gap = np.abs(got.params["weights"] - adam.params["weights"]).max()
    if kind == "separable":
        # each fit's distance to the optimum is at most its gradient norm over
        # the smallest curvature, which at l2 = 1e-3 is about 5e-3 here
        mu = np.linalg.eigvalsh(fit_hessian(got, x, t))[0]
        assert gap <= 2 * (gnorm + adam_gnorm) / mu
    else:
        assert gap <= 1e-5


def test_lr_constant_column_at_l2_zero_is_finite():
    # the constant column standardizes to zeros, so its Hessian row is zero
    rng = np.random.default_rng(8)
    x = np.hstack([rng.standard_normal((200, 3)), np.full((200, 1), 4.0)])
    t = rng.integers(0, 2, size=200)
    model = train_propensity_lr(x, t, 0.0)
    assert model.warning is None
    assert np.all(np.isfinite(model.params["weights"])) and np.isfinite(model.params["bias"])
    assert model.params["weights"][-1] == 0.0
    assert fit_gradient(model, x, t)[1] < 1e-6


def test_lr_warns_at_the_iteration_bound(monkeypatch):
    ds, _ = generate_ihdp_like(1, n=747)
    assert train_propensity_lr(ds.x, ds.t, 0.1).warning is None
    monkeypatch.setattr(propensity, "NEWTON_MAX_ITER", 1)
    model = train_propensity_lr(ds.x, ds.t, 0.1)
    assert model.warning == "gradient tolerance not reached (possible separation)"


def test_lr_recovers_separable_direction():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((200, 2))
    prob = 1.0 / (1.0 + np.exp(-3.0 * x[:, 0]))
    t = rng.binomial(1, prob)
    model = train_propensity_lr(x, t, l2_strength=1e-3)
    eta = predict_eta(model, x)
    # predictions must order with the generating score
    hi = eta[x[:, 0] > 1.0].mean()
    lo = eta[x[:, 0] < -1.0].mean()
    assert hi > 0.7 > 0.3 > lo


def test_lr_requires_both_arms():
    with pytest.raises(ValueError):
        train_propensity_lr(np.zeros((5, 2)), np.ones(5, dtype=int), 0.1)


def test_knn_oracle():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    t = np.array([0, 1, 1, 0])
    model = fit_knn(x, t, k=2)
    # query 0.9: neighbors 1.0 (t=1) and 0.0 (t=0) -> 0.5
    assert np.isclose(predict_eta(model, np.array([[0.9]]))[0], 0.5)
    # query 2.9: neighbors 3.0 (t=0) and 2.0 (t=1) -> 0.5
    model3 = fit_knn(x, t, k=3)
    # query 1.1: neighbors 1.0, 2.0 (t=1), 0.0 (t=0) -> 2/3
    assert np.isclose(predict_eta(model3, np.array([[1.1]]))[0], 2 / 3)


def stable_sort_knn(x, ref_x, ref_t, k):
    """Oracle: the k first references in a stable sort of each distance row."""
    sq = (np.sum(x * x, axis=1)[:, None] - 2 * x @ ref_x.T
          + np.sum(ref_x * ref_x, axis=1)[None, :])
    nearest = np.argsort(sq, axis=1, kind="stable")[:, :k]
    return np.clip(ref_t[nearest].mean(axis=1), DEFAULT_CLIP, 1 - DEFAULT_CLIP)


@pytest.mark.parametrize("seed", range(4))
def test_knn_partition_matches_stable_sort_on_ties(seed):
    # integer grids put many references at the k-th distance
    rng = np.random.default_rng(seed)
    n = 60
    x = rng.integers(0, 3, size=(n, 2)).astype(float)
    t = rng.integers(0, 2, size=n)
    q = rng.integers(0, 3, size=(40, 2)).astype(float)
    for k in (1, 7, n // 2, n):
        got = predict_eta(fit_knn(x, t, k), q)
        assert got.tobytes() == stable_sort_knn(q, x, t.astype(float), k).tobytes()


def test_knn_partition_matches_stable_sort_on_continuous_data():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((300, 5))
    t = rng.integers(0, 2, size=300)
    q = rng.standard_normal((120, 5))
    for k in (1, 10, 150, 300):
        got = predict_eta(fit_knn(x, t, k), q)
        assert got.tobytes() == stable_sort_knn(q, x, t.astype(float), k).tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_knn_smaller_k_from_the_widest_set_keeps_bytes(seed):
    # a 3-value grid ties many references at the k-th distance: within the
    # widest set for some rows, reaching beyond it for others
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 3, size=(200, 3)).astype(float)
    t = rng.integers(0, 2, size=200).astype(float)
    q = np.vstack([rng.integers(0, 3, size=(60, 3)), rng.standard_normal((60, 3))])
    ks = [1, 4, 9, 25, 40]
    sq = pairwise_sq_dists(q, x)
    kth = np.sort(sq, axis=1)[:, [k - 1 for k in ks]]
    tied = np.stack([np.count_nonzero(sq <= kth[:, [j]], axis=1) for j in range(len(ks))], 1)
    assert np.any((tied[:, :-1] > ks[:-1]) & (tied[:, :-1] <= ks[-1]))
    assert np.any(tied[:, :-1] > ks[-1])
    for k, eta in zip(ks, _knn_etas(q, x, t, ks)):
        assert eta.tobytes() == t[_k_nearest(sq, k)].mean(axis=1).tobytes()


def test_knn_k_validation():
    with pytest.raises(ValueError):
        fit_knn(np.zeros((3, 1)), np.array([0, 1, 0]), k=4)


def test_tree_respects_min_leaf_and_depth():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((100, 2))
    t = (x[:, 0] > 0).astype(int)
    model = fit_tree(x, t, max_depth=1, min_leaf=10)
    root = model.params["root"]
    assert not root["leaf"]
    assert root["feature"] == 0
    assert root["left"]["leaf"] and root["right"]["leaf"]
    # depth-1 split on the informative feature separates the arms
    eta = predict_eta(model, x)
    assert np.mean((eta > 0.5) == (t == 1)) > 0.95


def test_tree_pure_node_stops():
    x = np.arange(40, dtype=float)[:, None]
    # pure node: no split possible
    pure = fit_tree(x, np.ones(40, dtype=int), max_depth=3, min_leaf=10)
    assert pure.params["root"]["leaf"]
    assert pure.params["root"]["value"] == 1.0
    # too few samples for two leaves of min_leaf size
    t = np.zeros(40, dtype=int)
    t[0] = 1
    small = fit_tree(x, t, max_depth=3, min_leaf=21)
    assert small.params["root"]["leaf"]


def reference_tree(x, t, depth, max_depth, min_leaf):
    """Scalar CART: every split position visited in turn, the first of
    near-equal gains kept (a later one must win by more than 1e-15)."""
    n = len(t)
    rate = float(np.mean(t))
    node = {"leaf": True, "value": rate, "n": n}
    if depth >= max_depth or n < 2 * min_leaf or rate in (0.0, 1.0):
        return node

    def gini(c, total):
        p = c / total
        return 2.0 * p * (1.0 - p)

    best = None
    parent = gini(t.sum(), n)
    for j in range(x.shape[1]):
        order = np.argsort(x[:, j], kind="stable")
        xv, csum = x[order, j], np.cumsum(t[order])
        for i in range(min_leaf, n - min_leaf + 1):
            if xv[i - 1] == xv[i]:
                continue
            left1, right1 = csum[i - 1], csum[-1] - csum[i - 1]
            gain = parent - (i * gini(left1, i) + (n - i) * gini(right1, n - i)) / n
            if best is None or gain > best[0] + 1e-15:
                best = (gain, j, 0.5 * (xv[i - 1] + xv[i]))
    if best is None or best[0] <= 1e-12:
        return node
    _, j, thr = best
    mask = x[:, j] <= thr
    return {"leaf": False, "feature": j, "threshold": float(thr),
            "left": reference_tree(x[mask], t[mask], depth + 1, max_depth, min_leaf),
            "right": reference_tree(x[~mask], t[~mask], depth + 1, max_depth, min_leaf)}


@pytest.mark.parametrize("ties", [True, False])
@pytest.mark.parametrize("min_leaf", [1, 5, 10])
def test_tree_matches_scalar_split_scan(ties, min_leaf):
    rng = np.random.default_rng(7 + min_leaf)
    for _ in range(4):
        n = int(rng.integers(30, 160))
        if ties:  # few distinct values: many equal gains and skipped positions
            x = rng.integers(0, 4, size=(n, 3)).astype(float)
        else:
            x = rng.standard_normal((n, 3))
        t = (rng.random(n) < 1 / (1 + np.exp(-x[:, 0]))).astype(int)
        for max_depth in (1, 2, 3, 4):
            root = fit_tree(x, t, max_depth, min_leaf).params["root"]
            assert root == reference_tree(x, t, 0, max_depth, min_leaf)


@pytest.mark.parametrize("kind", ["acic_like", "ihdp_like"])
def test_tree_orders_only_the_nodes_that_may_split(kind, monkeypatch):
    if kind == "acic_like":
        ds, _ = generate_acic_like(1, 600)
    else:
        ds, _ = generate_ihdp_like(1, n=747)
    x, t = ds.x, ds.t.astype(int)
    calls, child_order = [], propensity._child_order
    monkeypatch.setattr(propensity, "_child_order",
                        lambda *args: calls.append(1) or child_order(*args))

    def may_split(node, depth, max_depth, min_leaf):  # passed the leaf checks
        return not node["leaf"] or (depth < max_depth and node["n"] >= 2 * min_leaf
                                    and node["value"] not in (0.0, 1.0))

    def children_that_may_split(node, depth, max_depth, min_leaf):
        if node["leaf"]:
            return 0
        return sum(may_split(child, depth + 1, max_depth, min_leaf)
                   + children_that_may_split(child, depth + 1, max_depth, min_leaf)
                   for child in (node["left"], node["right"]))

    for max_depth, min_leaf in ((3, 10), (5, 1), (2, 50)):
        calls.clear()
        model = fit_tree(x, t, max_depth, min_leaf)
        root = model.to_dict()["params"]["root"]
        assert root == reference_tree(x, t, 0, max_depth, min_leaf)
        assert not root["leaf"]
        assert len(calls) == children_that_may_split(root, 0, max_depth, min_leaf)


def test_split_scan_keeps_first_of_near_ties():
    rng = np.random.default_rng(0)

    def sequential(gain, best):
        pos = None
        for i, g in enumerate(gain):
            if best is None or g > best + 1e-15:
                pos, best = i, g
        return pos, best

    for trial in range(3000):
        steps = rng.integers(-6, 7, size=int(rng.integers(1, 30)))
        gain = 0.25 + steps * rng.choice([2e-17, 1e-16, 4e-16, 1e-15, 1e-3])
        if trial % 2:  # rising runs of ulp-sized steps
            gain = 0.25 + np.cumsum(np.abs(steps)) * rng.choice([1e-16, 6e-16, 1e-15])
        best = None if trial % 3 == 0 else 0.25 + int(rng.integers(-4, 5)) * 3e-16
        assert _scan_first_best(gain, best) == sequential(gain, best)


def test_tree_peak_memory_is_one_node_search_plus_the_ancestors_orders(peak_bytes):
    # a node holds its ancestors' row copies and int32 orders (each order half
    # its rows' bytes), and its split search adds one feature's sorted values,
    # admissible mask and label counts at a time: the fit peaks at 2.7 times
    # x's bytes. A search that builds the sorted copy, the int64 argsort and
    # the label counts of every feature at once peaks at 4 times, and a
    # recursion that keeps each node's search arrays at 9 times.
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5000, 50))
    t = (rng.random(5000) < 1 / (1 + np.exp(-x[:, 0] - x[:, 1]))).astype(int)
    peak = peak_bytes(fit_tree, x, t, max_depth=5, min_leaf=10)
    assert peak < 3 * x.nbytes


def test_tree_refuses_more_rows_than_int32_counts():
    # zero-copy rows; at depth 0 a fit without the check returns a leaf
    rows = np.iinfo(np.int32).max + 1
    x = np.broadcast_to(np.zeros(1), (rows, 1))
    t = np.broadcast_to(np.zeros(1, dtype=int), (rows,))
    with pytest.raises(ValueError, match="at most 2147483647 rows"):
        fit_tree(x, t, max_depth=0, min_leaf=10)


def test_tree_rejects_min_leaf_below_one():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((60, 2))
    t = rng.integers(0, 2, size=60)
    with pytest.raises(ValueError, match="min_leaf"):
        fit_tree(x, t, max_depth=1, min_leaf=0)
    with pytest.raises(ValueError, match="min_leaf"):
        select_propensity(x, t, [{"kind": "tree", "max_depth": 1, "min_leaf": 0}],
                          folds=2, seed=0)


def test_predict_clipping():
    x = np.zeros((30, 1))
    t = np.zeros(30, dtype=int)
    t[0] = 1
    model = fit_knn(x, np.zeros(30, dtype=int) * 0, k=30)
    model.params["ref_t"] = np.zeros(30)
    eta = predict_eta(model, x)
    assert np.all(eta >= DEFAULT_CLIP)
    assert np.all(eta <= 1 - DEFAULT_CLIP)


def test_select_propensity_prefers_fitting_family():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((300, 2))
    prob = 1.0 / (1.0 + np.exp(-4.0 * x[:, 0]))
    t = rng.binomial(1, prob)
    model = select_propensity(x, t, DEFAULT_PROPENSITY_GRID, folds=5, seed=0)
    # a logistic generator: selected model must beat the constant predictor
    eta = predict_eta(model, x)
    const = np.full_like(eta, t.mean())
    assert balanced_cross_entropy(eta, t) < balanced_cross_entropy(const, t)


def test_select_propensity_deterministic():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((100, 2))
    t = rng.integers(0, 2, size=100)
    t[0], t[1] = 0, 1
    a = select_propensity(x, t, DEFAULT_PROPENSITY_GRID, folds=4, seed=9)
    b = select_propensity(x, t, DEFAULT_PROPENSITY_GRID, folds=4, seed=9)
    assert a.to_dict() == b.to_dict()


def spec_major_select(x, t, grid, folds, seed):
    """Reference: each grid member cross-validated in turn through
    `predict_eta`. Returns the refit winner and every (member, fold) loss."""
    fold_idx = _stratified_folds(t, folds, np.random.default_rng(seed))
    losses = []
    for spec in grid:
        losses.append([])
        for f in range(folds):
            val = fold_idx[f]
            trn = np.concatenate([fold_idx[g] for g in range(folds) if g != f])
            if len(val) == 0 or t[trn].sum() in (0, len(trn)):
                continue
            model = _fit_grid_member(spec, x[trn], t[trn])
            losses[-1].append(balanced_cross_entropy(predict_eta(model, x[val]), t[val]))
    winner = int(np.argmin([np.mean(m) if m else np.inf for m in losses]))
    return _fit_grid_member(grid[winner], x, t), losses


@pytest.mark.parametrize("case", ["continuous", "ties", "one_arm_fold"])
def test_select_propensity_matches_a_spec_major_loop(case, monkeypatch):
    rng = np.random.default_rng(12)
    x = rng.standard_normal((150, 3))
    t = (rng.random(150) < 1 / (1 + np.exp(-x[:, 0]))).astype(int)
    if case == "ties":
        x = np.round(x)
    if case == "one_arm_fold":  # the lone treated row's fold trains on one arm
        t[:] = 0
        t[7] = 1
    # k = 500 exceeds every training fold; k = 10 appears twice
    grid = [{"kind": "knn", "k": 10}, {"kind": "lr", "l2": 1e-2}, {"kind": "knn", "k": 3},
            {"kind": "tree", "max_depth": 2, "min_leaf": 5}, {"kind": "knn", "k": 500},
            {"kind": "knn", "k": 10}]
    model, expect = spec_major_select(x, t, grid, 5, seed=4)
    seen = []

    def recording(eta, t_rows):
        loss = balanced_cross_entropy(eta, t_rows)
        if len(t_rows) < len(t) // 2:  # a validation fold, not a logistic fit's rows
            seen.append(loss)
        return loss

    monkeypatch.setattr(propensity, "balanced_cross_entropy", recording)
    got = select_propensity(x, t, grid, folds=5, seed=4)
    assert got.to_dict() == model.to_dict()
    # fold-major: every fold kept scores each member once, in grid order
    assert len(expect[0]) == (4 if case == "one_arm_fold" else 5)
    by_member = np.array(seen).reshape(len(expect[0]), len(grid)).T
    assert by_member.tobytes() == np.array(expect).tobytes()


def test_select_propensity_unpenalized_lr_on_a_separable_fold(monkeypatch):
    # separable by x0 but for one control row among the treated ones: the fold
    # that validates on it trains on separable rows
    rng = np.random.default_rng(9)
    x = rng.standard_normal((150, 2))
    t = (x[:, 0] > 0).astype(int)
    x[0], t[0] = (1.0, 0.0), 0
    fits = []

    def recording(x_rows, t_rows, l2):
        model = train_propensity_lr(x_rows, t_rows, l2)
        fits.append((bool(np.all(x_rows == x[0], axis=1).any()), model))
        return model

    monkeypatch.setattr(propensity, "train_propensity_lr", recording)
    model = select_propensity(x, t, [{"kind": "lr", "l2": 0}], folds=5, seed=0)
    assert len(fits) == 6  # five folds and the refit
    for has_row, fit in fits:
        assert np.all(np.isfinite(fit.params["weights"])) and np.isfinite(fit.params["bias"])
        assert (fit.warning is None) == has_row
    assert model.warning is None
    assert np.all(np.isfinite(predict_eta(model, x)))


def test_select_propensity_knn_peak_memory_is_one_block_search(peak_bytes):
    # about 6000 references per fold. The bound is the largest row block's
    # float64 distances plus its int64 partition indices (5.9 MB here), times
    # a margin of 1.3 for the fold copies and the k-nearest temporaries (the
    # search peaks at 1.16 times the block). A search that still holds the
    # previous row block's distances peaks at about 1.55 times the block.
    rng = np.random.default_rng(5)
    x, t = rng.standard_normal((7500, 10)), rng.integers(0, 2, size=7500)
    grid = [{"kind": "knn", "k": 10}, {"kind": "knn", "k": 30}]
    folds = _stratified_folds(t, 5, np.random.default_rng(0))  # select_propensity's, seed 0
    block_entries = max((rows.stop - rows.start) * (len(t) - len(val))
                     for val in folds for rows in row_blocks(len(val), len(t) - len(val)))
    peak = peak_bytes(select_propensity, x, t, grid, folds=5, seed=0)
    assert peak < 1.3 * block_entries * (8 + 8)
    assert 1.3 * block_entries * (8 + 8) < 2.8 * (1 << 20) * 8  # the bound at 8 MB blocks


def test_select_propensity_tree_peak_memory_frees_each_fold(peak_bytes):
    # two folds: a fold's row copies (x's bytes) and its tree on half the rows,
    # then the refit's tree on all rows, each peak at about 2.2 times x's
    # bytes. Keeping the last fold's copies and models through the refit
    # peaks at 3.2 times.
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5000, 50))
    t = (rng.random(5000) < 1 / (1 + np.exp(-x[:, 0] - x[:, 1]))).astype(int)
    grid = [{"kind": "tree", "max_depth": 3, "min_leaf": 10}]
    peak = peak_bytes(select_propensity, x, t, grid, folds=2, seed=0)
    assert peak < 2.6 * x.nbytes


def test_calibration_table_counts_and_rates():
    x = np.linspace(-2, 2, 100)[:, None]
    rng = np.random.default_rng(5)
    t = rng.binomial(1, 0.5, size=100)
    t[0], t[1] = 0, 1
    model = fit_knn(x, t, k=10)
    table = calibration_table(model, x, t, bins=5)
    assert len(table) == 5
    assert sum(row["count"] for row in table) == 100
    for row in table:
        if row["count"] == 0:
            assert row["mean_eta"] is None
        else:
            lo, hi = row["bin"]
            assert lo - 1e-9 <= row["mean_eta"] <= hi + 1e-9


def test_serialization_round_trip():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((50, 2))
    t = rng.integers(0, 2, size=50)
    t[0], t[1] = 0, 1
    for model in (train_propensity_lr(x, t, 0.01), fit_knn(x, t, 5),
                  fit_tree(x, t, 2, 10)):
        clone = PropensityModel.from_dict(model.to_dict())
        assert np.allclose(predict_eta(clone, x), predict_eta(model, x))


def test_serialization_keeps_warning():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((40, 2))
    t = (x[:, 0] > 0).astype(int)
    model = train_propensity_lr(x, t, 0.0)  # separable rows: no finite optimum
    assert model.warning == "gradient tolerance not reached (possible separation)"
    clone = PropensityModel.from_dict(model.to_dict())
    assert clone.warning == model.warning
    assert PropensityModel.from_dict(fit_knn(x, t, 3).to_dict()).warning is None


@pytest.mark.parametrize("ties", (False, True))
@pytest.mark.parametrize("d", (3, 25, 58))
def test_blocked_knn_predictions_keep_bytes(blocked, d, ties):
    rng = np.random.default_rng(d)
    x, q = 2.0 * rng.standard_normal((400, d)), 2.0 * rng.standard_normal((310, d))
    if ties:
        x, q = np.round(x), np.round(q)
    t = rng.integers(0, 2, size=400)
    for k in (1, 7, 30):
        model = fit_knn(x, t, k)
        whole, parts = blocked(lambda: predict_eta(model, q))
        for got in parts:
            assert got.tobytes() == whole.tobytes()


def test_knn_predicts_zero_rows():
    x = np.random.default_rng(0).standard_normal((20, 2))
    eta = predict_eta(fit_knn(x, np.arange(20) % 2, 3), np.zeros((0, 2)))
    assert eta.shape == (0,)


def test_knn_peak_memory_is_bounded_by_the_block(peak_bytes):
    # unblocked: 72 MB of distances plus 72 MB of argpartition indices
    rng = np.random.default_rng(5)
    model = fit_knn(rng.standard_normal((6000, 10)), rng.integers(0, 2, size=6000), 30)
    q = rng.standard_normal((1500, 10))
    peak = peak_bytes(predict_eta, model, q)
    assert peak < 4 * BLOCK_ENTRIES * 8
