"""Propensity models: logistic-regression gradient and convergence, kNN and
tree oracles, clipping, cross-validated selection and calibration."""

import numpy as np
import pytest

from alrite.propensity import (DEFAULT_CLIP, DEFAULT_PROPENSITY_GRID,
                               PropensityModel, _scan_first_best,
                               balanced_cross_entropy,
                               calibration_table, fit_knn, fit_tree,
                               lr_loss_and_grad, predict_eta,
                               select_propensity, train_propensity_lr)


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


def test_lr_gradient_finite_differences():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n, d = 20, 3
        x = rng.standard_normal((n, d))
        t = rng.integers(0, 2, size=n)
        t[0], t[1] = 0, 1
        w = rng.standard_normal(d)
        b = float(rng.standard_normal())
        l2 = 0.05
        _, gw, gb = lr_loss_and_grad(x, t, w, b, l2)
        h = 1e-6
        for j in range(d):
            wp, wm = w.copy(), w.copy()
            wp[j] += h
            wm[j] -= h
            fd = (lr_loss_and_grad(x, t, wp, b, l2)[0]
                  - lr_loss_and_grad(x, t, wm, b, l2)[0]) / (2 * h)
            assert abs(fd - gw[j]) < 1e-5 * max(1, abs(fd))
        fd_b = (lr_loss_and_grad(x, t, w, b + h, l2)[0]
                - lr_loss_and_grad(x, t, w, b - h, l2)[0]) / (2 * h)
        assert abs(fd_b - gb) < 1e-5 * max(1, abs(fd_b))


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
    assert np.isclose(predict_eta(model, np.array([0.9])), 0.5)
    # query 2.9: neighbors 3.0 (t=0) and 2.0 (t=1) -> 0.5
    model3 = fit_knn(x, t, k=3)
    # query 1.1: neighbors 1.0, 2.0 (t=1), 0.0 (t=0) -> 2/3
    assert np.isclose(predict_eta(model3, np.array([1.1])), 2 / 3)


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
                  fit_tree(x, t, 2)):
        clone = PropensityModel.from_dict(model.to_dict())
        assert np.allclose(predict_eta(clone, x), predict_eta(model, x))


def test_serialization_keeps_warning():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((40, 2))
    t = (x[:, 0] > 0).astype(int)
    model = train_propensity_lr(x, t, 0.0, max_steps=3)
    assert model.warning is not None
    clone = PropensityModel.from_dict(model.to_dict())
    assert clone.warning == model.warning
    assert PropensityModel.from_dict(fit_knn(x, t, 3).to_dict()).warning is None
