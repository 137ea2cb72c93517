"""Compound loss: term-by-term scalar oracle, finite-difference gradients,
role mirror symmetry, batch additivity, the flat parameter layout, its
serialized form and the training loop."""

import base64
import itertools
import json

import numpy as np
import pytest

from alrite.data import SplitIndices, generate_ihdp_like, identity_scaler, split
from alrite.nn import ADAM_CHUNK, backward, forward, forward_cached
from alrite.pipeline import (ROLES, Pipeline, PipelineHyperparams, build_pipeline,
                             compound_loss, compound_loss_grads, predict_mu,
                             predict_tau, train_pipeline)
from alrite.propensity import fit_knn, predict_eta, train_propensity_lr
from alrite.twin import mirror_twins


# (alpha, beta): both terms that read the twin map, the twin votes alone, and
# neither, where the loss takes no map
TWIN_READS = ((0.7, 0.4), (0.0, 0.4), (0.0, 0.0))


def tiny_instance(seed, n=14, d=3, normalize=False, role="control_driven", layers=1,
                  width=4, alpha=0.7, beta=0.4):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    t = rng.integers(0, 2, size=n)
    t[0], t[1] = 0, 1
    y = rng.standard_normal(n)
    hp = PipelineHyperparams(alpha=alpha, beta=beta, gamma=0.01, embed_layers=layers,
                             head_layers=layers, embed_width=width, head_width=width,
                             batch_size=n, epochs=3, normalize_embedding=normalize)
    p = build_pipeline(d, role, hp, rng)
    for net in p.networks():
        for b in net.biases:
            b += 0.1 * rng.standard_normal(b.shape)
    z = forward(p.phi, x)
    tm = mirror_twins(z, t)
    return x, t, y, p, tm, hp


def test_loss_terms_scalar_oracle():
    x, t, y, p, tm, hp = tiny_instance(0)
    total, terms = compound_loss(p, x, t, y, tm, hp)
    z = forward(p.phi, x)
    n0 = int(np.sum(t == 0))
    n1 = len(t) - n0
    # one-row batches: each sample's head output on its own
    own = sum((float(forward(p.h0, z[i : i + 1])[0, 0]) - y[i]) ** 2
              for i in range(len(t)) if t[i] == 0) / n0
    cross = sum((1 + hp.beta * tm.weight[i]) * (float(forward(p.h1, z[i : i + 1])[0, 0]) - y[i]) ** 2
                for i in range(len(t)) if t[i] == 1) / (n1 + hp.beta * n0)
    cf = hp.alpha / n0 * sum(np.sum((z[i] - z[tm.twin_index[i]]) ** 2)
                             for i in range(len(t)) if t[i] == 0)
    reg = hp.gamma * sum(float(np.sum(a * a)) for net in p.networks()
                         for a in net.weights + net.biases)
    assert np.isclose(terms["own_factual"], own)
    assert np.isclose(terms["cross_factual"], cross)
    assert np.isclose(terms["counterfactualizability"], cf)
    assert np.isclose(terms["regularization"], reg)
    assert np.isclose(total, own + cross + cf + reg)


@pytest.mark.parametrize("normalize", [False, True])
def test_compound_loss_gradients_finite_differences(normalize):
    # every role and every TWIN_READS setting on the whole set and on
    # single-arm minibatches, where one head sees no rows and must get an
    # exact zero gradient; at alpha = beta = 0 without a twin map
    for role, (alpha, beta) in itertools.product(ROLES, TWIN_READS):
        x, t, y, p, tm, hp = tiny_instance(1, normalize=normalize, role=role, alpha=alpha,
                                           beta=beta)
        if alpha == beta == 0:
            tm = None
        for rows, batch in (("all", None), ("control", np.flatnonzero(t == 0)),
                            ("treated", np.flatnonzero(t == 1))):
            _, _, grad = compound_loss_grads(p, x, t, y, tm, hp, batch)
            assert grad.shape == p.theta.shape
            h = 1e-6
            worst = 0.0
            for i in range(p.theta.size):
                old = p.theta[i]
                p.theta[i] = old + h
                up, _ = compound_loss(p, x, t, y, tm, hp, batch=batch)
                p.theta[i] = old - h
                down, _ = compound_loss(p, x, t, y, tm, hp, batch=batch)
                p.theta[i] = old
                fd = (up - down) / (2 * h)
                worst = max(worst, abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-6))
            assert worst < 1e-4, (role, alpha, beta, rows, worst)


def concatenated_grads(p, x, t, y, tm, hp, batch):
    """The gradient as concatenated per-network `backward` results plus the
    L2 term: the form that `compound_loss_grads` writes in place."""
    focus = p.focus_arm
    n_focus = int(np.sum(t == focus))
    denom = len(t) - n_focus + hp.beta * n_focus
    bf, bo = batch[t[batch] == focus], batch[t[batch] == 1 - focus]
    # phi runs on the batch's focus rows, then its other rows, then, only
    # when the alpha term reads them, the focus rows' twins outside the batch
    twins = tm.twin_index[bf] if hp.alpha > 0 else np.array([], dtype=int)
    rows = np.concatenate([bf, bo, np.setdiff1d(twins, batch)])
    z, cache_phi = forward_cached(p.phi, x[rows])
    rf, ro, rm = ([int(np.flatnonzero(rows == i)[0]) for i in part] for part in (bf, bo, twins))
    heads, head_grads = (p.h0, p.h1), [None, None]
    gz = np.zeros_like(z)
    # the own head's rows weigh 1.0, an exact factor, as do the cross head's
    # at beta = 0
    votes = 1.0 + hp.beta * tm.weight[bo] if hp.beta > 0 else 1.0
    for arm, rows, b, weight, norm in ((focus, rf, bf, 1.0, n_focus),
                                       (1 - focus, ro, bo, votes, denom)):
        pred, cache = forward_cached(heads[arm], z[rows])
        up = (2.0 / norm) * (weight * (pred[:, 0] - y[b]))[:, None]
        gw, gb, gin = backward(heads[arm], cache, up)
        head_grads[arm] = gw + gb
        gz[rows] += gin
    if hp.alpha > 0:
        diff = z[rf] - z[rm]
        coef = 2.0 * hp.alpha / n_focus
        gz[rf] += coef * diff
        np.add.at(gz, rm, -coef * diff)
    gw, gb, _ = backward(p.phi, cache_phi, gz)
    grad = np.concatenate([g.ravel() for g in gw + gb + head_grads[0] + head_grads[1]])
    return grad + 2.0 * hp.gamma * p.theta


@pytest.mark.parametrize("width", (4, 130))  # 130: theta spans several L2-term chunks
@pytest.mark.parametrize("normalize", (False, True))
def test_gradient_written_in_place_equals_concatenated_backward_results(normalize, width):
    for role, (alpha, beta) in itertools.product(ROLES, TWIN_READS):
        x, t, y, p, tm, hp = tiny_instance(3, normalize=normalize, role=role, layers=2,
                                           width=width, alpha=alpha, beta=beta)
        assert p.theta.size > 3 * ADAM_CHUNK or width == 4
        focus_twins = tm.twin_index[t == p.focus_arm]
        assert len(np.unique(focus_twins)) < len(focus_twins)  # repeated twins
        if alpha == beta == 0:
            tm = None
        out = np.full_like(p.theta, np.nan)  # every entry must be written
        for batch in (np.arange(len(t)), np.arange(0, 9), np.flatnonzero(t == 0),
                      np.flatnonzero(t == 1)):
            expect = concatenated_grads(p, x, t, y, tm, hp, batch)
            _, _, grad = compound_loss_grads(p, x, t, y, tm, hp, batch)
            assert grad.tobytes() == expect.tobytes(), (role, alpha, beta, batch)
            _, _, reused = compound_loss_grads(p, x, t, y, tm, hp, batch, out=out)
            assert reused is out and out.tobytes() == expect.tobytes(), \
                (role, alpha, beta, batch)
            out[:] = np.nan  # the views cut once, as train_pipeline passes them
            compound_loss_grads(p, x, t, y, tm, hp, batch, out=out, views=p.layer_views(out))
            assert out.tobytes() == expect.tobytes(), (role, alpha, beta, batch)


@pytest.mark.parametrize("alpha,beta,needs", [(0.7, 0.0, "alpha"), (0.0, 0.4, "beta"),
                                              (0.7, 0.4, "alpha")])
def test_loss_without_a_twin_map_is_refused_where_a_term_reads_it(alpha, beta, needs):
    x, t, y, p, _, hp = tiny_instance(4, alpha=alpha, beta=beta)
    for call in (lambda: compound_loss(p, x, t, y, None, hp),
                 lambda: compound_loss_grads(p, x, t, y, None, hp)):
        with pytest.raises(ValueError, match=f"^{needs} = "):
            call()


def test_networks_are_views_into_theta_at_layout_offsets():
    _, _, _, p, _, _ = tiny_instance(7)
    offset = 0
    for net in (p.phi, p.h0, p.h1):
        for a in net.weights + net.biases:
            assert np.shares_memory(a, p.theta)
            assert a.ctypes.data == p.theta.ctypes.data + offset * p.theta.itemsize
            assert np.array_equal(a.ravel(), p.theta[offset : offset + a.size])
            offset += a.size
    assert offset == p.theta.size
    p.theta[0] = 5.0
    assert p.phi.weights[0][0, 0] == 5.0


def test_pipeline_copy_owns_its_theta():
    _, _, _, p, _, _ = tiny_instance(8)
    q = Pipeline.from_dict(p.to_dict())
    assert np.array_equal(q.theta, p.theta)
    q_arrays = [q.theta] + [a for net in q.networks() for a in net.weights + net.biases]
    p_arrays = [p.theta] + [a for net in p.networks() for a in net.weights + net.biases]
    for a in q_arrays:
        assert not any(np.shares_memory(a, b) for b in p_arrays)
    for a in q_arrays[1:]:
        assert np.shares_memory(a, q.theta)


def test_theta_round_trips_through_dict_bit_exact():
    # one-layer networks; signed zeros, infinities, NaN and subnormals
    _, _, _, p, _, _ = tiny_instance(9)
    assert [len(net.weights) for net in p.networks()] == [1, 1, 1]
    special = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, np.finfo(float).max]
    p.theta[: len(special)] = special
    d = json.loads(json.dumps(p.to_dict()))
    assert set(d["phi"]) == {"layer_dims", "activation", "output_normalization"}
    assert base64.b64decode(d["theta"]) == p.theta.astype("<f8").tobytes()
    clone = Pipeline.from_dict(d)
    assert clone.theta.dtype == np.float64
    assert clone.theta.tobytes() == p.theta.tobytes()


def test_loaded_theta_is_owned_and_writable():
    _, _, _, p, _, _ = tiny_instance(11)
    clone = Pipeline.from_dict(p.to_dict())
    assert clone.theta.flags.owndata and clone.theta.flags.writeable
    for net in clone.networks():
        for a in net.weights + net.biases:
            assert np.shares_memory(a, clone.theta) and a.flags.writeable
    clone.theta[0] += 1.0
    assert clone.phi.weights[0][0, 0] == p.theta[0] + 1.0


def test_networks_round_trip_through_dict():
    rng = np.random.default_rng(7)
    hp = PipelineHyperparams(embed_layers=2, head_layers=2, embed_width=5, head_width=4,
                             normalize_embedding=True)
    p = build_pipeline(3, "control_driven", hp, rng)
    # built without a scaler: it carries the identity one, as does a file
    # whose "scaler" is null
    d = p.to_dict()
    assert d["scaler"] == identity_scaler(3).to_dict()
    assert Pipeline.from_dict({**d, "scaler": None}).to_dict() == d
    clone = Pipeline.from_dict(d)
    x = rng.standard_normal((4, 3))
    for net, other in zip(p.networks(), clone.networks()):
        assert (net.layer_dims, net.activation, net.output_normalization) == \
            (other.layer_dims, other.activation, other.output_normalization)
    z = forward(p.phi, x)
    assert np.array_equal(z, forward(clone.phi, x))
    assert np.array_equal(forward(p.h0, z), forward(clone.h0, z))
    assert np.array_equal(forward(p.h1, z), forward(clone.h1, z))


@pytest.mark.parametrize("edit,fragment", [
    (lambda d: d.pop("theta"), "no 'theta'"),
    (lambda d: d.update(theta=d["theta"][:-4] + "!!!!"), "not valid base64"),
    (lambda d: d.update(theta=[0.0, 1.0]), "not valid base64"),
    (lambda d: d.update(theta=d["theta"][:-12]), "layer_dims"),
    (lambda d: d["h1"].update(layer_dims=[4, 5, 1]), "layer_dims"),
])
def test_malformed_theta_raises_value_error(edit, fragment):
    _, _, _, p, _, _ = tiny_instance(12)
    d = p.to_dict()
    edit(d)
    with pytest.raises(ValueError, match=fragment) as info:
        Pipeline.from_dict(d)
    assert "rerun `sweep` or `fit`" in str(info.value)


def test_role_mirror_symmetry():
    x, t, y, p, tm, hp = tiny_instance(2)
    p_treat = Pipeline(p.phi, p.h0, p.h1, "treatment_driven")
    p_mirror = Pipeline(p.phi, p.h1, p.h0, "control_driven")
    total_a, _ = compound_loss(p_treat, x, t, y, tm, hp)
    total_b, _ = compound_loss(p_mirror, x, 1 - t, y, tm, hp)
    assert np.isclose(total_a, total_b)


def test_loss_refuses_a_map_searched_for_the_other_arm():
    x, t, y, p, _, hp = tiny_instance(2)
    z = forward(p.phi, x)
    own = mirror_twins(z, t, arm=p.focus_arm)
    assert compound_loss(p, x, t, y, own, hp) == compound_loss(p, x, t, y, mirror_twins(z, t), hp)
    other = mirror_twins(z, t, arm=1 - p.focus_arm)
    with pytest.raises(ValueError, match="focus arm"):
        compound_loss(p, x, t, y, other, hp)


def test_batch_losses_sum_to_full_loss():
    x, t, y, p, tm, hp = tiny_instance(3)
    full, terms = compound_loss(p, x, t, y, tm, hp)
    reg = terms["regularization"]
    batches = [np.arange(0, 7), np.arange(7, len(t))]
    part = sum(compound_loss(p, x, t, y, tm, hp, batch=b)[0] for b in batches)
    # the regularizer is shared, every other term is additive over batches
    assert np.isclose(part, full + reg)


def test_focus_arm_orientation():
    x, t, y, p, tm, hp = tiny_instance(4)
    assert p.focus_arm == 0
    # zeroing the treated arm's head must not change the own-factual term
    _, terms = compound_loss(p, x, t, y, tm, hp)
    p2 = Pipeline.from_dict(p.to_dict())
    for w in p2.h1.weights:
        w[...] = 0.0
    _, terms2 = compound_loss(p2, x, t, y, tm, hp)
    assert np.isclose(terms["own_factual"], terms2["own_factual"])
    assert not np.isclose(terms["cross_factual"], terms2["cross_factual"])


def test_predict_tau_is_head_difference():
    x, t, y, p, tm, hp = tiny_instance(5)
    z = forward(p.phi, x)
    expect = forward(p.h1, z)[:, 0] - forward(p.h0, z)[:, 0]
    assert np.allclose(predict_tau(p, x), expect)
    assert predict_tau(p, x[:1]).shape == (1,)
    assert np.isclose(predict_tau(p, x[:1])[0], expect[0])


def test_one_dimensional_input_raises():
    # a single sample is a one-row batch; a vector is refused, not promoted,
    # and so is a batch of one column, which the scaler would broadcast
    x, t, y, p, tm, hp = tiny_instance(7)
    p.scaler = identity_scaler(x.shape[1])
    for fn in (lambda v: forward(p.phi, v), lambda v: predict_tau(p, v),
               lambda v: predict_mu(p, v, 0)):
        for bad in (x[0], x[:, :1]):
            with pytest.raises(ValueError):
                fn(bad)
    for eta in (fit_knn(x, t, k=3), train_propensity_lr(x, t, 0.1)):
        assert predict_eta(eta, x[:1]).shape == (1,)
        with pytest.raises(ValueError):
            predict_eta(eta, x[0])


def test_predict_mu_per_arm():
    x, t, y, p, tm, hp = tiny_instance(6)
    z = forward(p.phi, x)
    mu = predict_mu(p, x, t)
    expect = np.where(t == 1, forward(p.h1, z)[:, 0], forward(p.h0, z)[:, 0])
    assert np.allclose(mu, expect)


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        PipelineHyperparams(alpha=-1)
    with pytest.raises(ValueError):
        PipelineHyperparams(embed_layers=0)
    with pytest.raises(ValueError):
        PipelineHyperparams(base_lr=0)
    with pytest.raises(ValueError, match="integers"):
        PipelineHyperparams(epochs=2.5)


def test_train_pipeline_smoke_and_retention():
    ds, _ = generate_ihdp_like(0, n=120, d=4, noise_scale=0.3)
    sp = split(ds, 0.2, 0.3, 0)
    hp = PipelineHyperparams(alpha=0.1, beta=0.1, embed_layers=1, head_layers=1,
                             batch_size=50, epochs=12)
    p, report = train_pipeline(ds, sp, "control_driven", hp, seed=0)
    assert len(report.val_mse) == 13  # init + 12 epochs
    assert report.retained_epoch == int(np.argmin(report.val_mse))
    # retained parameters must reproduce the best validation score
    best = min(report.val_mse)
    val = sp.validation
    mse = np.mean((ds.y[val] - predict_mu(p, ds.x[val], ds.t[val])) ** 2)
    # mse is in original units, val_mse in standardized units
    assert np.isclose(mse / p.scaler.y_scale**2, best, rtol=1e-9)
    assert np.all(np.isfinite(predict_tau(p, ds.x[sp.test])))


def test_train_pipeline_peak_memory_holds_each_activation_once(peak_bytes):
    # phi 2x200 and heads 3x200 with one batch of all n = 419 training rows,
    # the largest member architecture of the default grids' sweep draws.
    # Five theta-sized vectors live through training (theta, its gradient,
    # Adam's two moments, the best epoch's snapshot); the rest of the peak is
    # n x width activations. A step that keeps the pre-normalization
    # embedding, the head caches through phi's backward and the epoch
    # embedding through the steps peaks at 15.9 of them; this one at 12.2.
    ds, _ = generate_ihdp_like(1, n=747)
    sp = split(ds, 0.2, 0.3, 0)
    n, width = len(sp.train), 200
    hp = PipelineHyperparams(alpha=1.0, beta=1.0, embed_layers=2, head_layers=3,
                             embed_width=width, head_width=width, batch_size=500, epochs=3)
    theta = build_pipeline(ds.d, "control_driven", hp, np.random.default_rng(0)).theta
    peak = peak_bytes(train_pipeline, ds, sp, "control_driven", hp, seed=0)
    assert peak < 5 * theta.nbytes + 14 * n * width * 8


def test_train_pipeline_peak_memory_holds_one_array_per_layer(peak_bytes):
    # the shape above. Beyond the five theta-sized vectors, a step that
    # caches each hidden layer's pre-activation beside its activation and
    # gathers a copy of phi's output for each head peaks at 10.6 n x width
    # activations; caching one array per layer, ELU's backward reading its
    # output and the heads reading phi's output in place, at 7.4.
    ds, _ = generate_ihdp_like(1, n=747)
    sp = split(ds, 0.2, 0.3, 0)
    n, width = len(sp.train), 200
    hp = PipelineHyperparams(alpha=1.0, beta=1.0, embed_layers=2, head_layers=3,
                             embed_width=width, head_width=width, batch_size=500, epochs=3)
    theta = build_pipeline(ds.d, "control_driven", hp, np.random.default_rng(0)).theta
    peak = peak_bytes(train_pipeline, ds, sp, "control_driven", hp, seed=0)
    assert peak < 5 * theta.nbytes + 9 * n * width * 8


def test_train_pipeline_deterministic():
    ds, _ = generate_ihdp_like(1, n=100, d=3, noise_scale=0.3)
    sp = split(ds, 0.2, 0.3, 1)
    hp = PipelineHyperparams(embed_layers=1, head_layers=1, batch_size=50, epochs=4)
    pa, _ = train_pipeline(ds, sp, "treatment_driven", hp, seed=5)
    pb, _ = train_pipeline(ds, sp, "treatment_driven", hp, seed=5)
    assert np.array_equal(predict_tau(pa, ds.x), predict_tau(pb, ds.x))


def test_train_rejects_degenerate_split():
    ds, _ = generate_ihdp_like(2, n=100, d=3)
    sp = split(ds, 0.2, 0.3, 0)
    bad = SplitIndices(np.flatnonzero(ds.t == 0)[:30], sp.validation, sp.test)
    hp = PipelineHyperparams(epochs=1)
    with pytest.raises(Exception, match="arm"):
        train_pipeline(ds, bad, "control_driven", hp, seed=0)
