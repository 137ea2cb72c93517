"""Network engine tests: finite-difference gradients, optimizer oracle,
spectral norms against numpy's SVD."""

import weakref

import numpy as np
import pytest

from alrite.nn import (ACTIVATIONS, ADAM_CHUNK, AdamState, Mlp, adam_step, backward, elu, elu_grad,
                       forward, forward_cached, lipschitz_upper_bound, mlp_init,
                       spectral_norm, unit_rows_grad)


def finite_diff(f, params, h=1e-6):
    grads = []
    for p in params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            old = p[idx]
            p[idx] = old + h
            up = f()
            p[idx] = old - h
            down = f()
            p[idx] = old
            g[idx] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum.reduce([np.abs(a), np.abs(b),
                                                     np.full_like(a, 1e-6)]))


@pytest.mark.parametrize("activation,normalize", [
    ("elu", False), ("identity", False), ("elu", True),
])
def test_backward_matches_finite_differences(activation, normalize):
    rng = np.random.default_rng(3)
    for trial in range(5):
        dims = [4, 5, 3]
        mlp = mlp_init(dims, rng, activation, normalize)
        for b in mlp.biases:
            b += 0.1 * rng.standard_normal(b.shape)
        x = rng.standard_normal((6, 4))
        target = rng.standard_normal((6, 3))

        def loss():
            out, _ = forward_cached(mlp, x)
            return float(np.sum((out - target) ** 2))

        out, cache = forward_cached(mlp, x)
        gw, gb, gx = backward(mlp, cache, 2.0 * (out - target))
        fd = finite_diff(loss, mlp.weights + mlp.biases)
        for analytic, numeric in zip(list(gw) + list(gb), fd):
            assert rel_err(analytic, numeric) < 1e-5

        # gradient w.r.t. the input as well
        def loss_x():
            out2, _ = forward_cached(mlp, x)
            return float(np.sum((out2 - target) ** 2))

        fd_x = finite_diff(loss_x, [x])[0]
        assert rel_err(gx, fd_x) < 1e-5


@pytest.mark.parametrize("activation,normalize", [
    ("elu", False), ("identity", False), ("elu", True),
])
def test_backward_into_given_arrays_and_without_input_grad_keeps_the_bits(activation,
                                                                          normalize):
    rng = np.random.default_rng(8)
    mlp = mlp_init([5, 7, 6, 3], rng, activation, normalize)
    for b in mlp.biases:
        b += 0.1 * rng.standard_normal(b.shape)
    x = rng.standard_normal((9, 5))
    up = rng.standard_normal((9, 3))
    # backward consumes its cache, so each call gets a fresh one
    gw, gb, gx = backward(mlp, forward_cached(mlp, x)[1], up)
    out = [(np.full_like(w, np.nan), np.full_like(b, np.nan))
           for w, b in zip(mlp.weights, mlp.biases)]
    ow, ob, ox = backward(mlp, forward_cached(mlp, x)[1], up, out=out)
    assert ox.tobytes() == gx.tobytes()
    nw, nb, nx = backward(mlp, forward_cached(mlp, x)[1], up, input_grad=False)
    assert nx is None
    for l, (w, b) in enumerate(out):
        assert ow[l] is w and ob[l] is b
        for got in (w, nw[l]):
            assert got.tobytes() == gw[l].tobytes()
        for got in (b, nb[l]):
            assert got.tobytes() == gb[l].tobytes()


def test_elu_values():
    assert elu(np.array([0.0]))[0] == 0.0
    assert elu(np.array([2.0]))[0] == 2.0
    assert np.isclose(elu(np.array([-1.0]))[0], np.expm1(-1.0))


# +-0, +-inf, NaN, subnormals, the smallest normal, large negatives (expm1
# saturates at -1, exp underflows to 0) and ordinary values
EDGE_VALUES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, -1e-310,
                        2.2250738585072014e-308, -2.2250738585072014e-308, -1e-20,
                        -1.0, 1.0, -40.0, -745.2, -800.0, -1e300, 1e300, 0.5, -0.5])


@pytest.mark.parametrize("copies", (1, 7))  # 7 copies: 140 entries, the vectorized loops too
def test_elu_and_elu_grad_equal_the_where_form(copies):
    u = np.tile(EDGE_VALUES, copies)
    with np.errstate(all="ignore"):
        ref_elu = np.where(u >= 0, u, np.expm1(u))
        ref_grad = np.where(u >= 0, 1.0, np.exp(u))
    in_place = u.copy()
    for got in (elu(u), elu(in_place, out=in_place)):
        assert np.array_equal(np.isnan(got), np.isnan(u))
        same = ~np.isnan(u)
        # bit for bit but at -0.0: the max form gives +0.0 where np.where
        # passes -0.0 through; the two are equal as numbers
        neg_zero = same & (u == 0) & np.signbit(u)
        assert not np.signbit(got[neg_zero]).any()
        keep = same & ~neg_zero
        assert got[keep].tobytes() == ref_elu[keep].tobytes()
    in_place = u.copy()
    for grad in (elu_grad(u), elu_grad(in_place, out=in_place)):
        assert np.array_equal(np.isnan(grad), np.isnan(u))
        same = ~np.isnan(u)
        assert grad[same].tobytes() == ref_grad[same].tobytes()


@pytest.mark.parametrize("rows", (1, 37))
@pytest.mark.parametrize("activation,normalize", [
    ("elu", False), ("identity", False), ("elu", True), ("identity", True),
])
def test_forward_has_the_bits_of_forward_cached(activation, normalize, rows):
    rng = np.random.default_rng(rows)
    mlp = mlp_init([4, 6, 6, 3], rng, activation, normalize)
    for b in mlp.biases:
        b += 0.1 * rng.standard_normal(b.shape)
    x = rng.standard_normal((rows, 4))
    x_before = x.copy()
    assert forward(mlp, x).tobytes() == forward_cached(mlp, x)[0].tobytes()
    assert x.tobytes() == x_before.tobytes()  # the input is never written


def test_forward_keeps_no_per_layer_activations(peak_bytes):
    # 6 layers of width 200 over 5000 rows: each activation takes n*w*8 = 8 MB.
    # Keeping every layer's input and pre-activation, as forward_cached does,
    # peaks above 10 of them; forward holds about two at a time.
    rng = np.random.default_rng(0)
    n, w = 5000, 200
    mlp = mlp_init([w] * 7, rng)
    x = rng.standard_normal((n, w))
    peak = peak_bytes(forward, mlp, x)
    assert peak < 4 * n * w * 8


def test_mlp_refuses_a_network_without_layers():
    # with no layer, forward's in-place normalization would write the input
    for dims in ([3], []):
        with pytest.raises(ValueError, match="holds no layer"):
            Mlp(dims, [], [], "elu", True)
    with pytest.raises(ValueError, match="holds no layer"):
        mlp_init([3], np.random.default_rng(0), "elu", True)


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_normalized_cache_holds_the_returned_output_and_no_raw_copy(activation):
    # an output width (3) no other activation has: the only output-shaped
    # array in the cache is the returned, normalized output itself
    rng = np.random.default_rng(2)
    mlp = mlp_init([4, 6, 5, 3], rng, activation, True)
    x = rng.standard_normal((11, 4))
    out, cache = forward_cached(mlp, x)
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0)
    inputs, pre_acts, *rest = cache
    same_shape = [a for a in inputs + pre_acts + rest if np.shape(a) == out.shape]
    assert len(same_shape) == 1 and same_shape[0] is out


@pytest.mark.parametrize("input_grad", (True, False))
@pytest.mark.parametrize("activation,normalize", [
    ("elu", False), ("identity", False), ("elu", True),
])
def test_consumed_cache_holds_no_activations(activation, normalize, input_grad):
    # each layer's input and pre-activation is dropped once backward has read
    # it, so an array only the cache held is freed before the caller drops
    # the cache (the gradients' bits are pinned by the tests above)
    rng = np.random.default_rng(5)
    mlp = mlp_init([4, 6, 5, 3], rng, activation, normalize)
    x = rng.standard_normal((11, 4))
    _, cache = forward_cached(mlp, x)
    inputs, pre_acts, *_ = cache
    assert len(inputs) == 3 and len(pre_acts) == 2
    hidden = [weakref.ref(a) for a in inputs[1:] + pre_acts]
    backward(mlp, cache, rng.standard_normal((11, 3)), input_grad=input_grad)
    assert inputs == [None] * 3 and pre_acts == [None] * 2
    assert all(ref() is None for ref in hidden)


def where_form(g, u, norms):
    """The normalization backward as one np.where expression."""
    safe = np.where(norms > 0, norms, 1.0)
    dot = np.sum(g * u, axis=1, keepdims=True)
    return np.where(norms > 0, (g - dot * u) / safe, g)


@pytest.mark.parametrize("k", (1, 3, 50, 200))
def test_unit_rows_grad_bit_identical_to_where_form(k):
    # unit rows of outputs spanning many magnitudes, and zero rows, whose
    # norm is 0 and whose gradient passes through unchanged
    rng = np.random.default_rng(k)
    n = 300
    v = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-150, 150, size=(n, 1))
    v[rng.choice(n, 17, replace=False)] = 0.0
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    u = v / np.where(norms > 0, norms, 1.0)
    g = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-8, 4, size=(n, k))
    g_before = g.copy()
    got = unit_rows_grad(g, u, norms)
    assert got.tobytes() == where_form(g, u, norms).tobytes()
    assert got[norms[:, 0] == 0].tobytes() == g[norms[:, 0] == 0].tobytes()
    assert g.tobytes() == g_before.tobytes()  # the upstream is not written


def test_normalized_backward_holds_one_output_sized_scratch(peak_bytes):
    # a wide normalized output over narrow layers: the normalization's
    # backward dominates. Its gradient takes one n x k array here; rebuilding
    # the unit rows beside it and forming each step of the np.where
    # expression as a new array held three at a time.
    rng = np.random.default_rng(4)
    n, k = 2000, 400
    mlp = mlp_init([8, 16, k], rng, "elu", True)
    x = rng.standard_normal((n, 8))
    up = rng.standard_normal((n, k))
    grads = [(np.empty_like(w), np.empty_like(b)) for w, b in zip(mlp.weights, mlp.biases)]
    out, cache = forward_cached(mlp, x)
    peak = peak_bytes(backward, mlp, cache, up, out=grads, input_grad=False)
    assert peak < 1.5 * n * k * 8


def test_forward_one_row_batches_and_batch_agree():
    rng = np.random.default_rng(0)
    mlp = mlp_init([3, 4, 2], rng)
    x = rng.standard_normal((5, 3))
    batch = forward(mlp, x)
    for i in range(5):
        row = forward(mlp, x[i : i + 1])
        assert row.shape == (1, 2)
        assert np.allclose(row[0], batch[i])


def test_forward_rejects_bad_shapes_and_nonfinite():
    rng = np.random.default_rng(0)
    mlp = mlp_init([3, 2], rng)
    with pytest.raises(ValueError):
        forward(mlp, np.zeros(4))
    mlp.weights[0][0, 0] = np.inf
    with pytest.raises(FloatingPointError):
        forward(mlp, np.ones((1, 3)))


def test_output_normalization_unit_norm():
    rng = np.random.default_rng(1)
    mlp = mlp_init([3, 4], rng, "elu", True)
    out = forward(mlp, rng.standard_normal((10, 3)))
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0)


def test_glorot_init_bounds_and_zero_biases():
    rng = np.random.default_rng(2)
    mlp = mlp_init([10, 7], rng)
    bound = np.sqrt(6.0 / 17)
    assert np.all(np.abs(mlp.weights[0]) <= bound)
    assert np.all(mlp.biases[0] == 0)


def test_adam_scalar_oracle():
    # one parameter, constant gradient: replay the textbook update by hand
    p = np.array([1.0])
    g = np.array([0.5])
    state = AdamState.for_params(p, base_lr=0.1, decay_rate=0.97, decay_period=100)
    m = v = 0.0
    ref = 1.0
    for step in range(5):
        lr = 0.1 * 0.97 ** (step / 100)
        m = 0.9 * m + 0.1 * 0.5
        v = 0.999 * v + 0.001 * 0.25
        m_hat = m / (1 - 0.9 ** (step + 1))
        v_hat = v / (1 - 0.999 ** (step + 1))
        ref -= lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        adam_step(p, g, state)
        assert np.isclose(p[0], ref, atol=1e-12)


def test_adam_lr_decay_uses_pre_increment_step():
    p = np.array([0.0])
    state = AdamState.for_params(p, base_lr=1.0, decay_rate=0.5, decay_period=1)
    adam_step(p, np.array([1.0]), state)
    # first step uses lr = 1.0 * 0.5**0 = 1.0; bias-corrected update is -lr
    assert np.isclose(p[0], -1.0 / (1.0 + 1e-8))


def adam_against_expression_form(n):
    # the buffered step against the plain array expressions it replaces,
    # with decay, over gradients spanning many magnitudes
    rng = np.random.default_rng(3)
    theta = rng.standard_normal(n)
    ref = theta.copy()
    state = AdamState.for_params(theta, base_lr=0.01, decay_rate=0.97, decay_period=7)
    m, v = np.zeros_like(ref), np.zeros_like(ref)
    for step in range(40):
        grad = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 4, size=n)
        lr = 0.01 * 0.97 ** (step / 7)
        t = step + 1
        m *= 0.9
        m += (1 - 0.9) * grad
        v *= 0.999
        v += (1 - 0.999) * grad * grad
        m_hat = m / (1 - 0.9**t)
        v_hat = v / (1 - 0.999**t)
        ref -= lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        adam_step(theta, grad, state)
        assert theta.tobytes() == ref.tobytes(), step
    assert state.scratch.shape == (2, min(n, ADAM_CHUNK))
    assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()


def test_adam_step_bit_identical_to_expression_form():
    adam_against_expression_form(1000)  # below one chunk


def test_chunked_adam_step_bit_identical_to_expression_form():
    # three whole chunks and a ragged tail: a boundary that skipped or
    # repeated an entry would leave it unchanged or step it twice
    adam_against_expression_form(3 * ADAM_CHUNK + 123)


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(4)
    for shape in [(3, 3), (5, 2), (2, 7)]:
        w = rng.standard_normal(shape)
        assert np.isclose(spectral_norm(w), np.linalg.svd(w, compute_uv=False)[0],
                          rtol=1e-6)


def test_lipschitz_upper_bound_products_and_refusal():
    rng = np.random.default_rng(5)
    mlp = mlp_init([3, 4, 2], rng)
    expected = np.prod([np.linalg.svd(w, compute_uv=False)[0] for w in mlp.weights])
    assert np.isclose(lipschitz_upper_bound(mlp), expected, rtol=1e-6)
    mlp.output_normalization = True
    with pytest.raises(ValueError):
        lipschitz_upper_bound(mlp)


def test_lipschitz_bound_empirically_valid():
    rng = np.random.default_rng(6)
    mlp = mlp_init([2, 8, 1], rng)
    bound = lipschitz_upper_bound(mlp)
    a = rng.standard_normal((200, 2))
    b = a + 1e-3 * rng.standard_normal((200, 2))
    num = np.linalg.norm(forward(mlp, a) - forward(mlp, b), axis=1)
    den = np.linalg.norm(a - b, axis=1)
    assert np.all(num <= bound * den + 1e-12)

