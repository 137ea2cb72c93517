"""Minimal dense neural-network engine on numpy.

Provides the Mlp container, exact reverse-mode backpropagation, Adam with
exponential learning-rate decay on one flat parameter vector and a
spectral-norm based Lipschitz upper bound. No GPU, no stochastic layers.

A step of `pipeline.train_pipeline` allocates no parameter-sized array:
- `backward(..., out=pairs)` writes each layer's weight and bias gradient
  into the given arrays, with `np.matmul(..., out=)` and `g.sum(axis=0,
  out=)`. The pipeline passes views into one flat gradient vector
  laid out like its parameters, so no per-layer pieces are concatenated.
  These are the same GEMM calls and reductions as `a.T @ g` and
  `g.sum(axis=0)`, so the bits do not change. `input_grad=False` skips the
  input gradient of the first layer, which training never reads.
- The cache of `forward_cached` holds one array per layer: each affine
  layer's input (the caller's `x` for the first layer, the previous layer's
  activation, made in place, for the others) and the output it returns.
  With `output_normalization` that output is normalized in place, so no
  pre-normalization copy is kept, and `backward` reads the unit rows from
  it. A caller must therefore write neither `x` nor the returned output
  before `backward`. `unit_rows_grad`, the normalization's backward, builds
  its gradient in one n x k array, with the operations of
  `np.where(norms > 0, (g - sum(g * u) u) / norms, g)` in their order.
- No pre-activation is kept, because ELU's derivative follows from its
  output (Clevert, Unterthiner & Hochreiter, "Fast and Accurate Deep Network
  Learning by Exponential Linear Units", ICLR 2016): for a = elu(u),
  f'(u) = 1 where a >= 0 and a + 1 below, computed as 1 + min(a, 0). Below
  zero this is 1 + expm1(u) where the pre-activation form was exp(u); the
  two differ by at most about 2**-53 absolute, so bits of training change,
  not its arithmetic.
- `backward` consumes its cache: the only arrays it writes are the hidden
  activations it has read, each overwritten by its ELU derivative after its
  layer's weight gradient, never a first layer's input (a pipeline's heads
  read views of the embedding's output there). Each cached input is dropped
  from the cache once read, so activations are freed layer by layer rather
  than when the caller drops the whole cache. Run `forward_cached` again
  before a second `backward`.
- `adam_step` runs over theta in chunks of `ADAM_CHUNK` entries, with a
  scratch of two chunks. Every operation of the step is elementwise, and
  each entry goes through the same 14 operations in the same order as in
  the whole-vector form, so chunking changes the memory traffic, not the
  bits: theta, grad, m, v and the scratch of one chunk stay in cache across
  the 14 passes instead of streaming the whole vector 14 times.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("elu", "identity")


@dataclass
class Mlp:
    """Feed-forward network: affine layers with ELU (or identity) hidden
    activations and an affine output layer, optionally rescaled to unit L2
    norm per example."""

    layer_dims: list[int]
    weights: list[np.ndarray]  # weights[l] has shape (layer_dims[l], layer_dims[l+1])
    biases: list[np.ndarray]
    activation: str = "elu"
    output_normalization: bool = False

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        dims = self.layer_dims
        if len(dims) < 2:
            raise ValueError(f"layer_dims {list(dims)} holds no layer: give at least two "
                             "sizes, the input's and the output's")
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise ValueError("weights/biases do not chain with layer_dims")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[l], dims[l + 1]) or b.shape != (dims[l + 1],):
                raise ValueError(f"layer {l}: shape mismatch with layer_dims")

    @property
    def in_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def out_dim(self) -> int:
        return self.layer_dims[-1]


def mlp_init(
    layer_dims: list[int],
    rng: np.random.Generator,
    activation: str = "elu",
    output_normalization: bool = False,
) -> Mlp:
    """Glorot-uniform weights (+-sqrt(6/(fan_in+fan_out))), zero biases."""
    weights, biases = [], []
    for fi, fo in zip(layer_dims[:-1], layer_dims[1:]):
        bound = np.sqrt(6.0 / (fi + fo))
        weights.append(rng.uniform(-bound, bound, size=(fi, fo)))
        biases.append(np.zeros(fo))
    return Mlp(list(layer_dims), weights, biases, activation, output_normalization)


def elu(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """u where u >= 0, expm1(u) below, as max(u, expm1(min(u, 0))): expm1
    runs on min(u, 0) only and no mask is allocated. The bits equal
    np.where(u >= 0, u, np.expm1(u)) (infinities and subnormals included;
    NaN stays NaN) except at u = -0.0, which gives +0.0. `out` may be `u`
    itself."""
    neg = np.minimum(u, 0.0)
    np.expm1(neg, out=neg)
    return np.maximum(u, neg, out=neg if out is None else out)


def _as_batch(x: np.ndarray, in_dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != in_dim:
        raise ValueError(f"input shape {x.shape} is not an (n, {in_dim}) batch")
    return x


def _forward(mlp: Mlp, x: np.ndarray, keep: bool):
    """The layer loop of `forward` and `forward_cached`: returns (output,
    cache), the cache None unless `keep`. Each layer's result is activated
    in place. Without `keep` the previous activation is released, so only
    about two activations are alive at a time; with it, each activation is
    kept once, as the next layer's input. The output layer's result is a
    fresh array (an Mlp has at least one layer), normalized in place."""
    a = _as_batch(x, mlp.in_dim)
    inputs = []
    last = len(mlp.weights) - 1
    for l, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        if keep:
            inputs.append(a)
        a = a @ w
        a += b
        if l < last and mlp.activation == "elu":
            elu(a, out=a)
    norms = None
    if mlp.output_normalization:
        norms = np.linalg.norm(a, axis=1, keepdims=True)
        a /= np.where(norms > 0, norms, 1.0)
    return a, ((inputs, a, norms) if keep else None)


def forward_cached(mlp: Mlp, x: np.ndarray):
    """Forward pass keeping the per-layer activations needed by backward.

    Returns (output, cache). cache holds the input of each affine layer (for
    a layer past the first, the previous layer's activation), the returned
    output itself (unit rows with `output_normalization`) and the rows'
    norms before normalization. Neither `x` nor the output is copied: do not
    write to either before `backward`.
    """
    return _forward(mlp, x, keep=True)


def forward(mlp: Mlp, x: np.ndarray) -> np.ndarray:
    """Evaluate the network on an (n, d) batch; the bits of
    `forward_cached(mlp, x)[0]`, with no cache kept."""
    out, _ = _forward(mlp, x, keep=False)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("non-finite network output")
    return out


def unit_rows_grad(g: np.ndarray, u: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """The gradient through v -> v / |v| row by row, given g = dL/d(output),
    the unit rows u and the (n, 1) norms |v|: (g - (g.u) u) / |v|, and g
    itself where |v| is not > 0. Built in one new n x k array with the
    operations of np.where(norms > 0, (g - dot * u) / safe, g) in their
    order, so it has that expression's bits; g is not written."""
    out = np.multiply(g, u)
    dot = np.sum(out, axis=1, keepdims=True)
    np.multiply(dot, u, out=out)
    np.subtract(g, out, out=out)
    out /= np.where(norms > 0, norms, 1.0)
    np.copyto(out, g, where=~(norms > 0))
    return out


def backward(mlp: Mlp, cache, upstream: np.ndarray, out=None, input_grad: bool = True):
    """Exact reverse-mode gradients given upstream = dL/d(output), one row
    per row of the cached batch.

    Returns (grad_weights, grad_biases, grad_input); all sums over the batch.
    `out`, one (weight, bias) pair of arrays per layer shaped like the
    layer's, receives the gradients (for example views into one flat
    gradient vector), and the returned lists hold those arrays. With
    `input_grad=False` the input gradient is not computed and is None.

    The cache is consumed. Each hidden activation a = elu(u), once read for
    its layer's weight gradient, is overwritten by ELU's derivative, which
    Clevert et al. (ICLR 2016) give from the output: 1 where a >= 0, a + 1
    below, computed as 1 + min(a, 0). So a cache serves one call, and no
    pre-activation is kept. A layer-0 input, the caller's `x`, is never
    written. Each layer's input entry is set to None once read, so an array
    the cache alone holds is freed before the layers below run.
    """
    upstream = np.asarray(upstream, dtype=float)
    if not np.all(np.isfinite(upstream)):
        raise FloatingPointError("non-finite upstream gradient")
    inputs, output, norms = cache
    g = upstream
    if mlp.output_normalization:
        g = unit_rows_grad(upstream, output, norms)
    n_layers = len(mlp.weights)
    grad_w = [None] * n_layers
    grad_b = [None] * n_layers
    for l in range(n_layers - 1, -1, -1):
        a = inputs[l]
        inputs[l] = None
        if out is None:
            grad_w[l] = a.T @ g
            grad_b[l] = g.sum(axis=0)
        else:
            grad_w[l] = np.matmul(a.T, g, out=out[l][0])
            grad_b[l] = g.sum(axis=0, out=out[l][1])
        if l == 0 and not input_grad:
            return grad_w, grad_b, None
        g = g @ mlp.weights[l].T
        if l > 0 and mlp.activation == "elu":
            np.minimum(a, 0.0, out=a)
            a += 1.0
            g *= a
    return grad_w, grad_b, g


# entries of theta per Adam chunk; the step's six chunk-sized operands (theta,
# grad, m, v and two scratch rows) take 768 KB, inside one core's 2 MB L2.
# Timed on a 246,802-entry theta (Xeon, 2 cores, numpy 2.4.6, median of 300
# steps): one whole-vector chunk 3.3-3.9 ms per step, 2^14 entries 2.4-3.3 ms,
# 2^10 5.5-7.0 ms; 2^13 to 2^16 were within the machine's drift of each other.
ADAM_CHUNK = 1 << 14
# Adam's moment decay rates and denominator offset (Kingma & Ba's defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam accumulators with exponential learning-rate decay
    (effective lr = base_lr * decay_rate ** (step / decay_period)), plus two
    scratch rows of one chunk each so a step allocates nothing."""

    m: np.ndarray
    v: np.ndarray
    step: int
    base_lr: float
    decay_rate: float
    decay_period: int
    scratch: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = np.empty((2, min(np.size(self.m), ADAM_CHUNK)))

    @classmethod
    def for_params(cls, theta: np.ndarray, base_lr: float, decay_rate: float,
                   decay_period: int) -> "AdamState":
        return cls(np.zeros_like(theta), np.zeros_like(theta), 0, base_lr, decay_rate,
                   decay_period)


def adam_step(theta: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    """One Adam update, in place on the flat parameter vector and state,
    ADAM_CHUNK entries at a time."""
    if theta.ndim != 1 or theta.shape != grad.shape or theta.shape != state.m.shape:
        raise ValueError("theta/grad/state shape mismatch")
    lr = state.base_lr * state.decay_rate ** (state.step / state.decay_period)
    t = state.step + 1
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    for start in range(0, theta.size, ADAM_CHUNK):
        c = slice(start, start + ADAM_CHUNK)
        th, g, m, v = theta[c], grad[c], state.m[c], state.v[c]
        a, b = state.scratch[:, : th.size]
        # the operations of m += (1 - b1) * grad, v += (1 - b2) * grad * grad
        # and theta -= lr * m_hat / (sqrt(v_hat) + eps) in their order, so the
        # bits match those expressions
        m *= b1
        m += np.multiply(1 - b1, g, out=a)
        v *= b2
        np.multiply(1 - b2, g, out=a)
        v += np.multiply(a, g, out=a)
        np.divide(m, 1 - b1**t, out=a)
        a *= lr
        np.divide(v, 1 - b2**t, out=b)
        np.sqrt(b, out=b)
        b += eps
        th -= np.divide(a, b, out=a)
    state.step = t


# power iterations of `spectral_norm`, which stops early once sigma moves
# by less than SPECTRAL_TOL
SPECTRAL_ITERS, SPECTRAL_TOL = 50, 1e-7


def spectral_norm(w: np.ndarray) -> float:
    """Largest singular value via power iteration on w^T w."""
    w = np.asarray(w, dtype=float)
    if w.size == 0:
        return 0.0
    v = np.ones(w.shape[1]) / np.sqrt(w.shape[1])
    sigma = 0.0
    for _ in range(SPECTRAL_ITERS):
        u = w @ v
        nu = np.linalg.norm(u)
        if nu == 0:
            return 0.0
        u /= nu
        v = w.T @ u
        new_sigma = np.linalg.norm(v)
        if new_sigma == 0:
            return 0.0
        v /= new_sigma
        if abs(new_sigma - sigma) < SPECTRAL_TOL:
            sigma = new_sigma
            break
        sigma = new_sigma
    return float(sigma)


def lipschitz_upper_bound(mlp: Mlp) -> float:
    """Product of per-layer spectral norms; valid since ELU and identity are
    1-Lipschitz. Exact operator norm for a single affine layer."""
    if mlp.output_normalization:
        raise ValueError("no finite Lipschitz bound with unit-norm output rescaling")
    bound = 1.0
    for w in mlp.weights:
        bound *= spectral_norm(w)
    return bound

