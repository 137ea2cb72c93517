"""Embedding + two-head pipelines, their compound training loss and the
epoch-based trainer with validation retention.

A control-driven pipeline fits its control head on control samples, its
treated head on twin-vote-weighted treated samples, and pulls control samples
toward their latent mirror twins; the treatment-driven role is the exact
mirror image.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field

import numpy as np

from .blas import one_blas_thread
from .data import Dataset, Scaler, SplitIndices, check_field_types, fit_scaler, identity_scaler
from .nn import (ADAM_CHUNK, AdamState, Mlp, adam_step, backward, forward, forward_cached,
                 mlp_init)
from .twin import ArmError, TwinMap, mirror_twins

ROLES = ("control_driven", "treatment_driven")
NETWORKS = ("phi", "h0", "h1")


class TrainingError(RuntimeError):
    pass


@dataclass
class Pipeline:
    """Embedding phi and heads h0, h1, whose parameters live in one float64
    vector `theta`.

    Layout: phi, then h0, then h1; within each network every layer's weight
    matrix (row-major) in layer order, then every layer's bias. Each
    network's `weights[l]` and `biases[l]` is a reshaped view into `theta`,
    so Adam, the L2 term and the best-epoch snapshot each work on one vector.
    `layer_views` cuts any theta-shaped buffer the same way; the gradient of
    `compound_loss_grads` is written through it layer by layer.

    Serialized form (`to_dict`): "phi", "h0" and "h1" hold each network's
    `layer_dims`, `activation` and `output_normalization`; "theta" holds
    base64 of theta as little-endian float64, an exact round trip.

    Ownership: construction copies the networks' values into a fresh `theta`
    and re-points their arrays at it. A second Pipeline built from the same
    networks therefore takes them over, and the first one's `theta` no
    longer moves with them.
    """

    phi: Mlp
    h0: Mlp
    h1: Mlp
    role: str
    scaler: Scaler | None = None  # None: the identity scaler of phi's input
    theta: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        if self.scaler is None:
            self.scaler = identity_scaler(self.phi.in_dim)
        k = self.phi.out_dim
        if self.h0.in_dim != k or self.h1.in_dim != k:
            raise ValueError("head input dim must equal embedding output dim")
        self.theta = np.concatenate([np.ravel(a) for net in self.networks()
                                     for a in net.weights + net.biases], dtype=float)
        for net, views in zip(self.networks(), self.layer_views(self.theta)):
            net.weights[:] = [w for w, _ in views]
            net.biases[:] = [b for _, b in views]

    @property
    def focus_arm(self) -> int:
        return 0 if self.role == "control_driven" else 1

    def networks(self) -> tuple[Mlp, Mlp, Mlp]:
        return self.phi, self.h0, self.h1

    def layer_views(self, buf: np.ndarray) -> list[list[tuple[np.ndarray, np.ndarray]]]:
        """Per network (phi, h0, h1), each layer's (weight, bias) as views
        into the theta-shaped `buf`, at their offsets in the layout above."""
        views, offset = [], 0
        for net in self.networks():
            weights, biases = [], []
            for fan_in, fan_out in zip(net.layer_dims[:-1], net.layer_dims[1:]):
                weights.append(buf[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out))
                offset += fan_in * fan_out
            for fan_out in net.layer_dims[1:]:
                biases.append(buf[offset : offset + fan_out])
                offset += fan_out
            views.append(list(zip(weights, biases)))
        return views

    def to_dict(self) -> dict:
        d = {"role": self.role,
             "theta": base64.b64encode(self.theta.astype("<f8").tobytes()).decode("ascii"),
             "scaler": self.scaler.to_dict()}
        for name, net in zip(NETWORKS, self.networks()):
            d[name] = {"layer_dims": list(net.layer_dims), "activation": net.activation,
                       "output_normalization": net.output_normalization}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Pipeline":
        """Inverse of `to_dict`; a missing, undecodable or wrongly sized
        "theta" raises ValueError."""
        rerun = "rerun `sweep` or `fit` to rewrite the model"
        if "theta" not in d:
            raise ValueError(f"model has no 'theta' field (an older format?); {rerun}")
        try:
            raw = base64.b64decode(d["theta"], validate=True)
        except (ValueError, TypeError) as exc:
            raise ValueError(f"model 'theta' is not valid base64 ({exc}); {rerun}") from None
        # zero networks of the stored shapes let __post_init__ lay out theta;
        # the decoded vector then fills it
        nets = []
        for spec in (d[name] for name in NETWORKS):
            dims = list(spec["layer_dims"])
            nets.append(Mlp(dims, [np.zeros(shape) for shape in zip(dims[:-1], dims[1:])],
                            [np.zeros(n) for n in dims[1:]], spec["activation"],
                            bool(spec["output_normalization"])))
        scaler = Scaler.from_dict(d["scaler"]) if d.get("scaler") else None
        p = cls(*nets, d["role"], scaler)
        if len(raw) != 8 * p.theta.size:
            raise ValueError(f"model 'theta' holds {len(raw)} bytes, but its layer_dims "
                             f"need {8 * p.theta.size}; {rerun}")
        p.theta[:] = np.frombuffer(raw, "<f8")
        return p


@dataclass
class PipelineHyperparams:
    alpha: float = 0.0  # counterfactualizability strength
    beta: float = 0.0  # twin-vote reweighting importance
    gamma: float = 1e-4  # L2 strength
    embed_layers: int = 2
    head_layers: int = 2
    embed_width: int = 20
    head_width: int = 20
    batch_size: int = 100
    epochs: int = 100
    base_lr: float = 1e-2
    normalize_embedding: bool = True
    normalize_heads: bool = False
    decay_rate: float = 0.97
    decay_period: int = 100

    def __post_init__(self):
        check_field_types(self)  # integer fields become int, real ones float
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ValueError("alpha, beta, gamma must be >= 0")
        if min(self.embed_layers, self.head_layers, self.embed_width, self.head_width,
               self.batch_size, self.decay_period, self.base_lr, self.decay_rate) <= 0:
            raise ValueError("layers, widths, batch size, decay period and rate, lr must be > 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


@dataclass
class TrainReport:
    """Per-epoch loss terms and validation factual MSE; index 0 is the
    initialization, index e the state after epoch e."""

    loss_breakdowns: list[dict]
    val_mse: list[float]
    retained_epoch: int


def build_pipeline(d: int, role: str, hp: PipelineHyperparams,
                   rng: np.random.Generator) -> Pipeline:
    phi_dims = [d] + [hp.embed_width] * hp.embed_layers
    head_dims = [hp.embed_width] + [hp.head_width] * (hp.head_layers - 1) + [1]
    phi = mlp_init(phi_dims, rng, "elu", hp.normalize_embedding)
    h0 = mlp_init(head_dims, rng, "elu", hp.normalize_heads)
    h1 = mlp_init(head_dims, rng, "elu", hp.normalize_heads)
    return Pipeline(phi, h0, h1, role)


def _loss_core(p: Pipeline, x, t, y, twinmap: TwinMap | None, hp: PipelineHyperparams,
               batch, views):
    # heads[focus], the own head, fits the focus arm's outcome; heads[1 - focus],
    # the cross head, fits the opposite arm with twin-vote weights. With
    # `views`, the layer views of a theta-shaped buffer, the gradient is
    # written through them, else it is skipped. Only what the loss reads is
    # computed: the focus rows' twins join phi's rows only at alpha > 0, and
    # the twin votes are read only at beta > 0, so either term at 0 needs
    # nothing from the map, and both at 0 need no map.
    for name, value, reads in (("alpha", hp.alpha, "twins"), ("beta", hp.beta, "twin votes")):
        if value > 0 and twinmap is None:
            raise ValueError(f"{name} = {value} > 0 reads the focus arm's {reads}; "
                             "pass the map of mirror_twins(z, t, arm=focus)")
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=int)
    y = np.asarray(y, dtype=float)
    focus = p.focus_arm
    n_focus = int(np.count_nonzero(t == focus))
    n_other = len(t) - n_focus
    batch = np.arange(len(t)) if batch is None else np.asarray(batch, dtype=int)
    heads = (p.h0, p.h1)
    in_focus = t[batch] == focus
    bf, bo = batch[in_focus], batch[~in_focus]
    if n_focus == 0 or n_other == 0:
        raise ArmError("both treatment arms must be non-empty")
    pull = hp.alpha > 0
    # the sorted distinct rows the batch reads, and each row's position in them
    marked = np.zeros(len(t), dtype=bool)
    marked[bf] = True
    marked[bo] = True
    if pull:
        twins = twinmap.twin_index[bf]
        if np.any(twins < 0):
            raise ValueError("twin map holds no twins for the focus arm's rows; "
                             "search it with mirror_twins(z, t, arm=focus)")
        marked[twins] = True
    union = np.flatnonzero(marked)
    position = np.cumsum(marked) - 1
    z_union, cache_phi = forward_cached(p.phi, x[union])
    rf, ro = position[bf], position[bo]

    terms = {}
    pred_f, cache_own = forward_cached(heads[focus], z_union[rf])
    res_f = pred_f[:, 0] - y[bf]
    terms["own_factual"] = float(np.sum(res_f**2)) / n_focus

    pred_o, cache_cross = forward_cached(heads[1 - focus], z_union[ro])
    res_o = pred_o[:, 0] - y[bo]
    # at beta = 0 each weight, 1.0 + 0.0 * votes, is exactly 1.0: no vote is read
    w_o = 1.0 + hp.beta * twinmap.weight[bo] if hp.beta > 0 else 1.0
    denom = n_other + hp.beta * n_focus
    terms["cross_factual"] = float(np.sum(w_o * res_o**2)) / denom

    if pull:
        rm = position[twins]
        diff = z_union[rf] - z_union[rm]
        terms["counterfactualizability"] = hp.alpha / n_focus * float(np.sum(diff**2))
    else:
        terms["counterfactualizability"] = 0.0

    terms["regularization"] = hp.gamma * float(p.theta @ p.theta)
    total = sum(terms.values())
    if views is None:
        return total, terms

    # rf and ro are unique and disjoint, so plain fancy-index adds are exact;
    # an arm with no rows in the batch backpropagates exact zeros.
    phi_views, *head_views = views  # h0, h1
    gz = np.zeros_like(z_union)
    up_f = (2.0 / n_focus) * res_f[:, None]
    up_o = (2.0 / denom) * (w_o * res_o)[:, None]
    # each head's cache and input gradient are released once backpropagated,
    # so phi's backward runs without the heads' cached activations
    _, _, gin = backward(heads[focus], cache_own, up_f, out=head_views[focus])
    del cache_own
    gz[rf] += gin
    _, _, gin = backward(heads[1 - focus], cache_cross, up_o, out=head_views[1 - focus])
    del cache_cross
    gz[ro] += gin
    del gin
    if pull:
        # alpha term: gradient flows through both endpoints, never through
        # the twin index itself; twins (rm) can repeat, so they need a
        # scatter-add
        coef = 2.0 * hp.alpha / n_focus
        gz[rf] += coef * diff
        np.add.at(gz, rm, -coef * diff)
    backward(p.phi, cache_phi, gz, out=phi_views, input_grad=False)
    return total, terms


def compound_loss(p: Pipeline, x: np.ndarray, t: np.ndarray, y: np.ndarray,
                  twinmap: TwinMap | None, hp: PipelineHyperparams,
                  batch: np.ndarray | None = None):
    """Value and per-term breakdown of the compound loss over `batch`
    (defaults to all samples). Normalizers use full-set arm counts so
    batch losses sum to the full loss over an epoch (up to the shared
    regularizer). `twinmap` may be None only at alpha = beta = 0, where the
    loss reads no twin; otherwise ValueError names the hyper-parameter that
    reads it."""
    return _loss_core(p, x, t, y, twinmap, hp, batch, None)


def compound_loss_grads(p: Pipeline, x, t, y, twinmap: TwinMap | None,
                        hp: PipelineHyperparams, batch=None, out=None, views=None):
    """Loss, breakdown and the gradient as one vector laid out like `p.theta`,
    written into `out` when it is given (a float64 array of theta's shape).
    `views` are `p.layer_views(out)`, for a caller that writes into one
    buffer step after step and cuts it once. `twinmap` as in `compound_loss`."""
    grad = np.empty_like(p.theta) if out is None else out
    total, terms = _loss_core(p, x, t, y, twinmap, hp, batch,
                              p.layer_views(grad) if views is None else views)
    # the L2 term 2 * gamma * theta, a chunk at a time: no theta-sized temporary
    coef = 2.0 * hp.gamma
    scaled = np.empty(min(grad.size, ADAM_CHUNK))
    for start in range(0, grad.size, ADAM_CHUNK):
        g = grad[start : start + ADAM_CHUNK]
        g += np.multiply(coef, p.theta[start : start + ADAM_CHUNK], out=scaled[: g.size])
    return total, terms, grad


def predict_mu(p: Pipeline, x: np.ndarray, arm) -> np.ndarray:
    """Factual prediction for the given arm(s) at each row of the (n, d)
    batch x, in original outcome units."""
    z = forward(p.phi, p.scaler.transform_x(x))
    arm = np.broadcast_to(np.asarray(arm, dtype=int), (len(z),))
    out = np.empty(len(z))
    for a, head in ((0, p.h0), (1, p.h1)):
        mask = arm == a
        if mask.any():
            out[mask] = forward(head, z[mask])[:, 0]
    return p.scaler.inverse_y(out)


def predict_tau(p: Pipeline, x: np.ndarray) -> np.ndarray:
    """h1(phi(x)) - h0(phi(x)) at each row of the (n, d) batch x,
    de-standardized to outcome units."""
    z = forward(p.phi, p.scaler.transform_x(x))
    return (forward(p.h1, z)[:, 0] - forward(p.h0, z)[:, 0]) * p.scaler.y_scale


def _val_factual_mse_std(p: Pipeline, x_std, t, y_std) -> float:
    z = forward(p.phi, x_std)
    pred = np.where(t == 1, forward(p.h1, z)[:, 0], forward(p.h0, z)[:, 0])
    return float(np.mean((y_std - pred) ** 2))


@one_blas_thread()
def train_pipeline(dataset: Dataset, split_idx: SplitIndices, role: str,
                   hp: PipelineHyperparams, seed: int) -> tuple[Pipeline, TrainReport]:
    """Epoch loop: search the focus arm's twins (the only ones the loss
    reads) under the current embedding, sweep shuffled minibatches with Adam,
    then score validation factual MSE; the parameters of the best-scoring
    epoch are retained. Runs on one BLAS thread, so the result does not
    depend on the core count.

    At alpha = beta = 0 the loss reads no twin, so no epoch embeds the
    training set or searches twins, and the steps get no map. At alpha = 0
    a step's phi runs on the batch's rows only (`_loss_core`). Both are
    exact in real arithmetic, not in bits: fewer rows change the GEMM tiling
    of phi's products (see `twin`'s docstring). At alpha > 0 nothing
    changes."""
    train_idx = np.asarray(split_idx.train, dtype=int)
    val_idx = np.asarray(split_idx.validation, dtype=int)
    for part, name in ((train_idx, "train"), (val_idx, "validation")):
        ts = dataset.t[part]
        if ts.sum() in (0, len(ts)):
            raise ArmError(f"{name} split has an empty treatment arm")
    # only the rows training reads are standardized, each set once
    scaler = fit_scaler(dataset, train_idx)
    x, t, y = (scaler.transform_x(dataset.x[train_idx]), dataset.t[train_idx],
               scaler.transform_y(dataset.y[train_idx]))
    val = (scaler.transform_x(dataset.x[val_idx]), dataset.t[val_idx],
           scaler.transform_y(dataset.y[val_idx]))
    n = len(train_idx)

    rng = np.random.default_rng(seed)
    p = build_pipeline(dataset.d, role, hp, rng)
    p.scaler = scaler
    state = AdamState.for_params(p.theta, hp.base_lr, hp.decay_rate, hp.decay_period)

    breakdowns: list[dict] = []
    val_mses = [_val_factual_mse_std(p, *val)]
    best_epoch = 0
    best_mse = val_mses[0]
    best_theta = p.theta.copy()
    grad = np.empty_like(p.theta)  # every step's gradient is written here
    views = p.layer_views(grad)
    twinmap = None
    searches = hp.alpha > 0 or hp.beta > 0

    for epoch in range(hp.epochs):
        if searches:
            z = forward(p.phi, x)
            twinmap = mirror_twins(z, t, arm=p.focus_arm)
            del z  # read only by the search; freed before the steps and next epoch's forward
        order = rng.permutation(n)
        epoch_terms = {"own_factual": 0.0, "cross_factual": 0.0,
                       "counterfactualizability": 0.0, "regularization": 0.0}
        n_batches = 0
        for start in range(0, n, hp.batch_size):
            batch = order[start : start + hp.batch_size]
            loss, terms, _ = compound_loss_grads(p, x, t, y, twinmap, hp, batch,
                                                 out=grad, views=views)
            if not np.isfinite(loss):
                bad = [k for k, v in terms.items() if not np.isfinite(v)]
                raise TrainingError(f"non-finite loss at epoch {epoch}; offending terms: {bad}")
            adam_step(p.theta, grad, state)
            for k, v in terms.items():
                epoch_terms[k] += v
            n_batches += 1
        epoch_terms["regularization"] /= max(n_batches, 1)  # shared term, not additive
        breakdowns.append(epoch_terms)
        val_mse = _val_factual_mse_std(p, *val)
        val_mses.append(val_mse)
        if val_mse < best_mse:
            best_mse = val_mse
            best_epoch = epoch + 1
            best_theta[:] = p.theta

    p.theta[:] = best_theta
    return p, TrainReport(breakdowns, val_mses, best_epoch)
