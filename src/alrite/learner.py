"""The twin-pipeline estimator: trains a control-driven pipeline, a
treatment-driven pipeline and a propensity model, and aggregates their
effect estimates through the propensity score. Also the top-K and
softmax-weighted ensembles over sweep members, and the propensity
sensitivity check for the aggregation step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, SplitIndices
from .pipeline import (Pipeline, PipelineHyperparams, TrainReport, predict_mu,
                       predict_tau, train_pipeline)
from .propensity import (DEFAULT_CLIP, DEFAULT_PROPENSITY_GRID, PropensityModel,
                         predict_eta, select_propensity)


@dataclass
class AlriteModel:
    p0: Pipeline  # control-driven
    p1: Pipeline  # treatment-driven
    eta: PropensityModel
    clip: float = DEFAULT_CLIP

    def __post_init__(self):
        if self.p0.role != "control_driven" or self.p1.role != "treatment_driven":
            raise ValueError("p0 must be control-driven and p1 treatment-driven")

    def to_dict(self) -> dict:
        return {"p0": self.p0.to_dict(), "p1": self.p1.to_dict(),
                "eta": self.eta.to_dict(), "clip": self.clip}

    @classmethod
    def from_dict(cls, d: dict) -> "AlriteModel":
        return cls(Pipeline.from_dict(d["p0"]), Pipeline.from_dict(d["p1"]),
                   PropensityModel.from_dict(d["eta"]), d.get("clip", DEFAULT_CLIP))


def _blend(eta_hat, v0, v1):
    """(1 - eta_hat) v0 + eta_hat v1: the control-driven estimate v0 and the
    treatment-driven estimate v1 weighted by the propensity."""
    return (1.0 - eta_hat) * v0 + eta_hat * v1


def aggregate_tau(p0: Pipeline, p1: Pipeline, eta: PropensityModel,
                  x: np.ndarray, clip: float = DEFAULT_CLIP):
    """tau_hat(x) = (1 - eta_hat(x)) tau0(x) + eta_hat(x) tau1(x)."""
    return _blend(predict_eta(eta, x, clip), predict_tau(p0, x), predict_tau(p1, x))


def aggregate_mu(p0: Pipeline, p1: Pipeline, eta: PropensityModel,
                 x: np.ndarray, arm, clip: float = DEFAULT_CLIP):
    """Factual prediction of the aggregated candidate: the two pipelines'
    arm predictions combined with the same propensity weights as tau_hat."""
    return _blend(predict_eta(eta, x, clip), predict_mu(p0, x, arm), predict_mu(p1, x, arm))


def alrite_fit(dataset: Dataset, split: SplitIndices,
               hp0: PipelineHyperparams, hp1: PipelineHyperparams,
               propensity_grid=DEFAULT_PROPENSITY_GRID, seed: int = 0,
               clip: float = DEFAULT_CLIP,
               ) -> tuple[AlriteModel, dict[str, TrainReport]]:
    """Three independent trainings from per-trainer seed streams derived
    from the master seed."""
    s0, s1, s_eta = np.random.SeedSequence(seed).generate_state(3)
    p0, rep0 = train_pipeline(dataset, split, "control_driven", hp0, int(s0))
    p1, rep1 = train_pipeline(dataset, split, "treatment_driven", hp1, int(s1))
    train_idx = np.asarray(split.train, dtype=int)
    eta = select_propensity(dataset.x[train_idx], dataset.t[train_idx],
                            propensity_grid, folds=5, seed=int(s_eta), clip=clip)
    return AlriteModel(p0, p1, eta, clip), {"p0": rep0, "p1": rep1}


def alrite_predict(model: AlriteModel, x: np.ndarray):
    return aggregate_tau(model.p0, model.p1, model.eta, x, model.clip)


def eta_sensitivity_check(model: AlriteModel, eta_true: np.ndarray,
                          dataset: Dataset, tau_true: np.ndarray):
    """Both sides of the aggregation sensitivity inequality
    ||tau_hat - tau_eta|| <= ||eta_hat - eta|| (||tau0 - tau|| + ||tau1 - tau||)
    with unnormalized L2 norms over the dataset."""
    if eta_true is None or tau_true is None:
        raise ValueError("unsupported dataset: true eta and tau are required")
    eta_true = np.asarray(eta_true, dtype=float)
    tau_true = np.asarray(tau_true, dtype=float)
    x = dataset.x
    tau0 = np.atleast_1d(predict_tau(model.p0, x))
    tau1 = np.atleast_1d(predict_tau(model.p1, x))
    eta_hat = np.atleast_1d(predict_eta(model.eta, x, model.clip))
    tau_hat = _blend(eta_hat, tau0, tau1)
    tau_oracle_eta = _blend(eta_true, tau0, tau1)

    def norm(v):
        return float(np.sqrt(np.sum(v**2)))

    lhs = norm(tau_hat - tau_oracle_eta)
    rhs = norm(eta_hat - eta_true) * (norm(tau0 - tau_true) + norm(tau1 - tau_true))
    return lhs, rhs


@dataclass
class EnsembleModel:
    """Sweep members per arm, ranked by increasing validation mu-risk, with
    either a top-K average or softmax weighting over those risks."""

    members0: list[Pipeline]
    members1: list[Pipeline]
    eta: PropensityModel
    mode: str  # top_k | softmax
    param: float  # K for top_k, lambda for softmax
    mu_risks0: list[float]
    mu_risks1: list[float]
    clip: float = DEFAULT_CLIP

    def __post_init__(self):
        if self.mode not in ("top_k", "softmax"):
            raise ValueError(f"unknown ensemble mode {self.mode!r}")
        if len(self.members0) != len(self.mu_risks0) or len(self.members1) != len(self.mu_risks1):
            raise ValueError("one mu-risk per member required")
        for risks in (self.mu_risks0, self.mu_risks1):
            if any(b < a for a, b in zip(risks, risks[1:])):
                raise ValueError("members must be sorted by increasing mu-risk")
            if not all(np.isfinite(risks)):
                raise ValueError("member mu-risks must be finite")
        if self.mode == "top_k":
            k = int(self.param)
            if not 1 <= k <= min(len(self.members0), len(self.members1)):
                raise ValueError("K out of range")
        elif self.param <= 0:
            raise ValueError("lambda must be positive")

    def to_dict(self) -> dict:
        return {
            "members0": [p.to_dict() for p in self.members0],
            "members1": [p.to_dict() for p in self.members1],
            "eta": self.eta.to_dict(),
            "mode": self.mode,
            "param": self.param,
            "mu_risks0": list(map(float, self.mu_risks0)),
            "mu_risks1": list(map(float, self.mu_risks1)),
            "clip": self.clip,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EnsembleModel":
        return cls([Pipeline.from_dict(m) for m in d["members0"]],
                   [Pipeline.from_dict(m) for m in d["members1"]],
                   PropensityModel.from_dict(d["eta"]), d["mode"], d["param"],
                   d["mu_risks0"], d["mu_risks1"], d.get("clip", DEFAULT_CLIP))


def rank_members(pipelines: list[Pipeline],
                 risks) -> tuple[list[Pipeline], list[float]]:
    """Sort sweep members by increasing validation factual MSE `risks`
    (stable, so equal risks keep their submission order)."""
    order = np.argsort(risks, kind="stable")
    return [pipelines[i] for i in order], [risks[i] for i in order]


def softmax_weights(mu_risks, lam: float) -> np.ndarray:
    """exp(-lam * risk), normalized; max-subtracted before exponentiation."""
    u = -lam * np.asarray(mu_risks, dtype=float)
    u = u - u.max()
    w = np.exp(u)
    return w / w.sum()


def build_topk_ensemble(members0, members1, eta, k: int,
                        mu_risks0, mu_risks1, clip=DEFAULT_CLIP) -> EnsembleModel:
    return EnsembleModel(list(members0), list(members1), eta, "top_k", float(k),
                         list(mu_risks0), list(mu_risks1), clip)


def build_softmax_ensemble(members0, members1, eta, lam: float,
                           mu_risks0, mu_risks1, clip=DEFAULT_CLIP) -> EnsembleModel:
    return EnsembleModel(list(members0), list(members1), eta, "softmax", float(lam),
                         list(mu_risks0), list(mu_risks1), clip)


def _arm_weights(model: EnsembleModel, risks, count) -> np.ndarray:
    if model.mode == "top_k":
        k = int(model.param)
        w = np.zeros(count)
        w[:k] = 1.0 / k
        return w
    return softmax_weights(risks, model.param)


def _combine(model: EnsembleModel, per_member0, per_member1, eta_hat):
    w0 = _arm_weights(model, model.mu_risks0, len(model.members0))
    w1 = _arm_weights(model, model.mu_risks1, len(model.members1))
    agg0 = sum(w * v for w, v in zip(w0, per_member0))
    agg1 = sum(w * v for w, v in zip(w1, per_member1))
    return _blend(eta_hat, agg0, agg1)


def ensemble_predict(model: EnsembleModel, x: np.ndarray):
    return predict_ensemble_grid(model.members0, model.members1, model.eta, model.mode,
                                 [model.param], model.mu_risks0, model.mu_risks1, x,
                                 clip=model.clip)[0]


def predict_ensemble_grid(members0, members1, eta, mode: str, candidates,
                          mu_risks0, mu_risks1, x: np.ndarray, arm=None,
                          clip=DEFAULT_CLIP) -> list[np.ndarray]:
    """Predictions at x of the ensemble built with each K or lambda in
    `candidates`: effects, or factual outcomes when `arm` is given. Each
    member and eta_hat are predicted once for the whole grid."""
    build = build_topk_ensemble if mode == "top_k" else build_softmax_ensemble

    def predict(p):
        return predict_tau(p, x) if arm is None else predict_mu(p, x, arm)

    per_member0 = [predict(p) for p in members0]
    per_member1 = [predict(p) for p in members1]
    eta_hat = predict_eta(eta, x, clip)
    return [_combine(build(members0, members1, eta, c, mu_risks0, mu_risks1, clip),
                     per_member0, per_member1, eta_hat) for c in candidates]


def select_ensemble_hyperparam(members0, members1, eta, mode: str, candidates,
                               dataset: Dataset, val_indices,
                               mu_risks0, mu_risks1, clip=DEFAULT_CLIP):
    """Pick the K or lambda whose ensemble minimizes validation factual
    mu-risk; ties keep the earliest (smallest) candidate. Returns the chosen
    value and the per-candidate risk table."""
    candidates = list(candidates)
    if not candidates:
        raise ValueError("empty candidate grid")
    idx = np.asarray(val_indices, dtype=int)
    if idx.size == 0:
        raise ValueError("empty index set")
    preds = predict_ensemble_grid(members0, members1, eta, mode, candidates, mu_risks0,
                                  mu_risks1, dataset.x[idx], dataset.t[idx], clip)
    table = [{"candidate": c, "mu_risk": float(np.mean((dataset.y[idx] - pred) ** 2))}
             for c, pred in zip(candidates, preds)]
    winner = int(np.argmin([row["mu_risk"] for row in table]))
    return candidates[winner], table
