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
from .propensity import DEFAULT_PROPENSITY_GRID, PropensityModel, predict_eta, select_propensity


@dataclass
class AlriteModel:
    p0: Pipeline  # control-driven
    p1: Pipeline  # treatment-driven
    eta: PropensityModel

    def __post_init__(self):
        if self.p0.role != "control_driven" or self.p1.role != "treatment_driven":
            raise ValueError("p0 must be control-driven and p1 treatment-driven")

    def to_dict(self) -> dict:
        return {"p0": self.p0.to_dict(), "p1": self.p1.to_dict(), "eta": self.eta.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "AlriteModel":
        """Inverse of `to_dict`; the "clip" key of older files is ignored."""
        return cls(Pipeline.from_dict(d["p0"]), Pipeline.from_dict(d["p1"]),
                   PropensityModel.from_dict(d["eta"]))


def _blend(eta_hat, v0, v1):
    """(1 - eta_hat) v0 + eta_hat v1: the control-driven estimate v0 and the
    treatment-driven estimate v1 weighted by the propensity."""
    return (1.0 - eta_hat) * v0 + eta_hat * v1


def aggregate_tau(p0: Pipeline, p1: Pipeline, eta: PropensityModel, x: np.ndarray):
    """tau_hat(x) = (1 - eta_hat(x)) tau0(x) + eta_hat(x) tau1(x)."""
    return _blend(predict_eta(eta, x), predict_tau(p0, x), predict_tau(p1, x))


def aggregate_mu(p0: Pipeline, p1: Pipeline, eta: PropensityModel, x: np.ndarray, arm):
    """Factual prediction of the aggregated candidate: the two pipelines'
    arm predictions combined with the same propensity weights as tau_hat."""
    return _blend(predict_eta(eta, x), predict_mu(p0, x, arm), predict_mu(p1, x, arm))


def select_eta(dataset: Dataset, split: SplitIndices, propensity_grid,
               seed: int) -> PropensityModel:
    """eta_hat selected by 5-fold CV on the split's training rows, which are
    never copied out whole while the folds run."""
    return select_propensity(dataset.x, dataset.t, propensity_grid, folds=5, seed=seed,
                             rows=np.asarray(split.train, dtype=int))


def alrite_fit_jobs(dataset: Dataset, split: SplitIndices,
                    hp0: PipelineHyperparams, hp1: PipelineHyperparams,
                    propensity_grid, seed: int) -> list[tuple]:
    """`alrite_fit`'s three independent trainings as (function, args) jobs:
    p0, p1, then eta_hat, each with its own seed stream derived from the
    master seed."""
    s0, s1, s_eta = np.random.SeedSequence(seed).generate_state(3)
    return [(train_pipeline, (dataset, split, "control_driven", hp0, int(s0))),
            (train_pipeline, (dataset, split, "treatment_driven", hp1, int(s1))),
            (select_eta, (dataset, split, propensity_grid, int(s_eta)))]


def alrite_fit(dataset: Dataset, split: SplitIndices,
               hp0: PipelineHyperparams, hp1: PipelineHyperparams,
               propensity_grid=DEFAULT_PROPENSITY_GRID, seed: int = 0,
               ) -> tuple[AlriteModel, dict[str, TrainReport]]:
    """The model of `alrite_fit_jobs`' results, run in order, with the
    pipelines' training reports."""
    jobs = alrite_fit_jobs(dataset, split, hp0, hp1, propensity_grid, seed)
    (p0, rep0), (p1, rep1), eta = [fn(*args) for fn, args in jobs]
    return AlriteModel(p0, p1, eta), {"p0": rep0, "p1": rep1}


def alrite_predict(model: AlriteModel, x: np.ndarray):
    return aggregate_tau(model.p0, model.p1, model.eta, x)


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
    tau0 = predict_tau(model.p0, x)
    tau1 = predict_tau(model.p1, x)
    eta_hat = predict_eta(model.eta, x)
    tau_hat = _blend(eta_hat, tau0, tau1)
    tau_oracle_eta = _blend(eta_true, tau0, tau1)

    def norm(v):
        return float(np.sqrt(np.sum(v**2)))

    lhs = norm(tau_hat - tau_oracle_eta)
    rhs = norm(eta_hat - eta_true) * (norm(tau0 - tau_true) + norm(tau1 - tau_true))
    return lhs, rhs


def _check_ensemble(mode: str, param: float, mu_risks0, mu_risks1) -> None:
    """The weight checks: a known mode, each arm's risks sorted increasing
    and finite, K a whole number within both arms' member counts (2.0 is
    K = 2), lambda finite and > 0."""
    if mode not in ("top_k", "softmax"):
        raise ValueError(f"unknown ensemble mode {mode!r}")
    for risks in (mu_risks0, mu_risks1):
        if any(b < a for a, b in zip(risks, risks[1:])):
            raise ValueError("members must be sorted by increasing mu-risk")
        if not all(np.isfinite(risks)):
            raise ValueError("member mu-risks must be finite")
    if mode == "top_k":
        if not (float(param).is_integer() and 1 <= param <= min(len(mu_risks0), len(mu_risks1))):
            raise ValueError(f"K out of range or not a whole number: {param!r}")
    elif not 0 < param < np.inf:
        raise ValueError(f"lambda must be finite and positive: {param!r}")


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

    def __post_init__(self):
        if len(self.members0) != len(self.mu_risks0) or len(self.members1) != len(self.mu_risks1):
            raise ValueError("one mu-risk per member required")
        _check_ensemble(self.mode, self.param, self.mu_risks0, self.mu_risks1)


def rank_members(indices, items: list, risks) -> tuple[list[int], list, list[float]]:
    """Sort sweep members by increasing validation factual MSE `risks`
    (stable, so equal risks keep their submission order); each member's
    sweep index and item (a pipeline, its predictions, ...) move with it."""
    order = np.argsort(risks, kind="stable")
    return ([indices[i] for i in order], [items[i] for i in order],
            [risks[i] for i in order])


def softmax_weights(mu_risks, lam: float) -> np.ndarray:
    """exp(-lam * risk), normalized; max-subtracted before exponentiation."""
    u = -lam * np.asarray(mu_risks, dtype=float)
    u = u - u.max()
    w = np.exp(u)
    return w / w.sum()


def _arm_weights(mode: str, param: float, risks) -> np.ndarray:
    if mode == "top_k":
        k = int(param)
        w = np.zeros(len(risks))
        w[:k] = 1.0 / k
        return w
    return softmax_weights(risks, param)


def combine_ensemble_grid(per_member0, per_member1, eta_hat, mode: str, candidates,
                          mu_risks0, mu_risks1) -> list[np.ndarray]:
    """The ensemble built with each K or lambda in `candidates`, from each
    arm's per-member predictions (one array per member, in rank order, with
    its mu-risk) blended by the propensities `eta_hat` at the same rows."""
    if len(per_member0) != len(mu_risks0) or len(per_member1) != len(mu_risks1):
        raise ValueError("one mu-risk per member required")
    preds = []
    for c in candidates:
        param = float(c)
        _check_ensemble(mode, param, mu_risks0, mu_risks1)
        w0 = _arm_weights(mode, param, mu_risks0)
        w1 = _arm_weights(mode, param, mu_risks1)
        agg0 = sum(w * v for w, v in zip(w0, per_member0))
        agg1 = sum(w * v for w, v in zip(w1, per_member1))
        preds.append(_blend(eta_hat, agg0, agg1))
    return preds


def ensemble_predict(model: EnsembleModel, x: np.ndarray):
    """The ensemble's effect estimate at x."""
    return combine_ensemble_grid([predict_tau(p, x) for p in model.members0],
                                 [predict_tau(p, x) for p in model.members1],
                                 predict_eta(model.eta, x), model.mode, [model.param],
                                 model.mu_risks0, model.mu_risks1)[0]


def select_ensemble_hyperparam(mu0, mu1, eta_val, y_val, mode: str, candidates,
                               mu_risks0, mu_risks1):
    """Pick the K or lambda whose ensemble minimizes validation factual
    mu-risk; ties keep the earliest (smallest) candidate. `mu0` and `mu1`
    hold each ranked member's factual predictions on the validation rows,
    whose propensities are `eta_val` and outcomes `y_val`. Returns the chosen
    value and the per-candidate risk table."""
    candidates = list(candidates)
    if not candidates:
        raise ValueError("empty candidate grid")
    if len(y_val) == 0:
        raise ValueError("empty index set")
    preds = combine_ensemble_grid(mu0, mu1, eta_val, mode, candidates, mu_risks0, mu_risks1)
    table = [{"candidate": c, "mu_risk": float(np.mean((y_val - pred) ** 2))}
             for c, pred in zip(candidates, preds)]
    winner = int(np.argmin([row["mu_risk"] for row in table]))
    return candidates[winner], table
