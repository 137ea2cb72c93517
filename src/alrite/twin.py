"""Mirror twins in latent space, counterfactual importance weights and
counterfactualizability statistics.

Twin search is exact (vectorized all-pairs per query arm); ties break on the
smallest index so runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class TwinMap:
    twin_index: np.ndarray  # (n,) index of the nearest opposite-arm sample
    twin_distance: np.ndarray  # (n,) Euclidean latent distance to the twin
    weight: np.ndarray  # (n,) how many samples picked this one as twin


class ArmError(ValueError):
    """Raised when a treatment arm is empty."""


def _check_arms(t: np.ndarray) -> None:
    if t.sum() == 0 or t.sum() == len(t):
        raise ArmError("both treatment arms must be non-empty")


def _pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # (len(a), len(b)) squared Euclidean distances, clipped against round-off
    sq = (
        np.sum(a * a, axis=1)[:, None]
        - 2.0 * (a @ b.T)
        + np.sum(b * b, axis=1)[None, :]
    )
    return np.maximum(sq, 0.0)


def _nearest_opposite(latent: np.ndarray, t: np.ndarray, query_mask: np.ndarray):
    """For each query sample, index and distance of its nearest opposite-arm
    sample under the given latent coordinates."""
    n = len(t)
    twin_index = np.full(n, -1, dtype=int)
    twin_distance = np.full(n, np.nan)
    for arm in (0, 1):
        q = np.flatnonzero(query_mask & (t == arm))
        if q.size == 0:
            continue
        cand = np.flatnonzero(t == 1 - arm)
        sq = _pairwise_sq_dists(latent[q], latent[cand])
        best = np.argmin(sq, axis=1)  # argmin returns the first (smallest-index) minimum
        twin_index[q] = cand[best]
        twin_distance[q] = np.sqrt(sq[np.arange(len(q)), best])
    return twin_index, twin_distance


def mirror_twins(latent: np.ndarray, t: np.ndarray) -> TwinMap:
    """Nearest opposite-arm sample for every sample, plus vote counts."""
    latent = np.asarray(latent, dtype=float)
    t = np.asarray(t, dtype=int)
    if latent.ndim == 1:
        latent = latent[:, None]
    if not np.all(np.isfinite(latent)):
        raise ValueError("non-finite latent coordinates")
    _check_arms(t)
    n = len(t)
    twin_index, twin_distance = _nearest_opposite(latent, t, np.ones(n, dtype=bool))
    weight = np.bincount(twin_index, minlength=n)
    tm = TwinMap(twin_index, twin_distance, weight)
    _assert_conservation(tm, t)
    return tm


def _assert_conservation(tm: TwinMap, t: np.ndarray) -> None:
    n = len(t)
    n0 = int(np.sum(t == 0))
    if tm.weight.sum() != n:
        raise RuntimeError("twin votes must total n")
    if tm.weight[t == 1].sum() != n0:
        raise RuntimeError("treated samples must hold all control votes")
    if tm.weight[t == 0].sum() != n - n0:
        raise RuntimeError("control samples must hold all treated votes")
    if not np.all(t[tm.twin_index] == 1 - t):
        raise RuntimeError("twins must be opposite-arm")


def cross_pipeline_weights(latent0: np.ndarray, latent1: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Votes where each sample searches its twin under the embedding of its
    own arm: control samples vote under latent0 (electing treated samples),
    treated samples vote under latent1 (electing control samples)."""
    latent0 = np.atleast_2d(np.asarray(latent0, dtype=float).T).T
    latent1 = np.atleast_2d(np.asarray(latent1, dtype=float).T).T
    t = np.asarray(t, dtype=int)
    if len(latent0) != len(t) or len(latent1) != len(t):
        raise ValueError("latent matrices must cover all samples")
    _check_arms(t)
    n = len(t)
    idx0, _ = _nearest_opposite(latent0, t, t == 0)
    idx1, _ = _nearest_opposite(latent1, t, t == 1)
    votes = np.concatenate([idx0[t == 0], idx1[t == 1]])
    weight = np.bincount(votes, minlength=n)
    if weight.sum() != n:
        raise RuntimeError("cross-pipeline votes must total n")
    return weight


def counterfactualizability_summary(twinmap: TwinMap, t: np.ndarray) -> dict:
    """Per-arm mean/median/max twin distance."""
    t = np.asarray(t, dtype=int)
    out = {}
    for arm, name in ((0, "control"), (1, "treated")):
        d = twinmap.twin_distance[t == arm]
        out[name] = {
            "mean": float(np.mean(d)),
            "median": float(np.median(d)),
            "max": float(np.max(d)),
        }
    return out
