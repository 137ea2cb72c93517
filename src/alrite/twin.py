"""Mirror twins in latent space, counterfactual importance weights and
counterfactualizability statistics.

Twin search runs once per (embedding, query arm): exact, vectorized
all-pairs from that arm's rows to the opposite arm's, with ties broken on the
smallest index so runs are reproducible. `mirror_twins` searches one arm or
both under one embedding; `cross_pipeline_weights` searches control rows
under the control pipeline's embedding and treated rows under the treatment
pipeline's. Training and every bound read the one map they are given.

`pairwise_sq_dists` is the package's one all-pairs distance kernel: the twin
search, kNN propensity prediction, the kernel-ridge RBF kernel and bandwidth
heuristic, and the nearest-neighbour imputation all call it. It computes
|a|^2 - 2 a.b + |b|^2 into a single n x m buffer. The cross term is formed as
`(2.0 * a) @ b.T`: doubling is exact, so this has the bits of
`2.0 * (a @ b.T)`. Do not rewrite it as `a @ a.T` (or `a @ b.T` scaled
afterwards) for a call with `b is a`: numpy hands a product of an array with
its own transpose to the symmetric `syrk` BLAS kernel, whose summation order
differs and changes the last bits.

Every query-versus-reference search runs in row blocks from `row_blocks`, so
its peak memory is one block instead of n x m: `mirror_twins` and
`cross_pipeline_weights` here, kNN `propensity.predict_eta` (which also holds
the block's int64 partition index), `selection.KernelRidge.predict` and
`selection.nn_imputed_outcome`. Against m references a block holds `step`
rows, the largest multiple of `ROW_ALIGN` within `BLOCK_ENTRIES` = 2^18
float64 entries (2 MB) but at least `ROW_ALIGN`; the last block also takes
the remainder, up to 2 * step - 1 rows. So a block is under 2 *
BLOCK_ENTRIES entries (4 MB) while m <= BLOCK_ENTRIES // ROW_ALIGN = 5461,
and at most 95 * m entries (760 * m bytes) for more references, where every
step is ROW_ALIGN rows. The square whole-matrix calls (the kernel ridge
solve, the bandwidth heuristic on at most 500 rows) are not blocked. A search
whose n x m fits the budget makes the single whole call.

Blocks must not change bits. With one OpenBLAS thread (0.3.31, SkylakeX) a
row block's product equals the same rows of the whole product only if the
block is tiled like the whole:
- Block boundaries are multiples of `ROW_ALIGN` = 48 rows. The GEMM kernel
  works in tiles of 12 and 24 rows, and a boundary inside a tile turns the
  rows before it into a narrower edge tile, summed in another order. Blocks
  of 64, 256 and 1024 rows changed the last bits of up to 167, 39 and 16
  rows (next to block ends) in 10 of 50 shapes each (d from 2 to 58, m from
  700 to 20000), and block steps of 1472 or 1496 rows did so at m = 700;
  this rule changed none in 100 shapes.
- The rows left over are folded into the last block, so no block is shorter
  than the step. A short tail takes other kernels: numpy hands a one-row
  block to a matrix-vector product, and blocks of a few hundred entries at
  d >= 50 went to another GEMM kernel. Unfolded tails of 1 to 3 rows
  changed bits in 8 of 12 shapes (every one-row tail).
Do not "simplify" the block to a round number of rows.

Round-off can leave small negatives in a distance block, where the distance
is 0. The search takes each row's twin as the smallest-index minimum of the
block clipped at 0, without clipping the block: `argmin` runs on the
unclipped row, and a row whose minimum is negative takes instead its first
entry <= 0, which is where the clipped row's first minimum lies. Only the
chosen entries are clipped before the square root, by the same
`np.maximum(., 0.0)` that clipped the whole block, so each distance, a
chosen -0.0 included, keeps the bits of the clipped form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class TwinMap:
    twin_index: np.ndarray  # (n,) index of the nearest opposite-arm sample; -1 if not searched
    twin_distance: np.ndarray  # (n,) Euclidean latent distance to the twin; NaN if not searched
    weight: np.ndarray  # (n,) how many searched samples picked this one as twin


class ArmError(ValueError):
    """Raised when a treatment arm is empty."""


def _check_arms(t: np.ndarray) -> None:
    if t.sum() == 0 or t.sum() == len(t):
        raise ArmError("both treatment arms must be non-empty")


BLOCK_ENTRIES = 1 << 18  # float64 entries per step of rows: 2 MB (the bound: module docstring)
ROW_ALIGN = 48  # rows; block starts on a multiple of this (see the module docstring)


def row_blocks(n: int, m: int) -> list[slice]:
    """Row slices covering [0, n) once and in order for an n x m all-pairs
    computation. Each holds the same multiple of ROW_ALIGN rows, the largest
    within BLOCK_ENTRIES entries (at least ROW_ALIGN), except the last, which
    also takes the remainder. One slice (possibly empty) when n x m fits."""
    step = max(ROW_ALIGN, BLOCK_ENTRIES // max(m, 1) // ROW_ALIGN * ROW_ALIGN)
    count = max(n // step, 1)
    ends = [i * step for i in range(count)] + [n]
    return [slice(ends[i], ends[i + 1]) for i in range(count)]


def pairwise_sq_dists(a: np.ndarray, b: np.ndarray,
                      b_sq: np.ndarray | None = None) -> np.ndarray:
    """(len(a), len(b)) squared Euclidean distances, unclipped: round-off can
    leave tiny negatives. The only full-size allocation is the result.
    `b_sq`, when given, is `np.sum(b * b, axis=1)`: a search over row blocks
    of one reference set computes it once instead of once per block."""
    sq = (2.0 * a) @ b.T
    np.subtract(np.sum(a * a, axis=1)[:, None], sq, out=sq)
    sq += (np.sum(b * b, axis=1) if b_sq is None else b_sq)[None, :]
    return sq


def _prepare(latent: np.ndarray, t: np.ndarray) -> np.ndarray:
    latent = np.asarray(latent, dtype=float)
    if latent.ndim == 1:
        latent = latent[:, None]
    if len(latent) != len(t):
        raise ValueError("latent matrices must cover all samples")
    if not np.all(np.isfinite(latent)):
        raise ValueError("non-finite latent coordinates")
    return latent


def _search(t: np.ndarray, searches) -> TwinMap:
    """Twin map of the given (latent, query arm) searches. Rows of an arm not
    searched keep index -1 and distance NaN, and cast no votes."""
    _check_arms(t)
    n = len(t)
    twin_index = np.full(n, -1, dtype=int)
    twin_distance = np.full(n, np.nan)
    for latent, arm in searches:
        q = np.flatnonzero(t == arm)
        cand = np.flatnonzero(t != arm)
        ref = latent[cand]
        ref_sq = np.sum(ref * ref, axis=1)
        for rows in row_blocks(len(q), len(cand)):
            sq = pairwise_sq_dists(latent[q[rows]], ref, ref_sq)
            best = np.argmin(sq, axis=1)  # argmin returns the first (smallest-index) minimum
            chosen = sq[np.arange(len(best)), best]
            # the clipped block's first minimum is the first entry <= 0 where
            # round-off left a negative (module docstring)
            neg = np.flatnonzero(chosen < 0)
            if len(neg):
                best[neg] = np.argmax(sq[neg] <= 0, axis=1)
                chosen[neg] = sq[neg, best[neg]]
            twin_index[q[rows]] = cand[best]
            twin_distance[q[rows]] = np.sqrt(np.maximum(chosen, 0.0))
            del sq  # freed before the next block is allocated
    weight = np.bincount(twin_index[twin_index >= 0], minlength=n)
    tm = TwinMap(twin_index, twin_distance, weight)
    _assert_conservation(tm, t)
    return tm


def mirror_twins(latent: np.ndarray, t: np.ndarray, arm: int | None = None) -> TwinMap:
    """Nearest opposite-arm sample for every row of `arm` (both arms when
    None) under one embedding, plus vote counts."""
    if arm not in (None, 0, 1):
        raise ValueError(f"arm must be 0, 1 or None, got {arm!r}")
    t = np.asarray(t, dtype=int)
    latent = _prepare(latent, t)
    return _search(t, [(latent, a) for a in ((0, 1) if arm is None else (arm,))])


def _assert_conservation(tm: TwinMap, t: np.ndarray) -> None:
    """Checks the searched rows (twin index >= 0): their votes total their
    count, each arm holds the other's votes, and every twin is opposite-arm."""
    searched = tm.twin_index >= 0
    n = int(np.sum(searched))
    n0 = int(np.sum(searched & (t == 0)))
    if tm.weight.sum() != n:
        raise RuntimeError("twin votes must total n")
    if tm.weight[t == 1].sum() != n0:
        raise RuntimeError("treated samples must hold all control votes")
    if tm.weight[t == 0].sum() != n - n0:
        raise RuntimeError("control samples must hold all treated votes")
    if not np.all(t[tm.twin_index[searched]] == 1 - t[searched]):
        raise RuntimeError("twins must be opposite-arm")


def cross_pipeline_weights(latent0: np.ndarray, latent1: np.ndarray, t: np.ndarray) -> TwinMap:
    """Twin map where each sample searches under the embedding of its own
    arm: control samples under latent0 (electing treated samples), treated
    samples under latent1 (electing control samples)."""
    t = np.asarray(t, dtype=int)
    latent0, latent1 = _prepare(latent0, t), _prepare(latent1, t)
    return _search(t, [(latent0, 0), (latent1, 1)])


def counterfactualizability_summary(twinmap: TwinMap, t: np.ndarray) -> dict:
    """Per-arm mean/median/max twin distance of a map searched for both arms."""
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
