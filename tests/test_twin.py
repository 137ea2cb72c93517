"""Mirror-twin search against exhaustive oracles, vote conservation and
tie-breaking."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alrite
from alrite.twin import (ArmError, counterfactualizability_summary,
                         cross_pipeline_weights, mirror_twins, pairwise_sq_dists)


def oracle_twins(latent, t):
    """Per-sample scan over all opposite-arm candidates."""
    n = len(t)
    idx = np.empty(n, dtype=int)
    dist = np.empty(n)
    for i in range(n):
        best_j, best_d = -1, np.inf
        for j in range(n):
            if t[j] == t[i]:
                continue
            d = float(np.linalg.norm(latent[i] - latent[j]))
            if d < best_d:  # strict: ties keep the smallest index
                best_j, best_d = j, d
        idx[i], dist[i] = best_j, best_d
    return idx, dist


def random_instance(rng, max_n=60):
    n = int(rng.integers(4, max_n))
    k = int(rng.integers(1, 4))
    latent = rng.standard_normal((n, k))
    t = rng.integers(0, 2, size=n)
    if t.sum() == 0:
        t[0] = 1
    if t.sum() == n:
        t[0] = 0
    return latent, t


def test_matches_oracle_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(30):
        latent, t = random_instance(rng)
        tm = mirror_twins(latent, t)
        idx, dist = oracle_twins(latent, t)
        assert np.array_equal(tm.twin_index, idx)
        assert np.allclose(tm.twin_distance, dist)
        assert np.array_equal(tm.weight, np.bincount(idx, minlength=len(t)))


def test_tie_break_smallest_index():
    # two identical treated candidates: the first must win
    latent = np.array([[0.0], [1.0], [1.0]])
    t = np.array([0, 1, 1])
    tm = mirror_twins(latent, t)
    assert tm.twin_index[0] == 1


def test_vote_conservation():
    rng = np.random.default_rng(1)
    for _ in range(20):
        latent, t = random_instance(rng)
        tm = mirror_twins(latent, t)
        n = len(t)
        assert tm.weight.sum() == n
        assert tm.weight[t == 1].sum() == np.sum(t == 0)
        assert tm.weight[t == 0].sum() == np.sum(t == 1)


def test_single_arm_raises():
    with pytest.raises(ArmError):
        mirror_twins(np.zeros((3, 1)), np.array([1, 1, 1]))


def test_one_dim_latent_accepted():
    tm = mirror_twins(np.array([0.0, 1.0, 3.0]), np.array([0, 1, 0]))
    assert tm.twin_index[0] == 1
    assert np.isclose(tm.twin_distance[2], 2.0)


def test_hand_example():
    latent = np.array([[0.0, 0.0], [2.0, 0.0], [0.5, 0.0], [3.0, 0.0]])
    t = np.array([0, 0, 1, 1])
    tm = mirror_twins(latent, t)
    # 0.0 -> 0.5, 2.0 -> 3.0, 0.5 -> 0.0, 3.0 -> 2.0
    assert list(tm.twin_index) == [2, 3, 0, 1]
    assert list(tm.weight) == [1, 1, 1, 1]


def test_cross_pipeline_weights_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        latent0, t = random_instance(rng)
        latent1 = rng.standard_normal(latent0.shape)
        w = cross_pipeline_weights(latent0, latent1, t)
        idx0, _ = oracle_twins(latent0, t)
        idx1, _ = oracle_twins(latent1, t)
        expect = np.zeros(len(t), dtype=int)
        for i in range(len(t)):
            expect[idx0[i] if t[i] == 0 else idx1[i]] += 1
        assert np.array_equal(w, expect)
        assert w.sum() == len(t)


def test_cross_weights_same_embedding_reduces_to_mirror():
    rng = np.random.default_rng(3)
    latent, t = random_instance(rng)
    tm = mirror_twins(latent, t)
    assert np.array_equal(cross_pipeline_weights(latent, latent, t), tm.weight)


def test_summary_statistics():
    latent = np.array([[0.0], [1.0], [5.0]])
    t = np.array([0, 1, 0])
    s = counterfactualizability_summary(mirror_twins(latent, t), t)
    assert s["control"]["mean"] == 2.5
    assert s["control"]["max"] == 4.0
    assert s["treated"]["mean"] == 1.0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=4, max_value=30))
def test_property_twins_are_nearest(seed, n):
    rng = np.random.default_rng(seed)
    latent = rng.standard_normal((n, 2))
    t = rng.integers(0, 2, size=n)
    t[0], t[1] = 0, 1
    tm = mirror_twins(latent, t)
    for i in range(n):
        opp = np.flatnonzero(t == 1 - t[i])
        dists = np.linalg.norm(latent[opp] - latent[i], axis=1)
        assert tm.twin_distance[i] <= dists.min() + 1e-12


def test_conservation_check_survives_optimize_flag():
    # a forged map whose votes do not total n must be refused even under -O,
    # which strips assert statements
    code = ("import numpy as np\n"
            "from alrite.twin import TwinMap, _assert_conservation\n"
            "t = np.array([0, 1, 1])\n"
            "forged = TwinMap(np.array([1, 0, 0]), np.zeros(3), np.array([2, 1, 1]))\n"
            "_assert_conservation(forged, t)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(alrite.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode != 0
    assert "twin votes must total n" in proc.stderr


def three_temporaries(a, b):
    """The all-pairs expression the distance kernel replaces."""
    return (np.sum(a * a, axis=1)[:, None] - 2.0 * (a @ b.T)
            + np.sum(b * b, axis=1)[None, :])


def test_pairwise_kernel_bit_equal_to_three_temporaries():
    rng = np.random.default_rng(0)
    for n, m, d in ((300, 200, 50), (97, 311, 3), (500, 500, 58)):
        a, b = rng.standard_normal((n, d)), rng.standard_normal((m, d)) * 3.0
        assert pairwise_sq_dists(a, b).tobytes() == three_temporaries(a, b).tobytes()
        # a is b: the product must not become a symmetric rank-k update
        expect = (np.sum(a * a, axis=1)[:, None] - 2.0 * a @ a.T
                  + np.sum(a * a, axis=1)[None, :])
        assert pairwise_sq_dists(a, a).tobytes() == expect.tobytes()


def test_pairwise_kernel_allocates_one_block():
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((1500, 4)), rng.standard_normal((1200, 4))
    block = 1500 * 1200 * 8
    tracemalloc.start()
    try:
        sq = pairwise_sq_dists(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sq.shape == (1500, 1200)
    assert peak < 1.2 * block
