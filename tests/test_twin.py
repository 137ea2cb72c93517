"""Mirror-twin search against exhaustive oracles, vote conservation and
tie-breaking."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alrite
import alrite.pipeline
import alrite.twin
from alrite.blas import one_blas_thread
from alrite.cli import _bound_instance
from alrite.data import generate_ihdp_like, split
from alrite.metrics import bound_m1, bound_m2, bound_m3, make_linear_instance
from alrite.pipeline import ROLES, PipelineHyperparams, train_pipeline
from alrite.twin import (BLOCK_ENTRIES, ROW_ALIGN, ArmError, TwinMap,
                         _assert_conservation, counterfactualizability_summary,
                         cross_pipeline_weights, mirror_twins, pairwise_sq_dists,
                         row_blocks)


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


def test_latents_must_be_finite_and_cover_all_samples():
    t = np.array([0, 1, 1])
    good, short, nan = np.zeros((3, 2)), np.zeros((2, 2)), np.array([[0.0], [np.nan], [1.0]])
    for search in (lambda z: mirror_twins(z, t), lambda z: mirror_twins(z, t, arm=0),
                   lambda z: cross_pipeline_weights(good, z, t),
                   lambda z: cross_pipeline_weights(z, good, t)):
        with pytest.raises(ValueError, match="cover all samples"):
            search(short)
        with pytest.raises(ValueError, match="non-finite"):
            search(nan)


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
        w = cross_pipeline_weights(latent0, latent1, t).weight
        idx0, _ = oracle_twins(latent0, t)
        idx1, _ = oracle_twins(latent1, t)
        expect = np.zeros(len(t), dtype=int)
        for i in range(len(t)):
            expect[idx0[i] if t[i] == 0 else idx1[i]] += 1
        assert np.array_equal(w, expect)
        assert w.sum() == len(t)


def test_cross_weights_same_embedding_reduces_to_mirror():
    rng = np.random.default_rng(3)
    for _ in range(10):
        latent, t = random_instance(rng)
        tm = mirror_twins(latent, t)
        cross = cross_pipeline_weights(latent, latent, t)
        for field in ("twin_index", "twin_distance", "weight"):
            assert getattr(cross, field).tobytes() == getattr(tm, field).tobytes()


def test_one_arm_search_matches_two_arm_map_and_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        latent, t = random_instance(rng)
        both = mirror_twins(latent, t)
        idx, dist = oracle_twins(latent, t)
        for arm in (0, 1):
            tm = mirror_twins(latent, t, arm=arm)
            rows, rest = t == arm, t != arm
            assert np.array_equal(tm.twin_index[rows], both.twin_index[rows])
            assert tm.twin_distance[rows].tobytes() == both.twin_distance[rows].tobytes()
            assert np.array_equal(tm.twin_index[rows], idx[rows])
            assert np.allclose(tm.twin_distance[rows], dist[rows])
            # votes land on the other arm only, and are exactly the ones
            # this arm cast in the two-arm map
            assert np.array_equal(tm.weight, np.bincount(idx[rows], minlength=len(t)))
            assert np.array_equal(tm.weight[rest], both.weight[rest])
            assert np.all(tm.twin_index[rest] == -1)
            assert np.all(np.isnan(tm.twin_distance[rest]))
            assert np.all(tm.weight[rows] == 0)


def test_arm_must_be_zero_one_or_none():
    with pytest.raises(ValueError, match="arm"):
        mirror_twins(np.zeros((3, 1)), np.array([0, 1, 1]), arm=2)


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


@pytest.fixture
def search_calls(monkeypatch):
    """(query rows, candidate rows) of every twin-search distance block."""
    calls = []

    def counting(a, b, *rest):
        calls.append((len(a), len(b)))
        return pairwise_sq_dists(a, b, *rest)

    monkeypatch.setattr(alrite.twin, "pairwise_sq_dists", counting)
    return calls


def test_bounds_search_each_embedding_and_query_arm_once(search_calls):
    # m1 searches both arms under one embedding; m2 and m3 each make one
    # cross search, control rows under phi0 and treated rows under phi1
    ds, truth, p0, p1, lip = make_linear_instance(0, n=40, d=2)
    n1 = int(ds.t.sum())
    for bound, pipelines in ((bound_m1, (p0,)), (bound_m2, (p0, p1)), (bound_m3, (p0, p1))):
        search_calls.clear()
        bound(*pipelines, ds, truth, lip)
        assert sorted(search_calls) == sorted([(n1, ds.n - n1), (ds.n - n1, n1)]), \
            bound.__name__


def test_one_bound_instance_searches_one_map_and_keeps_the_separate_bounds(monkeypatch):
    # m1 on the noiseless draw of the same seed, m2 and m3 on the noisy one,
    # each bound searching its own map: the rows one search now serves
    searches = []

    def counting(*args):
        searches.append(args)
        return search(*args)

    search = alrite.twin._search
    monkeypatch.setattr(alrite.twin, "_search", counting)
    for seed in range(4):
        searches.clear()
        rows = _bound_instance(seed, seed, 60, 3, 0.3)
        assert len(searches) == 1
        ds0, truth0, q0, _, l0 = make_linear_instance(seed, 60, 3, noise=0.0)
        ds1, truth1, p0, p1, l1 = make_linear_instance(seed, 60, 3, noise=0.3)
        separate = [bound_m1(q0, ds0, truth0, l0), bound_m2(p0, p1, ds1, truth1, l1),
                    bound_m3(p0, p1, ds1, truth1, l1)]
        assert len(searches) == 4
        for row, kind, rep in zip(rows, ("m1", "m2", "m3"), separate):
            assert row[:2] == [seed, kind]
            assert [float(v).hex() for v in row[2:5]] == \
                [v.hex() for v in (rep.bound, rep.pehe, rep.slack)]


def clipped_form(latent, t, arm):
    """The search as one block clipped at 0 before argmin."""
    q, cand = np.flatnonzero(t == arm), np.flatnonzero(t != arm)
    sq = pairwise_sq_dists(latent[q], latent[cand])
    np.maximum(sq, 0.0, out=sq)
    best = np.argmin(sq, axis=1)
    return q, cand[best], np.sqrt(sq[np.arange(len(q)), best])


def test_unclipped_argmin_keeps_the_clipped_search_bits():
    # rows drawn from 40 distinct points, half of them moved by 1e-9: the
    # squared distance between copies is round-off, small negatives, -0.0
    # or +0.0, so a row holds several entries <= 0, and its most negative
    # entry is not always its first
    rng = np.random.default_rng(7)
    instances = [random_instance(rng) for _ in range(20)]
    later_minimum = 0
    for d in (2, 5, 25):
        points = 3.0 * rng.standard_normal((40, d)) + 10.0
        latent = points[rng.integers(0, 40, size=300)]
        latent[::2] += 1e-9 * rng.standard_normal((150, d))
        t = rng.integers(0, 2, size=300)
        instances.append((latent, t))
        q, cand = np.flatnonzero(t == 0), np.flatnonzero(t == 1)
        sq = pairwise_sq_dists(latent[q], latent[cand])
        negative = sq.min(axis=1) < 0
        later_minimum += int(np.sum(np.argmin(sq, axis=1) != np.argmax(sq <= 0, axis=1),
                                    where=negative))
        assert np.any((sq == 0).any(axis=1) & negative)
    assert later_minimum > 10
    with one_blas_thread():
        for latent, t in instances:
            tm = mirror_twins(latent, t)
            for arm in (0, 1):
                q, index, distance = clipped_form(latent, t, arm)
                assert tm.twin_index[q].tobytes() == index.tobytes()
                assert tm.twin_distance[q].tobytes() == distance.tobytes()


def test_training_searches_the_focus_arm_once_per_epoch(search_calls):
    ds, _ = generate_ihdp_like(0, n=80, d=3)
    sp = split(ds, 0.2, 0.3, 0)
    # alpha > 0: the loss reads the twins
    hp = PipelineHyperparams(alpha=0.5, embed_layers=1, head_layers=1, batch_size=40,
                             epochs=3)
    for role, focus in (("control_driven", 0), ("treatment_driven", 1)):
        search_calls.clear()
        train_pipeline(ds, sp, role, hp, seed=0)
        n_focus = int(np.sum(ds.t[sp.train] == focus))
        assert search_calls == [(n_focus, len(sp.train) - n_focus)] * hp.epochs


@pytest.fixture
def phi_rows(monkeypatch):
    """Rows of every `forward` and `forward_cached` call training makes on a
    network whose input width is 3, phi's on the data below (the heads take
    the embedding width, 20), keyed by the function's name."""
    rows = {"forward": [], "forward_cached": []}
    for name in rows:
        real = getattr(alrite.pipeline, name)

        def recording(mlp, x, real=real, name=name):
            if mlp.in_dim == 3:
                rows[name].append(len(x))
            return real(mlp, x)

        monkeypatch.setattr(alrite.pipeline, name, recording)
    return rows


def test_training_without_twin_terms_neither_embeds_the_training_set_nor_searches(
        search_calls, phi_rows):
    # at alpha = beta = 0 the loss reads no twin: no search, and phi's only
    # whole-set passes are the validation scores, one per epoch and one at
    # initialization
    ds, _ = generate_ihdp_like(0, n=80, d=3)
    sp = split(ds, 0.2, 0.3, 0)
    assert len(sp.train) != len(sp.validation)
    hp = PipelineHyperparams(embed_layers=1, head_layers=1, batch_size=16, epochs=3)
    for role in ROLES:
        train_pipeline(ds, sp, role, hp, seed=0)
    assert search_calls == []
    assert phi_rows["forward"] == [len(sp.validation)] * (hp.epochs + 1) * len(ROLES)


def test_training_with_votes_only_searches_each_epoch_and_steps_on_the_batch(
        search_calls, phi_rows):
    # at alpha = 0, beta > 0 the votes are read, so each epoch searches, but
    # no twin row joins a step: phi's step forward sees the batch's rows only
    ds, _ = generate_ihdp_like(0, n=80, d=3)
    sp = split(ds, 0.2, 0.3, 0)
    n = len(sp.train)
    hp = PipelineHyperparams(beta=0.4, embed_layers=1, head_layers=1, batch_size=16,
                             epochs=3)
    batches = [min(hp.batch_size, n - start) for start in range(0, n, hp.batch_size)]
    for role, focus in (("control_driven", 0), ("treatment_driven", 1)):
        search_calls.clear()
        phi_rows["forward_cached"].clear()
        train_pipeline(ds, sp, role, hp, seed=0)
        n_focus = int(np.sum(ds.t[sp.train] == focus))
        assert search_calls == [(n_focus, n - n_focus)] * hp.epochs
        assert phi_rows["forward_cached"] == batches * hp.epochs


def test_conservation_check_covers_one_arm_maps():
    t = np.array([0, 1, 1])
    _assert_conservation(TwinMap(np.array([1, -1, -1]), np.array([1.0, np.nan, np.nan]),
                                 np.array([0, 1, 0])), t)
    with pytest.raises(RuntimeError, match="treated samples must hold all control votes"):
        _assert_conservation(TwinMap(np.array([1, -1, -1]), np.zeros(3),
                                     np.array([1, 0, 0])), t)
    with pytest.raises(RuntimeError, match="twins must be opposite-arm"):
        _assert_conservation(TwinMap(np.array([-1, 2, -1]), np.zeros(3),
                                     np.array([1, 0, 0])), t)


def three_temporaries(a, b):
    """The all-pairs expression the distance kernel replaces."""
    return (np.sum(a * a, axis=1)[:, None] - 2.0 * (a @ b.T)
            + np.sum(b * b, axis=1)[None, :])


def test_pairwise_kernel_bit_equal_to_three_temporaries():
    rng = np.random.default_rng(0)
    for n, m, d in ((300, 200, 50), (97, 311, 3), (500, 500, 58)):
        a, b = rng.standard_normal((n, d)), rng.standard_normal((m, d)) * 3.0
        assert pairwise_sq_dists(a, b).tobytes() == three_temporaries(a, b).tobytes()
        b_sq = np.sum(b * b, axis=1)  # precomputed once, as blocked searches do
        assert pairwise_sq_dists(a, b, b_sq).tobytes() == three_temporaries(a, b).tobytes()
        # a is b: the product must not become a symmetric rank-k update
        expect = (np.sum(a * a, axis=1)[:, None] - 2.0 * a @ a.T
                  + np.sum(a * a, axis=1)[None, :])
        assert pairwise_sq_dists(a, a).tobytes() == expect.tobytes()


def test_pairwise_kernel_allocates_one_block(peak_bytes):
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((1500, 4)), rng.standard_normal((1200, 4))
    block = 1500 * 1200 * 8
    peak = peak_bytes(pairwise_sq_dists, a, b)
    assert pairwise_sq_dists(a, b).shape == (1500, 1200)
    assert peak < 1.2 * block


@pytest.mark.parametrize("n, m", [(0, 10), (1, 1), (47, 5), (300, 250), (5000, 700),
                                  (10_000, 3000), (20_001, 20_000), (100_000, 50_000),
                                  (100, 0)])
def test_row_blocks_cover_rows_once_in_order(n, m):
    blocks = row_blocks(n, m)
    assert [i for b in blocks for i in range(n)[b]] == list(range(n))
    sizes = [b.stop - b.start for b in blocks]
    step = sizes[0]
    assert all(size == step for size in sizes[:-1])
    if len(blocks) > 1:
        assert step % ROW_ALIGN == 0
        assert step <= sizes[-1] < 2 * step  # the remainder is folded into the last block
        # the largest aligned step within the budget, or the alignment itself
        assert step * m <= BLOCK_ENTRIES or step == ROW_ALIGN
        assert (step + ROW_ALIGN) * m > BLOCK_ENTRIES
    if n * m <= BLOCK_ENTRIES:
        assert len(blocks) == 1


@pytest.mark.parametrize("d", (3, 25, 58))
def test_row_blocks_reproduce_the_whole_product(d):
    # default budget; each n leaves one row over a whole number of steps
    rng = np.random.default_rng(d)
    with one_blas_thread():
        for m, steps in ((700, 2), (1000, 2), (3000, 3)):
            n = steps * row_blocks(BLOCK_ENTRIES, m)[0].stop + 1
            a, b = rng.standard_normal((n, d)), rng.standard_normal((m, d))
            blocks = row_blocks(n, m)
            assert len(blocks) > 1
            parts = np.concatenate([pairwise_sq_dists(a[rows], b) for rows in blocks])
            assert parts.tobytes() == pairwise_sq_dists(a, b).tobytes()


def twin_latents(d, ties, seed=0):
    """620 rows and two latents; rounded ones tie often. The 289 treated rows
    are one row more than a multiple of the alignment."""
    rng = np.random.default_rng(seed)
    t = rng.permutation((np.arange(620) < 289).astype(int))
    latent0, latent1 = 2.0 * rng.standard_normal((2, 620, d))
    if ties:
        latent0, latent1 = np.round(latent0), np.round(latent1)
    return latent0, latent1, t


@pytest.mark.parametrize("ties", (False, True))
@pytest.mark.parametrize("d", (3, 25, 58))
def test_blocked_twin_search_keeps_bytes(blocked, d, ties):
    latent0, latent1, t = twin_latents(d, ties)
    for search in (lambda: mirror_twins(latent0, t), lambda: mirror_twins(latent1, t, arm=0),
                   lambda: mirror_twins(latent1, t, arm=1),
                   lambda: cross_pipeline_weights(latent0, latent1, t)):
        whole, parts = blocked(search)
        for got in parts:
            for field in ("twin_index", "twin_distance", "weight"):
                assert getattr(got, field).tobytes() == getattr(whole, field).tobytes()


def test_twin_search_peak_memory_is_bounded_by_the_block(peak_bytes):
    # unblocked, each arm's 4000 x 4000 distance block alone takes 128 MB
    rng = np.random.default_rng(4)
    latent = rng.standard_normal((8000, 50))
    t = rng.permutation(np.arange(8000) % 2)
    peak = peak_bytes(mirror_twins, latent, t)
    assert peak < 4 * BLOCK_ENTRIES * 8
