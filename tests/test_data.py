"""Dataset generators, CSV round-trips, splitting and standardization."""

import csv

import numpy as np
import pytest

from alrite.data import (CSV_BLOCK_ROWS, CsvFormatError, Dataset, GenerationError,
                         GroundTruth, Scaler, fit_scaler, generate_acic_like, generate_ihdp_like,
                         generate_two_cluster_toy, identity_scaler, load_csv,
                         save_csv, split)


def test_ihdp_like_shapes_and_kinds():
    ds, truth = generate_ihdp_like(0)
    assert (ds.n, ds.d) == (747, 25)
    assert ds.feature_kinds.count("continuous") == 6
    assert ds.feature_kinds.count("binary") == 19
    assert truth.tau.shape == (747,)
    assert 0 < ds.n1 < ds.n


def test_ihdp_like_att_anchor():
    # omega is chosen so the treated-sample mean effect is exactly 4
    ds, truth = generate_ihdp_like(3)
    assert np.isclose(np.mean(truth.tau[ds.t == 1]), 4.0)


def test_ihdp_like_surfaces():
    ds, truth = generate_ihdp_like(1, noise_scale=1e-12)
    # noiseless outcomes coincide with the factual surface
    mu_fact = np.where(ds.t == 1, truth.mu1, truth.mu0)
    assert np.allclose(ds.y, mu_fact, atol=1e-9)
    assert np.all(truth.mu0 > 0)  # exponential control surface


def test_ihdp_like_determinism_and_seed_sensitivity():
    a, _ = generate_ihdp_like(5)
    b, _ = generate_ihdp_like(5)
    c, _ = generate_ihdp_like(6)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert not np.array_equal(a.x, c.x)


def test_ihdp_like_rejects_bad_args():
    with pytest.raises(ValueError):
        generate_ihdp_like(0, n=5)
    with pytest.raises(ValueError):
        generate_ihdp_like(0, p_treat=1.5)


def test_acic_like_reference_layout():
    ds, truth = generate_acic_like(0, 300)
    assert ds.d == 58
    normal, counts, flags = ds.x[:, :23], ds.x[:, 23:50], ds.x[:, 50:]
    # 23 columns of standard normal draws, 27 of Poisson counts, 8 of 0/1 flags
    assert np.all(normal != np.round(normal))
    assert np.all(np.abs(normal.mean(axis=0)) < 0.3)
    assert np.all(np.abs(normal.std(axis=0) - 1) < 0.2)
    assert np.all(counts == np.round(counts)) and counts.min() >= 0
    assert np.all(counts.max(axis=0) > 1)
    assert np.all(np.isin(flags, (0.0, 1.0))) and np.all(flags.min(axis=0) < flags.max(axis=0))
    assert ds.feature_kinds == ["continuous"] * 50 + ["binary"] * 8
    assert 0 < ds.n1 < ds.n
    assert np.all(np.isfinite(truth.tau))


@pytest.mark.parametrize("generate", [lambda: generate_ihdp_like(0, n=300),
                                      lambda: generate_acic_like(0, 300),
                                      lambda: (generate_two_cluster_toy(0), None)],
                         ids=["ihdp_like", "acic_like", "toy"])
def test_generated_feature_kinds_survive_a_csv_round_trip(tmp_path, generate):
    ds, truth = generate()
    save_csv(tmp_path / "data.csv", ds, truth)
    loaded, _ = load_csv(tmp_path / "data.csv")
    assert loaded.feature_kinds == ds.feature_kinds


def test_two_cluster_toy_structure():
    ds = generate_two_cluster_toy(0)
    assert ds.d == 2
    assert set(np.sign(np.round(ds.x[:, 1] / 3))) == {-1.0, 1.0}
    assert 0 < ds.n1 < ds.n


def test_csv_round_trip_exact(tmp_path):
    ds, truth = generate_ihdp_like(2, n=40, d=4)
    path = tmp_path / "data.csv"
    save_csv(path, ds, truth)
    loaded, loaded_truth = load_csv(path)
    assert np.array_equal(loaded.x, ds.x)
    assert np.array_equal(loaded.t, ds.t)
    assert np.array_equal(loaded.y, ds.y)
    assert np.array_equal(loaded_truth.mu0, truth.mu0)
    assert loaded.feature_kinds == ds.feature_kinds


def test_csv_without_truth(tmp_path):
    ds = generate_two_cluster_toy(1)
    path = tmp_path / "toy.csv"
    save_csv(path, ds)
    loaded, truth = load_csv(path)
    assert truth is None
    assert np.array_equal(loaded.y, ds.y)


def csv_writer_reference(path, dataset, truth=None):
    """`save_csv` as one `csv.writer` row per sample."""
    header = [f"x{j}" for j in range(dataset.d)] + ["t", "y"]
    if truth is not None:
        header += ["mu0", "mu1"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(dataset.n):
            row = [repr(float(v)) for v in dataset.x[i]]
            row += [str(int(dataset.t[i])), repr(float(dataset.y[i]))]
            if truth is not None:
                row += [repr(float(truth.mu0[i])), repr(float(truth.mu1[i]))]
            writer.writerow(row)


@pytest.mark.parametrize("n", [1, CSV_BLOCK_ROWS, 2 * CSV_BLOCK_ROWS + 5])
def test_csv_bytes_match_a_csv_writer(tmp_path, n):
    rng = np.random.default_rng(n)
    edge = [-0.0, 5e-324, 1e-300, 1e16, 1.2345678901234568e17, 3.0, -2.0, 1e-5]
    x = np.column_stack([np.resize(edge, n), rng.standard_normal(n), rng.integers(-3, 4, n)])
    ds = Dataset(x, np.arange(n) % 2, rng.standard_normal(n) * 1e8, ["continuous"] * 3)
    truth = GroundTruth(np.resize(edge[::-1], n), np.round(rng.standard_normal(n), 2))
    for with_truth in (truth, None):
        save_csv(tmp_path / "got.csv", ds, with_truth)
        csv_writer_reference(tmp_path / "want.csv", ds, with_truth)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_csv_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,t,y\n1.0,0,2.0\n1.0,0\n")
    with pytest.raises(CsvFormatError, match="line 3"):
        load_csv(path)
    path.write_text("x0,t,y\n1.0,0,oops\n")
    with pytest.raises(CsvFormatError, match="line 2"):
        load_csv(path)
    path.write_text("a,b\n1,2\n")
    with pytest.raises(CsvFormatError):
        load_csv(path)


def test_split_reference_sizes():
    ds, _ = generate_ihdp_like(0)
    sp = split(ds, 0.1, 0.3, 0)
    assert len(sp.test) == 75
    assert len(sp.validation) == 202
    assert len(sp.train) == 470
    joined = np.sort(np.concatenate([sp.train, sp.validation, sp.test]))
    assert np.array_equal(joined, np.arange(747))


def test_split_arm_coverage_property():
    ds, _ = generate_ihdp_like(1, n=120, d=4)
    for seed in range(20):
        sp = split(ds, 0.2, 0.3, seed)
        for part in (sp.train, sp.validation, sp.test):
            assert 0 < ds.t[part].sum() < len(part)


def test_split_rejects_bad_fractions():
    ds, _ = generate_ihdp_like(0, n=100, d=3)
    with pytest.raises(ValueError):
        split(ds, 0.0, 0.3, 0)
    with pytest.raises(ValueError):
        split(ds, 0.5, 1.2, 0)


def test_split_impossible_raises():
    # only one treated sample: the test part will regularly miss it
    x = np.arange(30, dtype=float)[:, None]
    t = np.zeros(30, dtype=int)
    t[0] = 1
    ds = Dataset(x, t, np.zeros(30), ["continuous"])
    with pytest.raises(GenerationError):
        split(ds, 0.3, 0.3, 0)


def test_standardize_fit_indices_only_and_binary_passthrough():
    ds, _ = generate_ihdp_like(4, n=100, d=8)
    fit_idx = np.arange(60)
    scaler = fit_scaler(ds, fit_idx)
    x_std, y_std = scaler.transform_x(ds.x), scaler.transform_y(ds.y)
    cont = [k == "continuous" for k in ds.feature_kinds]
    assert np.allclose(x_std[fit_idx][:, cont].mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(x_std[fit_idx][:, cont].std(axis=0), 1.0, atol=1e-12)
    binary = [not c for c in cont]
    assert np.array_equal(x_std[:, binary], ds.x[:, binary])
    assert np.allclose(scaler.inverse_y(y_std), ds.y)


def test_standardize_zero_variance_clamped():
    x = np.column_stack([np.ones(10), np.arange(10.0)])
    ds = Dataset(x, np.array([0, 1] * 5), np.arange(10.0), ["continuous"] * 2)
    scaler = fit_scaler(ds, np.arange(10))
    # the zero-variance continuous column keeps scale 1, the other its sd
    assert scaler.x_scale[0] == 1.0 and scaler.x_scale[1] == np.std(np.arange(10.0))
    assert np.all(np.isfinite(scaler.transform_x(ds.x)))


def test_scaler_of_an_older_model_file_ignores_its_masks():
    ds, _ = generate_ihdp_like(4, n=50, d=8)
    scaler = fit_scaler(ds, np.arange(30))
    old = {**scaler.to_dict(), "continuous": [1] * 6 + [0] * 2, "clamped": [0] * 8}
    assert Scaler.from_dict(old).to_dict() == scaler.to_dict()


def test_identity_scaler_is_identity():
    s = identity_scaler(3)
    x = np.random.default_rng(0).standard_normal((5, 3))
    assert np.array_equal(s.transform_x(x), x)
    assert s.inverse_y(2.5) == 2.5


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.array([0, 1, 2]), np.zeros(3), ["continuous"] * 2)
    with pytest.raises(ValueError):
        Dataset(np.full((3, 2), np.nan), np.array([0, 1, 0]), np.zeros(3),
                ["continuous"] * 2)


def test_ground_truth_tau():
    truth = GroundTruth(np.array([1.0, 2.0]), np.array([3.0, 1.0]))
    assert np.array_equal(truth.tau, np.array([2.0, -1.0]))
