"""Command-line driver: config validation, artifact layout, seed
determinism, bytes independent of workers and BLAS threads, crash isolation
and exit codes."""

import csv
import json
import os
import re
import shutil
import subprocess
import sys
from fnmatch import fnmatch
from pathlib import Path

import numpy as np
import pytest

import alrite.cli as cli
import alrite.learner as learner
import alrite.selection as selection
from alrite.data import load_csv
from alrite.learner import (EnsembleModel, aggregate_mu, aggregate_tau, combine_ensemble_grid,
                            ensemble_predict, rank_members)
from alrite.metrics import pehe
from alrite.pipeline import Pipeline, predict_mu, predict_tau
from alrite.propensity import DEFAULT_PROPENSITY_GRID, PropensityModel, predict_eta
from alrite.selection import PROXY_KINDS, fit_auxiliaries, proxy_score
from alrite.cli import (ALPHA_GRID, BATCH_GRID, BETA_GRID, LAMBDA_GRID,
                        LAYER_GRID, WIDTH_GRID, ConfigError, main,
                        member_seed, sample_hyperparams, validate_config)


SMALL_CONFIG = {
    "seed": 3,
    "dataset": {"kind": "ihdp_like", "n": 160, "d": 5, "noise_scale": 0.5},
    "split": {"test_fraction": 0.2, "val_fraction": 0.3},
    "search": {"l0": 2, "l1": 2, "epochs": 8, "layer_grid": [1],
               "width_grid": [20], "batch_grid": [50],
               "alpha_grid": [0.0, 1.0], "beta_grid": [0.0, 1.0]},
    "fit": {"hp0": {"epochs": 6, "embed_layers": 1, "head_layers": 1,
                    "batch_size": 50},
            "hp1": {"epochs": 6, "embed_layers": 1, "head_layers": 1,
                    "batch_size": 50}},
    "bounds": {"instances": 3, "n": 40, "d": 2},
}


def write_config(tmp_path, overrides=None):
    raw = json.loads(json.dumps(SMALL_CONFIG))
    for key, val in (overrides or {}).items():
        raw[key] = val
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_grid_constants_match_documented_domains():
    assert ALPHA_GRID[0] == 0.0 and len(ALPHA_GRID) == 10
    assert np.isclose(ALPHA_GRID[1], 1e-2) and np.isclose(ALPHA_GRID[-1], 1e2)
    assert BETA_GRID[0] == 0.0 and np.isclose(BETA_GRID[-1], 10.0)
    assert LAYER_GRID == (1, 2, 3, 4, 5)
    assert WIDTH_GRID == (20, 50, 100, 200)
    assert BATCH_GRID == (50, 100, 200, 500)
    assert len(LAMBDA_GRID) == 13
    assert np.isclose(LAMBDA_GRID[0], 1e-2) and np.isclose(LAMBDA_GRID[-1], 1e4)


@pytest.mark.parametrize("raw,fragment", [
    ({"seed": -1}, "seed"),
    ({"dataset": {"kind": "mystery"}}, "dataset.kind"),
    ({"dataset": {"kind": "csv"}}, "dataset.path"),
    ({"split": {"test_fraction": 1.5}}, "split.test_fraction"),
    ({"search": {"l0": 0}}, "search.l0"),
    ({"search": {"alpha_grid": [0.37]}}, "search.alpha_grid"),
    ({"selection": {"proxy": "magic"}}, "selection.proxy"),
    ({"ensemble": {"mode": "vote"}}, "ensemble.mode"),
    ({"surprise": 1}, "surprise"),
    ({"search": {"epochs": -1}}, "search.epochs"),
    ({"search": {"epochs": 2.5}}, "search.epochs"),
    ({"search": {"base_lr": 0.0}}, "search.base_lr"),
    ({"search": {"gamma": -1.0}}, "search.gamma"),
    ({"fit": {"hp0": {"widht": 5}}}, "fit.hp0"),
    ({"fit": {"hp1": {"epochs": -1}}}, "fit.hp1"),
    ({"fit": {"hp2": {}}}, "fit"),
    ({"dataset": "ihdp_like"}, "dataset"),
    ({"fit": ["hp0"]}, "fit"),
    ({"propensity_grid": []}, "propensity_grid"),
    ({"propensity_grid": {"kind": "lr"}}, "propensity_grid"),
    ({"propensity_grid": [{"kind": "svm"}]}, "propensity_grid[0]"),
    ({"propensity_grid": ["lr"]}, "propensity_grid[0]"),
    ({"propensity_grid": [{"kind": ["lr"]}]}, "propensity_grid[0]"),
    ({"propensity_grid": [{"kind": "lr", "k": 3}]}, "propensity_grid[0]"),
    ({"propensity_grid": [{"kind": "lr", "l2": -1}]}, "propensity_grid[0].l2"),
    ({"propensity_grid": [{"kind": "lr", "l2": float("inf")}]}, "propensity_grid[0].l2"),
    ({"propensity_grid": [{"kind": "lr"}, {"kind": "knn"}]}, "propensity_grid[1].k"),
    ({"propensity_grid": [{"kind": "knn", "k": 0}]}, "propensity_grid[0].k"),
    ({"propensity_grid": [{"kind": "knn", "k": 2.5}]}, "propensity_grid[0].k"),
    ({"propensity_grid": [{"kind": "tree", "max_depth": -1}]}, "propensity_grid[0].max_depth"),
    ({"propensity_grid": [{"kind": "tree", "min_leaf": 0}]}, "propensity_grid[0].min_leaf"),
    ({"ensemble": {"mode": "softmax", "candidates": [-1.0]}}, "ensemble.candidates"),
    ({"ensemble": {"mode": "softmax", "candidates": []}}, "ensemble.candidates"),
    ({"ensemble": {"mode": "softmax", "candidates": "abc"}}, "ensemble.candidates"),
    ({"ensemble": {"mode": "softmax", "candidates": [1.0, float("nan")]}}, "ensemble.candidates"),
    ({"ensemble": {"mode": "softmax", "candidates": [True]}}, "ensemble.candidates"),
    ({"ensemble": {"candidates": [1.0]}}, "ensemble.candidates"),
    ({"ensemble": {"mode": "softmax", "candidats": [1.0]}}, "ensemble: unknown fields"),
    ({"selection": {"proxy": "mu_risk", "proxi": "r_risk"}}, "selection: unknown fields"),
    ({"split": {"test_frac": 0.2}}, "split: unknown fields"),
    ({"bounds": {"instance": 3}}, "bounds: unknown fields"),
    ({"bounds": {"n": 2.5}}, "bounds.n"),
    ({"bounds": {"d": 0}}, "bounds.d"),
    ({"bounds": {"instances": True}}, "bounds.instances"),
    ({"bounds": {"noise": -1}}, "bounds.noise"),
    ({"bounds": {"noise": float("inf")}}, "bounds.noise"),
    ({"seed": True}, "seed"),
    ({"search": {"l0": True}}, "search.l0"),
    ({"search": {"l1": True}}, "search.l1"),
    ({"search": {"epochz": 5}}, "search: unknown fields"),
    ({"search": {"epochs": True}}, "search.epochs"),
    ({"search": {"gamma": True}}, "search.gamma"),
    ({"search": {"layer_grid": [True]}}, "search.layer_grid"),
    ({"search": {"alpha_grid": "abc"}}, "search.alpha_grid"),
    ({"search": {"alpha_grid": 5}}, "search.alpha_grid"),
    ({"fit": {"hp0": {"epochs": True}}}, "fit.hp0: epochs"),
    ({"fit": {"hp0": {"alpha": True}}}, "fit.hp0: alpha"),
    ({"fit": {"hp0": [1]}}, "fit.hp0"),
    ({"dataset": {"kind": "ihdp_like", "nn": 5}}, "dataset.nn"),
    ({"dataset": {"kind": "ihdp_like", "n": -5}}, "dataset.n"),
    ({"dataset": {"kind": "ihdp_like", "n": True}}, "dataset.n"),
    ({"dataset": {"kind": "ihdp_like", "n": 50.5}}, "dataset.n"),
    ({"dataset": {"kind": "ihdp_like", "p_treat": 1.5}}, "dataset.p_treat"),
    # false was a valid value: the key is gone
    ({"dataset": {"kind": "ihdp_like", "confounded": False}}, "dataset.confounded"),
    ({"dataset": {"kind": "ihdp_like", "seed": -1}}, "dataset.seed"),
    ({"dataset": {"kind": "toy", "n": "abc"}}, "dataset.n"),
    ({"dataset": {"kind": "toy", "d": 5}}, "dataset.d"),
    ({"dataset": {"kind": "acic_like", "nn": 5}}, "dataset.nn"),
    # the fixed acic_like layout's former keys are refused, even at their old defaults
    ({"dataset": {"kind": "acic_like", "d": 58}}, "unknown fields ['dataset.d']"),
    ({"dataset": {"kind": "acic_like", "term_kinds": ["polynomial", "step", "polynomial",
                                                      "indicator"]}},
     "unknown fields ['dataset.term_kinds']"),
    ({"dataset": {"kind": "acic_like", "outcome_terms": 3}},
     "unknown fields ['dataset.outcome_terms']"),
    ({"dataset": {"kind": "acic_like", "noise_scale": 1.0}},
     "unknown fields ['dataset.noise_scale']"),
    ({"output_dir": 5}, "output_dir"),
    ({"bounds": {"n": 1}}, "bounds.n"),
])
def test_validate_config_names_offending_field(raw, fragment):
    base = {"seed": 0, "dataset": {"kind": "ihdp_like"}}
    base.update(raw)
    with pytest.raises(ConfigError, match=re.escape(fragment)):
        validate_config(base)


def test_validate_config_defaults():
    cfg = validate_config({"dataset": {"kind": "toy"}})
    assert cfg.seed == 0
    assert cfg.selection["proxy"] == "mu_risk"
    assert cfg.ensemble["mode"] == "top_k"


def test_validate_config_builds_fit_hyperparams():
    cfg = validate_config({"search": {"epochs": 7, "base_lr": 0.05, "gamma": 0.5},
                           "fit": {"hp1": {"epochs": 3, "embed_width": 50}}})
    hp0, hp1 = cfg.fit["hp0"], cfg.fit["hp1"]
    # fit takes epochs and base_lr from search (not gamma); hp0/hp1 override them
    assert (hp0.epochs, hp0.base_lr, hp0.gamma, hp0.embed_width) == (7, 0.05, 1e-4, 20)
    assert (hp1.epochs, hp1.base_lr, hp1.embed_width) == (3, 0.05, 50)
    assert cfg.split == {"test_fraction": 0.1, "val_fraction": 0.3}
    assert cfg.search["l0"] == cfg.search["l1"] == 2
    assert cfg.propensity_grid == list(DEFAULT_PROPENSITY_GRID)


def test_validate_config_fills_propensity_grid_member_defaults():
    assert (validate_config({"propensity_grid": [{"kind": "lr"}]}).propensity_grid
            == [{"kind": "lr", "l2": 1e-3}])
    grid = [{"kind": "tree"}, {"kind": "tree", "max_depth": 1}, {"kind": "knn", "k": 4}]
    assert validate_config({"propensity_grid": grid}).propensity_grid == [
        {"kind": "tree", "max_depth": 3, "min_leaf": 10},
        {"kind": "tree", "max_depth": 1, "min_leaf": 10}, {"kind": "knn", "k": 4}]


@pytest.mark.parametrize("command,section,value", [
    ("fit", "fit", {"hp0": {"widht": 5}}),
    ("fit", "fit", {"hp0": {"epochs": -1}}),
    ("fit", "fit", {"hp1": {"epochs": 2.5}}),
    ("sweep", "search", {"l0": 1, "l1": 1, "epochs": -1}),
    ("sweep", "search", {"l0": 1, "l1": 1, "base_lr": 0.0}),
    ("sweep", "search", {"l0": 1, "l1": 1, "gamma": "big"}),
    ("fit", "propensity_grid", [{"kind": "svm"}]),
    ("fit", "propensity_grid", [{"kind": "knn", "k": 0}]),
    ("fit", "propensity_grid", [{"kind": "knn"}]),
    ("fit", "propensity_grid", [{"kind": "tree", "min_leaf": 0}]),
    ("fit", "propensity_grid", []),
    ("fit", "propensity_grid", [{"kind": "lr", "l2": -1}]),
    ("sweep", "propensity_grid", [{"kind": "svm"}]),
    ("ensemble", "ensemble", {"mode": "softmax", "candidates": [-1.0]}),
    ("ensemble", "ensemble", {"mode": "softmax", "candidates": []}),
    ("ensemble", "ensemble", {"mode": "softmax", "candidates": "abc"}),
    ("ensemble", "ensemble", {"mode": "softmax", "candidats": [1.0]}),
    ("ensemble", "ensemble", {"mode": "top_k", "candidates": [1.0]}),
    ("select", "selection", {"proxy": "mu_risk", "proxi": "r_risk"}),
    ("sweep", "split", {"test_fraction": 0.2, "val_frac": 0.3}),
    ("bounds", "bounds", {"n": 2.5}),
    ("bounds", "bounds", {"noise": -1}),
    ("bounds", "bounds", {"instances": 3, "nn": 40}),
    ("sweep", "seed", True),
    ("sweep", "search", {"l0": True, "l1": 1}),
    ("sweep", "search", {"l0": 1, "l1": True}),
    ("sweep", "search", {"l0": 1, "l1": 1, "epochz": 5}),
    ("fit", "search", {"epochz": 5}),
    ("sweep", "search", {"l0": 1, "l1": 1, "epochs": True}),
    ("fit", "fit", {"hp0": {"alpha": True}}),
    ("generate", "dataset", {"kind": "ihdp_like", "nn": 5}),
    ("generate", "dataset", {"kind": "ihdp_like", "n": -5}),
    ("generate", "dataset", {"kind": "ihdp_like", "n": True}),
    ("generate", "dataset", {"kind": "ihdp_like", "n": 50.5}),
    ("generate", "dataset", {"kind": "ihdp_like", "p_treat": 1.5}),
    ("generate", "dataset", {"kind": "toy", "n": "abc"}),
    ("generate", "dataset", {"kind": "acic_like", "nn": 5}),
    # removed keys, at their old defaults
    ("generate", "dataset", {"kind": "acic_like", "d": 58}),
    ("generate", "dataset", {"kind": "acic_like", "link": "sigmoid"}),
    ("generate", "dataset", {"kind": "acic_like", "n_count": 27}),
])
def test_hyperparameter_mistakes_exit_1(tmp_path, capsys, command, section, value):
    cfg = write_config(tmp_path, {section: value})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_readme_config_matches_the_schema():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    assert len(blocks) >= 2
    for block in blocks:
        validate_config(json.loads(block))
    # each dataset kind's bullet names exactly its keys; the parent bullet names `seed`
    bullets = {b.split("`")[1]: b.split("\n- ")[0] for b in readme.split("\n  - ")[1:]}
    _, kinds = cli.CONFIG["dataset"]
    for kind, keys in kinds.items():
        named = set(re.findall(r"`(\w+)`", bullets[kind])) - {kind}
        assert named == set(keys) - {"seed"}, kind


def test_readme_lists_the_files_each_command_writes():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme[readme.index("\n- `generate`: "):].split("\n\n")[0]  # the file list
    listed = dict(re.findall(r"^- `(\w+)`: (.*?)(?=\n- |\Z)", block, re.M | re.S))
    assert listed.keys() == cli.ARTIFACTS.keys()
    for command, names in cli.ARTIFACTS.items():
        assert set(re.findall(r"`([^`]+\.\w+)`", listed[command])) == set(names), command


def test_member_seed_counter_based():
    assert member_seed(0, 1) == member_seed(0, 1)
    assert member_seed(0, 1) != member_seed(0, 2)
    assert member_seed(0, 1) != member_seed(1, 1)


def test_sample_hyperparams_respects_subgrids():
    rng = np.random.default_rng(0)
    # sample_hyperparams takes a checked search section, every key filled in
    search = validate_config({"search": {
        "alpha_grid": [0.0, 1.0], "beta_grid": [1.0], "layer_grid": [1, 2],
        "width_grid": [20], "batch_grid": [50], "epochs": 5}}).search
    for _ in range(20):
        hp = sample_hyperparams(rng, search)
        assert hp.alpha in (0.0, 1.0)
        assert hp.beta == 1.0
        assert hp.embed_layers in (1, 2) and hp.head_layers in (1, 2)
        assert hp.embed_width == 20 and hp.batch_size == 50 and hp.epochs == 5


def test_generate_writes_dataset_and_manifest(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "dataset.csv").read_text().strip().split("\n")
    assert len(rows) == 161  # header + n
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n"] == 160 and manifest["d"] == 5 and manifest["has_truth"]


def test_generate_byte_identical_reruns(tmp_path):
    cfg = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "--config", cfg, "--out", str(a)]) == 0
    assert main(["generate", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()


def test_generate_refuses_csv_kind(tmp_path):
    cfg = write_config(tmp_path, {"dataset": {"kind": "csv", "path": "x.csv"}})
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "r")]) == 1


def run_sweep(tmp_path, name, extra_args=()):
    cfg = write_config(tmp_path)
    out = tmp_path / name
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out), *extra_args]) == 0
    return cfg, out


def test_sweep_artifacts_and_candidate_count(tmp_path):
    _, out = run_sweep(tmp_path, "run")
    sweep = json.loads((out / "sweep.json").read_text())
    assert len(sweep["members"]) == 4
    assert sweep["n_candidates"] == 4  # 2x2 all pairs
    with open(out / "candidates.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["candidate_id", "i0", "i1"]
    assert len(rows) == 5
    # truth was available, so validation PEHE must be populated
    assert all(float(r[-1]) >= 0 for r in rows[1:])
    assert (out / "eta.json").exists() and (out / "split.json").exists()
    assert len(list((out / "models").glob("member_*.json"))) == 4


def test_sweep_master_seed_determinism(tmp_path):
    _, out_a = run_sweep(tmp_path, "a")
    _, out_b = run_sweep(tmp_path, "b")
    assert (out_a / "candidates.csv").read_bytes() == (out_b / "candidates.csv").read_bytes()
    assert (out_a / "sweep.json").read_bytes() == (out_b / "sweep.json").read_bytes()


def test_sweep_bytes_independent_of_workers(tmp_path, written):
    _, serial = run_sweep(tmp_path, "serial", ["--workers", "1"])
    _, pooled = run_sweep(tmp_path, "pooled", ["--workers", "2"])
    files = written(serial, "sweep")
    assert len(files) == 5 + 4  # 4 member models
    assert written(pooled, "sweep") == files


# width-100 two-layer members on 240 rows: large enough products that a
# threaded OpenBLAS splits them, which changed members' last bits
THREADS_CONFIG = {
    "seed": 0,
    "dataset": {"kind": "ihdp_like", "n": 240, "d": 25},
    "search": {"l0": 2, "l1": 2, "epochs": 2, "width_grid": [100], "layer_grid": [2],
               "batch_grid": [100]},
    "ensemble": {"mode": "softmax", "candidates": [1.0, 100.0]},
}
# fit trains both pipelines at alpha = beta = 0, with no twin search
RAN = ("generate", "sweep", "select", "ensemble", "fit", "evaluate")
RUN_COMMANDS = """
import sys
from alrite.cli import main
config, out, workers, *commands = sys.argv[1:]
for command in commands:
    args = [command, "--config", config, "--out", out]
    if command in ("sweep", "fit"):
        args += ["--workers", workers]
    if main(args) != 0:
        sys.exit(f"{command} failed")
"""


def test_artifact_bytes_independent_of_blas_threads_and_workers(tmp_path, written):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(THREADS_CONFIG))
    src = str(Path(cli.__file__).resolve().parents[1])
    runs = {}
    for threads in ("1", "2"):
        for workers in ("1", "2"):
            out = tmp_path / f"threads{threads}-workers{workers}"
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", RUN_COMMANDS, str(cfg), str(out),
                                   workers, *RAN], env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            runs[out.name] = {str(p.relative_to(out)): p.read_bytes()
                              for p in sorted(out.rglob("*")) if p.is_file()}
    first, *others = runs
    assert len(runs[first]) == 17  # 4 member models
    assert runs[first].keys() == written(tmp_path / first, *RAN).keys()
    for name in others:
        assert runs[name].keys() == runs[first].keys(), name
        for path, data in runs[first].items():
            assert runs[name][path] == data, f"{path} differs between {first} and {name}"


def test_sweep_pool_runs_every_job_nuisances_first(tmp_path, monkeypatch):
    sizes, submitted = [], []

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)  # the job list, as each worker takes it

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, indices):
            indices = list(indices)
            submitted.extend(cli._jobs[i][0] for i in indices)
            return map(fn, indices)

    monkeypatch.setattr(cli, "_jobs", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    run_sweep(tmp_path, "run", ["--workers", "500"])
    # eta_hat's CV, then m_hat, mu0_hat and mu1_hat, then the 2 + 2 members
    assert submitted == ([cli.select_eta] + [cli.fit_kernel_ridge_cv] * 3
                         + [cli._train_member] * 4)
    assert sizes == [min(500, len(submitted))]


NUISANCE_AND_MEMBER_FITS = ("select_propensity", "fit_kernel_ridge_cv", "train_pipeline",
                            "predict_tau")


def test_sweep_fits_nothing_in_the_parent_at_two_workers(tmp_path, monkeypatch):
    log = tmp_path / "calls.log"

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{name} {os.getpid()}\n")
            return fn(*args, **kwargs)
        return wrapper

    for module in (cli, learner, selection):
        for name in NUISANCE_AND_MEMBER_FITS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
    run_sweep(tmp_path, "run", ["--workers", "2"])
    calls = [line.split() for line in log.read_text().splitlines()]
    assert {name for name, _ in calls} == set(NUISANCE_AND_MEMBER_FITS)
    assert str(os.getpid()) not in {pid for _, pid in calls}


def _fit_and_bounds(tmp_path, name, workers):
    cfg = write_config(tmp_path)
    out = tmp_path / name
    codes = [main([command, "--config", cfg, "--out", str(out), "--workers", workers])
             for command in ("fit", "bounds")]
    return out, codes


def test_fit_and_bounds_bytes_independent_of_workers(tmp_path, written):
    serial, codes = _fit_and_bounds(tmp_path, "serial", "1")
    assert codes == [0, 0]
    pooled, codes = _fit_and_bounds(tmp_path, "pooled", "2")
    assert codes == [0, 0]
    files = written(serial, "fit", "bounds")
    assert len(files) == 3
    assert written(pooled, "fit", "bounds") == files
    assert len((serial / "bounds.csv").read_text().splitlines()) == 1 + 3 * 3


def test_fit_failing_in_the_pool_exits_2_with_the_same_message(tmp_path, capsys):
    # a learning rate this large overflows p0 after its first Adam step, so
    # its training job raises
    fit = json.loads(json.dumps(SMALL_CONFIG["fit"]))
    fit["hp0"]["base_lr"] = 1e300
    errors = []
    for workers in ("1", "2"):
        cfg = write_config(tmp_path, {"fit": fit})
        out = tmp_path / f"workers{workers}"
        assert main(["fit", "--config", cfg, "--out", str(out), "--workers", workers]) == 2
        errors.append(capsys.readouterr().err)
        assert not (out / "model.json").exists()
    assert errors == ["error: FloatingPointError: non-finite upstream gradient\n"] * 2


def test_candidate_rows_rebuild_from_written_members(tmp_path):
    _, out = run_sweep(tmp_path, "run")
    dataset, truth = load_csv(out / "dataset.csv")
    split_raw = json.loads((out / "split.json").read_text())
    train, val = (np.asarray(split_raw[k], dtype=int) for k in ("train", "validation"))
    eta = PropensityModel.from_dict(json.loads((out / "eta.json").read_text()))
    aux = fit_auxiliaries(dataset, train, member_seed(SMALL_CONFIG["seed"], 10_001), eta)
    members = {m["index"]: Pipeline.from_dict(json.loads((out / m["path"]).read_text()))
               for m in json.loads((out / "sweep.json").read_text())["members"]}
    x_val, t_val = dataset.x[val], dataset.t[val]
    expected = [["candidate_id", "i0", "i1", *PROXY_KINDS, "pehe"]]
    for i in (0, 1):
        for j in (2, 3):
            p0, p1 = members[i], members[j]
            cand = {"tau": aggregate_tau(p0, p1, eta, x_val),
                    "mu": aggregate_mu(p0, p1, eta, x_val, t_val)}
            scores = [proxy_score(kind, cand, dataset, val, aux) for kind in PROXY_KINDS]
            expected.append([str(len(expected) - 1), str(i), str(j)]
                            + [repr(v) for v in scores + [pehe(cand["tau"], truth, val)[0]]])
    with open(out / "candidates.csv", newline="") as fh:
        assert list(csv.reader(fh)) == expected


def test_proxy_winner_smallest_index_tie():
    mu_risk, tau_dr = [0.5, 0.2, 0.2, 0.9], [0.3, 0.1, 0.1, 0.1]
    assert cli._proxy_winner(mu_risk) == 1
    assert cli._proxy_winner(tau_dr) == 1
    assert cli._proxy_winner(tau_dr[2:]) == 0
    assert cli._proxy_winner(mu_risk[:1]) == 0


def test_sweep_crash_isolation(tmp_path, monkeypatch):
    real = cli.train_pipeline

    def flaky(dataset, split_idx, role, hp, seed):
        if seed == member_seed(3, 1):  # first control-driven member
            raise RuntimeError("synthetic failure")
        return real(dataset, split_idx, role, hp, seed)

    monkeypatch.setattr(cli, "train_pipeline", flaky)
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    sweep = json.loads((out / "sweep.json").read_text())
    statuses = [m["status"] for m in sweep["members"]]
    assert statuses.count("failed") == 1
    failed = next(m for m in sweep["members"] if m["status"] == "failed")
    assert "synthetic failure" in failed["error"]
    assert sweep["n_candidates"] == 2  # 1 surviving control x 2 treatment
    preds = json.loads((out / "member_predictions.json").read_text())
    assert set(preds["validation_mu"]) == set(preds["test_tau"]) == {"1", "2", "3"}


def test_select_and_ensemble_and_report(tmp_path):
    cfg, out = run_sweep(tmp_path, "run")
    assert main(["select", "--config", cfg, "--out", str(out)]) == 0
    sel = json.loads((out / "selection.json").read_text())
    assert sel["proxy"] == "mu_risk"
    with open(out / "candidates.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("mu_risk")
    scores = [float(r[col]) for r in rows[1:]]
    assert sel["score"] == min(scores)

    assert main(["ensemble", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "ensemble_curve.csv", newline="") as fh:
        curve = list(csv.reader(fh))
    assert curve[0] == ["candidate", "val_mu_risk", "test_pehe"]
    assert len(curve) == 3  # header + K in {1, 2}
    ens = json.loads((out / "ensemble.json").read_text())
    assert ens["mode"] == "top_k"

    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
    assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
    assert main(["evaluate", "--config", cfg, "--out", str(out)]) == 0
    ev = json.loads((out / "evaluation.json").read_text())
    assert "sqrt_pehe" in ev and "orpol" in ev

    assert main(["report", "--config", cfg, "--out", str(out)]) == 0
    digest = (out / "digest.txt").read_text()
    assert "missing" not in digest
    assert (out / "rank_agreement.csv").exists()
    assert (out / "selection_summary.csv").exists()


def test_ensemble_json_predicts_like_the_written_members(tmp_path):
    cfg, out = run_sweep(tmp_path, "run")
    assert main(["ensemble", "--config", cfg, "--out", str(out)]) == 0
    ens = json.loads((out / "ensemble.json").read_text())
    assert set(ens) == {"mode", "param", "members0", "members1", "mu_risks0", "mu_risks1"}
    # rebuild from the members' sweep indices, their model files and eta.json
    sweep = json.loads((out / "sweep.json").read_text())
    paths = {m["index"]: m["path"] for m in sweep["members"]}
    load = lambda i: Pipeline.from_dict(json.loads((out / paths[i]).read_text()))
    eta = PropensityModel.from_dict(json.loads((out / "eta.json").read_text()))
    rebuilt = EnsembleModel([load(i) for i in ens["members0"]], [load(i) for i in ens["members1"]],
                            eta, ens["mode"], ens["param"], ens["mu_risks0"], ens["mu_risks1"])

    by_role = {role: [m for m in sweep["members"] if m["role"] == role]
               for role in ("control_driven", "treatment_driven")}
    indices0, members0, risks0 = rank_members(
        [m["index"] for m in by_role["control_driven"]],
        [load(m["index"]) for m in by_role["control_driven"]],
        [m["val_mu_risk"] for m in by_role["control_driven"]])
    indices1, members1, risks1 = rank_members(
        [m["index"] for m in by_role["treatment_driven"]],
        [load(m["index"]) for m in by_role["treatment_driven"]],
        [m["val_mu_risk"] for m in by_role["treatment_driven"]])
    # a top-K ensemble lists the K best members per arm, the rest weigh 0
    k = int(ens["param"])
    assert ens["mode"] == "top_k" and k < len(members0)
    assert (ens["members0"], ens["members1"]) == (indices0[:k], indices1[:k])
    assert (ens["mu_risks0"], ens["mu_risks1"]) == (risks0[:k], risks1[:k])
    test = json.loads((out / "split.json").read_text())["test"]
    x = load_csv(out / "dataset.csv")[0].x[test]
    untrimmed = EnsembleModel(members0, members1, eta, ens["mode"], ens["param"], risks0, risks1)
    assert ensemble_predict(rebuilt, x).tobytes() == ensemble_predict(untrimmed, x).tobytes()


def _decoded_members(out):
    """The sweep's members decoded from models/, with the split's rows."""
    dataset, truth = load_csv(out / "dataset.csv")
    split_raw = json.loads((out / "split.json").read_text())
    val, test = (np.asarray(split_raw[k], dtype=int) for k in ("validation", "test"))
    members = json.loads((out / "sweep.json").read_text())["members"]
    pipelines = {m["index"]: Pipeline.from_dict(json.loads((out / m["path"]).read_text()))
                 for m in members}
    return dataset, truth, val, test, members, pipelines


def test_member_predictions_are_the_written_members_predictions(tmp_path):
    _, out = run_sweep(tmp_path, "run")
    dataset, _, val, test, members, pipelines = _decoded_members(out)
    preds = json.loads((out / "member_predictions.json").read_text())
    assert set(preds) == {"validation_mu", "test_tau"}
    assert set(preds["validation_mu"]) == set(preds["test_tau"]) == {"0", "1", "2", "3"}
    for index, p in pipelines.items():
        mu = np.asarray(preds["validation_mu"][str(index)], dtype=float)
        tau = np.asarray(preds["test_tau"][str(index)], dtype=float)
        assert mu.tobytes() == predict_mu(p, dataset.x[val], dataset.t[val]).tobytes()
        assert tau.tobytes() == predict_tau(p, dataset.x[test]).tobytes()


@pytest.mark.parametrize("ensemble", [{"mode": "top_k"},
                                      {"mode": "softmax"},
                                      {"mode": "softmax", "candidates": [0.5, 3, 40.0]}])
def test_ensemble_reads_no_model_file(tmp_path, ensemble):
    cfg = write_config(tmp_path, {"ensemble": ensemble})
    out = tmp_path / "run"
    for command in ("generate", "sweep", "ensemble"):
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
    written = {name: (out / name).read_bytes() for name in ("ensemble_curve.csv", "ensemble.json")}

    # the curve the decoded members predict
    dataset, truth, val, test, members, pipelines = _decoded_members(out)
    eta = PropensityModel.from_dict(json.loads((out / "eta.json").read_text()))
    ranked = [rank_members([m["index"] for m in members if m["role"] == role],
                           [pipelines[m["index"]] for m in members if m["role"] == role],
                           [m["val_mu_risk"] for m in members if m["role"] == role])
              for role in ("control_driven", "treatment_driven")]
    (_, members0, risks0), (_, members1, risks1) = ranked
    grid = (list(range(1, 3)) if ensemble["mode"] == "top_k"
            else ensemble.get("candidates", list(LAMBDA_GRID)))
    x_val, t_val, x_test = dataset.x[val], dataset.t[val], dataset.x[test]
    mus = combine_ensemble_grid([predict_mu(p, x_val, t_val) for p in members0],
                                [predict_mu(p, x_val, t_val) for p in members1],
                                predict_eta(eta, x_val), ensemble["mode"], grid, risks0, risks1)
    taus = combine_ensemble_grid([predict_tau(p, x_test) for p in members0],
                                 [predict_tau(p, x_test) for p in members1],
                                 predict_eta(eta, x_test), ensemble["mode"], grid, risks0, risks1)
    expected = [["candidate", "val_mu_risk", "test_pehe"]] + [
        [repr(c) if isinstance(c, float) else str(c),
         repr(float(np.mean((dataset.y[val] - mu) ** 2))), repr(pehe(tau, truth, test)[0])]
        for c, mu, tau in zip(grid, mus, taus)]
    with open(out / "ensemble_curve.csv", newline="") as fh:
        assert list(csv.reader(fh)) == expected

    shutil.rmtree(out / "models")
    for name in written:
        (out / name).unlink()
    assert main(["ensemble", "--config", cfg, "--out", str(out)]) == 0
    for name, data in written.items():
        assert (out / name).read_bytes() == data, name


def test_ensemble_without_member_predictions_exits_2(tmp_path, capsys):
    cfg, out = run_sweep(tmp_path, "run")
    (out / "member_predictions.json").unlink()
    capsys.readouterr()
    assert main(["ensemble", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "member_predictions.json" in err and "rerun `sweep`" in err
    assert not (out / "ensemble.json").exists()


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    """A config and an `--out` that `generate`, `sweep` and `fit` wrote; copy
    before changing it."""
    cfg, out = run_sweep(tmp_path_factory.mktemp("swept"), "run")
    assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
    return cfg, out


DAMAGE = {"deleted": lambda path: path.unlink(),
          "emptied": lambda path: path.write_bytes(b""),
          "holding {": lambda path: path.write_bytes(b"{"),
          "truncated": lambda path: path.write_bytes(path.read_bytes()[:20])}


DAMAGED = [
    *(("ensemble", name, "sweep", "deleted")
      for name in ("sweep.json", "eta.json", "split.json", "member_predictions.json")),
    ("evaluate", "model.json", "fit", "deleted"),
    ("select", "candidates.csv", "sweep", "deleted"),
    ("select", "candidates.csv", "sweep", "emptied"),
    ("ensemble", "split.json", "sweep", "holding {"),
    ("evaluate", "manifest.json", "generate", "truncated"),
    ("report", "sweep.json", "sweep", "truncated"),
]


# a deleted file's case is named without its damage
@pytest.mark.parametrize("command,name,writer,damage", DAMAGED, ids=[
    "-".join(case[:3] if case[3] == "deleted" else case) for case in DAMAGED])
def test_missing_artifact_names_the_command_that_writes_it(swept, tmp_path, capsys, command,
                                                           name, writer, damage):
    cfg, out = swept[0], tmp_path / "run"
    shutil.copytree(swept[1], out)
    DAMAGE[damage](out / name)
    capsys.readouterr()
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(out / name) in err and f"rerun `{writer}`" in err


def test_a_smaller_sweep_removes_the_earlier_members(swept, tmp_path):
    out = tmp_path / "run"
    shutil.copytree(swept[1], out)
    cfg = write_config(tmp_path, {"search": {**SMALL_CONFIG["search"], "l0": 1, "l1": 1}})
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    named = {m["path"] for m in json.loads((out / "sweep.json").read_text())["members"]}
    assert named == {"models/member_000.json", "models/member_001.json"}
    assert {p.relative_to(out).as_posix() for p in (out / "models").iterdir()} == named


def test_a_sweep_without_a_usable_role_leaves_the_earlier_members(swept, tmp_path,
                                                                  monkeypatch, capsys):
    out = tmp_path / "run"
    shutil.copytree(swept[1], out)
    before = {p.name: p.read_bytes() for p in (out / "models").iterdir()}
    real = cli.train_pipeline

    def control_only(dataset, split_idx, role, hp, seed):
        if role == "treatment_driven":
            raise RuntimeError("synthetic failure")
        return real(dataset, split_idx, role, hp, seed)

    monkeypatch.setattr(cli, "train_pipeline", control_only)
    # fewer epochs than the earlier sweep, so its control members differ
    cfg = write_config(tmp_path, {"search": {**SMALL_CONFIG["search"], "epochs": 3}})
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert "no usable member for at least one role" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in (out / "models").iterdir()} == before


class FinishingPool:
    """A pool whose started jobs all run to their end before the first
    failure in job order raises, as `ProcessPoolExecutor.map` does for jobs a
    worker has already taken."""

    def __init__(self, max_workers, initializer, initargs):
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, indices):
        results, failures = [], []
        for i in indices:
            try:
                results.append(fn(i))
            except Exception as exc:
                failures.append(exc)
        if failures:
            raise failures[0]
        return results


def test_a_sweep_failing_in_the_pool_leaves_no_staged_member(swept, tmp_path, monkeypatch,
                                                              capsys):
    out = tmp_path / "run"
    shutil.copytree(swept[1], out)
    before = {p.name: p.read_bytes() for p in (out / "models").iterdir()}
    real, calls = cli.fit_kernel_ridge_cv, []

    def failing_mu1(x, y, seed):
        calls.append(seed)
        if len(calls) == 3:  # m_hat's job, mu0_hat's, then mu1_hat's
            raise RuntimeError("synthetic nuisance failure")
        return real(x, y, seed)

    monkeypatch.setattr(cli, "_jobs", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", FinishingPool)
    monkeypatch.setattr(cli, "fit_kernel_ridge_cv", failing_mu1)
    # fewer epochs than the earlier sweep, so its members differ
    cfg = write_config(tmp_path, {"search": {**SMALL_CONFIG["search"], "epochs": 3}})
    assert main(["sweep", "--config", cfg, "--out", str(out), "--workers", "2"]) == 2
    assert "synthetic nuisance failure" in capsys.readouterr().err
    assert len(calls) == 3
    assert not list(out.rglob("*.part"))
    assert {p.name: p.read_bytes() for p in (out / "models").iterdir()} == before


def test_each_command_writes_exactly_its_artifacts(tmp_path):
    assert cli.ARTIFACTS.keys() == cli.COMMANDS.keys()
    cfg, out = write_config(tmp_path), tmp_path / "run"
    files = set()
    for command, patterns in cli.ARTIFACTS.items():  # an order each command can run in
        assert main([command, "--config", cfg, "--out", str(out)]) == 0, command
        added = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()} - files
        assert all(any(fnmatch(f, pattern) for pattern in patterns) for f in added), command
        assert all(any(fnmatch(f, pattern) for f in added) for pattern in patterns), command
        files |= added
    assert len(files) == 21  # 4 member models


def test_report_on_a_sweep_without_candidates_lists_them_missing(swept, tmp_path):
    out = tmp_path / "run"
    shutil.copytree(swept[1], out)
    (out / "candidates.csv").unlink()
    assert main(["report", "--out", str(out)]) == 0
    digest = (out / "digest.txt").read_text()
    assert "sweep: 4/4 members trained, 4 candidates\n" in digest
    assert "missing: candidates.csv\n" in digest
    assert not (out / "rank_agreement.csv").exists()


def test_only_model_files_hold_parameters(tmp_path):
    cfg, out = run_sweep(tmp_path, "run")
    for command in ("ensemble", "fit"):
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
    holders = {str(p.relative_to(out)) for p in out.rglob("*.json") if '"theta"' in p.read_text()}
    assert holders == {"model.json"} | {f"models/member_{i:03d}.json" for i in range(4)}
    assert os.path.getsize(out / "ensemble.json") < 10_000

    # nor does any JSON repeat the propensity clip or a "fitted" flag
    def keys(value):
        if isinstance(value, dict):
            return set(value).union(*map(keys, value.values()))
        return set().union(*map(keys, value)) if isinstance(value, list) else set()
    for path in out.rglob("*.json"):
        assert not keys(json.loads(path.read_text())) & {"clip", "fitted"}, path


def test_malformed_member_file_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
    model = out / "model.json"
    d = json.loads(model.read_text())
    del d["p0"]["theta"]
    model.write_text(json.dumps(d))
    assert main(["evaluate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "ValueError" in err and "rerun `sweep` or `fit`" in err


def test_report_flags_missing_artifacts(tmp_path):
    out = tmp_path / "empty"
    out.mkdir()
    assert main(["report", "--out", str(out)]) == 0
    digest = (out / "digest.txt").read_text()
    for artifact in ("manifest.json", "sweep.json", "evaluation.json",
                     "ensemble_curve.csv", "bounds.csv"):
        assert f"missing: {artifact}" in digest


def test_exit_codes(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["generate", "--config", missing, "--out", str(tmp_path / "r")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["generate", "--config", str(bad), "--out", str(tmp_path / "r")]) == 1
    cfg = write_config(tmp_path)
    # select before sweep: missing artifact is a runtime failure, not config
    assert main(["select", "--config", cfg, "--out", str(tmp_path / "void")]) == 2
    assert main(["evaluate", "--config", cfg, "--out", str(tmp_path / "void")]) == 2


def test_seed_override(tmp_path):
    cfg = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "--config", cfg, "--out", str(a), "--seed", "11"]) == 0
    assert main(["generate", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "dataset.csv").read_bytes() != (b / "dataset.csv").read_bytes()
    assert json.loads((a / "manifest.json").read_text())["seed"] == 11


def test_dataset_equal_to_the_one_on_disk_is_reused(tmp_path):
    out = tmp_path / "run"
    hp = {"epochs": 1, "embed_layers": 1, "head_layers": 1}

    def config(dataset):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"dataset": dataset, "fit": {"hp0": hp, "hp1": hp}}))
        return str(path)

    assert main(["generate", "--config", config({"kind": "toy"}), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["dataset"] == {"kind": "toy", "seed": 0, "n": 200}
    # a default or the experiment seed spelled out gives the same data
    for same in ({"kind": "toy", "n": 200}, {"kind": "toy", "seed": 0}):
        assert main(["fit", "--config", config(same), "--out", str(out)]) == 0
    # a manifest recording the section as given, without its defaults, matches too
    manifest["dataset"] = {"kind": "toy"}
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert main(["fit", "--config", config({"kind": "toy", "n": 200}), "--out", str(out)]) == 0
    assert main(["fit", "--config", config({"kind": "toy", "n": 201}), "--out", str(out)]) == 1


# how each refused run directory's message ends
RECOVER = "rerun `generate`, or use another --out"


def test_dataset_from_another_config_is_refused(tmp_path, capsys):
    out = tmp_path / "run"
    small = write_config(tmp_path)
    assert main(["generate", "--config", small, "--out", str(out)]) == 0
    raw = json.loads(Path(small).read_text())
    raw["dataset"]["n"] = 320
    big = tmp_path / "big.json"
    big.write_text(json.dumps(raw))
    assert main(["fit", "--config", str(big), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "'n': 160" in err and "'n': 320" in err
    assert "manifest.json" in err and err.rstrip().endswith(RECOVER)
    # another experiment seed is another dataset seed when the dataset has none
    assert main(["fit", "--config", small, "--out", str(out), "--seed", "4"]) == 1
    err = capsys.readouterr().err
    assert "seed 3" in err and "seed 4" in err
    assert not (out / "model.json").exists()

    # the matching config reuses the file
    assert main(["fit", "--config", small, "--out", str(out)]) == 0
    assert main(["evaluate", "--config", small, "--out", str(out)]) == 0
    evaluation = (out / "evaluation.json").read_bytes()
    assert json.loads(evaluation)["n_test"] == 32
    assert main(["evaluate", "--config", str(big), "--out", str(out)]) == 1
    assert (out / "evaluation.json").read_bytes() == evaluation
    # so does any config when no manifest says where the file came from
    (out / "manifest.json").unlink()
    assert main(["evaluate", "--config", str(big), "--out", str(out)]) == 0
    assert json.loads((out / "evaluation.json").read_text())["n_test"] == 32


def test_acic_like_manifest_records_only_seed_and_n(tmp_path):
    cfg = write_config(tmp_path, {"dataset": {"kind": "acic_like", "n": 60}})
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["dataset"] == {"kind": "acic_like", "seed": 3, "n": 60}


ACIC_PROTOCOL_KEYS = {"d": 58, "n_continuous": 23, "n_count": 27, "n_binary": 8,
                      "term_kinds": ["polynomial", "step", "polynomial", "indicator"],
                      "link": "sigmoid", "noise_scale": 1.0, "outcome_terms": 3}


@pytest.mark.parametrize("dataset,removed", [
    ({"kind": "acic_like", "n": 60}, ACIC_PROTOCOL_KEYS),
    ({"kind": "ihdp_like", "n": 60}, {"confounded": False}),
], ids=["acic_like", "ihdp_like"])
def test_a_manifest_with_a_removed_dataset_key_is_refused(tmp_path, capsys, dataset, removed):
    cfg = write_config(tmp_path, {"dataset": dataset})
    out = tmp_path / "run"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    data = (out / "dataset.csv").read_bytes()
    # a manifest as the generators' former options wrote it
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["dataset"].update(removed)
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["fit", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "manifest.json" in err and "unknown fields" in err
    assert err.rstrip().endswith(RECOVER)
    assert not (out / "model.json").exists()
    # the advice works: generate rewrites the manifest and the same data
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "dataset.csv").read_bytes() == data
    assert not set(removed) & set(json.loads((out / "manifest.json").read_text())["dataset"])
