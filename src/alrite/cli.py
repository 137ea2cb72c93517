"""Experiment orchestration: dataset generation, hyper-parameter sweeps,
proxy-based model selection, ensembling, bound verification and report
emission.

One JSON config per experiment. Subcommands write CSV/JSON artifacts into
the output directory; identical config + seed reproduces byte-identical
files. Every command runs its numeric work on one BLAS thread, so the bytes
do not depend on the core count; `--workers` is the way to use more cores.
`sweep`, `fit` and `bounds` hand every independent fit to `_run_jobs`: at
`--workers 1` it runs the job list here, in order, and otherwise over one
process pool. `sweep`'s jobs are its propensity CV, its three kernel-ridge
nuisances and its members; `fit`'s are its two pipelines and its propensity
CV; `bounds`' are its instances. A sweep member's job also predicts the
validation and test rows; `sweep` keeps those predictions in
`member_predictions.json`, so `ensemble` decodes no model file.
Exit codes: 0 success, 1 config error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .blas import one_blas_thread
from .data import (AcicProtocol, Dataset, GroundTruth, SplitIndices, generate_acic_like,
                   generate_ihdp_like, generate_two_cluster_toy, load_csv,
                   save_csv, split)
from .learner import (AlriteModel, _blend, alrite_fit_jobs, alrite_predict,
                      combine_ensemble_grid, rank_members, select_ensemble_hyperparam,
                      select_eta)
from .metrics import (bound_m1, bound_m2, bound_m3, eps_ate,
                      make_linear_instance, pehe, policy_risks)
from .pipeline import PipelineHyperparams, predict_mu, predict_tau, train_pipeline
from .propensity import DEFAULT_PROPENSITY_GRID, PropensityModel, predict_eta
from .selection import (PROXY_KINDS, assemble_auxiliaries, auxiliary_jobs, fit_kernel_ridge_cv,
                        proxy_terms, rank_agreement, score_candidate)

# hyper-parameter search domains
ALPHA_GRID = (0.0,) + tuple(10.0 ** (k / 2) for k in range(-4, 5))
BETA_GRID = (0.0,) + tuple(10.0 ** (k / 2) for k in range(-4, 3))
LAYER_GRID = (1, 2, 3, 4, 5)
WIDTH_GRID = (20, 50, 100, 200)
BATCH_GRID = (50, 100, 200, 500)
LAMBDA_GRID = tuple(10.0 ** (k / 2) for k in range(-4, 9))

DATASET_KINDS = ("ihdp_like", "acic_like", "toy", "csv")
# search keys shared by every sweep member, with their types; unset, they
# take PipelineHyperparams' defaults
TRAINING_KEYS = {"epochs": int, "base_lr": float, "gamma": float}
# search keys that narrow a hyper-parameter's draw, with their domains
SEARCH_GRIDS = {"alpha_grid": ALPHA_GRID, "beta_grid": BETA_GRID, "layer_grid": LAYER_GRID,
                "width_grid": WIDTH_GRID, "batch_grid": BATCH_GRID}


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    seed: int = 0
    dataset: dict = field(default_factory=lambda: {"kind": "ihdp_like"})
    split: dict = field(default_factory=lambda: {"test_fraction": 0.1, "val_fraction": 0.3})
    search: dict = field(default_factory=lambda: {"l0": 2, "l1": 2})
    propensity_grid: list | None = None  # None: DEFAULT_PROPENSITY_GRID
    selection: dict = field(default_factory=lambda: {"proxy": "mu_risk"})
    ensemble: dict = field(default_factory=lambda: {"mode": "top_k"})
    bounds: dict = field(default_factory=dict)
    fit: dict = field(default_factory=dict)  # "hp0", "hp1": PipelineHyperparams once validated
    output_dir: str | None = None


def _check_subgrid(name: str, values, domain) -> tuple:
    out = []
    for v in values:
        if not any(np.isclose(v, ref, rtol=1e-12, atol=1e-300) for ref in domain):
            raise ConfigError(f"{name}: value {v!r} outside the documented domain")
        out.append(float(v))
    if not out:
        raise ConfigError(f"{name}: empty grid")
    return tuple(out)


def _hyperparams(name: str, values: dict) -> PipelineHyperparams:
    try:
        return PipelineHyperparams(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _is_number(val, kind=(int, float)) -> bool:
    return not isinstance(val, bool) and isinstance(val, kind)


# each propensity grid kind's keys with their smallest values; only the L2
# penalty (a float) need not be an integer
GRID_MEMBER_KEYS = {"lr": {"l2": 0.0}, "knn": {"k": 1}, "tree": {"max_depth": 0, "min_leaf": 1}}


def _check_propensity_grid(grid) -> list:
    if grid is None:
        return list(DEFAULT_PROPENSITY_GRID)
    if not isinstance(grid, list) or not grid:
        raise ConfigError("propensity_grid: must be a non-empty list")
    for i, spec in enumerate(grid):
        name = f"propensity_grid[{i}]"
        if not (isinstance(spec, dict) and spec.get("kind") in tuple(GRID_MEMBER_KEYS)):
            raise ConfigError(f"{name}: kind must be one of {sorted(GRID_MEMBER_KEYS)}")
        keys = GRID_MEMBER_KEYS[spec["kind"]]
        unknown = set(spec) - {"kind", *keys}
        if unknown:
            raise ConfigError(f"{name}: unknown fields {sorted(unknown)}")
        if spec["kind"] == "knn" and "k" not in spec:
            raise ConfigError(f"{name}.k: required for kind 'knn'")
        for key, low in keys.items():
            if key not in spec:
                continue
            val = spec[key]
            number = (int, float) if isinstance(low, float) else int
            if not (_is_number(val, number) and low <= val < np.inf):
                what = "a finite number" if number is not int else "an integer"
                raise ConfigError(f"{name}.{key}: must be {what} >= {low:g}")
    return grid


# the keys each of these sections reads
SECTION_KEYS = {"split": ("test_fraction", "val_fraction"), "selection": ("proxy",),
                "search": ("l0", "l1", *SEARCH_GRIDS, *TRAINING_KEYS),
                "ensemble": ("mode", "candidates"), "bounds": ("n", "d", "instances", "noise")}


def validate_config(raw: dict) -> ExperimentConfig:
    """The checked config: each section's defaults (the field factories of
    `ExperimentConfig`) filled in, and `fit` turned into the "hp0" and "hp1"
    PipelineHyperparams."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    known = {"seed", "dataset", "split", "search", "propensity_grid",
             "selection", "ensemble", "bounds", "fit", "output_dir"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    cfg = ExperimentConfig(**raw)
    for name in ("dataset", "split", "search", "selection", "ensemble", "bounds", "fit"):
        if not isinstance(getattr(cfg, name), dict):
            raise ConfigError(f"{name}: must be a JSON object")
    defaults = ExperimentConfig()
    for name in ("split", "search", "selection", "ensemble"):
        setattr(cfg, name, {**getattr(defaults, name), **getattr(cfg, name)})
    for name, keys in SECTION_KEYS.items():
        unknown = set(getattr(cfg, name)) - set(keys)
        if unknown:
            raise ConfigError(f"{name}: unknown fields {sorted(unknown)}")
    if not (_is_number(cfg.seed, int) and cfg.seed >= 0):
        raise ConfigError("seed: must be a non-negative integer")
    kind = cfg.dataset.get("kind")
    if kind not in DATASET_KINDS:
        raise ConfigError(f"dataset.kind: expected one of {DATASET_KINDS}, got {kind!r}")
    if kind == "csv" and "path" not in cfg.dataset:
        raise ConfigError("dataset.path: required for kind 'csv'")
    for key in ("test_fraction", "val_fraction"):
        frac = cfg.split[key]
        if not (isinstance(frac, (int, float)) and 0 < frac < 1):
            raise ConfigError(f"split.{key}: must lie strictly in (0, 1)")
        cfg.split[key] = float(frac)
    for key in ("l0", "l1"):
        val = cfg.search[key]
        if not (_is_number(val, int) and val >= 1):
            raise ConfigError(f"search.{key}: must be an integer >= 1")
    for key, domain in SEARCH_GRIDS.items():
        if key in cfg.search:
            cfg.search[key] = _check_subgrid(f"search.{key}", cfg.search[key], domain)
    for key, cast in TRAINING_KEYS.items():
        if key in cfg.search:
            _hyperparams(f"search.{key}", {key: cfg.search[key]})
            cfg.search[key] = cast(cfg.search[key])
    proxy = cfg.selection["proxy"]
    if proxy not in PROXY_KINDS:
        raise ConfigError(f"selection.proxy: expected one of {PROXY_KINDS}, got {proxy!r}")
    mode = cfg.ensemble["mode"]
    if mode not in ("top_k", "softmax"):
        raise ConfigError(f"ensemble.mode: expected top_k or softmax, got {mode!r}")
    if "candidates" in cfg.ensemble:
        lams = cfg.ensemble["candidates"]
        if mode == "top_k":
            raise ConfigError("ensemble.candidates: only mode softmax takes candidates; "
                              "top_k tries every K")
        if not (isinstance(lams, list) and lams
                and all(_is_number(v) and 0 < v < np.inf for v in lams)):
            raise ConfigError("ensemble.candidates: must be a non-empty list of finite "
                              "numbers > 0")
    for key in ("n", "d", "instances"):
        if key in cfg.bounds and not (_is_number(cfg.bounds[key], int) and cfg.bounds[key] >= 1):
            raise ConfigError(f"bounds.{key}: must be an integer >= 1")
    if "noise" in cfg.bounds and not (_is_number(cfg.bounds["noise"])
                                      and 0 <= cfg.bounds["noise"] < np.inf):
        raise ConfigError("bounds.noise: must be a finite number >= 0")
    cfg.propensity_grid = _check_propensity_grid(cfg.propensity_grid)
    unknown = set(cfg.fit) - {"hp0", "hp1"}
    if unknown:
        raise ConfigError(f"fit: unknown fields {sorted(unknown)}")
    # fit takes the search's epochs and base_lr unless hp0/hp1 set them
    shared = {k: cfg.search[k] for k in ("epochs", "base_lr") if k in cfg.search}
    cfg.fit = {hp: _hyperparams(f"fit.{hp}", {**shared, **cfg.fit.get(hp, {})})
               for hp in ("hp0", "hp1")}
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    try:
        return validate_config(raw)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def member_seed(master_seed: int, index: int) -> int:
    """Counter-based member seed so worker scheduling cannot change results."""
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1)[0])


def sample_hyperparams(rng: np.random.Generator, search: dict) -> PipelineHyperparams:
    """One uniform draw per hyper-parameter from its documented domain."""
    pick = lambda key, domain: rng.choice(np.asarray(search.get(key, domain)))
    return PipelineHyperparams(
        alpha=float(pick("alpha_grid", ALPHA_GRID)),
        beta=float(pick("beta_grid", BETA_GRID)),
        embed_layers=int(pick("layer_grid", LAYER_GRID)),
        head_layers=int(pick("layer_grid", LAYER_GRID)),
        embed_width=int(pick("width_grid", WIDTH_GRID)),
        head_width=int(pick("width_grid", WIDTH_GRID)),
        batch_size=int(pick("batch_grid", BATCH_GRID)),
        **{k: cast(search[k]) for k, cast in TRAINING_KEYS.items() if k in search},
    )


def _generate_dataset(cfg: ExperimentConfig) -> tuple[Dataset, GroundTruth | None]:
    ds = cfg.dataset
    kind = ds["kind"]
    seed = ds.get("seed", cfg.seed)
    if kind == "csv":
        return load_csv(ds["path"])
    if kind == "ihdp_like":
        return generate_ihdp_like(
            seed, n=ds.get("n", 747), d=ds.get("d", 25),
            p_treat=ds.get("p_treat", 139 / 747),
            confounded=ds.get("confounded", False),
            noise_scale=ds.get("noise_scale", 1.0))
    if kind == "acic_like":
        protocol_args = {k: v for k, v in ds.items() if k not in ("kind", "seed", "n")}
        return generate_acic_like(seed, ds.get("n", 1000), AcicProtocol(**protocol_args))
    return generate_two_cluster_toy(seed, n=ds.get("n", 200)), None


def _resolve_dataset(cfg: ExperimentConfig, out: Path) -> tuple[Dataset, GroundTruth | None]:
    """The `dataset.csv` in `out`, else a freshly generated dataset. A file
    whose `manifest.json` records another dataset config or dataset seed is
    refused rather than reused."""
    path = out / "dataset.csv"
    if not path.exists():
        return _generate_dataset(cfg)
    if (out / "manifest.json").exists():
        with open(out / "manifest.json") as fh:
            m = json.load(fh)
        made = (m["dataset"], m["dataset"].get("seed", m["seed"]))
        wanted = (cfg.dataset, cfg.dataset.get("seed", cfg.seed))
        if made != wanted:
            raise ConfigError(
                f"{path} was generated from dataset {made[0]} with seed {made[1]}, "
                f"but the config asks for dataset {wanted[0]} with seed {wanted[1]}; "
                "use another --out or regenerate")
    return load_csv(path)


def _split_for(cfg: ExperimentConfig, dataset: Dataset):
    return split(dataset, cfg.split["test_fraction"], cfg.split["val_fraction"], cfg.seed)


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def cmd_generate(cfg: ExperimentConfig, out: Path, workers: int) -> int:
    if cfg.dataset["kind"] == "csv":
        raise ConfigError("dataset.kind: 'csv' datasets are external; nothing to generate")
    dataset, truth = _generate_dataset(cfg)
    out.mkdir(parents=True, exist_ok=True)
    save_csv(out / "dataset.csv", dataset, truth)
    _write_json(out / "manifest.json", {
        "seed": cfg.seed, "dataset": cfg.dataset,
        "n": dataset.n, "d": dataset.d, "n_treated": dataset.n1,
        "has_truth": truth is not None,
    })
    print(f"wrote {out / 'dataset.csv'} ({dataset.n} rows, {dataset.d} features)")
    return 0


_jobs: list = []  # a pool worker's job list, set by its initializer


def _take_jobs(jobs: list) -> None:
    global _jobs
    _jobs = jobs


def _run_job(i: int):
    fn, args = _jobs[i]
    return fn(*args)


def _run_jobs(jobs: list, workers: int) -> list:
    """Each (function, args) job's result, in job order. With one worker, or
    one job, the jobs run here in order. Otherwise one pool of min(workers,
    jobs) processes runs them, taken in order: each worker gets the job list
    once, through the pool's initializer (inherited, not pickled, under the
    fork start method), and is sent only job indices. The first job in order
    that raises raises here; jobs not yet started are then dropped."""
    size = min(workers, len(jobs))
    if size <= 1:
        return [fn(*args) for fn, args in jobs]
    # the fork start method starts every worker up front
    with ProcessPoolExecutor(max_workers=size, initializer=_take_jobs,
                             initargs=(jobs,)) as pool:
        return list(pool.map(_run_job, range(len(jobs))))


def _train_member(index, role, dataset, split_idx, hp, seed, out, x_val, t_val, x_test):
    """Sweep member job: trains one pipeline, predicts its effects and its
    factual outcomes on the validation rows `x_val`, `t_val` and its effects
    on the test rows `x_test`, and writes it to models/member_XXX.json under
    `out` last. Returns (index, role, the file's path relative to `out`, tau,
    mu, test tau, None), or (index, role, None, None, None, None, error) on a
    failure. Never raises; failures are recorded."""
    try:
        p, _ = train_pipeline(dataset, split_idx, role, hp, seed)
        tau, mu = predict_tau(p, x_val), predict_mu(p, x_val, t_val)
        tau_test = predict_tau(p, x_test)
        path = Path("models") / f"member_{index:03d}.json"
        _write_json(out / path, p.to_dict())
        return index, role, str(path), tau, mu, tau_test, None
    except Exception as exc:
        return index, role, None, None, None, None, f"{type(exc).__name__}: {exc}"


def cmd_sweep(cfg: ExperimentConfig, out: Path, workers: int) -> int:
    dataset, truth = _resolve_dataset(cfg, out)
    split_idx = _split_for(cfg, dataset)
    l0, l1 = cfg.search["l0"], cfg.search["l1"]
    hp_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
    roles = ["control_driven"] * l0 + ["treatment_driven"] * l1
    hps = [sample_hyperparams(hp_rng, cfg.search) for _ in roles]
    train, val = split_idx.train, split_idx.validation
    x_val, t_val, y_val = dataset.x[val], dataset.t[val], dataset.y[val]
    x_test = dataset.x[split_idx.test]
    # the nuisances first, the longest first, then the members
    jobs = [(select_eta, (dataset, split_idx, cfg.propensity_grid, member_seed(cfg.seed, 10_000)))]
    jobs += [(fit_kernel_ridge_cv, xys)
             for xys in auxiliary_jobs(dataset, train, member_seed(cfg.seed, 10_001))]
    nuisances = len(jobs)
    jobs += [(_train_member, (k, role, dataset, split_idx, hp, member_seed(cfg.seed, 1 + k),
                              out, x_val, t_val, x_test))
             for k, (role, hp) in enumerate(zip(roles, hps))]
    results = _run_jobs(jobs, workers)
    (eta, *fits), results = results[:nuisances], results[nuisances:]

    members = []
    tau, mu, tau_test = {}, {}, {}
    for (index, role, path, tau_k, mu_k, tau_test_k, error), hp in zip(results, hps):
        entry = {"index": index, "role": role, "status": "ok" if error is None else "failed",
                 "error": error, "val_mu_risk": None,
                 "hyperparams": {k: getattr(hp, k) for k in vars(hp)}}
        if error is None:
            entry["path"] = path
            entry["val_mu_risk"] = float(np.mean((y_val - mu_k) ** 2))
            tau[index], mu[index], tau_test[index] = tau_k, mu_k, tau_test_k
        members.append(entry)

    ok0 = [i for i in range(l0) if i in tau]
    ok1 = [l0 + j for j in range(l1) if l0 + j in tau]
    if not ok0 or not ok1:
        raise RuntimeError("sweep produced no usable member for at least one role")

    _write_json(out / "eta.json", eta.to_dict())
    aux = assemble_auxiliaries(dataset, train, eta, fits)
    eta_val = predict_eta(eta, x_val)
    terms = proxy_terms(dataset, val, aux, eta_val)
    rows = []
    for i in ok0:
        for j in ok1:
            cand = {"tau": _blend(eta_val, tau[i], tau[j]),
                    "mu": _blend(eta_val, mu[i], mu[j])}
            scores = [score_candidate(kind, terms, cand) for kind in PROXY_KINDS]
            pehe_val = pehe(cand["tau"], truth, val)[0] if truth is not None else ""
            rows.append([len(rows), i, j] + scores + [pehe_val])

    _write_json(out / "split.json", {k: getattr(split_idx, k).tolist()
                                     for k in ("train", "validation", "test")})
    _write_json(out / "sweep.json", {"seed": cfg.seed, "l0": l0, "l1": l1,
                                     "members": members,
                                     "n_candidates": len(rows)})
    _write_csv(out / "candidates.csv",
               ["candidate_id", "i0", "i1"] + list(PROXY_KINDS) + ["pehe"], rows)
    # what `ensemble` needs of each usable member, so it decodes no model file
    _write_json(out / "member_predictions.json", {
        "validation_mu": {str(k): v.tolist() for k, v in mu.items()},
        "test_tau": {str(k): v.tolist() for k, v in tau_test.items()}})
    failed = sum(1 for m in members if m["status"] == "failed")
    print(f"sweep complete: {len(members) - failed}/{len(members)} members trained, "
          f"{len(rows)} candidates scored")
    return 0


def cmd_fit(cfg: ExperimentConfig, out: Path, workers: int) -> int:
    dataset, _ = _resolve_dataset(cfg, out)
    split_idx = _split_for(cfg, dataset)
    jobs = alrite_fit_jobs(dataset, split_idx, cfg.fit["hp0"], cfg.fit["hp1"],
                           cfg.propensity_grid, cfg.seed)
    (p0, rep0), (p1, rep1), eta = _run_jobs(jobs, workers)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "model.json", AlriteModel(p0, p1, eta).to_dict())
    _write_json(out / "fit_report.json", {
        role: {"val_mse": rep.val_mse, "retained_epoch": rep.retained_epoch}
        for role, rep in (("p0", rep0), ("p1", rep1))})
    print(f"wrote {out / 'model.json'}")
    return 0


def cmd_evaluate(cfg: ExperimentConfig, out: Path, workers: int) -> int:
    model_path = out / "model.json"
    if not model_path.exists():
        raise RuntimeError(f"no fitted model at {model_path}; run `fit` first")
    with open(model_path) as fh:
        model = AlriteModel.from_dict(json.load(fh))
    dataset, truth = _resolve_dataset(cfg, out)
    split_idx = _split_for(cfg, dataset)
    test = split_idx.test
    tau_hat = alrite_predict(model, dataset.x[test])
    result = {"n_test": int(len(test))}
    result.update(policy_risks(tau_hat, dataset.subset(test),
                               truth.subset(test) if truth is not None else None))
    if truth is not None:
        mse, root = pehe(tau_hat, truth, test)
        result["pehe"] = mse
        result["sqrt_pehe"] = root
        result["eps_ate"] = eps_ate(tau_hat, truth, test)
    _write_json(out / "evaluation.json", result)
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def _read_candidates(out: Path):
    path = out / "candidates.csv"
    if not path.exists():
        raise RuntimeError(f"no sweep results at {path}; run `sweep` first")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, rows


def _proxy_winner(header: list[str], rows: list[list[str]], kind: str) -> int:
    """Row of candidates.csv with the smallest `kind` score; ties keep the
    first row."""
    col = header.index(kind)
    return int(np.argmin([float(r[col]) for r in rows]))


def cmd_select(cfg: ExperimentConfig, out: Path, workers: int) -> int:
    header, rows = _read_candidates(out)
    kind = cfg.selection["proxy"]
    winner = rows[_proxy_winner(header, rows, kind)]
    pehe_cell = winner[header.index("pehe")]
    payload = {
        "proxy": kind,
        "winner_id": int(winner[0]),
        "i0": int(winner[1]),
        "i1": int(winner[2]),
        "score": float(winner[header.index(kind)]),
        "pehe_if_known": float(pehe_cell) if pehe_cell else None,
    }
    _write_json(out / "selection.json", payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _load_sweep_members(out: Path):
    """Per role, the sweep's usable members: their sweep indices, their
    (validation mu, test tau) predictions and validation mu-risks as `sweep`
    recorded them; then the propensity model and the split. Reads no model
    file."""
    with open(out / "sweep.json") as fh:
        sweep = json.load(fh)
    path = out / "member_predictions.json"
    if not path.exists():
        raise RuntimeError(f"no member predictions at {path}; rerun `sweep`")
    with open(path) as fh:
        preds = json.load(fh)
    members = {"control_driven": ([], [], []), "treatment_driven": ([], [], [])}
    for m in sweep["members"]:
        if m["status"] != "ok":
            continue
        indices, predictions, risks = members[m["role"]]
        key = str(m["index"])
        indices.append(m["index"])
        predictions.append((np.asarray(preds["validation_mu"][key], dtype=float),
                            np.asarray(preds["test_tau"][key], dtype=float)))
        risks.append(m["val_mu_risk"])
    with open(out / "eta.json") as fh:
        eta = PropensityModel.from_dict(json.load(fh))
    with open(out / "split.json") as fh:
        raw = json.load(fh)
    split_idx = SplitIndices(*(np.asarray(raw[k], dtype=int)
                               for k in ("train", "validation", "test")))
    return members["control_driven"], members["treatment_driven"], eta, split_idx


def cmd_ensemble(cfg: ExperimentConfig, out: Path, workers: int) -> int:
    if not (out / "sweep.json").exists():
        raise RuntimeError(f"no sweep results in {out}; run `sweep` first")
    ranked0, ranked1, eta, split_idx = _load_sweep_members(out)
    dataset, truth = _resolve_dataset(cfg, out)
    indices0, preds0, risks0 = rank_members(*ranked0)
    indices1, preds1, risks1 = rank_members(*ranked1)
    mode = cfg.ensemble["mode"]
    if mode == "top_k":
        candidates = list(range(1, min(len(preds0), len(preds1)) + 1))
    else:
        candidates = list(cfg.ensemble.get("candidates", LAMBDA_GRID))
    val = split_idx.validation
    chosen, table = select_ensemble_hyperparam(
        [mu for mu, _ in preds0], [mu for mu, _ in preds1], predict_eta(eta, dataset.x[val]),
        dataset.y[val], mode, candidates, risks0, risks1)

    test_pehe = [""] * len(table)
    if truth is not None:
        test = split_idx.test
        test_pehe = [pehe(tau_hat, truth, test)[0] for tau_hat in combine_ensemble_grid(
            [tau for _, tau in preds0], [tau for _, tau in preds1],
            predict_eta(eta, dataset.x[test]), mode, candidates, risks0, risks1)]
    rows = [[row["candidate"], row["mu_risk"], p] for row, p in zip(table, test_pehe)]
    _write_csv(out / "ensemble_curve.csv", ["candidate", "val_mu_risk", "test_pehe"], rows)

    if mode == "top_k":  # members after the K-th have weight 0
        k = int(chosen)
        indices0, indices1, risks0, risks1 = indices0[:k], indices1[:k], risks0[:k], risks1[:k]
    # members by their sweep index (models/ as sweep.json lists them), eta_hat
    # is the eta.json beside it
    _write_json(out / "ensemble.json", {
        "mode": mode, "param": float(chosen),
        "members0": indices0, "members1": indices1,
        "mu_risks0": risks0, "mu_risks1": risks1})
    chosen_risk = table[candidates.index(chosen)]["mu_risk"]
    print(f"selected {mode} ensemble with parameter {chosen} "
          f"(validation mu-risk {chosen_risk:.6g})")
    return 0


def _bound_instance(instance: int, seed: int, n: int, d: int, noise: float) -> list[list]:
    """Bounds job: the bounds.csv rows of one constructed instance, m1, m2
    and m3."""
    # the single-embedding bound is a sure statement only for noiseless
    # factual outcomes; the two-pipeline bounds absorb noise in kappa_Y
    ds0, truth0, q0, _, l0 = make_linear_instance(seed, n, d, noise=0.0)
    ds1, truth1, p0, p1, l1 = make_linear_instance(seed, n, d, noise=noise)
    reports = [("m1", bound_m1(q0, ds0, truth0, l0)),
               ("m2", bound_m2(p0, p1, ds1, truth1, l1)),
               ("m3", bound_m3(p0, p1, ds1, truth1, l1))]
    return [[instance, kind, rep.bound, rep.pehe, rep.slack, int(rep.certified),
             "ok" if rep.slack >= -1e-9 else "violated"] for kind, rep in reports]


def cmd_bounds(cfg: ExperimentConfig, out: Path, workers: int) -> int:
    b = cfg.bounds
    n, d = b.get("n", 100), b.get("d", 2)
    noise = b.get("noise", 0.1)
    jobs = [(_bound_instance, (i, member_seed(cfg.seed, 20_000 + i), n, d, noise))
            for i in range(b.get("instances", 20))]
    rows = [row for instance in _run_jobs(jobs, workers) for row in instance]
    violations = sum(row[-1] == "violated" for row in rows)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "bounds.csv",
               ["instance", "kind", "bound", "pehe", "slack", "certified", "status"], rows)
    print(f"verified {len(rows)} bound evaluations, {violations} violations")
    return 2 if violations else 0


def cmd_report(cfg: ExperimentConfig, out: Path, workers: int) -> int:
    lines = []
    gaps = []

    manifest = out / "manifest.json"
    if manifest.exists():
        with open(manifest) as fh:
            m = json.load(fh)
        lines.append(f"dataset: {m['n']} samples, {m['d']} features, "
                     f"{m['n_treated']} treated, truth={'yes' if m['has_truth'] else 'no'}")
    else:
        gaps.append("manifest.json")

    if (out / "sweep.json").exists():
        with open(out / "sweep.json") as fh:
            sweep = json.load(fh)
        ok = sum(1 for x in sweep["members"] if x["status"] == "ok")
        lines.append(f"sweep: {ok}/{len(sweep['members'])} members trained, "
                     f"{sweep['n_candidates']} candidates")
        header, rows = _read_candidates(out)
        pehe_col = header.index("pehe")
        have_truth = bool(rows and rows[0][pehe_col])
        if have_truth:
            u = [float(r[pehe_col]) for r in rows]
            agree_rows = []
            for kind in PROXY_KINDS:
                col = header.index(kind)
                v = [float(r[col]) for r in rows]
                if len(u) >= 2:
                    stats = rank_agreement(u, v)
                    agree_rows.append([kind, stats["spearman"], stats["kendall"], stats["dcg"]])
            _write_csv(out / "rank_agreement.csv",
                       ["kind", "spearman", "kendall", "dcg"], agree_rows)
            sel_rows = []
            for kind in PROXY_KINDS:
                w = _proxy_winner(header, rows, kind)
                sel_rows.append([kind, int(rows[w][0]), float(rows[w][header.index(kind)]), u[w]])
            _write_csv(out / "selection_summary.csv",
                       ["kind", "winner_id", "score", "pehe"], sel_rows)
            best = min(u)
            lines.append(f"best candidate within-sample sqrt PEHE: {np.sqrt(best):.4f}")
    else:
        gaps.append("sweep.json")

    if (out / "evaluation.json").exists():
        with open(out / "evaluation.json") as fh:
            ev = json.load(fh)
        if "sqrt_pehe" in ev:
            lines.append(f"fitted model out-of-sample sqrt PEHE: {ev['sqrt_pehe']:.4f}, "
                         f"eps_ATE: {ev['eps_ate']:.4f}")
        lines.append(f"observational policy risk: {ev['orpol']:.4f}")
    else:
        gaps.append("evaluation.json")

    if (out / "ensemble_curve.csv").exists():
        with open(out / "ensemble_curve.csv", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            n_rows = sum(1 for _ in reader)
        lines.append(f"ensemble curve: {n_rows} candidates evaluated")
    else:
        gaps.append("ensemble_curve.csv")

    if (out / "bounds.csv").exists():
        with open(out / "bounds.csv", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            statuses = [row[-1] for row in reader]
        lines.append(f"bounds: {statuses.count('ok')}/{len(statuses)} evaluations hold")
    else:
        gaps.append("bounds.csv")

    for gap in gaps:
        lines.append(f"missing: {gap}")
    digest = "\n".join(lines) + "\n"
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "digest.txt", "w") as fh:
        fh.write(digest)
    print(digest, end="")
    return 0


COMMANDS = {
    "generate": cmd_generate,
    "sweep": cmd_sweep,
    "fit": cmd_fit,
    "evaluate": cmd_evaluate,
    "select": cmd_select,
    "ensemble": cmd_ensemble,
    "bounds": cmd_bounds,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alrite",
        description="Twin-pipeline treatment-effect experiments: generate data, "
                    "sweep hyper-parameters, select by proxy metrics, ensemble, "
                    "verify error bounds and emit reports.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=(name != "report"),
                       help="path to the experiment JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--workers", type=int, default=1,
                       help="processes for the independent fits of sweep, fit and bounds "
                            "(1: all in this process, in order)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config is not None else validate_config({})
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("seed: must be non-negative")
            cfg.seed = args.seed
        out = Path(args.out or cfg.output_dir or "run")
        if args.workers < 1:
            raise ConfigError("workers: must be >= 1")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        with one_blas_thread():
            return COMMANDS[args.command](cfg, out, args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
