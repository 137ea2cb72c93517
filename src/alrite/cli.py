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
`ARTIFACTS` lists every file each command writes into the output directory.
Commands read one another's files through one reader, `_read`: JSON comes
back parsed, CSV as (header, rows), and a missing, empty or malformed file
stops the command with exit code 2, its path and the command that writes it.
Exit codes: 0 success, 1 config error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import copy
import csv
import inspect
import json
import sys
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .blas import one_blas_thread
from .data import (Dataset, GroundTruth, SplitIndices, generate_acic_like, generate_ihdp_like,
                   generate_two_cluster_toy, load_csv, save_csv, split)
from .learner import (AlriteModel, _blend, alrite_fit_jobs, alrite_predict,
                      combine_ensemble_grid, rank_members, select_ensemble_hyperparam,
                      select_eta)
from .metrics import (bound_m1, bound_m2, bound_m3, eps_ate,
                      make_linear_instance, pehe, policy_risks)
from .nn import forward
from .pipeline import PipelineHyperparams, predict_mu, predict_tau, train_pipeline
from .propensity import DEFAULT_PROPENSITY_GRID, PropensityModel, predict_eta
from .selection import (PROXY_KINDS, assemble_auxiliaries, auxiliary_jobs, fit_kernel_ridge_cv,
                        proxy_terms, rank_agreement, score_candidate)
from .twin import cross_pipeline_weights

# hyper-parameter search domains
ALPHA_GRID = (0.0,) + tuple(10.0 ** (k / 2) for k in range(-4, 5))
BETA_GRID = (0.0,) + tuple(10.0 ** (k / 2) for k in range(-4, 3))
LAYER_GRID = (1, 2, 3, 4, 5)
WIDTH_GRID = (20, 50, 100, 200)
BATCH_GRID = (50, 100, 200, 500)
LAMBDA_GRID = tuple(10.0 ** (k / 2) for k in range(-4, 9))


class ConfigError(ValueError):
    pass


class ExperimentConfig(SimpleNamespace):
    """A checked config: every CONFIG key filled in; `fit` holds PipelineHyperparams."""


def _is_number(val, kind=(int, float)) -> bool:
    return not isinstance(val, bool) and isinstance(val, kind)


def _build(name: str, cls, values: dict):
    """`cls(**values)`; a ValueError or TypeError becomes a ConfigError."""
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from None


REQUIRED = object()  # a key with no default
# check(name, value) returns the value to keep or raises a ConfigError naming `name`
Key = namedtuple("Key", "check default", defaults=(REQUIRED,))


def _check(ok, what: str) -> Callable:
    def check(name, val):
        if not ok(val):
            raise ConfigError(f"{name}: must be {what}, got {val!r}")
        return val
    return check


def _integer(low: int) -> Callable:
    return _check(lambda v: _is_number(v, int) and v >= low, f"an integer >= {low}")


_fraction = _check(lambda v: _is_number(v) and 0 < v < 1, "a number strictly in (0, 1)")
_scale = _check(lambda v: _is_number(v) and 0 <= v < np.inf, "a finite number >= 0")
_object = _check(lambda v: isinstance(v, dict), "a JSON object")
_any = lambda name, val: val  # a variant's key, which `_fill` checks


def _each(check_member) -> Callable:
    """A non-empty list, each member checked by `check_member`."""
    def check(name, items):
        if not (isinstance(items, list) and items):
            raise ConfigError(f"{name}: must be a non-empty list, got {items!r}")
        return [check_member(f"{name}[{i}]", v) for i, v in enumerate(items)]
    return check


def _grid(domain: tuple) -> Key:
    """A search grid: values from `domain`, by default all of them."""
    near = lambda v: any(np.isclose(v, ref, rtol=1e-12, atol=1e-300) for ref in domain)
    return Key(_each(_check(lambda v: _is_number(v) and near(v), "in the documented domain")),
               list(domain))


def _hp_field(key: str) -> Key:
    """A search key every sweep member takes, checked and defaulted by PipelineHyperparams."""
    check = lambda name, v: getattr(_build(name, PipelineHyperparams, {key: v}), key)
    return Key(check, getattr(PipelineHyperparams(), key))


_ihdp = {k: p.default for k, p in inspect.signature(generate_ihdp_like).parameters.items()}
_toy = {k: p.default for k, p in inspect.signature(generate_two_cluster_toy).parameters.items()}
_SEED = Key(_integer(0))  # a dataset's seed defaults to the experiment seed (`_fill`)

# The config: each section's keys, each key's check and default. A default is
# written here or read from the generator, dataclass or grid that holds it.
CONFIG = {
    "seed": Key(_integer(0), 0),
    "output_dir": Key(_check(lambda v: v is None or isinstance(v, str), "a string"), None),
    "propensity_grid": Key(_each(lambda name, member: _fill(name, ("kind", {
        "lr": {"l2": Key(_scale, 1e-3)},
        "knn": {"k": Key(_integer(1))},
        "tree": {"max_depth": Key(_integer(0), 3), "min_leaf": Key(_integer(1), 10)},
    }), member)), list(DEFAULT_PROPENSITY_GRID)),
    "dataset": ("kind", {
        "ihdp_like": {"seed": _SEED, "n": Key(_integer(20), _ihdp["n"]),
                      "d": Key(_integer(1), _ihdp["d"]),
                      "p_treat": Key(_fraction, _ihdp["p_treat"]),
                      "noise_scale": Key(_scale, _ihdp["noise_scale"])},
        "acic_like": {"seed": _SEED, "n": Key(_integer(20), 1000)},
        "toy": {"seed": _SEED, "n": Key(_integer(40), _toy["n"])},
        "csv": {"seed": _SEED, "path": Key(_check(lambda v: isinstance(v, str), "a file path"))},
    }),
    "split": {"test_fraction": Key(_fraction, 0.1), "val_fraction": Key(_fraction, 0.3)},
    "search": {"l0": Key(_integer(1), 2), "l1": Key(_integer(1), 2),
               "epochs": _hp_field("epochs"), "base_lr": _hp_field("base_lr"),
               "gamma": _hp_field("gamma"),
               "alpha_grid": _grid(ALPHA_GRID), "beta_grid": _grid(BETA_GRID),
               "layer_grid": _grid(LAYER_GRID), "width_grid": _grid(WIDTH_GRID),
               "batch_grid": _grid(BATCH_GRID)},
    "selection": {"proxy": Key(_check(lambda v: v in PROXY_KINDS, f"one of {PROXY_KINDS}"),
                               "mu_risk")},
    "ensemble": ("mode", {
        "top_k": {},  # tries every K
        "softmax": {"candidates": Key(_each(_check(lambda v: _is_number(v) and 0 < v < np.inf,
                                                   "a finite number > 0")), list(LAMBDA_GRID))},
    }),
    "bounds": {"n": Key(_integer(2), 100), "d": Key(_integer(1), 2),  # n: a row per arm
               "instances": Key(_integer(1), 20), "noise": Key(_scale, 0.1)},
    # each becomes a PipelineHyperparams (`validate_config`)
    "fit": {"hp0": Key(_object, {}), "hp1": Key(_object, {})},
}


def _fill(name: str, table, given, /, **inherited) -> dict:
    """`given` checked against `table` (each key's Key, or its section's
    table), unknown keys refused and every missing key set to its default,
    or to the same key's value in `inherited`, the enclosing level, if it has
    one: `dataset.seed` defaults to `seed`. A variant section's table is a
    (key, tables) pair: the key's value (by default the first) picks a table."""
    if not isinstance(given, dict):
        raise ConfigError(f"{name or 'config'}: must be a JSON object")
    variant = ""
    if isinstance(table, tuple):
        key, tables = table
        choice = given.get(key, next(iter(tables)))
        if choice not in tuple(tables):
            raise ConfigError(f"{name}.{key}: must be one of {tuple(tables)}, got {choice!r}")
        table, variant = {key: Key(_any, choice), **tables[choice]}, f" for {key} {choice!r}"
    path = lambda key: f"{name}.{key}" if name else key
    unknown = [path(k) for k in sorted(set(given) - set(table))]
    if unknown:
        raise ConfigError(f"{name or 'config'}: unknown fields {unknown}{variant}")
    out = {}
    for key, spec in table.items():
        if not isinstance(spec, Key):
            out[key] = _fill(path(key), spec, given.get(key, {}), **out)
        elif key in given:
            out[key] = spec.check(path(key), given[key])
        elif (default := inherited.get(key, spec.default)) is REQUIRED:
            raise ConfigError(f"{path(key)}: required{variant}")
        else:
            out[key] = copy.deepcopy(default)
    return out


def validate_config(raw) -> ExperimentConfig:
    """The config `raw` checked against CONFIG, with every default filled in
    and `fit` turned into the "hp0" and "hp1" PipelineHyperparams."""
    cfg = ExperimentConfig(**_fill("", CONFIG, raw))
    # fit takes the search's epochs and base_lr (not its gamma) unless hp0/hp1 set them
    shared = {k: cfg.search[k] for k in ("epochs", "base_lr")}
    cfg.fit = {hp: _build(f"fit.{hp}", PipelineHyperparams, {**shared, **values})
               for hp, values in cfg.fit.items()}
    return cfg


def load_config(path, seed: int | None = None) -> ExperimentConfig:
    """The checked config in the JSON file at `path` (None: an empty config),
    its seed replaced by `seed` when one is given."""
    try:
        raw = {} if path is None else json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if seed is not None and isinstance(raw, dict):
        raw = {**raw, "seed": seed}
    return validate_config(raw)


def member_seed(master_seed: int, index: int) -> int:
    """Counter-based member seed so worker scheduling cannot change results."""
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1)[0])


def sample_hyperparams(rng: np.random.Generator, search: dict) -> PipelineHyperparams:
    """One uniform draw per hyper-parameter from its grid in `search`, a checked
    section, which also gives every member's epochs, base_lr and gamma."""
    pick = lambda key: rng.choice(np.asarray(search[key]))
    return PipelineHyperparams(
        alpha=float(pick("alpha_grid")),
        beta=float(pick("beta_grid")),
        embed_layers=int(pick("layer_grid")),
        head_layers=int(pick("layer_grid")),
        embed_width=int(pick("width_grid")),
        head_width=int(pick("width_grid")),
        batch_size=int(pick("batch_grid")),
        epochs=search["epochs"], base_lr=search["base_lr"], gamma=search["gamma"],
    )


def _generate_dataset(cfg: ExperimentConfig) -> tuple[Dataset, GroundTruth | None]:
    # the dataset section's keys are the generator's arguments
    ds = cfg.dataset
    args = {k: v for k, v in ds.items() if k != "kind"}
    if ds["kind"] == "csv":
        return load_csv(ds["path"])
    if ds["kind"] == "ihdp_like":
        return generate_ihdp_like(**args)
    if ds["kind"] == "toy":
        return generate_two_cluster_toy(**args), None
    return generate_acic_like(**args)


def _resolve_dataset(cfg: ExperimentConfig, out: Path) -> tuple[Dataset, GroundTruth | None]:
    """The `dataset.csv` in `out`, else a freshly generated dataset. A file
    whose `manifest.json` records another dataset section, once filled in, or
    a key the section no longer has, is refused rather than reused."""
    path = out / "dataset.csv"
    if not path.exists():
        return _generate_dataset(cfg)
    if m := _read(out, "manifest.json", []):
        recover = "; rerun `generate`, or use another --out"
        # older manifests record the section as given, without its defaults
        try:
            made = _fill("dataset", CONFIG["dataset"], m["dataset"], seed=m["seed"])
        except ConfigError as exc:
            raise ConfigError(f"{out / 'manifest.json'}: {exc}{recover}") from None
        if made != cfg.dataset:
            raise ConfigError(
                f"{path} was generated from dataset {made} with seed {made['seed']} "
                f"({out / 'manifest.json'}), but the config asks for dataset "
                f"{cfg.dataset} with seed {cfg.dataset['seed']}{recover}")
    return load_csv(path)


def _split_for(cfg: ExperimentConfig, dataset: Dataset):
    return split(dataset, cfg.split["test_fraction"], cfg.split["val_fraction"], cfg.seed)


# every file each command writes into `--out`, sweep's member models by a pattern
ARTIFACTS = {
    "generate": ("dataset.csv", "manifest.json"),
    "sweep": ("eta.json", "split.json", "sweep.json", "candidates.csv",
              "member_predictions.json", "models/member_*.json"),
    "fit": ("model.json", "fit_report.json"),
    "evaluate": ("evaluation.json",),
    "select": ("selection.json",),
    "ensemble": ("ensemble_curve.csv", "ensemble.json"),
    "bounds": ("bounds.csv",),
    "report": ("digest.txt", "rank_agreement.csv", "selection_summary.csv"),
}


def _read(out: Path, name: str, missing: list | None = None):
    """The artifact `name` in `out`: JSON parsed, CSV as (header, rows). A missing
    file joins `missing` and gives None; with no list, or if malformed, it raises."""
    rerun = f"rerun `{next(c for c, names in ARTIFACTS.items() if name in names)}`"
    try:
        with open(out / name, newline="") as fh:
            if name.endswith(".csv"):
                reader = csv.reader(fh)
                return next(reader), list(reader)
            return json.load(fh)
    except FileNotFoundError:
        if missing is None:
            raise RuntimeError(f"missing {out / name}; {rerun}") from None
        missing.append(name)
    except (StopIteration, ValueError, csv.Error) as exc:
        raise RuntimeError(f"cannot read {out / name} ({exc!r}); {rerun}") from None


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
    that raises raises here; jobs not yet started are then dropped, and jobs
    already started run to their end before it does."""
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
    on the test rows `x_test`, and writes it to models/member_XXX.json.part
    under `out` last, which `sweep` renames once the sweep is usable. Returns
    (index, role, the final path relative to `out`, tau, mu, test tau, None),
    or (index, role, None, None, None, None, error) on a failure. Never
    raises; failures are recorded."""
    try:
        p, _ = train_pipeline(dataset, split_idx, role, hp, seed)
        tau, mu = predict_tau(p, x_val), predict_mu(p, x_val, t_val)
        tau_test = predict_tau(p, x_test)
        path = Path("models") / f"member_{index:03d}.json"
        _write_json(out / f"{path}.part", p.to_dict())
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
    try:
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
    except BaseException:  # the members of an earlier sweep stay as they are
        for part in (out / "models").glob("member_*.json.part"):
            part.unlink()
        raise
    for m in members:
        if m["status"] == "ok":
            (out / f"{m['path']}.part").replace(out / m["path"])

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
    named = {out / m["path"] for m in members if m["status"] == "ok"}
    for stale in set((out / "models").glob("member_*.json")) - named:  # an earlier sweep's
        stale.unlink()
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
    _write_json(out / "model.json", AlriteModel(p0, p1, eta).to_dict())
    _write_json(out / "fit_report.json", {
        role: {"val_mse": rep.val_mse, "retained_epoch": rep.retained_epoch}
        for role, rep in (("p0", rep0), ("p1", rep1))})
    print(f"wrote {out / 'model.json'}")
    return 0


def cmd_evaluate(cfg: ExperimentConfig, out: Path, workers: int) -> int:
    model = AlriteModel.from_dict(_read(out, "model.json"))
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
    """`candidates.csv`, under the name perfbench's `cli.artifact_read` span traces."""
    return _read(out, "candidates.csv")


def _proxy_winner(scores: list[float]) -> int:
    """Row of candidates.csv with the smallest of a proxy's `scores`; ties keep
    the first row."""
    return int(np.argmin(scores))


def cmd_select(cfg: ExperimentConfig, out: Path, workers: int) -> int:
    header, rows = _read_candidates(out)
    kind = cfg.selection["proxy"]
    winner = rows[_proxy_winner([float(r[header.index(kind)]) for r in rows])]
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
    sweep, preds = _read(out, "sweep.json"), _read(out, "member_predictions.json")
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
    eta = PropensityModel.from_dict(_read(out, "eta.json"))
    raw = _read(out, "split.json")
    split_idx = SplitIndices(*(np.asarray(raw[k], dtype=int)
                               for k in ("train", "validation", "test")))
    return members["control_driven"], members["treatment_driven"], eta, split_idx


def cmd_ensemble(cfg: ExperimentConfig, out: Path, workers: int) -> int:
    ranked0, ranked1, eta, split_idx = _load_sweep_members(out)
    dataset, truth = _resolve_dataset(cfg, out)
    indices0, preds0, risks0 = rank_members(*ranked0)
    indices1, preds1, risks1 = rank_members(*ranked1)
    mode = cfg.ensemble["mode"]
    if mode == "top_k":
        candidates = list(range(1, min(len(preds0), len(preds1)) + 1))
    else:
        candidates = list(cfg.ensemble["candidates"])
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
    and m3, all read from one twin map."""
    ds, truth, p0, p1, l_true = make_linear_instance(seed, n, d, noise=noise)
    # the single-embedding bound is a sure statement only for noiseless
    # factual outcomes, so m1 reads the truth's; the two-pipeline bounds
    # absorb noise in kappa_Y
    noiseless = Dataset(ds.x, ds.t, np.where(ds.t == 1, truth.mu1, truth.mu0), ds.feature_kinds)
    # both pipelines embed by the identity, so their cross map is also p0's
    # single-embedding map: one search serves the three bounds
    tm = cross_pipeline_weights(forward(p0.phi, ds.x), forward(p1.phi, ds.x), ds.t)
    reports = [("m1", bound_m1(p0, noiseless, truth, l_true, tm)),
               ("m2", bound_m2(p0, p1, ds, truth, l_true, tm)),
               ("m3", bound_m3(p0, p1, ds, truth, l_true, twinmap=tm))]
    return [[instance, kind, rep.bound, rep.pehe, rep.slack, int(rep.certified),
             "ok" if rep.slack >= -1e-9 else "violated"] for kind, rep in reports]


def cmd_bounds(cfg: ExperimentConfig, out: Path, workers: int) -> int:
    b = cfg.bounds
    jobs = [(_bound_instance, (i, member_seed(cfg.seed, 20_000 + i), b["n"], b["d"], b["noise"]))
            for i in range(b["instances"])]
    rows = [row for instance in _run_jobs(jobs, workers) for row in instance]
    violations = sum(row[-1] == "violated" for row in rows)
    _write_csv(out / "bounds.csv",
               ["instance", "kind", "bound", "pehe", "slack", "certified", "status"], rows)
    print(f"verified {len(rows)} bound evaluations, {violations} violations")
    return 2 if violations else 0


def cmd_report(cfg: ExperimentConfig, out: Path, workers: int) -> int:
    lines, gaps = [], []
    if m := _read(out, "manifest.json", gaps):
        lines.append(f"dataset: {m['n']} samples, {m['d']} features, "
                     f"{m['n_treated']} treated, truth={'yes' if m['has_truth'] else 'no'}")

    if sweep := _read(out, "sweep.json", gaps):
        ok = sum(1 for x in sweep["members"] if x["status"] == "ok")
        lines.append(f"sweep: {ok}/{len(sweep['members'])} members trained, "
                     f"{sweep['n_candidates']} candidates")
        header, rows = _read(out, "candidates.csv", gaps) or ([], [])
        if rows and rows[0][header.index("pehe")]:  # the truth is known
            cols = {name: [float(r[c]) for r in rows] for c, name in enumerate(header)}
            u, agree_rows, sel_rows = cols["pehe"], [], []
            for kind in PROXY_KINDS:
                v, w = cols[kind], _proxy_winner(cols[kind])
                if len(u) >= 2:
                    stats = rank_agreement(u, v)
                    agree_rows.append([kind, stats["spearman"], stats["kendall"], stats["dcg"]])
                sel_rows.append([kind, int(cols["candidate_id"][w]), v[w], u[w]])
            _write_csv(out / "rank_agreement.csv",
                       ["kind", "spearman", "kendall", "dcg"], agree_rows)
            _write_csv(out / "selection_summary.csv",
                       ["kind", "winner_id", "score", "pehe"], sel_rows)
            lines.append(f"best candidate within-sample sqrt PEHE: {np.sqrt(min(u)):.4f}")

    if ev := _read(out, "evaluation.json", gaps):
        if "sqrt_pehe" in ev:
            lines.append(f"fitted model out-of-sample sqrt PEHE: {ev['sqrt_pehe']:.4f}, "
                         f"eps_ATE: {ev['eps_ate']:.4f}")
        lines.append(f"observational policy risk: {ev['orpol']:.4f}")

    if curve := _read(out, "ensemble_curve.csv", gaps):
        lines.append(f"ensemble curve: {len(curve[1])} candidates evaluated")

    if bounds := _read(out, "bounds.csv", gaps):
        statuses = [row[-1] for row in bounds[1]]
        lines.append(f"bounds: {statuses.count('ok')}/{len(statuses)} evaluations hold")

    lines += [f"missing: {gap}" for gap in gaps]
    digest = "\n".join(lines) + "\n"
    out.mkdir(parents=True, exist_ok=True)
    (out / "digest.txt").write_text(digest)
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
        cfg = load_config(args.config, args.seed)
        if args.workers < 1:
            raise ConfigError("workers: must be >= 1")
        with one_blas_thread():
            return COMMANDS[args.command](cfg, Path(args.out or cfg.output_dir or "run"),
                                          args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
