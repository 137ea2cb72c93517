"""Experiment orchestration: dataset generation, hyper-parameter sweeps,
proxy-based model selection, ensembling, bound verification and report
emission.

One JSON config per experiment. Subcommands write CSV/JSON artifacts into
the output directory; identical config + seed reproduces byte-identical
files. Exit codes: 0 success, 1 config error, 2 runtime failure.
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

from .data import (AcicProtocol, Dataset, GroundTruth, SplitIndices, generate_acic_like,
                   generate_ihdp_like, generate_two_cluster_toy, load_csv,
                   save_csv, split)
from .learner import (AlriteModel, EnsembleModel, _blend, alrite_fit, alrite_predict,
                      predict_ensemble_grid, rank_members, select_ensemble_hyperparam)
from .metrics import (bound_m1, bound_m2, bound_m3, eps_ate,
                      make_linear_instance, pehe, policy_risks)
from .pipeline import (Pipeline, PipelineHyperparams, factual_mse, predict_mu, predict_tau,
                       train_pipeline)
from .propensity import DEFAULT_PROPENSITY_GRID, PropensityModel, predict_eta, select_propensity
from .selection import PROXY_KINDS, fit_auxiliaries, proxy_terms, rank_agreement, score_candidate

# hyper-parameter search domains
ALPHA_GRID = (0.0,) + tuple(10.0 ** (k / 2) for k in range(-4, 5))
BETA_GRID = (0.0,) + tuple(10.0 ** (k / 2) for k in range(-4, 3))
LAYER_GRID = (1, 2, 3, 4, 5)
WIDTH_GRID = (20, 50, 100, 200)
BATCH_GRID = (50, 100, 200, 500)
LAMBDA_GRID = tuple(10.0 ** (k / 2) for k in range(-4, 9))

DATASET_KINDS = ("ihdp_like", "acic_like", "toy", "csv")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    seed: int = 0
    dataset: dict = field(default_factory=lambda: {"kind": "ihdp_like"})
    split: dict = field(default_factory=lambda: {"test_fraction": 0.1, "val_fraction": 0.3})
    search: dict = field(default_factory=lambda: {"l0": 2, "l1": 2})
    propensity_grid: list | None = None
    selection: dict = field(default_factory=lambda: {"proxy": "mu_risk"})
    ensemble: dict = field(default_factory=lambda: {"mode": "top_k"})
    bounds: dict = field(default_factory=dict)
    fit: dict = field(default_factory=dict)
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


def validate_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    known = {"seed", "dataset", "split", "search", "propensity_grid",
             "selection", "ensemble", "bounds", "fit", "output_dir"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    cfg = ExperimentConfig(**{k: raw[k] for k in raw})
    if not isinstance(cfg.seed, int) or cfg.seed < 0:
        raise ConfigError("seed: must be a non-negative integer")
    kind = cfg.dataset.get("kind")
    if kind not in DATASET_KINDS:
        raise ConfigError(f"dataset.kind: expected one of {DATASET_KINDS}, got {kind!r}")
    if kind == "csv" and "path" not in cfg.dataset:
        raise ConfigError("dataset.path: required for kind 'csv'")
    for key in ("test_fraction", "val_fraction"):
        frac = cfg.split.get(key, 0.1 if key == "test_fraction" else 0.3)
        if not (isinstance(frac, (int, float)) and 0 < frac < 1):
            raise ConfigError(f"split.{key}: must lie strictly in (0, 1)")
        cfg.split[key] = float(frac)
    for key in ("l0", "l1"):
        val = cfg.search.get(key, 2)
        if not (isinstance(val, int) and val >= 1):
            raise ConfigError(f"search.{key}: must be an integer >= 1")
        cfg.search[key] = val
    for key, domain in (("alpha_grid", ALPHA_GRID), ("beta_grid", BETA_GRID),
                        ("layer_grid", LAYER_GRID), ("width_grid", WIDTH_GRID),
                        ("batch_grid", BATCH_GRID)):
        if key in cfg.search:
            cfg.search[key] = _check_subgrid(f"search.{key}", cfg.search[key], domain)
    proxy = cfg.selection.get("proxy", "mu_risk")
    if proxy not in PROXY_KINDS:
        raise ConfigError(f"selection.proxy: expected one of {PROXY_KINDS}, got {proxy!r}")
    cfg.selection["proxy"] = proxy
    mode = cfg.ensemble.get("mode", "top_k")
    if mode not in ("top_k", "softmax"):
        raise ConfigError(f"ensemble.mode: expected top_k or softmax, got {mode!r}")
    cfg.ensemble["mode"] = mode
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
        gamma=float(search.get("gamma", 1e-4)),
        embed_layers=int(pick("layer_grid", LAYER_GRID)),
        head_layers=int(pick("layer_grid", LAYER_GRID)),
        embed_width=int(pick("width_grid", WIDTH_GRID)),
        head_width=int(pick("width_grid", WIDTH_GRID)),
        batch_size=int(pick("batch_grid", BATCH_GRID)),
        epochs=int(search.get("epochs", 100)),
        base_lr=float(search.get("base_lr", 1e-2)),
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
    path = out / "dataset.csv"
    if path.exists():
        return load_csv(path)
    return _generate_dataset(cfg)


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


def _train_member(payload):
    """Sweep worker: returns (index, role, pipeline dict or None, error or
    None, validation mu-risk or None). Never raises; failures are recorded."""
    index, role, dataset, split_idx, hp, seed = payload
    try:
        p, _ = train_pipeline(dataset, split_idx, role, hp, seed)
        risk = factual_mse(p, dataset, split_idx.validation)
        return index, role, p.to_dict(), None, risk
    except Exception as exc:
        return index, role, None, f"{type(exc).__name__}: {exc}", None


def cmd_sweep(cfg: ExperimentConfig, out: Path, workers: int) -> int:
    dataset, truth = _resolve_dataset(cfg, out)
    split_idx = _split_for(cfg, dataset)
    l0, l1 = cfg.search["l0"], cfg.search["l1"]
    hp_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
    roles = ["control_driven"] * l0 + ["treatment_driven"] * l1
    jobs = [(k, role, dataset, split_idx, sample_hyperparams(hp_rng, cfg.search),
             member_seed(cfg.seed, 1 + k)) for k, role in enumerate(roles)]

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_train_member, jobs))
    else:
        results = [_train_member(job) for job in jobs]

    members = []
    pipelines: dict[int, Pipeline] = {}
    for (index, role, p_dict, error, risk), job in zip(results, jobs):
        entry = {"index": index, "role": role, "status": "ok" if error is None else "failed",
                 "error": error, "val_mu_risk": risk,
                 "hyperparams": {k: getattr(job[4], k) for k in vars(job[4])}}
        if p_dict is not None:
            path = out / "models" / f"member_{index:03d}.json"
            _write_json(path, p_dict)
            entry["path"] = str(path.relative_to(out))
            pipelines[index] = Pipeline.from_dict(p_dict)
        members.append(entry)

    ok0 = [i for i in range(l0) if i in pipelines]
    ok1 = [l0 + j for j in range(l1) if l0 + j in pipelines]
    if not ok0 or not ok1:
        raise RuntimeError("sweep produced no usable member for at least one role")

    grid = cfg.propensity_grid or list(DEFAULT_PROPENSITY_GRID)
    train_idx = split_idx.train
    eta = select_propensity(dataset.x[train_idx], dataset.t[train_idx], grid,
                            folds=5, seed=member_seed(cfg.seed, 10_000))
    _write_json(out / "eta.json", eta.to_dict())
    aux = fit_auxiliaries(dataset, train_idx, member_seed(cfg.seed, 10_001), eta)

    val = split_idx.validation
    x_val, t_val = dataset.x[val], dataset.t[val]
    terms = proxy_terms(dataset, val, aux)
    eta_val = predict_eta(eta, x_val)
    tau = {k: predict_tau(pipelines[k], x_val) for k in ok0 + ok1}
    mu = {k: predict_mu(pipelines[k], x_val, t_val) for k in ok0 + ok1}
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
    failed = sum(1 for m in members if m["status"] == "failed")
    print(f"sweep complete: {len(members) - failed}/{len(members)} members trained, "
          f"{len(rows)} candidates scored")
    return 0


def _default_hp(cfg: ExperimentConfig, section: str) -> PipelineHyperparams:
    base = {"epochs": cfg.search.get("epochs", 100),
            "base_lr": cfg.search.get("base_lr", 1e-2)}
    base.update(cfg.fit.get(section, {}))
    return PipelineHyperparams(**base)


def cmd_fit(cfg: ExperimentConfig, out: Path, workers: int) -> int:
    dataset, _ = _resolve_dataset(cfg, out)
    split_idx = _split_for(cfg, dataset)
    grid = cfg.propensity_grid or list(DEFAULT_PROPENSITY_GRID)
    model, reports = alrite_fit(dataset, split_idx, _default_hp(cfg, "hp0"),
                                _default_hp(cfg, "hp1"), grid, cfg.seed)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "model.json", model.to_dict())
    _write_json(out / "fit_report.json", {
        role: {"val_mse": rep.val_mse, "retained_epoch": rep.retained_epoch}
        for role, rep in reports.items()})
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
    """Per role, the sweep's usable members and their validation mu-risks as
    `sweep` recorded them; then the propensity model and the split."""
    with open(out / "sweep.json") as fh:
        sweep = json.load(fh)
    members = {"control_driven": ([], []), "treatment_driven": ([], [])}
    for m in sweep["members"]:
        if m["status"] != "ok":
            continue
        with open(out / m["path"]) as fh:
            p = Pipeline.from_dict(json.load(fh))
        pipelines, risks = members[m["role"]]
        pipelines.append(p)
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
    members0, risks0 = rank_members(*ranked0)
    members1, risks1 = rank_members(*ranked1)
    mode = cfg.ensemble["mode"]
    if mode == "top_k":
        candidates = list(range(1, min(len(members0), len(members1)) + 1))
    else:
        candidates = list(cfg.ensemble.get("candidates", LAMBDA_GRID))
    chosen, table = select_ensemble_hyperparam(
        members0, members1, eta, mode, candidates, dataset,
        split_idx.validation, risks0, risks1)

    test_pehe = [""] * len(table)
    if truth is not None:
        test = split_idx.test
        test_pehe = [pehe(tau_hat, truth, test)[0] for tau_hat in predict_ensemble_grid(
            members0, members1, eta, mode, candidates, risks0, risks1, dataset.x[test])]
    rows = [[row["candidate"], row["mu_risk"], p] for row, p in zip(table, test_pehe)]
    _write_csv(out / "ensemble_curve.csv", ["candidate", "val_mu_risk", "test_pehe"], rows)

    final = EnsembleModel(members0, members1, eta, mode, float(chosen), risks0, risks1)
    _write_json(out / "ensemble.json", final.to_dict())
    chosen_risk = table[candidates.index(chosen)]["mu_risk"]
    print(f"selected {mode} ensemble with parameter {chosen} "
          f"(validation mu-risk {chosen_risk:.6g})")
    return 0


def cmd_bounds(cfg: ExperimentConfig, out: Path, workers: int) -> int:
    b = cfg.bounds
    instances = b.get("instances", 20)
    n, d = b.get("n", 100), b.get("d", 2)
    noise = b.get("noise", 0.1)
    rows = []
    violations = 0
    for i in range(instances):
        seed = member_seed(cfg.seed, 20_000 + i)
        # the single-embedding bound is a sure statement only for noiseless
        # factual outcomes; the two-pipeline bounds absorb noise in kappa_Y
        ds0, truth0, q0, _, l0 = make_linear_instance(seed, n, d, noise=0.0)
        ds1, truth1, p0, p1, l1 = make_linear_instance(seed, n, d, noise=noise)
        reports = [("m1", bound_m1(q0, ds0, truth0, l0)),
                   ("m2", bound_m2(p0, p1, ds1, truth1, l1)),
                   ("m3", bound_m3(p0, p1, ds1, truth1, l1))]
        for kind, rep in reports:
            ok = rep.slack >= -1e-9
            violations += not ok
            rows.append([i, kind, rep.bound, rep.pehe, rep.slack,
                         int(rep.certified), "ok" if ok else "violated"])
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
        p.add_argument("--workers", type=int, default=1, help="parallel sweep workers")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            cfg = load_config(args.config)
        else:
            cfg = ExperimentConfig()
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
        return COMMANDS[args.command](cfg, out, args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
