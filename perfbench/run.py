"""The repository benchmark. From the repository root:

    python3 perfbench/run.py --workload ihdp_train --seed 1 --seconds 40 --trace 0

One closed-loop client: every workload iteration is a fresh interpreter
(perfbench/client.py) against a fresh output directory, issuing the
workload's CLI commands one after another. Untraced runs (`--trace 0`) repeat
iterations while the next one still fits in `--seconds` and report the
end-to-end metrics as medians. Traced runs (`--trace 1`) make one untraced and
one traced iteration and report the per-layer metrics, with the tracing
overhead as the difference of their wall times.

Every line but the last is for people: the environment, each metric by name
with its unit, and the output checks. The last line is one JSON object with
the keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
CLIENT = HERE / "client.py"
REFERENCE = HERE / "reference.json"
SCRATCH = ".perfbench"  # under the checkout root; holds run directories and results
SETUP_SAMPLES = 5  # set-up time is the median over this many fresh interpreters
CLIENT_TIMEOUT_S = 170.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Printed for people, not in the JSON line, with these units (others are in s):
# each command's time applies to some workloads only, test_sqrt_pehe varies too
# much across seeds to bound, and failed_frac is 0 on a correct run.
REPORTED_UNITS = {"test_sqrt_pehe": "outcome_units", "failed_frac": "ratio"}


class Checks:
    """Operations attempted and failed: commands, sweep members, bound
    evaluations and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


# ---------------------------------------------------------------- environment

def _blas_threads():
    """OpenBLAS's thread count as numpy's bundled library reports it."""
    import numpy
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(root: Path) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    src = hashlib.sha256()
    for path in sorted((root / "src" / "alrite").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
    }


# ------------------------------------------------------------------ one client

def _spawn(root, work, tag, workload, config, extra):
    """Run client.py to completion. Returns its output directory, its result
    (None if it failed), exit code, seconds from spawn to exit, spawn time,
    and the peak RSS in MB of the client and its pool workers."""
    out = work / f"out-{tag}"
    result_path = work / f"client-{tag}.json"
    log_path = work / f"client-{tag}.log"
    cmd = [sys.executable, str(CLIENT), str(result_path), workload.name, str(config),
           str(out)] + extra
    with open(log_path, "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=root, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        # a blocking wait: polling would wake this process while the client runs
        watchdog = threading.Timer(CLIENT_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode == -signal.SIGKILL:
        print(f"client {tag} killed after {CLIENT_TIMEOUT_S} s", file=sys.stderr)
    elapsed = time.monotonic() - spawned
    # pool workers were reaped by the client, so they count in its maxrss
    rss_mb = usage.ru_maxrss / 1024
    result = None
    if proc.returncode == 0 and result_path.exists():
        with open(result_path) as fh:
            result = json.load(fh)
    else:
        sys.stderr.write(log_path.read_text()[-4000:])
    return out, result, proc.returncode, elapsed, spawned, rss_mb


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _test_sqrt_pehe(workload, out: Path):
    if workload.pehe_source == "evaluation":
        with open(out / "evaluation.json") as fh:
            return float(json.load(fh)["sqrt_pehe"])
    # the ensemble the CLI selects: the first candidate of least validation
    # mu-risk; its test PEHE is on the same row of ensemble_curve.csv
    with open(out / "ensemble_curve.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    best = min(rows, key=lambda r: float(r["val_mu_risk"]))
    return math.sqrt(float(best["test_pehe"]))


def check_outputs(workload, out: Path, commands, checks: Checks, reference) -> dict:
    """Output checks of one iteration. Returns the digests and test PEHE."""
    for c in commands:
        checks.check(c["rc"] == 0, f"{c['command']} exited {c['rc']}")
    steps = [s for s, _ in workload.steps]
    if "sweep" in steps:
        if checks.check((out / "sweep.json").exists(), "sweep.json missing"):
            with open(out / "sweep.json") as fh:
                for m in json.load(fh)["members"]:
                    checks.check(m["status"] == "ok",
                                 f"sweep member {m['index']} {m['status']}: {m['error']}")
    if "bounds" in steps:
        if checks.check((out / "bounds.csv").exists(), "bounds.csv missing"):
            with open(out / "bounds.csv", newline="") as fh:
                for row in csv.DictReader(fh):
                    checks.check(row["status"] == "ok",
                                 f"bound {row['kind']} on instance {row['instance']} violated")
    digests = {}
    for name in workload.artifacts:
        if checks.check((out / name).exists(), f"{name} missing"):
            digests[name] = _digest(out / name)
    pehe = None
    try:
        pehe = _test_sqrt_pehe(workload, out)
    except (OSError, KeyError, ValueError) as exc:
        checks.check(False, f"test_sqrt_pehe unreadable: {exc}")
    else:
        if checks.check(math.isfinite(pehe), f"test_sqrt_pehe is {pehe}") and reference:
            limit = reference["test_sqrt_pehe"] * (1 + reference["tolerance"])
            checks.check(pehe <= limit, f"test_sqrt_pehe {pehe:.6g} above {limit:.6g}, "
                         f"the recorded reference plus {reference['tolerance']:.0%}")
    return {"digests": digests, "test_sqrt_pehe": pehe}


def iteration(root, work, tag, workload, config, checks, reference, trace=False, fail=None):
    extra = (["--trace"] if trace else []) + (["--fail", fail] if fail else [])
    out, result, rc, elapsed, spawned, rss_mb = _spawn(root, work, tag, workload, config, extra)
    try:
        if not checks.check(result is not None, f"client {tag} exited {rc}"):
            return None
        commands = result["commands"]
        it = check_outputs(workload, out, commands, checks, reference)
        it.update(elapsed=elapsed, rss_mb=rss_mb,
                  setup_s=commands[0]["end"] - spawned,
                  wall_s=commands[-1]["end"] - commands[1]["start"],
                  command_s={c["command"]: c["end"] - c["start"] for c in commands[1:]},
                  spans=result.get("spans"), counters=result.get("counters"))
        if trace and (out / "sweep.json").exists():
            with open(out / "sweep.json") as fh:
                it["counters"]["pipeline.members_failed"] = sum(
                    m["status"] != "ok" for m in json.load(fh)["members"])
        return it
    finally:
        shutil.rmtree(out, ignore_errors=True)


def setup_sample(root, work, tag, workload, config, checks):
    out, result, rc, _, spawned, _ = _spawn(root, work, tag, workload, config, ["--setup-only"])
    shutil.rmtree(out, ignore_errors=True)
    if checks.check(result is not None and result["commands"][0]["rc"] == 0,
                    f"set-up client {tag} failed"):
        return result["commands"][0]["end"] - spawned
    return None


# ---------------------------------------------------------------------- a run

def load_reference(workload: str, seed: int, tiny: bool):
    if tiny or not REFERENCE.exists():
        return None
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    entry = ref["workloads"].get(workload, {}).get(str(seed))
    return dict(entry, tolerance=ref["tolerance"]) if entry else None


def run_workload(root: Path, workload_name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, fail: str | None = None) -> dict:
    """Measure one workload; returns everything the run reports."""
    workload = WORKLOADS[workload_name]
    reference = load_reference(workload_name, seed, tiny)
    checks = Checks()
    (root / SCRATCH).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload_name}-{seed}-", dir=root / SCRATCH))
    try:
        config = work / "config.json"
        config.write_text(json.dumps(workload.make_config(seed, tiny)))
        run = lambda tag, **kw: iteration(root, work, tag, workload, config, checks,
                                          reference, fail=fail, **kw)
        iterations = []
        traced = None
        if trace:
            iterations.append(run("plain"))
            traced = run("traced", trace=True)
            if iterations[0] is None:
                traced = None  # no untraced wall time to take the overhead from
        else:
            started = time.monotonic()
            while True:
                it = run(str(len(iterations)))
                iterations.append(it)
                if it is None:
                    break
                longest = max(i["elapsed"] for i in iterations)
                if (len(iterations) >= workload.min_iterations
                        and time.monotonic() - started + longest > seconds):
                    break
        done = [i for i in iterations if i is not None]
        for later in done[1:] + ([traced] if traced else []):
            checks.check(later["digests"] == done[0]["digests"],
                         "a rerun with the same config wrote different artifact bytes")
        setups = [i["setup_s"] for i in done]
        while not trace and setups and len(setups) < SETUP_SAMPLES:
            sample = setup_sample(root, work, f"setup{len(setups)}", workload, config, checks)
            if sample is None:
                break
            setups.append(sample)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = {"workload": workload_name, "seed": seed, "tiny": tiny, "trace": trace,
              "iterations": len(done), "setup_samples": setups,
              "iteration_wall_s": [i["wall_s"] for i in done],
              "attempted": checks.attempted, "failed": len(checks.failures),
              "failures": checks.failures, "reference": reference,
              "metrics": {}, "reported": {}}
    if done:
        first = done[0]
        report["digests"] = first["digests"]
        report["tail"] = {}
        med = lambda key: statistics.median(i[key] for i in done)
        if not trace:
            report["metrics"] = {"setup_s": statistics.median(setups), "wall_s": med("wall_s"),
                                 "peak_rss_mb": med("rss_mb")}
        for command in first["command_s"]:
            report["reported"][command + "_s"] = statistics.median(
                i["command_s"][command] for i in done)
        report["reported"]["test_sqrt_pehe"] = first["test_sqrt_pehe"]
    report["reported"]["failed_frac"] = report["failed"] / max(report["attempted"], 1)
    if traced is not None:
        counters = dict(traced["counters"])
        counters["trace.overhead_s"] = traced["wall_s"] - done[0]["wall_s"]
        counters["trace.spans"] = len(traced["spans"])
        report["metrics"] = tracing.layer_metrics(traced["spans"], counters)
        report["tail"] = {name: s["tail_label"]
                          for name, s in tracing.span_stats(traced["spans"]).items()}
        report["spans"] = traced["spans"]
        report["reported"]["traced_wall_s"] = traced["wall_s"]
        report["reported"]["untraced_wall_s"] = done[0]["wall_s"]
    report["correct"] = report["failed"] == 0 and bool(report["metrics"])
    return report


def print_report(report: dict, env: dict) -> None:
    units = END_TO_END if not report["trace"] else tracing.metric_units()
    print(f"perfbench {report['workload']} seed={report['seed']} trace={int(report['trace'])}"
          f"{' tiny' if report['tiny'] else ''}: {report['iterations']} iteration(s), "
          f"{len(report['setup_samples'])} set-up sample(s)")
    print("env: " + json.dumps(env, sort_keys=True))
    for name, value in report["metrics"].items():
        tail = ""
        span = name.rsplit("_", 2)[0] if name.endswith("_tail_us") else None
        if span and span in report.get("tail", {}):
            tail = f"  ({report['tail'][span]})"
        print(f"metric {name} = {value:.6g} {units[name]}{tail}")
    for name, value in report["reported"].items():
        if value is not None:
            print(f"reported {name} = {value:.6g} {REPORTED_UNITS.get(name, 's')}")
    for name, digest in report.get("digests", {}).items():
        ref = (report["reference"] or {}).get("digests", {}).get(name)
        status = "no reference" if ref is None else (
            "matches reference" if ref == digest else "differs from reference")
        print(f"digest {name} sha256 {digest[:16]} ({status})")
    for failure in report["failures"]:
        print(f"FAILED {failure}")
    print(f"checks: {report['attempted'] - report['failed']}/{report['attempted']} passed"
          + ("" if report["reference"] else ", no test_sqrt_pehe reference for this seed"))


def save_report(root: Path, report: dict, env: dict) -> Path:
    results = root / SCRATCH / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / (f"{report['workload']}-seed{report['seed']}-trace{int(report['trace'])}"
                      f"{'-tiny' if report['tiny'] else ''}.json")
    with open(path, "w") as fh:
        json.dump(dict(report, env=env), fh)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long inputs, for the benchmark's own tests")
    parser.add_argument("--fail", default=None, metavar="COMMAND",
                        help="make this command fail, to test the failure count")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = Path.cwd()
    if not (root / "src" / "alrite" / "__init__.py").is_file():
        print(f"perfbench: {root} holds no src/alrite; run from the repository root",
              file=sys.stderr)
        return 2
    env = environment(root)
    report = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace),
                          args.tiny, args.fail)
    print_report(report, env)
    print(f"results in {save_report(root, report, env).relative_to(root)}")
    units = END_TO_END if not args.trace else tracing.metric_units()
    print(json.dumps({
        "correct": report["correct"], "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
