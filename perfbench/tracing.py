"""Spans around the calls into each alrite layer, recorded from outside the
package by replacing the names a module imports from the layer below.

A span is [id, parent id, name, start ns, end ns]. Spans are kept in memory
and written out when the traced process ends; `layer_metrics` turns them into
the per-layer metrics named in BENCHMARK.json.

Only the process that installs the tracer records spans. Under
`sweep --workers 2` members train in forked pool workers, whose spans are
lost; the pool round trip shows as `cli.member_pool`.
"""

from __future__ import annotations

import functools
import os
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# span name -> (defining module, function names, also patch the defining
# module itself). Patching the defining module catches calls made inside it,
# which matters only for predict_eta: the propensity CV calls it internally.
# nn.forward is patched in importers only, because nn.forward calls
# nn.forward_cached and would otherwise be counted twice.
FUNCTION_SPANS = {
    "nn.forward": ("nn", ("forward", "forward_cached"), False),
    "nn.backward": ("nn", ("backward",), False),
    "nn.adam_step": ("nn", ("adam_step",), False),
    "pipeline.train": ("pipeline", ("train_pipeline",), False),
    "pipeline.loss_grad": ("pipeline", ("compound_loss_grads",), True),
    "twin.search": ("twin", ("mirror_twins", "cross_pipeline_weights"), False),
    "propensity.cv": ("propensity", ("select_propensity",), False),
    "propensity.predict": ("propensity", ("predict_eta",), True),
    "selection.aux_fit": ("selection", ("fit_auxiliaries",), False),
    "selection.proxy": ("selection", ("proxy_score",), False),
    "learner.member_predict": ("pipeline", ("predict_tau", "predict_mu"), False),
    "learner.aggregate": ("learner", ("aggregate_tau", "aggregate_mu"), False),
    "learner.ensemble_select": ("learner", ("select_ensemble_hyperparam",), False),
    "metrics.bound": ("metrics", ("bound_m1", "bound_m2", "bound_m3"), False),
    "cli.artifact_write": ("cli", ("_write_json", "_write_csv"), True),
    "cli.artifact_read": ("cli", ("_load_sweep_members", "_read_candidates"), True),
    "data.save_csv": ("data", ("save_csv",), False),
    "data.load_csv": ("data", ("load_csv",), False),
}
# spans that are not a module-level function
OTHER_SPANS = ("selection.kr_predict", "cli.member_pool")
SPAN_NAMES = tuple(FUNCTION_SPANS) + OTHER_SPANS

# spans whose per-call tracemalloc peak is kept: the twin-search and kNN
# predict distance matrices, whichever is larger sets acic_large's peak memory
PEAK_SPANS = {"twin.search": "twin.peak_mb", "propensity.predict": "propensity.peak_mb"}

# per-span metric suffixes and units
SPAN_STATS = (("calls", "_calls", "count"), ("busy_s", "_s", "s"),
              ("self_s", "_self_s", "s"), ("p50_us", "_p50_us", "us"),
              ("tail_us", "_tail_us", "us"))
# a few per-span metrics go by other names: name -> (new name, unit, scale)
RENAMED = {"nn.adam_step_calls": ("nn.adam_steps", "count", 1.0),
           "nn.adam_step_p50_us": ("nn.adam_step_us", "us", 1.0),
           "twin.search_s": ("twin.search_ms", "ms", 1e3)}
COUNTER_METRICS = (
    ("twin.distance_entries", "count"),  # query x candidate pairs computed
    ("twin.peak_mb", "MB"),
    ("propensity.peak_mb", "MB"),
    ("selection.kr_predict_rows", "count"),
    ("selection.kr_rows_per_unique", "ratio"),  # rows / distinct (model, row)
    ("learner.predict_per_member", "ratio"),  # member predictions / members
    ("pipeline.members_failed", "count"),
    ("metrics.bound_violations", "count"),
    ("cli.artifact_write_bytes", "bytes"),
    ("trace.overhead_s", "s"),  # traced minus untraced wall_s
    ("trace.spans", "count"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span in SPAN_NAMES:
        for _, suffix, unit in SPAN_STATS:
            name, unit, _ = RENAMED.get(span + suffix, (span + suffix, unit, 1.0))
            units[name] = unit
    units.update(COUNTER_METRICS)
    return units


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.peak_bytes: dict[str, int] = defaultdict(int)
        self._kr_rows: dict[int, tuple] = {}  # id -> (model, set of row keys)
        self._members: dict[int, object] = {}  # id -> pipeline (keeps ids unique)
        self._probe: dict[int, np.ndarray] = {}

    def open(self, name: str) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else -1, name,
                time.perf_counter_ns(), 0]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def close(self, span: list) -> None:
        span[4] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield
        finally:
            self.close(span)

    def wrap(self, name: str, fn, after=None):
        peak = name in PEAK_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            measure = peak and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
                if measure:
                    self.peak_bytes[name] = max(self.peak_bytes[name],
                                                tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # counters recorded where the work happens

    def _twin_entries(self, args, result):
        t = np.asarray(args[-1])
        n1 = int(t.sum())
        self.counters["twin.distance_entries"] += 2 * n1 * (len(t) - n1)

    def _kr_predict(self, args, result):
        model, x = args[0], np.atleast_2d(np.asarray(args[1], dtype=float))
        probe = self._probe.setdefault(x.shape[1], np.random.default_rng(0).random(x.shape[1]))
        seen = self._kr_rows.setdefault(id(model), (model, set()))[1]
        seen.update((x @ probe).tolist())
        self.counters["selection.kr_predict_rows"] += len(x)

    def _member(self, args, result):
        self._members.setdefault(id(args[0]), args[0])

    def _bound(self, args, result):
        self.counters["metrics.bound_violations"] += result.slack < -1e-9

    def _artifact_bytes(self, args, result):
        self.counters["cli.artifact_write_bytes"] += os.path.getsize(args[0])

    def install(self, package) -> None:
        """Patch every alrite module so calls into the layers open spans."""
        modules = [getattr(package, m) for m in
                   ("nn", "data", "twin", "pipeline", "propensity", "learner",
                    "selection", "metrics", "cli")]
        after = {"twin.search": self._twin_entries, "learner.member_predict": self._member,
                 "metrics.bound": self._bound, "cli.artifact_write": self._artifact_bytes}
        for span, (home, names, patch_home) in FUNCTION_SPANS.items():
            home_module = getattr(package, home)
            for fname in names:
                original = getattr(home_module, fname)
                traced = self.wrap(span, original, after.get(span))
                for module in modules:
                    if module is home_module and not patch_home:
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)
        kr = package.selection.KernelRidge
        kr.predict = self.wrap("selection.kr_predict", kr.predict, self._kr_predict)
        package.cli.ProcessPoolExecutor = self._traced_pool(package.cli.ProcessPoolExecutor)

    def _traced_pool(self, base):
        tracer = self

        class TracedPool(base):
            """The pool's lifetime, from start to the end of its shutdown."""

            def __enter__(self):
                self._span = tracer.open("cli.member_pool")
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.close(self._span)

        return TracedPool

    def counter_values(self) -> dict[str, float]:
        out = dict(self.counters)
        unique = sum(len(rows) for _, rows in self._kr_rows.values())
        rows = out.get("selection.kr_predict_rows", 0)
        out["selection.kr_rows_per_unique"] = rows / unique if unique else 0.0
        calls = sum(1 for s in self.spans if s[2] == "learner.member_predict")
        out["learner.predict_per_member"] = calls / len(self._members) if self._members else 0.0
        for span, metric in PEAK_SPANS.items():
            out[metric] = self.peak_bytes.get(span, 0) / 2**20
        return out


def _rank(n: int, permille: int) -> int:
    """Nearest rank (1-based) of the given per-mille percentile of n samples."""
    return max(1, -(-n * permille // 1000))


def tail_percentile(values) -> tuple[str, float]:
    """The highest of p99.9, p99, p90 and p50 with at least ten samples above
    it, or the maximum when there are fewer than 20 samples."""
    values = sorted(values)
    n = len(values)
    for permille, label in ((999, "p99.9"), (990, "p99"), (900, "p90"), (500, "p50")):
        if n - _rank(n, permille) >= 10:
            return label, float(values[_rank(n, permille) - 1])
    return "max", float(values[-1])


def span_stats(spans) -> dict[str, dict]:
    """Per span name: calls, busy and self time, per-call median and tail.
    Self time is a span's duration minus the time its child spans cover."""
    child_ns: dict[int, int] = defaultdict(int)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    durations: dict[str, list] = defaultdict(list)
    self_ns: dict[str, int] = defaultdict(int)
    for sid, _, name, start, end in spans:
        durations[name].append(end - start)
        self_ns[name] += end - start - child_ns[sid]
    stats = {}
    for name, ds in durations.items():
        label, tail = tail_percentile(ds)
        median = sorted(ds)[_rank(len(ds), 500) - 1]
        stats[name] = {"calls": len(ds), "busy_s": sum(ds) / 1e9,
                       "self_s": self_ns[name] / 1e9, "p50_us": median / 1e3,
                       "tail_us": tail / 1e3, "tail_label": label}
    return stats


def nesting_errors(spans) -> list[str]:
    """Spans that end before they start or stick out of their parent."""
    errors = []
    for sid, parent, name, start, end in spans:
        if end < start:
            errors.append(f"span {sid} {name} ends before it starts")
        if parent >= 0:
            _, _, pname, pstart, pend = spans[parent]
            if start < pstart or end > pend:
                errors.append(f"span {sid} {name} outside its parent {parent} {pname}")
    return errors


def layer_metrics(spans, counters: dict[str, float]) -> dict[str, float]:
    """The per-layer metric values, keyed as in metric_units()."""
    stats = span_stats(spans)
    values = {}
    for span in SPAN_NAMES:
        st = stats.get(span)
        for key, suffix, _ in SPAN_STATS:
            name, _, scale = RENAMED.get(span + suffix, (span + suffix, None, 1.0))
            values[name] = (st[key] if st else 0) * scale
    for name, _ in COUNTER_METRICS:
        values[name] = counters.get(name, 0)
    return values
