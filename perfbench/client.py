"""One workload iteration in a fresh interpreter.

Imports alrite from the checkout's `src`, issues the workload's commands in
order through `alrite.cli.main`, each after the previous one returned, and
writes their exit codes and CLOCK_MONOTONIC start and end times (plus the
spans, when traced) to a JSON file. `run.py` starts it; by hand, from the
repository root:

    python3 perfbench/client.py RESULT.json WORKLOAD CONFIG.json OUT_DIR \
        [--setup-only] [--trace] [--fail COMMAND]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("result")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("config")
    parser.add_argument("out")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after `generate`")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--fail", default=None,
                        help="give this command a missing config, so it fails")
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    import alrite
    import alrite.cli
    if Path(alrite.__file__).resolve().parent != (src / "alrite").resolve():
        raise SystemExit(f"imported alrite from {alrite.__file__}, not from {src}")

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(alrite)

    steps = WORKLOADS[args.workload].steps
    if args.setup_only:
        steps = steps[:1]
    commands = []
    for command, workers in steps:
        config = args.config if command != args.fail else args.config + ".missing"
        argv_cmd = [command, "--config", config, "--out", args.out, "--workers", str(workers)]
        start = time.monotonic()
        with tracer.span("cmd." + command) if tracer else nullcontext():
            rc = alrite.cli.main(argv_cmd)
        end = time.monotonic()
        commands.append({"command": command, "start": start, "end": end, "rc": rc})

    result = {"commands": commands}
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counters"] = tracer.counter_values()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
