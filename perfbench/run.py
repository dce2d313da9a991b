"""The repository benchmark: one command per (workload, seed, mode).

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

``--trace 0`` measures the end-to-end metrics from untraced passes;
``--trace 1`` adds two traced passes and reports the per-layer metrics
plus the tracing overhead.  Every run checks its outputs (see
``accounting.py`` and the cross-checks in the workload modules) and
prints the metrics by name with unit and sample count, then one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.

Every workload runs with no ``REPRO_*`` variable set, so the numbers
measure the shipped defaults; the resolved configuration is printed.
See ``README.md`` beside this file for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, SRC, Report  # noqa: E402


def load_spec() -> dict:
    """``BENCHMARK.json`` at the repository root: the workloads, and the
    end-to-end and per-layer metrics with their units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(spec: dict, trace: bool) -> Dict[str, str]:
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in metrics}


def measure(spec: dict, workload: str, seed: int, seconds: float,
            trace: bool) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}: run from a repository "
              "checkout", file=sys.stderr)
        return 2
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))

    import accounting
    from common import SpeedProbe, resolved_config

    report = Report(workload, seed, trace)
    probe = SpeedProbe()
    misfired = accounting.self_test()
    report.check(not misfired, f"failure accounting misfired: {misfired}")
    report.info["config"] = resolved_config()
    if workload == "rest-run":
        import rest

        rest.rest_run(report, probe, seed, seconds, trace)
    else:
        import inproc

        runner = {
            "table2": inproc.table2,
            "juliet": inproc.juliet,
            "table2-fabric": inproc.table2_fabric,
        }[workload]
        runner(report, probe, seed, seconds, trace)
    report.check(report.attempted > 0, "no operation was attempted")
    report.info["machine_speed"] = round(probe.relative_speed(), 4)
    wanted = metric_units(spec, trace)
    unobserved = []
    for name, unit in wanted.items():
        metric = report.metrics.get(name)
        if metric is None and trace:
            # the layer does no observable work in this workload
            report.put(name, 0, unit, 0)
            unobserved.append(name)
        elif metric is not None:
            report.check(metric["unit"] == unit,
                         f"{name} measured in {metric['unit']}, not {unit}")
    if unobserved:
        report.info["not_observed"] = unobserved
    return report.emit(list(wanted))


def self_test(workloads: List[str]) -> int:
    """Failure-accounting self-test plus a short traced smoke run of
    every workload, each in its own process."""
    sys.path.insert(0, str(SRC))
    import accounting

    misfired = accounting.self_test()
    print(f"failure accounting: {'ok' if not misfired else misfired}")
    status = 1 if misfired else 0
    for workload in workloads:
        start = time.perf_counter()
        completed = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", "1",
             "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        last = (completed.stdout.strip().splitlines() or ["<no output>"])[-1]
        print(f"{workload}: exit {completed.returncode} in "
              f"{time.perf_counter() - start:.1f}s: {last[:160]}")
        if completed.returncode != 0 or '"correct": true' not in last:
            print(completed.stdout[-2000:] + completed.stderr[-2000:])
            status = 1
    return status


def main() -> int:
    spec = load_spec()
    workloads = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so the workloads' cleanup (fabric
    # drain, server stop) still runs
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if args.self_test:
        return self_test(workloads)
    if args.workload is None:
        parser.error("--workload is required")
    return measure(spec, args.workload, args.seed, args.seconds,
                   bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
