"""Shared machinery of the benchmark: spans, metrics, /proc readers.

Nothing here imports ``repro``; the workload modules do, after
``run.py`` has scrubbed the environment and put ``src`` on the path.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / ".out"

#: Set-up repetitions whose median is ``setup_s`` (``table2-fabric``
#: repeats its warm-up sweep only ``FABRIC_SETUP_REPEATS`` times).
SETUP_REPEATS = 5

_CLK_TCK = os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------
def scrubbed_env() -> Dict[str, str]:
    """This process's environment with every ``REPRO_*`` variable
    removed and ``src`` first on ``PYTHONPATH``: what child interpreters
    (the import probe, ``repro serve``) run under."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def resolved_config() -> Dict[str, object]:
    """The shipped defaults every workload runs under, as resolved by
    the package itself with no ``REPRO_*`` variable set."""
    from repro.dataflow.summaries import interprocedural_default
    from repro.runtime.compiler import engine_default
    from repro.runtime.fastpath import fastpath_enabled_default
    from repro.runtime.session import Session
    from repro.shadow import shadow_backend_default

    return {
        "engine": engine_default(),
        "shadow": shadow_backend_default(),
        "fastpath": fastpath_enabled_default(),
        "interproc": interprocedural_default(),
        "instrument_cache": Session("Native").memoize,
    }


def import_seconds(modules: List[str]) -> float:
    """Wall time of a fresh interpreter that imports ``modules`` and
    exits: the process-start share of set-up."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(modules)],
        env=scrubbed_env(),
        cwd=ROOT,
        check=True,
    )
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# /proc readers (Linux)
# ----------------------------------------------------------------------
def proc_cpu_seconds(pid: int) -> float:
    """user + system CPU seconds of one live process."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (stat field 3); utime/stime are fields 14/15
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of one live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def proc_children(pid: int) -> List[int]:
    """Direct children of a live process, over all of its threads."""
    children: List[int] = []
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                children.extend(int(p) for p in handle.read().split())
        except FileNotFoundError:  # thread exited meanwhile
            pass
    return children


def pid_alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"


# ----------------------------------------------------------------------
# machine-speed calibration
# ----------------------------------------------------------------------
#: Kernel runs that make one reference second.  On a quiet core of a
#: shared 2-vCPU Xeon VM one kernel run takes about 4 ms, so a reference
#: second is close to a real one there.
KERNEL_RUNS_PER_REF_S = 250


class _Cell:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, next):
        self.key = key
        self.value = value
        self.next = next


def _kernel(rounds: int = 6000) -> int:
    """Fixed work of the kind the simulator does: object creation,
    attribute and dict traffic, small-int arithmetic, and a large fresh
    buffer of which only some pages are touched (its address spaces and
    shadow planes).  It lives here, outside ``src``, so no change to the
    program can move it."""
    buffer = bytearray(1 << 22)
    buffer[::1 << 16] = b"\x01" * 64
    table = {}
    head = None
    acc = 0
    for i in range(rounds):
        head = _Cell(i & 127, i * 7, head)
        table[head.key] = head
        cell = table.get((i * 31) & 127, head)
        acc = (acc + cell.value + len(str(i))) & 0xFFFF
        acc ^= (cell.key << 3) | (i & 7)
    return acc


class SpeedProbe:
    """Tracks the machine's current speed with the fixed kernel.

    On a shared VM, CPU throughput drifts by up to 2x over seconds to
    minutes (neighbouring load on the host), for CPU time as much as for
    wall time.  Timing the kernel right before and right after each unit of
    work gives the speed the unit ran at; dividing by it turns measured
    seconds into reference seconds, which stay put while the VM drifts.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: None: probe wherever this thread runs.  Work spread over
        #: several CPUs (fabric workers, the server) sets the CPUs it
        #: runs on; each sample is then the mean kernel time over them.
        self.cpus: Optional[List[int]] = None
        self._last = self._sample()

    def _kernel_seconds(self) -> float:
        # with the cyclic collector on, the kernel's allocations would
        # pay for collecting the heap the workload left behind
        gc.disable()
        try:
            start = time.perf_counter()
            _kernel()
            return time.perf_counter() - start
        finally:
            gc.enable()

    def _sample(self) -> float:
        if self.cpus is None:
            elapsed = self._kernel_seconds()
        else:
            home = os.sched_getaffinity(0)
            try:
                times = []
                for cpu in self.cpus:
                    os.sched_setaffinity(0, {cpu})
                    times.append(self._kernel_seconds())
            finally:
                os.sched_setaffinity(0, home)
            elapsed = statistics.mean(times)
        self.samples.append(elapsed)
        return elapsed

    def restart(self) -> None:
        """Fresh 'before' sample after an unmeasured gap."""
        self._last = self._sample()

    def scale(self) -> float:
        """Reference seconds per measured second over the interval since
        the previous sample (takes the sample that closes it)."""
        before, self._last = self._last, self._sample()
        return 1.0 / ((before + self._last) / 2 * KERNEL_RUNS_PER_REF_S)

    def relative_speed(self) -> float:
        """Median machine speed over the run; 1.0 = reference speed."""
        return 1.0 / (statistics.median(self.samples) * KERNEL_RUNS_PER_REF_S)


class Meter:
    """Raw and reference-second wall/CPU time over units of work.

    ``cpu`` reads the CPU seconds of every process of the program
    (default: this process).
    """

    def __init__(self, probe: SpeedProbe,
                 cpu: Callable[[], float] = time.process_time):
        self.probe = probe
        self.cpu = cpu
        self.wall_s = self.cpu_s = self.ref_wall_s = self.ref_cpu_s = 0.0
        self.last_scale = 1.0
        probe.restart()

    def unit(self, fn: Callable):
        """Run ``fn`` as one timed unit; returns its result."""
        cpu, wall = self.cpu(), time.perf_counter()
        output = fn()
        wall = time.perf_counter() - wall
        cpu = self.cpu() - cpu
        self.last_scale = scale = self.probe.scale()
        self.wall_s += wall
        self.cpu_s += cpu
        self.ref_wall_s += wall * scale
        self.ref_cpu_s += cpu * scale
        return output

    def record(self, **extra) -> dict:
        return {
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "ref_wall_s": self.ref_wall_s,
            "ref_cpu_s": self.ref_cpu_s,
            **extra,
        }


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: List[float], q: int) -> float:
    """The q-th percentile (inclusive interpolation) of ``values``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_passes(
    one_pass: Callable[[], dict], seconds: float, min_passes: int = 1
) -> List[dict]:
    """Run ``one_pass`` until another pass would overrun ``seconds``.

    Each pass returns a record with at least ``wall_s``.  The next pass
    starts only if the median pass so far still fits in the budget, so
    a run measures about ``seconds`` and never far beyond it.
    """
    records: List[dict] = []
    start = time.perf_counter()
    while True:
        records.append(one_pass())
        if len(records) < min_passes:
            continue
        typical = statistics.median(r["wall_s"] for r in records)
        if time.perf_counter() - start + typical > seconds:
            return records


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory span recorder: (name, start, end, parent, run id).

    Spans are opened around calls into the package's public functions
    from the benchmark's own loops; nothing inside ``src`` is traced.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.run_id: Optional[str] = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, parent=None) -> int:
        """Record a finished span (for spans timed by another thread)."""
        self.spans.append([name, start, end, parent, self.run_id])
        return len(self.spans) - 1

    def self_times(self) -> Dict[str, List[float]]:
        """Per span name, each span's duration minus the part of it
        that its child spans cover."""
        covered = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        by_name: Dict[str, List[float]] = defaultdict(list)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            by_name[name].append(end - start - covered[index])
        return by_name

    def dump(self) -> List[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "run": r}
            for n, s, e, p, r in self.spans
        ]


# ----------------------------------------------------------------------
# the result
# ----------------------------------------------------------------------
class Report:
    """Metrics (value, unit, sample count), run accounting, problems.

    ``failed`` counts operations whose output the reference rejects;
    ``problems`` are violations of the benchmark's own invariants
    (cross-checks, determinism, process hygiene) and make the run
    incorrect.
    """

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.metrics: Dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: Dict[str, int] = defaultdict(int)
        self.problems: List[str] = []
        self.info: Dict[str, object] = {}
        self.spans: List[dict] = []

    def put(self, name: str, value: float, unit: str, n: int,
            raw: Optional[float] = None) -> None:
        """Record a metric; ``raw`` is the uncalibrated figure of a
        metric given in reference seconds."""
        self.metrics[name] = {"value": value, "unit": unit, "n": n}
        if raw is not None:
            self.metrics[name]["raw"] = raw

    def check(self, condition: bool, message: str) -> bool:
        if not condition:
            self.problems.append(message)
        return condition

    def count_failure(self, reason: str) -> None:
        self.failed += 1
        self.failures[reason] += 1

    def emit(self, wanted: List[str]) -> int:
        """Print the human summary and the one-line JSON result; write
        the full record (spans included) under ``perfbench/.out``."""
        for name in wanted:
            if name not in self.metrics:
                self.problems.append(f"metric {name} was not measured")
        for key, value in self.info.items():
            print(f"# {key}: {json.dumps(value, sort_keys=True)}")
        for reason, count in sorted(self.failures.items()):
            print(f"# failed: {count} x {reason}")
        for problem in self.problems:
            print(f"# PROBLEM: {problem}")
        for name in wanted:
            metric = self.metrics.get(name)
            if metric is not None:
                raw = metric.get("raw")
                print(
                    f"# {name} = {metric['value']:.6g} {metric['unit']}"
                    f" (n={metric['n']}"
                    + ("" if raw is None else f", uncalibrated {raw:.6g}")
                    + ")"
                )
        OUT_DIR.mkdir(exist_ok=True)
        record = {
            "workload": self.workload,
            "seed": self.seed,
            "trace": self.trace,
            "metrics": self.metrics,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": dict(self.failures),
            "problems": self.problems,
            "info": self.info,
            "spans": self.spans,
        }
        path = OUT_DIR / (
            f"{self.workload}-seed{self.seed}-trace{int(self.trace)}.json"
        )
        path.write_text(json.dumps(record, sort_keys=True))
        correct = not self.problems
        print(
            json.dumps(
                {
                    "correct": correct,
                    "attempted": max(self.attempted, 1),
                    "failed": self.failed,
                    "metrics": {
                        name: {
                            "value": self.metrics[name]["value"],
                            "unit": self.metrics[name]["unit"],
                        }
                        for name in wanted
                        if name in self.metrics
                    },
                }
            )
        )
        return 0 if correct else 1
