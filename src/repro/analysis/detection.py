"""Detection-study runners: Tables 3, 4, and 5.

These run the generated corpora under each tool configuration and
aggregate detections exactly the way the paper's tables do.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..config import RunConfig
from ..runtime import Session
from ..workloads.juliet import JulietCase, juliet_suite_cached
from ..workloads.linux_flaw import CveScenario, TABLE4_SCENARIOS
from ..workloads.magma import (
    TABLE5_CONFIGS,
    TABLE5_PROJECTS,
    generate_project_cases,
)

#: Tool columns of Tables 3 and 4.
DETECTION_TOOLS = ["GiantSan", "ASan", "ASan--", "LFP"]

#: Juliet cases per inline slice: 128 runs, about 0.1 s between checkpoints.
JULIET_SPAN_CASES = 32


def detects(tool: str, program, config: RunConfig, **sanitizer_kwargs) -> bool:
    """Whether one run of ``program`` under ``tool`` reports anything."""
    return bool(Session(tool, config, **sanitizer_kwargs).run(program).errors)


def scenario_row(
    scenario: CveScenario, tools: List[str], config: RunConfig
) -> Dict[str, bool]:
    """One Table 4 row: per-tool detection of one CVE scenario."""
    return {tool: detects(tool, scenario.build(), config) for tool in tools}


def project_counts(project, config: RunConfig) -> Dict[str, int]:
    """One Table 5 row: detections per redzone configuration."""
    cases = generate_project_cases(project)
    return {
        label: sum(
            detects(tool, case.build(), config, **kwargs) for case in cases
        )
        for label, tool, kwargs in TABLE5_CONFIGS
    }


@dataclass
class JulietResults:
    """Table 3: per-CWE detection counts for each tool."""

    detected: Dict[str, Dict[str, int]]
    totals: Dict[str, int]
    false_positives: Dict[str, int]
    latent: Dict[str, int]

    def row(self, cwe: str) -> Tuple[Dict[str, int], int]:
        return (
            {tool: self.detected[tool].get(cwe, 0) for tool in self.detected},
            self.totals.get(cwe, 0),
        )


def run_juliet_study(
    tools: Optional[List[str]] = None,
    cases: Optional[List[JulietCase]] = None,
    jobs: int = 1,
    config: Optional[RunConfig] = None,
    checkpoint: Optional[Callable] = None,
) -> JulietResults:
    """Run every Juliet case under every tool (Table 3).

    The suite runs in contiguous slices (:func:`case_spans`) whose
    per-case outcomes merge in case order, so results match for any
    ``jobs``.  Explicit ``cases`` travel as objects and run inline (the
    workers regenerate only the canonical suite).
    """
    from .parallel import case_spans, juliet_worker, parallel_map

    config = RunConfig.from_env() if config is None else config
    tools = tools or DETECTION_TOOLS
    canonical = cases is None
    if canonical:
        cases = juliet_suite_cached()
    else:
        jobs = 1
    spans = case_spans(len(cases), jobs, JULIET_SPAN_CASES)
    payloads = [
        ((lo, hi) if canonical else cases[lo:hi], tools, config)
        for lo, hi in spans
    ]
    rows = [
        row
        for part in parallel_map(
            juliet_worker,
            payloads,
            jobs,
            shard_keys=[("juliet", lo) for lo, _ in spans],
            checkpoint=checkpoint,
        )
        for row in part
    ]
    detected: Dict[str, Dict[str, int]] = {t: defaultdict(int) for t in tools}
    totals: Dict[str, int] = defaultdict(int)
    latent: Dict[str, int] = defaultdict(int)
    false_positives: Dict[str, int] = {t: 0 for t in tools}
    for case, row in zip(cases, rows):
        if case.buggy:
            totals[case.cwe] += 1
            if case.latent:
                latent[case.cwe] += 1
        for tool in tools:
            if case.buggy and row[tool]:
                detected[tool][case.cwe] += 1
            elif not case.buggy and row[tool]:
                false_positives[tool] += 1
    return JulietResults(
        detected={t: dict(d) for t, d in detected.items()},
        totals=dict(totals),
        false_positives=false_positives,
        latent=dict(latent),
    )


@dataclass
class CveResults:
    """Table 4: per-CVE detection flags for each tool."""

    outcomes: Dict[str, Dict[str, bool]]  # cve_id -> tool -> detected
    scenarios: List[CveScenario] = field(default_factory=list)

    def misses(self, tool: str) -> List[str]:
        return [
            cve for cve, by_tool in self.outcomes.items() if not by_tool[tool]
        ]


def run_linux_flaw_study(
    tools: Optional[List[str]] = None,
    scenarios: Optional[List[CveScenario]] = None,
    jobs: int = 1,
    config: Optional[RunConfig] = None,
    checkpoint: Optional[Callable] = None,
) -> CveResults:
    """Run every CVE scenario under every tool (Table 4).

    Explicit ``scenarios`` travel as objects and run inline."""
    from .parallel import linux_flaw_worker, parallel_map

    config = RunConfig.from_env() if config is None else config
    tools = tools or DETECTION_TOOLS
    if scenarios is None:
        scenarios, refs = TABLE4_SCENARIOS, range(len(TABLE4_SCENARIOS))
    else:
        refs, jobs = scenarios, 1
    outcomes = dict(
        parallel_map(
            linux_flaw_worker,
            [(ref, tools, config) for ref in refs],
            jobs,
            shard_keys=[("cve", index) for index in range(len(scenarios))],
            checkpoint=checkpoint,
        )
    )
    return CveResults(outcomes=outcomes, scenarios=list(scenarios))


@dataclass
class MagmaResults:
    """Table 5: per-project detection counts per configuration."""

    detected: Dict[str, Dict[str, int]]  # project -> config label -> count
    totals: Dict[str, int]

    def config_labels(self) -> List[str]:
        return [label for label, _, _ in TABLE5_CONFIGS]


def run_magma_study(
    projects=None,
    jobs: int = 1,
    config: Optional[RunConfig] = None,
    checkpoint: Optional[Callable] = None,
) -> MagmaResults:
    """Run the Magma corpora under the five redzone configurations.

    Explicit ``projects`` travel as objects and run inline."""
    from .parallel import magma_worker, parallel_map

    config = RunConfig.from_env() if config is None else config
    if projects is None:
        projects, refs = TABLE5_PROJECTS, range(len(TABLE5_PROJECTS))
    else:
        refs, jobs = projects, 1
    rows = parallel_map(
        magma_worker,
        [(ref, config) for ref in refs],
        jobs,
        shard_keys=[("magma", project.name) for project in projects],
        checkpoint=checkpoint,
    )
    return MagmaResults(
        detected={name: counts for name, counts, _ in rows},
        totals={name: total for name, _, total in rows},
    )
