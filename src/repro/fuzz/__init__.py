"""Differential fuzzing and invariant checking for the sanitizer matrix.

Layout:

* :mod:`~repro.fuzz.generator` — seeded random IR programs with
  ground-truth :class:`~repro.fuzz.generator.BugSpec` verdicts;
* :mod:`~repro.fuzz.expectations` — each tool's expected verdict
  (encoding every principled false-negative surface);
* :mod:`~repro.fuzz.driver` — the all-tools × fastpath-on/off runner;
* :mod:`~repro.fuzz.invariants` — the post-event
  :class:`~repro.fuzz.invariants.ShadowInvariantChecker`;
* :mod:`~repro.fuzz.shrinker` — greedy reduction of diverging cases.
"""

from .driver import (
    CaseReport,
    Divergence,
    FuzzSummary,
    fuzz_span,
    fuzz_worker,
    run_campaign,
    run_case,
)
from .expectations import ALL_TOOLS, Expectation, expected_verdict
from .generator import BugSpec, FuzzCase, build_case, case_seed_for, generate_case
from .invariants import InvariantViolation, ShadowInvariantChecker
from .shrinker import shrink_case

__all__ = [
    "ALL_TOOLS",
    "BugSpec",
    "CaseReport",
    "Divergence",
    "Expectation",
    "FuzzCase",
    "FuzzSummary",
    "InvariantViolation",
    "ShadowInvariantChecker",
    "build_case",
    "case_seed_for",
    "expected_verdict",
    "fuzz_span",
    "fuzz_worker",
    "generate_case",
    "run_campaign",
    "run_case",
    "shrink_case",
]
