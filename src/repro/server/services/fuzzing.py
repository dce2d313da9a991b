"""The fuzz-job service: a bounded differential campaign as a job.

The campaign is :func:`repro.fuzz.driver.run_campaign`, the one the
``repro fuzz`` CLI runs, with the job's checkpoint: a cancel lands at
the next batch of case spans, and each batch boundary posts a
``cases``/``total``/``divergences`` progress event.  Spans merge in
ascending order, so a completed campaign's summary is byte-identical to
the CLI at the same seed/iterations.  Every span runs under the
server's captured run config, carried inside the fabric unit.
"""

from __future__ import annotations

import time
from typing import Any, Dict

from ...config import RunConfig
from ..jobs import JobContext
from ..models import FuzzJobRequest


def execute_fuzz_job(
    context: JobContext,
    request: FuzzJobRequest,
    run_config: RunConfig,
) -> Dict[str, Any]:
    from ...fuzz.driver import run_campaign

    started = time.perf_counter()
    summary = run_campaign(
        request.seed,
        request.iterations,
        bug_probability=request.bug_probability,
        shrink=request.shrink,
        audit_elisions=request.audit_elisions,
        jobs=request.jobs,
        config=run_config,
        checkpoint=lambda partial: context.checkpoint(
            "fuzz progress",
            cases=partial.cases,
            total=request.iterations,
            divergences=len(partial.findings),
        ),
    )
    return {
        "seed": request.seed,
        "iterations": request.iterations,
        "cases": summary.cases,
        "buggy_cases": summary.buggy_cases,
        "invariant_checks": summary.invariant_checks,
        "divergences": len(summary.findings),
        "findings": summary.findings,
        "wall_seconds": time.perf_counter() - started,
    }
