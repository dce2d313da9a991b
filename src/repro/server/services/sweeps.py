"""The sweep-job service: regenerate a paper table/figure as a job.

Every target runs through its study runner from
:data:`repro.analysis.SWEEPS`, the table the CLI uses too, with the
job's checkpoint in the runner's ``parallel_map``: ``DELETE /jobs/{id}``
takes effect at the next batch boundary, and each boundary posts a
``completed``/``total`` progress event.  Results include the rendered
text exactly as the CLI prints it, so a sweep job is byte-comparable to
``python -m repro <target>``.

The sweep runs under the server's captured run config with the
request's ``engine`` applied; the config travels inside every fabric
unit, so concurrent sweeps, fuzz campaigns and run jobs never share
settings through the environment.  Only the fabric lock in
:mod:`repro.analysis.parallel` orders their fabric maps.
"""

from __future__ import annotations

import time
from typing import Any, Dict

from ...config import RunConfig
from ..jobs import JobContext
from ..models import SweepJobRequest


def execute_sweep_job(
    context: JobContext,
    request: SweepJobRequest,
    run_config: RunConfig,
) -> Dict[str, Any]:
    from ...analysis import SWEEPS, overhead_to_rows
    from ...analysis.parallel import fabric_stats

    started = time.perf_counter()
    config = run_config
    if request.engine is not None:
        config = config.replace(engine=request.engine)
    sweep = SWEEPS[request.target]
    study = sweep.run(
        jobs=request.jobs,
        config=config,
        scale=request.scale,
        checkpoint=lambda done, total: context.checkpoint(
            f"{request.target} progress", completed=len(done), total=total
        ),
    )
    payload: Dict[str, Any] = {"rendered": sweep.render(study)}
    if request.target == "table2":
        payload["rows"] = overhead_to_rows(study)
        payload["geomeans"] = study.geometric_means()
    payload.update(
        {
            "target": request.target,
            "wall_seconds": time.perf_counter() - started,
            "fabric": fabric_stats(),
        }
    )
    return payload
