"""Job endpoints: submission, status, results, telemetry, events, cancel.

Submission returns 202 with the job summary; everything else reads the
in-process job store.  ``GET /jobs/{id}/events`` streams the job's
event feed as server-sent events and closes once the job settles, so a
client can follow queued → running → done without polling.
"""

from __future__ import annotations

import functools
import json

from ..asgi import HTTPError, JSONResponse, Router, StreamingResponse, validate
from ..jobs import JobManager
from ..models import FuzzJobRequest, RunJobRequest, SweepJobRequest
from ..services import execute_fuzz_job, execute_run_job, execute_sweep_job

router = Router()


def _manager(request) -> JobManager:
    return request.state.manager


def _cap(value: int, cap: int, what: str) -> None:
    if value > cap:
        raise HTTPError(
            422,
            [{"loc": ["body", what],
              "msg": f"{what} {value} exceeds the server cap of {cap}",
              "type": "value_error.cap"}],
        )


@router.post("/jobs/run")
async def submit_run(request):
    payload = validate(RunJobRequest, request.json())
    state = request.state
    runner = functools.partial(
        execute_run_job,
        request=payload,
        run_config=state.run_config,
        aggregate=state.telemetry_totals,
    )
    job = _manager(request).submit(
        "run", payload.model_dump(mode="json"), runner
    )
    return JSONResponse(job.summary(), status=202)


@router.post("/jobs/sweep")
async def submit_sweep(request):
    payload = validate(SweepJobRequest, request.json())
    state = request.state
    _cap(payload.jobs, state.config.worker_cap, "jobs")
    runner = functools.partial(
        execute_sweep_job, request=payload, run_config=state.run_config
    )
    job = _manager(request).submit(
        "sweep", payload.model_dump(mode="json"), runner
    )
    return JSONResponse(job.summary(), status=202)


@router.post("/jobs/fuzz")
async def submit_fuzz(request):
    payload = validate(FuzzJobRequest, request.json())
    state = request.state
    _cap(payload.jobs, state.config.worker_cap, "jobs")
    _cap(
        payload.iterations, state.config.fuzz_iteration_cap, "iterations"
    )
    runner = functools.partial(
        execute_fuzz_job, request=payload, run_config=state.run_config
    )
    job = _manager(request).submit(
        "fuzz", payload.model_dump(mode="json"), runner
    )
    return JSONResponse(job.summary(), status=202)


@router.get("/jobs")
async def list_jobs(request):
    manager = _manager(request)
    status = request.query_params.get("status")
    jobs = [
        job.summary()
        for job in manager.jobs.values()
        if status is None or job.status.value == status
    ]
    return {"jobs": jobs, "counts": manager.counts()}


@router.get("/jobs/{job_id}")
async def job_detail(request):
    return _manager(request).get(request.path_params["job_id"]).detail()


@router.get("/jobs/{job_id}/result")
async def job_result(request):
    job = _manager(request).get(request.path_params["job_id"])
    if job.status.value in ("queued", "running"):
        raise HTTPError(409, f"job {job.id} is still {job.status.value}")
    if job.result is None:
        raise HTTPError(
            409, f"job {job.id} {job.status.value} without a result"
        )
    return {"id": job.id, "status": job.status.value, "result": job.result}


@router.get("/jobs/{job_id}/telemetry")
async def job_telemetry(request):
    job = _manager(request).get(request.path_params["job_id"])
    if job.result is None or "telemetry" not in job.result:
        raise HTTPError(409, f"job {job.id} has no telemetry snapshot")
    return {"id": job.id, "telemetry": job.result["telemetry"]}


@router.get("/jobs/{job_id}/events")
async def job_events(request):
    manager = _manager(request)
    job = manager.get(request.path_params["job_id"])
    try:
        after = int(request.query_params.get("after", -1))
    except ValueError:
        raise HTTPError(422, "'after' must be an integer") from None

    async def stream():
        async for event in manager.follow_events(job, after=after):
            yield (
                f"event: {event['type']}\n"
                f"data: {json.dumps(event, sort_keys=True)}\n\n"
            )

    return StreamingResponse(stream())


async def _cancel(request):
    manager = _manager(request)
    job = manager.get(request.path_params["job_id"])
    changed = manager.cancel(job)
    return {
        "id": job.id,
        "status": job.status.value,
        "cancel_requested": changed,
    }


router.add("POST", "/jobs/{job_id}/cancel", _cancel)
router.add("DELETE", "/jobs/{job_id}", _cancel)
