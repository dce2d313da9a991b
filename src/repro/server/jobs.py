"""Async job manager: lifecycle, store, cancellation, graceful drain.

Jobs move ``queued → running → done | failed | cancelled``.  The
manager lives on the server's event loop; job bodies are synchronous
sanitizer work, so they run on a small thread pool via
``run_in_executor`` while the loop keeps serving status reads and new
submissions.  Real parallelism inside a job comes from the persistent
execution fabric (``--jobs`` style), not from the thread pool.

Cancellation is cooperative: every job carries a ``threading.Event``
and the services poll it between work units: sweeps and fuzz campaigns
at every checkpoint of their ``parallel_map``.
``DELETE /jobs/{id}`` flips the event; a queued job dies before it
starts, a running one raises :class:`JobCancelled` at its next
checkpoint.

Graceful shutdown (lifespan shutdown, so both ``repro serve`` signal
handlers and in-process test clients exercise it): stop accepting,
cancel queued jobs, give running jobs ``drain_timeout`` seconds, then
cancel them too — and finally drain the shared execution fabric off
the event loop so worker processes exit cleanly.
"""

from __future__ import annotations

import asyncio
import enum
import itertools
import threading
import time
import traceback
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from .config import ServerConfig


class JobCancelled(Exception):
    """Raised by a service at a cancellation checkpoint."""


class JobStatus(str, enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


TERMINAL = (JobStatus.DONE, JobStatus.FAILED, JobStatus.CANCELLED)


@dataclass
class Job:
    """One unit of control-plane work and everything it produced."""

    id: str
    kind: str
    request: Dict[str, Any]
    status: JobStatus = JobStatus.QUEUED
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    #: Append-only event feed ({seq, time, type, ...}); list appends are
    #: atomic under the GIL, so job threads write and the event loop
    #: reads without extra locking.
    events: List[Dict[str, Any]] = field(default_factory=list)
    cancel_event: threading.Event = field(default_factory=threading.Event)
    _event_seq: "itertools.count" = field(default_factory=itertools.count)

    @property
    def is_terminal(self) -> bool:
        return self.status in TERMINAL

    def post_event(self, event_type: str, **data) -> None:
        self.events.append(
            {
                "seq": next(self._event_seq),
                "time": time.time(),
                "type": event_type,
                **data,
            }
        )

    def summary(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "kind": self.kind,
            "status": self.status.value,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }

    def detail(self) -> Dict[str, Any]:
        payload = self.summary()
        payload.update(
            {
                "request": self.request,
                "error": self.error,
                "result": self.result,
                "events": len(self.events),
            }
        )
        return payload


class JobContext:
    """What a service sees of its job (thread side)."""

    def __init__(self, job: Job):
        self.job = job

    def check_cancelled(self) -> None:
        """Cancellation checkpoint; call between work units."""
        if self.job.cancel_event.is_set():
            raise JobCancelled(self.job.id)

    def progress(self, message: str, **data) -> None:
        self.job.post_event("progress", message=message, **data)

    def checkpoint(self, message: str, **data) -> None:
        """A sweep checkpoint: honour a cancel, then post progress."""
        self.check_cancelled()
        self.progress(message, **data)


class JobManager:
    """Owns the job store, the worker threads, and shutdown order."""

    def __init__(self, config: ServerConfig):
        self.config = config
        self.jobs: Dict[str, Job] = {}
        self.accepting = True
        self._executor = ThreadPoolExecutor(
            max_workers=config.max_concurrency,
            thread_name_prefix="repro-job",
        )
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._tasks: set = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # ------------------------------------------------------------------
    # lifecycle hooks (wired into the app's lifespan)
    # ------------------------------------------------------------------
    async def startup(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._semaphore = asyncio.Semaphore(self.config.max_concurrency)

    async def shutdown(self) -> None:
        """Graceful drain; see the module docstring for the order."""
        self.accepting = False
        for job in self.jobs.values():
            if job.status is JobStatus.QUEUED:
                job.cancel_event.set()
        if self._tasks:
            done, pending = await asyncio.wait(
                set(self._tasks), timeout=self.config.drain_timeout
            )
            if pending:
                for job in self.jobs.values():
                    if not job.is_terminal:
                        job.cancel_event.set()
                await asyncio.wait(pending, timeout=self.config.drain_timeout)
        self._executor.shutdown(wait=True, cancel_futures=True)
        # Retire the fabric off the loop: drain blocks on worker joins.
        from ..analysis.parallel import drain_pool

        await asyncio.get_running_loop().run_in_executor(None, drain_pool)

    # ------------------------------------------------------------------
    # submission + execution
    # ------------------------------------------------------------------
    def submit(
        self,
        kind: str,
        request: Dict[str, Any],
        runner: Callable[[JobContext], Dict[str, Any]],
    ) -> Job:
        """Register a job and schedule it; returns immediately."""
        from .asgi import HTTPError

        if not self.accepting:
            raise HTTPError(503, "server is shutting down")
        self._evict_terminal()
        job = Job(id=uuid.uuid4().hex[:12], kind=kind, request=request)
        self.jobs[job.id] = job
        job.post_event("status", status=job.status.value)
        task = asyncio.get_running_loop().create_task(
            self._drive(job, runner)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return job

    async def _drive(self, job: Job, runner) -> None:
        async with self._semaphore:
            if job.cancel_event.is_set():
                self._finish(job, JobStatus.CANCELLED)
                return
            job.status = JobStatus.RUNNING
            job.started_at = time.time()
            job.post_event("status", status=job.status.value)
            context = JobContext(job)
            try:
                job.result = await asyncio.get_running_loop().run_in_executor(
                    self._executor, runner, context
                )
            except JobCancelled:
                self._finish(job, JobStatus.CANCELLED)
            except Exception:  # noqa: BLE001 - job bodies report, not raise
                job.error = traceback.format_exc()
                self._finish(job, JobStatus.FAILED)
            else:
                self._finish(job, JobStatus.DONE)

    def _finish(self, job: Job, status: JobStatus) -> None:
        job.status = status
        job.finished_at = time.time()
        job.post_event("status", status=status.value)

    def _evict_terminal(self) -> None:
        """Bound the store: oldest terminal jobs fall out first."""
        overflow = len(self.jobs) - self.config.max_retained_jobs + 1
        if overflow <= 0:
            return
        terminal = sorted(
            (job for job in self.jobs.values() if job.is_terminal),
            key=lambda job: job.finished_at or job.created_at,
        )
        for job in terminal[:overflow]:
            del self.jobs[job.id]

    # ------------------------------------------------------------------
    # queries + cancellation
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job:
        from .asgi import HTTPError

        try:
            return self.jobs[job_id]
        except KeyError:
            raise HTTPError(404, f"no such job {job_id!r}") from None

    def cancel(self, job: Job) -> bool:
        """Request cancellation; False when the job already finished."""
        if job.is_terminal:
            return False
        job.cancel_event.set()
        job.post_event("cancel_requested")
        return True

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {status.value: 0 for status in JobStatus}
        for job in self.jobs.values():
            counts[job.status.value] += 1
        return counts

    # ------------------------------------------------------------------
    # event streaming
    # ------------------------------------------------------------------
    async def follow_events(self, job: Job, after: int = -1):
        """Yield events (dicts) past ``after`` until the job settles.

        Terminal jobs replay and return; live jobs are followed with a
        short poll — cheap at control-plane rates and loop-agnostic.
        """
        index = 0
        while True:
            while index < len(job.events):
                event = job.events[index]
                index += 1
                if event["seq"] > after:
                    yield event
            if job.is_terminal and index >= len(job.events):
                return
            await asyncio.sleep(0.05)
