"""The sanitizer-as-a-service control plane, end to end over ASGI.

Three families of guarantees:

(a) **Fidelity** — a job's results, telemetry, and rendered error
    reports are byte-identical to running the same configuration
    directly through :class:`repro.runtime.session.Session` (or the
    fuzz/sweep drivers).  The server adds transport, never semantics.
(b) **Isolation** — concurrent jobs build their sessions from validated
    request models on top of the run config captured at startup; one
    job's config (engine/tool, telemetry registry) can never leak into a
    neighbour, and no job touches the process environment.
(c) **Lifecycle** — submissions validate at the door (422 with a
    FastAPI-shaped detail body), cancellation lands mid-run at the next
    checkpoint, and shutdown drains the job manager and the shared
    execution fabric (no orphaned workers, no leaked shared memory).
"""

import os
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro import ProgramBuilder, Session
from repro.config import RunConfig
from repro.analysis import parallel
from repro.analysis.sweeps import MAX_SCALE
from repro.ir.program import Program
from repro.reporting import format_all_reports
from repro.server import ServerConfig, create_app
from repro.server.config import config_from_env
from repro.server.jobs import JobContext
from repro.server.programs import (
    MAX_NESTING,
    build_demo_program,
    load_program,
)
from repro.server.testclient import TestClient


@pytest.fixture(autouse=True)
def _fresh_fabric():
    """Each test starts and ends without a live fabric."""
    parallel.shutdown_pool()
    yield
    parallel.shutdown_pool()


@pytest.fixture
def client():
    with TestClient(create_app(ServerConfig(max_concurrency=2))) as tc:
        yield tc


def _normalized_telemetry(snapshot: dict) -> dict:
    """A snapshot dict with wall-clock phase timings zeroed.

    Counters, convergence, declines, and phase *event/sample* counts
    are deterministic; the sampled seconds are real wall time and
    legitimately differ between two executions of the same program.
    """
    normalized = dict(snapshot)
    normalized["phases"] = {
        name: {**stat, "sampled_seconds": 0.0, "estimated_seconds": 0.0}
        for name, stat in snapshot["phases"].items()
    }
    return normalized


def _submit_and_wait(client, kind, payload, timeout=120.0):
    response = client.post(f"/jobs/{kind}", json=payload)
    assert response.status_code == 202, response.text
    job_id = response.json()["id"]
    return client.wait_for_job(job_id, timeout=timeout)


def _wait_for_progress(client, job_id, timeout=60.0):
    """Block until the running job has posted its first progress event
    (queued and running are the first two events)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        detail = client.get(f"/jobs/{job_id}").json()
        if detail["status"] == "running" and detail["events"] > 2:
            return
        assert detail["status"] in ("queued", "running"), detail
        time.sleep(0.005)
    raise AssertionError(f"job {job_id} posted no progress event")


def _nested_ir(statements: int, expression: int) -> dict:
    """``statements`` nested one-trip loops around one assignment whose
    expression is an ``expression``-deep operator tree."""
    expr = 1
    for _ in range(expression - 1):
        expr = {"op": "+", "left": expr, "right": 1}
    body = [{"op": "assign", "dst": "x", "expr": expr}]
    for level in range(statements - 1):
        body = [{"op": "loop", "var": f"i{level}", "start": 0, "end": 1,
                 "body": body}]
    return {"functions": [{"name": "main", "body": body}]}


DEMO_IR = {
    "functions": [
        {
            "name": "main",
            "body": [
                {"op": "malloc", "dst": "buf", "size": 100},
                {
                    "op": "loop",
                    "var": "i",
                    "start": 0,
                    "end": 26,
                    "bounded": False,
                    "body": [
                        {
                            "op": "store",
                            "base": "buf",
                            "offset": {"op": "*", "left": "i", "right": 4},
                            "width": 4,
                            "value": "i",
                        }
                    ],
                },
                {"op": "free", "ptr": "buf"},
            ],
        }
    ]
}


# ----------------------------------------------------------------------
# health + validation at the door
# ----------------------------------------------------------------------
class TestSubmissionValidation:
    def test_healthz(self, client):
        payload = client.get("/healthz").json()
        assert payload["status"] == "ok"
        assert payload["accepting"] is True

    def test_unknown_tool_is_422(self, client):
        response = client.post(
            "/jobs/run",
            json={"program": {"corpus": "demo"},
                  "config": {"tool": "NotASanitizer"}},
        )
        assert response.status_code == 422
        detail = response.json()["detail"]
        assert any("unknown tool" in item["msg"] for item in detail)

    def test_unknown_corpus_is_422(self, client):
        response = client.post(
            "/jobs/run", json={"program": {"corpus": "spec:nope"}}
        )
        assert response.status_code == 422

    def test_corpus_and_ir_both_is_422(self, client):
        response = client.post(
            "/jobs/run",
            json={"program": {"corpus": "demo", "ir": DEMO_IR}},
        )
        assert response.status_code == 422

    def test_malformed_inline_ir_is_422_not_a_failed_job(self, client):
        bad = {"functions": [{"name": "main", "body": [{"op": "warp"}]}]}
        response = client.post("/jobs/run", json={"program": {"ir": bad}})
        assert response.status_code == 422
        assert client.get("/jobs").json()["jobs"] == []

    @pytest.mark.parametrize(
        "statements, expression",
        [(1, 300), (300, 1), (1, MAX_NESTING + 1), (MAX_NESTING + 1, 1)],
    )
    def test_too_deeply_nested_inline_ir_is_422(
        self, client, statements, expression
    ):
        response = client.post(
            "/jobs/run",
            json={"program": {"ir": _nested_ir(statements, expression)}},
        )
        assert response.status_code == 422, response.text
        assert "nest deeper" in response.json()["detail"][0]["msg"]
        assert client.get("/jobs").json()["jobs"] == []

    def test_deepest_allowed_inline_ir_runs(self, client):
        detail = _submit_and_wait(
            client, "run",
            {"program": {"ir": _nested_ir(MAX_NESTING, MAX_NESTING)},
             "config": {"tool": "ASan"}},
        )
        assert detail["status"] == "done", detail["error"]
        assert detail["result"]["errors"] == []

    def test_deeply_nested_json_body_is_422(self, client):
        response = client.post(
            "/jobs/fuzz", body=b"[" * 2000 + b"]" * 2000
        )
        assert response.status_code == 422, response.text
        assert response.json()["detail"][0]["loc"] == ["body"]

    def test_missing_body_is_422(self, client):
        assert client.post("/jobs/run").status_code == 422

    def test_malformed_json_body_is_422(self, client):
        response = client.post("/jobs/run", body=b"{not json")
        assert response.status_code == 422

    def test_fuzz_iterations_over_cap_is_422(self, client):
        cap = client.get("/stats").json()["config"]["fuzz_iteration_cap"]
        response = client.post("/jobs/fuzz", json={"iterations": cap + 1})
        assert response.status_code == 422
        assert "exceeds the server cap" in response.json()["detail"][0]["msg"]

    def test_sweep_jobs_over_worker_cap_is_422(self, client):
        cap = client.get("/stats").json()["config"]["worker_cap"]
        response = client.post(
            "/jobs/sweep", json={"target": "fig11", "jobs": cap + 1}
        )
        assert response.status_code == 422

    @pytest.mark.parametrize("scale", [0, -2, MAX_SCALE + 1])
    def test_sweep_scale_outside_cli_bounds_is_422(self, client, scale):
        response = client.post(
            "/jobs/sweep", json={"target": "table2", "scale": scale}
        )
        assert response.status_code == 422
        assert client.get("/jobs").json()["jobs"] == []

    def test_shadow_field_is_422(self, client):
        # there is one shadow plane; requests still naming one are stale
        response = client.post(
            "/jobs/run",
            json={"program": {"corpus": "demo"},
                  "config": {"tool": "GiantSan", "shadow": "bytearray"}},
        )
        assert response.status_code == 422
        response = client.post(
            "/jobs/sweep", json={"target": "fig11", "shadow": "numpy"}
        )
        assert response.status_code == 422
        assert client.get("/jobs").json()["jobs"] == []

    def test_unknown_sweep_target_is_422(self, client):
        response = client.post("/jobs/sweep", json={"target": "table99"})
        assert response.status_code == 422

    def test_unknown_job_is_404(self, client):
        assert client.get("/jobs/doesnotexist").status_code == 404

    def test_unknown_route_is_404_and_wrong_method_is_405(self, client):
        assert client.get("/nope").status_code == 404
        assert client.delete("/jobs").status_code == 405


# ----------------------------------------------------------------------
# the JSON IR loader under arbitrary input
# ----------------------------------------------------------------------
_IR_KEYS = [
    "op", "dst", "size", "ptr", "base", "offset", "width", "value",
    "length", "byte", "dst_base", "dst_offset", "src_base", "src_offset",
    "expr", "cycles", "func", "args", "var", "start", "end", "step",
    "bounded", "reverse", "body", "cond", "then", "else", "left", "right",
]
_IR_OPS = [
    "malloc", "stack_alloc", "global_alloc", "free", "ptr_add", "load",
    "store", "memset", "memcpy", "strcpy", "assign", "compute", "call",
    "ret", "loop", "if", "+", "<", "warp",
]
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(_IR_OPS + _IR_KEYS + ["main", "buf", "i"])
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(_IR_KEYS + ["functions", "entry", "name", "params"])
        | st.text(max_size=3),
        inner,
        max_size=6,
    ),
    max_leaves=40,
)
_instructions = st.fixed_dictionaries(
    {"op": st.sampled_from(_IR_OPS)},
    optional={key: _json_values for key in _IR_KEYS[1:]},
)
_program_shaped = st.fixed_dictionaries(
    {
        "functions": st.lists(
            st.fixed_dictionaries(
                {"name": st.sampled_from(["main", "f", ""]) | _json_values},
                optional={
                    "params": st.lists(st.sampled_from(["a", "b"]))
                    | _json_values,
                    "body": st.lists(_instructions, max_size=5),
                },
            ),
            max_size=3,
        )
    },
    optional={"entry": st.sampled_from(["main", "f"]) | _json_values},
)


class TestProgramLoader:
    """``load_program`` answers any JSON value with a Program or a
    ValueError (a 422 at the door), never another exception."""

    @staticmethod
    def _load(document):
        try:
            program = load_program(document)
        except ValueError:
            return
        assert isinstance(program, Program)

    @settings(max_examples=200, deadline=None)
    @given(_json_values)
    def test_arbitrary_json(self, document):
        self._load(document)

    @settings(max_examples=200, deadline=None)
    @given(_program_shaped)
    def test_program_shaped_json(self, document):
        self._load(document)


# ----------------------------------------------------------------------
# run jobs: fidelity against direct Session execution
# ----------------------------------------------------------------------
class TestRunJobs:
    def test_demo_corpus_reports_byte_identical_to_direct_session(
        self, client
    ):
        detail = _submit_and_wait(
            client, "run", {"program": {"corpus": "demo"}}
        )
        assert detail["status"] == "done", detail["error"]
        served = detail["result"]

        session = Session("GiantSan", RunConfig.from_env(telemetry=True))
        result = session.run(build_demo_program())
        assert served["reports"] == format_all_reports(session.sanitizer)
        assert served["return_value"] == result.return_value
        assert served["total_cycles"] == result.total_cycles()
        assert served["instructions_executed"] == result.instructions_executed
        assert served["stats"] == result.stats.as_dict()
        assert [e["kind"] for e in served["errors"]] == [
            r.kind.value for r in result.errors.reports
        ]
        assert _normalized_telemetry(served["telemetry"]) == (
            _normalized_telemetry(result.telemetry.as_dict())
        )

    def test_inline_ir_matches_builder_program(self, client):
        detail = _submit_and_wait(
            client, "run", {"program": {"ir": DEMO_IR}}
        )
        assert detail["status"] == "done", detail["error"]
        served = detail["result"]

        session = Session("GiantSan", RunConfig.from_env(telemetry=True))
        result = session.run(load_program(DEMO_IR))
        assert served["reports"] == format_all_reports(session.sanitizer)
        assert served["stats"] == result.stats.as_dict()

    def test_explicit_cell_is_honoured_not_env(self, client, monkeypatch):
        # the server must use the request cell + captured defaults, not
        # whatever the environment says at run time
        monkeypatch.setenv("REPRO_ENGINE", "tree")
        detail = _submit_and_wait(
            client,
            "run",
            {
                "program": {"corpus": "demo"},
                "config": {"tool": "ASan", "engine": "compiled",
                           "fastpath": False},
            },
        )
        assert detail["status"] == "done", detail["error"]
        served = detail["result"]
        assert served["tool"] == "ASan"

        session = Session(
            "ASan",
            RunConfig.from_env(engine="compiled", fastpath=False, telemetry=True),
        )
        session.run(build_demo_program())
        assert served["reports"] == format_all_reports(session.sanitizer)

    def test_result_endpoint_conflicts_until_done(self, client):
        job_id = client.post(
            "/jobs/fuzz", json={"iterations": 120, "seed": 3}
        ).json()["id"]
        assert client.get(f"/jobs/{job_id}/result").status_code == 409
        client.wait_for_job(job_id)
        assert client.get(f"/jobs/{job_id}/result").status_code == 200

    def test_telemetry_endpoint_and_process_aggregate(self, client):
        detail = _submit_and_wait(
            client, "run", {"program": {"corpus": "demo"}}
        )
        payload = client.get(f"/jobs/{detail['id']}/telemetry").json()
        assert payload["telemetry"]["tool"] == "GiantSan"
        assert payload["telemetry"]["counters"]["checks_executed"] > 0
        totals = client.get("/stats").json()["telemetry_totals"]
        assert totals["runs"] == 1
        assert (
            totals["tools"]["GiantSan"]["counters"]["checks_executed"]
            == payload["telemetry"]["counters"]["checks_executed"]
        )

    def test_spec_corpus_uses_default_scale(self, client):
        detail = _submit_and_wait(
            client, "run", {"program": {"corpus": "spec:505.mcf_r"}}
        )
        assert detail["status"] == "done", detail["error"]
        assert detail["result"]["errors"] == []

    def test_juliet_unknown_case_fails_at_run_time(self, client):
        detail = _submit_and_wait(
            client, "run", {"program": {"corpus": "juliet:nope"}}
        )
        assert detail["status"] == "failed"
        assert "juliet" in detail["error"]


# ----------------------------------------------------------------------
# isolation: concurrent jobs cannot contaminate each other
# ----------------------------------------------------------------------
class TestConcurrentJobIsolation:
    def test_two_concurrent_runs_keep_telemetry_scoped(self, client):
        """Two jobs in flight together == the same two jobs run alone."""
        first = client.post(
            "/jobs/run",
            json={"program": {"corpus": "demo"},
                  "config": {"tool": "GiantSan"}},
        ).json()["id"]
        second = client.post(
            "/jobs/run",
            json={"program": {"corpus": "spec:519.lbm_r"},
                  "config": {"tool": "ASan"}},
        ).json()["id"]
        results = {
            job_id: client.wait_for_job(job_id) for job_id in (first, second)
        }
        assert all(d["status"] == "done" for d in results.values())

        expected = {}
        for job_id, tool, program in (
            (first, "GiantSan", build_demo_program()),
            (second, "ASan", None),
        ):
            session = Session(tool, RunConfig.from_env(telemetry=True))
            if program is None:
                from repro.workloads import SPEC_BY_NAME

                spec = SPEC_BY_NAME["519.lbm_r"]
                session.run(spec.build(), [spec.default_scale])
            else:
                session.run(program)
            expected[job_id] = _normalized_telemetry(
                session.telemetry.snapshot().as_dict()
            )
        for job_id in (first, second):
            served = _normalized_telemetry(
                results[job_id]["result"]["telemetry"]
            )
            assert served == expected[job_id], "telemetry cross-contaminated"

    def test_sweep_env_override_does_not_leak(self, client):
        env_before = os.environ.get("REPRO_ENGINE")
        captured = client.get("/stats").json()["defaults"]
        detail = _submit_and_wait(
            client,
            "sweep",
            {"target": "fig11", "jobs": 1, "engine": "compiled"},
        )
        assert detail["status"] == "done", detail["error"]
        assert os.environ.get("REPRO_ENGINE") == env_before
        assert client.get("/stats").json()["defaults"] == captured
        # a run job after the sweep still gets the captured engine
        run = _submit_and_wait(
            client, "run", {"program": {"corpus": "demo"}}
        )
        assert run["result"]["config"]["engine"] == captured["engine"]

    def test_sweep_fuzz_and_run_jobs_run_together(self):
        """A compiled-engine sweep, a fuzz campaign and a run job in
        flight at once: none waits on another's settings, each matches
        the CLI under its own settings, and the run job keeps the
        server's engine."""
        app = create_app(
            ServerConfig(max_concurrency=3), run_config=RunConfig()
        )
        with TestClient(app) as tc:
            sweep = tc.post("/jobs/sweep", json={
                "target": "table4", "jobs": 2, "engine": "compiled",
            }).json()["id"]
            fuzz = tc.post("/jobs/fuzz", json={
                "iterations": 12, "seed": 11, "jobs": 2,
            }).json()["id"]
            run = tc.post("/jobs/run", json={
                "program": {"corpus": "demo"},
                "config": {"tool": "ASan"},
            }).json()["id"]
            details = {
                job_id: tc.wait_for_job(job_id, timeout=300)
                for job_id in (sweep, fuzz, run)
            }
        for detail in details.values():
            assert detail["status"] == "done", detail["error"]
        assert details[run]["result"]["config"]["engine"] == "compiled"

        env = {
            key: value for key, value in os.environ.items()
            if not key.startswith("REPRO_")
        }
        env["PYTHONPATH"] = os.pathsep.join(sys.path)

        def cli(*argv):
            return subprocess.run(
                [sys.executable, "-m", "repro", *argv], env=env,
                capture_output=True, text=True, timeout=300,
            ).stdout

        assert details[sweep]["result"]["rendered"] + "\n" == cli(
            "table4", "--jobs", "2", "--engine", "compiled"
        )
        served = details[fuzz]["result"]
        assert cli(
            "fuzz", "--iterations", "12", "--seed", "11", "--jobs", "2"
        ) == (
            f"fuzzed {served['cases']} cases (seed=11, "
            f"{served['buggy_cases']} with injected bugs) under all tools, "
            "fastpath on+off\n"
            f"invariant checks passed: {served['invariant_checks']}\n"
            f"divergences: {served['divergences']}\n"
        )


# ----------------------------------------------------------------------
# fuzz + sweep jobs: fidelity against the direct drivers
# ----------------------------------------------------------------------
class TestCampaignJobs:
    def test_fuzz_job_matches_direct_driver(self, client):
        detail = _submit_and_wait(
            client, "fuzz",
            {"iterations": 20, "seed": 11, "bug_probability": 0.6},
        )
        assert detail["status"] == "done", detail["error"]
        served = detail["result"]

        from repro.fuzz.driver import fuzz_worker

        direct = fuzz_worker(
            (11, 0, 20, 0.6, True, False, RunConfig.from_env())
        )
        assert served["cases"] == direct.cases == 20
        assert served["buggy_cases"] == direct.buggy_cases
        assert served["invariant_checks"] == direct.invariant_checks
        assert served["findings"] == direct.findings

    def test_sweep_job_matches_direct_study(self, client):
        detail = _submit_and_wait(
            client, "sweep", {"target": "fig11", "jobs": 2}
        )
        assert detail["status"] == "done", detail["error"]
        from repro.analysis import render_figure11, run_figure11_study

        assert detail["result"]["rendered"] == render_figure11(
            run_figure11_study(jobs=1)
        )
        assert detail["result"]["target"] == "fig11"


# ----------------------------------------------------------------------
# cancellation + events + shutdown
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_cancel_mid_fuzz_lands_at_next_checkpoint(self, client):
        job_id = client.post(
            "/jobs/fuzz", json={"iterations": 1500, "seed": 5}
        ).json()["id"]
        # wait until the job is actually running (first checkpoint hit)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if client.get(f"/jobs/{job_id}").json()["status"] == "running":
                break
            time.sleep(0.01)
        response = client.post(f"/jobs/{job_id}/cancel")
        assert response.json()["cancel_requested"] is True
        detail = client.wait_for_job(job_id)
        assert detail["status"] == "cancelled"
        assert detail["result"] is None

    @pytest.fixture
    def held(self, monkeypatch):
        """Hold each job at its first progress event until the test sets
        the returned event, so a cancel deterministically arrives while
        the sweep still has units to run."""
        release = threading.Event()
        original = JobContext.progress

        def progress(context, message, **data):
            original(context, message, **data)
            release.wait(timeout=60)

        monkeypatch.setattr(JobContext, "progress", progress)
        yield release
        release.set()

    @pytest.mark.parametrize(
        "target", ["table2", "table3", "table4", "table5", "fig10", "fig11"]
    )
    def test_cancel_mid_sweep_lands_at_next_checkpoint(
        self, client, held, target
    ):
        job_id = client.post(
            "/jobs/sweep", json={"target": target}
        ).json()["id"]
        _wait_for_progress(client, job_id)
        response = client.post(f"/jobs/{job_id}/cancel")
        assert response.json()["cancel_requested"] is True
        held.set()
        detail = client.wait_for_job(job_id)
        assert detail["status"] == "cancelled"
        assert detail["result"] is None

    def test_cancelled_fabric_sweep_abandons_no_unit(self, client, held):
        job_id = client.post(
            "/jobs/sweep", json={"target": "table3", "jobs": 2}
        ).json()["id"]
        _wait_for_progress(client, job_id)
        client.post(f"/jobs/{job_id}/cancel")
        held.set()
        assert client.wait_for_job(job_id)["status"] == "cancelled"
        assert parallel.fabric_stats()["units_inflight"] == 0
        report = parallel.drain_pool()
        assert report is not None and report.clean, report.as_dict()

    def test_sweep_progress_events_count_units(self, client):
        detail = _submit_and_wait(
            client, "sweep", {"target": "table4", "jobs": 1}
        )
        assert detail["status"] == "done", detail["error"]
        events = client.get(f"/jobs/{detail['id']}/events").events()
        progress = [
            (e["completed"], e["total"])
            for e in events if e["type"] == "progress"
        ]
        total = progress[0][1]
        assert progress == [(done, total) for done in range(total + 1)]

    def test_cancel_queued_job_never_starts(self, client):
        blocker = client.post(
            "/jobs/fuzz", json={"iterations": 600, "seed": 1}
        ).json()["id"]
        second = client.post(
            "/jobs/fuzz", json={"iterations": 600, "seed": 2}
        ).json()["id"]
        queued = client.post(
            "/jobs/fuzz", json={"iterations": 600, "seed": 3}
        ).json()["id"]
        assert client.delete(f"/jobs/{queued}").status_code == 200
        for job_id in (blocker, second):
            client.post(f"/jobs/{job_id}/cancel")
        detail = client.wait_for_job(queued)
        assert detail["status"] == "cancelled"
        assert detail["started_at"] is None

    def test_cancel_terminal_job_reports_false(self, client):
        detail = _submit_and_wait(
            client, "run", {"program": {"corpus": "demo"}}
        )
        response = client.post(f"/jobs/{detail['id']}/cancel")
        assert response.json()["cancel_requested"] is False

    def test_event_stream_replays_full_lifecycle(self, client):
        detail = _submit_and_wait(
            client, "run", {"program": {"corpus": "demo"}}
        )
        response = client.get(f"/jobs/{detail['id']}/events")
        assert response.status_code == 200
        assert "text/event-stream" in response.headers["content-type"]
        events = response.events()
        statuses = [e["status"] for e in events if e["type"] == "status"]
        assert statuses == ["queued", "running", "done"]
        assert [e["seq"] for e in events] == list(range(len(events)))
        # `after` resumes past the replayed prefix
        tail = client.get(
            f"/jobs/{detail['id']}/events?after={events[-2]['seq']}"
        ).events()
        assert [e["seq"] for e in tail] == [events[-1]["seq"]]

    def test_list_filter_and_counts(self, client):
        detail = _submit_and_wait(
            client, "run", {"program": {"corpus": "demo"}}
        )
        listing = client.get("/jobs?status=done").json()
        assert [job["id"] for job in listing["jobs"]] == [detail["id"]]
        assert listing["counts"]["done"] == 1
        assert client.get("/jobs?status=running").json()["jobs"] == []

    def test_shutdown_drains_fabric_and_rejects_submissions(self):
        app = create_app(ServerConfig(max_concurrency=2))
        with TestClient(app) as client:
            detail = _submit_and_wait(
                client, "sweep", {"target": "fig11", "jobs": 2}
            )
            assert detail["status"] == "done", detail["error"]
            assert parallel._FABRIC is not None  # sweep created a fabric
        # context exit ran lifespan shutdown: fabric drained, store closed
        assert parallel._FABRIC is None
        assert app.state.manager.accepting is False


# ----------------------------------------------------------------------
# configuration plumbing
# ----------------------------------------------------------------------
class TestConfig:
    def test_config_from_env_reads_and_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_PORT", "9999")
        monkeypatch.setenv("REPRO_SERVE_CONCURRENCY", "4")
        config = config_from_env(max_concurrency=8)
        assert config.port == 9999
        assert config.max_concurrency == 8  # explicit override wins

    def test_worker_cap_bounded_by_max_jobs(self):
        import pydantic

        assert ServerConfig(worker_cap=parallel.MAX_JOBS).worker_cap == (
            parallel.MAX_JOBS
        )
        with pytest.raises(pydantic.ValidationError):
            ServerConfig(worker_cap=parallel.MAX_JOBS + 1)

    def test_config_from_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_PORT", "lots")
        with pytest.raises(SystemExit):
            config_from_env()

    def test_defaults_capture_matches_process_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "compiled")
        monkeypatch.setenv("REPRO_FASTPATH", "0")
        run_config = create_app(ServerConfig()).state.run_config
        assert run_config == RunConfig.from_env()
        assert run_config.engine == "compiled"
        assert run_config.fastpath is False

    def test_stats_reports_config_echo(self, client):
        stats = client.get("/stats").json()
        assert stats["config"]["max_concurrency"] == 2
        assert stats["defaults"]["engine"] in ("tree", "compiled")
        assert stats["jobs"]["queued"] == 0
