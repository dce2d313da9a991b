"""Application factory for the sanitizer-as-a-service control plane.

``create_app`` wires the validated server config, the
:class:`~repro.config.RunConfig` captured once at creation time (every
job runs from it plus its request's overrides), the async job manager, and
the process telemetry aggregate into an ASGI 3 application.  The app
is framework-free (see :mod:`repro.server.asgi`) so it runs under the
bundled stdlib server, the in-process test client, or any external
ASGI server without new dependencies.
"""

from __future__ import annotations

from typing import Optional

from ..config import RunConfig
from .asgi import App
from .config import ServerConfig, config_from_env
from .jobs import JobManager
from .routers import health, jobs
from .services.common import TelemetryAggregate


def create_app(
    config: Optional[ServerConfig] = None,
    run_config: Optional[RunConfig] = None,
) -> App:
    """Build the control-plane app; ``config=None`` reads REPRO_SERVE_*
    and ``run_config=None`` the ``REPRO_*`` run settings."""
    config = config or config_from_env()
    run_config = run_config or RunConfig.from_env()
    manager = JobManager(config)

    app = App()
    app.state.config = config
    app.state.run_config = run_config
    app.state.manager = manager
    app.state.telemetry_totals = TelemetryAggregate()
    app.include(health.router)
    app.include(jobs.router)
    app.on_startup.append(manager.startup)
    app.on_shutdown.append(manager.shutdown)
    return app
