"""RunConfig: the one place a run's settings are resolved.

Every execution setting a run can vary lives in one frozen value:

========================  ==========================  ========
field                     environment variable        default
========================  ==========================  ========
``engine``                ``REPRO_ENGINE``            ``compiled``
``fastpath``              ``REPRO_FASTPATH``          on
``memoize``               ``REPRO_INSTRUMENT_CACHE``  on
``interprocedural``       ``REPRO_INTERPROC``         on
``telemetry``             ``REPRO_TELEMETRY``         off
``invariants``            ``REPRO_INVARIANTS``        off
========================  ==========================  ========

:meth:`RunConfig.from_env` is the only code that reads those variables.
Entry points (the CLI, the server, the study runners) resolve a config
once and pass it down — into :class:`~repro.runtime.session.Session`
and inside every fabric unit's payload — so a worker process never
consults its own environment and a config change never needs new
workers.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Mapping, Optional

ENGINES = ("tree", "compiled")

#: field -> environment variable, in declaration order.
ENV_VARS = {
    "engine": "REPRO_ENGINE",
    "fastpath": "REPRO_FASTPATH",
    "memoize": "REPRO_INSTRUMENT_CACHE",
    "interprocedural": "REPRO_INTERPROC",
    "telemetry": "REPRO_TELEMETRY",
    "invariants": "REPRO_INVARIANTS",
}

_TRUE = ("1", "true", "on", "yes")
_FALSE = ("0", "false", "off", "no")


def _parse_bool(name: str, raw: str) -> bool:
    """``1/true/on/yes`` or ``0/false/off/no`` in any case; anything
    else raises ``ValueError`` naming the variable."""
    value = raw.strip().lower()
    if value in _TRUE:
        return True
    if value in _FALSE:
        return False
    raise ValueError(
        f"invalid {name}={raw!r}: expected one of "
        f"{', '.join(_TRUE + _FALSE)}"
    )


@dataclass(frozen=True)
class RunConfig:
    """The execution settings of one run (see the module table)."""

    engine: str = "compiled"
    fastpath: bool = True
    memoize: bool = True
    interprocedural: bool = True
    telemetry: bool = False
    invariants: bool = False

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; known engines: "
                f"{', '.join(ENGINES)}"
            )

    @classmethod
    def from_env(
        cls, *, env: Optional[Mapping[str, str]] = None, **overrides
    ) -> "RunConfig":
        """The config the ``REPRO_*`` variables describe, with
        ``overrides`` applied on top.  Unset or empty variables keep the
        field default."""
        env = os.environ if env is None else env
        values = {}
        for field, name in ENV_VARS.items():
            raw = env.get(name, "").strip()
            if not raw:
                continue
            if field == "engine":
                values[field] = raw.lower()
                if values[field] not in ENGINES:
                    raise ValueError(
                        f"invalid {name}={raw!r}: expected one of "
                        f"{', '.join(ENGINES)}"
                    )
            else:
                values[field] = _parse_bool(name, raw)
        values.update(overrides)
        return cls(**values)

    def replace(self, **changes) -> "RunConfig":
        """A copy with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)
