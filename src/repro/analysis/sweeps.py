"""The paper sweeps by name: one study runner and one renderer each.

The CLI's sweep commands and the server's sweep jobs both dispatch
through :data:`SWEEPS`, so a served sweep's ``rendered`` text is the
CLI's stdout.  Every runner makes one checkpointed
:func:`~repro.analysis.parallel.parallel_map` call, and only this
package knows the payloads its workers take.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..config import RunConfig
from . import tables
from .detection import run_juliet_study, run_linux_flaw_study, run_magma_study
from .figures import run_figure10_study, run_figure11_study
from .overhead import run_overhead_study


#: Largest iteration ``scale`` a scaled sweep or a profile accepts, on
#: the CLI and over REST.
MAX_SCALE = 64


@dataclass(frozen=True)
class Sweep:
    title: str
    runner: Callable[..., Any]
    render: Callable[[Any], str]
    #: Whether the runner takes an iteration ``scale``.
    scaled: bool = False

    def run(
        self,
        jobs: int = 1,
        config: Optional[RunConfig] = None,
        scale: Optional[int] = None,
        checkpoint: Optional[Callable] = None,
    ) -> Any:
        """The study; targets without a scale ignore ``scale``."""
        extra = {"scale": scale} if self.scaled else {}
        return self.runner(
            jobs=jobs, config=config, checkpoint=checkpoint, **extra
        )


SWEEPS = {
    "table2": Sweep("Table 2: SPEC proxy overheads", run_overhead_study,
                    tables.render_table2, scaled=True),
    "table3": Sweep("Table 3: Juliet-style detection", run_juliet_study,
                    tables.render_table3),
    "table4": Sweep("Table 4: Linux Flaw CVE detection",
                    run_linux_flaw_study, tables.render_table4),
    "table5": Sweep("Table 5: Magma redzone study", run_magma_study,
                    tables.render_table5),
    "fig10": Sweep("Figure 10: check-type breakdown", run_figure10_study,
                   tables.render_figure10, scaled=True),
    "fig11": Sweep("Figure 11: traversal patterns", run_figure11_study,
                   tables.render_figure11),
}

#: The sweep target names, in the paper's order.
SWEEP_TARGETS = tuple(SWEEPS)
