"""Experiment runners and table/figure renderers for the evaluation.

The names below load on first use (PEP 562), so importing one
submodule — the server and the CLI import :mod:`.sweeps` at startup —
does not import every runner, exporter and the execution fabric.
"""

import importlib

_EXPORTS = {
    "overhead": (
        "ABLATION_TOOLS", "OverheadStudy", "PERFORMANCE_TOOLS",
        "ProgramOverheads", "measure_program", "run_overhead_study",
    ),
    "detection": (
        "CveResults", "DETECTION_TOOLS", "JulietResults", "MagmaResults",
        "run_juliet_study", "run_linux_flaw_study", "run_magma_study",
    ),
    "parallel": ("default_jobs", "parallel_map"),
    "figures": (
        "CheckBreakdown", "FIG10_CATEGORIES", "FIGURE11_TOOLS",
        "TraversalPoint", "TraversalStudy", "measure_check_breakdown",
        "run_figure10_study", "run_figure11_study",
    ),
    "export": (
        "breakdown_to_rows", "cve_to_rows", "juliet_to_rows",
        "magma_to_rows", "overhead_to_rows", "profile_to_json",
        "telemetry_to_rows", "to_csv", "to_json", "traversal_to_rows",
    ),
    "profile": (
        "ProfileStudy", "ProgramProfile", "profile_program",
        "quasi_bound_limit", "render_profile", "run_profile_study",
        "wiring_problems",
    ),
    "sweeps": ("SWEEP_TARGETS", "SWEEPS", "Sweep"),
    "tables": (
        "render_figure10", "render_figure11", "render_table1",
        "render_table2", "render_table3", "render_table4", "render_table5",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value
