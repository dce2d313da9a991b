"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.analysis.parallel import MAX_JOBS
from repro.analysis.sweeps import MAX_SCALE
from repro.cli import build_parser, main
from repro.runtime import CompiledEngine, Interpreter


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("table1", "table2", "table3", "table4", "table5",
                        "fig10", "fig11", "demo", "list"):
            args = parser.parse_args(
                [command] if command != "table2" else [command, "--scale", "1"]
            )
            assert args.command == command

    def test_table2_flags(self):
        args = build_parser().parse_args(["table2", "--scale", "3", "--ablation"])
        assert args.scale == 3
        assert args.ablation

    @pytest.mark.parametrize(
        "jobs", ["0", "-3", str(MAX_JOBS + 1), "100000", "two"]
    )
    def test_jobs_outside_bounds_rejected_at_parse_time(self, jobs, capsys):
        for command in ("table3", "fuzz", "profile"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--jobs", jobs])
            assert "--jobs" in capsys.readouterr().err

    def test_jobs_bounds_accepted(self):
        for jobs in (1, MAX_JOBS):
            args = build_parser().parse_args(["table2", "--jobs", str(jobs)])
            assert args.jobs == jobs

    @pytest.mark.parametrize("scale", ["0", "-2", str(MAX_SCALE + 1), "x"])
    def test_scale_outside_bounds_rejected_at_parse_time(self, scale, capsys):
        for command in ("table2", "fig10", "profile"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--scale", scale])
            assert "--scale" in capsys.readouterr().err

    def test_scale_bounds_accepted(self):
        for scale in (1, MAX_SCALE):
            args = build_parser().parse_args(["profile", "--scale", str(scale)])
            assert args.scale == scale

    @pytest.mark.parametrize("iterations", ["0", "-2", "-5", "many"])
    def test_fuzz_iterations_below_one_rejected_at_parse_time(
        self, iterations, capsys
    ):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "--iterations", iterations])
        assert "--iterations" in capsys.readouterr().err

    def test_fuzz_iterations_accepted(self):
        for iterations in (1, MAX_SCALE + 1):
            args = build_parser().parse_args(
                ["fuzz", "--iterations", str(iterations)]
            )
            assert args.iterations == iterations

    def test_bench_command_removed(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])

    def test_demo_tool_flag(self):
        args = build_parser().parse_args(["demo", "--tool", "ASan"])
        assert args.tool == "ASan"


class TestExecution:
    @pytest.mark.parametrize(
        "env, argv, engine",
        [
            (None, [], CompiledEngine),
            ("tree", [], Interpreter),
            (None, ["--engine", "tree"], Interpreter),
            ("tree", ["--engine", "compiled"], CompiledEngine),
        ],
    )
    def test_engine_selection(self, monkeypatch, capsys, env, argv, engine):
        """Compiled is the default; ``REPRO_ENGINE=tree`` and
        ``--engine tree`` still reach the reference tree walker."""
        if env is None:
            monkeypatch.delenv("REPRO_ENGINE", raising=False)
        else:
            monkeypatch.setenv("REPRO_ENGINE", env)
        engines = set()
        tree_run = Interpreter.run

        def run(self, *args, **kwargs):
            engines.add(type(self))
            return tree_run(self, *args, **kwargs)

        monkeypatch.setattr(Interpreter, "run", run)
        assert main(["demo", *argv]) == 0
        assert "heap-buffer-overflow" in capsys.readouterr().out
        assert engines == {engine}

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out
        assert "fig11" in out

    def test_no_command_lists(self, capsys):
        assert main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Constant Propagation" in out

    def test_demo_prints_report(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "heap-buffer-overflow" in out
        assert "SUMMARY" in out

    def test_demo_other_tool(self, capsys):
        assert main(["demo", "--tool", "ASan"]) == 0
        assert "ASan" in capsys.readouterr().out
