"""Tests for the command-line interface."""

from __future__ import annotations

import pathlib

import pytest

from repro.cli import main
from repro.docs import generate_experiments_md
from repro.experiments import EXPERIMENTS
from repro.experiments.base import ExperimentResult

_COMMITTED_MD = pathlib.Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"


def _stub_result(name):
    return ExperimentResult(name, "t", ["a"], [[1]])


class TestCli:
    def test_list_shows_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Nginx" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown" in err

    def test_run_fast_flag(self, capsys):
        assert main(["run", "fig16", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 16" in out

    def test_run_all_among_other_names_runs_the_registry_once(
        self, monkeypatch, capsys
    ):
        ran = []

        def fake_run(name, fast):
            ran.append(name)
            return _stub_result(name)

        monkeypatch.setattr("repro.cli.run_experiment", fake_run)
        assert main(["run", "all", "fig11"]) == 0
        assert ran == list(EXPERIMENTS)
        assert main(["run", "fig11", "all", "fig99"]) == 2
        assert "unknown experiments: fig99" in capsys.readouterr().err

    def test_experiments_md_to_file(self, tmp_path, monkeypatch):
        # Plumbing only, with a stub runner; the real generation is
        # TestExperimentsMd's.
        monkeypatch.setattr(
            "repro.docs.run_experiment", lambda name, fast: _stub_result(name)
        )
        target = tmp_path / "EXPERIMENTS.md"
        assert main(["experiments-md", "-o", str(target)]) == 0
        text = target.read_text()
        assert "# EXPERIMENTS" in text
        assert "table1" in text

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestExperimentsMd:
    def test_committed_file_is_what_the_generator_prints(self):
        assert generate_experiments_md() == _COMMITTED_MD.read_text(), (
            "EXPERIMENTS.md is stale; regenerate it with "
            "`python -m repro experiments-md -o EXPERIMENTS.md`"
        )

    @pytest.mark.parametrize("fast, fig16_kwargs", [(True, {"n_requests": 10}), (False, {})])
    def test_fast_reaches_the_runners(self, monkeypatch, fast, fig16_kwargs):
        received = {}

        def recording(name):
            def stub(**kwargs):
                received[name] = kwargs
                return _stub_result(name)

            return stub

        for name in EXPERIMENTS:
            monkeypatch.setitem(EXPERIMENTS, name, recording(name))
        text = generate_experiments_md(fast=fast)
        assert ("generated with `--fast`" in text) == fast
        assert received["fig16"] == fig16_kwargs
        assert set(received) == set(EXPERIMENTS)
