"""CLI tests (``python -m repro``)."""

import pytest

from repro.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "qqphonebook" in out
    assert "case2_thumb" in out


def test_scenario_runs_and_reports(capsys):
    assert main(["scenario", "case2", "--config", "ndroid"]) == 0
    out = capsys.readouterr().out
    assert "detected: True" in out
    assert "case2.collect.example.com" in out


def test_scenario_taintdroid_misses_case2(capsys):
    assert main(["scenario", "case2", "--config", "taintdroid"]) == 0
    out = capsys.readouterr().out
    assert "detected: False" in out


def test_scenario_with_log(capsys):
    assert main(["scenario", "case1", "--log"]) == 0
    out = capsys.readouterr().out
    assert "dvmCallJNIMethod" in out


def test_unknown_scenario(capsys):
    assert main(["scenario", "nope"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_matrix(capsys):
    from repro.apps import ALL_SCENARIOS

    assert main(["matrix"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split() == ["scenario", "case", "TaintDroid", "+NDroid"]
    rows = {}
    for line in lines:
        name, __, taintdroid, ndroid = line.split()
        rows[name] = (taintdroid, ndroid)
    assert set(rows) == set(ALL_SCENARIOS)

    def verdict(detected):
        return "detected" if detected else "missed"

    for name, build in ALL_SCENARIOS.items():
        scenario = build()
        assert rows[name] == (
            verdict(scenario.taintdroid_alone_detects),
            verdict(scenario.expected_taint)), name


def test_corpus(capsys):
    assert main(["corpus", "--scale", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "type I" in out
    assert "Game" in out


def test_bench_smoke(capsys):
    assert main(["bench", "--iterations", "40", "--repeats", "1"]) == 0
    out = capsys.readouterr().out
    assert "NDroid slowdown" in out
    assert "Overall Score" in out
