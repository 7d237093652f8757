"""`repro run` / `repro report` artifact-pipeline tests."""

import json

import pytest

from repro.cli import main
from repro.observability.schema import validate_trace


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("artifacts"))
    assert main(["run", "examples/ephone", "--trace", "--out", out]) == 0
    return out


def test_run_writes_all_artifacts(traced_run):
    import os
    for name in ("meta.json", "metrics.json", "metrics_baseline.json",
                 "leaks.json", "trace.jsonl", "flow.dot", "profile.folded"):
        assert os.path.exists(os.path.join(traced_run, name)), name


def test_leaks_json_is_the_farm_rows_leaks(traced_run):
    import os
    from repro.farm import JobSpec, execute_job

    with open(os.path.join(traced_run, "leaks.json")) as handle:
        leaks = json.load(handle)
    row = execute_job(JobSpec(id="scenario:ephone", kind="scenario",
                              target="ephone", config="ndroid"))
    assert row["status"] == "ok"
    assert leaks and leaks == row["leaks"]


def test_trace_validates_against_schema(traced_run):
    import os
    count, errors = validate_trace(os.path.join(traced_run, "trace.jsonl"))
    assert count > 0
    assert errors == []


def test_report_renders_provenance_and_overhead(traced_run, capsys):
    assert main(["report", "--dir", traced_run]) == 0
    output = capsys.readouterr().out
    assert "source:framework" in output
    assert "sink:sendto" in output
    assert "overhead vs vanilla baseline" in output
    assert "analysis work" in output
    assert "emulator.instructions" in output


def test_report_fails_on_invalid_schema(tmp_path, capsys):
    (tmp_path / "meta.json").write_text('{"scenario": "x", "config": "y"}')
    (tmp_path / "trace.jsonl").write_text('{"seq": -1}\n')
    assert main(["report", "--dir", str(tmp_path)]) == 1
    assert "SCHEMA INVALID" in capsys.readouterr().out


def test_report_missing_directory_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope")
    assert main(["report", "--dir", missing]) == 2
    assert "no artifact directory" in capsys.readouterr().err


def test_run_unknown_scenario_errors(tmp_path, capsys):
    assert main(["run", "examples/doesnotexist",
                 "--out", str(tmp_path)]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_quarantined_hook_shows_up_in_report(tmp_path, capsys):
    """A hook fault injected into the traced run must surface as a
    resilience metric and be named by `repro report`."""
    out = str(tmp_path / "faulted")
    assert main(["run", "examples/ephone", "--trace",
                 "--faults", "hook:libc.memcpy.entry", "--out", out]) == 0
    capsys.readouterr()
    metrics = json.load(open(f"{out}/metrics.json"))
    assert metrics["resilience.degraded_events"] >= 1
    assert metrics["resilience.quarantined.libc.memcpy.entry"] == 1
    assert main(["report", "--dir", out]) == 0
    output = capsys.readouterr().out
    assert "libc.memcpy.entry" in output
    assert "degraded events:   1" in output
