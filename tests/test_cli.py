"""Command-line interface."""

import pytest

from repro.cli import main
from repro.experiments.registry import all_experiments, experiment_names


def test_every_paper_artifact_has_a_cli_entry():
    names = set(experiment_names())
    for required in ("casestudy", "fig5", "table1", "fig7", "fig8", "fig9",
                     "fig10c", "obs8", "fig10d", "obs3", "obs10", "folding"):
        assert required in names


def test_cli_mirrors_the_registry(capsys):
    assert main(["list"]) == 0
    listed = [line.split()[0] for line in
              capsys.readouterr().out.splitlines()[1:]]
    assert tuple(listed[:len(experiment_names())]) == experiment_names()


def test_list_is_default(capsys):
    assert main([]) == 0
    out = capsys.readouterr().out
    assert "available experiments" in out
    assert "table1" in out


def test_explicit_list(capsys):
    assert main(["list"]) == 0
    assert "fig9" in capsys.readouterr().out


def test_unknown_experiment_fails(capsys):
    assert main(["fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


@pytest.mark.parametrize("stream", [(), ("--stream",)])
@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("flag", ["--batch-size", "--chunk-size"])
def test_sweep_size_below_one_names_the_flag(tmp_path, capsys, flag, value,
                                            stream):
    spec_file = tmp_path / "sweep.json"
    spec_file.write_text('{"grid": {"arch.capacity_mb": [32, 64]}}')
    assert main(["sweep", "--spec", str(spec_file), flag, value,
                 *stream]) == 2
    err = capsys.readouterr().err
    assert err.strip() == f"{flag} must be >= 1"


def test_max_failures_tolerates_failed_points_without_stream(tmp_path,
                                                            capsys):
    # resnet18's weights do not fit in 1 MB: one of the two points fails.
    spec_file = tmp_path / "sweep.json"
    spec_file.write_text('{"base": {"workload": {"network": "resnet18"}}, '
                         '"grid": {"arch.capacity_mb": [1, 64]}}')
    assert main(["sweep", "--spec", str(spec_file),
                 "--max-failures", "1"]) == 0
    out = capsys.readouterr().out
    assert "streamed 2 points" in out
    assert "1 failed" in out


def test_run_single_experiment(capsys):
    assert main(["obs10"]) == 0
    out = capsys.readouterr().out
    assert "60 K" in out


def test_run_multiple_experiments(capsys):
    assert main(["obs10", "fig8"]) == 0
    out = capsys.readouterr().out
    assert "60 K" in out
    assert "Fig. 8a" in out


def test_run_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "L4.1 CONV2" in out
    assert "Total" in out


def test_table1_spec_without_the_stem_layers_exits_2(tmp_path, capsys):
    spec_file = tmp_path / "alexnet.json"
    spec_file.write_text('{"workload": {"network": "alexnet"}, '
                         '"arch": {"capacity_mb": 128}}')
    assert main(["table1", "--spec", str(spec_file)]) == 2
    err = capsys.readouterr().err
    assert "CONV1+POOL" in err
    assert "network 'alexnet' has no 'POOL' layer" in err


def test_flow_reports_a_failing_stage_as_a_row(tmp_path, capsys):
    """At delta 4 the M3D RRAM banks do not fit the die: the flow prints
    that design's failed stage as its row and still exits 0."""
    spec_file = tmp_path / "delta4.json"
    spec_file.write_text('{"tech": {"delta": 4.0}}')
    assert main(["flow", "--spec", str(spec_file), "--no-cache"]) == 0
    out = capsys.readouterr().out
    (m3d_row,) = [line for line in out.splitlines()
                  if line.startswith("M3D")]
    assert m3d_row.split()[-1] == "failed:floorplan"
    assert "feasible designs: 1/2" in out


def test_descriptions_are_nonempty():
    for exp in all_experiments():
        assert exp.summary, exp.name
        assert callable(exp.run), exp.name


def test_list_markdown(capsys):
    assert main(["list", "--markdown"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("| experiment | summary | module |")
    assert "| `table1` |" in out


def test_profile_prints_top_spans(capsys):
    assert main(["obs10", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "Experiment wall time" in out
    assert "Top spans by total wall time" in out
    assert "experiment.obs10" in out


def test_trace_writes_valid_chrome_trace(tmp_path, capsys):
    import json

    from repro.obs.export import validate_chrome_trace

    path = tmp_path / "trace.json"
    assert main(["table1", "--trace", str(path)]) == 0
    data = json.loads(path.read_text())
    assert validate_chrome_trace(data) == []
    names = {event["name"] for event in data["traceEvents"]}
    assert "experiment.table1" in names
    assert "engine.map" in names


def test_trace_csv_and_metrics_files(tmp_path, capsys):
    csv_path = tmp_path / "spans.csv"
    prom_path = tmp_path / "metrics.prom"
    assert main(["obs10", "--trace-csv", str(csv_path),
                 "--metrics", str(prom_path)]) == 0
    assert csv_path.read_text().startswith("name,depth,worker")
    assert "# TYPE" in prom_path.read_text()


def test_tracing_off_without_observe_flags(capsys):
    from repro.obs.trace import is_enabled
    assert main(["obs10"]) == 0
    assert not is_enabled()
    out = capsys.readouterr().out
    assert "Top spans" not in out


def test_report_contains_all_sections(capsys):
    from repro.report import build_report
    report = build_report()
    for marker in ("--- table1:", "--- fig7:", "--- ext-batching:",
                   "--- validation ---"):
        assert marker in report
    assert "[FAIL]" not in report
    assert "19/19 claims reproduced" in report
