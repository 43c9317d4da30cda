"""Self-test of the benchmark: answers, tracer, metric names, failure counting.

Runs a few analyses of every workload in-process; the workers that run.py
would start as processes are called directly with a lowered sample floor,
so the whole file takes seconds, not a benchmark run.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import contextlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import corpus  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_spec():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in DECLARED["workloads"]] == list(spec.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in DECLARED["end_to_end"]] == spec.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in DECLARED["per_layer"]] == [
        p[:3] for p in spec.PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_smoke_analyses_are_correct_and_traced_exactly(workload):
    """One analysis of each kind: checked, then re-run traced with equal answers."""
    ctx = corpus.build_context(workload)
    analyses = corpus.warmup_analyses(workload, seed=5)
    tally = worker.Tally()
    answers = [tally.attempt(ctx, a)[0] for a in analyses]
    assert tally.failures == []
    assert tally.attempted == len(analyses)

    tr = tracer.Tracer()
    originals = {name: getattr(corpus.besov, name) for name in ("detect_regularity", "lp_norm")}
    tr.install()
    try:
        assert corpus.besov.lp_norm is not originals["lp_norm"]
        roots, traced = [], []
        for a in analyses:
            inputs = corpus.prepare(ctx, a)
            with tr.span("bench.analysis") as idx:
                traced.append(corpus.run(ctx, a, inputs))
            roots.append(idx)
    finally:
        tr.restore()
    assert all(getattr(corpus.besov, n) is f for n, f in originals.items())
    assert traced == answers
    with tr.span("bench.setup") as setup_idx:
        pass
    _, misses = worker.layer_metrics(tr, ctx, analyses, traced, roots, setup_idx)
    assert misses == []


def _in_process_worker(tmp_path):
    """Stand-in for run._worker: worker.main in this process, stdout parsed."""

    def call(args, role, deadline):
        buf = io.StringIO()
        argv = [
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--role", role, "--out", str(tmp_path), "--spawned-at", repr(time.monotonic()),
        ]
        with contextlib.redirect_stdout(buf):
            assert worker.main(argv) == 0
        return json.loads(buf.getvalue().splitlines()[-1])

    return call


def _run_main(monkeypatch, tmp_path, trace):
    monkeypatch.setattr(worker, "MIN_SAMPLES", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "_worker", _in_process_worker(tmp_path))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", "associate", "--seed", "2", "--seconds", "0.01", "--trace", str(trace)])
    assert code == 0
    lines = buf.getvalue().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace,declared", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_declared_metric(monkeypatch, tmp_path, trace, declared):
    lines, result = _run_main(monkeypatch, tmp_path, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in DECLARED[declared]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(line.strip().startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines)
    if trace:
        assert result["metrics"]["bench.call_count_mismatches"]["value"] == 0


def test_times_are_scaled_to_reference_host_speed(monkeypatch, tmp_path):
    """A host that runs the probe at twice the reference time halves every reported time."""
    monkeypatch.setattr(worker.HostSpeed, "probe", lambda self: 2.0 * worker.REF_PROBE_S)
    _, result = _run_main(monkeypatch, tmp_path, 0)
    record = json.loads((tmp_path / "result-associate-seed2-trace0.json").read_text())
    got = {n: m["value"] for n, m in result["metrics"].items()}
    wall = record["wall"]
    assert got["latency_p50_ms"] == pytest.approx(wall["latency_p50_ms"] / 2.0)
    assert got["latency_p90_ms"] == pytest.approx(wall["latency_p90_ms"] / 2.0)
    assert got["throughput_per_s"] == pytest.approx(wall["throughput_per_s"] * 2.0)
    assert record["setup_s_each"] == pytest.approx([s / 2.0 for s in record["setup_wall_s_each"]])


def test_wrong_expected_answer_is_counted(monkeypatch, tmp_path):
    """Shift every expected association rate: each strong study must fail."""
    monkeypatch.setattr(corpus, "theory_b", lambda a: 0.5 + float(a.amplitude[2:]) if a.amplitude.startswith("e^") else None)
    lines, result = _run_main(monkeypatch, tmp_path, 0)
    strong = sum(1 for line in lines if line.strip().startswith("FAILED") and "want strong" in line)
    assert result["correct"] is False
    assert result["failed"] == strong > 0
    assert f"error_ratio = {result['failed']}/{result['attempted']}" in "\n".join(lines)


def test_refuses_to_run_without_the_library_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(DECLARED))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "associate", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
