"""Tests of the end-to-end benchmark itself: ``pytest benchmarks/e2e -q``."""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))


def _tracer_module():
    # Loaded by path: the module's name shadows the standard library's
    # `trace`, which another plugin may already have imported.
    if "e2e_trace" not in sys.modules:
        spec = importlib.util.spec_from_file_location("e2e_trace", os.path.join(HERE, "trace.py"))
        module = importlib.util.module_from_spec(spec)
        sys.modules["e2e_trace"] = module
        spec.loader.exec_module(module)
    return sys.modules["e2e_trace"]


def _nested_trace():
    """a[0,10] holds b[1,4] and c[5,9]; c holds probe d[6,7]; top-level
    probe p[10,11]; the tracer starts at 0 and closes at 12."""
    ticks = iter([0, 0, 1, 4, 5, 6, 7, 9, 10, 10, 11, 12])
    tr = _tracer_module().Tracer(clock=lambda: next(ticks))
    with tr.span("a"):
        with tr.span("b"):
            pass
        with tr.span("c"):
            with tr.span("d", probe=True):
                pass
    with tr.span("p", probe=True):
        pass
    tr.close()
    return tr


def test_self_time_subtracts_child_spans():
    tr = _nested_trace()
    assert [tr.self_ns(i) for i in range(len(tr.spans))] == [3, 3, 3, 1, 1]
    assert tr.self_seconds()["c"] == 3e-9
    # Top-level probe p is left out of both sides; nested probe d is not.
    assert tr.coverage() == pytest.approx(10 / 11)


def test_self_time_sums_spans_of_one_name():
    ticks = iter([0, 0, 2, 3, 7, 8])
    tr = _tracer_module().Tracer(clock=lambda: next(ticks))
    for _ in range(2):
        with tr.span("x"):
            pass
    tr.close()
    assert tr.self_seconds() == {"x": pytest.approx(6e-9)}


def test_chrome_trace_schema(tmp_path):
    tr = _nested_trace()
    tr.count("sampling.samples", 5)
    tr.count("sampling.samples", 2)
    path = tr.write_chrome(str(tmp_path / "t.json"), {"workload": "w"})
    with open(path) as f:
        doc = json.load(f)
    assert doc["displayTimeUnit"] == "ms"
    assert doc["otherData"] == {"workload": "w"}
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    assert [e["name"] for e in spans] == ["a", "b", "c", "d", "p"]
    for e in spans:
        assert set(e) == {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"}
        assert e["ts"] >= 0 and e["dur"] >= 0
    assert spans[0]["dur"] == 10 / 1e3  # µs from ns
    assert spans[0]["args"] == {"self_us": 3 / 1e3, "probe": False}
    assert counters == [{
        "name": "sampling.samples", "cat": "sampling", "ph": "C",
        "ts": 12 / 1e3, "pid": spans[0]["pid"], "tid": 1, "args": {"value": 7},
    }]


def test_median_quartiles_and_bounds():
    assert run.summarize([5.0, 1.0, 4.0, 2.0, 3.0]) == {
        "median": 3.0, "q1": 1.5, "q3": 4.5, "n": 5}
    assert run.summarize([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0, "n": 1}
    assert not run.regressed(1.0, 1.09, 0.10, "lower")
    assert run.regressed(1.0, 1.11, 0.10, "lower")
    assert not run.regressed(1.0, 0.5, 0.10, "lower")
    assert run.regressed(1.0, 0.89, 0.10, "higher")
    assert not run.regressed(1.0, 2.0, 0.10, "higher")


def test_benchmark_bounds():
    e2e = run.load_benchmark()["end_to_end"]
    bounds = {m["name"]: m["bound"] for m in e2e}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_tampered_artifact_counts_as_failed_op(tmp_path):
    golden = wl.load_golden()
    workdir = str(tmp_path / "w")
    run.set_up(golden, "lulesh_profile", 0, workdir)
    assert run.run_op(golden, "lulesh_profile", 0, workdir)["problems"] == []
    path = os.path.join(workdir, "run.cbp")
    with open(path, "r+b") as f:
        data = bytearray(f.read())
        data[len(data) // 2] ^= 1
        f.seek(0)
        f.write(data)
    with open(os.path.join(workdir, ".stdout"), "rb") as f:
        stdout = f.read()
    assert wl.check_outputs(wl.expected(golden, "lulesh_profile", 0), stdout, workdir) == [
        "run.cbp differs from golden"]


def test_tampered_replay_input_fails_the_op(tmp_path):
    golden = wl.load_golden()
    workdir = str(tmp_path / "w")
    assert run.set_up(golden, "replay", 0, workdir)[0]["problems"] == []
    path = os.path.join(workdir, "clomp.cbp")
    with open(path, "r+b") as f:
        f.seek(os.path.getsize(path) // 2)
        byte = f.read(1)
        f.seek(-1, os.SEEK_CUR)
        f.write(bytes([byte[0] ^ 1]))
    assert run.run_op(golden, "replay", 0, workdir)["problems"] == ["exit status 1"]


def test_quick_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(lines) == len(wl.WORKLOADS)
    for line in lines:
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == {"op_s", "setup_s", "peak_rss_mb"}


def test_refuses_without_sources(tmp_path):
    """Given only BENCHMARK.json and the benchmark's own files, the run
    fails fast and prints no result."""
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.BENCHMARK_PATH, tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "replay", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
