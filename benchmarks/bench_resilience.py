"""R1 — Blame-rank stability under injected telemetry faults.

For each paper workload (MiniMD, CLOMP, LULESH) the bench profiles a
clean run, then re-profiles under each fault class at a sweep of rates
and scores the degraded blame ranking against the clean one:

* ``top5_overlap``  — fraction of the clean top-5 variables that stay
  in the degraded top-5 (the "did the hotlist change" number);
* ``kendall_tau``   — pairwise rank agreement over shared rows;
* ``unknown_rate`` / ``quarantine_rate`` — how much telemetry ended up
  explicitly unattributable rather than silently misattributed;
* ``recovered``     — call paths repaired by suffix-match / symbol-
  table recovery.

Everything is deterministic (fixed injection seed), so the recorded
numbers are exactly reproducible.  Results are written to
``BENCH_resilience.json`` at the repository root.

Run directly (``python benchmarks/bench_resilience.py [--quick]``) or
via pytest (``pytest -m resilience``); the pytest smoke asserts the
headline robustness claim — at a 10 % fault rate every class keeps
top-5 overlap ≥ 0.8 on every workload.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro.bench.programs import clomp, lulesh, minimd
from repro.resilience import FAULT_CLASSES, FaultPlan, compare_reports
from repro.run_config import RunConfig
from repro.tooling.profiler import Profiler

NUM_THREADS = 12
THRESHOLD = 4999
SEED = 7
RESULT_PATH = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_resilience.json"
)

WORKLOADS = {
    "minimd": ("minimd.chpl", lambda: minimd.build_source(), minimd.config_for),
    "clomp": ("clomp.chpl", lambda: clomp.build_source(), clomp.config_for),
    "lulesh": ("lulesh.chpl", lambda: lulesh.build_source(), lulesh.config_for),
}

RATES = (0.05, 0.10, 0.20, 0.30)
QUICK_RATES = (0.10,)


def _profile(source, filename, config, faults=None):
    run = RunConfig(
        config=config, num_threads=NUM_THREADS, threshold=THRESHOLD,
        faults=faults,
    )
    return Profiler(source, run, filename=filename).profile()


def sweep_workload(name: str, rates=RATES) -> dict:
    """Clean profile once, then every (fault, rate) cell against it."""
    filename, build, config_for = WORKLOADS[name]
    source = build()
    config = config_for()
    clean = _profile(source, filename, config)
    points = []
    for fault in FAULT_CLASSES:
        for rate in rates:
            plan = FaultPlan(seed=SEED).with_rate(fault, rate)
            degraded = _profile(source, filename, config, faults=plan)
            points.append(
                compare_reports(fault, rate, clean.report, degraded.report)
            )
    return {
        "clean_user_samples": clean.report.stats.user_samples,
        "points": [p.as_dict() for p in points],
    }


def run_resilience_bench(quick: bool = False) -> dict:
    rates = QUICK_RATES if quick else RATES
    per_workload = {name: sweep_workload(name, rates) for name in WORKLOADS}
    results = {
        "config": {
            "num_threads": NUM_THREADS,
            "threshold": THRESHOLD,
            "seed": SEED,
            "rates": list(rates),
            "quick": quick,
        },
        "workloads": per_workload,
    }
    with open(os.path.abspath(RESULT_PATH), "w") as f:
        json.dump(results, f, indent=2)
        f.write("\n")
    return results


def render(results: dict) -> str:
    lines = ["blame-rank stability under injected faults"]
    for name, data in results["workloads"].items():
        lines.append(
            f"  {name} ({data['clean_user_samples']} clean user samples)"
        )
        for p in data["points"]:
            lines.append(
                f"    {p['fault']:9s} @{p['rate']:.2f}  "
                f"top5={p['top5_overlap']:.2f}  tau={p['kendall_tau']:+.2f}  "
                f"unknown={p['unknown_rate']:.3f}  "
                f"quarantine={p['quarantine_rate']:.3f}  "
                f"recovered={p['recovered']}"
            )
    return "\n".join(lines)


@pytest.mark.resilience
def test_rank_stability_at_ten_percent():
    """Headline robustness claim: every fault class at a 10 % rate
    completes on every workload and keeps the clean top-5 ranking
    (overlap ≥ 0.8); quarantine and unknown accounting never hides
    samples (rates are finite, counts non-negative)."""
    results = run_resilience_bench(quick=True)
    print("\n" + render(results))
    for name, data in results["workloads"].items():
        assert data["clean_user_samples"] > 0
        seen = set()
        for p in data["points"]:
            seen.add(p["fault"])
            assert p["completed"], f"{name}/{p['fault']} did not complete"
            if p["rate"] == 0.10:
                assert p["top5_overlap"] >= 0.8, (
                    f"{name}/{p['fault']}@0.10 top-5 overlap "
                    f"{p['top5_overlap']:.2f} < 0.8"
                )
            assert 0.0 <= p["unknown_rate"] <= 1.0
            assert 0.0 <= p["quarantine_rate"] <= 1.0
            assert p["recovered"] >= 0
        assert seen == set(FAULT_CLASSES)


if __name__ == "__main__":
    quick = "--quick" in sys.argv[1:]
    print(render(run_resilience_bench(quick=quick)))
