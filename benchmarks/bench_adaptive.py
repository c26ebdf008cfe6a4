"""A1 — Adaptive collection: samples saved at matched ranking quality.

For each paper workload the bench profiles the full run, then the same
configuration with confidence-driven early stopping
(:mod:`repro.sampling.adaptive`), and scores the adaptive blame ranking
against the full one:

* ``reduction``      — fraction of the full run's samples the adaptive
  run never collected (the headline number; gated at ≥ 0.40);
* ``top5_overlap``   — full-run top-5 retention (gated at 1.0);
* ``resolved_tau``   — Kendall-τ over the pairs the full profile
  actually resolves (blame gap ≥ 0.005; gated at ≥ 0.9).  The plain
  τ is recorded alongside: it also counts statistical ties such as
  LULESH's symmetric ``hgfx``/``hgfy``/``hgfz`` arrays, whose order is
  arbitrary in any finite run;
* the decision trail itself — rounds, stop reason, final CI half-width.

Per-workload overflow thresholds keep each outer timestep a modest
number of samples (the stopping rule's half-stream guard then protects
against settling inside the first, atypical timestep), and the CI
half-width target is tuned to where each workload's ranking is resolved
— both recorded in the JSON so the numbers are reproducible.

Everything is deterministic (the interpreter's virtual clock drives
sampling).  Results land in ``BENCH_adaptive.json`` at the repository
root.  Run directly (``python benchmarks/bench_adaptive.py [--quick]``)
or via pytest (``pytest -m adaptive benchmarks``); ``--quick`` measures
MiniMD only.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro.bench.harness import host_info
from repro.bench.programs import clomp, lulesh, minimd
from repro.blame.confidence import resolved_kendall_tau
from repro.resilience.stability import kendall_tau, top_n_overlap
from repro.run_config import AdaptiveConfig, RunConfig
from repro.tooling.profiler import Profiler

NUM_THREADS = 12
RESULT_PATH = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_adaptive.json"
)

#: name -> (filename, build, config, threshold, adaptive ci_width).
WORKLOADS = {
    "minimd": (
        "minimd.chpl",
        lambda: minimd.build_source(),
        lambda: minimd.config_for(steps=9),
        997,
        0.025,
    ),
    "clomp": (
        "clomp.chpl",
        lambda: clomp.build_source(),
        lambda: clomp.config_for(timesteps=30),
        4999,
        0.0125,
    ),
    "lulesh": (
        "lulesh.chpl",
        lambda: lulesh.build_source(),
        lambda: lulesh.config_for(max_steps=30),
        20011,
        0.01,
    ),
}

QUICK_WORKLOADS = ("minimd",)

#: Acceptance gates (ISSUE 7): adaptive must save >= 40 % of the
#: samples while keeping the full run's top-5 exactly and agreeing on
#: every resolved pair ordering.
MIN_REDUCTION = 0.40
MIN_RESOLVED_TAU = 0.9


def measure_workload(name: str) -> dict:
    filename, build, config_for, threshold, ci_width = WORKLOADS[name]
    source = build()
    config = config_for()

    def profiler(adaptive=None):
        run = RunConfig(
            config=config, num_threads=NUM_THREADS, threshold=threshold,
            batch_size=256, adaptive=adaptive,
        )
        return Profiler(source, run, filename=filename)

    full = profiler().profile()
    adaptive = profiler(AdaptiveConfig(ci_width=ci_width)).profile()
    trail = adaptive.adaptive
    full_samples = full.monitor.n_samples
    got = trail.samples_collected
    last = trail.rounds[-1] if trail.rounds else None
    return {
        "threshold": threshold,
        "ci_width": ci_width,
        "full_samples": full_samples,
        "adaptive_samples": got,
        "reduction": (full_samples - got) / full_samples if full_samples else 0.0,
        "stopped_early": trail.stopped_early,
        "stop_reason": trail.stop_reason,
        "rounds": len(trail.rounds),
        "final_half_width": last.max_half_width if last else None,
        "top5_overlap": top_n_overlap(full.report, adaptive.report, n=5),
        "kendall_tau": kendall_tau(full.report, adaptive.report),
        "resolved_tau": resolved_kendall_tau(full.report, adaptive.report),
    }


def run_adaptive_bench(quick: bool = False) -> dict:
    names = QUICK_WORKLOADS if quick else tuple(WORKLOADS)
    results = {
        "config": {
            "num_threads": NUM_THREADS,
            "round_samples": 256,
            "gates": {
                "min_reduction": MIN_REDUCTION,
                "top5_overlap": 1.0,
                "min_resolved_tau": MIN_RESOLVED_TAU,
            },
            "quick": quick,
        },
        "host": host_info(),
        "workloads": {name: measure_workload(name) for name in names},
    }
    with open(os.path.abspath(RESULT_PATH), "w") as f:
        json.dump(results, f, indent=2)
        f.write("\n")
    return results


def render(results: dict) -> str:
    lines = ["adaptive early stopping vs the full run"]
    for name, r in results["workloads"].items():
        lines.append(
            f"  {name:7s} {r['adaptive_samples']:6d}/{r['full_samples']:6d} "
            f"samples ({100 * r['reduction']:.1f}% saved, "
            f"{r['rounds']} rounds)  top5={r['top5_overlap']:.2f}  "
            f"tau={r['kendall_tau']:+.3f}  "
            f"resolved_tau={r['resolved_tau']:+.3f}"
        )
    return "\n".join(lines)


def check_gates(results: dict) -> None:
    for name, r in results["workloads"].items():
        assert r["stopped_early"], f"{name}: adaptive run never stopped early"
        assert r["reduction"] >= MIN_REDUCTION, (
            f"{name}: saved only {100 * r['reduction']:.1f}% of samples "
            f"(gate: {100 * MIN_REDUCTION:.0f}%)"
        )
        assert r["top5_overlap"] == 1.0, (
            f"{name}: adaptive top-5 overlap {r['top5_overlap']:.2f} != 1.0"
        )
        assert r["resolved_tau"] >= MIN_RESOLVED_TAU, (
            f"{name}: resolved tau {r['resolved_tau']:.3f} "
            f"< {MIN_RESOLVED_TAU}"
        )


@pytest.mark.adaptive
def test_adaptive_saves_samples_quick():
    """CI smoke: MiniMD stops early, saves >= 40 % of the samples, and
    keeps the full run's resolved ranking exactly."""
    results = run_adaptive_bench(quick=True)
    print("\n" + render(results))
    check_gates(results)


if __name__ == "__main__":
    quick = "--quick" in sys.argv[1:]
    results = run_adaptive_bench(quick=quick)
    print(render(results))
    check_gates(results)
    print("all gates passed")
