"""I1 — Irregular workloads: the communication advisor fires and ranks.

For the two sparse/irregular workloads (COO SpMV and sparse MTTKRP)
the bench runs the full loop the communication advisor is built for:

* **fire/quiet** — the three communication passes
  (``remote-access-batching``, ``aggregation-candidate``,
  ``indirection-hoist``) fire on the edge-parallel originals and are
  silent on the hand-optimized (inspector-executor / CSR) rewrites —
  and on the dense SpMV baseline, which has no indirection at all;
* **blame join** — a measured profile attributes more blame to the
  indirection arrays (``row``/``col``, the ``mode*`` index arrays) in
  the sparse original than the dense baseline gives them, and the
  ranker attaches a nonzero blame share to the batching advice
  (gated: the advice points at variables the profile actually blames);
* **locality census** — the static classification (LOCAL / REMOTE /
  INDIRECT counts per variant) is recorded; the optimized variants
  must contain zero INDIRECT accesses *inside parallel bodies* other
  than their pure-gather loops.

``n`` is a multiple of the worker count so edge chunks align to
row/slice boundaries: the scatter originals stay deterministic and
every variant prints identical checksums (asserted here).

Everything is deterministic (virtual-clock sampling).  Results land in
``BENCH_irregular.json`` at the repository root.  Run directly
(``python benchmarks/bench_irregular_advisor.py [--quick]``) or via
pytest (``pytest -m irregular benchmarks``); ``--quick`` measures SpMV
only.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro.analysis import AnalysisContext, analyze_module, rank_findings
from repro.bench.harness import host_info
from repro.bench.programs import mttkrp, spmv
from repro.compiler.lower import compile_source
from repro.run_config import RunConfig
from repro.runtime.interpreter import Interpreter
from repro.tooling.profiler import Profiler

NUM_THREADS = 8
THRESHOLD = 997
RESULT_PATH = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_irregular.json"
)

COMM_RULES = (
    "remote-access-batching",
    "aggregation-candidate",
    "indirection-hoist",
)

#: name -> (module, variants, expected rules on the original,
#:          indirection arrays, profiling config).
WORKLOADS = {
    "spmv": (
        spmv,
        ("original", "optimized", "dense"),
        ("remote-access-batching", "aggregation-candidate"),
        ("row", "col"),
        lambda: spmv.config_for(iters=6),
    ),
    "mttkrp": (
        mttkrp,
        ("original", "optimized"),
        COMM_RULES,
        ("mode1", "mode2", "mode3"),
        lambda: mttkrp.config_for(iters=4),
    ),
}

QUICK_WORKLOADS = ("spmv",)


def _comm_findings(module):
    return [f for f in analyze_module(module) if f.rule in COMM_RULES]


def _locality_census(module) -> dict[str, int]:
    counts = {"local": 0, "remote": 0, "indirect": 0}
    for acc in AnalysisContext(module).locality().accesses.values():
        counts[acc.locality.value] += 1
    return counts


def measure_workload(name: str) -> dict:
    prog, variants, expected_rules, index_arrays, config_for = WORKLOADS[name]
    config = config_for()
    out: dict = {
        "num_threads": NUM_THREADS,
        "threshold": THRESHOLD,
        "config": config,
        "variants": {},
    }
    outputs: dict[str, list[str]] = {}
    reports = {}
    findings_by_variant = {}
    for variant in variants:
        source = prog.build_source(variant)
        module = compile_source(source, f"{name}.chpl")
        findings = _comm_findings(module)
        findings_by_variant[variant] = findings
        run = Interpreter(
            module, config=config, num_threads=NUM_THREADS
        ).run()
        outputs[variant] = run.output
        prof = Profiler(
            source,
            RunConfig(config=config, num_threads=NUM_THREADS, threshold=THRESHOLD),
            filename=f"{name}.chpl",
        ).profile()
        reports[variant] = prof.report
        out["variants"][variant] = {
            "rules_fired": sorted({f.rule for f in findings}),
            "findings": len(findings),
            "locality": _locality_census(module),
            "wall_seconds": prof.report.stats.wall_seconds,
            "user_samples": prof.report.stats.user_samples,
            "indirection_blame": _indirection_share(
                reports[variant], index_arrays
            ),
        }

    # The blame join: rank the original's findings against its own
    # profile and record the batching advice's blame share.
    ranked = rank_findings(
        findings_by_variant["original"], reports["original"]
    )
    batching_blame = max(
        (
            f.blame or 0.0
            for f in ranked
            if f.rule == "remote-access-batching"
        ),
        default=0.0,
    )
    out["batching_advice_blame"] = batching_blame
    out["outputs_identical"] = len({tuple(o) for o in outputs.values()}) == 1
    out["expected_rules"] = sorted(expected_rules)
    out["index_arrays"] = list(index_arrays)
    return out


def _indirection_share(report, index_arrays) -> float:
    return sum(report.blame_of(a) for a in index_arrays)


def run_irregular_bench(quick: bool = False) -> dict:
    names = QUICK_WORKLOADS if quick else tuple(WORKLOADS)
    results = {
        "config": {
            "num_threads": NUM_THREADS,
            "threshold": THRESHOLD,
            "gates": {
                "originals_fire_expected_rules": True,
                "optimized_and_dense_quiet": True,
                "outputs_identical": True,
                "indirection_blame_above_dense": True,
                "batching_advice_blame_positive": True,
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
    lines = ["communication advisor on irregular workloads"]
    for name, r in results["workloads"].items():
        for variant, v in r["variants"].items():
            loc = v["locality"]
            lines.append(
                f"  {name}:{variant:9s} rules={','.join(v['rules_fired']) or '-':60s} "
                f"blame({'+'.join(r['index_arrays'])})={100 * v['indirection_blame']:5.1f}%  "
                f"L/R/I={loc['local']}/{loc['remote']}/{loc['indirect']}"
            )
        lines.append(
            f"  {name}: batching advice blame "
            f"{100 * r['batching_advice_blame']:.1f}%, outputs identical: "
            f"{r['outputs_identical']}"
        )
    return "\n".join(lines)


def check_gates(results: dict) -> None:
    for name, r in results["workloads"].items():
        v = r["variants"]
        fired = set(v["original"]["rules_fired"])
        assert fired == set(r["expected_rules"]), (
            f"{name} original fired {sorted(fired)}, "
            f"expected {r['expected_rules']}"
        )
        for variant, data in v.items():
            if variant == "original":
                continue
            assert data["findings"] == 0, (
                f"{name}:{variant} should be quiet, "
                f"fired {data['rules_fired']}"
            )
        assert r["outputs_identical"], f"{name}: variant outputs differ"
        assert r["batching_advice_blame"] > 0.0, (
            f"{name}: ranker attached no blame to the batching advice"
        )
        if "dense" in v:
            assert (
                v["original"]["indirection_blame"]
                >= v["dense"]["indirection_blame"]
            ), (
                f"{name}: original blames the indirection arrays "
                f"{100 * v['original']['indirection_blame']:.1f}%, below the "
                f"dense baseline's "
                f"{100 * v['dense']['indirection_blame']:.1f}%"
            )


@pytest.mark.irregular
def test_irregular_advisor_quick():
    """CI smoke: SpMV fires/goes quiet as designed and the blame join
    ranks the batching advice above zero."""
    results = run_irregular_bench(quick=True)
    print("\n" + render(results))
    check_gates(results)


if __name__ == "__main__":
    quick = "--quick" in sys.argv[1:]
    results = run_irregular_bench(quick=quick)
    print(render(results))
    check_gates(results)
    print("all gates passed")
