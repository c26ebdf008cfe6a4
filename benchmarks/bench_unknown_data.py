"""E12 — Paper §II.B: the HPCToolkit-style baseline leaves almost all
Chapel samples as "unknown data" (CLOMP 96.88 %, LULESH 95.1 %), which
is the motivation for variable blame.

The baseline attributes a sample only when the leaf instruction plainly
indexes a tracked (>4 KB heap) global array; Chapel's nested classes,
tuple locals, and view indirections all defeat it.  The same samples,
fed to the blame tool, attribute the hot variables instead.
"""

from conftest import record_result, run_once

from repro.baselines.hpctk import HpctkAttributor
from repro.bench import harness
from repro.views.tables import render_table


def measure():
    out = {}
    # Sizes chosen so the programs do own >4KB arrays — the baseline
    # gets its fair chance and still loses almost everything.
    clomp_samples, lulesh_samples = [], []
    clomp_res = harness.clomp_profile(
        optimized=False, num_parts=640, zones_per_part=6, timesteps=1,
        tap=clomp_samples.extend,
    )
    lulesh_res = harness.lulesh_profile(
        edge_elems=5, max_steps=2, tap=lulesh_samples.extend
    )
    for name, res, samples in (
        ("CLOMP", clomp_res, clomp_samples),
        ("LULESH", lulesh_res, lulesh_samples),
    ):
        att = HpctkAttributor(res.module, res.interpreter)
        out[name] = (res, att.attribute(samples))
    return out


def test_unknown_data(benchmark, record):
    results = run_once(benchmark, measure)

    rows = []
    paper = {"CLOMP": 96.88, "LULESH": 95.1}
    for name, (res, att) in results.items():
        unknown = att.unknown_fraction
        # The paper's critique: the overwhelming majority is unknown.
        assert unknown > 0.85, (name, unknown)
        # ... while the blame tool names the top variable decisively.
        top = res.report.rows[0]
        assert top.blame > 0.5
        rows.append(
            [name, f"{100*unknown:.2f}%", f"{paper[name]:.2f}%",
             f"{top.name} ({100*top.blame:.0f}%)"]
        )

    record(
        "unknown_data",
        render_table(
            ["Benchmark", "Unknown (measured)", "Unknown (paper)",
             "Blame tool's top variable"],
            rows,
            title="§II.B — HPCToolkit-style attribution vs variable blame",
        ),
    )
