"""The paper's §V.C LULESH study:

* the code-centric baseline is unreadable (Fig. 4);
* the blame view names the hourglass-force variables (Table VI);
* guided by them, apply P1 (param unrolling), VG (variable
  globalization), and CENN (tuple-temporary elimination) — Table IX.

Run:  python examples/lulesh_optimization_study.py
"""

from repro.baselines.pprof import render_pprof
from repro.bench import harness
from repro.bench.programs import lulesh
from repro.views import render_data_centric


def main() -> None:
    print("=" * 72)
    print("What a code-centric profiler shows for LULESH (paper Fig. 4)")
    print("=" * 72)
    samples = []
    prof = harness.lulesh_profile(tap=samples.extend)
    print(render_pprof(samples, binary_name="lulesh", top=8))
    print()
    print(
        "__sched_yield and forall_fn_chplN frames dominate; nothing names\n"
        "a user-level variable or loop."
    )

    print()
    print("=" * 72)
    print("The blame view of the SAME samples (paper Table VI)")
    print("=" * 72)
    print(render_data_centric(prof.report, top=14, min_blame=0.02))
    print()
    print(
        "hgfx/hgfy/hgfz, hourgam and hourmod* point into the hourglass\n"
        "block (Fig. 5); determ/dvdx expose the per-call allocations;\n"
        "b_x exposes the tuple churn in CalcElemNodeNormals."
    )

    print()
    print("=" * 72)
    print("Applying the three optimizations (paper Table IX)")
    print("=" * 72)
    data = harness.lulesh_table_ix()
    paper = {"Original": 1.00, "P 1": 1.07, "VG": 1.25, "CENN": 1.08, "Best Case": 1.38}
    print(f"{'variant':<12} {'time(s)':>10} {'speedup':>8} {'paper':>6}")
    for tag in ("Original", "P 1", "VG", "CENN", "Best Case"):
        d = data[tag]
        print(f"{tag:<12} {d['time']:>10.4f} {d['speedup']:>8.2f} {paper[tag]:>6.2f}")


if __name__ == "__main__":
    main()
