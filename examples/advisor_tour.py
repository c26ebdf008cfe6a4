"""Tour of the blame-guided static advisor (paper §V workflow, but
static-first):

1. run the optimization-advisor passes over the original MiniMD source
   and print the findings — the paper's hand optimizations, recovered
   without running the program;
2. profile the same program and re-rank the findings by measured
   variable blame, so the advice that matters most comes first;
3. apply the optimized variant and show the findings disappear;
4. demo the forall race detector on a seeded racy loop.

Run:  python examples/advisor_tour.py
"""

from repro.analysis import analyze_module, rank_findings, render_findings
from repro.bench.programs import minimd
from repro.compiler.lower import compile_source
from repro.run_config import RunConfig
from repro.tooling.profiler import Profiler

RACY = """
var total: int;
proc main() {
  forall i in 1..100 {
    total = total + i;
  }
  writeln(total);
}
"""


def banner(title: str) -> None:
    print("=" * 72)
    print(title)
    print("=" * 72)


def main() -> None:
    banner("1) Static advice on the original MiniMD source")
    original = minimd.build_source(optimized=False)
    module = compile_source(original, "minimd.chpl")
    findings = analyze_module(module)
    print(render_findings(findings, title="minimd.chpl (original)"))

    print()
    banner("2) Blame-guided ranking: measured hotness reorders the advice")
    result = Profiler(
        original, RunConfig(num_threads=4, threshold=9973), filename="minimd.chpl"
    ).profile()
    ranked = rank_findings(findings, result.report)
    for f in ranked[:6]:
        pct = f"{f.blame_percent:5.1f}% blame" if f.blame is not None else "unmeasured"
        print(f"  {pct:14s} [{f.rule}] {f.where}  vars={','.join(f.variables)}")

    print()
    banner("3) After the paper's optimizations the advice disappears")
    optimized = compile_source(minimd.build_source(optimized=True), "minimd.chpl")
    print(render_findings(analyze_module(optimized), title="minimd.chpl (optimized)"))

    print()
    banner("4) The race detector flags an unprotected forall reduction")
    races = analyze_module(compile_source(RACY, "racy.chpl"), passes=["forall-race"])
    print(render_findings(races, title="racy.chpl"))


if __name__ == "__main__":
    main()
