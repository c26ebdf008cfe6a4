"""Three profilers, one sample stream (the paper's §II argument):

* pprof-style code-centric — functions only, unglued stacks;
* HPCToolkit-style data-centric — allocation tracking, which leaves
  Chapel programs ~95 % "unknown data" (paper §II.B);
* variable blame — this paper's contribution.

Run:  python examples/compare_profilers.py
"""

from repro.baselines.hpctk import HpctkAttributor, render_hpctk
from repro.baselines.pprof import render_pprof
from repro import Profiler, RunConfig
from repro.views import render_data_centric

SOURCE = """
// Nested dynamic structures, CLOMP-style: the case allocation-based
// data-centric tools cannot attribute.
record Cell { var value: real; }
class Row { var sum: real; var cells: [?] Cell; }
config const rows: int = 48;
config const cols: int = 24;
var table: [0..rows-1] Row;

proc updateRow(r: Row, dep: real) {
  var carry = dep;
  for j in 0..cols-1 {
    r.cells[j].value = r.cells[j].value * 0.5 + carry;
    carry = carry * 0.9;
  }
  r.sum = r.sum + carry;
}

proc main() {
  for i in 0..rows-1 {
    var cs: [0..cols-1] Cell;
    table[i] = new Row(0.0, cs);
  }
  for t in 1..6 {
    forall i in 0..rows-1 {
      updateRow(table[i], 1.0 / t);
    }
  }
  writeln("checksum:", table[0].sum);
}
"""


def main() -> None:
    # The baselines read the raw sample stream; the tap collects it.
    samples = []
    result = Profiler(
        SOURCE, RunConfig(num_threads=8, threshold=1009), filename="nested.chpl"
    ).profile(tap=samples.extend)

    print("=" * 72)
    print("1) pprof-style code-centric (raw stacks)")
    print("=" * 72)
    print(render_pprof(samples, binary_name="nested", top=8))

    print()
    print("=" * 72)
    print("2) HPCToolkit-style data-centric (allocation tracking)")
    print("=" * 72)
    att = HpctkAttributor(result.module, result.interpreter)
    hp = att.attribute(samples)
    print(render_hpctk(hp, "nested.chpl"))
    print()
    print(
        f"-> {100*hp.unknown_fraction:.1f}% of samples are 'unknown data'\n"
        "   (the class-field chains defeat allocation tracking; the paper\n"
        "   reports 96.88% for CLOMP and 95.1% for LULESH)."
    )

    print()
    print("=" * 72)
    print("3) Variable blame (this paper)")
    print("=" * 72)
    print(render_data_centric(result.report, top=10, min_blame=0.02))
    print()
    top = result.report.rows[0]
    print(
        f"-> blame names {top.name} ({100*top.blame:.0f}%) with its full\n"
        "   field hierarchy, from the same samples."
    )


if __name__ == "__main__":
    main()
