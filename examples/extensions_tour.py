"""Tour of the reproduction's extensions beyond the paper:

1. user-defined serial iterators (`iter`/`yield`, paper future work);
2. PMU skid + PEBS-style compensation (paper future work);
3. saving raw samples and re-analyzing them offline (the real tool's
   two-process step-2 → step-3 hand-off);
4. ablation switches on the blame mechanisms.

Run:  python examples/extensions_tour.py
"""

import os
import tempfile
from dataclasses import replace

from repro.blame.options import FULL
from repro.compiler.lower import compile_source
from repro.run_config import RunConfig
from repro.sampling.dataset import DatasetHeader, DatasetJournal, source_digest
from repro.tooling.analyze import analyze_dataset
from repro.tooling.profiler import Profiler
from repro.views import render_data_centric

SOURCE = """
// A histogramming kernel driven by a user-defined iterator.
config const n: int = 300;
var samples: [0..n-1] real;
var histogram: [0..9] int;

iter bucketed(lo: int, hi: int): int {
  for i in lo..hi {
    var b = toInt(samples[i] * 10.0) % 10;
    yield b;
  }
}

proc main() {
  forall i in 0..n-1 {
    samples[i] = fmod(sin(i * 0.37) * 0.5 + 0.5, 1.0);
  }
  for b in bucketed(0, n - 1) {
    histogram[b] += 1;
  }
  writeln("histogram", histogram);
}
"""


def main() -> None:
    module = compile_source(SOURCE, "hist.chpl", fresh_ids=True)

    print("=" * 72)
    print("1) Iterators: blame attributes the iterator's work in main")
    print("=" * 72)
    samples = []
    run = RunConfig(num_threads=8, threshold=809)
    res = Profiler(module, run).profile(tap=samples.extend)
    print(render_data_centric(res.report, top=8, min_blame=0.02))

    print()
    print("=" * 72)
    print("2) Skid: attribution under a sloppy PMU, then compensated")
    print("=" * 72)
    for tag, kw in [
        ("precise", {}),
        ("skid=12", {"skid": 12}),
        ("skid=12 + compensation", {"skid": 12, "skid_compensation": True}),
    ]:
        r = Profiler(module, replace(run, **kw)).profile()
        print(
            f"  {tag:24s} histogram={100*r.report.blame_of('histogram'):5.1f}%  "
            f"samples(var)={100*r.report.blame_of('samples'):5.1f}%"
        )

    print()
    print("=" * 72)
    print("3) Offline analysis: save the dataset, analyze elsewhere")
    print("=" * 72)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.jsonl")
        header = DatasetHeader(
            program="hist.chpl",
            source_sha256=source_digest(SOURCE),
            threshold=809,
            num_threads=8,
        )
        with DatasetJournal(path, header) as journal:
            journal.extend(samples)
        print(f"  saved {res.monitor.n_samples} samples "
              f"({os.path.getsize(path)} bytes)")
        _module, _pm, report = analyze_dataset(path, SOURCE, "hist.chpl")
        print(
            f"  offline blame(histogram) = "
            f"{100*report.blame_of('histogram'):.1f}%  "
            f"(online: {100*res.report.blame_of('histogram'):.1f}%)"
        )

    print()
    print("=" * 72)
    print("4) Ablations: turn mechanisms off and watch rows vanish")
    print("=" * 72)
    for tag, opts in [
        ("full", None),
        ("no implicit iterable", FULL.without(implicit_iterable=False)),
        ("no implicit control", FULL.without(implicit_control=False)),
    ]:
        r = Profiler(module, replace(run, blame_options=opts)).profile()
        print(
            f"  {tag:22s} samples(var)={100*r.report.blame_of('samples'):5.1f}%  "
            f"histogram={100*r.report.blame_of('histogram'):5.1f}%"
        )


if __name__ == "__main__":
    main()
