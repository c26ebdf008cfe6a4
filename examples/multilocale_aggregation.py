"""Multi-locale profiling and aggregation (paper step 4 / future work).

The program partitions its iteration space by locale (SPMD-style, the
way Chapel block distributions place work); each simulated locale is
profiled independently — "embarrassingly parallel", as the paper notes
for its step 3 — and the per-locale blame reports merge into one
program-wide report. An HTML report of locale 0 is also written.

Run:  python examples/multilocale_aggregation.py
"""

from repro.run_config import RunConfig
from repro.tooling.multilocale import profile_locales
from repro.views import render_data_centric
from repro.views.html import write_html_report

SOURCE = """
config const localeId: int = 0;
config const numLocales: int = 1;
config const n: int = 160;

var chunkSize = n / numLocales;
var lo = localeId * chunkSize;
var hi = lo + chunkSize - 1;
var field0: [0..n-1] real;
var flux: [0..n-1] real;

proc relax() {
  forall i in lo..hi {
    flux[i] = sqrt(field0[i] + i * 1.0) * 0.5;
    field0[i] = field0[i] * 0.9 + flux[i];
  }
}

proc main() {
  for t in 1..4 { relax(); }
  writeln("locale", localeId, "done");
}
"""


def main() -> None:
    result = profile_locales(
        SOURCE, num_locales=4, run=RunConfig(num_threads=4, threshold=1013)
    )

    for res in result.per_locale:
        rep = res.report
        print(
            f"locale {rep.locale_id}: {rep.stats.user_samples} samples, "
            f"top = {rep.rows[0].name} ({100*rep.rows[0].blame:.0f}%)"
        )

    print()
    print("merged program-wide report:")
    print(render_data_centric(result.merged, top=8, min_blame=0.02))

    path = write_html_report("multilocale_report.html", result.per_locale[0])
    print(f"\n[HTML report for locale 0: {path}]")


if __name__ == "__main__":
    main()
