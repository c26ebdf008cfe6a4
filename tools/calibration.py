"""Calibration report: prints the measured numbers for every paper
table so cost-model changes can be evaluated at a glance.

Run:  python tools/calibration.py [--quick]
"""

from __future__ import annotations

import argparse
import time

from repro.bench import harness
from repro.bench.programs import clomp, lulesh, minimd
from repro.baselines.hpctk import HpctkAttributor
from repro.baselines.pprof import build_pprof_profile


def section(title: str) -> None:
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--skip", nargs="*", default=[])
    args = ap.parse_args()
    t0 = time.time()

    if "t3" not in args.skip:
        section("Table III: MiniMD speedup (paper: 2.26 w/o fast, 2.56 w/ fast)")
        r = harness.minimd_speedups()
        print(f"w/o fast: {r.speedup('opt', 'orig'):.2f}   "
              f"w/ fast: {r.speedup('opt/fast', 'orig/fast'):.2f}")
        print({k: f"{v.seconds:.4f}" for k, v in r.rows.items()})

    if "t2" not in args.skip:
        section("Table II: MiniMD blame (paper: Pos 96.3, Bins 84.2, RealCount/RealPos 80.8, Count 54.9, binSpace 49.4)")
        prof = harness.minimd_profile(optimized=False)
        for name in ["Pos", "Bins", "RealCount", "RealPos", "Count", "binSpace"]:
            print(f"  {name:10s} {100*prof.report.blame_of(name):6.1f}%")
        print(f"  samples: {prof.postmortem.n_user}")

    if "t5" not in args.skip:
        section("Table V: CLOMP speedups (paper w/o fast: 1.84, 1.09, 2.13, 1.10; w/ fast: 2.59, 2.40, 2.65, 1.96)")
        for label, parts, zones, r in harness.clomp_table_v():
            print(f"  {label:12s} (ours {parts}/{zones}): "
                  f"w/o {r.speedup('opt', 'orig'):.2f}  w/ {r.speedup('opt/fast', 'orig/fast'):.2f}")

    if "t4" not in args.skip:
        section("Table IV: CLOMP blame (paper: partArray 99.5, zone value 99.0, residue 12.3, remaining_deposit 11.8)")
        prof = harness.clomp_profile(optimized=False)
        for name in ["partArray", "->partArray[i]", "->partArray[i].zoneArray[j]",
                     "->partArray[i].zoneArray[j].value", "->partArray[i].residue",
                     "remaining_deposit"]:
            print(f"  {name:36s} {100*prof.report.blame_of(name):6.1f}%")

    if "t7" not in args.skip:
        section("Table VII: LULESH unrolling (paper: Orig 1.00, 0p 1.04, P1 1.07, P2 0.96, P3 1.06, P1+P2 0.99, P1+P3 1.05, P2+P3 0.99, P1+U2 1.03, P1+U3 1.01, P1+U2+U3 0.98)")
        for tag, t, sp in harness.lulesh_table_vii():
            print(f"  {tag:10s} {t:.4f}s  {sp:.2f}")

    if "t9" not in args.skip:
        section("Table IX: LULESH (paper w/o fast: Best 1.38, VG 1.25, P1 1.07, CENN 1.08; w/ fast: 1.47, 1.39, 1.04, 1.02)")
        for tag, d in harness.lulesh_table_ix().items():
            print(f"  {tag:10s} {d['time']:.4f}s {d['speedup']:.2f}   "
                  f"fast: {d['time_fast']:.4f}s {d['speedup_fast']:.2f}")

    if "t6" not in args.skip:
        section("Table VI: LULESH blame (paper: hgf* ~30, sh*/h* ~27, hourgam 25, determ 15.7, b_x 9.7, dvdx 8.3, hourmod* ~5)")
        samples = []
        prof = harness.lulesh_profile(tap=samples.extend)
        for name in ["hgfx", "hgfy", "hgfz", "shx", "hx", "hourgam", "determ",
                     "b_x", "dvdx", "hourmodx"]:
            print(f"  {name:10s} {100*prof.report.blame_of(name):6.1f}%")
        section("Fig 4: pprof LULESH (paper: __sched_yield 79%, coforall_fn top)")
        rows = build_pprof_profile(samples)
        total = len(samples)
        for r in rows[:6]:
            print(f"  {r.flat:6d} {100*r.flat/total:5.1f}%  {r.function}")

    if "unknown" not in args.skip:
        section("Unknown data (paper: CLOMP 96.88%, LULESH 95.1%)")
        for name, profile in [("CLOMP", harness.clomp_profile),
                              ("LULESH", harness.lulesh_profile)]:
            samples = []
            prof = profile(tap=samples.extend)
            att = HpctkAttributor(prof.module, prof.interpreter)
            res = att.attribute(samples)
            print(f"  {name}: {100*res.unknown_fraction:.2f}% unknown "
                  f"({res.total} samples)")

    print(f"\n[total {time.time()-t0:.1f}s]")


if __name__ == "__main__":
    main()
