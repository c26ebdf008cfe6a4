"""Ablation study: what each blame mechanism contributes.

DESIGN.md calls for ablation benches over the design choices. Each run
disables exactly one mechanism and measures the effect on the paper's
signature results:

* alias tracking      → MiniMD's RealPos stops blaming Pos;
* descriptor writes + iterable blame → binSpace/Count drop to ~0;
* hierarchy           → CLOMP's ``->partArray[i].zoneArray[j].value``
                        rows disappear;
* stack gluing        → worker samples dead-end (blame collapses);
* interprocedural     → LULESH's b_x loses its caller-side context.
"""

from conftest import record_result, run_once

from dataclasses import replace

from repro.bench import harness
from repro.bench.programs import clomp, lulesh, minimd
from repro.blame.options import ABLATIONS, FULL
from repro.tooling.profiler import Profiler
from repro.views.tables import render_table


def _profile(source, name, config, options):
    run = replace(harness.PROFILE_RUN, config=config, blame_options=options)
    return Profiler(source, run, filename=name).profile()


def measure():
    out = {}
    mm_src = minimd.build_source(optimized=False)
    cl_src = clomp.build_source(optimized=False)
    ll_src = lulesh.build_source()
    for tag in (
        "full",
        "no-alias-tracking",
        "no-descriptor-writes",
        "no-implicit-iterable",
        "no-descriptor-no-iterable",
        "no-hierarchy",
        "no-stack-gluing",
        "no-interprocedural",
    ):
        opts = ABLATIONS[tag]
        mm = _profile(mm_src, "minimd.chpl", minimd.DEFAULT_CONFIG, opts)
        out.setdefault(tag, {})["minimd"] = mm.report
        if tag in ("full", "no-hierarchy", "no-interprocedural"):
            cl = _profile(cl_src, "clomp.chpl", clomp.DEFAULT_CONFIG, opts)
            out[tag]["clomp"] = cl.report
        if tag in ("full", "no-interprocedural", "no-stack-gluing"):
            ll = _profile(ll_src, "lulesh.chpl", lulesh.DEFAULT_CONFIG, opts)
            out[tag]["lulesh"] = ll.report
    return out


def test_ablations(benchmark, record):
    reports = run_once(benchmark, measure)
    full = reports["full"]

    # Alias tracking: writes through the RealCount view stop blaming
    # Count (the base array keeps only its direct ghost-row writes).
    no_alias = reports["no-alias-tracking"]["minimd"]
    assert full["minimd"].blame_of("Count") > 0.1
    assert no_alias.blame_of("Count") < full["minimd"].blame_of("Count") * 0.5

    # binSpace's blame comes from two mechanisms (descriptor writes and
    # loop-iterable blame); with both off it vanishes — it has no
    # source-level write at all.
    assert full["minimd"].blame_of("binSpace") > 0.02
    both_off = reports["no-descriptor-no-iterable"]["minimd"]
    assert both_off.blame_of("binSpace") < 0.02

    # Implicit iterable blame alone: Pos loses the loop-body share that
    # zippered iteration over its views earns it.
    no_iter = reports["no-implicit-iterable"]["minimd"]
    assert no_iter.blame_of("Pos") < full["minimd"].blame_of("Pos")

    # Hierarchy: the -> rows disappear from CLOMP.
    no_hier = reports["no-hierarchy"]["clomp"]
    assert full["clomp"].blame_of("->partArray[i].zoneArray[j].value") > 0.5
    assert no_hier.blame_of("->partArray[i].zoneArray[j].value") == 0.0
    assert no_hier.blame_of("partArray") > 0.5  # root rows survive

    # Stack gluing: LULESH worker samples dead-end; the denominator of
    # user samples collapses (most samples live in spawned tasks whose
    # unglued stacks still resolve, but globals-only bubbling is lost —
    # the glued run attributes strictly more variables).
    no_glue = reports["no-stack-gluing"]["lulesh"]
    assert len(no_glue.rows) <= len(full["lulesh"].rows)
    assert no_glue.blame_of("b_x") <= full["lulesh"].blame_of("b_x")

    # Interprocedural bubbling: b_x keeps only its leaf-frame share.
    no_inter = reports["no-interprocedural"]["lulesh"]
    assert no_inter.blame_of("b_x") < full["lulesh"].blame_of("b_x")

    rows = []
    for tag, reps in reports.items():
        mm = reps.get("minimd")
        rows.append(
            [
                tag,
                f"{100*mm.blame_of('Pos'):.1f}%" if mm else "-",
                f"{100*mm.blame_of('RealPos'):.1f}%" if mm else "-",
                f"{100*mm.blame_of('binSpace'):.1f}%" if mm else "-",
                (
                    f"{100*reps['clomp'].blame_of('->partArray[i].zoneArray[j].value'):.1f}%"
                    if "clomp" in reps
                    else "-"
                ),
                (
                    f"{100*reps['lulesh'].blame_of('b_x'):.1f}%"
                    if "lulesh" in reps
                    else "-"
                ),
            ]
        )
    record(
        "ablation",
        render_table(
            ["ablation", "Pos", "RealPos", "binSpace", "zone value", "b_x"],
            rows,
            title="Ablation study — each mechanism's signature result",
        ),
    )
