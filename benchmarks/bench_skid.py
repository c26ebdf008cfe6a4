"""Extension experiment — skid and skid compensation.

The paper: "Skid is an important factor that most sampling based
profilers need to take into account... We plan to add a skid
compensation feature in the future."  This bench implements that
future work and quantifies it: MiniMD's top blame rows under precise
sampling, skidded sampling (the IP lands k instructions late), and
skidded sampling with PEBS-style compensation.

Expected shape: blame degrades monotonically with skid (samples cross
statement boundaries and bleed into neighboring variables' blame
sets); compensation restores the precise profile exactly.
"""

from conftest import record_result, run_once

from repro.bench import harness
from repro.bench.programs import minimd
from dataclasses import replace

from repro.compiler.lower import compile_source
from repro.tooling.profiler import Profiler
from repro.views.tables import render_table

WATCH = ["Bins", "Pos", "RealPos", "Count"]


def measure():
    module = compile_source(
        minimd.build_source(optimized=False), "minimd.chpl"
    )
    out = {}
    for tag, skid, comp in [
        ("precise", 0, False),
        ("skid=4", 4, False),
        ("skid=16", 16, False),
        ("skid=16+comp", 16, True),
    ]:
        run = replace(
            harness.PROFILE_RUN, config=minimd.DEFAULT_CONFIG, skid=skid,
            skid_compensation=comp,
        )
        res = Profiler(module, run).profile()
        out[tag] = {name: res.report.blame_of(name) for name in WATCH}
    return out


def test_skid_study(benchmark, record):
    data = run_once(benchmark, measure)
    precise = data["precise"]

    # Precise profile has the expected MiniMD shape.
    assert precise["Bins"] > 0.5 and precise["Pos"] > 0.3

    # Skid keeps the top variables visible but perturbs the profile;
    # larger skid perturbs more (L1 distance over the watched rows).
    def dist(a):
        return sum(abs(a[n] - precise[n]) for n in WATCH)

    d4, d16 = dist(data["skid=4"]), dist(data["skid=16"])
    # Both skids perturb the profile (how much depends on where the IPs
    # land relative to statement boundaries — not monotone in general).
    assert d4 > 0.01 and d16 > 0.01
    assert data["skid=16"]["Bins"] > 0.2  # headline survives

    # Compensation recovers most of the precise attribution. (Not
    # bit-exact here: the monitor charges its stack-walk overhead at
    # delivery time, which nudges later overflow instants — see
    # tests/sampling/test_skid.py for the exact-recovery case with
    # overhead charging off.)
    dcomp = dist(data["skid=16+comp"])
    assert dcomp < d16
    assert dcomp < 0.05

    rows = [
        [tag] + [f"{100*vals[n]:.1f}%" for n in WATCH]
        for tag, vals in data.items()
    ]
    record(
        "skid_study",
        render_table(
            ["sampling", *WATCH],
            rows,
            title="Skid study (extension): MiniMD blame vs PMU skid",
        ),
    )
