"""E6 — Paper Fig. 4: pprof-style code-centric profile of LULESH.

The paper's output is dominated by runtime noise: ``__sched_yield``
79 % at the top, compiler-generated ``coforall_fn_chplNN`` functions
mixed in, and the only recognizable user function
(CalcElemNodeNormals) at 0.9 % — "the output is a bit confusing".

Reproduced shape: the same three failure modes — a large
``__sched_yield`` entry, outlined ``forall_fn_chplN`` frames that hide
which user loop the time belongs to, and user functions far down the
list — versus the blame view of the very same samples (E7).
"""

from conftest import record_result, run_once

from repro.baselines.pprof import build_pprof_profile, render_pprof
from repro.bench import harness


def profile():
    """LULESH's raw sample stream, collected through the profiler's tap."""
    samples = []
    harness.lulesh_profile(tap=samples.extend)
    return samples


def test_fig4_pprof_output(benchmark, record):
    samples = run_once(benchmark, profile)
    rows = build_pprof_profile(samples)
    total = len(samples)
    by_name = {r.function: r for r in rows}

    # __sched_yield is a top entry with a large share (paper: 79 %).
    sched = by_name.get("__sched_yield")
    assert sched is not None
    assert sched.flat / total > 0.15
    assert rows.index(sched) < 3

    # Compiler-generated outlined frames pollute the listing.
    outlined = [r for r in rows if r.function.startswith("forall_fn_chpl")]
    assert outlined
    assert sum(r.flat for r in outlined) / total > 0.2

    # The stacks are NOT glued: no outlined frame resolves to its
    # source loop in this view (that's the paper's complaint).
    names = {r.function for r in rows[:6]}
    assert any(n.startswith("forall_fn_chpl") or n == "__sched_yield" for n in names)

    record(
        "fig4_pprof_lulesh",
        render_pprof(samples, binary_name="lulesh", top=10)
        + "\n(paper Fig. 4: __sched_yield 79.0%, coforall_fn_chpl22 5.3%, "
        "CalcElemNodeNormals_chpl 0.9%)",
    )
