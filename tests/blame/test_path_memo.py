"""The post-mortem path memo is transparent.

:class:`PostmortemConsumer` consolidates each distinct call path once
and reuses that outcome for every later sample of the path.  A consumer
that forgets every path before each sample consolidates each sample
from scratch.  On MiniMD and CLOMP streams degraded by each fault class
alone and by all five at once, both must return the same result, fed
in one batch or in small batches.  A
small program whose forall body is spawned from two call sites covers
recovery through the spawn-tag index.
"""

from __future__ import annotations

import pytest

from repro.bench.programs import clomp, minimd
from repro.blame.postmortem import PostmortemConsumer
from repro.resilience.faults import FAULT_CLASSES, FaultPlan
from repro.resilience.inject import FaultInjector
from repro.run_config import RunConfig
from repro.tooling.profiler import Profiler

#: One small forall body spawned from two call sites, every time step:
#: its pre-spawn continuation is ambiguous, so a walk cut inside the
#: body glues back only through the spawn-tag index.  Later time steps
#: repeat the first one's paths under new tags, so every sample of a
#: path, not just its first, must feed that index.
SHARED_KERNEL = """
config const steps = 8;
var A: [0..63] real;
var B: [0..63] real;
proc helper(x: real): real { return x * 0.5; }
proc kernel(ref X: [?] real) {
  forall i in 0..63 { X[i] += helper(i * 1.0); }
}
proc main() {
  for t in 1..steps { kernel(A); kernel(B); }
}
"""

PROGRAMS = {
    "minimd": (
        minimd.build_source(),
        minimd.config_for(num_bins=6, per_bin=4, steps=3),
    ),
    "clomp": (
        clomp.build_source(),
        clomp.config_for(num_parts=4, zones_per_part=6, timesteps=3),
    ),
    "shared_kernel": (SHARED_KERNEL, {}),
}

#: One plan per fault class, plus all five classes at once.
PLANS = {
    **{f: FaultPlan(seed=7).with_rate(f, 0.2) for f in FAULT_CLASSES},
    "mixed": FaultPlan(
        seed=7, drop_rate=0.1, corrupt_rate=0.1, truncate_rate=0.2,
        tag_loss_rate=0.2, strip_rate=0.2,
    ),
}

#: Batch size: one-shot, and small batches.
FEEDS = {"one-shot": None, "batched": 32}


class ForgetfulConsumer(PostmortemConsumer):
    """Feeds one sample at a time, clearing the path memo before each."""

    def feed(self, batch):
        for s in batch:
            self._paths.clear()
            super().feed([s])


@pytest.fixture(scope="module", params=sorted(PROGRAMS))
def clean_run(request):
    source, config = PROGRAMS[request.param]
    samples = []
    res = Profiler(
        source,
        RunConfig(config=config, num_threads=4, threshold=499),
        filename=f"{request.param}.chpl",
    ).profile(tap=samples.extend)
    return res.module, res.static_info.options, samples


def consume(cls, module, options, samples, batch):
    consumer = cls(module, options=options, tolerant=True)
    step = batch or len(samples)
    for k in range(0, len(samples), step):
        consumer.feed(samples[k:k + step])
    return consumer, consumer.finish()


def outcome(pm):
    return (
        pm.instances,
        pm.unknown,
        pm.quarantined,
        pm.n_runtime,
        pm.n_recovered,
        pm.n_raw,
    )


@pytest.mark.parametrize("feed", sorted(FEEDS))
@pytest.mark.parametrize("plan", sorted(PLANS))
def test_memo_matches_per_sample_consolidation(clean_run, plan, feed):
    module, options, clean = clean_run
    injector = FaultInjector(PLANS[plan], module=module)
    samples = injector.degrade_samples(clean)
    assert injector.stats.total_faults > 0

    memo, got = consume(PostmortemConsumer, module, options, samples, FEEDS[feed])
    _, want = consume(ForgetfulConsumer, module, options, samples, FEEDS[feed])
    assert outcome(got) == outcome(want)
    # The memo really is shared: fewer distinct paths than samples.
    assert len(memo._paths) < len(samples) // 2
