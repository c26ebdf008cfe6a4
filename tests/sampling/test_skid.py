"""Skid simulation and compensation tests (paper §IV.B future work,
implemented here as an extension)."""

import pytest

from repro.run_config import RunConfig
from repro.tooling.profiler import Profiler

import sys, os
sys.path.insert(0, os.path.dirname(os.path.dirname(__file__)))
from conftest import compile_src

WORK = """
var A: [0..59] real;
var B: [0..59] real;
proc main() {
  forall i in 0..59 {
    A[i] = sqrt(i * 1.0) + i * 0.5;
    B[i] = A[i] * 2.0;
  }
}
"""


def profile(module, skid=0, compensation=False, tap=None):
    run = RunConfig(
        num_threads=4, threshold=311, skid=skid, skid_compensation=compensation
    )
    return Profiler(module, run).profile(tap=tap)


def raw_samples(module, skid=0, compensation=False):
    """Monitored run with overhead charging off, so sampling instants
    are identical across configurations (no timing feedback from the
    stack-walk cost)."""
    from repro.runtime.interpreter import Interpreter
    from repro.sampling.monitor import Monitor
    from repro.sampling.pmu import PMUConfig

    mon = Monitor(PMUConfig(threshold=311), charge_overhead=False)
    Interpreter(
        module, num_threads=4, monitor=mon, sample_threshold=311,
        skid=skid, skid_compensation=compensation,
    ).run()
    return mon.user_samples()


@pytest.fixture(scope="module")
def module():
    return compile_src(WORK)


class TestSkid:
    def test_skid_shifts_sample_ips(self, module):
        precise, skidded = [], []
        profile(module, tap=precise.extend)
        profile(module, skid=6, tap=skidded.extend)
        ips_precise = [s.leaf_iid for s in precise if not s.is_idle]
        ips_skidded = [s.leaf_iid for s in skidded if not s.is_idle]
        # Same count (every overflow still delivers)...
        assert abs(len(ips_precise) - len(ips_skidded)) <= 2
        # ...but the IPs drift (not identical streams).
        assert ips_precise != ips_skidded

    def test_compensation_restores_precise_stream(self, module):
        # With overhead charging off, sampling instants coincide, and
        # compensation must reproduce the zero-skid stream exactly —
        # per thread (delayed delivery reorders the *global* log).
        def per_thread(samples):
            out = {}
            for s in samples:
                out.setdefault(s.thread_id, []).append((s.leaf_iid, s.stack))
            return out

        a = per_thread(raw_samples(module))
        b = per_thread(raw_samples(module, skid=6, compensation=True))
        assert a == b

    def test_skid_hurts_attribution_compensation_restores_it(self, module):
        """The reason the paper wants skid compensation: skid crosses
        statement boundaries in tight loops and bleeds blame away."""
        precise = profile(module)
        skidded = profile(module, skid=6)
        comp = profile(module, skid=6, compensation=True)
        a_precise = precise.report.blame_of("A")
        assert a_precise > 0.3
        # Skid degrades the attribution (still nonzero)...
        assert 0.0 < skidded.report.blame_of("A") < a_precise
        # ...and compensation recovers most of it.
        assert comp.report.blame_of("A") > 0.8 * a_precise

    def test_compensated_blame_equals_precise(self, module):
        precise = profile(module)
        comp = profile(module, skid=6, compensation=True)
        for name in ("A", "B"):
            assert comp.report.blame_of(name) == pytest.approx(
                precise.report.blame_of(name)
            )

    def test_zero_skid_is_default_path(self, module):
        a = profile(module)
        b = profile(module, skid=0, compensation=True)  # no-op pairing
        assert a.monitor.n_samples == b.monitor.n_samples
