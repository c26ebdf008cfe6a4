"""The per-sample path equals the reference kept in
``reference_sampling.py``.

The product samples through calling-context stacks, tuple records and
one columnar instance store; the reference walks frames, builds one
frozen record and one :class:`RefInstance` per sample, attributes a
list of instances and encodes instance by instance.  Both must give
the same sealed streams and journals, post-mortem results (instances,
``<unknown>`` and quarantine provenance, counts), attribution rows,
adaptive trails and artifact bytes: on clean runs, under each fault
class and all five together, at batch sizes 1, 7 and 256, with skid,
and under ``--adaptive``, including a run it stops early.  The product
runs the fast engine and the reference the generic loop, so every
comparison also checks the engines against each other.

``reference_sampling.e2e_mismatches()`` runs the same comparison on the
benchmark inputs, and ``e2e_fault_mismatches()`` on their degraded
streams (CI ``sampling-identity``).
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from repro.artifact import artifact_bytes, merge_snapshots, read_artifact, snapshot_from_result
from repro.pipeline.stages import collect_stage, compile_stage
from repro.run_config import AdaptiveConfig, RunConfig
from repro.sampling.dataset import DatasetHeader, DatasetJournal
from repro.sampling.monitor import StopSampling
from repro.sampling.pmu import PMUConfig
from repro.sampling.records import RawSample
from repro.tooling.profiler import Profiler

from tests.artifact.conftest import benchmark_setup

from . import reference_sampling as ref

#: Worker tasks that spawn again, under two levels of calls: every
#: inner worker's pre-spawn stack is glued through the outer spawn.
NESTED = """
var D: domain(2) = {0..7, 0..7};
var M: [D] real;
proc cell(i: int, j: int): real { return i * j * 1.0 + sqrt(i + j + 1.0); }
proc row(i: int) {
  forall j in 0..7 { M[i, j] = cell(i, j); }
}
proc sweep() {
  forall i in 0..7 { row(i); }
}
proc main() { sweep(); sweep(); }
"""

#: One spec per fault class, and all five together.
FAULTS = {
    "drop": "drop=0.1,seed=3",
    "corrupt": "corrupt=0.1,seed=3",
    "truncate": "truncate=0.3:2,seed=3",
    "tagloss": "tagloss=0.3,seed=3",
    "strip": "strip=0.3,seed=3",
    "all": "drop=0.05,corrupt=0.05,truncate=0.2:2,tagloss=0.2,strip=0.2,seed=7",
}

THRESHOLD = 499
NUM_THREADS = 4

_MODULES: dict = {}


def program(name: str):
    """(module, config) of a test program, compiled once per session."""
    if name not in _MODULES:
        if name == "nested":
            _MODULES[name] = (compile_stage(NESTED, "nested.chpl"), {})
        else:
            source, filename, config = benchmark_setup(name)
            if name == "lulesh":
                from repro.bench.programs import lulesh

                config = lulesh.config_for(edge_elems=2, max_steps=1)
            _MODULES[name] = (compile_stage(source, filename), config)
    return _MODULES[name]


def run_config(name: str, **kwargs) -> RunConfig:
    module, config = program(name)
    kwargs.setdefault("threshold", THRESHOLD)
    return RunConfig(config=config, num_threads=NUM_THREADS, **kwargs)


def check(name: str, **kwargs) -> tuple[ref.Outcome, ref.Outcome]:
    module, _ = program(name)
    run = run_config(name, **kwargs)
    product = ref.product_profile(module, run)
    reference = ref.reference_profile(module, run)
    assert ref.compare(product, reference) == []
    return product, reference


PROGRAMS = ("minimd", "clomp", "lulesh", "nested")


class TestCleanRuns:
    @pytest.mark.parametrize("batch_size", (1, 7, 256))
    @pytest.mark.parametrize("name", PROGRAMS)
    def test_equal_to_the_reference(self, name, batch_size):
        product, _ = check(name, batch_size=batch_size)
        assert product.postmortem.n_user > 0

    def test_nested_workers_glue_through_the_outer_spawn(self):
        product, _ = check("nested")
        deep = [
            s for s in product.stream
            if s.pre_spawn_stack
            and sum(f.startswith("forall_fn") for f, _ in s.pre_spawn_stack) >= 1
        ]
        assert deep and all(s.pre_spawn_stack[-1][0] == "main" for s in deep)

    def test_retained_stream_equal_to_the_reference(self):
        module, config = program("nested")
        product = collect_stage(module, config=config, num_threads=NUM_THREADS, threshold=157)
        monitor = ref.RefMonitor(PMUConfig(threshold=157))
        ref.RefInterpreter(
            module, config=config, num_threads=NUM_THREADS, monitor=monitor,
            sample_threshold=157,
        ).run()
        assert product.monitor.sealed_stream() == monitor.sealed_stream()
        assert product.monitor.n_samples > 0

    @pytest.mark.parametrize("compensation", (False, True))
    def test_skid(self, compensation):
        check("clomp", skid=2, skid_compensation=compensation)

    def test_journals_byte_identical(self, tmp_path):
        product, reference = check("nested", batch_size=7)
        paths = []
        for side, outcome in (("product", product), ("reference", reference)):
            path = str(tmp_path / f"{side}.journal")
            journal = DatasetJournal(path, DatasetHeader("nested.chpl", None, THRESHOLD, 4))
            journal.extend(outcome.stream)
            journal.close()
            paths.append(path)
        with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
            assert a.read() == b.read()


class TestFaultInjection:
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    @pytest.mark.parametrize("name", PROGRAMS)
    def test_each_class_equal_to_the_reference(self, name, fault):
        check(name, faults=FAULTS[fault])

    @pytest.mark.parametrize("batch_size", (1, 7, 256))
    def test_all_five_at_each_batch_size(self, batch_size):
        product, _ = check("nested", faults=FAULTS["all"], batch_size=batch_size)
        pm = product.postmortem
        assert pm.n_recovered > 0 and pm.n_unknown > 0 and pm.quarantined


class TestAdaptive:
    def test_early_stop_equal_to_the_reference(self):
        product, _ = check(
            "minimd", threshold=997, batch_size=64,
            adaptive=AdaptiveConfig(ci_width=0.05, stability_window=2, min_rounds=3),
        )
        assert product.adaptive["stopped_early"]

    @pytest.mark.parametrize("faults", (None, FAULTS["all"]))
    def test_run_to_completion_equal_to_the_reference(self, faults):
        product, _ = check(
            "nested", batch_size=7, faults=faults,
            adaptive=AdaptiveConfig(ci_width=0.0001),
        )
        assert not product.adaptive["stopped_early"]

    def test_stop_leaves_the_stretch_written_back(self):
        # A sink raising mid-stretch ends the run with the stretch's
        # state written back and no instruction re-executed: the engines
        # agree on every count at the stop.
        from repro.runtime.interpreter import Interpreter
        from repro.sampling.monitor import Monitor

        module, config = program("clomp")
        ends = []
        for engine in ("fast", "generic"):
            def sink(batch):
                if monitor.n_accepted >= 300:
                    raise StopSampling("test", 1)

            monitor = Monitor(PMUConfig(threshold=193), sink=sink, batch_size=25)
            interp = Interpreter(
                module, config=config, num_threads=NUM_THREADS, monitor=monitor,
                sample_threshold=193, engine=engine,
            )
            with pytest.raises(StopSampling):
                interp.run()
            ends.append((
                ref._run_view(interp.build_run_result()),
                ref.sealed(monitor._batch),
                monitor.n_accepted,
            ))
        assert ends[0] == ends[1]

    def test_stop_while_a_stretch_delivers(self):
        # The sink raises on a user sample, delivered one per batch: most
        # come from inside a stretch of the fast engine.  The stop
        # propagates as itself (never as a step fault re-executed by the
        # generic handler), and the engines agree on every count there.
        import sys

        from repro.runtime.interpreter import Interpreter
        from repro.sampling.monitor import Monitor

        module, config = program("clomp")
        in_stretch = 0
        for stop_at in (1, 7, 60, 400):
            ends = []
            for engine in ("fast", "generic"):
                users = []

                def sink(batch):
                    nonlocal in_stretch
                    users.extend(s for s in batch if not s.is_idle)
                    if len(users) >= stop_at:
                        frames = {sys._getframe(k).f_code.co_name for k in range(1, 5)}
                        in_stretch += engine == "fast" and "run_quantum" in frames
                        raise StopSampling("test", 1)

                monitor = Monitor(PMUConfig(threshold=193), sink=sink, batch_size=1)
                interp = Interpreter(
                    module, config=config, num_threads=NUM_THREADS, monitor=monitor,
                    sample_threshold=193, engine=engine,
                )
                with pytest.raises(StopSampling):
                    interp.run()
                ends.append((ref._run_view(interp.build_run_result()), monitor.n_accepted))
            assert ends[0] == ends[1]
        assert in_stretch > 0


class TestArtifactEncoding:
    """The encoder's loop over columns equals the per-instance encoder
    on live, decoded and merged snapshots."""

    def _as_reference(self, snapshot):
        pm = snapshot.postmortem
        return dataclasses.replace(
            snapshot,
            postmortem=ref.RefSnapshotPostmortem(
                instances=[ref.RefInstance(*ref.instance_fields(i)) for i in pm.instances],
                n_raw=pm.n_raw,
                n_runtime=pm.n_runtime,
                n_recovered=pm.n_recovered,
                unknown_provenance=pm.unknown,
                quarantine_provenance=pm.quarantined,
            ),
        )

    def _snapshots(self, faults=None):
        module, config = program("nested")
        out = []
        for locale in (0, 1):
            run = run_config("nested", faults=faults, threshold=THRESHOLD + 2 * locale)
            result = Profiler(module, run).profile()
            out.append(snapshot_from_result(result, locale_id=locale, canonical_timings=True))
        return out

    @pytest.mark.parametrize("faults", (None, FAULTS["all"]))
    def test_merged(self, faults):
        # Two shards share their call paths, so the merged columns hold
        # each path twice: the encoder must pool by frames.
        merged = merge_snapshots(self._snapshots(faults))
        cols = merged.postmortem.columns
        assert len(set(cols.stacks)) < len(cols.stacks)
        assert artifact_bytes(merged) == ref.ref_artifact_bytes(self._as_reference(merged))

    def test_decoded(self, tmp_path):
        snapshot = self._snapshots(FAULTS["all"])[0]
        path = tmp_path / "run.cbp"
        path.write_bytes(artifact_bytes(snapshot))
        decoded = read_artifact(str(path))
        assert artifact_bytes(decoded) == path.read_bytes()
        assert ref.ref_artifact_bytes(self._as_reference(decoded)) == path.read_bytes()


def _record(**kwargs) -> RawSample:
    fields = dict(
        index=3, thread_id=1, task_id=4, stack=(("kernel", 12), ("main", 5)),
        leaf_iid=12, spawn_tag=2, pre_spawn_stack=(("main", 5),),
    )
    fields.update(kwargs)
    return RawSample(**fields)


class TestRawSampleRecord:
    """``RawSample`` keeps the frozen record's contract: fields,
    defaults, ``repr``, equality, hash, pickling and immutability."""

    def test_fields_and_defaults(self):
        assert RawSample._fields == tuple(f.name for f in dataclasses.fields(ref.RefRawSample))
        assert _record().is_idle is False
        assert _record(stack=()).leaf_function == "<unknown>"
        assert _record().leaf_function == "kernel"

    def test_repr_matches_the_frozen_record(self):
        for kw in ({}, {"spawn_tag": None, "pre_spawn_stack": None, "is_idle": True}):
            s = _record(**kw)
            frozen = repr(ref.RefRawSample(*ref.sample_fields(s)))
            assert repr(s) == frozen.replace("RefRawSample(", "RawSample(", 1)

    def test_equality_and_hash(self):
        a, b = _record(), _record()
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash(ref.RefRawSample(*ref.sample_fields(a)))
        assert a != _record(index=4) and a != _record(spawn_tag=None)
        assert len({a, b, _record(leaf_iid=13)}) == 2

    def test_positional_construction_equals_keywords(self):
        a = _record()
        assert tuple.__new__(RawSample, ref.sample_fields(a)) == a

    def test_pickle_and_copy(self):
        a = _record()
        for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert b == a and type(b) is RawSample

    def test_immutable(self):
        a = _record()
        with pytest.raises(AttributeError):
            a.index = 9
        with pytest.raises(TypeError):
            a[0] = 9
        assert a._replace(index=9).index == 9 and a.index == 3

