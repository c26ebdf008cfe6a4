"""Traced run of one benchmark op: the per-layer breakdown.

Usage::

    PYTHONPATH=src python benchmarks/e2e/trace_op.py --workload W --seed S [--out DIR]

Repeats the op's calls into each layer's public functions, in the order
the `repro-profile` CLI makes them, each inside a span named
``<module>.<what>``.  After the op come the probes: an extra ``parse()``,
an unmonitored ``Interpreter.run()``, and for workloads whose op does
not decode or diff an artifact, one decode and one self-diff of the
op's artifact.  ``replay`` traces its set-up profile too (a top-level
``bench.setup`` span), which is where its write-side layer numbers
come from.

The run then checks that its artifact bytes (and, for ``replay``, its
rendered views) equal the CLI op's golden hashes, so it measured the
same program, writes Chrome trace-event JSON to DIR, and prints one
JSON line: the per-layer metrics, the golden problems, and
``excluded_s``, the seconds spent outside the op (set-up, probes,
checking, writing) that the traced-vs-untraced overhead leaves out.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import time
from contextlib import contextmanager

import workloads as wl
from trace import Tracer

DEFAULT_OUT = os.path.join(wl.HERE, "out", "trace")
VIEWS = {"all": ("data", "code", "hybrid"), "data": ("data",), "none": ()}
#: Span names whose summed self time is reported as ``<name>_s``.
TIMED_SPANS = (
    "tooling.import", "chapel.parse", "compiler.compile", "blame.analyze",
    "runtime.interpret", "sampling.collect", "blame.postmortem",
    "blame.attribute", "blame.aggregate", "artifact.encode",
    "artifact.decode", "artifact.diff", "views.render",
)


def traced_profile(tr: Tracer, source_path: str, thr: int, out: str, view: str, config=()):
    """`repro-profile profile SOURCE --threshold THR -o OUT --view VIEW`
    (the serial path of ``profile_main``), one span per stage.  Returns
    the program as :func:`probe_layers` takes it, and the snapshot."""
    from repro.pipeline.stages import (
        aggregate_stage, analyze_stage, attribute_stage, collect_stage,
        compile_stage, postmortem_stage, render_stage,
    )
    from repro.tooling.cli import _parse_config
    from repro.tooling.profiler import ProfileResult

    with tr.span("tooling.profile"):
        with open(source_path) as f:
            source = f.read()
        config = _parse_config(list(config))
        with tr.span("compiler.compile"):
            module = compile_stage(source, source_path, False)
        with tr.span("blame.analyze"):
            static = analyze_stage(module)
        with tr.span("sampling.collect"):
            coll = collect_stage(module, config=config, num_threads=wl.THREADS, threshold=thr)
        monitor = coll.monitor
        t0 = time.perf_counter()
        with tr.span("blame.postmortem"):
            pm = postmortem_stage(module, monitor.samples, options=static.options, tolerant=True)
        with tr.span("blame.attribute"):
            attribution = attribute_stage(static, pm)
        pm_seconds = time.perf_counter() - t0
        with tr.span("blame.aggregate"):
            report = aggregate_stage(
                source_path, pm, attribution,
                wall_seconds=coll.run_result.wall_seconds,
                dataset_bytes=monitor.dataset_size_bytes(),
                stackwalk_cycles=monitor.overhead.stackwalk_cycles_total,
                postmortem_seconds=pm_seconds,
                monitor_quarantine=monitor.quarantine_by_reason(),
            )
        result = ProfileResult(
            module=module, static_info=static, monitor=monitor,
            run_result=coll.run_result, postmortem=pm, attribution=attribution,
            report=report, interpreter=coll.interpreter,
        )
        with tr.span("artifact.encode"):
            from repro.artifact import write_artifact
            from repro.artifact.model import snapshot_from_result
            from repro.sampling.dataset import source_digest

            snapshot = snapshot_from_result(
                result, source_sha256=source_digest(source),
                num_threads=wl.THREADS, canonical_timings=True,
            )
            write_artifact(out, snapshot)
        with tr.span("views.render"):
            for v in VIEWS[view]:
                render_stage(result, v)

    tr.count("compiler.ir_instructions", sum(1 for _ in module.all_instructions()))
    tr.count("blame.functions", len(static.functions))
    tr.count("sampling.samples", monitor.n_samples)
    tr.count("sampling.quarantined", report.stats.quarantined_samples)
    tr.count("blame.instances", len(pm.instances))
    tr.count("blame.unknown_samples", pm.n_unknown)
    tr.count("blame.raw_samples", pm.n_raw)
    tr.count("artifact.bytes", os.path.getsize(out))
    return (module, source, config, source_path), snapshot


def traced_view(tr: Tracer, artifact: str, view: str):
    """`repro-profile view ARTIFACT --view VIEW`; returns the snapshot
    and the command's stdout."""
    from repro.artifact import read_artifact
    from repro.pipeline.stages import render_stage

    with tr.span("tooling.view"):
        with tr.span("artifact.decode"):
            snapshot = read_artifact(artifact)
        with tr.span("views.render"):
            texts = [render_stage(snapshot, v) for v in VIEWS[view]]
    return snapshot, "".join(t + "\n\n" for t in texts)


def diff_table(a, b, label_a: str, label_b: str) -> str:
    from repro.artifact import diff_snapshots, render_blame_diff

    return render_blame_diff(diff_snapshots(a, b), label_a=label_a, label_b=label_b, top=20)


def traced_diff(tr: Tracer, before: str, after: str) -> None:
    """`repro-profile diff BEFORE AFTER`."""
    from repro.artifact import read_artifact

    with tr.span("tooling.diff"):
        with tr.span("artifact.decode"):
            a = read_artifact(before)
        with tr.span("artifact.decode"):
            b = read_artifact(after)
        with tr.span("artifact.diff"):
            diff_table(a, b, os.path.basename(before), os.path.basename(after))


@contextmanager
def probe(tr: Tracer, name: str):
    """A probe span that starts on a freshly collected heap: the op left
    a large heap behind, and a full collection that its allocations
    made due would otherwise land in whichever probe runs next."""
    with tr.span("bench.gc", probe=True):
        gc.collect()
    with tr.span(name, probe=True):
        yield


def probe_layers(tr: Tracer, programs) -> None:
    """Isolated parse and unmonitored interpret of each profiled program."""
    from repro.chapel.parser import parse
    from repro.runtime.interpreter import Interpreter

    for module, source, config, filename in programs:
        with probe(tr, "chapel.parse"):
            parse(source, filename)
        with probe(tr, "runtime.interpret"):
            run = Interpreter(module, config=config, num_threads=wl.THREADS).run()
        tr.count("runtime.instructions", run.instructions_executed)


def probe_artifact(tr: Tracer, snapshot, path: str | None) -> None:
    """For ops that neither decode nor diff: one decode of ``path``
    (when given) and one self-diff of ``snapshot``."""
    from repro.artifact import read_artifact

    if path is not None:
        with probe(tr, "artifact.decode"):
            read_artifact(path)
    with probe(tr, "artifact.diff"):
        diff_table(snapshot, snapshot, "a", "b")


def trace_workload(tr: Tracer, workload: str, seed: int) -> str | None:
    """Runs the traced op in the current directory; returns the views'
    stdout for ``replay`` (checked against its golden), else None."""
    with tr.span("tooling.import"):
        import repro.tooling.cli  # noqa: F401

    thr = wl.threshold(workload, seed)
    if workload in ("lulesh_profile", "clomp_dense"):
        source = "lulesh.chpl" if workload == "lulesh_profile" else "clomp.chpl"
        program, snapshot = traced_profile(tr, source, thr, "run.cbp", "all")
        probe_layers(tr, [program])
        probe_artifact(tr, snapshot, "run.cbp")
        return None
    if workload == "variant_sweep":
        programs = [
            traced_profile(tr, stem + ".chpl", thr, stem + ".cbp", "data", wl.SWEEP_CONFIG)[0]
            for stem in wl.sweep_order(seed)
        ]
        traced_diff(tr, *wl.SWEEP_DIFF)
        probe_layers(tr, programs)
        return None
    if workload == "replay":
        with tr.span("bench.setup"):
            program, _ = traced_profile(
                tr, "clomp.chpl", thr, wl.REPLAY_ARTIFACT, "none", wl.REPLAY_CONFIG)
            # The untraced op starts on an empty heap: collect the set-up
            # profile's cyclic garbage before the traced view, not in it.
            gc.collect()
        snapshot, stdout = traced_view(tr, wl.REPLAY_ARTIFACT, "all")
        probe_layers(tr, [program])
        probe_artifact(tr, snapshot, None)
        return stdout
    raise KeyError(workload)


def golden_problems(golden: dict, workload: str, seed: int, stdout: str | None) -> list[str]:
    """The traced run's artifacts (and ``replay``'s views) against the
    CLI op's golden hashes."""
    if workload != "replay":
        return wl.artifact_problems(wl.expected(golden, workload, seed)["artifacts"], ".")
    setup = wl.expected(golden, workload, seed, setup=True)
    problems = wl.artifact_problems(setup["artifacts"], ".")
    if wl.stdout_digest(stdout.encode()) != wl.expected(golden, workload, seed)["stdout"]:
        problems.append("views differ from golden")
    return problems


def layer_metrics(tr: Tracer) -> dict[str, float]:
    self_s = tr.self_seconds()
    c = tr.counters
    out = {f"{name}_s": self_s.get(name, 0.0) for name in TIMED_SPANS}
    out.update({k: v for k, v in c.items() if k != "blame.raw_samples"})
    interpret = out["runtime.interpret_s"]
    minstr = c["runtime.instructions"] / 1e6
    out["runtime.minstr_per_s"] = minstr / interpret
    out["sampling.overhead_s"] = out["sampling.collect_s"] - interpret
    out["sampling.samples_per_minstr"] = c["sampling.samples"] / minstr
    out["blame.user_ratio"] = c["blame.instances"] / c["blame.raw_samples"]
    out["trace.coverage"] = tr.coverage()
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=DEFAULT_OUT, help="trace output directory")
    args = ap.parse_args(argv)

    out_dir = os.path.abspath(args.out)
    os.makedirs(out_dir, exist_ok=True)
    workdir = os.path.join(out_dir, f"work-{args.workload}-s{args.seed}")
    wl.prepare(args.workload, workdir)
    os.chdir(workdir)

    tr = Tracer()
    stdout = trace_workload(tr, args.workload, args.seed)
    tr.close()
    t_closed = time.perf_counter()

    problems = golden_problems(wl.load_golden(), args.workload, args.seed, stdout)
    metrics = layer_metrics(tr)
    path = tr.write_chrome(
        os.path.join(out_dir, f"trace-{args.workload}-s{args.seed}.json"),
        {"workload": args.workload, "seed": args.seed, "metrics": metrics},
    )
    os.chdir(out_dir)
    shutil.rmtree(workdir)
    excluded = (
        tr.top_level_seconds(probe=True)
        + sum(s.duration_ns for s in tr.spans if s.name == "bench.setup") / 1e9
        + time.perf_counter() - t_closed
    )
    print(json.dumps({
        "metrics": metrics,
        "problems": problems,
        "excluded_s": excluded,
        "trace": path,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
