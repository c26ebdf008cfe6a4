"""End-to-end benchmark of the `repro-profile` CLI.

Usage::

    python benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds N]
        [--trace 0|1] [--quick] [--selfcheck] [--regen-golden]

One client drives the CLI in a closed loop: one child process at a time,
the next op starting when the previous one has exited.  Every op's
stdout and artifact bytes are checked against ``golden.json``.  After
an untimed warm-up op, ops run for ``--seconds``; fresh
``import repro.tooling.cli`` probes run between them (at least
``MIN_PROBES`` per run).  The last stdout line is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (each
``{"value", "unit"}``): the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.

``--trace 1`` alternates an untraced CLI op with a fresh
``trace_op.py`` run and reports the per-layer medians plus the
traced-vs-untraced overhead.  ``--selfcheck`` runs the suite twice and
compares the medians against each metric's bound.  ``--regen-golden``
rewrites ``golden.json`` after checking that the generic (reference)
engine's sealed sample stream equals the fast engine's on every input.

Each run writes ``out/results/<workload>-s<seed>-trace<t>.json`` with
the quartiles, the work sizes, the host and the git commit.  README.md
documents the workloads, metrics and bounds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import workloads as wl

BENCHMARK_PATH = os.path.join(wl.ROOT, "BENCHMARK.json")
TRACE_OP = os.path.join(wl.HERE, "trace_op.py")
DEFAULT_OUT = os.path.join(wl.HERE, "out")
MIN_OPS = 3
MIN_PROBES = 10
#: A hung child is killed after this long and its op counted as failed.
OP_TIMEOUT_S = 60


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def spawn(argv: list[str], workdir: str) -> tuple[float, int, float, bytes]:
    """Runs one child to completion in ``workdir``; returns (wall
    seconds, exit code, peak RSS in MB, stdout)."""
    out_path = os.path.join(workdir, ".stdout")
    with open(out_path, "wb") as out, open(os.path.join(workdir, ".stderr"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=wl.child_env(workdir), stdout=out, stderr=err)
        signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(OP_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException as exc:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            if not isinstance(exc, _Timeout):
                raise
        finally:
            signal.alarm(0)
        seconds = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        stdout = f.read()
    return seconds, code, usage.ru_maxrss / 1024.0, stdout


def run_checked(argv: list[str], want: dict, workdir: str) -> dict:
    """Runs one child and checks it against its golden entry ``want``;
    the artifacts it should write are deleted first, so a stale file
    cannot pass."""
    for name in want["artifacts"]:
        path = os.path.join(workdir, name)
        if os.path.exists(path):
            os.remove(path)
    seconds, code, rss_mb, stdout = spawn(argv, workdir)
    problems = [f"exit status {code}"] if code else wl.check_outputs(want, stdout, workdir)
    return {"seconds": seconds, "rss_mb": rss_mb, "problems": problems}


def run_op(golden: dict, workload: str, seed: int, workdir: str) -> dict:
    """One timed op, checked against the golden hashes."""
    return run_checked(wl.op_argv(workload, seed, sys.executable),
                       wl.expected(golden, workload, seed), workdir)


def setup_probe(workdir: str) -> float:
    seconds, code, _, _ = spawn([sys.executable, "-c", wl.IMPORT_PROBE], workdir)
    if code:
        raise RuntimeError(f"import probe exited {code}")
    return seconds


def set_up(golden: dict, workload: str, seed: int, workdir: str) -> list[dict]:
    """Fresh work dir; ``replay`` also profiles CLOMP (untimed) to make
    the artifact it re-renders.  Returns the set-up ops run."""
    wl.prepare(workload, workdir)
    argv = wl.setup_argv(workload, seed, sys.executable)
    if argv is None:
        return []
    return [run_checked(argv, wl.expected(golden, workload, seed, setup=True), workdir)]


def summarize(values: list[float]) -> dict:
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def regressed(before: float, after: float, bound: float, better: str) -> bool:
    """True when ``after`` is worse than ``before`` by more than
    ``bound`` (a share of ``before``)."""
    change = (after - before) / before
    return change > bound if better == "lower" else -change > bound


def start(golden: dict, workload: str, seed: int, quick: bool, workdir: str) -> list[dict]:
    """Set-up plus, unless ``quick``, one untimed warm-up op; returns
    the ops run (the last one is the warm-up)."""
    ops = set_up(golden, workload, seed, workdir)
    if not quick and not any(op["problems"] for op in ops):
        ops.append(run_op(golden, workload, seed, workdir))
    return ops


def measure(golden: dict, workload: str, seed: int, seconds: float, quick: bool,
            workdir: str) -> tuple[list[dict], dict]:
    """Closed-loop timed ops plus interleaved set-up probes."""
    ops = start(golden, workload, seed, quick, workdir)
    if any(op["problems"] for op in ops):
        return ops, {}
    # Spread the probes over the run, so a run of few long ops still
    # samples set-up time throughout, not only at its end.
    probes_per_op = 1 if quick else max(
        1, math.ceil(MIN_PROBES * ops[-1]["seconds"] / seconds))
    timed, probes = [], []
    deadline = time.perf_counter() + seconds
    while True:
        timed.append(run_op(golden, workload, seed, workdir))
        probes += [setup_probe(workdir) for _ in range(probes_per_op)]
        if quick or (time.perf_counter() >= deadline and len(timed) >= MIN_OPS):
            break
    while not quick and len(probes) < MIN_PROBES:
        probes.append(setup_probe(workdir))
    stats = {
        "op_s": summarize([op["seconds"] for op in timed]),
        "setup_s": summarize(probes),
        "peak_rss_mb": summarize([max(op["rss_mb"] for op in timed)]),
    }
    return ops + timed, stats


def measure_traced(golden: dict, workload: str, seed: int, seconds: float, quick: bool,
                   workdir: str, out_dir: str) -> tuple[list[dict], dict, dict]:
    """Alternates untraced CLI ops with fresh traced runs."""
    ops = start(golden, workload, seed, quick, workdir)
    if any(op["problems"] for op in ops):
        return ops, {}, {}
    untraced, traced = [], []
    argv = [sys.executable, TRACE_OP, "--workload", workload, "--seed", str(seed),
            "--out", os.path.join(out_dir, "trace")]
    deadline = time.perf_counter() + seconds
    while True:
        op = run_op(golden, workload, seed, workdir)
        untraced.append(op)
        wall, code, _, stdout = spawn(argv, workdir)
        lines = stdout.decode().strip().splitlines()
        report = json.loads(lines[-1]) if lines else {"problems": ["no output"]}
        problems = report["problems"] + ([f"exit status {code}"] if code else [])
        traced.append({"seconds": wall, "problems": problems, "report": report})
        if quick or time.perf_counter() >= deadline:
            break
    ops += untraced + traced
    if any(t["problems"] for t in traced):
        return ops, {}, {}
    layers = {
        name: summarize([t["report"]["metrics"][name] for t in traced])
        for name in traced[0]["report"]["metrics"]
    }
    traced_op = statistics.median(t["seconds"] - t["report"]["excluded_s"] for t in traced)
    untraced_op = statistics.median(op["seconds"] for op in untraced)
    overhead = {
        "traced_op_s": traced_op,
        "untraced_op_s": untraced_op,
        "overhead": traced_op / untraced_op - 1.0,
    }
    return ops, layers, overhead


def load_benchmark() -> dict:
    with open(BENCHMARK_PATH) as f:
        return json.load(f)


def host_info() -> dict:
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def calibrate(rounds: int = 3) -> float:
    """Median time of a fixed pure-Python loop: shows host drift
    between runs (diagnostic only, never gated)."""
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def git_sha() -> str | None:
    if not os.path.isdir(os.path.join(wl.ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def run_workload(bench: dict, golden: dict, workload: str, seed: int, seconds: float,
                 trace: bool, quick: bool, out_dir: str) -> dict:
    """One benchmark run; prints the metrics and returns the result line."""
    workdir = os.path.join(out_dir, "work", f"{workload}-s{seed}")
    calib = calibrate()
    overhead = None
    if trace:
        ops, stats, overhead = measure_traced(
            golden, workload, seed, seconds, quick, workdir, out_dir)
        specs = bench["per_layer"]
    else:
        ops, stats = measure(golden, workload, seed, seconds, quick, workdir)
        specs = bench["end_to_end"]
    failed = [op for op in ops if op["problems"]]
    metrics = {
        s["name"]: {"value": stats[s["name"]]["median"], "unit": s["unit"]}
        for s in specs if s["name"] in stats
    }
    correct = not failed and len(metrics) == len(specs)
    print(f"== {workload} seed {seed} (key {wl.input_key(seed)}, "
          f"threshold {wl.threshold(workload, seed)}), trace {int(trace)}")
    for s in specs:
        if s["name"] in stats:
            st = stats[s["name"]]
            print(f"  {s['name']:30s} {st['median']:14.6f} {s['unit']:9s} "
                  f"q1 {st['q1']:.6f} q3 {st['q3']:.6f} n {st['n']}")
    print(f"  error_rate {len(failed)}/{len(ops)}")
    for op in failed[:5]:
        print(f"  failed op: {'; '.join(op['problems'])}")
    if overhead:
        print(f"  trace overhead {overhead['overhead']:+.2%} "
              f"(traced {overhead['traced_op_s']:.4f} s vs untraced "
              f"{overhead['untraced_op_s']:.4f} s)")
    record = {
        "workload": workload,
        "seed": seed,
        "input_key": wl.input_key(seed),
        "threshold": wl.threshold(workload, seed),
        "trace": int(trace),
        "stats": stats,
        "attempted": len(ops),
        "failed": len(failed),
        "sizes": wl.expected(golden, workload, seed)["sizes"],
        "trace_overhead": overhead,
        "host": host_info(),
        "host.calib_s": calib,
        "git_sha": git_sha(),
    }
    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{workload}-s{seed}-trace{int(trace)}.json"), "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return {"correct": correct, "attempted": len(ops), "failed": len(failed),
            "metrics": metrics}


def selfcheck(bench: dict, golden: dict, workloads: list[str], seed: int,
              seconds: float, out_dir: str) -> int:
    """Runs the suite twice; every (metric, workload) pair must agree
    within the metric's bound in both directions, with no failed op."""
    passes = [
        {w: run_workload(bench, golden, w, seed, seconds, False, False, out_dir)
         for w in workloads}
        for _ in range(2)
    ]
    ok = True
    print(f"\n{'metric':14s} {'workload':15s} {'run A':>12s} {'run B':>12s} "
          f"{'change':>8s} {'bound':>6s}")
    for w in workloads:
        results = [passes[i][w] for i in range(2)]
        if not all(r["correct"] for r in results):
            ok = False
            print(f"{w}: failed ops {[r['failed'] for r in results]}, no comparison")
            continue
        for spec in bench["end_to_end"]:
            a, b = (r["metrics"][spec["name"]]["value"] for r in results)
            agree = not (regressed(a, b, spec["bound"], spec["better"])
                         or regressed(b, a, spec["bound"], spec["better"]))
            ok &= agree
            print(f"{spec['name']:14s} {w:15s} {a:12.6f} {b:12.6f} "
                  f"{(b - a) / a:+8.2%} {spec['bound']:6.2f} {'PASS' if agree else 'FAIL'}")
        print(f"{'error_rate':14s} {w:15s} {0:12d} {0:12d}")
    print("selfcheck", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def engine_mismatches() -> tuple[list[str], dict]:
    """Inputs whose fast-engine sealed stream (``collect_stage``) differs
    from the generic reference engine's, and each (workload, key)'s
    simulated instructions and samples."""
    sys.path.insert(0, wl.SRC)
    from repro.pipeline.stages import collect_stage, compile_stage
    from repro.runtime.interpreter import Interpreter
    from repro.sampling.monitor import Monitor
    from repro.sampling.pmu import PMUConfig
    from repro.tooling.cli import _parse_config

    programs = {
        "lulesh_profile": [("lulesh.chpl", {})],
        "clomp_dense": [("clomp.chpl", {})],
        "variant_sweep": [
            (os.path.join("sweep", stem + ".chpl"), _parse_config(list(wl.SWEEP_CONFIG)))
            for stem in wl.SWEEP_VARIANTS
        ],
        # The set-up profile whose artifact replay's op re-renders.
        "replay": [("clomp.chpl", _parse_config(list(wl.REPLAY_CONFIG)))],
    }
    mismatches, sizes = [], {}
    for workload, inputs in programs.items():
        for key in range(wl.NUM_KEYS):
            thr = wl.THRESHOLDS[workload][key]
            instructions = samples = 0
            before = len(mismatches)
            for rel, config in inputs:
                with open(os.path.join(wl.INPUTS, rel)) as f:
                    source = f.read()
                module = compile_stage(source, os.path.basename(rel))
                fast = collect_stage(module, config=config, num_threads=wl.THREADS, threshold=thr)
                monitor = Monitor(PMUConfig(threshold=thr))
                Interpreter(module, config=config, num_threads=wl.THREADS, monitor=monitor,
                            sample_threshold=thr, engine="generic").run()
                monitor.flush()
                if monitor.sealed_stream() != fast.monitor.sealed_stream():
                    mismatches.append(f"{rel} at threshold {thr}")
                instructions += fast.run_result.instructions_executed
                samples += fast.monitor.n_samples
            sizes[workload, key] = {"instructions": instructions, "samples": samples}
            print(f"  engine check {workload} key {key}: "
                  f"{'MISMATCH' if len(mismatches) > before else 'ok'}", flush=True)
    return mismatches, sizes


def golden_entry(argv: list[str], outputs: list[str], workdir: str) -> dict | None:
    """The stdout and ``outputs`` hashes of one child, or None when it
    exits nonzero."""
    _, code, _, stdout = spawn(argv, workdir)
    if code:
        return None
    artifacts = {}
    for name in outputs:
        with open(os.path.join(workdir, name), "rb") as f:
            artifacts[name] = wl.sha256(f.read())
    return {"stdout": wl.stdout_digest(stdout), "artifacts": artifacts}


def regen_golden(out_dir: str) -> int:
    mismatches, sizes = engine_mismatches()
    if mismatches:
        print("refusing to write golden.json: generic and fast engines differ on",
              *mismatches, sep="\n  ")
        return 1
    golden: dict = {}
    for workload in wl.WORKLOADS:
        golden[workload] = {}
        for key in range(wl.NUM_KEYS):
            workdir = os.path.join(out_dir, "work", f"golden-{workload}-{key}")
            wl.prepare(workload, workdir)
            setup_argv = wl.setup_argv(workload, key, sys.executable)
            setup = golden_entry(setup_argv, [wl.REPLAY_ARTIFACT], workdir) if setup_argv else {}
            entry = golden_entry(wl.op_argv(workload, key, sys.executable),
                                 wl.output_files(workload), workdir)
            if entry is None or setup is None:
                print(f"refusing to write golden.json: {workload} key {key} exited nonzero")
                return 1
            if setup:
                entry["setup"] = setup
            inputs = wl.output_files(workload) or [wl.REPLAY_ARTIFACT]
            entry["sizes"] = dict(sizes[workload, key], artifact_bytes=sum(
                os.path.getsize(os.path.join(workdir, name)) for name in inputs))
            golden[workload][str(key)] = entry
            print(f"  golden {workload} key {key}: ok", flush=True)
    with open(wl.GOLDEN_PATH, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {wl.GOLDEN_PATH}")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS, help="default: all four")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="one op per workload, no warm-up")
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--regen-golden", action="store_true")
    ap.add_argument("--out", default=DEFAULT_OUT, help="work, trace and results directory")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(wl.SRC, "repro", "__init__.py")):
        print(f"run.py: no repro sources under {wl.SRC}", file=sys.stderr)
        return 2
    out_dir = os.path.abspath(args.out)
    if args.regen_golden:
        return regen_golden(out_dir)
    bench = load_benchmark()
    golden = wl.load_golden()
    workloads = [args.workload] if args.workload else list(wl.WORKLOADS)
    if args.selfcheck:
        return selfcheck(bench, golden, workloads, args.seed, args.seconds, out_dir)
    status = 0
    for w in workloads:
        line = run_workload(bench, golden, w, args.seed, args.seconds, bool(args.trace),
                            args.quick, out_dir)
        print(json.dumps(line), flush=True)
        status |= 0 if line["correct"] else 1
    return status


if __name__ == "__main__":
    sys.exit(main())
