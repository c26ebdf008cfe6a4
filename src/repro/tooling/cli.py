"""Command-line entry point: the staged profiling pipeline as subcommands.

Usage::

    repro-profile profile program.chpl [-o run.cbp] [--batch-size N]
        [--adaptive [--confidence C] [--ci-width W] [--stability-window K]]
        [--save-samples PATH] [--inject-faults SPEC]
        [--threads N] [--threshold P] [--fast] [--view data|code|hybrid|all]
        [--config name=value ...] [--fail-on-quarantine-rate X]
    repro-profile view run.cbp [--view data|code|hybrid|all] [--html PATH]
    repro-profile merge merged.cbp shard0.cbp shard1.cbp ...
    repro-profile diff before.cbp after.cbp
    repro-profile advise program.chpl [--profile] [--json]
    repro-profile --version

``profile`` runs a program once, serially in one process, streaming
its samples into post-mortem in batches of ``--batch-size`` as they
are collected (``--save-samples`` appends each batch to a checksummed
journal the same way, so a killed run leaves its verified prefix;
with ``--adaptive`` each batch is one round of the stopping rule, and
``--round-samples`` is another spelling of ``--batch-size``), and
can persist everything the presentation layer needs as a versioned
``.cbp`` artifact; ``view``
re-renders any window from such an artifact — byte-identical to the
live render — without re-running anything; ``merge`` combines
per-locale/per-run artifacts; ``diff`` prints the blame-shift table
between two artifacts (paper Table VIII).  The ``advise`` subcommand
runs the static analysis suite (optimization advisor + forall race
detector) and exits nonzero when any error-severity finding is
reported, so it can gate CI.

``profile`` and ``advise`` declare their run flags in one place and
turn them into one :class:`~repro.run_config.RunConfig` per run, which
is where every value is checked.

Exit status: 0 on success; 1 for a damaged artifact, an
error-severity ``advise`` finding, a run-time fault of the program, or
a program that calls ``halt()``; 2 for bad usage (an unknown command, a
missing source, an option value out of range or malformed: a usage line
or one ``repro-`` line, never a traceback), a program the frontend
rejects (lex, parse, name or type error) or an IR verification failure;
3 when ``--fail-on-quarantine-rate`` trips.  A fault of the program
itself, at compile or run time, is one ``repro-profile: FILE:LINE:COL:
message`` line on stderr (``repro-advise:`` under ``advise``).  A
halted run still writes its artifact and views, up to the halt, then
prints one ``repro-profile: FILE: halted: MESSAGE`` line on stderr; a
halt takes precedence over ``--fail-on-quarantine-rate``.

The historical single-command form (``repro-profile program.chpl ...``)
still works: a first argument that names a file (or an option) is
treated as ``profile``.
"""

from __future__ import annotations

import argparse
import os
import sys

from .. import tool_version
from ..errors import ArtifactError

#: Subcommands `main` dispatches on.
SUBCOMMANDS = ("profile", "view", "merge", "diff", "advise")

_USAGE = """\
usage: repro-profile <command> [options]

commands:
  profile SOURCE [-o ART.cbp]   run a program, print views, save an artifact
                                (--adaptive stops collection early once the
                                blame ranking settles; tune with --confidence,
                                --ci-width, --stability-window, and the round
                                size with --batch-size, alias --round-samples)
  view ART.cbp                  re-render views from a saved artifact
  merge OUT.cbp IN.cbp...       merge per-locale/per-run artifacts
  diff A.cbp B.cbp              blame-shift table between two artifacts
  advise SOURCE                 static optimization advisor + race detector

  repro-profile --version       print the tool version
  repro-profile <command> -h    per-command options

(legacy form: `repro-profile SOURCE [options]` == `profile SOURCE ...`)
"""


def _parse_config(pairs: list[str]) -> dict[str, object]:
    """``--config name=value ...`` → {name: int | float | bool | str};
    raises ``ValueError`` on an entry without ``=``."""
    out: dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"bad --config entry {pair!r} (want name=value)")
        name, raw = pair.split("=", 1)
        value: object
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = {"true": True, "false": False}.get(raw.lower(), raw)
        out[name] = value
    return out


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in ("--version", "-V"):
        print(f"repro {tool_version()}")
        return 0
    if not argv:
        print(_USAGE, file=sys.stderr, end="")
        return 2
    head, rest = argv[0], argv[1:]
    if head == "advise":
        return advise_main(rest)
    if head == "profile":
        return profile_main(rest)
    if head == "view":
        return view_main(rest)
    if head == "merge":
        return merge_main(rest)
    if head == "diff":
        return diff_main(rest)
    # Legacy single-command form: anything that looks like a source file
    # or an option goes to `profile` unchanged.
    if head.startswith("-") or os.path.exists(head) or "." in head or "/" in head:
        return profile_main(argv)
    print(f"repro-profile: unknown command {head!r}\n", file=sys.stderr)
    print(_USAGE, file=sys.stderr, end="")
    return 2


def _load_artifact(path: str):
    """Reads one artifact, mapping failures to clean exits (no traceback)."""
    from ..artifact import read_artifact

    try:
        return read_artifact(path)
    except ArtifactError as exc:
        if isinstance(exc.__cause__, FileNotFoundError):
            print(f"repro-profile: no such artifact: {path}", file=sys.stderr)
            raise SystemExit(2) from None
        # Every ArtifactError from read_artifact starts with the path.
        print(f"repro-profile: {exc}", file=sys.stderr)
        raise SystemExit(1) from None


def _add_run_flags(ap: argparse.ArgumentParser, profile: bool) -> None:
    """Declares the run flags once: the ones `profile` and `advise`
    share, plus (``profile``) the ones only `profile` takes, which
    include the raw-sample tap.  Defaults come from
    :class:`~repro.run_config.RunConfig`."""
    from ..run_config import AdaptiveConfig, RunConfig

    ap.add_argument(
        "--threads", type=int, default=RunConfig.num_threads,
        help="worker threads",
    )
    ap.add_argument(
        "--threshold", type=int, default=RunConfig.threshold,
        help="PMU overflow threshold",
    )
    ap.add_argument(
        "--config", nargs="*", default=[], help="config overrides: name=value"
    )
    ap.add_argument(
        "--inject-faults",
        metavar="SPEC",
        help="degrade the sample stream before post-mortem, e.g. "
        "drop=0.1,truncate=0.1:3,tagloss=0.05,strip=0.1,seed=42",
    )
    ap.add_argument(
        "--fail-on-quarantine-rate",
        type=float,
        metavar="X",
        help="exit 3 when more than fraction X (in [0, 1]) of samples "
        "were quarantined (telemetry-health gate for CI)",
    )
    if not profile:
        return
    ap.add_argument("--fast", action="store_true", help="compile with --fast pipeline")
    ap.add_argument(
        "--batch-size",
        "--round-samples",
        dest="batch_size",
        type=int,
        default=RunConfig.batch_size,
        metavar="N",
        help="samples per batch handed to post-mortem (bounds how many "
        "are resident); with --adaptive, samples per round "
        "(default: %(default)s)",
    )
    ap.add_argument(
        "--adaptive",
        action="store_true",
        help="confidence-driven collection: profile in checkpointed "
        "rounds and halt the run early once the blame ranking is "
        "statistically settled (the decision trail rides in the "
        "artifact and the views)",
    )
    ap.add_argument(
        "--confidence",
        type=float,
        default=AdaptiveConfig.confidence,
        metavar="C",
        help="confidence level for the blame-share intervals, "
        "exclusive (0, 1) (default: %(default)s)",
    )
    ap.add_argument(
        "--ci-width",
        type=float,
        default=AdaptiveConfig.ci_width,
        metavar="W",
        help="stop once every top-N interval's half-width is at most "
        "W, exclusive (0, 1) (default: %(default)s)",
    )
    ap.add_argument(
        "--stability-window",
        type=int,
        default=AdaptiveConfig.stability_window,
        metavar="K",
        help="checkpoints in a row that must agree before stopping "
        "(default: %(default)s)",
    )
    ap.add_argument(
        "--save-samples",
        metavar="PATH",
        help="journal the raw samples (JSONL, a CRC per record, appended "
        "while the program runs, so a killed run leaves its verified "
        "prefix) for offline analysis with python -m repro.tooling.analyze",
    )


def _run_config(ap: argparse.ArgumentParser, args):
    """The one validation of a `profile` or `advise` run: builds its
    :class:`~repro.run_config.RunConfig`, turning every bad value into
    exit 2 with a usage line.  The adaptive knobs are checked even
    without ``--adaptive``, so a typo'd knob is never ignored."""
    from ..run_config import AdaptiveConfig, RunConfig

    rate = args.fail_on_quarantine_rate
    if rate is not None and not 0.0 <= rate <= 1.0:
        ap.error(f"--fail-on-quarantine-rate must be in [0, 1] (got {rate})")
    profile_only = {}
    try:
        if "batch_size" in args:  # the flags only `profile` declares
            if args.fast and args.save_samples:
                ap.error("--save-samples needs the unoptimized compile that "
                         "repro-analyze rebuilds (drop --fast)")
            adaptive = AdaptiveConfig(
                confidence=args.confidence,
                ci_width=args.ci_width,
                stability_window=args.stability_window,
            )
            profile_only = dict(
                fast=args.fast,
                batch_size=args.batch_size,
                adaptive=adaptive if args.adaptive else None,
            )
        return RunConfig(
            config=_parse_config(args.config),
            num_threads=args.threads,
            threshold=args.threshold,
            faults=args.inject_faults,
            **profile_only,
        )
    except ValueError as exc:
        ap.error(str(exc))


def profile_main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-profile profile",
        description="Data-centric (variable blame) profiler for mini-Chapel",
    )
    ap.add_argument("source", help="mini-Chapel source file")
    _add_run_flags(ap, profile=True)
    ap.add_argument(
        "--view",
        choices=["data", "code", "hybrid", "all", "none"],
        default="data",
        help="which window to print (none: only write the artifact)",
    )
    ap.add_argument("--top", type=int, default=20, help="rows to display")
    ap.add_argument(
        "--show-output", action="store_true", help="echo program writeln output"
    )
    ap.add_argument(
        "-o",
        "--output",
        metavar="ART",
        help="write the profile artifact (.cbp) — render/merge/diff it "
        "later with the view/merge/diff subcommands, no re-run needed",
    )
    ap.add_argument(
        "--html",
        metavar="PATH",
        help="also write a self-contained HTML report (the GUI analogue)",
    )
    args = ap.parse_args(argv)
    run = _run_config(ap, args)
    _check_top(ap, args)

    try:
        with open(args.source) as f:
            source = f.read()
    except OSError as exc:
        print(f"repro-profile: {exc}", file=sys.stderr)
        return 2

    from .profiler import Profiler

    journal = None
    try:
        if args.save_samples:
            # Deterministic ids so the dataset is re-analyzable offline.
            from ..compiler.lower import compile_source
            from ..sampling.dataset import (
                DatasetHeader,
                DatasetJournal,
                source_digest,
            )

            program = compile_source(source, args.source, fresh_ids=True)
            header = DatasetHeader(
                program=args.source,
                source_sha256=source_digest(source),
                threshold=run.threshold,
                num_threads=run.num_threads,
            )
            journal = DatasetJournal(args.save_samples, header)
        else:
            program = source
        profiler = Profiler(program, run, filename=args.source)
        result = profiler.profile(
            tap=journal.extend if journal is not None else None
        )
    except _program_faults() as exc:
        return _program_error("repro-profile", exc)
    finally:
        if journal is not None:
            journal.close()
    if journal is not None:
        print(f"[journaled samples saved to {args.save_samples}]")

    if args.output:
        from ..artifact import write_artifact
        from ..artifact.model import snapshot_from_result
        from ..sampling.dataset import source_digest

        snapshot = snapshot_from_result(
            result,
            source_sha256=source_digest(source),
            num_threads=run.num_threads,
            canonical_timings=True,
        )
        write_artifact(args.output, snapshot)
        print(f"[profile artifact written to {args.output}]")

    if args.show_output:
        for line in result.run_result.output:
            print(line)
        print()

    from ..views import print_views

    print_views(result, args.view, args.top)
    if args.html:
        from ..views.html import write_html_report

        write_html_report(args.html, result, top=args.top)
        print(f"[HTML report written to {args.html}]")
    print(
        f"[run: {result.run_result.wall_seconds:.4f}s simulated, "
        f"{result.monitor.n_samples} samples "
        f"({result.postmortem.n_user} user)]"
    )
    if result.adaptive is not None:
        trail = result.adaptive
        verdict = "stopped early" if trail.stopped_early else "ran to completion"
        print(
            f"[adaptive: {verdict} after {len(trail.rounds)} rounds, "
            f"{trail.samples_collected} samples ({trail.stop_reason})]"
        )
    _print_degradation(result)
    return _halt_status("repro-profile", args.source, result) or _quarantine_gate(
        result, args.fail_on_quarantine_rate
    )


def view_main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-profile view",
        description="Re-render views from a saved .cbp profile artifact",
    )
    ap.add_argument("artifact", help="profile artifact (.cbp)")
    ap.add_argument(
        "--view",
        choices=["data", "code", "hybrid", "all"],
        default="data",
        help="which window to print",
    )
    ap.add_argument("--top", type=int, default=20, help="rows to display")
    ap.add_argument(
        "--html",
        metavar="PATH",
        help="also write a self-contained HTML report",
    )
    ap.add_argument(
        "--meta", action="store_true", help="print artifact metadata first"
    )
    args = ap.parse_args(argv)
    _check_top(ap, args)

    from ..views import print_views

    snapshot = _load_artifact(args.artifact)
    if args.meta:
        m = snapshot.meta
        print(
            f"[{args.artifact}: {m.kind} of {m.program}, "
            f"locale {m.locale_id}, threads {m.num_threads}, "
            f"threshold {m.threshold}, written by {m.created_by or '?'}]"
        )
    print_views(snapshot, args.view, args.top)
    if args.html:
        from ..views.html import write_html_report

        write_html_report(args.html, snapshot, top=args.top)
        print(f"[HTML report written to {args.html}]")
    return 0


def merge_main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-profile merge",
        description="Merge per-locale/per-run .cbp artifacts into one",
    )
    ap.add_argument("output", help="merged artifact to write")
    ap.add_argument("inputs", nargs="+", help="artifacts to merge")
    ap.add_argument(
        "--program", help="program name for the merged report (default: first)"
    )
    ap.add_argument(
        "--missing-locales",
        metavar="L1,L2",
        default="",
        help="locale ids that produced no artifact (recorded as coverage "
        "gaps in the merged report)",
    )
    ap.add_argument(
        "--view",
        choices=["data", "code", "hybrid", "all", "none"],
        default="none",
        help="also print this window of the merged profile",
    )
    ap.add_argument("--top", type=int, default=20, help="rows to display")
    args = ap.parse_args(argv)
    _check_top(ap, args)

    try:
        missing = tuple(
            int(tok) for tok in args.missing_locales.split(",") if tok.strip()
        )
    except ValueError:
        ap.error(f"--missing-locales wants comma-separated locale ids "
                 f"(got {args.missing_locales!r})")
    from ..artifact import merge_snapshots, write_artifact

    snapshots = [_load_artifact(p) for p in args.inputs]
    try:
        merged = merge_snapshots(
            snapshots, program=args.program, missing_locales=missing
        )
    except ArtifactError as exc:
        print(f"repro-profile: {exc}", file=sys.stderr)
        return 1
    write_artifact(args.output, merged)
    print(
        f"[merged {len(snapshots)} artifact(s) -> {args.output}: "
        f"{merged.report.stats.user_samples} user samples"
        + (f", missing locales {sorted(missing)}" if missing else "")
        + "]"
    )
    if args.view != "none":
        from ..views import print_views

        print_views(merged, args.view, args.top)
    return 0


def diff_main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-profile diff",
        description="Blame-shift table between two .cbp artifacts "
        "(paper Table VIII)",
    )
    ap.add_argument("before", help="baseline artifact")
    ap.add_argument("after", help="comparison artifact")
    ap.add_argument("--top", type=int, default=20, help="rows to display")
    ap.add_argument(
        "--min-delta",
        type=float,
        default=0.0,
        metavar="X",
        help="hide shifts smaller than this blame fraction",
    )
    ap.add_argument("--label-a", default=None, help="column label for BEFORE")
    ap.add_argument("--label-b", default=None, help="column label for AFTER")
    args = ap.parse_args(argv)
    _check_top(ap, args)

    from ..artifact import diff_snapshots, render_blame_diff

    a = _load_artifact(args.before)
    b = _load_artifact(args.after)
    rows = diff_snapshots(a, b, min_delta=args.min_delta)
    print(
        render_blame_diff(
            rows,
            label_a=args.label_a or os.path.basename(args.before),
            label_b=args.label_b or os.path.basename(args.after),
            top=args.top,
        )
    )
    return 0


def _print_degradation(result) -> None:
    """One summary line per degradation channel (silent when clean)."""
    stats = result.report.stats
    if result.fault_stats is not None:
        fs = result.fault_stats
        print(
            f"[injected faults: {fs.total_faults} over {fs.examined} "
            f"samples (dropped {fs.dropped}, corrupted {fs.corrupted}, "
            f"truncated {fs.truncated}, tags lost {fs.tags_lost}, "
            f"stripped {fs.stripped})]"
        )
    if stats.quarantined_samples:
        reasons = ", ".join(
            f"{r}: {n}"
            for r, n in sorted(result.report.quarantine_by_reason.items())
        )
        print(
            f"[quarantined {stats.quarantined_samples} malformed "
            f"samples ({reasons})]"
        )
    if stats.recovered_samples:
        print(f"[recovered {stats.recovered_samples} degraded call paths]")
    if stats.unknown_samples:
        reasons = ", ".join(
            f"{r}: {n}"
            for r, n in sorted(result.report.unknown_by_reason.items())
        )
        print(
            f"[unattributable: {stats.unknown_samples} samples in the "
            f"<unknown> bucket ({reasons})]"
        )


def _program_faults() -> tuple[type[Exception], type[Exception]]:
    """The faults of the program itself: the frontend's ``ChapelError``
    (lex, parse, name or type) and the runtime's ``ExecutionError``.
    An ``except`` clause evaluates this only while an exception
    propagates, so neither class is imported by a run that raises
    nothing."""
    from ..chapel.errors import ChapelError
    from ..runtime.interpreter import ExecutionError

    return ChapelError, ExecutionError


def _program_error(prog: str, exc: Exception) -> int:
    """Prints a fault of the program itself as one ``PROG:
    FILE:LINE:COL: message`` line, an ``ExecutionError``'s call stack
    dropped, and returns the exit status: 2 when the frontend rejected
    the program, 1 for a run-time fault."""
    from ..chapel.errors import ChapelError

    where = str(exc).partition("\n")[0]
    print(f"{prog}: {where}", file=sys.stderr)
    return 2 if isinstance(exc, ChapelError) else 1


def _halt_status(prog: str, filename: str, result) -> int:
    """Exit 1, after one ``PROG: FILE: halted: MESSAGE`` line on stderr,
    when the profiled program called ``halt()``; else 0."""
    run = result.run_result
    if not run.halted:
        return 0
    print(f"{prog}: {filename}: halted: {run.halt_message}", file=sys.stderr)
    return 1


def _quarantine_gate(result, limit: float | None) -> int:
    """Exit 3 when the quarantine rate exceeds the CI gate."""
    if limit is None:
        return 0
    rate = result.report.stats.quarantine_rate
    if rate > limit:
        print(
            f"quarantine rate {rate:.3f} exceeds --fail-on-quarantine-rate "
            f"{limit:.3f}",
            file=sys.stderr,
        )
        return 3
    return 0


def _check_top(ap: argparse.ArgumentParser, args) -> None:
    """Exit-2 check on ``--top``, which every view-printing command takes."""
    if args.top < 1:
        ap.error(f"--top must be >= 1 (got {args.top})")


def _benchmark_source(spec: str) -> tuple[str, str]:
    """Resolves ``name[:variant]`` to (source text, display filename).

    Variants: ``original`` (default) and ``optimized`` for every
    benchmark; LULESH additionally accepts ``cenn`` and ``vg`` for the
    single-optimization variants, SpMV a ``dense`` baseline.  Raises
    ``ValueError`` on an unknown name or variant.
    """
    name, _, variant = spec.partition(":")
    variant = variant or "original"
    if name in ("spmv", "mttkrp"):
        if name == "spmv":
            from ..bench.programs import spmv as irr
        else:
            from ..bench.programs import mttkrp as irr
        if variant not in irr.VARIANTS:
            raise ValueError(
                f"unknown {name} variant {variant!r} "
                f"(want {'|'.join(irr.VARIANTS)})"
            )
        return irr.build_source(variant), f"{name}.chpl"
    if name in ("minimd", "clomp"):
        if variant not in ("original", "optimized"):
            raise ValueError(
                f"unknown {name} variant {variant!r} (want original|optimized)"
            )
        if name == "minimd":
            from ..bench.programs import minimd as prog
        else:
            from ..bench.programs import clomp as prog
        return (
            prog.build_source(optimized=(variant == "optimized")),
            f"{name}.chpl",
        )
    if name == "lulesh":
        from ..bench.programs import lulesh

        variants = {
            "original": lulesh.ORIGINAL,
            "optimized": lulesh.BEST_CASE,
            "cenn": lulesh.CENN_ONLY,
            "vg": lulesh.VG_ONLY,
        }
        if variant not in variants:
            raise ValueError(
                f"unknown lulesh variant {variant!r} "
                f"(want {'|'.join(variants)})"
            )
        return lulesh.build_source(variants[variant]), "lulesh.chpl"
    raise ValueError(
        f"unknown benchmark {name!r} (want minimd|clomp|lulesh|spmv|mttkrp)"
    )


def advise_main(argv: list[str] | None = None) -> int:
    """``advise`` subcommand: static analysis, optionally blame-ranked.

    Exit status: 0 when no error-severity findings, 1 when the race
    detector (or any error-level rule) fires — the CI-gate contract —
    or the ``--profile`` run faults or halts (after its report, one
    ``repro-advise: FILE: halted: MESSAGE`` line), and 2 for bad usage,
    a program the frontend rejects, or a module that fails IR
    verification.  The run flags apply with ``--profile``.
    """
    from ..analysis import (
        Severity,
        analyze_module,
        findings_to_json,
        rank_findings,
        render_findings,
    )
    from ..ir.verifier import VerificationError

    ap = argparse.ArgumentParser(
        prog="repro-advise",
        description="Blame-guided static optimization advisor + race detector",
    )
    ap.add_argument(
        "source", nargs="?", help="mini-Chapel source file to analyze"
    )
    ap.add_argument(
        "--benchmark",
        metavar="NAME[:VARIANT]",
        help="analyze a built-in benchmark (minimd|clomp|lulesh|spmv|mttkrp, "
        "variants original|optimized; lulesh also cenn|vg, spmv also dense) "
        "instead of a file",
    )
    ap.add_argument(
        "--profile",
        action="store_true",
        help="also run the profiler and rank findings by measured blame",
    )
    ap.add_argument(
        "--json", action="store_true", help="emit findings as JSON"
    )
    ap.add_argument(
        "--rules",
        nargs="*",
        default=None,
        metavar="RULE",
        help="run only these rules (default: all registered passes)",
    )
    ap.add_argument(
        "--min-severity",
        default="info",
        choices=["info", "warning", "error"],
        help="hide findings below this severity (exit status still "
        "reflects all findings)",
    )
    _add_run_flags(ap, profile=False)
    args = ap.parse_args(argv)

    if (args.source is None) == (args.benchmark is None):
        ap.error("give exactly one of SOURCE or --benchmark")
    run = _run_config(ap, args)
    if args.benchmark:
        try:
            source, filename = _benchmark_source(args.benchmark)
        except ValueError as exc:
            ap.error(str(exc))
    else:
        try:
            with open(args.source) as f:
                source = f.read()
        except OSError as exc:
            print(f"repro-advise: {exc}", file=sys.stderr)
            return 2
        filename = args.source

    report = None
    result = None
    blame_info = None
    try:
        if args.profile:
            from .profiler import Profiler

            result = Profiler(source, run, filename=filename).profile()
            module = result.module
            report = result.report
            blame_info = result.static_info
        else:
            from ..compiler.lower import compile_source

            module = compile_source(source, filename)
        findings = analyze_module(
            module, passes=args.rules, blame_info=blame_info
        )
    except VerificationError as exc:
        print(f"IR verification failed: {exc}", file=sys.stderr)
        return 2
    except _program_faults() as exc:
        return _program_error("repro-advise", exc)
    if report is not None:
        findings = rank_findings(findings, report)

    floor = Severity.parse(args.min_severity)
    shown = [f for f in findings if f.severity >= floor]
    if args.json:
        print(findings_to_json(shown))
    else:
        if report is not None:
            from ..views import render_stage

            print(render_stage(result, "hybrid", findings=shown))
            print()
        print(render_findings(shown, title=f"Advisor report: {filename}"))
    if result is not None:
        _print_degradation(result)
        gate = _halt_status("repro-advise", filename, result) or _quarantine_gate(
            result, args.fail_on_quarantine_rate
        )
        if gate:
            return gate
    has_errors = any(f.severity >= Severity.ERROR for f in findings)
    return 1 if has_errors else 0


if __name__ == "__main__":
    sys.exit(main())
