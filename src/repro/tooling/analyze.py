"""Offline analysis: post-mortem processing of a saved sample dataset.

The real tool's step 3 runs after (and separately from) execution: raw
address datasets are read back and combined with the static analysis.
This command reproduces that two-process workflow:

    # process 1: record
    python -m repro.tooling.cli prog.chpl --save-samples run.jsonl

    # process 2 (anywhere): analyze
    python -m repro.tooling.analyze run.jsonl --source prog.chpl --view all

The dataset header carries the source's SHA-256; analysis recompiles
the source with fresh deterministic instruction ids and refuses to
proceed on a hash mismatch (the ids would be meaningless).

``--save-samples`` writes a checksummed journal while the program
runs, so a killed run leaves one with a torn tail: it is analyzed up to
its verified prefix, and a status line reports how many records the
tail lost.  Plain v1 datasets from earlier versions still read.  Exit status: 0 on success; 1 for a damaged
journal header or a source mismatch; 2 for bad usage or a missing file.
"""

from __future__ import annotations

import argparse
import sys
from types import SimpleNamespace

from ..compiler.lower import compile_source
from ..errors import DatasetCorruptError
from ..pipeline.stages import (
    aggregate_stage,
    analyze_stage,
    attribute_stage,
    postmortem_stage,
)
from ..sampling.dataset import read_dataset, source_digest
from ..views import print_views


class DatasetMismatch(Exception):
    """The dataset was recorded from a different source text."""


def analyze_dataset(
    dataset_path: str, source: str, source_name: str = "program.chpl"
):
    """Re-runs steps 1+3 over a saved dataset (a journal's verified
    prefix); returns (module, postmortem, report)."""
    header, samples, _scan = read_dataset(dataset_path)
    return analyze_samples(header, samples, source, source_name)


def analyze_samples(
    header, samples, source: str, source_name: str = "program.chpl"
):
    """Steps 1+3 over a loaded dataset, through the pipeline's own
    stages; returns (module, postmortem, report).  A dataset is the raw
    stream from before any fault injection, so the tolerant post-mortem
    treats it exactly as a strict one would."""
    digest = source_digest(source)
    if digest != header.source_sha256:
        raise DatasetMismatch(
            f"dataset of {header.program} was recorded from source "
            f"{header.source_sha256[:12]}…, but the given source hashes "
            f"to {digest[:12]}…"
        )
    module = compile_source(source, source_name, fresh_ids=True)
    static_info = analyze_stage(module)
    pm = postmortem_stage(module, samples, options=static_info.options)
    attribution = attribute_stage(static_info, pm)
    report = aggregate_stage(header.program, pm, attribution, wall_seconds=0.0)
    report.locale_id = header.locale_id
    return module, pm, report


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-analyze",
        description="Post-mortem blame analysis of a saved sample dataset",
    )
    ap.add_argument("dataset", help="JSONL dataset from --save-samples")
    ap.add_argument("--source", required=True, help="the recorded program's source file")
    ap.add_argument("--view", choices=["data", "code", "hybrid", "all"], default="data")
    ap.add_argument("--top", type=int, default=20)
    args = ap.parse_args(argv)
    if args.top < 1:
        ap.error(f"--top must be >= 1 (got {args.top})")

    try:
        with open(args.source) as f:
            source = f.read()
        header, samples, scan = read_dataset(args.dataset)
    except OSError as exc:
        print(f"repro-analyze: {exc}", file=sys.stderr)
        return 2
    except (DatasetCorruptError, ValueError) as exc:
        # A damaged header (or v1 line) leaves nothing to trust.
        print(f"repro-analyze: {args.dataset}: {exc}", file=sys.stderr)
        return 1
    try:
        module, pm, report = analyze_samples(header, samples, source, args.source)
    except DatasetMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print_views(
        SimpleNamespace(report=report, module=module, postmortem=pm),
        args.view,
        args.top,
    )
    if scan is not None:
        print(
            f"[{scan.n_good} journal records verified, "
            f"{scan.n_corrupt} records lost to a torn tail]"
        )
    print(f"[{pm.n_raw} samples loaded, {pm.n_user} attributed]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
