"""One `variant_sweep` op: the paper's optimisation-study workflow in one
process.

Usage: python sweep_op.py THRESHOLD VARIANT.chpl...

Calls the `repro-profile` entry point once per LULESH variant (each
writes ``<stem>.cbp`` and prints its data view), then diffs Original
against the paper's best Table VII variant.  Run in a directory that
holds the variant sources; exits with the first nonzero CLI status.
"""

from __future__ import annotations

import sys

from repro.tooling.cli import main

from workloads import SWEEP_CONFIG, SWEEP_DIFF, profile_args


def sweep(thr: int, sources: list[str]) -> int:
    for source in sources:
        out = source.rsplit(".", 1)[0] + ".cbp"
        status = main(profile_args(source, thr, out, "data", SWEEP_CONFIG))
        if status:
            return status
    return main(["diff", *SWEEP_DIFF])


if __name__ == "__main__":
    sys.exit(sweep(int(sys.argv[1]), sys.argv[2:]))
