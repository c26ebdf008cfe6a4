"""A/B claim harness: alternating parent/change runs of the repo benchmark.

Usage::

    python tools/ab.py PARENT CHANGE --workload W [--pairs N] [--seed S]
        [--name NAME] [--claim] [--work DIR]

PARENT and CHANGE each name a commit, which is exported with ``git
archive`` into a work directory, or a directory, which is taken as it is
(a working tree with uncommitted changes, say).  Pair ``k`` runs
``benchmarks/e2e/run.py --workload W --seed S+k`` once in each tree,
each run from its own tree's sources and for ``run.py``'s own run
length; the side that goes first alternates from pair to pair, so host
drift spreads over both.  A run that exits nonzero or reports
``correct: false`` stops the campaign: its timings mean nothing.

The result goes to ``BENCH_<NAME>.json`` (``NAME`` defaults to the
workload) in the shared schema: ``about``, ``host``, ``commits``,
``claim``, ``end_to_end`` and ``per_layer``.  An existing file is
updated: ``end_to_end[W]`` is replaced and every other key kept, so one
file collects a claimed workload and the workloads that must not move.
Each pair records both sides' end-to-end metrics and each run's
``host.calib_s``.  Each workload records the sides' medians and
quartiles, the operations attempted and failed, the wins, and two
verdicts:

* ``claim``: the change wins at least nine tenths of the pairs on
  ``op_s`` (ties count for neither side), the median gap exceeds the
  parent's IQR, and no larger share of the change's operations failed;
* ``bounds``: per end-to-end metric, ``within`` when the change's
  median is no worse than the parent's by more than ``BENCHMARK.json``'s
  bound, ``exceeded`` when it is, and ``unresolved`` when the parent's
  own IQR is a larger share of its median than the bound (its runs
  spread too widely to tell) and not every run of the change reads
  better than every run of the parent.

``--claim`` also copies the workload's claim verdict to the top-level
``claim``.  ``per_layer`` is left for traces made outside the harness.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RULE = "change wins >= 9 of 10 pairs and the median gap exceeds the parent's IQR"


def summarize(values: list[float]) -> dict:
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives them
    (the benchmark's own summary)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def better(a: float, b: float, direction: str) -> bool:
    """Is ``a`` better than ``b``?"""
    return a < b if direction == "lower" else a > b


def claim_verdict(parent: list[float], change: list[float], direction: str = "lower",
                  failed: tuple[int, int] = (0, 0), attempted: tuple[int, int] = (1, 1)) -> dict:
    """The claim rule on paired values (``parent[k]`` with ``change[k]``);
    ``failed`` and ``attempted`` are the (parent, change) operation
    counts over all runs."""
    n = len(parent)
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    ps, cs = summarize(parent), summarize(change)
    iqr = ps["q3"] - ps["q1"]
    gap = ps["median"] - cs["median"] if direction == "lower" else cs["median"] - ps["median"]
    # Cross-multiplied shares: no larger share of the change's ops failed.
    no_more_failures = failed[1] * attempted[0] <= failed[0] * attempted[1]
    return {
        "rule": RULE,
        "wins": f"{wins} of {n}",
        "parent_median": round(ps["median"], 6),
        "change_median": round(cs["median"], 6),
        "parent_iqr": round(iqr, 6),
        "median_gap": round(gap, 6),
        "failed": f"{failed[0]} of {attempted[0]} -> {failed[1]} of {attempted[1]}",
        "met": n > 0 and wins * 10 >= 9 * n and gap > iqr and no_more_failures,
    }


def bounds_verdict(parent: list[float], change: list[float], bound: float,
                   direction: str) -> dict:
    """Is the change's median within ``bound`` (a share of the parent's
    median) of the parent's, in the worse direction?  Unresolved when
    the parent's IQR alone is a larger share of its median, unless every
    change run is better than every parent run."""
    ps = summarize(parent)
    p = ps["median"]
    c = summarize(change)["median"]
    worse = (c - p) / p if direction == "lower" else (p - c) / p
    spread = (ps["q3"] - ps["q1"]) / p
    if direction == "lower":
        all_better = max(change) < min(parent)
    else:
        all_better = min(change) > max(parent)
    if spread > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "within" if worse <= bound else "exceeded"
    return {"bound": bound, "worse_by": round(worse, 4),
            "parent_iqr_share": round(spread, 4), "verdict": verdict}


def parse_result(stdout: str) -> dict:
    """The JSON result line ``run.py`` prints last."""
    for line in reversed(stdout.strip().splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("run.py printed no result line")


def export(ref: str, work: str, label: str) -> tuple[str, str]:
    """(tree, identity) for ``ref``: a directory as it is, or a commit
    exported with ``git archive`` under ``work``."""
    if os.path.isdir(ref):
        tree = os.path.abspath(ref)
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree,
                              capture_output=True, text=True)
        if head.returncode:
            return tree, "a directory outside git"
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=tree,
                               capture_output=True, text=True).stdout.strip()
        return tree, head.stdout.strip() + (" plus uncommitted changes" if dirty else "")
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=ROOT,
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    tree = os.path.join(work, label)
    os.makedirs(tree)
    archive = subprocess.run(
        ["git", "archive", "--format=tar", sha], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree)
    return tree, sha


def checked_result(proc: subprocess.CompletedProcess) -> dict:
    """The result line of a ``run.py`` run that worked; RuntimeError for
    a run that exited nonzero or reports ``correct: false``."""
    if proc.returncode:
        raise RuntimeError(f"run.py exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    result = parse_result(proc.stdout)
    if not result.get("correct"):
        raise RuntimeError(f"run.py reports an incorrect run ({result.get('failed')} "
                           f"of {result.get('attempted')} ops failed)")
    return result


def run_side(tree: str, workload: str, seed: int, out: str) -> dict:
    """One ``run.py`` run in ``tree``: its result line plus the run's
    ``host.calib_s``."""
    argv = [
        sys.executable, os.path.join(tree, "benchmarks", "e2e", "run.py"),
        "--workload", workload, "--seed", str(seed), "--out", out,
    ]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    result = checked_result(
        subprocess.run(argv, cwd=tree, capture_output=True, text=True, env=env)
    )
    with open(os.path.join(out, "results", f"{workload}-s{seed}-trace0.json")) as f:
        record = json.load(f)
    result["calib_s"] = record["host.calib_s"]
    return result


def campaign(trees: dict, workload: str, pairs: int, seed: int, work: str,
             bench: dict) -> dict:
    """Runs the pairs and returns the workload's ``end_to_end`` entry."""
    specs = bench["end_to_end"]
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    entry_pairs = {}
    for k in range(pairs):
        s = seed + k
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        row: dict = {"first": order[0]}
        for side in order:
            out = os.path.join(work, "out", f"{side}-{workload}-{s}")
            r = run_side(trees[side], workload, s, out)
            runs[side].append(r)
            for spec in specs:
                row[f"{side}_{spec['name']}"] = round(r["metrics"][spec["name"]]["value"], 4)
            row[f"{side}_calib_s"] = round(r["calib_s"], 4)
            row[f"{side}_failed"] = r["failed"]
            print(f"  {workload} seed {s} {side}: op_s "
                  f"{r['metrics']['op_s']['value']:.4f} calib {r['calib_s']:.4f}", flush=True)
        entry_pairs[str(s)] = row
    entry: dict = {"seeds": [seed + k for k in range(pairs)]}
    for side in ("parent", "change"):
        entry[side] = {
            spec["name"]: {
                k: round(v, 4) if isinstance(v, float) else v
                for k, v in summarize(
                    [r["metrics"][spec["name"]]["value"] for r in runs[side]]
                ).items()
            }
            for spec in specs
        }
        entry[side]["attempted"] = sum(r["attempted"] for r in runs[side])
        entry[side]["failed"] = sum(r["failed"] for r in runs[side])
    entry["pairs"] = entry_pairs
    values = {
        side: {spec["name"]: [r["metrics"][spec["name"]]["value"] for r in runs[side]]
               for spec in specs}
        for side in runs
    }
    entry["claim"] = dict(
        claim_verdict(
            values["parent"]["op_s"], values["change"]["op_s"],
            failed=(entry["parent"]["failed"], entry["change"]["failed"]),
            attempted=(entry["parent"]["attempted"], entry["change"]["attempted"]),
        ),
        metric="op_s",
    )
    entry["bounds"] = {
        spec["name"]: bounds_verdict(values["parent"][spec["name"]],
                                     values["change"][spec["name"]],
                                     spec["bound"], spec["better"])
        for spec in specs
    }
    return entry


def host_info() -> dict:
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="commit or directory")
    ap.add_argument("change", help="commit or directory")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0, help="pair k runs seed S+k")
    ap.add_argument("--name", help="writes BENCH_<NAME>.json (default: the workload)")
    ap.add_argument("--claim", action="store_true",
                    help="this workload's op_s verdict is the file's claim")
    ap.add_argument("--work", help="work directory (default: a temporary one)")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    path = os.path.join(ROOT, f"BENCH_{args.name or args.workload}.json")
    doc: dict = {}
    if os.path.exists(path):
        with open(path) as f:
            doc = json.load(f)
    with tempfile.TemporaryDirectory() as tmp:
        work = os.path.abspath(args.work) if args.work else tmp
        os.makedirs(work, exist_ok=True)
        trees, commits = {}, {}
        for side in ("parent", "change"):
            trees[side], commits[side] = export(getattr(args, side), work, f"tree-{side}")
        entry = campaign(trees, args.workload, args.pairs, args.seed, work, bench)
    doc.setdefault("about", "")
    doc["host"] = host_info()
    doc["commits"] = commits
    doc.setdefault("claim", None)
    doc.setdefault("end_to_end", {})[args.workload] = entry
    doc.setdefault("per_layer", {})
    if args.claim:
        doc["claim"] = dict(entry["claim"], workload=args.workload)
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    verdict = entry["claim"]
    print(f"{args.workload}: op_s wins {verdict['wins']}, median gap "
          f"{verdict['median_gap']:.4f} vs parent IQR {verdict['parent_iqr']:.4f}: "
          f"{'met' if verdict['met'] else 'not met'}; bounds "
          + ", ".join(f"{k} {v['verdict']} ({v['worse_by']:+.2%})"
                      for k, v in entry["bounds"].items()))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
