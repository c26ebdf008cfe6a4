"""Tour of the communication advisor on the irregular workloads
(SpMV and sparse MTTKRP):

1. classify every array access in the COO SpMV kernel — provably
   LOCAL, conservatively REMOTE, or INDIRECT (index computed from
   array contents);
2. run the communication passes over the original: the edge-parallel
   scatter draws remote-access-batching and aggregation-candidate
   advice, blame-ranked against a measured profile so the indirection
   arrays the profile fingers come first;
3. apply the inspector-executor/CSR rewrite the advice describes and
   show the findings disappear;
4. cross-check the LOCAL labels dynamically: replay the run under a
   simulated block distribution and confirm no LOCAL access ever
   executed away from its data (the exactness guarantee);
5. repeat the fire/quiet story on MTTKRP, where all three passes fire
   at once (including indirection-hoist in the rank loop).

Run:  python examples/irregular_advisor_tour.py
"""

from repro.analysis import AnalysisContext, Locality, analyze_module, rank_findings
from repro.bench.programs import mttkrp, spmv
from repro.compiler.lower import compile_source
from repro.run_config import RunConfig
from repro.runtime.locales import LocaleObserver
from repro.tooling.profiler import Profiler

COMM_RULES = {
    "remote-access-batching",
    "aggregation-candidate",
    "indirection-hoist",
}


def banner(title: str) -> None:
    print("=" * 72)
    print(title)
    print("=" * 72)


def comm_findings(module):
    return [f for f in analyze_module(module) if f.rule in COMM_RULES]


def main() -> None:
    banner("1) Locality classification of the COO SpMV kernel")
    original = spmv.build_source("original")
    module = compile_source(original, "spmv.chpl")
    loc = AnalysisContext(module).locality()
    for verdict in Locality:
        hits = sorted(
            {
                f"{'/'.join(a.arrays) or '<temp>'}"
                for a in loc.accesses.values()
                if a.locality is verdict
            }
        )
        print(f"  {verdict.value:8s} {', '.join(hits)}")

    print()
    banner("2) Communication advice on the original, blame-ranked")
    findings = comm_findings(module)
    result = Profiler(
        original,
        RunConfig(config=spmv.config_for(iters=6), num_threads=8, threshold=997),
        filename="spmv.chpl",
    ).profile()
    for f in rank_findings(findings, result.report):
        pct = (
            f"{f.blame_percent:5.1f}% blame"
            if f.blame is not None
            else "unmeasured"
        )
        print(f"  {pct:14s} [{f.rule}] {f.where}  vars={','.join(f.variables)}")
        print(f"                 fix: {f.remediation}")

    print()
    banner("3) After the inspector-executor/CSR rewrite")
    optimized = compile_source(spmv.build_source("optimized"), "spmv.chpl")
    print(f"  communication findings: {len(comm_findings(optimized))}")

    print()
    banner("4) Dynamic cross-check of the LOCAL labels (4 locales)")
    obs = LocaleObserver(
        module, config=spmv.config_for(), num_threads=8, num_locales=4
    )
    obs.run()
    local_iids = {
        iid
        for iid, a in loc.accesses.items()
        if a.locality is Locality.LOCAL
    }
    violations = sum(
        1
        for iid in local_iids
        for e, o in obs.observed.get(iid, ())
        if e != o
    )
    remote_pairs = sum(
        1
        for iid, pairs in obs.observed.items()
        if iid not in local_iids
        for e, o in pairs
        if e != o
    )
    print(f"  LOCAL accesses observed off-locale: {violations} (must be 0)")
    print(f"  non-LOCAL (executing, owner) mismatches seen: {remote_pairs}")

    print()
    banner("5) MTTKRP: all three passes fire, then go quiet")
    for variant in ("original", "optimized"):
        m = compile_source(mttkrp.build_source(variant), "mttkrp.chpl")
        rules = sorted({f.rule for f in comm_findings(m)})
        print(f"  {variant:9s} -> {', '.join(rules) or 'quiet'}")


if __name__ == "__main__":
    main()
