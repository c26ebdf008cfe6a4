"""Phase 2 of ModuleBlameInfo reuses phase 1's DataFlows; they must equal
a fresh phase-2 build.

Phase 1 builds every function's ``DataFlow`` once per alias round.  When
a round converges, its flows were built from the final alias facts, so
phase 2 keeps them instead of building them again; when phase 1 stops
unconverged at its 3-round cap, phase 2 rebuilds them.  ``DataFlow``
itself makes one pass over the instruction types it propagates roots
through, repeated only while a root set or alias bucket grew after the
pass had read it, then one pass over the types it records writes for.

The reference here is the set-based analysis (``reference_analysis``)
as it ran before: phase 1 (``reference_aliases``), then per function a
fresh ``ReferenceDataFlow``, which visits every instruction in whole
passes to the fixpoint, and fresh blame sets, exit variables and
transfer function from the final facts.
"""

import pytest

from repro.bench.programs import clomp, lulesh, minimd
from repro.blame import static_info
from repro.blame.dataflow import DataFlow
from repro.blame.exit_vars import compute_exit_vars
from repro.blame.options import ABLATIONS, FULL
from repro.blame.transfer import TransferFunction
from repro.compiler.lower import compile_source

from . import reference_analysis

#: Four class-typed globals aliased hop by hop from four functions: each
#: alias round propagates one hop, so three rounds do not converge.
CHAIN_SRC = """
class Box { var v: real; }
var a = new Box(1.0);
var b = new Box(2.0);
var c = new Box(3.0);
var d = new Box(4.0);
var e = new Box(5.0);
proc p1() { b = a; }
proc p2() { c = b; }
proc p3() { d = c; }
proc p4() { e = d; }
proc main() { p1(); p2(); p3(); p4(); e.v = 7.0; writeln(a.v); }
"""

SOURCES = {
    "minimd": minimd.build_source(optimized=False),
    "clomp": clomp.build_source(optimized=False),
    "lulesh": lulesh.build_source(),
    "chain": CHAIN_SRC,
}

_MODULES: dict = {}


class ReferenceDataFlow(reference_analysis.DataFlow):
    """Both passes over every instruction, whatever its type."""

    def _analyze(self):
        instrs = list(self.function.instructions())
        for p in self.function.params:
            if p.intent == "ref":
                key = self._meta_for_formal(p.name)
                self.roots[p.register.rid] = frozenset({(key, ())})
        changed = True
        iterations = 0
        while changed:
            changed = False
            iterations += 1
            if iterations > 50:
                break
            for instr in instrs:
                if self._flow_instr(instr):
                    changed = True
        for instr in instrs:
            self._collect_writes(instr)


def module_of(name):
    if name not in _MODULES:
        _MODULES[name] = compile_source(SOURCES[name], f"{name}.chpl")
    return _MODULES[name]


def reference_aliases(module, options):
    """Phase 1 as it ran before: rounds of throw-away DataFlows; returns
    (alias facts, rounds run, converged)."""
    aliases = {}
    for rounds in range(1, 4):
        merged = {k: set(v) for k, v in aliases.items()}
        for fn in module.functions.values():
            df = ReferenceDataFlow(
                fn, module, global_aliases=aliases, options=options
            )
            for key, roots in df.stored_roots.items():
                if key.kind == "global":
                    merged.setdefault(key, set()).update(
                        r for r in roots if r[0].kind == "global"
                    )
        new_aliases = {k: frozenset(v) for k, v in merged.items()}
        if new_aliases == aliases:
            return aliases, rounds, True
        aliases = new_aliases
    return aliases, rounds, False


def flow_state(df):
    return (
        df.roots,
        df.stored_roots,
        df.writes,
        df.path_writes,
        df.deep_write_iids,
        df.call_arg_roots,
        df.var_meta,
    )


def count_builds(monkeypatch, module, options):
    builds = []

    class CountingDataFlow(DataFlow):
        def __init__(self, *args, **kwargs):
            builds.append(args[0].name)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(static_info, "DataFlow", CountingDataFlow)
    info = static_info.ModuleBlameInfo(module, options=options)
    monkeypatch.undo()
    return info, len(builds)


@pytest.mark.parametrize(
    "name,options",
    [
        ("minimd", FULL),
        ("clomp", FULL),
        ("lulesh", FULL),
        ("chain", FULL),
        ("minimd", ABLATIONS["no-descriptor-writes"]),
        ("chain", ABLATIONS["no-alias-tracking"]),
    ],
)
def test_reused_flows_equal_a_fresh_phase_2(monkeypatch, name, options):
    module = module_of(name)
    info, builds = count_builds(monkeypatch, module, options)
    aliases, rounds, converged = reference_aliases(module, options)
    assert info.global_aliases == aliases
    n_functions = len(module.functions)
    # One build per function per round, plus a rebuild when unconverged.
    assert builds == n_functions * (rounds if converged else rounds + 1)
    assert list(info.functions) == list(module.functions)
    for fname, fn in module.functions.items():
        got = info.functions[fname]
        df = ReferenceDataFlow(
            fn, module, global_aliases=aliases, options=options
        )
        assert flow_state(got.dataflow) == flow_state(df)
        fresh_sets = reference_analysis.compute_blame_sets(fn, df)
        assert got.blame_sets.by_var == fresh_sets.by_var
        assert got.blame_sets.by_iid == fresh_sets.by_iid
        assert got.exit_vars == compute_exit_vars(fn, df)
        assert got.transfer._by_callsite == TransferFunction(df)._by_callsite


@pytest.mark.parametrize(
    "name,aliases,rounds,converged",
    [
        ("minimd", 3, 2, True),
        ("clomp", 0, 1, True),
        ("lulesh", 0, 1, True),
        ("chain", 4, 3, False),
    ],
)
def test_alias_rounds(name, aliases, rounds, converged):
    """The inputs cover every phase-1 outcome: no aliases (one round),
    aliases that converge in the second round, and the round cap."""
    facts, n_rounds, did_converge = reference_aliases(module_of(name), FULL)
    assert (len(facts), n_rounds, did_converge) == (aliases, rounds, converged)


def test_lulesh_builds_one_dataflow_per_function(monkeypatch):
    module = module_of("lulesh")
    _, builds = count_builds(monkeypatch, module, FULL)
    assert builds == len(module.functions) == 22
