"""The static blame analysis equals the set-based reference.

``reference_analysis`` keeps the analysis as it ran before it moved to
dense instruction ids and int bitsets.  ``analysis_mismatches`` compares
the two per function: root sets and alias buckets (with their iteration
order), write sets, deep writes, call-site root maps, variable metadata,
global alias facts, ``by_var`` (values and key order), ``blamed_at`` for
every instruction, exit variables and transfer maps.

Inputs: the paper's benchmarks, original and optimized; every Table VII
LULESH variant; the Fig. 1 example; the irregular workloads; the
``benchmarks/e2e`` inputs (each is one of the above, so it is analyzed
once); an alias chain that leaves phase 1 unconverged; the generated
programs of ``tests/test_properties.py``; and two hand-built functions
whose fixpoint needs a second pass.  MiniMD, CLOMP and LULESH also run
under every named ablation.  The CI ``analysis-identity`` job runs the
e2e inputs under every ablation (``reference_analysis.e2e_mismatches``).
"""

import glob
import os

import pytest
from hypothesis import given, settings

from repro.bench.programs import clomp, example_fig1, lulesh, minimd, mttkrp, spmv
from repro.blame.dataflow import DataFlow, VarKey
from repro.blame.options import ABLATIONS, FULL
from repro.chapel.tokens import SourceLocation
from repro.chapel.types import INT, REAL, VOID, ArrayType
from repro.compiler.lower import compile_source
from repro.ir.builder import IRBuilder
from repro.ir.instructions import Constant, GlobalRef
from repro.ir.module import Function, GlobalVar, Module

from ..test_properties import programs
from .reference_analysis import analysis_mismatches
from .test_dataflow_reuse import CHAIN_SRC

E2E_INPUTS = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "benchmarks", "e2e", "inputs"
)


def _sources() -> dict[str, str]:
    named = [
        ("minimd:original", minimd.build_source()),
        ("minimd:optimized", minimd.build_source(optimized=True)),
        ("clomp:original", clomp.build_source()),
        ("clomp:optimized", clomp.build_source(optimized=True)),
        *((f"lulesh:{tag}", lulesh.build_source(v)) for tag, v in lulesh.TABLE_VII_VARIANTS),
        ("lulesh:best-case", lulesh.build_source(lulesh.BEST_CASE)),
        ("example_fig1", example_fig1.build_source()),
        *((f"spmv:{v}", spmv.build_source(v)) for v in spmv.VARIANTS),
        ("mttkrp", mttkrp.build_source()),
        ("chain", CHAIN_SRC),
    ]
    for path in sorted(glob.glob(os.path.join(E2E_INPUTS, "**", "*.chpl"), recursive=True)):
        with open(path) as f:
            named.append((f"e2e:{os.path.basename(path)}", f.read()))
    unique: dict[str, str] = {}
    for name, source in named:
        unique.setdefault(source, name)
    return {name: source for source, name in unique.items()}


SOURCES = _sources()
_MODULES: dict[str, Module] = {}


def module_of(name: str) -> Module:
    if name not in _MODULES:
        _MODULES[name] = compile_source(SOURCES[name], f"{name}.chpl")
    return _MODULES[name]


def test_inputs_cover_the_e2e_programs():
    e2e = glob.glob(os.path.join(E2E_INPUTS, "**", "*.chpl"), recursive=True)
    assert len(e2e) == 13
    for path in e2e:
        with open(path) as f:
            assert f.read() in SOURCES.values()


@pytest.mark.parametrize("name", list(SOURCES))
def test_full_options(name):
    assert analysis_mismatches(module_of(name), FULL) == []


@pytest.mark.parametrize("ablation", list(ABLATIONS))
@pytest.mark.parametrize("name", ["minimd:original", "clomp:original", "lulesh:Original"])
def test_ablations(name, ablation):
    assert analysis_mismatches(module_of(name), ABLATIONS[ablation]) == []


@given(programs())
@settings(max_examples=25, deadline=None)
def test_generated_programs(src):
    assert analysis_mismatches(compile_source(src, "gen.chpl")) == []


def _main(name: str) -> tuple[Module, Function, IRBuilder, SourceLocation]:
    loc = SourceLocation(f"{name}.chpl", 1, 1)
    module = Module(name)
    module.add_global(GlobalVar("A", ARRAY, loc))
    fn = module.add_function(Function("main", [], VOID, loc))
    return module, fn, IRBuilder(fn), loc


ARRAY = ArrayType(REAL)


def test_load_before_its_alias_store_takes_a_second_pass():
    """``main`` loads the array variable ``v`` and writes through the
    loaded view before the store ``v = A`` that adds ``A`` to ``v``'s
    alias bucket: only a second pass gives the load ``A``'s root, and
    with it the write through the view."""
    module, fn, b, loc = _main("alias_store")
    b.set_block(b.new_block("entry"))
    v = b.alloca(loc, ARRAY, "v")
    view = b.load(loc, v, ARRAY)
    elem = b.elem_addr(loc, view, [Constant(INT, 0)], REAL)
    b.store(loc, Constant(REAL, 1.0), elem)
    b.store(loc, GlobalRef(ARRAY, "A"), v)
    b.ret(loc)
    assert analysis_mismatches(module) == []
    df = DataFlow(fn, module)
    a = VarKey("global", "A")
    assert (a, ()) in df.roots[view.rid]
    assert a in df.writes


def test_use_laid_out_before_its_definition_takes_a_second_pass():
    """The block that writes through ``%x`` is laid out before the
    block that loads ``%x``, though it runs after it: the first pass
    reads ``%x`` before ``%x`` has roots."""
    module, fn, b, loc = _main("forward_use")
    entry, use, define = b.new_block("entry"), b.new_block("use"), b.new_block("define")
    b.set_block(entry)
    v = b.alloca(loc, ARRAY, "v")
    b.br(loc, define)
    b.set_block(define)
    x = b.load(loc, v, ARRAY)
    b.br(loc, use)
    b.set_block(use)
    elem = b.elem_addr(loc, x, [Constant(INT, 0)], REAL)
    b.store(loc, Constant(REAL, 1.0), elem)
    b.ret(loc)
    assert analysis_mismatches(module) == []
    df = DataFlow(fn, module)
    v_key = VarKey("local", v.producer.iid)
    assert df.roots[elem.rid] == {(v_key, (("index",),))}
    assert v_key in df.writes
