"""The front end equals the reference parser and lowering.

``tests/chapel/reference_parser.py`` keeps the recursive-descent parser
with one method per precedence level, and
``tests/compiler/reference_lowering.py`` keeps the lowering, builder
bookkeeping and verifier from before the front end was tuned.  For every
input, ``frontend_mismatches`` compares tokens (against the
character-at-a-time ``reference_lexer``), ASTs with dataclass equality,
and the module from fresh ids before and after the ``--fast`` passes:
the printed IR with its instruction, register and block ids, every
instruction's full location, class, operand kinds and types, and every
raised lex, parse, name, type or verification error (class, message,
location).

Inputs: the ``benchmarks/e2e`` programs; MiniMD and CLOMP, original and
optimized; the LULESH best case; the Fig. 1 example; SpMV and MTTKRP;
three programs on scoping and typing (``SCOPING``);
the generated programs of ``tests/test_properties.py``; every string in
the parser and lowering tests (their malformed programs among them);
and generated expression text, where the flat expression parser must
build the reference's AST or raise its error.  The CI
``frontend-identity`` job runs the ``benchmarks/e2e`` inputs
(``reference_lowering.e2e_mismatches``).
"""

import ast as pyast
import glob
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.programs import clomp, example_fig1, lulesh, minimd, mttkrp, spmv
from repro.chapel.errors import ChapelError
from repro.chapel.lexer import tokenize
from repro.chapel.parser import parse
from repro.chapel.tokens import SourceLocation
from repro.chapel.types import INT, VOID
from repro.compiler.lower import compile_source
from repro.ir import instructions as I
from repro.ir.module import BasicBlock, Function
from repro.ir.verifier import VerificationError, verify_module

from ..chapel.reference_parser import Parser as ReferenceParser
from ..test_properties import programs
from . import reference_lowering
from .reference_lowering import frontend_mismatches

HERE = os.path.dirname(os.path.abspath(__file__))
E2E_INPUTS = os.path.join(HERE, os.pardir, os.pardir, "benchmarks", "e2e", "inputs")


#: Programs on the lowering's scoping and typing decisions: locals that
#: shadow a global or an outer local in blocks, loops, unrolled ``param``
#: bodies, iterator consumers and ``select`` arms, with the outer name
#: used again after; an iterator whose yields sit in block scopes with
#: locals of different types (an array in one, a tuple in the other),
#: which the consumer body does not see; an iterator formal that hides a
#: global inside the iterator but not in the consumer body; ``**`` on ``real(32)``,
#: which promotes to ``real``; and locals, and a misplaced ``config``,
#: in blocks of the module's own statements.
SCOPING = [
    ("shadowing", """
var x = 1.5;
config const n = 2;
var a = n + 1;
var b = n * 2.0;
iter pairs(w: int): int { yield w; yield w + 1; }
proc main() {
  var y = 2;
  { var y = 3.5; x += y; }
  x += y;
  for i in 1..2 { var x = i; y += x; }
  for param k in 0..1 { var y = k * 0.5; x += y; }
  for v in pairs(y) { var y = v * 1.5; x += y; }
  select y { when 3 { var x = 7; y += x; } otherwise { var y = 1.5; x += y; } }
  writeln(x + y + a + b);
}
"""),
    ("iterator-scopes", """
var A: [0..1] int;
iter two(): int {
  { var t = (A, 1); yield t[0][1] + t[1]; }
  { var t = ((1, 2), 1); yield t[0][1] + t[1]; }
}
proc main() {
  var s = 0;
  for i in two() { var t = i * 2; s += t; }
  var h: real(32) = 2.0;
  var g = h ** h + h * h;
  writeln(s, g);
}
"""),
    ("iterator-formal-hidden", """
var x = 1.5;
iter pairs(x: int): int { yield x; yield x + 1; }
proc main() { for v in pairs(2) { var y = v * 1.5; x += y; } writeln(x); }
"""),
    ("module-blocks", """
var total = 0;
{ var t = 2; total += t; }
for i in 1..3 { var t = i * 2; total += t; }
if total > 3 { var t = 1.5; total -= 1; }
proc main() { writeln(total); }
"""),
    ("config-in-block", """
{ config const n = 2; }
proc main() { writeln(n); }
"""),
]


def _program_sources() -> list[tuple[str, str]]:
    named = [
        ("minimd-original", minimd.build_source()),
        ("minimd-optimized", minimd.build_source(optimized=True)),
        ("clomp-original", clomp.build_source()),
        ("clomp-optimized", clomp.build_source(optimized=True)),
        ("lulesh-best-case", lulesh.build_source(lulesh.BEST_CASE)),
        ("fig1", example_fig1.build_source()),
        *((f"spmv-{v}", spmv.build_source(v)) for v in spmv.VARIANTS),
        *((f"mttkrp-{v}", mttkrp.build_source(v)) for v in mttkrp.VARIANTS),
    ]
    for path in sorted(glob.glob(os.path.join(E2E_INPUTS, "**", "*.chpl"), recursive=True)):
        with open(path) as f:
            named.append((f"e2e-{os.path.basename(path)}", f.read()))
    return named


PROGRAMS = _program_sources()
NAMED = SCOPING + PROGRAMS


@pytest.mark.parametrize("name,source", NAMED, ids=[n for n, _ in NAMED])
def test_programs_match_reference(name, source):
    assert frontend_mismatches(source, f"{name}.chpl") == []


def test_duplicate_config_is_a_located_error(tmp_path, monkeypatch, capsys):
    # A config name is declared once, like any global (the reference
    # lowering let a second `config` replace the first).
    from repro.tooling.cli import main as cli_main

    monkeypatch.chdir(tmp_path)
    (tmp_path / "dup.chpl").write_text(
        "config const n = 2;\nvar a = n + 1;\nconfig const n = 2.5;\n"
        "proc main() { writeln(a, n); }\n"
    )
    assert cli_main(["profile", "dup.chpl"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["repro-profile: dup.chpl:3:8: duplicate global 'n'"]


def _test_strings() -> list[str]:
    """Every string literal in the parser and lowering tests: the
    programs they compile, the malformed ones they expect to fail, and
    the odd name or message, which must fail alike."""
    paths = [
        os.path.join(HERE, os.pardir, "chapel", "test_parser.py"),
        os.path.join(HERE, os.pardir, "chapel", "test_iterator_parsing.py"),
        *sorted(glob.glob(os.path.join(HERE, "test_*.py"))),
    ]
    found: dict[str, None] = {}
    for path in paths:
        if os.path.basename(path) == os.path.basename(__file__):
            continue
        with open(path) as f:
            tree = pyast.parse(f.read())
        for node in pyast.walk(tree):
            if isinstance(node, pyast.Constant) and isinstance(node.value, str):
                found.setdefault(node.value, None)
    return list(found)


TEST_STRINGS = _test_strings()


def test_test_suite_strings_match_reference():
    assert len(TEST_STRINGS) > 100
    bad = {
        text: found
        for text in TEST_STRINGS
        if (found := frontend_mismatches(text, "test.chpl"))
    }
    assert bad == {}


@given(programs())
@settings(max_examples=25, deadline=None)
def test_generated_programs_match_reference(src):
    assert frontend_mismatches(src, "gen.chpl") == []


#: Expression pieces on the parser's decisions: every binary operator
#: and its precedence neighbours, ranges with ``by`` and ``#``, unary
#: operators, reductions, if-expressions, postfix calls, indexing and
#: members, tuples and domain literals, and tokens that end or break an
#: expression.
EXPR_PIECES = [
    "a", "b", "f", "min", "max", "1", "2.5", "true", '"s"',
    "||", "&&", "==", "!=", "<", "<=", ">", ">=", "..", "..#", "by",
    "+", "-", "*", "/", "%", "**", "!", "reduce",
    "if", "then", "else", "(", ")", "[", "]", "{", "}", ".", ",",
    "domain", "size", "new", "R", ";", "=", "+=", "?", "in",
]


def _parsed(text, reference):
    """The AST (or the error) of ``text``: the product parser reads the
    lexer's columns, the reference parser its tokens."""
    try:
        if reference:
            return ReferenceParser(tokenize(text, "expr.chpl"), "expr.chpl").parse_program()
        return parse(text, "expr.chpl")
    except ChapelError as exc:
        return (type(exc).__name__, exc.message, exc.loc)


def _parses_alike(text):
    assert _parsed(text, reference=False) == _parsed(text, reference=True)


@given(
    st.lists(st.sampled_from(EXPR_PIECES), min_size=1, max_size=14).map(" ".join),
    st.sampled_from(["var x = {};", "x = {};", "f({}, b);", "if {} then x = 1;"]),
)
@settings(max_examples=2000, deadline=None)
def test_generated_expressions_parse_like_reference(expr, statement):
    _parses_alike(statement.format(expr))


@pytest.mark.parametrize(
    "expr",
    [
        "a == b == c", "a && b == c == d", "x || a < b < c", "a .. b .. c",
        "a == b .. c .. d", "a .. b < c .. d", "a .. b by c by d",
        "a .. #b by 2 + 3", "- a ** b ** - c", "+ reduce A * 2",
        "min reduce A + max reduce B", "a * + reduce b", "a ** b * c ** d",
        "if a then b else if c then d else e", "(a, b)[1] . size ( )",
        "! a && ! b || c", "a + reduce b", "f(a)(b)", "{1..2, 3..4}",
        "a < b && c .. d == e",
    ],
)
def test_precedence_pitfalls_parse_like_reference(expr):
    _parses_alike(f"var x = {expr};")


# ---------------------------------------------------------------------------
# The verifier: the first broken invariant and its message
# ---------------------------------------------------------------------------

_LOC = SourceLocation("v.chpl", 1, 1)


def _broken_modules():
    """A small compiled module, broken one invariant (or two) at a time."""

    def fresh():
        return compile_source(
            "proc g(): int { return 1; }\n"
            "proc main() { var s = 0; forall i in 1..4 with (+ reduce s) { s += g(); }\n"
            "  if s > 2 then writeln(s); }"
        )

    def fn(m, name):
        return m.functions[name]

    def outlined(m):
        return next(f for f in m.functions.values() if f.outlined_from)

    def drop_terminator(m):
        fn(m, "main").blocks[0].instructions.pop()

    def empty_block(m):
        fn(m, "main").add_block(BasicBlock("empty"))

    def no_blocks(m):
        fn(m, "g").blocks.clear()

    def duplicate_iid(m):
        instrs = fn(m, "main").blocks[0].instructions
        instrs[1].iid = instrs[0].iid

    def mid_block_terminator(m):
        block = fn(m, "main").blocks[0]
        block.instructions.insert(0, I.Ret(_LOC))

    def register_twice(m):
        block = fn(m, "main").blocks[0]
        first = next(i for i in block.instructions if i.result is not None)
        block.instructions.insert(-1, I.Load(_LOC, first.result, first.result))

    def foreign_branch(m):
        block = fn(m, "main").blocks[-1]
        block.instructions[-1] = I.Br(_LOC, fn(m, "g").blocks[0])

    def foreign_cbr(m):
        f = fn(m, "main")
        cbr = next(i for b in f.blocks for i in b.instructions if isinstance(i, I.CBr))
        cbr.else_block = BasicBlock("elsewhere")

    def undefined_register(m):
        block = fn(m, "main").blocks[0]
        block.instructions.insert(0, I.Store(_LOC, I.Register(INT), I.GlobalRef(INT, "q")))

    def ret_without_value(m):
        fn(m, "g").blocks[-1].instructions[-1] = I.Ret(_LOC)

    def unknown_callee(m):
        block = outlined(m).blocks[0]
        block.instructions.insert(0, I.Call(_LOC, None, "nowhere", []))

    def unknown_outlined(m):
        f = fn(m, "main")
        spawn = next(i for b in f.blocks for i in b.instructions if isinstance(i, I.SpawnJoin))
        spawn.outlined = "gone"

    def extra_function(m):
        extra = Function("zz", [], VOID, _LOC)
        extra.add_block(BasicBlock("only"))
        m.add_function(extra)

    breaks = [
        drop_terminator, empty_block, no_blocks, duplicate_iid,
        mid_block_terminator, register_twice, foreign_branch, foreign_cbr,
        undefined_register, ret_without_value, unknown_callee,
        unknown_outlined, extra_function,
    ]
    for b in breaks:
        yield b.__name__, fresh, (b,)
    # Two faults: the verifier must report the same one first.
    for first, second in [
        (unknown_callee, extra_function), (unknown_callee, empty_block),
        (undefined_register, duplicate_iid), (unknown_outlined, ret_without_value),
        (undefined_register, unknown_callee), (foreign_branch, undefined_register),
    ]:
        yield f"{first.__name__}+{second.__name__}", fresh, (first, second)


BROKEN = list(_broken_modules())


@pytest.mark.parametrize("name,fresh,breaks", BROKEN, ids=[b[0] for b in BROKEN])
def test_verifier_reports_like_reference(name, fresh, breaks):
    outcomes = []
    for verify in (verify_module, reference_lowering.verify_module):
        with reference_lowering.fresh_ids():
            module = fresh()
            for b in breaks:
                b(module)
            with pytest.raises(VerificationError) as exc:
                verify(module)
        outcomes.append(str(exc.value))
    assert outcomes[0] == outcomes[1]


def test_verifier_accepts_what_reference_accepts():
    for _, source in PROGRAMS[:6]:
        module = compile_source(source)
        verify_module(module)
        reference_lowering.verify_module(module)
