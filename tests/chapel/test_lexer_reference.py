"""The master-regex lexer against the character-at-a-time reference.

``reference_lexer.Lexer`` is the scanner ``tokenize`` replaced.  On
generated text, on every ``.chpl`` file in the repository, on every
generated paper program, and on the rest of the front-end oracle's
corpus (the generated programs of ``tests/test_properties.py``, the
strings of the parser and lowering tests, the scoping programs of
``tests/compiler/test_frontend_reference.py``), the two must produce
the same ``(kind, text, line, column)`` tokens, or raise a ``LexError``
with the same message at the same location.
"""

import glob
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.programs import clomp, example_fig1, lulesh, minimd, mttkrp, spmv
from repro.chapel.errors import LexError
from repro.chapel.lexer import _DIGIT, tokenize

from ..compiler.test_frontend_reference import SCOPING, TEST_STRINGS
from ..test_properties import programs
from .reference_lexer import Lexer

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Fragments that sit on the scanner's decisions: every operator, the
#: comment delimiters, quotes and escapes, number pieces, CRLF, and
#: non-ASCII letters, digits and numerics (é is a letter, ² a digit
#: that is not decimal, ٣ a decimal digit, Ⅷ and ½ numeric only).
PIECES = [
    "..#", "..", "**", "+=", "-=", "*=", "/=", "==", "!=", "<=", ">=",
    "&&", "||", "=>", "+", "-", "*", "/", "=", "<", ">", "!", ".", "(",
    ")", "{", "}", "[", "]", ",", ";", ":", "%", "#", "?", "&", "|", "$",
    "/*", "*/", "//", '"', "'", "\\", "\\n", "\\t", "\\q", "\\'", '\\"',
    "e", "E", "_", "0", "1", "7", "12", "1e", "1.", ".5", "e+", "e-",
    "\r\n", "\n", " ", "\t", "\x0b", "\u00a0", "é", "²", "٣", "Ⅷ", "½",
    "x", "var", "forall", "true",
]
#: Single characters for free-form text.
ALPHABET = sorted(set("".join(PIECES)))


def lexed(text, filename="gen.chpl", reference=False):
    try:
        if reference:
            toks = Lexer(text, filename).tokenize()
        else:
            toks = tokenize(text, filename)
    except LexError as exc:
        return ("LexError", exc.message, exc.loc)
    return [(t.kind, t.text, t.loc.line, t.loc.column) for t in toks]


def assert_matches_reference(text, filename="gen.chpl"):
    assert lexed(text, filename) == lexed(text, filename, reference=True)


@given(st.lists(st.sampled_from(PIECES), max_size=30).map("".join))
@settings(max_examples=1500, deadline=None)
def test_generated_fragments_match_reference(text):
    assert_matches_reference(text)


@given(st.text(alphabet=ALPHABET, max_size=40))
@settings(max_examples=1500, deadline=None)
def test_generated_characters_match_reference(text):
    assert_matches_reference(text)


@pytest.mark.parametrize(
    "text",
    [
        "1.5E*", "1.5e+", "1e+x", "1_.5", "1._5", "0..9", "0..#8", "1.2.3",
        "/*/", "/* /* */", "/* */*/", "a/*b*/c", "a//b\nc", "x /= y",
        '"a\\', '"a\\\nb"', "'\\q'", '"\\t\\n\\\\\\"\\\'"', "'\"'",
        "Ⅷx", "xⅧ", "²", "1²", "٣٤", "é_1", "\r\n  x", "\x0b",
        "/* a\nb */ x", "x /*\n\n*/ y z", "/* /*\n*/ */x\ny", "a /* b */ c\n/*\n*/d",
    ],
)
def test_known_pitfalls_match_reference(text):
    assert_matches_reference(text)


def test_repository_sources_match_reference():
    paths = sorted(glob.glob(os.path.join(REPO, "**", "*.chpl"), recursive=True))
    assert len(paths) >= 13
    for path in paths:
        with open(path) as f:
            assert_matches_reference(f.read(), os.path.basename(path))


GENERATED = (
    [("minimd", minimd.build_source(optimized=o)) for o in (False, True)]
    + [("clomp", clomp.build_source(optimized=o)) for o in (False, True)]
    + [
        (variant.tag, lulesh.build_source(variant))
        for variant in [v for _, v in lulesh.TABLE_VII_VARIANTS]
        + [lulesh.BEST_CASE, lulesh.VG_ONLY, lulesh.CENN_ONLY]
    ]
    + [("fig1", example_fig1.build_source())]
    + [(f"spmv-{v}", spmv.build_source(v)) for v in spmv.VARIANTS]
    + [(f"mttkrp-{v}", mttkrp.build_source(v)) for v in mttkrp.VARIANTS]
)


@pytest.mark.parametrize("name,source", GENERATED, ids=[n for n, _ in GENERATED])
def test_generated_paper_programs_match_reference(name, source):
    assert_matches_reference(source, f"{name}.chpl")


def test_front_end_corpus_matches_reference():
    """The strings of the parser and lowering tests and the scoping
    programs that ``tests/compiler/test_frontend_reference.py`` feeds the
    whole front end."""
    for text in TEST_STRINGS + [source for _, source in SCOPING]:
        assert_matches_reference(text, "corpus.chpl")


@given(programs())
@settings(max_examples=50, deadline=None)
def test_generated_programs_match_reference(source):
    assert_matches_reference(source)


def test_digit_class_is_str_isdigit():
    """``_DIGIT`` names ``str.isdigit``'s characters explicitly, because
    ``\\d`` matches only the decimal ones."""
    digit = re.compile(_DIGIT)
    wrong = [
        hex(cp)
        for cp in range(0x110000)
        if bool(digit.fullmatch(chr(cp))) != chr(cp).isdigit()
    ]
    assert wrong == []
