"""Integer ``/`` and ``%`` mean one thing everywhere they are evaluated:
at run time, in the ``--fast`` constant folder and in ``param``
expressions.  Chapel truncates the quotient toward zero and gives the
remainder the sign of the dividend; the real remainder does too, as C's
``fmod`` does.  A zero divisor is a located error wherever it is
found."""

import itertools

import pytest

from repro.chapel.errors import ChapelError
from repro.compiler.lower import compile_source
from repro.compiler.passes import run_fast_pipeline
from repro.runtime.interpreter import ExecutionError, Interpreter

SIGNS = list(itertools.product((7, -7), (2, -2)))

#: (a, b) → (a / b, a % b) as C and Chapel define them.
TRUNCATED = {(7, 2): (3, 1), (-7, 2): (-3, -1), (7, -2): (-3, 1), (-7, -2): (3, -1)}


def program(a: int, b: int) -> str:
    """Prints a / b and a % b three ways: over variables (run time),
    over literals (folded under --fast) and as params."""
    return f"""
proc main() {{
  var a = {a};
  var b = {b};
  writeln(a / b, a % b);
  writeln(({a}) / ({b}), ({a}) % ({b}));
  param P = ({a}) / ({b});
  param Q = ({a}) % ({b});
  writeln(P, Q);
}}
"""


#: (a, b) → a % b on reals, as C's fmod gives it (Python's % floors:
#: -7.5 % 2.0 == 0.5 there).
REAL_MOD = {
    (7.5, 2.0): "1.5",
    (-7.5, 2.0): "-1.5",
    (7.5, -2.0): "1.5",
    (-7.5, -2.0): "-1.5",
}


def real_program(a: float, b: float) -> str:
    """Prints a % b on reals three ways, as :func:`program` does."""
    return f"""
proc main() {{
  var a = {a};
  var b = {b};
  writeln(a % b);
  writeln(({a}) % ({b}));
  param Q = ({a}) % ({b});
  writeln(Q);
}}
"""


def run(source: str, fast: bool = False, engine: str = "fast") -> list[str]:
    module = compile_source(source, "div.chpl")
    if fast:
        run_fast_pipeline(module)
    return Interpreter(module, num_threads=2, engine=engine).run().output


@pytest.mark.parametrize("a,b", SIGNS)
def test_every_evaluator_truncates(a, b):
    q, r = TRUNCATED[(a, b)]
    assert (q * b + r) == a
    expected = [f"{q} {r}"] * 3
    assert run(program(a, b)) == expected
    assert run(program(a, b), fast=True) == expected


@pytest.mark.parametrize("engine", ["generic", "fast"])
@pytest.mark.parametrize("a,b", list(REAL_MOD))
def test_real_modulo_truncates_like_fmod(a, b, engine):
    expected = [REAL_MOD[(a, b)]] * 3
    assert run(real_program(a, b), engine=engine) == expected
    assert run(real_program(a, b), fast=True, engine=engine) == expected


@pytest.mark.parametrize("engine", ["generic", "fast"])
def test_real_modulo_of_infinity(engine):
    # fmod(inf, y) is NaN and fmod(x, inf) is x, as in C; Python's
    # math.fmod raises on the first.
    source = (
        "proc main() {\n  var inf = 1e308 * 10.0;\n"
        "  writeln(inf % 2.0, -5.0 % inf);\n}\n"
    )
    assert run(source, engine=engine) == ["nan -5.0"]


@pytest.mark.parametrize("op,what", [("/", "division"), ("%", "modulo")])
@pytest.mark.parametrize("lhs,rhs", [("1", "0"), ("1.5", "0.0")])
def test_param_zero_divisor_is_a_located_error(op, what, lhs, rhs):
    source = f"proc main() {{\n  param Z = {lhs} {op} {rhs};\n  writeln(Z);\n}}\n"
    with pytest.raises(ChapelError) as info:
        compile_source(source, "div.chpl")
    assert str(info.value).startswith("div.chpl:2:")
    assert f"{what} by zero in param expression" in str(info.value)


@pytest.mark.parametrize("engine", ["generic", "fast"])
def test_real_modulo_by_zero_is_a_located_error(engine):
    source = "proc main() {\n  var d = 0.0;\n  var x = 1.5 % d;\n  writeln(x);\n}\n"
    with pytest.raises(ExecutionError) as info:
        run(source, engine=engine)
    assert str(info.value).startswith("div.chpl:3:")
    assert "modulo by zero" in str(info.value)
