"""Chapel's integer division and remainder, for every place that
evaluates them: ``param`` expressions, the ``--fast`` constant folder and
the runtime.

Chapel, like C, truncates integer quotients toward zero, and the
remainder takes the sign of the dividend, so ``(a / b) * b + a % b ==
a``: ``-7 / 2`` is ``-3`` and ``-7 % 2`` is ``-1``.  The real remainder
truncates alike, as C's ``fmod`` does: ``-7.5 % 2.0`` is ``-1.5``.
Python's ``//`` and ``%`` floor instead (``-4``, ``1`` and ``0.5``).
Each caller reports a zero divisor in its own terms before calling.
"""

from __future__ import annotations

import math


def int_div(a: int, b: int) -> int:
    """``a / b`` on integers, truncated toward zero; ``b`` is nonzero."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def int_mod(a: int, b: int) -> int:
    """``a % b`` on integers, with the sign of ``a``; ``b`` is nonzero."""
    return a - int_div(a, b) * b


def real_mod(a: float, b: float) -> float:
    """``a % b`` on reals, C's ``fmod``: with the sign of ``a``; ``b``
    is nonzero.  An infinite ``a`` gives NaN, as in C."""
    return math.fmod(a, b) if math.isfinite(a) else math.nan
