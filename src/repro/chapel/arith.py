"""Chapel's integer division and remainder, for every place that
evaluates them: ``param`` expressions, the ``--fast`` constant folder and
the runtime.

Chapel, like C, truncates integer quotients toward zero, and the
remainder takes the sign of the dividend, so ``(a / b) * b + a % b ==
a``: ``-7 / 2`` is ``-3`` and ``-7 % 2`` is ``-1``.  Python's ``//`` and
``%`` floor instead (``-4`` and ``1``).  Each caller reports a zero
divisor in its own terms before calling.
"""

from __future__ import annotations


def int_div(a: int, b: int) -> int:
    """``a / b`` on integers, truncated toward zero; ``b`` is nonzero."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def int_mod(a: int, b: int) -> int:
    """``a % b`` on integers, with the sign of ``a``; ``b`` is nonzero."""
    return a - int_div(a, b) * b
