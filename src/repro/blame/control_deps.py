"""Implicit blame edges: control dependence between basic blocks.

Paper §IV.A: "For implicit relationships, we use the control flow graph
and generated dominator tree to infer implicit relationships for each
basic block.  All variables within control dependent basic blocks have a
relationship to the implicit variables responsible for the control flow."

Concretely: every instruction depends on the terminators (``cbr``) of
the blocks its block is control-dependent on — which is why, in the
paper's Fig. 1 example, line 18 (``if a<b``) lands in the blame lines of
``a`` (line 19's write is control-dependent on it).

:func:`control_deps` computes one function's control dependence once,
per block, for both of its consumers: the backward slicer takes the
transitive controllers (every level of a loop nest controls the
innermost body), and the implicit *iterable* blame the immediate ones
(only the innermost loop's domain/array takes the body's samples).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir import instructions as I
from ..ir.cfg import CFG
from ..ir.dominators import control_dependence
from ..ir.module import Function


@dataclass(frozen=True)
class ControlDeps:
    """Control dependence of one function's blocks, indexed like
    ``function.blocks``.  Instruction sets are int bitsets over dense
    ids: an instruction's position in ``function.instructions()``."""

    #: Per block: the bitset of its own instructions.
    spans: list[int]
    #: Per block: the branches controlling it directly.
    immediate: list[list[I.CBr]]
    #: Per block: the bitset of the branches controlling it at any depth.
    transitive: list[int]


def control_deps(function: Function) -> ControlDeps:
    blocks = function.blocks
    index = {b: k for k, b in enumerate(blocks)}
    block_deps = control_dependence(CFG(function))
    direct = [set(block_deps.get(b, ())) for b in blocks]
    immediate = [
        [d.terminator for d in deps if isinstance(d.terminator, I.CBr)]
        for deps in direct
    ]
    # Transitive closure over blocks (loop nests chain dependences).
    # Iterative fixpoint: correct in the presence of dependence cycles
    # (loops are control-dependent on themselves).
    closure = [{index[d] for d in deps} for deps in direct]
    changed = True
    while changed:
        changed = False
        for current in closure:
            add: set[int] = set()
            for k in current:
                add |= closure[k]
            if not add <= current:
                current |= add
                changed = True

    spans: list[int] = []
    branches: list[int] = []  # per block: its terminator's bit, if a cbr
    start = 0
    for block in blocks:
        n = len(block.instructions)
        spans.append(((1 << n) - 1) << start)
        start += n
        cbr = n and isinstance(block.instructions[-1], I.CBr)
        branches.append(1 << (start - 1) if cbr else 0)
    transitive = []
    for controllers in closure:
        mask = 0
        for k in controllers:
            mask |= branches[k]
        transitive.append(mask)
    return ControlDeps(spans=spans, immediate=immediate, transitive=transitive)
