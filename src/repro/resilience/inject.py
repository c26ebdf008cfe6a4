"""Deterministic fault injection over sample streams.

The injector sits between step 2 (execution/monitoring) and step 3
(post-mortem): :meth:`FaultInjector.degrader` takes the monitor's raw
sample batches and emits degraded copies according to a
:class:`~repro.resilience.faults.FaultPlan`.  It is the one place faults
enter a run, and post-mortem is the one place that quarantines or
recovers what they damage.  Injection is pure — the original stream is
never mutated — and fully deterministic: decisions derive from the
plan's seed and each sample's position, so the same (plan, stream) pair
always degrades identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..sampling.records import RawSample
from .faults import FaultPlan

#: Marker prefix for frames whose debug info was stripped: the resolver
#: sees a raw address instead of a linkage name, exactly what Dyninst
#: reports for a module without symbols.
STRIPPED_PREFIX = "0x"

#: Sentinel iid injected by payload corruption (clearly invalid).
CORRUPT_IID = -0xBAD


def is_stripped_frame(name: str) -> bool:
    """True for frame names that are raw addresses (no debug info)."""
    return name.startswith(STRIPPED_PREFIX)


@dataclass
class InjectionStats:
    """What the injector actually did to one stream."""

    examined: int = 0
    dropped: int = 0
    corrupted: int = 0
    truncated: int = 0
    tags_lost: int = 0
    stripped: int = 0  # samples with >= 1 stripped frame
    stripped_functions: tuple[str, ...] = ()

    @property
    def total_faults(self) -> int:
        return (
            self.dropped + self.corrupted + self.truncated
            + self.tags_lost + self.stripped
        )

    def as_dict(self) -> dict:
        return {
            "examined": self.examined,
            "dropped": self.dropped,
            "corrupted": self.corrupted,
            "truncated": self.truncated,
            "tags_lost": self.tags_lost,
            "stripped": self.stripped,
            "stripped_functions": list(self.stripped_functions),
        }


class FaultInjector:
    """Applies a :class:`FaultPlan` to raw samples.

    ``module`` is only needed for debug-info stripping (to know the
    function population); every other fault class works without it.
    """

    def __init__(self, plan: FaultPlan, module=None) -> None:
        self.plan = plan
        self.stats = InjectionStats()
        self._stripped: frozenset[str] = frozenset()
        if plan.strip_rate > 0.0 and module is not None:
            # ``main`` is never stripped: even fully stripped binaries
            # keep exported entry symbols in the dynamic symbol table.
            names = sorted(
                f.name
                for f in module.functions.values()
                if not f.is_artificial and f.name != "main"
            )
            rng = random.Random(f"{plan.seed}:strip")
            k = max(1, round(plan.strip_rate * len(names))) if names else 0
            self._stripped = frozenset(rng.sample(names, min(k, len(names))))
            self.stats.stripped_functions = tuple(sorted(self._stripped))

    @property
    def stripped_functions(self) -> frozenset[str]:
        return self._stripped

    # -- stream API ---------------------------------------------------------

    def degrade_samples(self, samples: list[RawSample]) -> list[RawSample]:
        """Returns a degraded copy of the stream (original untouched)."""
        return self.degrader()(samples)

    def degrader(self):
        """Returns a stateful batch-degrade function for streaming use.

        The returned callable maps ``list[RawSample] -> list[RawSample]``
        and holds one RNG across calls, so feeding the stream through it
        batch by batch degrades *exactly* as one
        :meth:`degrade_samples` call over the whole list would — the
        fate of the k-th busy sample depends only on the plan seed and
        k, never on how the stream was chunked.
        """
        if self.plan.is_clean:
            return lambda batch: list(batch)
        rng = random.Random(f"{self.plan.seed}:stream")

        def degrade(batch: list[RawSample]) -> list[RawSample]:
            out: list[RawSample] = []
            for s in batch:
                degraded = self._degrade_one(s, rng)
                if degraded is not None:
                    out.append(degraded)
            return out

        return degrade

    # -- per-sample ---------------------------------------------------------

    def _degrade_one(
        self, s: RawSample, rng: random.Random
    ) -> RawSample | None:
        """One sample through the fault gauntlet; None means dropped.

        Idle samples pass through untouched: they carry no payload worth
        corrupting, and dropping them would only flatter the profile.
        """
        self.stats.examined += 1
        if s.is_idle:
            # Idle samples consume NO randomness: the fate of the k-th
            # busy sample must not depend on how many idle samples the
            # scheduler happened to interleave before it.
            return s

        plan = self.plan
        drop = rng.random() < plan.drop_rate
        corrupt = rng.random() < plan.corrupt_rate
        truncate = rng.random() < plan.truncate_rate
        tagloss = rng.random() < plan.tag_loss_rate
        if drop:
            self.stats.dropped += 1
            return None

        stack = s.stack
        leaf_iid = s.leaf_iid
        spawn_tag = s.spawn_tag
        pre_spawn = s.pre_spawn_stack

        if corrupt:
            self.stats.corrupted += 1
            if rng.random() < 0.5:
                # Torn record: the sampled ip is garbage.
                leaf_iid = CORRUPT_IID
            elif stack:
                # Garbage frame address mid-walk.
                k = rng.randrange(len(stack))
                func, _iid = stack[k]
                stack = (
                    stack[:k] + ((func, 10**9 + k),) + stack[k + 1:]
                )

        if truncate:
            # The walker walks the *full* conceptual path — post-spawn
            # frames first, then the recorded pre-spawn continuation —
            # so truncation at depth k cuts across that whole walk, not
            # just the (typically depth-1) post-spawn part.
            pre_len = len(pre_spawn) if pre_spawn else 0
            if len(stack) + pre_len > plan.truncate_depth:
                self.stats.truncated += 1
                if plan.truncate_depth <= len(stack):
                    stack = stack[: plan.truncate_depth]
                    # The walker never reached the spawn boundary; the
                    # tasking-layer tag survives (it isn't part of the
                    # walk) but the recorded continuation is gone.
                    pre_spawn = None
                else:
                    pre_spawn = tuple(
                        pre_spawn[: plan.truncate_depth - len(stack)]
                    )

        if tagloss and s.spawn_tag is not None:
            self.stats.tags_lost += 1
            spawn_tag = None
            pre_spawn = None

        if self._stripped:
            new_stack, touched = self._strip(stack)
            if touched:
                stack = new_stack
            pre_touched = False
            if pre_spawn:
                new_pre, pre_touched = self._strip(tuple(pre_spawn))
                if pre_touched:
                    pre_spawn = new_pre
            if touched or pre_touched:
                self.stats.stripped += 1

        if (
            stack is s.stack
            and leaf_iid == s.leaf_iid
            and spawn_tag == s.spawn_tag
            and pre_spawn is s.pre_spawn_stack
        ):
            return s
        return RawSample(
            index=s.index,
            thread_id=s.thread_id,
            task_id=s.task_id,
            stack=stack,
            leaf_iid=leaf_iid,
            spawn_tag=spawn_tag,
            pre_spawn_stack=pre_spawn,
            is_idle=s.is_idle,
        )

    def _strip(
        self, stack: tuple[tuple[str, int], ...]
    ) -> tuple[tuple[tuple[str, int], ...], bool]:
        touched = False
        out = []
        for func, iid in stack:
            if func in self._stripped:
                out.append((f"{STRIPPED_PREFIX}{abs(iid):06x}", iid))
                touched = True
            else:
                out.append((func, iid))
        return tuple(out), touched
