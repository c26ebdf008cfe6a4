"""Fault-plan description: what to break, how often, under which seed.

A :class:`FaultPlan` is a frozen, fully deterministic recipe.  The same
plan applied to the same sample stream always injects the same faults
(the injector derives every decision from ``seed``), so degraded runs
are as reproducible as clean ones — a property the stability benches
and the CI smoke step rely on.

Fault classes (mirroring how real telemetry degrades):

``drop``      sample loss — the overflow fired but the record vanished.
``corrupt``   payload corruption — bad ``leaf_iid`` or garbage frame
              addresses (bit flips, torn writes).
``truncate``  stack-walk truncation at depth *k* — the walker gave up
              before reaching the root.
``tagloss``   spawn-tag loss — the tasking-layer breadcrumb needed for
              pre/post-spawn gluing is gone.
``strip``     debug-info stripping — a fraction of functions resolve to
              raw addresses only.

CLI spec grammar (``--inject-faults``)::

    drop=0.1,truncate=0.1:3,tagloss=0.05,corrupt=0.02,strip=0.1,seed=42

Rates are fractions in [0, 1]; ``truncate`` takes an optional ``:k``
depth (default 2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import SampleFormatError

#: Each fault class (also its spec key) → the plan field holding its rate.
_RATE_FIELDS = {
    "drop": "drop_rate",
    "corrupt": "corrupt_rate",
    "truncate": "truncate_rate",
    "tagloss": "tag_loss_rate",
    "strip": "strip_rate",
}

#: The fault classes a plan can sweep.
FAULT_CLASSES = tuple(_RATE_FIELDS)


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault-injection recipe."""

    seed: int = 0
    #: Per-sample fault rates, each in [0, 1].
    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    truncate_rate: float = 0.0
    truncate_depth: int = 2
    tag_loss_rate: float = 0.0
    #: Fraction of user functions whose debug info is stripped.
    strip_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS.values():
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise SampleFormatError(f"{name} must be in [0, 1], got {v}")
        if self.truncate_depth < 1:
            raise SampleFormatError("truncate_depth must be >= 1")

    @property
    def is_clean(self) -> bool:
        """True when the plan injects nothing."""
        return all(getattr(self, name) == 0.0 for name in _RATE_FIELDS.values())

    def with_rate(self, fault: str, rate: float) -> "FaultPlan":
        """Returns a copy with one fault class set to ``rate`` (used by
        the stability sweep to isolate classes)."""
        field = _RATE_FIELDS.get(fault)
        if field is None:
            raise SampleFormatError(f"unknown fault class {fault!r}")
        return replace(self, **{field: rate})

    def for_locale(self, locale_id: int) -> "FaultPlan":
        """Derives a per-locale plan: same rates, decorrelated seed, so
        every locale degrades independently but reproducibly."""
        return replace(self, seed=self.seed * 1000003 + locale_id * 7919)

    # -- CLI spec -----------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parses the ``--inject-faults`` spec grammar (see module doc)."""
        kwargs: dict[str, object] = {}
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise SampleFormatError(
                    f"bad fault spec item {item!r} (want name=value)"
                )
            name, raw = item.split("=", 1)
            name = name.strip().lower()
            raw = raw.strip()
            try:
                if name == "seed":
                    kwargs["seed"] = int(raw)
                elif name == "truncate":
                    rate, _, depth = raw.partition(":")
                    kwargs["truncate_rate"] = float(rate)
                    if depth:
                        kwargs["truncate_depth"] = int(depth)
                elif name in _RATE_FIELDS:
                    kwargs[_RATE_FIELDS[name]] = float(raw)
                else:
                    raise SampleFormatError(
                        f"unknown fault spec key {name!r} "
                        f"(want {'|'.join(FAULT_CLASSES)}|seed)"
                    )
            except ValueError as exc:
                if isinstance(exc, SampleFormatError):
                    raise
                raise SampleFormatError(
                    f"bad value in fault spec item {item!r}: {exc}"
                ) from exc
        return cls(**kwargs)  # type: ignore[arg-type]
