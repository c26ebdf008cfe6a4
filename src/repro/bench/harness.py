"""Experiment harness: runs the benchmark variants and regenerates the
paper's tables (timings, speedups, blame profiles).

Every benchmark in ``benchmarks/`` is a thin wrapper over these
functions, so the tables can also be produced interactively::

    from repro.bench import harness
    print(harness.render_speedup_table(harness.minimd_speedups()))
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..run_config import RunConfig
from ..tooling.profiler import ProfileResult, Profiler, run_only
from ..views.tables import render_table
from .programs import clomp, lulesh, minimd

#: The run every blame-profile experiment uses: the default 12 worker
#: threads (the paper's 12-core Xeon) and a prime PMU threshold.
PROFILE_RUN = RunConfig(threshold=4999)


def available_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the machine's core count, which inside a
    cpuset-restricted container (CI runners, cgroup limits) can be
    wildly wrong in either direction — the affinity mask is what bounds
    real parallelism.  Every benchmark records its host metadata through
    this one helper so the JSON artifacts agree on the number.
    """
    import os

    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux: no affinity API
        return os.cpu_count() or 1


def host_info() -> dict:
    """The ``host`` block benchmarks stamp into their result JSON."""
    import sys

    return {
        "cpu_count": available_cpus(),
        "python": sys.version.split()[0],
    }


@dataclass
class TimingRow:
    """One timed configuration."""

    label: str
    seconds: float

    def speedup_vs(self, base: "TimingRow") -> float:
        return base.seconds / self.seconds if self.seconds else float("inf")


@dataclass
class SpeedupResult:
    """Original-vs-optimized timings, with and without --fast."""

    benchmark: str
    rows: dict[str, TimingRow] = field(default_factory=dict)

    def speedup(self, optimized: str, original: str) -> float:
        return self.rows[optimized].speedup_vs(self.rows[original])


def time_variant(source: str, name: str, run: RunConfig = RunConfig()) -> float:
    """Simulated seconds of one run.

    Prefers the benchmark's own "elapsed" self-timer line (which, like
    the paper's benchmarks, excludes initialization); falls back to the
    whole-run wall clock.
    """
    result = run_only(source, run, filename=name)
    for line in reversed(result.output):
        if line.startswith("elapsed"):
            return float(line.split()[-1])
    return result.wall_seconds


def profile_variant(
    source: str, name: str, run: RunConfig = PROFILE_RUN, tap=None
) -> ProfileResult:
    """Full blame profile of one run (``tap`` as in
    :meth:`~repro.tooling.profiler.Profiler.profile`)."""
    return Profiler(source, run, filename=name).profile(tap=tap)


# ---------------------------------------------------------------------------
# MiniMD (Tables II and III)
# ---------------------------------------------------------------------------


def minimd_profile(optimized: bool = False, **cfg) -> ProfileResult:
    source = minimd.build_source(optimized=optimized)
    run = replace(PROFILE_RUN, config=minimd.config_for(**cfg))
    return profile_variant(source, "minimd.chpl", run)


def minimd_speedups(**cfg) -> SpeedupResult:
    """Paper Table III: original vs optimized, ± --fast."""
    config = minimd.config_for(**cfg)
    out = SpeedupResult("MiniMD")
    for fast in (False, True):
        for optimized in (False, True):
            label = f"{'opt' if optimized else 'orig'}{'/fast' if fast else ''}"
            src = minimd.build_source(optimized=optimized)
            run = RunConfig(config=config, fast=fast)
            out.rows[label] = TimingRow(label, time_variant(src, "minimd.chpl", run))
    return out


# ---------------------------------------------------------------------------
# CLOMP (Tables IV and V)
# ---------------------------------------------------------------------------


def clomp_profile(optimized: bool = False, tap=None, **cfg) -> ProfileResult:
    source = clomp.build_source(optimized=optimized)
    run = replace(PROFILE_RUN, config=clomp.config_for(**cfg))
    return profile_variant(source, "clomp.chpl", run, tap=tap)


def clomp_speedups_for_shape(
    num_parts: int, zones_per_part: int, timesteps: int = 1
) -> SpeedupResult:
    config = clomp.config_for(num_parts, zones_per_part, timesteps)
    out = SpeedupResult(f"CLOMP {num_parts}/{zones_per_part}")
    for fast in (False, True):
        for optimized in (False, True):
            label = f"{'opt' if optimized else 'orig'}{'/fast' if fast else ''}"
            src = clomp.build_source(optimized=optimized)
            run = RunConfig(config=config, fast=fast)
            out.rows[label] = TimingRow(label, time_variant(src, "clomp.chpl", run))
    return out


def clomp_table_v() -> list[tuple[str, int, int, SpeedupResult]]:
    """Paper Table V: four problem shapes × ±fast × orig/opt."""
    out = []
    for paper_label, parts, zones in clomp.TABLE_V_SHAPES:
        out.append((paper_label, parts, zones, clomp_speedups_for_shape(parts, zones)))
    return out


# ---------------------------------------------------------------------------
# LULESH (Fig. 4, Tables VI–IX)
# ---------------------------------------------------------------------------


def lulesh_profile(
    variant: lulesh.LuleshVariant | None = None, tap=None, **cfg
) -> ProfileResult:
    source = lulesh.build_source(variant)
    run = replace(PROFILE_RUN, config=lulesh.config_for(**cfg))
    return profile_variant(source, "lulesh.chpl", run, tap=tap)


def lulesh_time(
    variant: lulesh.LuleshVariant | None = None, fast: bool = False, **cfg
) -> float:
    source = lulesh.build_source(variant)
    run = RunConfig(config=lulesh.config_for(**cfg), fast=fast)
    return time_variant(source, "lulesh.chpl", run)


def lulesh_table_vii(**cfg) -> list[tuple[str, float, float]]:
    """Paper Table VII: the 11 unrolling configurations.

    Returns (tag, seconds, speedup-vs-original) rows.
    """
    rows: list[tuple[str, float, float]] = []
    original_time: float | None = None
    for tag, variant in lulesh.TABLE_VII_VARIANTS:
        t = lulesh_time(variant, **cfg)
        if tag == "Original":
            original_time = t
        assert original_time is not None
        rows.append((tag, t, original_time / t))
    return rows


def lulesh_table_ix(**cfg) -> dict[str, dict[str, float]]:
    """Paper Table IX: Original / P1 / VG / CENN / Best, ± --fast.

    Returns {tag: {"time": s, "speedup": x, "time_fast": s, "speedup_fast": x}}.
    """
    variants = {
        "Original": lulesh.ORIGINAL,
        "P 1": lulesh.P1_ONLY,
        "VG": lulesh.VG_ONLY,
        "CENN": lulesh.CENN_ONLY,
        "Best Case": lulesh.BEST_CASE,
    }
    times = {
        tag: {
            "time": lulesh_time(v, fast=False, **cfg),
            "time_fast": lulesh_time(v, fast=True, **cfg),
        }
        for tag, v in variants.items()
    }
    base = times["Original"]
    return {
        tag: {
            "time": t["time"],
            "speedup": base["time"] / t["time"],
            "time_fast": t["time_fast"],
            "speedup_fast": base["time_fast"] / t["time_fast"],
        }
        for tag, t in times.items()
    }


def lulesh_table_viii(**cfg) -> dict[str, dict[str, float]]:
    """Paper Table VIII: blame of the key variables under Original, P1,
    VG, CENN.  Returns {variant: {variable: blame_fraction}}."""
    variants = {
        "Original": lulesh.ORIGINAL,
        "P1": lulesh.P1_ONLY,
        "VG": lulesh.VG_ONLY,
        "CENN": lulesh.CENN_ONLY,
    }
    watched = [
        "hgfx", "hgfy", "hgfz", "shx", "shy", "shz", "hx", "hy", "hz",
        "hourgam", "hourmodx", "hourmody", "hourmodz",
        "dvdx", "dvdy", "dvdz", "determ", "b_x", "b_y", "b_z",
    ]
    out: dict[str, dict[str, float]] = {}
    for tag, variant in variants.items():
        prof = lulesh_profile(variant, **cfg)
        blames: dict[str, float] = {}
        for name in watched:
            b = prof.report.blame_of(name)
            if b == 0.0 and tag == "VG":
                # VG renames determ/dvdx to their global spellings.
                b = prof.report.blame_of(name + "G")
            blames[name] = b
        out[tag] = blames
    return out


# ---------------------------------------------------------------------------
# Rendering helpers (paper-style tables)
# ---------------------------------------------------------------------------


def render_speedup_table(result: SpeedupResult) -> str:
    rows = [
        [
            "w/o --fast",
            f"{result.rows['orig'].seconds:.4f}",
            f"{result.rows['opt'].seconds:.4f}",
            f"{result.speedup('opt', 'orig'):.2f}",
        ],
        [
            "w/ --fast",
            f"{result.rows['orig/fast'].seconds:.4f}",
            f"{result.rows['opt/fast'].seconds:.4f}",
            f"{result.speedup('opt/fast', 'orig/fast'):.2f}",
        ],
    ]
    return render_table(
        ["", "Original(s)", "Optimized(s)", "Speedup"],
        rows,
        title=f"{result.benchmark}: original vs optimized",
        aligns=["l", "r", "r", "r"],
    )
