"""The path-grouped code-centric view against the per-instance loop.

``build_code_centric`` walks each distinct call path once, weighted by
its count.  The reference below is the loop it replaced, which walks
every instance and resolves every frame's display name.  Both must give
the same ``(name, flat, cumulative)`` rows for live and
artifact-replayed profiles of the paper's benchmarks, clean and
fault-injected.
"""

from __future__ import annotations

import pytest

from repro.artifact import read_artifact, snapshot_from_result, write_artifact
from repro.blame.postmortem import count_paths
from repro.views.code_centric import (
    FunctionProfile,
    _display_name,
    build_code_centric,
)

from ..artifact.conftest import BENCHMARKS, FAULT_SPEC, profile_benchmark


def reference_code_centric(module, postmortem) -> list[FunctionProfile]:
    profiles: dict[str, FunctionProfile] = {}

    def get(name: str) -> FunctionProfile:
        p = profiles.get(name)
        if p is None:
            p = FunctionProfile(name)
            profiles[name] = p
        return p

    for inst in postmortem.instances:
        leaf = _display_name(module, inst.frames[0][0])
        get(leaf).flat += 1
        seen: set[str] = set()
        for func, _iid in inst.frames:
            name = _display_name(module, func)
            if name not in seen:
                seen.add(name)
                get(name).cumulative += 1
    out = list(profiles.values())
    out.sort(key=lambda p: (-p.flat, -p.cumulative, p.name))
    return out


def rows(profiles: list[FunctionProfile]) -> list[tuple[str, int, int]]:
    return [(p.name, p.flat, p.cumulative) for p in profiles]


@pytest.mark.parametrize("faults", [None, FAULT_SPEC], ids=["clean", "faulted"])
@pytest.mark.parametrize("name", BENCHMARKS)
def test_grouped_view_matches_per_instance_loop(name, faults, tmp_path):
    live = profile_benchmark(name, faults=faults)
    path = tmp_path / "run.cbp"
    write_artifact(str(path), snapshot_from_result(live))
    replayed = read_artifact(str(path))

    instances = live.postmortem.instances
    assert len(count_paths(instances)) < len(instances)  # paths repeat
    if faults is not None:
        assert live.postmortem.n_recovered > 0
    want = rows(reference_code_centric(live.module, live.postmortem))
    assert want
    for profile in (live, replayed):
        assert rows(reference_code_centric(profile.module, profile.postmortem)) == want
        assert rows(build_code_centric(profile.module, profile.postmortem)) == want
