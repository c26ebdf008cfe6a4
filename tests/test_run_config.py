"""RunConfig, the one validated run configuration: its defaults are the
CLI's, and every bad value the CLI can pass raises the ValueError whose
message the CLI prints."""

from __future__ import annotations

import argparse

import pytest

from repro.run_config import AdaptiveConfig, RunConfig
from repro.tooling import cli


def _parse(flags, profile=True):
    ap = argparse.ArgumentParser(prog="repro-profile profile")
    cli._add_run_flags(ap, profile)
    return ap, ap.parse_args(flags)


@pytest.mark.parametrize("profile", [True, False], ids=["profile", "advise"])
def test_defaults_equal_cli_defaults(profile):
    assert cli._run_config(*_parse([], profile)) == RunConfig()


def test_adaptive_defaults_equal_cli_defaults():
    run = cli._run_config(*_parse(["--adaptive"]))
    assert run == RunConfig(adaptive=AdaptiveConfig())


def test_config_is_a_read_only_copy():
    values = {"n": 8}
    run = RunConfig(config=values)
    values["n"] = 9
    assert run.config == {"n": 8}
    with pytest.raises(TypeError):
        run.config["n"] = 10


def test_fault_spec_string_becomes_a_plan():
    from repro.resilience.faults import FaultPlan

    run = RunConfig(faults="drop=0.25,seed=3")
    assert run.faults == FaultPlan(seed=3, drop_rate=0.25)


@pytest.mark.parametrize(
    "flags, build",
    [
        (["--threads", "0"], lambda: RunConfig(num_threads=0)),
        (["--threshold", "-5"], lambda: RunConfig(threshold=-5)),
        (["--batch-size", "0"], lambda: RunConfig(batch_size=0)),
        (["--round-samples", "0"], lambda: RunConfig(batch_size=0)),
        (["--confidence", "1.0"], lambda: AdaptiveConfig(confidence=1.0)),
        (["--confidence", "0"], lambda: AdaptiveConfig(confidence=0.0)),
        (["--ci-width", "1.5"], lambda: AdaptiveConfig(ci_width=1.5)),
        (["--stability-window", "0"], lambda: AdaptiveConfig(stability_window=0)),
        (["--inject-faults", "bogus=1"], lambda: RunConfig(faults="bogus=1")),
        (["--inject-faults", "drop=2"], lambda: RunConfig(faults="drop=2")),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else "",
)
def test_invalid_value_raises_the_cli_message(flags, build, capsys):
    with pytest.raises(ValueError) as raised:
        build()
    message = str(raised.value)
    assert message.startswith("--")  # names the flag, one option per value
    ap, args = _parse(flags)
    with pytest.raises(SystemExit) as exited:
        cli._run_config(ap, args)
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert err.rstrip().endswith(f"error: {message}")
