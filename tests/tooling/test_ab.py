"""The A/B harness's verdict arithmetic (``tools/ab.py``) on canned
``run.py`` result lines."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "tools", "ab.py")
_spec = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def result_line(op_s: float, rss: float = 30.0, setup: float = 0.07, failed: int = 0) -> str:
    """The last line ``run.py`` prints for one run."""
    return json.dumps({
        "correct": not failed, "attempted": 20, "failed": failed,
        "metrics": {
            "op_s": {"value": op_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "setup_s": {"value": setup, "unit": "s"},
        },
    })


def op_values(lines: list[str]) -> list[float]:
    stdout = "== clomp_dense seed 3\n  op_s 1.0\n"
    return [
        ab.parse_result(stdout + line + "\n")["metrics"]["op_s"]["value"] for line in lines
    ]


PARENT = [1.00, 1.10, 0.95, 1.05, 1.02, 0.98, 1.08, 1.01, 0.97, 1.03]


class TestClaimVerdict:
    def test_met_with_nine_wins_and_a_gap_above_the_iqr(self):
        change = [p - 0.3 for p in PARENT]
        change[4] = PARENT[4] + 0.01  # one lost pair
        v = ab.claim_verdict(op_values(map(result_line, PARENT)),
                             op_values(map(result_line, change)))
        assert v["wins"] == "9 of 10"
        assert v["parent_median"] == pytest.approx(1.015)
        assert v["parent_iqr"] == pytest.approx(1.0575 - 0.9775)
        assert v["median_gap"] > v["parent_iqr"] and v["met"]

    def test_two_lost_pairs_fail_the_rule(self):
        change = [p - 0.3 for p in PARENT]
        change[0] = PARENT[0] + 0.01
        change[1] = PARENT[1]  # a tie counts for neither side
        v = ab.claim_verdict(PARENT, change)
        assert v["wins"] == "8 of 10" and not v["met"]

    def test_gap_within_the_parent_iqr_fails_the_rule(self):
        change = [p - 0.01 for p in PARENT]
        v = ab.claim_verdict(PARENT, change)
        assert v["wins"] == "10 of 10"
        assert v["median_gap"] == pytest.approx(0.01)
        assert v["parent_iqr"] > v["median_gap"] and not v["met"]

    def test_higher_is_better(self):
        v = ab.claim_verdict([1.0, 1.1, 0.9], [2.0, 2.1, 1.9], direction="higher")
        assert v["wins"] == "3 of 3" and v["median_gap"] == pytest.approx(1.0)
        assert v["met"]

    def test_a_larger_failed_share_fails_the_rule(self):
        change = [p - 0.3 for p in PARENT]
        assert ab.claim_verdict(PARENT, change, failed=(1, 1), attempted=(200, 200))["met"]
        v = ab.claim_verdict(PARENT, change, failed=(1, 2), attempted=(200, 200))
        assert v["wins"] == "10 of 10" and v["failed"] == "1 of 200 -> 2 of 200"
        assert not v["met"]
        # Shares, not counts: more ops attempted may fail more often.
        assert ab.claim_verdict(PARENT, change, failed=(1, 2), attempted=(100, 300))["met"]


class TestBoundsVerdict:
    def test_within_and_beyond_the_bound(self):
        assert ab.bounds_verdict([1.0, 1.0, 1.0], [1.2, 1.2, 1.2], 0.25,
                                 "lower")["verdict"] == "within"
        out = ab.bounds_verdict([1.0, 1.0, 1.0], [1.3, 1.3, 1.3], 0.25, "lower")
        assert out["worse_by"] == pytest.approx(0.3) and out["verdict"] == "exceeded"
        # Better is never a regression.
        assert ab.bounds_verdict([30.0], [20.0], 0.1, "lower")["verdict"] == "within"
        assert ab.bounds_verdict([2.0], [1.0], 0.25, "higher")["verdict"] == "exceeded"

    def test_a_parent_spread_wider_than_the_bound_is_unresolved(self):
        parent = [30.0, 31.0, 34.0, 35.0, 36.0]  # quartiles 30.5 and 35.5: 14.7% of 34
        out = ab.bounds_verdict(parent, parent, 0.1, "lower")
        assert out["parent_iqr_share"] == pytest.approx(5 / 34, abs=1e-4)
        assert out["worse_by"] == 0 and out["verdict"] == "unresolved"
        # The same spread within a wider bound is resolved.
        assert ab.bounds_verdict(parent, parent, 0.25, "lower")["verdict"] == "within"
        # So is a change whose every run beats every parent run.
        better = [p - 10.0 for p in parent]
        assert ab.bounds_verdict(parent, better, 0.1, "lower")["verdict"] == "within"
        assert ab.bounds_verdict(parent, better, 0.1, "higher")["verdict"] == "unresolved"
        assert ab.bounds_verdict([1.0, 1.5, 2.0], [3.0, 3.5, 4.0], 0.1,
                                 "higher")["verdict"] == "within"


def completed(stdout: str, returncode: int = 0, stderr: str = "") -> subprocess.CompletedProcess:
    return subprocess.CompletedProcess(["run.py"], returncode, stdout, stderr)


class TestCheckedResult:
    def test_a_correct_run_gives_its_result_line(self):
        out = ab.checked_result(completed("== clomp_dense seed 3\n" + result_line(0.7) + "\n"))
        assert out["metrics"]["op_s"]["value"] == 0.7

    def test_a_nonzero_exit_stops_the_campaign(self):
        with pytest.raises(RuntimeError, match="exited 1: Traceback\nboom"):
            ab.checked_result(completed(result_line(0.7) + "\n", 1, "Traceback\nboom\n"))

    def test_an_incorrect_run_stops_the_campaign(self):
        with pytest.raises(RuntimeError, match="1 of 20 ops failed"):
            ab.checked_result(completed(result_line(0.7, failed=1) + "\n"))


def test_parse_result_reads_the_last_json_line():
    stdout = "== replay seed 0\n" + result_line(0.5) + "\n" + result_line(0.25) + "\n"
    assert ab.parse_result(stdout)["metrics"]["op_s"]["value"] == 0.25
    with pytest.raises(ValueError):
        ab.parse_result("no result\n")
