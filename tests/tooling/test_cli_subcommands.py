"""The subcommand CLI: profile/view/merge/diff wiring, --version, and
graceful failure on unknown commands and damaged artifacts."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.tooling.cli import main as cli_main

SOURCE = """
config const n = 150;
var A: [0..#n] real;
forall i in 0..#n {
  A[i] = i * 2.0;
}
var total = 0.0;
for i in 0..#n {
  total += A[i];
}
"""

FAST_ARGS = ["--threads", "2", "--threshold", "997"]


@pytest.fixture()
def source_file(tmp_path):
    f = tmp_path / "prog.chpl"
    f.write_text(SOURCE)
    return str(f)


@pytest.fixture()
def artifact(source_file, tmp_path, capsys):
    path = tmp_path / "run.cbp"
    rc = cli_main(
        ["profile", source_file, "-o", str(path), "--view", "none", *FAST_ARGS]
    )
    assert rc == 0
    capsys.readouterr()
    return str(path)


class TestDispatch:
    def test_version_flag(self, capsys):
        assert cli_main(["--version"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")

    def test_version_matches_artifact_created_by(self, artifact, capsys):
        # `--version` and an artifact's header name the same version.
        from repro.artifact.format import read_artifact

        assert cli_main(["--version"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == f"repro {repro.tool_version()}"
        assert read_artifact(artifact).meta.created_by == out

    def test_no_args_prints_usage(self, capsys):
        assert cli_main([]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_unknown_command_exits_2_with_usage(self, capsys):
        assert cli_main(["frobnicate"]) == 2
        err = capsys.readouterr().err
        assert "unknown command 'frobnicate'" in err
        assert "usage:" in err

    def test_legacy_form_still_profiles(self, source_file, capsys):
        rc = cli_main([source_file, "--view", "data", *FAST_ARGS])
        assert rc == 0
        assert "Data-centric view" in capsys.readouterr().out

    def test_missing_source_is_a_clean_error(self, tmp_path, capsys):
        rc = cli_main(["profile", str(tmp_path / "nope.chpl")])
        assert rc == 2
        assert "repro-profile:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["advise", "nope.chpl"], "repro-advise: [Errno 2]"),
            (["advise", "--benchmark", "nosuch"], "unknown benchmark 'nosuch'"),
            (["advise", "--benchmark", "minimd:x"], "unknown minimd variant"),
            (["advise", "--benchmark", "minimd", "--config", "foo"],
             "bad --config entry 'foo'"),
            (["merge", "out.cbp", "in.cbp", "--missing-locales", "x,1"],
             "--missing-locales wants comma-separated locale ids"),
        ],
    )
    def test_other_usage_errors_exit_2(self, tmp_path, monkeypatch, argv,
                                       message, capsys):
        # The advise and merge equivalents of the profile exit-2 cases:
        # one usage line or one `repro-` line, never a traceback.
        monkeypatch.chdir(tmp_path)
        try:
            rc = cli_main(argv)
        except SystemExit as exc:
            rc = exc.code
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.cbp").exists()

    def test_startup_loads_no_pool_machinery(self):
        # Every CLI run pays for this import, and the serial pipeline
        # needs no executor, pickling or signal handling
        # (concurrent.futures would also drag in logging).
        code = (
            "import sys; before = set(sys.modules); "
            "import repro.tooling.cli; "
            "print(sorted({'concurrent.futures', 'logging', 'pickle', "
            "'signal'} & (set(sys.modules) - before)))"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_artifact_commands_load_no_pipeline(self, artifact, tmp_path):
        # view, merge, diff and --version only read artifacts: none of
        # them may pay for the front end, IR, engine, static analysis or
        # pipeline.  The documented top-level names still resolve, on
        # first use.
        merged = str(tmp_path / "merged.cbp")
        code = textwrap.dedent(
            f"""
            import contextlib, io, sys
            from repro.tooling.cli import main
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["view", {artifact!r}, "--view", "all"]) == 0
                assert main(["diff", {artifact!r}, {artifact!r}]) == 0
                assert main(["merge", {merged!r}, {artifact!r}]) == 0
                assert main(["--version"]) == 0
            heavy = ("compiler", "runtime", "chapel", "ir", "analysis", "pipeline")
            print(sorted(
                m for m in sys.modules
                if m.split(".")[:2] in [["repro", h] for h in heavy]
                or m == "repro.tooling.profiler"
            ))
            import repro
            from repro.tooling import Profiler, ProfileResult, run_only
            from repro.tooling import profiler
            from repro.compiler import lower
            assert repro.Profiler is Profiler is profiler.Profiler
            assert repro.ProfileResult is ProfileResult is profiler.ProfileResult
            assert repro.run_only is run_only is profiler.run_only
            assert repro.compile_source is lower.compile_source
            assert repro.lower_program is lower.lower_program
            """
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_unknown_top_level_name_is_an_attribute_error(self):
        import repro.tooling

        for package in (repro, repro.tooling):
            with pytest.raises(AttributeError, match="no_such_name"):
                package.no_such_name


class TestProfileAndView:
    def test_view_output_byte_identical_to_live(
        self, source_file, tmp_path, capsys
    ):
        art = tmp_path / "run.cbp"
        rc = cli_main(
            [
                "profile", source_file, "-o", str(art),
                "--view", "all", "--top", "10", *FAST_ARGS,
            ]
        )
        assert rc == 0
        live = capsys.readouterr().out

        rc = cli_main(["view", str(art), "--view", "all", "--top", "10"])
        assert rc == 0
        replayed = capsys.readouterr().out
        # The view subcommand's whole stdout (all three windows) must
        # appear verbatim inside the live profile output.
        assert replayed in live

    def test_streaming_profile_matches(self, source_file, tmp_path, capsys):
        rc = cli_main(["profile", source_file, "--view", "data", *FAST_ARGS])
        assert rc == 0
        live = capsys.readouterr().out
        rc = cli_main(
            [
                "profile", source_file, "--view", "data",
                "--batch-size", "16", *FAST_ARGS,
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out == live

    def test_adaptive_profile_stops_early_and_replays(
        self, source_file, tmp_path, capsys
    ):
        path = tmp_path / "adaptive.cbp"
        rc = cli_main(
            [
                "profile", source_file, "--adaptive",
                "--ci-width", "0.4", "--round-samples", "8",
                "-o", str(path), "--view", "all", *FAST_ARGS,
            ]
        )
        assert rc == 0
        live = capsys.readouterr().out
        assert "[adaptive: stopped early" in live
        assert "~ adaptive: stopped early" in live
        # The truncated artifact replays byte-identically.
        rc = cli_main(["view", str(path), "--view", "all"])
        assert rc == 0
        assert capsys.readouterr().out in live

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--confidence", "0"], "must be in (0, 1) exclusive"),
            (["--confidence", "1"], "must be in (0, 1) exclusive"),
            (["--confidence", "1.5"], "must be in (0, 1) exclusive"),
            (["--confidence", "-0.1"], "must be in (0, 1) exclusive"),
            (["--ci-width", "0"], "must be in (0, 1) exclusive"),
            (["--ci-width", "1"], "must be in (0, 1) exclusive"),
            (["--ci-width", "2.0"], "must be in (0, 1) exclusive"),
            (["--threads", "0"], "--threads must be >= 1 (got 0)"),
            (["--threshold", "0"], "--threshold must be >= 1 (got 0)"),
            (["--threshold", "-5"], "--threshold must be >= 1 (got -5)"),
            (["--batch-size", "0"], "--batch-size must be >= 1"),
            (["--fast", "--save-samples", "s.jsonl"], "(drop --fast)"),
            (["--inject-faults", "bogus=1"], "unknown fault spec key 'bogus'"),
            (["--inject-faults", "drop=2"], "drop_rate must be in [0, 1]"),
            (["--inject-faults", "worker-crash=1"], "unknown fault spec key"),
            (["--inject-faults", "crash=1"], "unknown fault spec key 'crash'"),
            (["--top", "0"], "--top must be >= 1 (got 0)"),
            (["--top", "-3"], "--top must be >= 1 (got -3)"),
            (["--round-samples", "0"], "--batch-size must be >= 1 (got 0)"),
            (["--stability-window", "0"], "--stability-window must be >= 1"),
            (["--config", "foo"], "bad --config entry 'foo' (want name=value)"),
            (["--fail-on-quarantine-rate", "-1"], "must be in [0, 1] (got -1.0)"),
            (["--fail-on-quarantine-rate", "1.5"], "must be in [0, 1] (got 1.5)"),
        ],
    )
    def test_bad_interval_knobs_exit_2_with_usage(
        self, source_file, flags, message, capsys
    ):
        # Validated before any work starts, even when the knob's mode is
        # off: bad input exits 2 with a usage line, never a traceback,
        # and a typo'd knob is never silently ignored.
        with pytest.raises(SystemExit) as exc:
            cli_main(["profile", source_file, *FAST_ARGS, *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_round_samples_spells_batch_size(
        self, source_file, tmp_path, adaptive, capsys
    ):
        # One option, two spellings: neither is ignored in either mode.
        # --save-samples compiles with deterministic instruction ids, so
        # two runs in one process write comparable artifacts.
        art, saved = tmp_path / "run.cbp", tmp_path / "s.jsonl"
        mode = ["--adaptive", "--ci-width", "0.4"] if adaptive else []
        runs = []
        for flag in ("--batch-size", "--round-samples"):
            argv = ["profile", source_file, flag, "8", *mode, "-o", str(art),
                    "--save-samples", str(saved), "--view", "all", *FAST_ARGS]
            assert cli_main(argv) == 0
            out = capsys.readouterr().out
            runs.append((out, art.read_bytes(), saved.read_bytes()))
        assert runs[0] == runs[1]
        assert ("[adaptive: stopped early" in runs[0][0]) == adaptive

    def test_adaptive_saves_collected_records(self, source_file, tmp_path):
        from repro.artifact import read_artifact
        from repro.sampling.dataset import load_samples

        saved, art = tmp_path / "s.jsonl", tmp_path / "a.cbp"
        rc = cli_main(
            [
                "profile", source_file, "--adaptive", "--ci-width", "0.4",
                "--round-samples", "8", "--save-samples", str(saved),
                "-o", str(art), "--view", "none", *FAST_ARGS,
            ]
        )
        assert rc == 0
        trail = read_artifact(str(art)).adaptive
        assert trail["stopped_early"]
        _, samples = load_samples(str(saved))
        assert len(samples) == trail["samples_collected"]
        assert [s.index for s in samples] == list(range(len(samples)))

    @pytest.mark.parametrize(
        "command, top",
        [("view", "0"), ("diff", "-3"), ("merge", "0")],
    )
    def test_artifact_commands_refuse_top_below_one(
        self, artifact, tmp_path, command, top, capsys
    ):
        operands = {
            "view": [artifact],
            "diff": [artifact, artifact],
            "merge": [str(tmp_path / "merged.cbp"), artifact],
        }[command]
        with pytest.raises(SystemExit) as exc:
            cli_main([command, *operands, "--top", top])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert f"--top must be >= 1 (got {top})" in err
        assert not (tmp_path / "merged.cbp").exists()

    def test_view_meta_line(self, artifact, capsys):
        rc = cli_main(["view", artifact, "--meta", "--view", "data"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "profile of" in out
        assert "threshold 997" in out

    def test_view_html_export(self, artifact, tmp_path, capsys):
        html = tmp_path / "report.html"
        rc = cli_main(["view", artifact, "--html", str(html)])
        assert rc == 0
        assert html.read_text().startswith("<!DOCTYPE html>")

    def test_view_missing_artifact(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.cbp")
        with pytest.raises(SystemExit) as exc:
            cli_main(["view", missing])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"repro-profile: no such artifact: {missing}\n"

    def test_view_corrupt_artifact_exits_1(self, artifact, tmp_path, capsys):
        lines = open(artifact).read().splitlines()
        bad = tmp_path / "bad.cbp"
        bad.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(SystemExit) as exc:
            cli_main(["view", str(bad)])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "truncated" in err and err.count(str(bad)) == 1


class TestMergeDiff:
    @pytest.mark.parametrize("command", ["merge", "diff"])
    def test_missing_artifact_exits_2(self, command, artifact, tmp_path, capsys):
        missing = str(tmp_path / "missing.cbp")
        argv = (
            ["merge", str(tmp_path / "merged.cbp"), artifact, missing]
            if command == "merge"
            else ["diff", artifact, missing]
        )
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"repro-profile: no such artifact: {missing}\n"

    def test_merge_two_shards(self, artifact, source_file, tmp_path, capsys):
        other = tmp_path / "run2.cbp"
        rc = cli_main(
            ["profile", source_file, "-o", str(other), "--view", "none", *FAST_ARGS]
        )
        assert rc == 0
        capsys.readouterr()
        merged = tmp_path / "merged.cbp"
        rc = cli_main(
            ["merge", str(merged), artifact, str(other), "--view", "data"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "[merged 2 artifact(s)" in out
        assert "Data-centric view" in out
        from repro.artifact import read_artifact

        snapshot = read_artifact(str(merged))
        assert snapshot.meta.kind == "merged"

    def test_merge_records_missing_locales(self, artifact, tmp_path, capsys):
        merged = tmp_path / "merged.cbp"
        rc = cli_main(
            ["merge", str(merged), artifact, "--missing-locales", "1,2"]
        )
        assert rc == 0
        assert "missing locales [1, 2]" in capsys.readouterr().out
        from repro.artifact import read_artifact

        assert read_artifact(str(merged)).report.missing_locales == (1, 2)
        assert cli_main(["view", str(merged)]) == 0
        out = capsys.readouterr().out
        assert "! merged without locale(s) 1, 2 (partial aggregate)" in out

    def test_diff_prints_blame_shift(self, artifact, tmp_path, capsys):
        rc = cli_main(["diff", artifact, artifact])
        assert rc == 0
        assert "Blame shift:" in capsys.readouterr().out

    def test_diff_labels(self, artifact, capsys):
        rc = cli_main(
            ["diff", artifact, artifact, "--label-a", "before", "--label-b", "after"]
        )
        assert rc == 0
        assert "Blame shift: before -> after" in capsys.readouterr().out


class TestProgramErrors:
    @pytest.mark.parametrize(
        "command, program, status, line",
        [
            ("profile", "var x = ;\n", 2,
             "repro-profile: bad.chpl:1:9: unexpected token ';' in expression"),
            ("profile", 'var x: int = "s";\n', 2,
             "repro-profile: bad.chpl:1:1: cannot convert string to int"),
            ("profile", "var d = 0.0;\nvar x = 1.5 / d;\nwriteln(x);\n", 1,
             "repro-profile: bad.chpl:2:13: division by zero"),
            ("advise", "var x = ;\n", 2,
             "repro-advise: bad.chpl:1:9: unexpected token ';' in expression"),
        ],
        ids=["parse", "type", "runtime", "advise-parse"],
    )
    def test_one_located_stderr_line(
        self, tmp_path, monkeypatch, command, program, status, line, capsys
    ):
        # A fault of the program itself, whether the frontend rejects it
        # or it faults at run time, is one located line: no traceback,
        # no call stack.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.chpl").write_text(program)
        assert cli_main([command, "bad.chpl"]) == status
        err = capsys.readouterr().err
        assert err.splitlines() == [line]
        assert "Traceback" not in err
