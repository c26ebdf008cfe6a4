"""The four benchmark workloads: frozen inputs, the op each one times,
and the golden check every op's output must pass.

A seed picks one of four input keys (``seed % 4``).  The key selects
the PMU threshold from the workload's menu of four primes and, for the
sweep, the order of the LULESH variants.  Each menu spans at most 4.2%,
so that the seed moves the sampling phase, not the amount of work: a
wider menu would change sample counts, op time and memory from seed to
seed by more than the benchmark's bounds.

The program under test sees only files copied from ``inputs/`` into a
per-run work directory, under bare file names, so every output it
writes is a pure function of (workload, key).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
INPUTS = os.path.join(HERE, "inputs")
GOLDEN_PATH = os.path.join(HERE, "golden.json")
SWEEP_OP = os.path.join(HERE, "sweep_op.py")

NUM_KEYS = 4
#: `python -c` body equivalent to the `repro-profile` console script.
CLI = "import sys; from repro.tooling.cli import main; sys.exit(main())"
#: The fixed start-up cost every op pays before it reads its input.
IMPORT_PROBE = "import repro.tooling.cli"

#: Paper Table VII's eleven LULESH unrolling variants, as input file stems.
SWEEP_VARIANTS = (
    "lulesh_original", "lulesh_0params", "lulesh_p1", "lulesh_p2",
    "lulesh_p3", "lulesh_p1p2", "lulesh_p1p3", "lulesh_p2p3",
    "lulesh_p1u2", "lulesh_p1u3", "lulesh_p1u2u3",
)
#: Small LULESH problem so the eleven profiles fit one op.
SWEEP_CONFIG = ("edgeElems=2", "maxSteps=1")
#: Original vs the paper's best Table VII variant (P 1).
SWEEP_DIFF = ("lulesh_original.cbp", "lulesh_p1.cbp")
#: The CLI's default `--threads`.
THREADS = 12
#: The marker line `profile -o` prints; it names the output path, so the
#: golden stdout hash leaves it out.
ARTIFACT_LINE = b"[profile artifact written to "


#: A prime quadruplet: the tightest four-prime menu at CLOMP's dense rate.
CLOMP_THRESHOLDS = (191, 193, 197, 199)
#: The CLOMP run whose artifact `replay` re-renders: four times the
#: default timesteps (~100 k samples, ~1.3 MB).  Interpreter start-up and
#: import cost a fixed ~0.12 s per op and swing with the host more than
#: decoding does.  On the default-size artifact they were half the op,
#: and ten runs spread by up to 28% (IQR / median); at 8 timesteps decode
#: and render are about 60% of the op and the spread roughly halves.
REPLAY_CONFIG = ("timesteps=8",)
REPLAY_ARTIFACT = "clomp.cbp"
#: Workload → PMU threshold menu (README.md says why each workload exists).
THRESHOLDS = {
    # LULESH reference profile: the engine is most of the op.
    "lulesh_profile": (4993, 4999, 5003, 5009),
    # CLOMP sampled densely: monitor, post-mortem and encoding dominate.
    "clomp_dense": CLOMP_THRESHOLDS,
    # Eleven fresh LULESH variants plus a diff: front end and analysis.
    "variant_sweep": (983, 991, 997, 1009),
    # Re-renders a CLOMP artifact made in set-up: no engine in the op.
    "replay": CLOMP_THRESHOLDS,
}
WORKLOADS = tuple(THRESHOLDS)


def input_key(seed: int) -> int:
    return seed % NUM_KEYS


def threshold(workload: str, seed: int) -> int:
    return THRESHOLDS[workload][input_key(seed)]


def sweep_order(seed: int) -> list[str]:
    order = list(SWEEP_VARIANTS)
    random.Random(input_key(seed)).shuffle(order)
    return order


def profile_args(source: str, thr: int, out: str, view: str, config=()) -> list[str]:
    """`repro-profile profile` arguments for one program."""
    args = ["profile", source]
    if config:
        args += ["--config", *config]
    return args + ["--threshold", str(thr), "-o", out, "--view", view]


def op_argv(workload: str, seed: int, python: str) -> list[str]:
    """The child process one op runs."""
    thr = threshold(workload, seed)
    if workload == "lulesh_profile":
        return [python, "-c", CLI, *profile_args("lulesh.chpl", thr, "run.cbp", "all")]
    if workload == "clomp_dense":
        return [python, "-c", CLI, *profile_args("clomp.chpl", thr, "run.cbp", "all")]
    if workload == "variant_sweep":
        sources = [stem + ".chpl" for stem in sweep_order(seed)]
        return [python, SWEEP_OP, str(thr), *sources]
    if workload == "replay":
        return [python, "-c", CLI, "view", REPLAY_ARTIFACT, "--view", "all"]
    raise KeyError(workload)


def setup_argv(workload: str, seed: int, python: str) -> list[str] | None:
    """The untimed child that makes ``replay``'s artifact (None for the
    other workloads)."""
    if workload != "replay":
        return None
    thr = threshold(workload, seed)
    return [python, "-c", CLI,
            *profile_args("clomp.chpl", thr, REPLAY_ARTIFACT, "none", REPLAY_CONFIG)]


def input_files(workload: str) -> list[str]:
    """Paths under ``inputs/`` the workload copies into its work dir."""
    if workload == "lulesh_profile":
        return ["lulesh.chpl"]
    if workload in ("clomp_dense", "replay"):
        return ["clomp.chpl"]
    return [os.path.join("sweep", stem + ".chpl") for stem in SWEEP_VARIANTS]


def output_files(workload: str) -> list[str]:
    """Artifacts one op writes (checked against the golden hashes)."""
    if workload in ("lulesh_profile", "clomp_dense"):
        return ["run.cbp"]
    if workload == "variant_sweep":
        return [stem + ".cbp" for stem in SWEEP_VARIANTS]
    return []


def prepare(workload: str, workdir: str) -> None:
    """Fresh work dir holding only the workload's input files."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    for rel in input_files(workload):
        shutil.copyfile(os.path.join(INPUTS, rel), os.path.join(workdir, os.path.basename(rel)))


def child_env(workdir: str) -> dict[str, str]:
    """A pinned environment that keeps the child's files in ``workdir``."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": SRC,
        "PYTHONHASHSEED": "0",
        "PYTHONIOENCODING": "utf-8",
        "HOME": workdir,
        "TMPDIR": workdir,
    }


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stdout_digest(stdout: bytes) -> str:
    kept = [line for line in stdout.splitlines(True) if not line.startswith(ARTIFACT_LINE)]
    return sha256(b"".join(kept))


def load_golden() -> dict:
    with open(GOLDEN_PATH) as f:
        return json.load(f)


def expected(golden: dict, workload: str, seed: int, setup: bool = False) -> dict:
    """The golden entry of the workload's op, or of its set-up child."""
    entry = golden[workload][str(input_key(seed))]
    return entry["setup"] if setup else entry


def artifact_problems(artifacts: dict[str, str], workdir: str) -> list[str]:
    """Files under ``workdir`` missing or differing from their hashes."""
    problems = []
    for name, digest in artifacts.items():
        path = os.path.join(workdir, name)
        if not os.path.exists(path):
            problems.append(f"{name} missing")
            continue
        with open(path, "rb") as f:
            if sha256(f.read()) != digest:
                problems.append(f"{name} differs from golden")
    return problems


def check_outputs(want: dict, stdout: bytes, workdir: str) -> list[str]:
    """Mismatches of one child's stdout and artifacts against its golden
    entry ``want`` (empty when the child was correct)."""
    problems = [] if stdout_digest(stdout) == want["stdout"] else ["stdout differs from golden"]
    return problems + artifact_problems(want["artifacts"], workdir)
