"""Raw-sample dataset persistence.

The real tool writes the step-2 artifact ("the sizes of the datasets
generated during runtime are 6 MB to 20 MB") to disk and runs step 3
post-mortem, possibly elsewhere — it is "embarrassingly parallel for
multi-locale cases".  This module serializes a monitor's sample stream
to JSONL with a header recording the program identity (source SHA-256)
and sampling configuration, so a separate process can re-do the
analysis: recompile the source with fresh deterministic instruction
ids, check the hash, and attribute.

Two formats, both read by :func:`read_dataset`/:func:`load_samples`:

* **v2 journal** (:class:`DatasetJournal`), the one ``--save-samples``
  writes: append-only, every line (header included) carries a CRC-32 of
  its payload.  A run interrupted mid-stream loses at most the
  unflushed tail: :func:`scan_journal` detects the corrupt tail,
  :func:`load_journal` returns the good prefix, and
  :meth:`DatasetJournal.resume` truncates to the last good record and
  continues appending.
* **v1**, written by earlier versions: plain JSONL — line 1 is a header
  object; each further line is one sample, with no integrity protection.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import zlib
from dataclasses import dataclass, field

from ..errors import DatasetCorruptError, SampleFormatError
from .records import RawSample

FORMAT_VERSION = 1
JOURNAL_VERSION = 2


def source_digest(source: str) -> str:
    return hashlib.sha256(source.encode()).hexdigest()


@dataclass(frozen=True)
class DatasetHeader:
    """Identity and configuration of a recorded run."""

    program: str
    source_sha256: str
    threshold: int
    num_threads: int
    locale_id: int = 0
    version: int = FORMAT_VERSION

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "program": self.program,
            "source_sha256": self.source_sha256,
            "threshold": self.threshold,
            "num_threads": self.num_threads,
            "locale_id": self.locale_id,
        }

    @classmethod
    def from_json(cls, d: dict) -> "DatasetHeader":
        if d.get("version") not in (FORMAT_VERSION, JOURNAL_VERSION):
            raise SampleFormatError(
                f"unsupported dataset version {d.get('version')!r}"
            )
        return cls(
            program=d["program"],
            source_sha256=d["source_sha256"],
            threshold=d["threshold"],
            num_threads=d["num_threads"],
            locale_id=d.get("locale_id", 0),
            version=d["version"],
        )


def sample_line(s: RawSample, quoted: dict[str, str]) -> str:
    """One CRC-framed sample record, ``{"c":CRC,"s":BODY}``, written
    from the record's fixed schema: BODY is the compact JSON of the
    record with its keys in sorted order, the bytes :func:`crc_line`
    would write for the same object.  ``quoted`` maps function names to
    their JSON strings; the caller keeps it for the whole stream, so
    each name is quoted once."""
    # The keys in sorted order: i, idle, ip, k, pre, s, t, tag.
    idle = ',"idle":true' if s.is_idle else ""
    head = f'{{"i":{s.index}{idle},"ip":{s.leaf_iid},"k":{s.task_id},'
    stack = _frames(s.stack, quoted)
    tag = s.spawn_tag
    if tag is None:
        body = f'{head}"s":[{stack}],"t":{s.thread_id}}}'
    else:
        pre = _frames(s.pre_spawn_stack or (), quoted)
        body = f'{head}"pre":[{pre}],"s":[{stack}],"t":{s.thread_id},"tag":{tag}}}'
    return _framed("s", body)


def _frames(frames: tuple[tuple[str, int], ...], quoted: dict[str, str]) -> str:
    """The JSON items of a ``(function, iid)`` frame sequence."""
    parts = []
    for name, iid in frames:
        q = quoted.get(name)
        if q is None:
            q = quoted[name] = json.dumps(name)
        parts.append(f"[{q},{iid}]")
    return ",".join(parts)


def _sample_from_json(d: dict) -> RawSample:
    try:
        return RawSample(
            index=d["i"],
            thread_id=d["t"],
            task_id=d["k"],
            stack=tuple((f, iid) for f, iid in d["s"]),
            leaf_iid=d["ip"],
            spawn_tag=d.get("tag"),
            pre_spawn_stack=(
                tuple((f, iid) for f, iid in d["pre"]) if "tag" in d else None
            ),
            is_idle=d.get("idle", False),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SampleFormatError(f"malformed sample record: {exc!r}") from exc


def load_samples(path: str) -> tuple[DatasetHeader, list[RawSample]]:
    """Reads a dataset back: (header, samples).  Accepts both the plain
    v1 format and the v2 journal (strict: corrupt journals raise)."""
    header, samples, _scan = read_dataset(path, strict=True)
    return header, samples


def read_dataset(
    path: str, strict: bool = False
) -> tuple[DatasetHeader, list[RawSample], "JournalScan | None"]:
    """Reads a dataset in either format: (header, samples, scan).

    A v2 journal (its first line is CRC-framed) goes through
    :func:`load_journal`: the verified prefix, plus the scan that counts
    the records a torn tail lost (``strict`` raises on one instead).  A
    v1 dataset has no scan."""
    with open(path, "rb") as f:
        first = f.readline()
        if first.startswith(b'{"c":'):
            return load_journal(path, strict=strict)
        if not first:
            raise SampleFormatError(f"{path}: empty dataset")
        header = DatasetHeader.from_json(json.loads(first))
        samples = [_sample_from_json(json.loads(line)) for line in f if line.strip()]
    return header, samples, None


# -- v2: append-only journal with per-record checksums ----------------------


def crc_line(kind: str, payload: dict | list) -> str:
    """One CRC-framed record line, ``{"c":CRC,"<kind>":BODY}``: BODY is
    the compact, key-sorted JSON of ``payload`` and CRC the CRC-32 of
    BODY's bytes.

    Shared framing: the v2 sample journal and the ``.cbp`` profile
    artifact (:mod:`repro.artifact.format`) both use it, so one reader
    (:func:`check_line`) detects bit flips in either."""
    return _framed(kind, json.dumps(payload, separators=(",", ":"), sort_keys=True))


def _framed(kind: str, body: str) -> str:
    return f'{{"c":{zlib.crc32(body.encode())},"{kind}":{body}}}'


#: The exact layout :func:`crc_line` writes: the CRC in decimal, the
#: record kind, then the payload bytes the CRC covers.
_FRAME = re.compile(rb'\{"c":(0|[1-9][0-9]{0,9}),"(\w+)":(.*)\}', re.DOTALL)


def check_line(line: str | bytes) -> tuple[str, dict | list]:
    """Parses and checksum-verifies one framed line → (kind, payload).

    The CRC is checked over the payload bytes exactly as
    :func:`crc_line` wrote them, so a line in any other layout — other
    separators, another key order, extra keys — is rejected rather than
    re-serialized.  Raises :class:`DatasetCorruptError` on any damage."""
    raw = line.encode() if isinstance(line, str) else line
    m = _FRAME.fullmatch(raw)
    if m is None:
        raise DatasetCorruptError("line is not a CRC-framed record")
    crc, kind, body = m.groups()
    kind = kind.decode()
    if zlib.crc32(body) != int(crc):
        raise DatasetCorruptError(f"checksum mismatch on {kind!r} record")
    try:
        return kind, json.loads(body)
    except ValueError as exc:
        raise DatasetCorruptError(f"unparseable {kind!r} record: {exc}") from exc


@dataclass
class JournalScan:
    """Outcome of scanning a journal for its recoverable prefix."""

    header: DatasetHeader
    n_good: int  # sample records that verified
    good_bytes: int  # file offset just past the last good record
    n_corrupt: int  # lines lost to the corrupt tail
    error: str | None = None  # first corruption encountered

    @property
    def intact(self) -> bool:
        return self.n_corrupt == 0


class DatasetJournal:
    """Append-only sample journal: survives interrupted runs.

    Every record (header included) is a checksummed line, flushed every
    ``flush_every`` appends, so a simulated kill loses at most the
    unflushed tail and :meth:`resume` continues from the last good
    record.
    """

    def __init__(
        self, path: str, header: DatasetHeader, flush_every: int = 64
    ) -> None:
        self.path = path
        self.header = DatasetHeader(
            program=header.program,
            source_sha256=header.source_sha256,
            threshold=header.threshold,
            num_threads=header.num_threads,
            locale_id=header.locale_id,
            version=JOURNAL_VERSION,
        )
        self.flush_every = max(1, flush_every)
        self.n_appended = 0
        self._quoted: dict[str, str] = {}
        self._f = open(path, "w")
        self._f.write(crc_line("h", self.header.to_json()) + "\n")
        self._f.flush()

    @classmethod
    def resume(cls, path: str) -> tuple["DatasetJournal", list[RawSample]]:
        """Reopens an interrupted journal: truncates the corrupt tail
        and returns (journal positioned to append, recovered samples)."""
        header, samples, scan = load_journal(path, strict=False)
        with open(path, "r+") as f:
            f.truncate(scan.good_bytes)
        journal = cls.__new__(cls)
        journal.path = path
        journal.header = header
        journal.flush_every = 64
        journal.n_appended = scan.n_good
        journal._quoted = {}
        journal._f = open(path, "a")
        return journal, samples

    def append(self, sample: RawSample) -> None:
        self.extend((sample,))

    def extend(self, samples: list[RawSample]) -> None:
        write = self._f.write
        quoted = self._quoted
        for s in samples:
            write(sample_line(s, quoted) + "\n")
            self.n_appended += 1
            if self.n_appended % self.flush_every == 0:
                self._f.flush()
                os.fsync(self._f.fileno())

    def flush(self) -> None:
        self._f.flush()
        os.fsync(self._f.fileno())

    def close(self) -> None:
        if not self._f.closed:
            self.flush()
            self._f.close()

    def __enter__(self) -> "DatasetJournal":
        return self

    def __exit__(self, *exc) -> None:
        # On an exception (the simulated kill) the tail past the last
        # explicit flush may be lost; close() flushes what it can.
        self.close()


def scan_journal(path: str) -> tuple[list[RawSample], JournalScan]:
    """Walks a journal, verifying checksums, until damage or EOF."""
    samples: list[RawSample] = []
    with open(path, "rb") as f:
        raw_lines = f.read().split(b"\n")
    if not raw_lines[0].strip():
        raise DatasetCorruptError(f"{path}: empty journal")
    kind, payload = check_line(raw_lines[0])  # header damage is unrecoverable
    if kind != "h":
        raise DatasetCorruptError(f"{path}: first record is not a header")
    header = DatasetHeader.from_json(payload)

    file_size = sum(len(r) for r in raw_lines) + len(raw_lines) - 1
    offset = len(raw_lines[0]) + 1
    n_corrupt = 0
    error: str | None = None
    for i, raw in enumerate(raw_lines[1:], start=1):
        if not raw.strip():
            offset += len(raw) + 1
            continue
        try:
            kind, payload = check_line(raw)
            if kind != "s":
                raise DatasetCorruptError(f"unexpected record kind {kind!r}")
            samples.append(_sample_from_json(payload))
        except (DatasetCorruptError, SampleFormatError, KeyError, TypeError) as exc:
            # Append-only: everything past the first bad record is the
            # interrupted tail; count it and stop.
            error = str(exc)
            n_corrupt = sum(1 for r in raw_lines[i:] if r.strip())
            break
        offset += len(raw) + 1
    # A good final record without its trailing newline would put the
    # offset one past EOF; clamp so resume() never zero-extends.
    offset = min(offset, file_size)
    return samples, JournalScan(
        header=header,
        n_good=len(samples),
        good_bytes=offset,
        n_corrupt=n_corrupt,
        error=error,
    )


def load_journal(
    path: str, strict: bool = False
) -> tuple[DatasetHeader, list[RawSample], JournalScan]:
    """Reads a journal back; in strict mode a corrupt tail raises."""
    samples, scan = scan_journal(path)
    if strict and not scan.intact:
        raise DatasetCorruptError(
            f"{path}: corrupt tail after {scan.n_good} good records "
            f"({scan.error})"
        )
    return scan.header, samples, scan
