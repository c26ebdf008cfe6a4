"""On-disk layout of the ``.cbp`` profile artifact.

Line-oriented, append-written, and self-describing.  Every line is a
CRC-32-framed JSON record — the same framing the v2 sample journal uses
(:func:`repro.sampling.dataset.crc_line`), so a single bit flip anywhere
is detected on read.  Records appear in a fixed order:

====  ======================================================
kind  payload
====  ======================================================
``h``  header: magic ``"cbp"``, format version, run metadata
``t``  interned string table (all names/types/contexts/files)
``f``  function catalog, columnar over string indices
``k``  interned stack table (distinct frame tuples)
``l``  interned location table (distinct (file, line) tuples)
``i``  instances, columnar (stack/location ids per sample)
``p``  degradation provenance + raw/runtime/recovered counts
``s``  run statistics (:class:`~repro.blame.report.RunStats`)
``b``  blame report: locale, missing locales, columnar rows
``d``  fault-injection summary (optional; degraded runs only)
``a``  adaptive decision trail (optional; adaptive runs only)
``z``  footer: total record count (truncation sentinel)
====  ======================================================

Readers reject, with the typed :class:`~repro.errors.ArtifactError`:
a missing/invalid magic, a checksum mismatch (bit flip), a missing or
inconsistent footer (truncation), and any structurally invalid section.
A valid header whose ``version`` this reader does not speak raises the
:class:`~repro.errors.ArtifactVersionError` subclass — that file is
from another tool generation, not corrupt.

Compatibility rules: the version bumps on any change that would alter
the meaning of existing records; unknown *optional* record kinds are
ignored within a version (forward-minor tolerance), mandatory kinds are
closed-world.
"""

from __future__ import annotations

from ..blame.postmortem import FrameTuple, InstanceColumns, PostmortemResult
from ..blame.report import BlameReport, BlameRow, RunStats
from ..errors import ArtifactError, ArtifactVersionError, DatasetCorruptError
from ..sampling.dataset import check_line, crc_line
from .model import ArtifactMeta, CatalogFunction, FunctionCatalog, ProfileSnapshot

CBP_MAGIC = "cbp"
CBP_VERSION = 1

#: Record kinds a version-1 artifact must contain, in writing order.
_MANDATORY = ("h", "t", "f", "k", "l", "i", "p", "s", "b", "z")


class _Interner:
    """Append-only string pool: first occurrence assigns the index."""

    def __init__(self) -> None:
        self.strings: list[str] = []
        self._index: dict[str, int] = {}

    def add(self, s: str) -> int:
        ix = self._index.get(s)
        if ix is None:
            ix = len(self.strings)
            self._index[s] = ix
            self.strings.append(s)
        return ix


class _TupleInterner:
    """Pool of encoded ``(name, int)`` tuples (stacks, location lists)
    over a string pool.  A tuple is encoded, and its names pooled, on
    first sight only: a pooled tuple's names are already in the string
    pool, so skipping them leaves every string index unchanged."""

    def __init__(self, strings: _Interner) -> None:
        self.rows: list[list] = []
        self._index: dict[tuple, int] = {}
        self._strings = strings

    def add(self, key: tuple[tuple[str, int], ...]) -> int:
        ix = self._index.get(key)
        if ix is None:
            ix = len(self.rows)
            self._index[key] = ix
            self.rows.append([[self._strings.add(s), n] for s, n in key])
        return ix


def _encode(snapshot: ProfileSnapshot) -> list[str]:
    """Serializes a snapshot to its record lines (without newlines)."""
    meta = snapshot.meta
    strings = _Interner()
    stacks = _TupleInterner(strings)
    locs = _TupleInterner(strings)

    # Function catalog (name-sorted: deterministic bytes).
    fn_cols: dict[str, list] = {"nm": [], "sn": [], "of": [], "ar": []}
    for f in snapshot.catalog.entries():
        fn_cols["nm"].append(strings.add(f.name))
        fn_cols["sn"].append(strings.add(f.source_name))
        fn_cols["of"].append(
            -1 if f.outlined_from is None else strings.add(f.outlined_from)
        )
        fn_cols["ar"].append(1 if f.is_artificial else 0)

    # Instances, columnar over interned stack/location ids.  The
    # snapshot's ids are re-pooled by their frames, once per distinct
    # (stack id, location id) pair in first-seen row order — the order
    # a walk over the instances would pool them in.
    cols = snapshot.postmortem.columns
    stack_ids: dict[int, int] = {}
    loc_ids: dict[int, int] = {}
    for sid, lid in dict.fromkeys(zip(cols.stack_id, cols.location_id)):
        if sid not in stack_ids:
            stack_ids[sid] = stacks.add(cols.stacks[sid])
        if lid not in loc_ids:
            loc_ids[lid] = locs.add(cols.locations[lid])
    inst_cols = {
        "ix": cols.index,
        "th": cols.thread_id,
        "st": list(map(stack_ids.__getitem__, cols.stack_id)),
        "lo": list(map(loc_ids.__getitem__, cols.location_id)),
        "gl": cols.glued,
        "tg": cols.spawn_tag,
        "rc": cols.recovered,
    }

    pm = snapshot.postmortem
    provenance = {
        "n_raw": pm.n_raw,
        "n_runtime": pm.n_runtime,
        "n_recovered": pm.n_recovered,
        "u": [[strings.add(r), ix] for r, ix in pm.unknown],
        "q": [[strings.add(r), ix] for r, ix in pm.quarantined],
    }

    st = snapshot.report.stats
    stats = {
        "total_raw_samples": st.total_raw_samples,
        "user_samples": st.user_samples,
        "runtime_samples": st.runtime_samples,
        "wall_seconds": st.wall_seconds,
        "dataset_bytes": st.dataset_bytes,
        "stackwalk_cycles": st.stackwalk_cycles,
        "postmortem_seconds": st.postmortem_seconds,
        "unknown_samples": st.unknown_samples,
        "quarantined_samples": st.quarantined_samples,
        "recovered_samples": st.recovered_samples,
    }

    report = snapshot.report
    row_cols: dict[str, list] = {
        "nm": [], "ty": [], "cx": [], "sm": [], "bl": [], "pa": [],
    }
    for row in report.rows:
        row_cols["nm"].append(strings.add(row.name))
        row_cols["ty"].append(strings.add(row.type_str))
        row_cols["cx"].append(strings.add(row.context))
        row_cols["sm"].append(row.samples)
        row_cols["bl"].append(row.blame)
        row_cols["pa"].append(1 if row.is_path else 0)
    report_rec = {
        "program": report.program,
        "locale_id": report.locale_id,
        "missing": list(report.missing_locales),
        "unknown_by_reason": report.unknown_by_reason,
        "quarantine_by_reason": report.quarantine_by_reason,
        "rows": row_cols,
    }

    header = {
        "magic": CBP_MAGIC,
        "version": CBP_VERSION,
        "program": meta.program,
        "source_sha256": meta.source_sha256,
        "threshold": meta.threshold,
        "num_threads": meta.num_threads,
        "locale_id": meta.locale_id,
        "kind": meta.kind,
        "created_by": meta.created_by,
    }

    lines = [
        crc_line("h", header),
        crc_line("t", strings.strings),
        crc_line("f", fn_cols),
        crc_line("k", stacks.rows),
        crc_line("l", locs.rows),
        crc_line("i", inst_cols),
        crc_line("p", provenance),
        crc_line("s", stats),
        crc_line("b", report_rec),
    ]
    if snapshot.fault_stats is not None:
        lines.append(crc_line("d", snapshot.fault_stats))
    if snapshot.adaptive is not None:
        lines.append(crc_line("a", snapshot.adaptive))
    lines.append(crc_line("z", {"records": len(lines) + 1}))
    return lines


def write_artifact(path: str, snapshot: ProfileSnapshot) -> str:
    """Writes a snapshot as a ``.cbp`` artifact; returns ``path``."""
    with open(path, "w") as f:
        for line in _encode(snapshot):
            f.write(line + "\n")
    return path


def artifact_bytes(snapshot: ProfileSnapshot) -> bytes:
    """The exact bytes :func:`write_artifact` would emit (for tests and
    throughput accounting)."""
    return ("\n".join(_encode(snapshot)) + "\n").encode()


# -- reading ----------------------------------------------------------------


def _string(table: list[str], ix: int, what: str) -> str:
    if type(ix) is not int or not 0 <= ix < len(table):
        raise ArtifactError(f"dangling string index {ix!r} in {what}")
    return table[ix]


def _frame_table(rows: list, strings: list[str], what: str) -> list[FrameTuple]:
    """A decoded stack or location table: ``[string_ix, n]`` pairs."""
    return [
        tuple((_string(strings, ix, what), n) for ix, n in row) for row in rows
    ]


def _check_ids(column: list, table: list, what: str) -> None:
    """Every id in an instance column must index ``table``.  Checked
    once per distinct id, so nothing that builds instances later can
    fail on a damaged artifact."""
    for ix in set(column):
        if type(ix) is not int or not 0 <= ix < len(table):
            raise ArtifactError(f"dangling {what} id {ix!r} in instances")


def read_artifact(path: str) -> ProfileSnapshot:
    """Loads and validates a ``.cbp`` artifact.

    Raises :class:`~repro.errors.ArtifactError` on truncation, bit
    flips, or structural damage, and
    :class:`~repro.errors.ArtifactVersionError` on an intact artifact of
    an unsupported format version.
    """
    try:
        with open(path, "rb") as f:
            raw_lines = [ln for ln in f.read().split(b"\n") if ln.strip()]
    except OSError as exc:
        raise ArtifactError(f"{path}: cannot read artifact: {exc}") from exc
    if not raw_lines:
        raise ArtifactError(f"{path}: empty artifact")

    records: list[tuple[str, object]] = []
    for n, line in enumerate(raw_lines, start=1):
        try:
            records.append(check_line(line))
        except DatasetCorruptError as exc:
            raise ArtifactError(f"{path}: record {n}: {exc}") from exc

    kind0, header = records[0]
    if kind0 != "h" or not isinstance(header, dict):
        raise ArtifactError(f"{path}: first record is not an artifact header")
    if header.get("magic") != CBP_MAGIC:
        raise ArtifactError(f"{path}: not a .cbp artifact (bad magic)")
    if header.get("version") != CBP_VERSION:
        raise ArtifactVersionError(
            f"{path}: unsupported .cbp version {header.get('version')!r} "
            f"(this reader speaks {CBP_VERSION})"
        )

    by_kind: dict[str, object] = {}
    for kind, payload in records:
        if kind in by_kind:
            raise ArtifactError(f"{path}: duplicate {kind!r} record")
        by_kind[kind] = payload

    kind_last, footer = records[-1]
    if kind_last != "z":
        raise ArtifactError(f"{path}: truncated artifact (missing footer)")
    if not isinstance(footer, dict) or footer.get("records") != len(records):
        raise ArtifactError(
            f"{path}: truncated artifact (footer records "
            f"{footer.get('records') if isinstance(footer, dict) else '?'} "
            f"!= {len(records)} present)"
        )
    missing = [k for k in _MANDATORY if k not in by_kind]
    if missing:
        raise ArtifactError(
            f"{path}: truncated artifact (missing section(s) {missing})"
        )

    try:
        return _decode(by_kind)
    except ArtifactError as exc:
        raise ArtifactError(f"{path}: {exc}") from None
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ArtifactError(f"{path}: malformed artifact section: {exc!r}") from exc


def _decode(by_kind: dict[str, object]) -> ProfileSnapshot:
    header = by_kind["h"]
    strings = by_kind["t"]
    if not isinstance(strings, list):
        raise ArtifactError("string table is not a list")

    meta = ArtifactMeta(
        program=header["program"],
        source_sha256=header.get("source_sha256"),
        threshold=header.get("threshold", 0),
        num_threads=header.get("num_threads", 0),
        locale_id=header.get("locale_id", 0),
        kind=header.get("kind", "profile"),
        created_by=header.get("created_by", ""),
    )

    fn_cols = by_kind["f"]
    catalog = FunctionCatalog(
        [
            CatalogFunction(
                name=_string(strings, nm, "function catalog"),
                source_name=_string(strings, sn, "function catalog"),
                outlined_from=(
                    None if of < 0 else _string(strings, of, "function catalog")
                ),
                is_artificial=bool(ar),
            )
            for nm, sn, of, ar in zip(
                fn_cols["nm"], fn_cols["sn"], fn_cols["of"], fn_cols["ar"]
            )
        ]
    )

    stacks = _frame_table(by_kind["k"], strings, "stack table")
    locations = _frame_table(by_kind["l"], strings, "location table")
    ic = by_kind["i"]
    cols = [ic[k] for k in ("ix", "th", "st", "lo", "gl", "tg", "rc")]
    if not all(isinstance(c, list) for c in cols):
        raise ArtifactError("instance column is not a list")
    if len({len(c) for c in cols}) > 1:
        raise ArtifactError("instance columns have inconsistent lengths")
    _check_ids(ic["st"], stacks, "stack")
    _check_ids(ic["lo"], locations, "location")

    prov = by_kind["p"]
    postmortem = PostmortemResult(
        columns=InstanceColumns(*cols, stacks=stacks, locations=locations),
        n_raw=prov["n_raw"],
        unknown=[(_string(strings, r, "provenance"), ix) for r, ix in prov["u"]],
        quarantined=[(_string(strings, r, "provenance"), ix) for r, ix in prov["q"]],
        n_recovered=prov["n_recovered"],
        n_runtime=prov["n_runtime"],
    )

    sc = by_kind["s"]
    stats = RunStats(
        total_raw_samples=sc["total_raw_samples"],
        user_samples=sc["user_samples"],
        runtime_samples=sc["runtime_samples"],
        wall_seconds=sc["wall_seconds"],
        dataset_bytes=sc["dataset_bytes"],
        stackwalk_cycles=sc["stackwalk_cycles"],
        postmortem_seconds=sc["postmortem_seconds"],
        unknown_samples=sc["unknown_samples"],
        quarantined_samples=sc["quarantined_samples"],
        recovered_samples=sc["recovered_samples"],
    )

    rep = by_kind["b"]
    rc_cols = rep["rows"]
    rows = [
        BlameRow(
            name=_string(strings, nm, "report rows"),
            type_str=_string(strings, ty, "report rows"),
            blame=bl,
            context=_string(strings, cx, "report rows"),
            samples=sm,
            is_path=bool(pa),
        )
        for nm, ty, cx, sm, bl, pa in zip(
            rc_cols["nm"], rc_cols["ty"], rc_cols["cx"],
            rc_cols["sm"], rc_cols["bl"], rc_cols["pa"],
        )
    ]
    report = BlameReport(
        program=rep["program"],
        rows=rows,
        stats=stats,
        locale_id=rep.get("locale_id", 0),
        unknown_by_reason=dict(rep.get("unknown_by_reason", {})),
        quarantine_by_reason=dict(rep.get("quarantine_by_reason", {})),
        missing_locales=tuple(rep.get("missing", [])),
    )

    return ProfileSnapshot(
        meta=meta,
        report=report,
        catalog=catalog,
        postmortem=postmortem,
        fault_stats=by_kind.get("d"),
        adaptive=by_kind.get("a"),
    )
