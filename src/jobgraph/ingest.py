"""Parsing, validation, windowing, and deduplication of the input corpora.

Input files are headerless UTF-8 text:

* events:     ``user_id,job_id,kind,timestamp,query_id`` (CSV, query_id may
  be empty; kind is one of ``apply``, ``click``, ``email_open_no_click``)
* jobs:       ``job_id,title,category,lat,lon,posted_at,status`` (CSV)
* embeddings: ``job_id`` followed by d whitespace-separated floats per line
* users:      ``user_id,resume_category,lat,lon,registered`` (CSV)

Parsers are recoverable: malformed lines become :class:`ParseIssue` records
carrying the line number, and the remaining lines are still parsed. Only a
CSV line with quotes, line breaks or NULs goes through ``csv.reader``.
"""

from __future__ import annotations

import csv
import logging
from array import array
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

logger = logging.getLogger(__name__)


class SignalKind(Enum):
    """Kind of user-job interaction signal."""

    APPLY = "apply"
    CLICK = "click"
    EMAIL_OPEN_NO_CLICK = "email_open_no_click"


class JobStatus(Enum):
    ACTIVE = "active"
    EXPIRED = "expired"


@dataclass(frozen=True, slots=True)
class InteractionEvent:
    """One behavioral signal: a user applied to / clicked / ignored a job.

    ``query_id`` groups clicks issued against the same search resultset and
    may be ``None`` when the log does not carry it.
    """

    user_id: str
    job_id: str
    kind: SignalKind
    timestamp: datetime
    query_id: str | None = None


@dataclass(frozen=True, slots=True)
class JobRecord:
    job_id: str
    title: str
    category: str
    location: tuple[float, float] | None
    posted_at: datetime
    status: JobStatus

    @property
    def is_active(self) -> bool:
        return self.status is JobStatus.ACTIVE


@dataclass(frozen=True, slots=True)
class UserRecord:
    user_id: str
    resume_category: str | None
    location: tuple[float, float] | None
    registered: bool


@dataclass(frozen=True, slots=True)
class DedupedSignal:
    """One distinct (user, job, kind) triple surviving deduplication.

    ``timestamp`` is the latest observed occurrence. For clicks,
    ``query_ids`` carries every non-empty query id seen across the merged
    click events so query-scoped co-click grouping survives deduplication.
    """

    user_id: str
    job_id: str
    kind: SignalKind
    timestamp: datetime
    query_ids: frozenset[str] = frozenset()


@dataclass(frozen=True, slots=True)
class ParseIssue:
    """A recoverable per-line parse failure."""

    line_no: int
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"line {self.line_no}: {self.message}"


_KIND_TOKENS = {k.value: k for k in SignalKind}
_STATUS_TOKENS = {s.value: s for s in JobStatus}
_TRUE_TOKENS = {"true", "1", "yes"}
_FALSE_TOKENS = {"false", "0", "no"}


def parse_timestamp(token: str) -> datetime:
    """Parse an ISO-8601 timestamp; naive values are taken as UTC."""
    token = token.strip()
    if token.endswith(("Z", "z")):
        token = token[:-1] + "+00:00"
    ts = datetime.fromisoformat(token)
    if ts.tzinfo is None:
        return ts.replace(tzinfo=timezone.utc)
    return ts if ts.tzinfo is timezone.utc else ts.astimezone(timezone.utc)


def format_timestamp(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


def _csv_rows(lines: Iterable[str]):
    """Yield (line_no, row) for non-blank lines, 1-based numbering."""
    for line_no, line in enumerate(lines, start=1):
        line = line.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        plain = '"' not in line and "\r" not in line and "\n" not in line and "\0" not in line
        yield line_no, line.split(",") if plain else next(csv.reader([line]))


def parse_events(lines: Iterable[str]) -> tuple[list[InteractionEvent], list[ParseIssue]]:
    """Parse the events file; every well-formed line yields exactly one event.

    Ordering is preserved. A line missing the trailing query_id column is
    accepted with ``query_id=None``.
    """
    events: list[InteractionEvent] = []
    issues: list[ParseIssue] = []
    for line_no, row in _csv_rows(lines):
        if len(row) not in (4, 5):
            issues.append(ParseIssue(line_no, f"expected 4 or 5 fields, got {len(row)}"))
            continue
        user_id, job_id, kind_tok, ts_tok = map(str.strip, row[:4])
        query_id = row[4].strip() if len(row) == 5 else ""
        if not user_id or not job_id:
            issues.append(ParseIssue(line_no, "empty user_id or job_id"))
            continue
        kind = _KIND_TOKENS.get(kind_tok.lower())
        if kind is None:
            issues.append(ParseIssue(line_no, f"unknown kind {kind_tok!r}"))
            continue
        try:
            ts = parse_timestamp(ts_tok)
        except ValueError:
            issues.append(ParseIssue(line_no, f"bad timestamp {ts_tok!r}"))
            continue
        events.append(InteractionEvent(user_id, job_id, kind, ts, query_id or None))
    return events, issues


def write_rows(rows: Iterable[Sequence[str]], fh) -> None:
    """Write CSV rows that the parsers read back field for field.

    The parsers strip every field, so a field with leading or trailing
    whitespace would come back changed: it raises ``ValueError`` naming it.
    """
    writer = csv.writer(fh, lineterminator="\n")
    for row in rows:
        for field in row:
            if field != field.strip():
                raise ValueError(f"field {field!r} has leading or trailing whitespace")
        writer.writerow(row)


def write_events(events: Iterable[InteractionEvent], fh) -> None:
    """Write events in the file format that :func:`parse_events` reads."""
    write_rows(
        ((e.user_id, e.job_id, e.kind.value, format_timestamp(e.timestamp), e.query_id or "")
         for e in events),
        fh,
    )


def _parse_latlon(lat_tok: str, lon_tok: str) -> tuple[float, float] | None:
    lat_tok, lon_tok = lat_tok.strip(), lon_tok.strip()
    if not lat_tok and not lon_tok:
        return None
    lat, lon = float(lat_tok), float(lon_tok)
    if not (np.isfinite(lat) and np.isfinite(lon)):
        raise ValueError("non-finite coordinate")
    return (lat, lon)


def parse_jobs(lines: Iterable[str]) -> tuple[dict[str, JobRecord], list[ParseIssue]]:
    """Parse the jobs file into a job_id -> JobRecord mapping."""
    jobs: dict[str, JobRecord] = {}
    issues: list[ParseIssue] = []
    for line_no, row in _csv_rows(lines):
        if len(row) != 7:
            issues.append(ParseIssue(line_no, f"expected 7 fields, got {len(row)}"))
            continue
        job_id, title, category, lat, lon, posted_tok, status_tok = (f.strip() for f in row)
        if not job_id or not category:
            issues.append(ParseIssue(line_no, "empty job_id or category"))
            continue
        status = _STATUS_TOKENS.get(status_tok.lower())
        if status is None:
            issues.append(ParseIssue(line_no, f"unknown status {status_tok!r}"))
            continue
        try:
            posted_at = parse_timestamp(posted_tok)
            location = _parse_latlon(lat, lon)
        except ValueError as exc:
            issues.append(ParseIssue(line_no, str(exc) or "bad field"))
            continue
        if job_id in jobs:
            issues.append(ParseIssue(line_no, f"duplicate job_id {job_id!r}"))
        jobs[job_id] = JobRecord(job_id, title, category, location, posted_at, status)
    return jobs, issues


def parse_embeddings(lines: Iterable[str]) -> tuple[dict[str, np.ndarray], list[ParseIssue]]:
    """Parse the embeddings file into a job_id -> float64 vector mapping.

    All vectors must share the dimensionality of the first line with
    numeric components; vectors with NaN/inf components or zero norm are
    rejected per line. The kept vectors are rows of one matrix.
    """
    # components go straight into one float buffer: no line's tokens outlive it
    ids, line_nos, values = [], [], array("d")
    issues: list[ParseIssue] = []
    dim: int | None = None
    for line_no, tokens in enumerate(map(str.split, lines), start=1):
        if not tokens:
            continue
        mark = len(values)
        try:
            values.extend(map(float, tokens[1:]))
        except ValueError:
            message = "non-numeric component"
        else:
            width = len(values) - mark
            if dim is None and width:
                dim = width
            if width == dim:
                ids.append(tokens[0])
                line_nos.append(line_no)
                continue
            message = f"dimension {width} != corpus dimension {dim}" if width else "no vector components"
        del values[mark:]
        issues.append(ParseIssue(line_no, message))
    mat = np.frombuffer(values).reshape(len(ids), dim or 0)
    finite = np.isfinite(mat).all(axis=1).tolist()
    # a norm is zero just where every square underflows; a square that
    # overflows leaves it infinite, so nonzero
    with np.errstate(over="ignore"):
        nonzero = np.linalg.norm(mat, axis=1).astype(bool).tolist()
    vectors: dict[str, np.ndarray] = {}
    for job_id, line_no, vec, ok, nonzero_norm in zip(ids, line_nos, mat, finite, nonzero):
        if not ok:
            issues.append(ParseIssue(line_no, "non-finite component"))
        elif not nonzero_norm:
            issues.append(ParseIssue(line_no, "zero-norm vector"))
        else:
            if job_id in vectors:
                issues.append(ParseIssue(line_no, f"duplicate job_id {job_id!r}"))
            vectors[job_id] = vec
    issues.sort(key=lambda issue: issue.line_no)
    return vectors, issues


def parse_users(lines: Iterable[str]) -> tuple[dict[str, UserRecord], list[ParseIssue]]:
    users: dict[str, UserRecord] = {}
    issues: list[ParseIssue] = []
    for line_no, row in _csv_rows(lines):
        if len(row) != 5:
            issues.append(ParseIssue(line_no, f"expected 5 fields, got {len(row)}"))
            continue
        user_id, category, lat, lon, registered_tok = (f.strip() for f in row)
        if not user_id:
            issues.append(ParseIssue(line_no, "empty user_id"))
            continue
        tok = registered_tok.lower()
        if tok in _TRUE_TOKENS:
            registered = True
        elif tok in _FALSE_TOKENS:
            registered = False
        else:
            issues.append(ParseIssue(line_no, f"bad registered flag {registered_tok!r}"))
            continue
        try:
            location = _parse_latlon(lat, lon)
        except ValueError:
            issues.append(ParseIssue(line_no, "bad coordinates"))
            continue
        if user_id in users:
            issues.append(ParseIssue(line_no, f"duplicate user_id {user_id!r}"))
        users[user_id] = UserRecord(user_id, category or None, location, registered)
    return users, issues


def window_filter(
    events: Iterable[InteractionEvent],
    reference_date: datetime,
    window_days: int = 180,
) -> list[InteractionEvent]:
    """Keep exactly the events with ``reference_date - timestamp < window_days``.

    The boundary is strict: an event aged exactly ``window_days`` is dropped.
    """
    if window_days <= 0:
        raise ValueError(f"window_days must be positive, got {window_days}")
    horizon = timedelta(days=window_days)
    return [e for e in events if reference_date - e.timestamp < horizon]


def resolve_jobs(
    events: Sequence[InteractionEvent], jobs: Mapping[str, JobRecord]
) -> tuple[list[InteractionEvent], int]:
    """Drop events whose job_id is absent from the jobs corpus.

    Returns the kept events and the dropped count; dropping is a warning,
    not an error.
    """
    kept = [event for event in events if event.job_id in jobs]
    dropped = len(events) - len(kept)
    if dropped:
        logger.warning("dropped %d events referencing unknown jobs", dropped)
    return kept, dropped


def active_job_ids(jobs: Mapping[str, JobRecord]) -> frozenset[str]:
    """Ids of the jobs that may be served."""
    return frozenset(j for j, rec in jobs.items() if rec.is_active)


def dedupe(events: Iterable[InteractionEvent]) -> list[DedupedSignal]:
    """Collapse events to distinct (user, job, kind) triples.

    The retained timestamp is the maximum observed, and click triples carry
    the union of observed query ids. Output order is (user, job, kind) so
    the result is invariant under input permutation.
    """
    # keyed on kind.value: a str hashes in C, an Enum member in Python
    best: dict[tuple[str, str, str], InteractionEvent] = {}
    queries: dict[tuple[str, str, str], set[str]] = {}
    for event in events:
        key = (event.user_id, event.job_id, event.kind.value)
        prev = best.get(key)
        if prev is None or event.timestamp > prev.timestamp:
            best[key] = event
        if event.query_id and event.kind is SignalKind.CLICK:
            queries.setdefault(key, set()).add(event.query_id)
    # one shared empty query set and no (key, event) pairs: fewer objects for the GC to scan
    no_queries: frozenset[str] = frozenset()
    signals = []
    for key in sorted(best):
        e = best[key]
        query_ids = frozenset(queries[key]) if key in queries else no_queries
        signals.append(DedupedSignal(e.user_id, e.job_id, e.kind, e.timestamp, query_ids))
    return signals
