"""Parsing, validation, windowing, and deduplication of the input corpora.

Input files are headerless UTF-8 text:

* events:     ``user_id,job_id,kind,timestamp,query_id`` (CSV, query_id may
  be empty; kind is one of ``apply``, ``click``, ``email_open_no_click``)
* jobs:       ``job_id,title,category,lat,lon,posted_at,status`` (CSV)
* embeddings: ``job_id`` followed by d whitespace-separated floats per line
* users:      ``user_id,resume_category,lat,lon,registered`` (CSV)

Parsers are recoverable: malformed lines become :class:`ParseIssue` records
carrying the line number, and the remaining lines are still parsed. Only a
CSV line with quotes, line breaks or NULs goes through ``csv.reader``; the
events file is split a block of plain lines at a time, as columns, and
each other block row by row (:mod:`jobgraph.textblock`).

Events are held as one columnar :class:`EventLog` from parsing on:
windowing, job resolution and the holdout split select its rows, and
:func:`dedupe` returns the signals in the same columns.
"""

from __future__ import annotations

import csv
import logging
import math
from array import array
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from enum import Enum
from itertools import compress, islice
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .textblock import code_ids, split_block

logger = logging.getLogger(__name__)


class SignalKind(Enum):
    """Kind of user-job interaction signal."""

    APPLY = "apply"
    CLICK = "click"
    EMAIL_OPEN_NO_CLICK = "email_open_no_click"

    @property
    def code(self) -> int:
        """The kind's code in an :class:`EventLog`: its place in this enum,
        which is also the order of the kind names."""
        return list(SignalKind).index(self)


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


class DedupedSignal(NamedTuple):
    """One distinct (user, job, kind) triple surviving deduplication.

    ``timestamp`` is the latest observed occurrence. For clicks,
    ``query_ids`` carries every non-empty query id seen across the merged
    click events so query-scoped co-click grouping survives deduplication.
    The pipeline holds signals as an :class:`EventLog`; a record list enters
    it through :meth:`EventLog.from_records`.
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


_KIND_CODES = {k.value: k.code for k in SignalKind}
_STATUS_TOKENS = {s.value: s for s in JobStatus}
_TRUE_TOKENS = {"true", "1", "yes"}
_FALSE_TOKENS = {"false", "0", "no"}

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


def epoch_us(ts: datetime) -> int:
    """An aware datetime as integer microseconds since the Unix epoch."""
    return (ts - _EPOCH) // _MICROSECOND


def elapsed_days(now_us: int, us: int) -> float:
    """Days from epoch microseconds ``us`` to ``now_us``, 0 for a later ``us``: the float
    ``max((now - ts).total_seconds() / 86400.0, 0.0)``, whose seconds are also int µs / 10**6."""
    return max((now_us - us) / 10**6 / 86400.0, 0.0)


def utc_datetime(us: int) -> datetime:
    """The UTC datetime ``us`` microseconds after the Unix epoch."""
    return _EPOCH + _MICROSECOND * us  # exact, and faster than timedelta(microseconds=us)


@dataclass(frozen=True, eq=False)
class EventLog:
    """Events, or deduplicated signals, as columns.

    Row ``i`` is user ``users[user[i]]`` acting on job ``jobs[job[i]]``
    with kind ``list(SignalKind)[kind[i]]`` at ``time[i]`` microseconds
    after the Unix epoch (UTC). Its query ids are ``queries[query[p]]`` for
    the pairs ``p`` with ``query_row[p] == i``; the pairs are sorted by
    (row, query). The vocabularies ``users``, ``jobs`` and ``queries`` are
    sorted, so code order is string order; they may hold ids no row uses.
    An event has at most one query id; a signal of :func:`dedupe` holds the
    union of its clicks' query ids.
    """

    users: list[str]
    jobs: list[str]
    queries: list[str]
    user: np.ndarray
    job: np.ndarray
    kind: np.ndarray
    time: np.ndarray
    query_row: np.ndarray
    query: np.ndarray

    def __len__(self) -> int:
        return len(self.user)

    def take(self, keep: np.ndarray) -> EventLog:
        """The rows where the boolean mask ``keep`` is set, in order."""
        pairs = keep[self.query_row]
        row = np.cumsum(keep) - 1
        return replace(
            self,
            user=self.user[keep],
            job=self.job[keep],
            kind=self.kind[keep],
            time=self.time[keep],
            query_row=row[self.query_row[pairs]],
            query=self.query[pairs],
        )

    @classmethod
    def from_records(cls, records: Iterable[InteractionEvent | DedupedSignal]) -> EventLog:
        """The log of :class:`InteractionEvent` or :class:`DedupedSignal`
        records, in their order; timestamps must be timezone-aware."""
        columns = _Columns()
        for r in records:
            queries = sorted(r.query_ids) if isinstance(r, DedupedSignal) else [r.query_id] if r.query_id else []
            columns.add(r.user_id, r.job_id, r.kind.code, queries)
            columns.time.append(epoch_us(r.timestamp))
        return columns.log()


def as_event_log(rows: EventLog | Iterable[InteractionEvent | DedupedSignal]) -> EventLog:
    """``rows`` if it is an :class:`EventLog`, else the log of its records:
    how the public functions take record lists."""
    return rows if isinstance(rows, EventLog) else EventLog.from_records(rows)


class _Columns:
    """Growing columns of an :class:`EventLog`, with ids coded in order of
    first appearance until :meth:`log` sorts the vocabularies."""

    def __init__(self):
        self.users: dict[str, int] = {}
        self.jobs: dict[str, int] = {}
        self.queries: dict[str, int] = {}
        self.user, self.job, self.time = array("q"), array("q"), array("q")
        self.kind = array("b")
        self.query_row, self.query = array("q"), array("q")

    def add(self, user_id: str, job_id: str, kind: int, queries: Iterable[str]) -> None:
        """Append a row without its time; ``queries`` in string order."""
        for q in queries:
            self.query_row.append(len(self.user))
            self.query.append(self.queries.setdefault(q, len(self.queries)))
        self.user.append(self.users.setdefault(user_id, len(self.users)))
        self.job.append(self.jobs.setdefault(job_id, len(self.jobs)))
        self.kind.append(kind)

    def log(self) -> EventLog:
        users, user = _sorted_codes(self.users, self.user)
        jobs, job = _sorted_codes(self.jobs, self.job)
        queries, query = _sorted_codes(self.queries, self.query)
        kind = np.frombuffer(self.kind, dtype=np.int8)
        time = np.frombuffer(self.time, dtype=np.int64)
        query_row = np.frombuffer(self.query_row, dtype=np.int64)
        return EventLog(users, jobs, queries, user, job, kind, time, query_row, query)


def _sorted_codes(vocabulary: dict[str, int], codes: array) -> tuple[list[str], np.ndarray]:
    """The vocabulary's ids sorted, and ``codes`` recoded to their places."""
    ids = sorted(vocabulary)
    place = np.empty(len(ids), dtype=np.int64)
    place[[vocabulary[i] for i in ids]] = np.arange(len(ids))
    return ids, place[np.frombuffer(codes, dtype=np.int64)]


def _run_heads(*columns: np.ndarray) -> np.ndarray:
    """Mask of the first row of every run of equal rows of sorted columns."""
    head = np.zeros(len(columns[0]), dtype=bool)
    head[:1] = True
    for column in columns:
        head[1:] |= column[1:] != column[:-1]
    return head


def _run_tails(keys: np.ndarray) -> np.ndarray:
    """Mask of the last row of every run of equal sorted keys."""
    tail = np.ones(len(keys), dtype=bool)
    tail[:-1] = keys[1:] != keys[:-1]
    return tail


def _spans(starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For the spans ``starts[i]:ends[i]`` laid end to end: each position's
    span, and its place in the array the spans index."""
    lengths = ends - starts
    span = np.repeat(np.arange(len(starts)), lengths)
    return span, starts[span] + np.arange(len(span)) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct keys, ascending (not ``np.unique``, which imports numpy.ma)."""
    keys = np.sort(keys)
    return keys[_run_heads(keys)]


def parse_timestamp(token: str) -> datetime:
    """Parse an ISO-8601 timestamp; naive values are taken as UTC."""
    token = token.strip()
    if token.endswith(("Z", "z")):
        token = token[:-1] + "+00:00"
    ts = datetime.fromisoformat(token)
    if ts.tzinfo is None:
        return ts.replace(tzinfo=timezone.utc)
    try:
        return ts if ts.tzinfo is timezone.utc else ts.astimezone(timezone.utc)
    except OverflowError as exc:  # an offset that moves it out of years 1-9999
        raise ValueError(f"{token!r} is out of range in UTC") from exc


# A plain timestamp, YYYY-MM-DDTHH:MM:SS with an optional Z: its digit and
# separator columns, and the days of each month 0-13 of a common year
_PLAIN_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_PLAIN_SEPARATORS = {4: "-", 7: "-", 10: "T", 13: ":", 16: ":"}
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31, 0])


def _epoch_us_block(tokens: list[str]) -> tuple[np.ndarray, list[int]]:
    """Epoch microseconds of stripped timestamp tokens, as
    :func:`parse_timestamp` reads them, and the positions of the tokens it
    rejects (their value is 0).

    Plain tokens with a valid date and time are computed from their digits
    as a block; every other token goes through :func:`parse_timestamp`.
    """
    chars = np.array(tokens, dtype="<U20").view(np.uint32).reshape(len(tokens), 20)
    length = np.fromiter(map(len, tokens), dtype=np.int64, count=len(tokens))
    zulu = (chars[:, 19] == ord("Z")) | (chars[:, 19] == ord("z"))
    plain = (length == 19) | ((length == 20) & zulu)
    digits = chars[:, _PLAIN_DIGITS] - ord("0")
    plain &= (digits <= 9).all(axis=1)  # unsigned: below "0" wraps
    for column, separator in _PLAIN_SEPARATORS.items():
        plain &= chars[:, column] == ord(separator)
    del chars
    pairs = digits[:, 0::2].astype(np.int64) * 10 + digits[:, 1::2]
    pairs *= plain[:, None]  # a token that is not plain reads as zeros
    year = pairs[:, 0] * 100 + pairs[:, 1]
    month, day, hour, minute, second = pairs[:, 2:].T
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.minimum(month, 13)] + ((month == 2) & leap)
    plain &= (year > 0) & (day > 0) & (day <= month_days) & (hour < 24) & (minute < 60) & (second < 60)
    # days from 1970-01-01 by the proleptic Gregorian calendar, counted in
    # years that start on 1 March, so that a leap day ends its year
    y = year - (month <= 2)
    days = (153 * ((month + 9) % 12) + 2) // 5 + day - 1 + 365 * y + y // 4 - y // 100 + y // 400 - 719468
    out = ((days * 24 + hour) * 60 + minute) * 60 + second
    out *= 10**6 * plain
    rejected = []
    for i in np.flatnonzero(~plain).tolist():
        try:
            out[i] = epoch_us(parse_timestamp(tokens[i]))
        except ValueError:
            rejected.append(i)
    return out, rejected


def format_timestamp(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


def _csv_rows(lines: Iterable[str], start: int = 1):
    """Yield (line_no, row) for non-blank lines, numbered from ``start``."""
    for line_no, line in enumerate(lines, start=start):
        line = line.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        plain = '"' not in line and "\r" not in line and "\n" not in line and "\0" not in line
        yield line_no, line.split(",") if plain else next(csv.reader([line]))


# Events are parsed this many lines at a time: a block's text, fields and
# timestamps are freed before the next block is read
_EVENT_BLOCK = 1024

# The characters that send a block of events to the row loop: quotes, NULs,
# and those str.strip removes from a field (any CR but a line end's);
# non-ASCII text goes there too
_NOT_PLAIN = '"\0\r\t\v\f \x1c\x1d\x1e\x1f'


def parse_events(lines: Iterable[str]) -> tuple[EventLog, list[ParseIssue]]:
    """Parse the events file; every well-formed line yields exactly one
    row of the log, in file order.

    A line missing the trailing query_id column is accepted without a
    query id, as is an empty one. Issues are in line order.

    Lines are read :data:`_EVENT_BLOCK` at a time. A block of ASCII lines
    with the same 4 or 5 fields each, nonempty ids, known kinds and nothing
    to strip is read as columns; any other block row by row.
    """
    columns = _Columns()
    issues: list[ParseIssue] = []
    rejected: list[int] = []  # rows whose timestamp is not read
    lines = iter(lines)
    first = 1  # the line number of the block's first line
    while block := list(islice(lines, _EVENT_BLOCK)):
        fields = split_block(block, (4, 5), _NOT_PLAIN, ascii_only=True)
        if fields is not None and _add_plain(columns, fields):
            stamps, line_nos = fields[3], range(first, first + len(block))
        else:
            stamps, line_nos = _add_rows(columns, _csv_rows(block, first), issues)
        first += len(block)
        del block, fields
        times, bad = _epoch_us_block(stamps)
        for i in bad:
            rejected.append(len(columns.time) + i)
            issues.append(ParseIssue(line_nos[i], f"bad timestamp {stamps[i]!r}"))
        columns.time.frombytes(times.tobytes())
    issues.sort(key=lambda issue: issue.line_no)
    log = columns.log()
    if rejected:
        keep = np.ones(len(log), dtype=bool)
        keep[rejected] = False
        log = log.take(keep)
    return log, issues


def _add_plain(columns: _Columns, fields: list[list[str]]) -> bool:
    """Append the rows of a plain block's columns but their times, unless
    a row has an empty id or an unknown kind (then append none)."""
    user_ids, job_ids, kind_tokens = fields[:3]
    kinds = {token: _KIND_CODES.get(token.lower()) for token in dict.fromkeys(kind_tokens)}
    if "" in user_ids or "" in job_ids or None in kinds.values():
        return False
    if len(fields) == 5:
        row = len(columns.user)
        columns.query_row.extend(compress(range(row, row + len(user_ids)), fields[4]))
        columns.query.extend(code_ids(columns.queries, list(filter(None, fields[4]))))
    columns.user.extend(code_ids(columns.users, user_ids))
    columns.job.extend(code_ids(columns.jobs, job_ids))
    columns.kind.extend(map(kinds.__getitem__, kind_tokens))
    return True


def _add_rows(columns: _Columns, rows, issues: list[ParseIssue]) -> tuple[list[str], list[int]]:
    """Append the well-formed of (line number, row) pairs but their times,
    and return their timestamps and line numbers; each other row is an
    issue."""
    stamps, line_nos = [], []
    users, jobs, queries = columns.users, columns.jobs, columns.queries
    user, job, kind_col = columns.user, columns.job, columns.kind
    query_row, query = columns.query_row, columns.query
    for line_no, row in rows:
        if len(row) not in (4, 5):
            issues.append(ParseIssue(line_no, f"expected 4 or 5 fields, got {len(row)}"))
            continue
        user_id, job_id, kind_tok, ts_tok = map(str.strip, row[:4])
        query_id = row[4].strip() if len(row) == 5 else ""
        if not user_id or not job_id:
            issues.append(ParseIssue(line_no, "empty user_id or job_id"))
            continue
        kind = _KIND_CODES.get(kind_tok.lower())
        if kind is None:
            issues.append(ParseIssue(line_no, f"unknown kind {kind_tok!r}"))
            continue
        # Columns.add, inlined: this loop is all of the parse of such a block
        if query_id:
            query_row.append(len(user))
            query.append(queries.setdefault(query_id, len(queries)))
        user.append(users.setdefault(user_id, len(users)))
        job.append(jobs.setdefault(job_id, len(jobs)))
        kind_col.append(kind)
        stamps.append(ts_tok)
        line_nos.append(line_no)
    return stamps, line_nos


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
    if not (math.isfinite(lat) and math.isfinite(lon)):
        raise ValueError("non-finite coordinate")
    if abs(lat) > 90.0 or abs(lon) > 180.0:
        raise ValueError("coordinate out of range")
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
    events: EventLog | Iterable[InteractionEvent],
    reference_date: datetime,
    window_days: int = 180,
) -> EventLog:
    """Keep exactly the events with ``reference_date - timestamp < window_days``.

    The boundary is strict: an event aged exactly ``window_days`` is dropped.
    """
    if window_days <= 0:
        raise ValueError(f"window_days must be positive, got {window_days}")
    log = as_event_log(events)
    horizon = timedelta(days=window_days) // _MICROSECOND
    return log.take(epoch_us(reference_date) - log.time < horizon)


def resolve_jobs(
    events: EventLog | Iterable[InteractionEvent], jobs: Mapping[str, JobRecord]
) -> tuple[EventLog, int]:
    """Drop events whose job_id is absent from the jobs corpus.

    Returns the kept events and the dropped count; dropping is a warning,
    not an error.
    """
    log = as_event_log(events)
    known = np.array([job_id in jobs for job_id in log.jobs], dtype=bool)
    kept = log.take(known[log.job])
    dropped = len(log) - len(kept)
    if dropped:
        logger.warning("dropped %d events referencing unknown jobs", dropped)
    return kept, dropped


def active_job_ids(jobs: Mapping[str, JobRecord]) -> frozenset[str]:
    """Ids of the jobs that may be served."""
    return frozenset(j for j, rec in jobs.items() if rec.is_active)


def dedupe(events: EventLog | Iterable[InteractionEvent]) -> EventLog:
    """Collapse events to distinct (user, job, kind) triples.

    The retained timestamp is the maximum observed, and click triples carry
    the union of observed query ids. Output order is (user, job, kind) so
    the result is invariant under input permutation.
    """
    log = as_event_log(events)
    key = (log.user * len(log.jobs) + log.job) * len(SignalKind) + log.kind
    order = np.lexsort((log.time, key))  # each triple's latest event last
    last = _run_tails(key[order])
    signal = np.empty(len(log), dtype=np.int64)  # each event's signal
    signal[order] = np.cumsum(last) - last
    rows = order[last]
    clicks = log.kind[log.query_row] == SignalKind.CLICK.code
    n = max(len(log.queries), 1)
    pairs = _distinct(signal[log.query_row[clicks]] * n + log.query[clicks])
    return EventLog(
        log.users, log.jobs, log.queries,
        log.user[rows], log.job[rows], log.kind[rows], log.time[rows],
        pairs // n, pairs % n,
    )
