"""The columnar event log against the record pipeline it replaced.

Each function that reads or writes an :class:`EventLog` is compared with
its record oracle in ``helpers`` on generated events files: quoted
fields, CRLF line ends, blank and malformed lines, 4-field rows,
mixed-case kinds, padded fields, non-ASCII ids, timestamps in every
accepted form and some invalid ones, repeated events, clicks with 0, 1
and 2 query ids, and unknown jobs.
"""

import csv
import io
import itertools
import tempfile
from dataclasses import fields
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import (
    REF,
    cf_index_dicts,
    co_maps,
    ev,
    event_records,
    log_of,
    make_jobs,
    reference_build_matrix,
    reference_build_profiles,
    reference_cf_index,
    reference_costats,
    reference_dedupe,
    reference_holdout_split,
    reference_parse_events,
    reference_resolve_jobs,
    reference_window_filter,
    signal_records,
)
from jobgraph import ingest
from jobgraph.evaluation import DEFAULT_REFERENCE_DATE, build_cf_index, holdout_split, synth_corpus, write_corpus
from jobgraph.graph import build_costats
from jobgraph.ingest import (
    EventLog,
    SignalKind,
    UserRecord,
    _epoch_us_block,
    dedupe,
    elapsed_days,
    epoch_us,
    parse_events,
    parse_timestamp,
    resolve_jobs,
    window_filter,
    write_events,
)
from jobgraph.mf import build_matrix
from jobgraph.recommend import build_profiles

USERS = ["u1", "u2", "u3", " u1", "u,4", "ü5", "u1\xa0"]
JOBS = ["j1", "j2", "j3", "j1 ", 'j"4', "ghost", "jé"]
KNOWN_JOBS = make_jobs("j1", "j2", "j3", 'j"4')
KINDS = ["apply", "APPLY", " Click", "click", "email_open_no_click", "Email_Open_No_Click", "bogus"]
# the window's edge (REF - 180 days) is 2016-12-03T00:00:00Z
DAYS = ["2016-12-02", "2016-12-03", "2017-05-01", "2017-05-31", "2017-06-02"]
TIMES = ["00:00:00", "12:30:00", "12:30:00.250000", "12:30:00.5"]
ZONES = ["Z", "z", "", "+00:00", "+02:00", "-05:30"]
BAD_STAMPS = ["2017-02-30T00:00:00Z", "not-a-date", "0000-01-01T00:00:00", "2017-05-01T24:00:00",
              "2017-05-01T12:30:60Z", "", "0001-01-01T00:30:00+01:00", "10000-01-01T00:00:00"]
QUERIES = [None, "", "q1", "q2", "q,3"]

stamps = st.one_of(
    st.builds(lambda d, sep, t, z: d + sep + t + z, st.sampled_from(DAYS), st.sampled_from(["T", " "]),
              st.sampled_from(TIMES), st.sampled_from(ZONES)),
    st.sampled_from(BAD_STAMPS),
)


def _line(user, job, kind, stamp, query, ending):
    fields = [user, job, kind, stamp] + ([] if query is None else [query])
    out = io.StringIO()
    csv.writer(out, lineterminator=ending).writerow(fields)
    return out.getvalue()


event_lines = st.one_of(
    st.builds(_line, st.sampled_from(USERS), st.sampled_from(JOBS), st.sampled_from(KINDS), stamps,
              st.sampled_from(QUERIES), st.sampled_from(["\n", "\r\n"])),
    st.sampled_from(["\n", "  \r\n", "too,few\n", "a,b,c,d,e,f\n", ",j1,apply,2017-05-01T00:00:00Z\n"]),
)
# a file, with some of its lines repeated: equal events, or equal but for the time
event_files = st.lists(event_lines, max_size=40).flatmap(
    lambda lines: st.lists(st.sampled_from(lines), max_size=10).map(lambda extra: lines + extra)
    if lines else st.just(lines)
)
USER_RECORDS = {
    "u1": UserRecord("u1", "sales", (1.0, 2.0), True),
    "u9": UserRecord("u9", "retail", None, False),
    "u2": UserRecord("u2", "unknown", None, True),
}


@given(event_files)
@example(["u1,j1,apply,2017-05-01T12:00:00Z,q1\r\n", "\n", 'u1,"j,1",Click,2017-05-01T12:00:00.5+02:00\n'])
# a plain block whose last line has no line break, then 4 and 5 fields
@example(["u1,j1,apply,2017-05-01T12:00:00Z,q1\n", "u2,j2,Click,2017-05-01T12:00:00Z,", "u1,j1,click,2017-05-01T12:00:00Z\n",
          "u2,j2,apply,2017-05-31T12:00:00,q2\n", "u1,j1,apply,2017-02-29T00:00:00Z\n", "u2,ghost,bogus,2017-05-31T00:00:00\n"])
# a line of 3 fields, then one of 5 whose fourth field is a kind: 4 on average
@example(["u1,j1,apply\n", "u2,j2,apply,click,q1\n"])
def test_parse_events_matches_the_record_oracle(lines):
    want, want_issues = reference_parse_events(lines)
    # plain blocks, blocks that are not and bad rows meet at the block
    # boundaries of sizes 1 and 3
    for block in (1, 3, ingest._EVENT_BLOCK):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_EVENT_BLOCK", block)
            log, issues = parse_events(iter(lines))
        assert event_records(log) == want
        assert all(e.timestamp.tzinfo is REF.tzinfo for e in event_records(log))
        assert issues == want_issues
        assert log.users == sorted(set(log.users)) and log.jobs == sorted(set(log.jobs))


def test_a_written_events_file_is_read_as_plain_blocks(monkeypatch):
    corpus = synth_corpus(4, 10, 60, 0.1, 3)
    out = io.StringIO()
    write_events(corpus.events, out)
    lines = out.getvalue().splitlines(keepends=True)
    assert len(lines) > 3 * 64
    want, want_issues = reference_parse_events(lines)

    def no_rows(*args):
        raise AssertionError("a plain block went through the row loop")

    monkeypatch.setattr(ingest, "_EVENT_BLOCK", 64)
    monkeypatch.setattr(ingest, "_add_rows", no_rows)
    log, issues = parse_events(iter(lines))
    assert event_records(log) == want and issues == want_issues == []


@given(
    st.integers(1, 4), st.integers(1, 6), st.integers(0, 12), st.sampled_from([0.0, 0.3]), st.integers(0, 2**32),
    st.integers(1, 9), st.sampled_from([1, 2, 180]),
    st.sampled_from([DEFAULT_REFERENCE_DATE, datetime(2017, 6, 1, 5, 30, 0, 250000, timezone(timedelta(hours=3)))]),
)
def test_a_synth_corpus_reads_back_from_its_events_file(
    clusters, jobs_per_cluster, users, noise, seed, events_per_user, window_days, reference_date
):
    corpus = synth_corpus(clusters, jobs_per_cluster, users, noise, seed, events_per_user=events_per_user,
                          window_days=window_days, reference_date=reference_date)
    with tempfile.TemporaryDirectory() as out:
        with write_corpus(corpus, out)["events"].open(encoding="utf-8") as fh:
            log, issues = parse_events(fh)
    assert issues == []
    for column in fields(EventLog):
        got, want = getattr(log, column.name), getattr(corpus.events, column.name)
        if isinstance(want, list):
            assert got == want, column.name
        else:
            assert got.dtype == want.dtype and np.array_equal(got, want), column.name


@given(event_files, st.sampled_from([0.0, 0.3, 0.5, 0.75]), st.integers(0, 3), st.sampled_from([1, 180, 400]))
def test_each_stage_matches_its_record_oracle(lines, fraction, seed, window_days):
    log, _ = parse_events(lines)
    events, _ = reference_parse_events(lines)

    windowed = window_filter(log, REF, window_days)
    want_windowed = reference_window_filter(events, REF, window_days)
    assert event_records(windowed) == want_windowed
    resolved, dropped = resolve_jobs(windowed, KNOWN_JOBS)
    want_resolved, want_dropped = reference_resolve_jobs(want_windowed, KNOWN_JOBS)
    assert (event_records(resolved), dropped) == (want_resolved, want_dropped)
    train, test = holdout_split(resolved, fraction, seed)
    want_train, want_test = reference_holdout_split(want_resolved, fraction, seed)
    assert (event_records(train), event_records(test)) == (want_train, want_test)

    signals = dedupe(train)
    want_signals = reference_dedupe(want_train)
    assert signal_records(signals) == want_signals

    # cf lists depend on neither the order of the jobs nor of a user's applies: only each
    # job's newest-first appliers are pinned
    index, want_index = cf_index_dicts(build_cf_index(signals)), reference_cf_index(want_train)
    assert index.appliers_of == want_index.appliers_of
    assert {u: sorted(js) for u, js in index.applied_by.items()} == {
        u: sorted(js) for u, js in want_index.applied_by.items()}

    matrix, want_matrix = build_matrix(signals), reference_build_matrix(want_signals)
    assert (matrix.user_ids, matrix.job_ids, matrix.entries) == (
        want_matrix.user_ids, want_matrix.job_ids, want_matrix.entries)
    assert matrix.implicit == want_matrix.implicit

    profiles = build_profiles(signals, USER_RECORDS, {"sales", "retail"})
    want_profiles = reference_build_profiles(want_signals, USER_RECORDS, {"sales", "retail"})
    assert list(profiles.items()) == list(want_profiles.items())

    assert co_maps(build_costats(signals, KNOWN_JOBS)) == reference_costats(want_signals, KNOWN_JOBS)


def test_clicks_with_two_query_ids_keep_both_through_dedupe_and_selection():
    events = [
        ev("u1", "j1", SignalKind.CLICK, 3.0, query_id="q2"),
        ev("u1", "j1", SignalKind.CLICK, 2.0, query_id="q1"),
        ev("u1", "j2", SignalKind.CLICK, 2.5, query_id="q1"),
        ev("u1", "j1", SignalKind.APPLY, 1.0, query_id="q9"),  # a query id on an apply is not kept
    ]
    signals = dedupe(log_of(events))
    assert [(s.job_id, s.kind, sorted(s.query_ids)) for s in signal_records(signals)] == [
        ("j1", SignalKind.APPLY, []), ("j1", SignalKind.CLICK, ["q1", "q2"]), ("j2", SignalKind.CLICK, ["q1"])
    ]
    kept = signals.take(np.array([False, True, True]))
    assert [sorted(s.query_ids) for s in signal_records(kept)] == [["q1", "q2"], ["q1"]]
    assert signal_records(log_of(signal_records(signals))) == signal_records(signals)


def test_plain_timestamps_read_as_a_block_match_parse_timestamp(monkeypatch):
    tokens = ["2017-05-01T12:00:00Z", "2017-05-01T12:00:00z", "2017-05-01T12:00:00", "1970-01-01T00:00:00",
              "1969-12-31T23:59:59Z", "0001-01-01T00:00:00", "9999-12-31T23:59:59Z", "2016-02-29T23:59:59",
              "2017-05-01T12:00:00Zz", "2017-05-01T12:00:00\0", "２017-05-01T12:00:00", "-017-05-01T12:00:00"]
    # the last days of every month, and days and months out of range, in
    # leap years and common ones, at the limits of the time of day: each
    # valid one is read from its digits, and only the invalid ones are
    # passed on to parse_timestamp
    dates = [
        f"{year}-{month:02d}-{day:02d}T{hour}:{minute}:{second}{zone}"
        for year, month, day, hour, minute, second, zone in itertools.product(
            ["0000", "0001", "1900", "2000", "2016", "2100", "9999"], range(14), range(28, 33),
            ["23", "24"], ["59", "60"], ["59", "60"], ["Z", "z", ""])
    ]
    asked = []

    def recorded(token):
        asked.append(token)
        return parse_timestamp(token)

    monkeypatch.setattr(ingest, "parse_timestamp", recorded)
    times, rejected = _epoch_us_block(tokens + dates)
    for i, token in enumerate(tokens + dates):
        try:
            want = epoch_us(parse_timestamp(token))
        except ValueError:
            assert i in rejected and times[i] == 0
        else:
            assert i not in rejected and times[i] == want
    assert set(asked) & set(dates) == {dates[i - len(tokens)] for i in rejected if i >= len(tokens)}


def test_one_invalid_date_leaves_the_block_read_from_its_digits(monkeypatch):
    tokens = ["2017-05-01T12:00:00Z", "2017-02-29T00:00:00Z", "2016-02-29T23:59:59", "0001-01-01T00:00:00z"]
    asked = []

    def counted(token):
        asked.append(token)
        return parse_timestamp(token)

    monkeypatch.setattr(ingest, "parse_timestamp", counted)
    times, rejected = _epoch_us_block(tokens)
    assert asked == ["2017-02-29T00:00:00Z"] and rejected == [1]
    assert times.tolist() == [epoch_us(parse_timestamp(token)) if i != 1 else 0 for i, token in enumerate(tokens)]


utc_datetimes = st.datetimes(timezones=st.just(timezone.utc))  # years 1 to 9999, to the microsecond


@given(utc_datetimes, utc_datetimes)
@example(datetime(9999, 12, 31, 23, 59, 59, 999999, timezone.utc), datetime(1, 1, 1, tzinfo=timezone.utc))
@example(datetime(3000, 1, 1, tzinfo=timezone.utc), datetime(2999, 12, 31, 23, 59, 59, 999999, timezone.utc))
@example(REF, REF + timedelta(microseconds=1))
@example(REF, REF - timedelta(seconds=1.5))
def test_elapsed_days_is_the_timedelta_age_to_the_bit(reference_date, stamp):
    want = max((reference_date - stamp).total_seconds() / 86400.0, 0.0)
    assert elapsed_days(epoch_us(reference_date), epoch_us(stamp)) == want


def test_window_filter_keeps_the_event_one_microsecond_inside():
    inside = REF - timedelta(days=180) + timedelta(microseconds=1)
    lines = [f"u1,j1,apply,{(inside - timedelta(microseconds=1)).isoformat()}\n", f"u1,j1,apply,{inside.isoformat()}\n"]
    log, issues = parse_events(lines)
    assert not issues
    assert [e.timestamp for e in event_records(window_filter(log, REF, 180))] == [inside]
