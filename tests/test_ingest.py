"""Parsing, windowing and deduplication tests."""

import csv
import io
import random
import tracemalloc
from datetime import timedelta, timezone

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import REF, ev, event_records, make_job, reference_parse_embeddings, signal_records, ts
from jobgraph import ingest
from jobgraph.evaluation import synth_corpus
from jobgraph.ingest import (
    InteractionEvent,
    ParseIssue,
    SignalKind,
    dedupe,
    format_timestamp,
    parse_embeddings,
    parse_events,
    parse_jobs,
    parse_timestamp,
    parse_users,
    resolve_jobs,
    window_filter,
    write_events,
)
from jobgraph.textblock import split_block


# ---------------------------------------------------------------------------
# timestamps


def test_parse_timestamp_variants():
    z = parse_timestamp("2017-06-01T00:00:00Z")
    offset = parse_timestamp("2017-06-01T02:00:00+02:00")
    naive = parse_timestamp("2017-06-01T00:00:00")
    assert z == offset == naive
    assert z.tzinfo == timezone.utc


def test_an_offset_past_the_year_range_is_a_bad_timestamp():
    with pytest.raises(ValueError, match="out of range"):
        parse_timestamp("0001-01-01T00:30:00+01:00")
    log, issues = parse_events(["u1,j1,apply,0001-01-01T00:30:00+01:00", "u1,j1,apply,9999-12-31T23:00:00-02:00"])
    assert len(log) == 0 and [i.line_no for i in issues] == [1, 2]


def test_format_timestamp_round_trip():
    stamp = ts(17.25, 42)
    assert parse_timestamp(format_timestamp(stamp)) == stamp
    assert format_timestamp(stamp).endswith("Z")


# ---------------------------------------------------------------------------
# events file


def test_parse_events_five_and_four_fields():
    lines = [
        "u1,j1,apply,2017-05-01T12:00:00Z,q9",
        "u1,j2,click,2017-05-02T12:00:00Z,",
        "u2,j1,email_open_no_click,2017-05-03T08:30:00Z",
    ]
    log, issues = parse_events(lines)
    events = event_records(log)
    assert not issues
    assert [e.kind for e in events] == [
        SignalKind.APPLY,
        SignalKind.CLICK,
        SignalKind.EMAIL_OPEN_NO_CLICK,
    ]
    assert events[0].query_id == "q9"
    assert events[1].query_id is None


def test_parse_events_recovers_per_line():
    lines = [
        "u1,j1,apply,2017-05-01T12:00:00Z",
        "u1,j1,frobnicate,2017-05-01T12:00:00Z",
        "u1,j1,apply,not-a-date",
        ",j1,apply,2017-05-01T12:00:00Z",
        "u9,j9,click,2017-05-04T12:00:00Z,q1",
        "too,few",
    ]
    events, issues = parse_events(lines)
    assert len(events) == 2
    assert len(issues) == 4
    assert {i.line_no for i in issues} == {2, 3, 4, 6}


def test_parse_events_fuzz_counts_recovered():
    rng = random.Random(4)
    kinds = ["apply", "click", "email_open_no_click"]
    good, bad = [], []
    for i in range(200):
        line = f"u{rng.randrange(20)},j{rng.randrange(30)},{rng.choice(kinds)},2017-0{rng.randrange(1, 6)}-10T0{rng.randrange(10)}:00:00Z"
        good.append(line)
    for i in range(40):
        base = good[rng.randrange(len(good))].split(",")
        mutation = rng.randrange(3)
        if mutation == 0:
            base[2] = "bogus"
        elif mutation == 1:
            base[3] = "2017-99-99"
        else:
            base = base[:2]
        bad.append(",".join(base))
    mixed = good + bad
    rng.shuffle(mixed)
    events, issues = parse_events(mixed)
    assert len(events) == 200
    assert len(issues) == 40


def test_event_round_trip_is_fixed_point(tmp_path):
    events = [
        ev("u1", "j1", SignalKind.APPLY, 3.0),
        ev("u2", "j2", SignalKind.CLICK, 1.5, query_id="q1"),
        ev("u3", "j3", SignalKind.EMAIL_OPEN_NO_CLICK, 0.25),
    ]
    path = tmp_path / "events.csv"
    with path.open("w") as fh:
        write_events(events, fh)
    reparsed, issues = parse_events(path.read_text().splitlines())
    assert not issues
    assert event_records(reparsed) == events


def test_parse_events_peak_memory_stays_near_one_block():
    """The traced peak of ``parse_events`` on 2,400 events (300 users) is
    0.64 MB at 1,024-line blocks. Read row by row, with the timestamps
    read 4,096 at a time, it was 1.00 MB, as much as the whole file read
    as one block. The bound keeps the 15% headroom that the
    ``load_digraph`` peak test had over its measured peak."""
    corpus = synth_corpus(10, 100, 300, 0.1, 0)
    out = io.StringIO()
    write_events(corpus.events, out)
    lines = out.getvalue().splitlines(keepends=True)
    tracemalloc.start()
    try:
        log, issues = parse_events(iter(lines))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(log) == len(lines) == 2_400 and not issues
    assert peak < 740_000


@pytest.mark.parametrize(
    "user_id, query_id, padded", [("u 1 ", "q", "u 1 "), ("u1", " q", " q"), ("\tu1", None, "\tu1")]
)
def test_write_events_refuses_a_field_the_parser_would_strip(tmp_path, user_id, query_id, padded):
    event = ev(user_id, "j1", SignalKind.CLICK, query_id=query_id)
    with (tmp_path / "events.csv").open("w") as fh, pytest.raises(ValueError, match="whitespace") as exc:
        write_events([event], fh)
    assert repr(padded) in str(exc.value)


# ---------------------------------------------------------------------------
# jobs / users / embeddings files


def test_parse_jobs_happy_and_issues():
    lines = [
        "j1,Nurse,healthcare,40.7,-74.0,2017-04-01T00:00:00Z,active",
        "j2,Driver,transport,,,2017-04-02T00:00:00Z,expired",
        "j3,Clerk,admin,1.0,2.0,2017-04-03T00:00:00Z,limbo",
        "j4,NoCat,,1.0,2.0,2017-04-03T00:00:00Z,active",
    ]
    jobs, issues = parse_jobs(lines)
    assert set(jobs) == {"j1", "j2"}
    assert jobs["j1"].is_active and not jobs["j2"].is_active
    assert jobs["j1"].location == (40.7, -74.0)
    assert jobs["j2"].location is None
    assert len(issues) == 2


def test_parse_users():
    lines = [
        "u1,healthcare,40.7,-74.0,true",
        "u2,,,,false",
        "u3,sales,1.0,2.0,maybe",
    ]
    users, issues = parse_users(lines)
    assert set(users) == {"u1", "u2"}
    assert users["u2"].resume_category is None
    assert users["u2"].location is None
    assert not users["u2"].registered
    assert len(issues) == 1


@pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
def test_non_finite_coordinates_are_rejected(token):
    jobs, job_issues = parse_jobs([f"j1,Nurse,health,{token},1.0,2017-04-01T00:00:00Z,active"])
    users, user_issues = parse_users([f"u1,health,1.0,{token},true"])
    assert not jobs and job_issues == [ParseIssue(1, "non-finite coordinate")]
    assert not users and user_issues == [ParseIssue(1, "bad coordinates")]


@pytest.mark.parametrize("lat, lon", [("120.0", "10.0"), ("-90.5", "0"), ("10.0", "400.0"), ("0", "-180.01")])
def test_out_of_range_coordinates_are_rejected(lat, lon):
    jobs, job_issues = parse_jobs([f"j1,Nurse,health,{lat},{lon},2017-04-01T00:00:00Z,active"])
    users, user_issues = parse_users([f"u1,health,{lat},{lon},true"])
    assert not jobs and job_issues == [ParseIssue(1, "coordinate out of range")]
    assert not users and user_issues == [ParseIssue(1, "bad coordinates")]


def test_coordinates_on_the_range_bounds_are_kept():
    jobs, job_issues = parse_jobs(["j1,Nurse,health,90,-180,2017-04-01T00:00:00Z,active"])
    users, user_issues = parse_users(["u1,health,-90.0,180.0,true"])
    assert not job_issues and jobs["j1"].location == (90.0, -180.0)
    assert not user_issues and users["u1"].location == (-90.0, 180.0)


def test_parse_embeddings_rejects_bad_vectors():
    lines = [
        "j1 1.0 0.0 0.0",
        "j2 0.5 0.5 0.5",
        "j3 1.0 0.0",          # dimension mismatch
        "j4 0.0 0.0 0.0",      # zero norm
        "j5 nan 0.0 1.0",      # non-finite
        "j6 a b c",            # non-numeric
    ]
    vectors, issues = parse_embeddings(lines)
    assert set(vectors) == {"j1", "j2"}
    assert vectors["j1"].shape == (3,)
    assert len(issues) == 4


def test_parse_embeddings_keeps_a_vector_whose_squares_overflow():
    lines = ["j1 1e200 1.0", "j2 1e-200 1e-200", "j3 0.5 -2.0"]
    vectors, issues = parse_embeddings(lines)
    assert issues == [ParseIssue(2, "zero-norm vector")]
    assert [(job_id, vec.tolist()) for job_id, vec in vectors.items()] == [("j1", [1e200, 1.0]), ("j3", [0.5, -2.0])]


def _csv_reader_row(line):
    """The fields of one input line as the per-line csv.reader parsed them;
    None for a blank line."""
    line = line.rstrip("\n").rstrip("\r")
    return next(csv.reader([line])) if line.strip() else None


def test_csv_rows_split_as_one_csv_reader_per_line():
    rng = random.Random(9)
    alphabet = ["a", "b", " ", ",", ",", '"', '"', "\r", "\0", "\n", "\t", "é"]
    lines = ["", "   ", "\n", "\r\n", ",", ",,", '""', 'a,"b,c"', 'a,"b""c",d', "a\0b,c"]
    for _ in range(3000):
        body = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        lines.append(body + rng.choice(["", "\n", "\r\n"]))
    parsed = []
    for line in lines:
        try:
            parsed.append((line, _csv_reader_row(line)))
        except csv.Error:  # a bare \r or \n inside the line
            with pytest.raises(csv.Error):
                list(ingest._csv_rows([line]))
    assert sum(row is None for _, row in parsed) > 100 and len(parsed) > 1000
    want = [(line_no, row) for line_no, (_, row) in enumerate(parsed, start=1) if row is not None]
    assert list(ingest._csv_rows(line for line, _ in parsed)) == want


def test_split_block_takes_only_lines_of_one_width_each():
    lines = ["a,b,c,d\n", "e,f,g,h\r\n", "i,j,k,l"]
    assert split_block(lines, (4, 5), "\r") == [["a", "e", "i"], ["b", "f", "j"], ["c", "g", "k"], ["d", "h", "l"]]
    for lines in (
        ["a,b,c\n", "d,e,f,g,h\n"],  # 3 and 5 fields, 4 on average
        ["a,b,c", "d\n,e,f,g,h\n"],  # a line with no break, then one with two
        ["a,b\n,c,d\n"],  # a break inside the line
        ["a,b,c,d\n", "\n", "e,f,g,h\n"],  # a blank line
        ["\n", "a,b,c,d\n"],
        ["a,b,c,d\n", "\r\n"],
        ["a,b,c,d\r\r\n"],  # a CR that is not a line end's
        ["a,b,c\n"],  # a width not asked for
    ):
        assert split_block(lines, (4, 5), "\r") is None, lines


def _embedding_bits(vectors):
    return {job_id: vec.view(np.int64).tolist() for job_id, vec in vectors.items()}


def test_parse_embeddings_matches_the_line_by_line_oracle():
    rng = random.Random(4)
    defects = [
        lambda dim: "j00 " + " ".join(["0.5"] * dim),  # duplicate id
        lambda dim: f"w{rng.randint(0, 99)} " + " ".join(["0.5"] * (dim + 1)),  # wrong width
        lambda dim: f"w{rng.randint(0, 99)}",  # no components
        lambda dim: f"n{rng.randint(0, 99)} " + " ".join(["inf"] + ["1"] * (dim - 1)),
        lambda dim: f"n{rng.randint(0, 99)} " + " ".join(["nan"] * dim),
        lambda dim: f"z{rng.randint(0, 99)} " + " ".join(["0.0"] * dim),  # zero norm
        lambda dim: f"z{rng.randint(0, 99)} " + " ".join(["1e-200"] * dim),  # norm underflows
        lambda dim: f"x{rng.randint(0, 99)} " + " ".join(["one"] * dim),  # non-numeric
    ]
    values = ["0.0", "-0.0", "1", "1e16", "5e-324", "2.5e-310", "0.30000000000000004", "-7.25", "1_0"]

    def component():
        return rng.choice(values) if rng.random() < 0.5 else repr(rng.gauss(0, 1))

    for trial in range(60):
        dim = rng.randint(1, 6)
        # a valid row: a nonzero first component, then any finite ones
        lines = [
            f"j{i:02d} {rng.uniform(0.5, 2.0)!r} " + " ".join(component() for _ in range(dim - 1))
            for i in range(rng.randint(1, 12))
        ]
        clean = trial % 2 == 0
        if not clean:
            for _ in range(rng.randint(1, 3)):
                lines.insert(rng.randint(0, len(lines)), rng.choice(defects)(dim))
        lines.insert(rng.randint(0, len(lines)), "   \n")  # a blank line
        want_vectors, want_issues = reference_parse_embeddings(lines)
        got_vectors, got_issues = parse_embeddings(iter(lines))
        assert list(got_vectors) == list(want_vectors)
        assert _embedding_bits(got_vectors) == _embedding_bits(want_vectors)
        assert got_issues == want_issues
        assert clean == (not got_issues)
        # every kept vector is a row of one array
        assert all(vec.base is not None for vec in got_vectors.values())
        assert len({id(vec.base) for vec in got_vectors.values()}) <= 1
    # files of one width with no components, or with no lines at all
    for lines in (["j1", "j2 \n"], [], ["\n", "  "]):
        assert parse_embeddings(lines) == reference_parse_embeddings(lines)


# ---------------------------------------------------------------------------
# windowing


def test_window_boundary_is_strict():
    inside = ev("u", "a", age_days=179.0)
    just_inside = InteractionEvent("u", "b", SignalKind.APPLY, REF - timedelta(days=180) + timedelta(seconds=1))
    boundary = ev("u", "c", age_days=180.0)
    outside = ev("u", "d", age_days=181.0)
    future = ev("u", "e", age_days=-1.0)
    kept = event_records(window_filter([inside, just_inside, boundary, outside, future], REF, 180))
    assert [e.job_id for e in kept] == ["a", "b", "e"]


def test_window_filter_rejects_bad_window():
    with pytest.raises(ValueError):
        window_filter([], REF, 0)


def test_window_filter_matches_comprehension_oracle():
    rng = random.Random(9)
    events = [ev(f"u{i}", f"j{i}", age_days=rng.uniform(-10, 400)) for i in range(300)]
    kept = event_records(window_filter(events, REF, 180))
    expected = [e for e in events if (REF - e.timestamp) < timedelta(days=180)]
    assert kept == expected


# ---------------------------------------------------------------------------
# resolve + dedupe


def test_resolve_jobs_drops_unknown():
    jobs = {"j1": make_job("j1")}
    events = [ev("u1", "j1"), ev("u1", "ghost"), ev("u2", "j1")]
    kept, dropped = resolve_jobs(events, jobs)
    assert dropped == 1
    assert [e.job_id for e in event_records(kept)] == ["j1", "j1"]


def test_dedupe_keeps_latest_and_unions_queries():
    events = [
        ev("u1", "j1", SignalKind.CLICK, 5.0, query_id="q1"),
        ev("u1", "j1", SignalKind.CLICK, 2.0, query_id="q2"),
        ev("u1", "j1", SignalKind.CLICK, 9.0, query_id=None),
        ev("u1", "j1", SignalKind.APPLY, 4.0),
        ev("u1", "j1", SignalKind.APPLY, 7.0),
    ]
    out = signal_records(dedupe(events))
    assert len(out) == 2
    by_kind = {s.kind: s for s in out}
    assert by_kind[SignalKind.CLICK].timestamp == ts(2.0)
    assert by_kind[SignalKind.CLICK].query_ids == frozenset({"q1", "q2"})
    assert by_kind[SignalKind.APPLY].timestamp == ts(4.0)
    assert by_kind[SignalKind.APPLY].query_ids == frozenset()


def test_dedupe_matches_brute_force_oracle():
    rng = random.Random(12)
    kinds = list(SignalKind)
    events = [
        ev(
            f"u{rng.randrange(6)}",
            f"j{rng.randrange(8)}",
            rng.choice(kinds),
            rng.uniform(0, 100),
            query_id=rng.choice([None, "qa", "qb"]),
        )
        for _ in range(400)
    ]
    out = signal_records(dedupe(events))
    expected = {}
    for e in events:
        key = (e.user_id, e.job_id, e.kind)
        prev = expected.get(key)
        stamp = max(e.timestamp, prev[0]) if prev else e.timestamp
        queries = set(prev[1]) if prev else set()
        if e.kind is SignalKind.CLICK and e.query_id:
            queries.add(e.query_id)
        expected[key] = (stamp, queries)
    assert len(out) == len(expected)
    for s in out:
        stamp, queries = expected[(s.user_id, s.job_id, s.kind)]
        assert s.timestamp == stamp
        assert s.query_ids == frozenset(queries)


@given(st.permutations(list(range(12))))
def test_dedupe_is_order_invariant(order):
    rng = random.Random(77)
    base = [
        ev(
            f"u{rng.randrange(3)}",
            f"j{rng.randrange(3)}",
            rng.choice(list(SignalKind)),
            rng.uniform(0, 30),
            query_id=rng.choice([None, "q"]),
        )
        for _ in range(12)
    ]
    assert signal_records(dedupe([base[i] for i in order])) == signal_records(dedupe(base))
