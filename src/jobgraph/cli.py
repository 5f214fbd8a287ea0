"""Command-line pipeline driver.

Subcommands:
    build         ingest raw files, build the scored digraph, persist it
    recommend     print the ranked list for a single user
    serve-batch   recommend for every user id in a file
    evaluate      offline three-system comparison on a temporal holdout
    synth         generate a seeded synthetic corpus
    init-config   write the annotated default config

``build`` writes the per-signal connectivity report into its manifest.

Exit codes: 0 success, 1 input error, 2 config error, 3 internal error.
All commands are deterministic given their inputs, the config and the
seed; nothing reads the wall clock (the reference date is always given).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict, replace
from datetime import datetime
from pathlib import Path

from . import __version__
from .config import ConfigError, DEFAULT_CONFIG_TEXT, EngineConfig, config_hash, load_config
from .evaluation import (
    DEFAULT_REFERENCE_DATE,
    connectivity_report,
    evaluate_systems,
    format_report,
    synth_corpus,
    write_corpus,
)
from .ingest import (
    active_job_ids,
    dedupe,
    parse_embeddings,
    parse_events,
    parse_jobs,
    parse_timestamp,
    parse_users,
    resolve_jobs,
    window_filter,
)
from .recommend import UserProfile, build_profiles, classify_user, recommend
from .scoring import build_digraph, dump_digraph, load_digraph

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3


class CliError(Exception):
    """A user-facing failure carrying its exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read(path: str | Path, parse, stage: str, code: int = EXIT_INPUT):
    """``parse`` applied to the file at ``path``, opened as UTF-8 and read
    line by line as ``parse`` iterates it. A file that cannot be opened or
    decoded exits with ``code``; a decode error is a ``ValueError``, so it is
    mapped here before a caller's handler for malformed rows can see it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(code, f"{stage}: cannot read {path}: {exc}") from exc


def _load_engine_config(args) -> EngineConfig:
    """The ``--config`` file (defaults without one), with any ``--seed`` applied."""
    config = EngineConfig()
    if args.config is not None:
        config = _read(args.config, load_config, "config", EXIT_CONFIG)
    return config if getattr(args, "seed", None) is None else replace(config, seed=args.seed)


def _parse_reference_date(token: str) -> datetime:
    try:
        return parse_timestamp(token)
    except ValueError as exc:
        raise CliError(EXIT_INPUT, f"bad --reference-date {token!r}: {exc}") from exc


def _log_issues(stage: str, issues) -> None:
    for issue in issues[:20]:
        logger.warning("%s: %s", stage, issue)
    if len(issues) > 20:
        logger.warning("%s: %d further issues suppressed", stage, len(issues) - 20)


def _load_corpus(args):
    """Parse the raw input files named by the common CLI flags."""
    events, issues = _read(args.events, parse_events, "events")
    _log_issues("events", issues)
    counts = {"events_total": len(events), "events_parse_issues": len(issues)}
    jobs, issues = _read(args.jobs, parse_jobs, "jobs")
    _log_issues("jobs", issues)
    if not jobs:
        raise CliError(EXIT_INPUT, f"jobs: no valid records in {args.jobs}")
    counts.update(jobs=len(jobs), jobs_parse_issues=len(issues))
    embeddings, users = {}, {}
    path = getattr(args, "embeddings", None)
    if path is not None:
        embeddings, issues = _read(path, parse_embeddings, "embeddings")
        _log_issues("embeddings", issues)
        counts.update(embeddings=len(embeddings), embeddings_parse_issues=len(issues))
    else:
        logger.warning("no embeddings given: building from behavioral signals only")
        counts["embeddings"] = 0
    upath = getattr(args, "users", None)
    if upath is not None:
        users, issues = _read(upath, parse_users, "users")
        _log_issues("users", issues)
    return events, jobs, embeddings, users, counts


def _prepare_signals(events, jobs, reference_date, config):
    windowed = window_filter(events, reference_date, config.window_days)
    resolved, dropped = resolve_jobs(windowed, jobs)
    return dedupe(resolved), len(windowed), dropped


# ---------------------------------------------------------------------------
# subcommands


def _cmd_build(args) -> int:
    config = _load_engine_config(args)
    reference_date = _parse_reference_date(args.reference_date)
    events, jobs, embeddings, _, counts = _load_corpus(args)
    signals, in_window, dropped = _prepare_signals(events, jobs, reference_date, config)
    del events  # the parsed events are not needed past the signals
    digraph, graph, content = build_digraph(signals, jobs, embeddings, config)
    report = connectivity_report(graph, content, digraph.active_jobs)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "digraph.csv").open("w", encoding="utf-8") as fh:
        dump_digraph(digraph, fh)

    manifest = dict(counts)
    manifest.update(
        {
            "reference_date": args.reference_date,
            "window_days": config.window_days,
            "events_in_window": in_window,
            "events_unknown_job": dropped,
            "signals": len(signals),
            "active_jobs": len(digraph.active_jobs),
            "graph_nodes": graph.num_nodes,
            "graph_edges": graph.num_edges,
            "content_pairs": len(content),
            "digraph_edges": digraph.num_edges,
            "connectivity": report.labeled(),
            "config_hash": config_hash(config),
        }
    )
    with (out_dir / "manifest.json").open("w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    logger.info(
        "build complete: %d nodes, %d multigraph edges, %d digraph edges",
        graph.num_nodes,
        graph.num_edges,
        digraph.num_edges,
    )
    print(out_dir / "manifest.json")
    return EXIT_OK


def _serving_setup(args):
    """What ``recommend`` and ``serve-batch`` share: parse the inputs, load
    the built digraph against today's active jobs and build the profiles.
    Returns the profiles and a function that serves one profile."""
    config = _load_engine_config(args)
    reference_date = _parse_reference_date(args.reference_date)
    events, jobs, embeddings, users, _ = _load_corpus(args)
    signals, _, _ = _prepare_signals(events, jobs, reference_date, config)
    del events  # the parsed events are not needed past the signals
    digraph_path = Path(args.graph_dir) / "digraph.csv"
    active = active_job_ids(jobs)
    try:  # parsed as it is read, in blocks
        digraph = _read(digraph_path, lambda fh: load_digraph(fh, active), "digraph")
    except ValueError as exc:  # a malformed row
        raise CliError(EXIT_INPUT, f"{digraph_path}: {exc}") from exc
    taxonomy = {j.category for j in jobs.values()}
    profiles = build_profiles(signals, users, taxonomy)

    def serve(profile):
        return recommend(profile, digraph, jobs, embeddings, reference_date, config)

    return profiles, serve


def _cmd_recommend(args) -> int:
    profiles, serve = _serving_setup(args)
    if args.user_id not in profiles:
        logger.warning("user %s has no events and no record: treated as anonymous", args.user_id)
    profile = profiles.get(args.user_id) or UserProfile(args.user_id)
    recs = serve(profile)
    for rank, rec in enumerate(recs, start=1):
        print(f"{rank},{rec.job_id},{rec.score!r},{rec.provenance.value}")
    logger.info("user %s (%s): %d recommendations", args.user_id, classify_user(profile).value, len(recs))
    return EXIT_OK


def _cmd_serve_batch(args) -> int:
    profiles, serve = _serving_setup(args)
    requested = _read(args.user_ids, lambda fh: [u for u in map(str.strip, fh) if u], "user-ids")
    unknown = 0
    provenance_counts: dict[str, int] = {}
    with open(args.out, "w", encoding="utf-8") as fh:
        for user_id in requested:
            unknown += user_id not in profiles
            recs = serve(profiles.get(user_id) or UserProfile(user_id))
            for rank, rec in enumerate(recs, start=1):
                fh.write(f"{user_id},{rank},{rec.job_id},{rec.score!r},{rec.provenance.value}\n")
                key = rec.provenance.value
                provenance_counts[key] = provenance_counts.get(key, 0) + 1
    logger.info("served %d users, %d unknown ids as anonymous", len(requested), unknown)
    print(f"served={len(requested)} unknown={unknown}")
    for key in sorted(provenance_counts):
        print(f"provenance,{key},{provenance_counts[key]}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    config = _load_engine_config(args)
    reference_date = _parse_reference_date(args.reference_date)
    events, jobs, embeddings, users, _ = _load_corpus(args)
    systems = tuple(s.strip() for s in args.systems.split(",") if s.strip())
    try:
        report = evaluate_systems(
            events,
            jobs,
            embeddings,
            users,
            reference_date,
            systems=systems,
            holdout_fraction=args.holdout,
            k=args.k,
            config=config,
        )
    except ValueError as exc:
        raise CliError(EXIT_INPUT, str(exc)) from exc
    print(format_report(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(asdict(report), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


def _cmd_synth(args) -> int:
    reference_date = (
        _parse_reference_date(args.reference_date)
        if args.reference_date
        else DEFAULT_REFERENCE_DATE
    )
    try:
        corpus = synth_corpus(
            args.clusters,
            args.jobs_per_cluster,
            args.users,
            args.noise,
            args.seed if args.seed is not None else 0,
            events_per_user=args.events_per_user,
            expired_fraction=args.expired_fraction,
            cold_fraction=args.cold_fraction,
            embedding_dim=args.embedding_dim,
            reference_date=reference_date,
            window_days=args.window_days,
        )
    except ValueError as exc:
        raise CliError(EXIT_INPUT, str(exc)) from exc
    paths = write_corpus(corpus, args.out_dir)
    logger.info(
        "wrote %d events, %d jobs, %d users under %s",
        len(corpus.events),
        len(corpus.jobs),
        len(corpus.users),
        args.out_dir,
    )
    for name in sorted(paths):
        print(paths[name])
    return EXIT_OK


def _cmd_init_config(args) -> int:
    path = Path(args.out)
    try:
        with path.open("w" if args.force else "x", encoding="utf-8") as fh:
            fh.write(DEFAULT_CONFIG_TEXT)
    except FileExistsError as exc:
        raise CliError(EXIT_INPUT, f"{path} exists; pass --force to overwrite") from exc
    print(path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value config file")
    common.add_argument("--quiet", action="store_true", help="warnings and errors only")
    seeded = argparse.ArgumentParser(add_help=False)  # for the commands that run seeded stages
    seeded.add_argument("--seed", type=int, default=None, help="seed override")

    ref = argparse.ArgumentParser(add_help=False)
    ref.add_argument(
        "--reference-date",
        required=True,
        help="ISO-8601 'now' that all window and recency math is relative to",
    )

    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--events", required=True, help="interaction events CSV")
    inputs.add_argument("--jobs", required=True, help="jobs corpus CSV")
    inputs.add_argument("--embeddings", help="job embeddings file (optional)")

    parser = argparse.ArgumentParser(
        prog="jobgraph",
        description="graph-based job recommendation pipeline",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "build", parents=[common, ref, inputs], help="build and persist the scored digraph"
    )
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser(
        "recommend",
        parents=[common, ref, inputs],
        help="rank jobs for one user against a built digraph",
    )
    p.add_argument("--graph-dir", required=True, help="directory written by build")
    p.add_argument("--users", help="users corpus CSV (optional)")
    p.add_argument("--user-id", required=True)
    p.set_defaults(func=_cmd_recommend)

    p = sub.add_parser(
        "serve-batch",
        parents=[common, ref, inputs],
        help="rank jobs for every user id in a file",
    )
    p.add_argument("--graph-dir", required=True)
    p.add_argument("--users", help="users corpus CSV (optional)")
    p.add_argument("--user-ids", required=True, help="file with one user id per line")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_serve_batch)

    p = sub.add_parser(
        "evaluate",
        parents=[common, seeded, ref, inputs],
        help="offline comparison on a per-user temporal holdout",
    )
    p.add_argument("--users", help="users corpus CSV (optional)")
    p.add_argument("--systems", default="graph,cf,mf", help="comma list: graph,cf,mf")
    p.add_argument("--holdout", type=float, default=0.3)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--out", help="also write the report as JSON here")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("synth", parents=[common, seeded], help="generate a synthetic corpus")
    p.add_argument("--clusters", type=int, required=True)
    p.add_argument("--jobs-per-cluster", type=int, required=True)
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--events-per-user", type=int, default=8)
    p.add_argument("--expired-fraction", type=float, default=0.1)
    p.add_argument("--cold-fraction", type=float, default=0.0)
    p.add_argument("--embedding-dim", type=int, default=16)
    p.add_argument("--window-days", type=int, default=180)
    p.add_argument("--reference-date", help="defaults to a fixed date, never the wall clock")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("init-config", parents=[common], help="write the annotated default config")
    p.add_argument("--out", default="jobgraph.conf")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_init_config)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.WARNING if getattr(args, "quiet", False) else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except CliError as exc:
        logger.error("%s", exc)
        return exc.code
    except ConfigError as exc:
        logger.error("config: %s", exc)
        return EXIT_CONFIG
    except OSError as exc:
        logger.error("io: %s", exc)
        return EXIT_INPUT
    except Exception:  # noqa: BLE001 - last-resort boundary
        logger.exception("internal error")
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
