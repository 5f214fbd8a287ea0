"""Command-line pipeline driver.

Subcommands:
    build         ingest raw files, build the scored digraph, persist it
    recommend     print the ranked list for a single user
    serve-batch   recommend for every user id in a file
    mf-train      train the factorization baseline and dump the model
    evaluate      offline three-system comparison on a temporal holdout
    synth         generate a seeded synthetic corpus
    connectivity  print the per-signal connectivity report

Exit codes: 0 success, 1 input error, 2 config error, 3 internal error.
All commands are deterministic given their inputs, the config and the
seed; nothing reads the wall clock (the reference date is always given).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
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
from .graph import build_costats
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
from .mf import als_train, build_matrix, save_model
from .recommend import UserProfile, build_profiles, classify_user, recommend
from .scoring import build_digraph, content_edges, dump_digraph, load_digraph

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


def _read_lines(path: str, *, stage: str) -> list[str]:
    try:
        with open(path, "r") as fh:
            return fh.readlines()
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"{stage}: cannot read {path}: {exc}") from exc


def _load_engine_config(args) -> EngineConfig:
    """The ``--config`` file (defaults without one), with any ``--seed`` applied."""
    config = EngineConfig()
    if args.config is not None:
        try:
            with open(args.config, "r") as fh:
                config = load_config(fh)
        except OSError as exc:
            raise CliError(EXIT_CONFIG, f"config: cannot read {args.config}: {exc}") from exc
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
    events, issues = parse_events(_read_lines(args.events, stage="events"))
    _log_issues("events", issues)
    counts = {"events_total": len(events), "events_parse_issues": len(issues)}
    jobs, issues = parse_jobs(_read_lines(args.jobs, stage="jobs"))
    _log_issues("jobs", issues)
    if not jobs:
        raise CliError(EXIT_INPUT, f"jobs: no valid records in {args.jobs}")
    counts.update(jobs=len(jobs), jobs_parse_issues=len(issues))
    embeddings, users = {}, {}
    path = getattr(args, "embeddings", None)
    if path is not None and Path(path).exists():
        embeddings, issues = parse_embeddings(_read_lines(path, stage="embeddings"))
        _log_issues("embeddings", issues)
        counts.update(embeddings=len(embeddings), embeddings_parse_issues=len(issues))
    elif path is not None:
        logger.warning("embeddings file %s missing: content edges disabled for this run", path)
        counts["embeddings"] = 0
    elif hasattr(args, "embeddings"):  # mf-train takes no --embeddings
        logger.warning("no embeddings given: building from behavioral signals only")
        counts["embeddings"] = 0
    upath = getattr(args, "users", None)
    if upath is not None:
        users, issues = parse_users(_read_lines(upath, stage="users"))
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
    digraph, graph, content = build_digraph(signals, jobs, embeddings, config)
    report = connectivity_report(graph, content, digraph.active_jobs)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "digraph.csv").open("w") as fh:
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
    with (out_dir / "manifest.json").open("w") as fh:
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
    digraph_path = Path(args.graph_dir) / "digraph.csv"
    if not digraph_path.exists():
        raise CliError(EXIT_INPUT, f"digraph dump not found at {digraph_path}")
    try:
        with digraph_path.open("r") as fh:  # parsed as it is read, in blocks
            digraph = load_digraph(fh, active_job_ids(jobs))
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"digraph: cannot read {digraph_path}: {exc}") from exc
    except ValueError as exc:
        raise CliError(EXIT_INPUT, f"{digraph_path}: {exc}") from exc
    taxonomy = {j.category for j in jobs.values()}
    profiles = build_profiles(signals, users, taxonomy)

    def serve(profile):
        return recommend(profile, digraph, jobs, embeddings, reference_date, config)

    return profiles, serve


def _cmd_recommend(args) -> int:
    profiles, serve = _serving_setup(args)
    profile = profiles.get(args.user_id)
    if profile is None:
        logger.warning("user %s has no events and no record: treated as anonymous", args.user_id)
        profile = UserProfile(args.user_id)
    recs = serve(profile)
    for rank, rec in enumerate(recs, start=1):
        print(f"{rank},{rec.job_id},{rec.score!r},{rec.provenance.value}")
    logger.info("user %s (%s): %d recommendations", args.user_id, classify_user(profile).value, len(recs))
    return EXIT_OK


def _cmd_serve_batch(args) -> int:
    profiles, serve = _serving_setup(args)
    requested = [line.strip() for line in _read_lines(args.user_ids, stage="user-ids")]
    requested = [u for u in requested if u]
    skipped = 0
    provenance_counts: dict[str, int] = {}
    out_path = Path(args.out)
    with out_path.open("w") as fh:
        for user_id in requested:
            profile = profiles.get(user_id)
            if profile is None:
                skipped += 1
                continue
            recs = serve(profile)
            for rank, rec in enumerate(recs, start=1):
                fh.write(f"{user_id},{rank},{rec.job_id},{rec.score!r},{rec.provenance.value}\n")
                key = rec.provenance.value
                provenance_counts[key] = provenance_counts.get(key, 0) + 1
    served = len(requested) - skipped
    logger.info("served %d users, skipped %d unknown ids", served, skipped)
    print(f"served={served} skipped_unknown={skipped}")
    for key in sorted(provenance_counts):
        print(f"provenance,{key},{provenance_counts[key]}")
    return EXIT_OK


def _cmd_mf_train(args) -> int:
    config = _load_engine_config(args)
    reference_date = _parse_reference_date(args.reference_date)
    events, jobs, _, _, _ = _load_corpus(args)
    signals, _, _ = _prepare_signals(events, jobs, reference_date, config)
    matrix = build_matrix(signals)
    if not matrix.entries:
        raise CliError(EXIT_INPUT, "no apply/email signals in window: nothing to factorize")
    model = als_train(
        matrix,
        config.mf_k,
        config.mf_reg,
        config.mf_iterations,
        seed=config.seed,
        implicit=config.mf_implicit,
    )
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with out_path.open("w") as fh:
        save_model(model, fh)
    ids_path = out_path.with_suffix(out_path.suffix + ".ids.json")
    with ids_path.open("w") as fh:
        json.dump({"user_ids": model.user_ids, "job_ids": model.job_ids}, fh, indent=2)
        fh.write("\n")
    logger.info(
        "trained on %d entries (%d users x %d jobs); final observed MSE %.6g",
        len(matrix.entries),
        matrix.num_users,
        matrix.num_jobs,
        model.mse_trace[-1],
    )
    print(out_path)
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
        payload = {
            "k": report.k,
            "num_users": report.num_users,
            "systems": {
                name: {
                    "precision": s.precision,
                    "recall": s.recall,
                    "users_served": s.users_served,
                }
                for name, s in report.systems.items()
            },
        }
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
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


def _cmd_connectivity(args) -> int:
    config = _load_engine_config(args)
    reference_date = _parse_reference_date(args.reference_date)
    events, jobs, embeddings, _, _ = _load_corpus(args)
    signals, _, _ = _prepare_signals(events, jobs, reference_date, config)
    graph = build_costats(signals, jobs, config.session_gap_minutes)
    content = content_edges(embeddings, config.gamma)
    report = connectivity_report(graph, content, active_job_ids(jobs))
    print(f"active_jobs,{report.active_count}")
    for label, fraction in report.labeled().items():
        print(f"{label},{fraction:.6f}")
    return EXIT_OK


def _cmd_init_config(args) -> int:
    path = Path(args.out)
    if path.exists() and not args.force:
        raise CliError(EXIT_INPUT, f"{path} exists; pass --force to overwrite")
    path.write_text(DEFAULT_CONFIG_TEXT)
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
        "mf-train", parents=[common, seeded, ref], help="train the factorization baseline"
    )
    p.add_argument("--events", required=True)
    p.add_argument("--jobs", required=True)
    p.add_argument("--out", required=True, help="model dump path")
    p.set_defaults(func=_cmd_mf_train)

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

    p = sub.add_parser(
        "connectivity",
        parents=[common, ref, inputs],
        help="print connected-fraction per signal-type subset",
    )
    p.set_defaults(func=_cmd_connectivity)

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
