"""Command-line interface: ``repro-trust`` / ``python -m repro``.

Subcommands
-----------
- ``generate`` -- write a synthetic community to extended-Epinions files;
- ``stats`` -- describe a dataset (synthetic or loaded from files);
- ``derive`` -- run Steps 1-3 on an Epinions-format directory (or a
  synthetic community) and write the derived web of trust ``T-hat`` as
  ``source|target|value`` lines, the value as ``{value:.6f}``; it
  computes nothing else, and builds the file's bytes in numpy arrays;
- ``update`` -- demonstrate the delta-driven incremental engine: withhold
  a suffix of ratings, replay them in batches through
  :class:`repro.engine.Engine`, print what each update recomputed vs
  reused, and verify the final state bitwise against a cold build;
- ``shard`` -- build / inspect / verify a sharded artifact store
  (:mod:`repro.shard.cli`);
- ``table2`` / ``table3`` / ``fig3`` / ``table4`` / ``score-gap`` /
  ``ablations`` / ``propagation`` -- reproduce one experiment;
- ``all`` -- run every experiment and print the full report.

Each subcommand imports the modules it needs when it runs, so starting
the CLI -- and a whole ``derive`` -- loads neither scipy nor the
experiment, engine and shard packages; ``update`` and ``shard`` import
theirs under a ``cli.import`` span.  :func:`main` registers only the
subcommand its argv names, so parsing a command costs one subparser.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import BinaryIO, Sequence

import numpy as np

from repro import obs
from repro.common.arrays import FloatArray, IntArray
from repro.datasets import (
    EXPERIMENT_SEED,
    dataset_stats,
    generate_community,
    load_epinions_community,
    paper_profile,
    write_epinions_files,
)
from repro.trust import derive_web

__all__ = ["main", "build_parser"]

_EXPERIMENT_NAMES = (
    "table2",
    "table3",
    "fig3",
    "table4",
    "score-gap",
    "ablations",
    "propagation",
    "coverage",
    "future-trust",
    "all",
)

#: Every subcommand, in the order the full parser registers them.
_COMMANDS = ("generate", "stats", "derive", "update", "shard", *_EXPERIMENT_NAMES, "report")

#: Lines ``repro derive`` builds and writes as one array of records, so
#: the writer's memory tracks one block of lines, not the file.
_CHUNK_LINES = 1 << 16


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing and docs).

    ``None`` registers every subcommand.  A name from :data:`_COMMANDS`
    registers that one alone (the whole ``shard`` tree for ``shard``): it
    parses that command's argv exactly as the full parser does, because
    its subcommand list names every command in the usage line.  The full
    parser leaves that list to argparse, so its errors still name the
    ``command`` argument.
    """
    parser = argparse.ArgumentParser(
        prog="repro-trust",
        description="Derive a web of trust from rating data (Kim et al., ICDEW 2008).",
    )
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}",
    )
    for name in _COMMANDS if command is None else (command,):
        _add_command(sub, name)
    return parser


def _add_command(
    sub: "argparse._SubParsersAction[argparse.ArgumentParser]", name: str
) -> None:
    """Register the subcommand ``name`` and its arguments."""
    if name == "generate":
        generate = sub.add_parser("generate", help="generate a synthetic community")
        _add_dataset_args(generate)
        generate.add_argument(
            "--out", required=True, help="output directory (Epinions format)"
        )
    elif name == "stats":
        _add_source_args(sub.add_parser("stats", help="describe a dataset"))
    elif name == "derive":
        derive = sub.add_parser("derive", help="derive a web of trust from rating data")
        _add_source_args(derive)
        derive.add_argument("--out", required=True, help="output file (source|target|value)")
        derive.add_argument(
            "--min-trust", type=_finite_float, default=0.0, help="drop derived values <= this"
        )
    elif name == "update":
        update = sub.add_parser(
            "update", help="replay a rating stream through the incremental engine"
        )
        _add_source_args(update)
        update.add_argument(
            "--stream", type=int, default=50, help="ratings to withhold and replay"
        )
        update.add_argument(
            "--batch", type=int, default=10, help="ratings applied per engine update"
        )
        update.add_argument(
            "--skip-verify",
            action="store_true",
            help="skip the final bitwise comparison against a cold build",
        )
    elif name == "shard":
        _add_shard_parser(sub)
    elif name == "report":
        report = sub.add_parser("report", help="write the full markdown report")
        _add_source_args(report)
        report.add_argument("--out", required=True, help="output markdown file")
    elif name in _EXPERIMENT_NAMES:
        _add_dataset_args(sub.add_parser(name, help=f"reproduce {name}"))
    else:
        raise ValueError(f"unknown command {name!r}; expected one of {_COMMANDS}")


def _add_shard_parser(
    sub: "argparse._SubParsersAction[argparse.ArgumentParser]",
) -> None:
    """Register ``shard`` here, so building the parser imports no shard code."""
    shard = sub.add_parser(
        "shard", help="build / inspect / verify a sharded artifact store"
    )
    actions = shard.add_subparsers(dest="shard_command", required=True)

    build = actions.add_parser(
        "build", help="run the pipeline and persist the outputs as shards"
    )
    build.add_argument("--store", required=True, help="artifact store directory")
    _add_source_args(build)
    build.add_argument(
        "--shards", type=int, default=4, help="row blocks for the pair matrix"
    )

    for name, help_text in (
        ("inspect", "print a store's manifest"),
        ("verify", "re-hash every payload against the manifest checksums"),
    ):
        action = actions.add_parser(name, help=help_text)
        action.add_argument("--store", required=True, help="artifact store directory")


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--users", type=int, default=1200, help="community size")
    parser.add_argument("--seed", type=int, default=EXPERIMENT_SEED, help="random seed")
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="record a repro.obs trace of the run and write it as JSON "
        "(render with `python -m repro.obs.report PATH`)",
    )


def _add_source_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dir", help="load an Epinions-format directory instead")
    _add_dataset_args(parser)


def _finite_float(text: str) -> float:
    """An argparse type: a number that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    # only the named command's parser: no argv, -h or an unknown command
    # get the full one, whose help and errors list every command
    words = sys.argv[1:] if argv is None else argv
    command = words[0] if words and words[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    trace_path: str | None = getattr(args, "trace", None)
    if trace_path is None:
        return _run(args)

    recorder = obs.Recorder()
    with obs.use_recorder(recorder):
        code = _run(args)
    recorder.write(trace_path)
    print(f"wrote trace to {trace_path}", file=sys.stderr)
    return code


def _run(args: argparse.Namespace) -> int:
    """Run one subcommand, importing only the modules it needs."""
    out = sys.stdout

    if args.command == "generate":
        dataset = generate_community(paper_profile(args.users), args.seed)
        write_epinions_files(dataset.community, args.out)
        print(f"wrote {dataset.community.num_reviews()} reviews, "
              f"{dataset.community.num_ratings()} ratings, "
              f"{dataset.community.num_trust_edges()} trust edges to {args.out}", file=out)
        return 0

    if args.command == "stats":
        from repro.reporting import render_table

        community = _load_community(args)
        stats = dataset_stats(community)
        rows = [
            ["users", stats.num_users],
            ["categories", stats.num_categories],
            ["objects", stats.num_objects],
            ["reviews", stats.num_reviews],
            ["ratings", stats.num_ratings],
            ["trust edges", stats.num_trust_edges],
            ["rating density (R)", f"{stats.rating_density:.5f}"],
            ["trust density (T)", f"{stats.trust_density:.5f}"],
            ["ratings per rated review", f"{stats.ratings_per_review:.2f}"],
        ]
        print(render_table(["statistic", "value"], rows, title="Dataset statistics"), file=out)
        return 0

    if args.command == "derive":
        # Steps 1-3 only: T-hat is all this command writes
        _, _, derived = derive_web(_load_community(args))
        with obs.span("cli.write"):
            rows, cols, values = derived.entries_arrays()
            keep = values > args.min_trust
            with open(args.out, "wb") as f:
                _write_edges(f, derived.users.labels, rows[keep], cols[keep], values[keep])
        print(f"wrote {int(keep.sum())} derived trust edges to {args.out}", file=out)
        return 0

    if args.command == "update":
        return _run_update(args, out)

    if args.command == "shard":
        with obs.span("cli.import"):
            from repro.shard.cli import run_shard

            if args.shard_command == "build":
                import repro.engine  # noqa: F401  # the build's cold pipeline
        return run_shard(args, out)

    if args.command == "report":
        from repro.experiments import build_report

        if args.dir:
            artifacts = run_pipeline(community=load_epinions_community(args.dir))
        else:
            artifacts = run_pipeline(paper_profile(args.users), args.seed)
        report_text = build_report(artifacts)
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(report_text)
        print(f"wrote report to {args.out}", file=out)
        return 0

    # experiment commands share one pipeline
    from repro.experiments import (
        render_coverage,
        render_fig3,
        render_future_trust,
        render_propagation_comparison,
        render_score_gap,
        render_table2,
        render_table3,
        render_table4,
        run_coverage,
        run_fig3,
        run_future_trust,
        run_propagation_comparison,
        run_score_gap,
        run_table2,
        run_table3,
        run_table4,
    )
    from repro.experiments.ablations import render_ablations, run_ablations

    artifacts = run_pipeline(paper_profile(args.users), args.seed)
    sections: list[str] = []
    if args.command in ("table2", "all"):
        sections.append(render_table2(run_table2(artifacts)))
    if args.command in ("table3", "all"):
        sections.append(render_table3(run_table3(artifacts)))
    if args.command in ("fig3", "all"):
        sections.append(render_fig3(run_fig3(artifacts)))
    if args.command in ("table4", "all"):
        sections.append(render_table4(run_table4(artifacts)))
    if args.command in ("score-gap", "all"):
        sections.append(render_score_gap(run_score_gap(artifacts)))
    if args.command in ("ablations", "all"):
        sections.append(render_ablations(run_ablations(artifacts.dataset)))
    if args.command in ("coverage", "all"):
        sections.append(render_coverage(run_coverage(artifacts)))
    if args.command in ("future-trust", "all"):
        sections.append(render_future_trust(run_future_trust(artifacts)))
    if args.command in ("propagation", "all"):
        sections.append(
            render_propagation_comparison(run_propagation_comparison(artifacts))
        )
    print("\n\n".join(sections), file=out)
    return 0


def run_pipeline(*args, **kwargs):
    """:func:`repro.experiments.run_pipeline`, imported on the first call.

    The report and experiment commands call it by this module-level name,
    which perfbench's tracer wraps, while importing the CLI still imports
    no experiment code.
    """
    from repro.experiments import run_pipeline as run

    return run(*args, **kwargs)


def _run_update(args: argparse.Namespace, out) -> int:
    with obs.span("cli.import"):
        from repro.engine import (
            Engine,
            clone_community,
            cold_artifacts,
            split_rating_stream,
        )
        from repro.reporting import render_table

    community = _load_community(args)
    base, stream = split_rating_stream(community, args.stream)
    engine = Engine(base)
    engine.update()
    print(
        f"cold build at epoch {base.version}: "
        f"{engine.artifacts.derived.num_entries()} derived pairs",
        file=out,
    )

    rows = []
    for start in range(0, len(stream), max(1, args.batch)):
        for rating in stream[start : start + max(1, args.batch)]:
            base.add_rating(rating)
        engine.update()
        stats = engine.last_stats
        total_pairs = stats.pairs_rederived + stats.pairs_reused
        reuse = f"{stats.pairs_reused / total_pairs:.1%}" if total_pairs else "-"
        rows.append(
            [
                base.version,
                stats.deltas_applied,
                f"{stats.categories_resolved}/{stats.categories_resolved + stats.categories_skipped}",
                stats.pairs_rederived,
                stats.pairs_reused,
                reuse,
                "yes" if stats.propagation_rerun else "reused",
            ]
        )
    print(
        render_table(
            ["epoch", "deltas", "categories", "rederived", "reused", "reuse", "propagation"],
            rows,
            title="Incremental updates",
        ),
        file=out,
    )

    if not args.skip_verify:
        with obs.span("cli.verify"):
            cold = cold_artifacts(clone_community(base))
            diffs = engine.artifacts.differences(cold)
        if diffs:
            print(f"BITWISE MISMATCH vs cold build: {', '.join(diffs)}", file=out)
            return 1
        print("final state verified bitwise against a cold build", file=out)
    return 0


def _write_edges(
    f: BinaryIO, labels: Sequence[str], rows: IntArray, cols: IntArray, values: FloatArray
) -> None:
    """Write ``f"{labels[i]}|{labels[j]}|{value:.6f}\\n"`` per entry, byte for byte.

    Every label is encoded once into a padded ``S<width>`` table.  Each
    block of :data:`_CHUNK_LINES` lines is one array of fixed-width
    records -- source label, ``|``, target label, ``|``, value text,
    newline -- and a boolean mask over its bytes drops the padding only
    when label or value widths differ.
    """
    if not len(values):
        return
    encoded = [label.encode("utf-8") for label in labels]
    label_widths = np.array([len(text) for text in encoded], dtype=np.int64)
    width = int(label_widths.max())
    table = np.array(encoded, dtype=f"S{width}")
    label_keep = None
    if label_widths.min() < width:
        label_keep = np.arange(width) < label_widths[:, None]

    for start in range(0, len(values), _CHUNK_LINES):
        r = rows[start : start + _CHUNK_LINES]
        c = cols[start : start + _CHUNK_LINES]
        text, text_widths = _value_text(values[start : start + _CHUNK_LINES])
        line = np.empty(
            len(r),
            dtype=[
                ("source", f"S{width}"),
                ("bar1", "S1"),
                ("target", f"S{width}"),
                ("bar2", "S1"),
                ("value", text.dtype),
                ("newline", "S1"),
            ],
        )
        line["source"] = table[r]
        line["bar1"] = line["bar2"] = b"|"
        line["target"] = table[c]
        line["value"] = text
        line["newline"] = b"\n"
        if label_keep is None and text_widths is None:
            f.write(line)
            continue
        keep = np.ones((len(r), line.itemsize), dtype=bool)
        if label_keep is not None:
            keep[:, :width] = label_keep[r]
            keep[:, width + 1 : 2 * width + 1] = label_keep[c]
        if text_widths is not None:
            keep[:, 2 * width + 2 : -1] = np.arange(text.itemsize) < text_widths[:, None]
        f.write(line.view(np.uint8).reshape(len(r), -1)[keep])


def _value_text(values: FloatArray) -> tuple[np.ndarray, IntArray | None]:
    """Each value's ``f"{v:.6f}"`` as an ``S<width>`` array, plus each
    text's length (``None`` when every text fills the width).

    A value is written from ``m = rint(v * 1e6)`` as one digit, ``.`` and
    six digits, three at a time from a ``"000".."999"`` table.  Below 1e7,
    ``v * 1e6`` rounds to within 1e-9 of the exact product, so ``m`` is
    the correctly rounded count of millionths unless the product lies near
    a half.  The f-string writes the rest: a value that is not finite, has
    its sign bit set (``-0.0`` prints ``-0.000000``), rounds to 1e7
    millionths or more, or has ``v * 1e6`` within 1e-6 of a half.
    """
    fixed = np.isfinite(values) & ~np.signbit(values) & (values < 10.0)
    micro = np.where(fixed, values, 0.0) * 1e6
    units = np.rint(micro)
    fixed &= (units < 1e7) & (np.abs(micro - np.floor(micro) - 0.5) > 1e-6)
    digits = np.arange(1000, dtype=np.uint64)
    # "000".."999" as the low three bytes of a little-endian word
    triples = (digits // 100 + 48) | (digits // 10 % 10 + 48) << 8 | (digits % 10 + 48) << 16
    m = units.astype(np.uint64)
    thousands, whole = m // 1000, m // 1_000_000
    high, low = thousands - whole * 1000, m - thousands * 1000
    # little-endian bytes: digit, ".", three digits, three digits
    word = (whole + 48) | ord(".") << 8 | triples[high] << 16 | triples[low] << 40
    text = word.astype("<u8").view("S8")
    if fixed.all():
        return text, None
    slow = np.flatnonzero(~fixed)
    formatted = [f"{value:.6f}".encode() for value in values[slow].tolist()]
    widths = np.full(len(values), 8, dtype=np.int64)
    widths[slow] = [len(value_text) for value_text in formatted]
    width = int(widths.max())
    text = text.astype(f"S{width}")
    text[slow] = formatted
    return text, None if widths.min() == width else widths


def _load_community(args: argparse.Namespace):
    with obs.span("cli.load", source="dir" if args.dir else "synthetic"):
        if args.dir:
            return load_epinions_community(args.dir)
        return generate_community(paper_profile(args.users), args.seed).community


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
