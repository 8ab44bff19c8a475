"""Tests for the command-line interface."""

import io
import json
import math
import os
import pathlib
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import cli
from repro.cli import build_parser, main
from repro.datasets import (
    generate_community,
    load_epinions_community,
    paper_profile,
    write_epinions_files,
)
from repro.trust import derive_web

ARGS = ["--users", "150", "--seed", "3"]


@pytest.fixture(scope="module")
def epinions_dir(tmp_path_factory):
    """Epinions-format files of a small synthetic community."""
    path = tmp_path_factory.mktemp("epinions")
    write_epinions_files(generate_community(paper_profile(150), 3).community, str(path))
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_defaults(self):
        args = build_parser().parse_args(["table4"])
        assert args.users == 1200
        assert args.seed == 7

    def test_generate_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate"])


def _parse_outcome(parse, argv):
    """``(exit code, stdout, stderr)`` of parsing ``argv`` with ``parse``."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdout", out), mock.patch.object(sys, "stderr", err):
        with pytest.raises(SystemExit) as excinfo:
            parse(argv)
    return excinfo.value.code, out.getvalue(), err.getvalue()


def _parser_cases():
    """Argument lists that parsing ends: help, and every kind of error."""
    cases = [[], ["-h"], ["--help"], ["bogus"], ["--bogus"], ["shard"], ["shard", "bogus"]]
    for command in cli._COMMANDS:
        cases += [[command, "-h"], [command, "--bogus"], [command, "--users", "many"]]
    for command in ("generate", "derive", "report"):
        cases += [[command], [command, "--out", "x", "--bogus"], [command, "--out"]]
    for action in ("build", "inspect", "verify"):
        cases += [
            ["shard", action, "-h"],
            ["shard", action],
            ["shard", action, "--store", "x", "--bogus"],
        ]
    cases += [
        ["derive", "--out", "x", "--min-trust", "nan"],
        ["derive", "--out", "x", "--min-trust", "many"],
        ["generate", "--out", "x", "extra"],
        ["stats", "--dir"],
    ]
    return cases


class TestParserPerCommand:
    """``main`` registers only the subcommand its argv names, with the same
    help, errors and exit codes as the full parser."""

    @pytest.mark.parametrize("argv", _parser_cases(), ids=" ".join)
    def test_main_parses_like_the_full_parser(self, argv):
        expected = _parse_outcome(lambda a: build_parser().parse_args(a), argv)
        assert _parse_outcome(main, argv) == expected
        assert expected[0] in (0, 2)

    @pytest.mark.parametrize(
        "argv, registered",
        [
            (["derive", "--bogus"], ["derive"]),
            (["shard", "build", "-h"], ["shard"]),
            (["table4", "--users", "x"], ["table4"]),
            (["bogus"], list(cli._COMMANDS)),
            (["-h"], list(cli._COMMANDS)),
            ([], list(cli._COMMANDS)),
        ],
    )
    def test_registers_only_the_named_command(self, argv, registered):
        names = []
        add_command = cli._add_command

        def recording(sub, name):
            names.append(name)
            add_command(sub, name)

        with mock.patch.object(cli, "_add_command", recording):
            _parse_outcome(main, argv)
        assert names == registered

    def test_reads_sys_argv_when_given_none(self, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["repro-trust", "derive", "--bogus"])
        expected = _parse_outcome(
            lambda a: build_parser().parse_args(a), ["derive", "--bogus"]
        )
        assert _parse_outcome(lambda a: main(), None) == expected

    def test_rejects_an_unknown_command_name(self):
        with pytest.raises(ValueError, match="unknown command"):
            build_parser("bogus")

    def test_full_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit):
            main(["-h"])
        out = capsys.readouterr().out
        assert "{" + ",".join(cli._COMMANDS) + "}" in out


class TestCommands:
    def test_stats_synthetic(self, capsys):
        assert main(["stats", *ARGS]) == 0
        out = capsys.readouterr().out
        assert "Dataset statistics" in out
        assert "trust density" in out

    def test_generate_then_stats_dir(self, tmp_path, capsys):
        out_dir = str(tmp_path / "data")
        assert main(["generate", *ARGS, "--out", out_dir]) == 0
        assert main(["stats", "--dir", out_dir]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        assert "Dataset statistics" in out

    def test_derive_writes_edges(self, tmp_path, capsys):
        data_dir = str(tmp_path / "data")
        out_file = str(tmp_path / "trust.txt")
        main(["generate", *ARGS, "--out", data_dir])
        assert main(["derive", "--dir", data_dir, "--out", out_file]) == 0
        with open(out_file) as f:
            lines = f.read().strip().splitlines()
        assert len(lines) > 100
        source, target, value = lines[0].split("|")
        assert 0.0 < float(value) <= 1.0

    def test_update_replays_stream_and_verifies(self, capsys):
        assert main(["update", *ARGS, "--stream", "6", "--batch", "3"]) == 0
        out = capsys.readouterr().out
        assert "cold build at epoch" in out
        assert "Incremental updates" in out
        assert "final state verified bitwise against a cold build" in out

    def test_update_skip_verify(self, capsys):
        assert main(["update", *ARGS, "--stream", "2", "--skip-verify"]) == 0
        out = capsys.readouterr().out
        assert "verified bitwise" not in out

    @pytest.mark.parametrize("skip_verify", [False, True])
    def test_update_trace_spans_each_stage_at_top_level(self, tmp_path, capsys, skip_verify):
        trace = tmp_path / "trace.json"
        argv = ["update", *ARGS, "--stream", "6", "--batch", "3", "--trace", str(trace)]
        assert main([*argv, "--skip-verify"] if skip_verify else argv) == 0
        spans = json.loads(trace.read_text(encoding="utf-8"))["spans"]
        # the engine's import, the load, the stream split, the cold update
        # and one per batch
        expected = ["cli.import", "cli.load", "community.build", *["engine.update"] * 3]
        assert [span["name"] for span in spans] == (
            expected if skip_verify else [*expected, "cli.verify"]
        )
        for before, after in zip(spans, spans[1:]):
            assert before["start_s"] + before["duration_s"] <= after["start_s"] + 2e-6

    def test_update_prints_the_community_version(self, capsys):
        from repro.engine import split_rating_stream

        assert main(["update", *ARGS, "--stream", "4", "--batch", "2", "--skip-verify"]) == 0
        out = capsys.readouterr().out
        community = generate_community(paper_profile(150), 3).community
        base, _ = split_rating_stream(community, 4)
        assert f"cold build at epoch {base.version}: " in out
        # each batch's row starts with the version after it
        epochs = [row.split("|")[0].strip() for row in out.splitlines()[-2:]]
        assert epochs == [str(base.version + 2), str(base.version + 4)]

    def test_table4_command(self, capsys):
        assert main(["table4", *ARGS]) == 0
        out = capsys.readouterr().out
        assert "Table 4" in out
        assert "T-hat (our model)" in out

    def test_fig3_command(self, capsys):
        assert main(["fig3", *ARGS]) == 0
        assert "Fig. 3" in capsys.readouterr().out

    def test_table2_command(self, capsys):
        assert main(["table2", *ARGS]) == 0
        assert "Table 2" in capsys.readouterr().out


def _oracle_lines(labels, rows, cols, values):
    """The f-string ``repro derive`` formatted every line with before."""
    return "".join(
        f"{labels[i]}|{labels[j]}|{value:.6f}\n" for i, j, value in zip(rows, cols, values)
    ).encode("utf-8")


def _written(labels, rows, cols, values):
    buffer = io.BytesIO()
    cli._write_edges(
        buffer,
        labels,
        np.array(rows, dtype=np.int64),
        np.array(cols, dtype=np.int64),
        np.array(values, dtype=np.float64),
    )
    return buffer.getvalue()


def _nudged(value, steps):
    """``value`` moved ``steps`` floats up (or down, when negative)."""
    toward = math.inf if steps > 0 else -math.inf
    for _ in range(abs(steps)):
        value = math.nextafter(value, toward)
    return value


_MILLIONTHS = st.integers(min_value=0, max_value=10**7 + 10)
#: Values at and next to the text's rounding boundaries, special values and
#: arbitrary floats: every kind the array formatter handles or hands to the
#: f-string.
_VALUES = st.one_of(
    st.builds(_nudged, _MILLIONTHS.map(lambda k: k / 1e6), st.integers(-2, 2)),
    st.builds(_nudged, _MILLIONTHS.map(lambda k: (k + 0.5) / 1e6), st.integers(-2, 2)),
    st.sampled_from(
        [0.0, -0.0, 9.9999995, 9.999999, 10.0, 1e-300, -1e-300, 5e-7, 123.4567895,
         -0.5, -2.0000005, math.nan, math.inf, -math.inf, 1e300]
    ),
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(),
)


class TestWriteEdges:
    """``repro derive``'s byte-array writer against the f-string it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(
        labels=st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=8),
        data=st.data(),
        chunk=st.integers(min_value=1, max_value=6),
    )
    def test_matches_the_f_string(self, labels, data, chunk):
        n = data.draw(st.integers(min_value=0, max_value=20))
        index = st.integers(min_value=0, max_value=len(labels) - 1)
        rows = data.draw(st.lists(index, min_size=n, max_size=n))
        cols = data.draw(st.lists(index, min_size=n, max_size=n))
        values = data.draw(st.lists(_VALUES, min_size=n, max_size=n))
        with mock.patch.object(cli, "_CHUNK_LINES", chunk):
            payload = _written(labels, rows, cols, values)
        assert payload == _oracle_lines(labels, rows, cols, values)

    def test_an_empty_selection_writes_nothing(self):
        assert _written(["u1", "u22"], [], [], []) == b""

    def test_lines_beyond_one_chunk(self, monkeypatch):
        monkeypatch.setattr(cli, "_CHUNK_LINES", 7)
        labels = ["a", "bé", "c\u4e2d\u6587", "dd"]
        rng = np.random.default_rng(5)
        rows = rng.integers(0, len(labels), 50).tolist()
        cols = rng.integers(0, len(labels), 50).tolist()
        values = rng.random(50).tolist()
        # the f-string writes these; each lands in a chunk of its own
        values[3], values[20], values[45] = -0.0, 12.5, 0.0000125
        assert _written(labels, rows, cols, values) == _oracle_lines(
            labels, rows, cols, values
        )


class TestDerive:
    @pytest.mark.parametrize("threshold", [0.0, 0.5, -1.0])
    def test_min_trust_keeps_the_values_above_it(
        self, epinions_dir, tmp_path, capsys, threshold
    ):
        out_file = tmp_path / "trust.txt"
        argv = ["derive", "--dir", epinions_dir, "--out", str(out_file)]
        assert main([*argv, "--min-trust", str(threshold)]) == 0
        _, _, derived = derive_web(load_epinions_community(epinions_dir))
        expected = "".join(
            f"{s}|{t}|{v:.6f}\n" for s, t, v in derived.entries() if v > threshold
        )
        payload = out_file.read_bytes()
        assert payload == expected.encode("utf-8")
        lines = payload.count(b"\n")
        assert f"wrote {lines} derived trust edges" in capsys.readouterr().out

    def test_min_trust_above_every_value_writes_an_empty_file(
        self, epinions_dir, tmp_path, capsys
    ):
        out_file = tmp_path / "trust.txt"
        argv = ["derive", "--dir", epinions_dir, "--out", str(out_file)]
        assert main([*argv, "--min-trust", "1"]) == 0
        assert out_file.read_bytes() == b""
        assert f"wrote 0 derived trust edges to {out_file}" in capsys.readouterr().out

    def test_a_file_of_many_chunks_matches_the_f_string(
        self, epinions_dir, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(cli, "_CHUNK_LINES", 100)
        out_file = tmp_path / "trust.txt"
        assert main(["derive", "--dir", epinions_dir, "--out", str(out_file)]) == 0
        _, _, derived = derive_web(load_epinions_community(epinions_dir))
        rows, cols, values = derived.entries_arrays()
        keep = values > 0.0
        assert keep.sum() > 10 * 100
        expected = _oracle_lines(
            derived.users.labels, rows[keep].tolist(), cols[keep].tolist(), values[keep].tolist()
        )
        assert out_file.read_bytes() == expected

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_min_trust_rejected_at_parsing(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["derive", "--out", "t.txt", f"--min-trust={value}"])
        assert excinfo.value.code == 2
        assert "must be finite" in capsys.readouterr().err

    def test_loads_no_third_party_package_but_numpy(self, epinions_dir, tmp_path):
        # a fresh interpreter, because this one has imported every module;
        # scipy in particular stays unloaded, as nothing here builds a CSR
        code = (
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "def loaded():\n"
            "    names = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
            "    return sorted(names - set(sys.stdlib_module_names))\n"
            "import repro.cli\n"
            "after_import = loaded()\n"
            "status = repro.cli.main(['derive', '--dir', sys.argv[1], '--out', sys.argv[2]])\n"
            "print(json.dumps([status, after_import, loaded()]))\n"
        )
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", code, epinions_dir, str(tmp_path / "trust.txt")],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        status, after_import, after_derive = json.loads(result.stdout.splitlines()[-1])
        assert status == 0
        assert after_import == ["numpy", "repro"]
        assert after_derive == ["numpy", "repro"]

    def test_trace_spans_each_stage_at_top_level(self, epinions_dir, tmp_path):
        trace = tmp_path / "trace.json"
        argv = ["derive", "--dir", epinions_dir, "--out", str(tmp_path / "trust.txt")]
        assert main([*argv, "--trace", str(trace)]) == 0
        spans = json.loads(trace.read_text(encoding="utf-8"))["spans"]
        assert [span["name"] for span in spans] == [
            "cli.load",
            "pipeline.step1.expertise",
            "pipeline.step2.affinity",
            "pipeline.step3.derive",
            "cli.write",
        ]
        # times are rounded to the microsecond
        for before, after in zip(spans, spans[1:]):
            assert before["start_s"] + before["duration_s"] <= after["start_s"] + 2e-6
