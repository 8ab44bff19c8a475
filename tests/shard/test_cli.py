"""Tests for the ``repro shard`` CLI subcommand."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.datasets import (
    generate_community,
    load_epinions_community,
    paper_profile,
    write_epinions_files,
)
from repro.shard import ShardStore
from repro.shard.store import FORMAT


@pytest.fixture
def built_store(tmp_path):
    store_dir = str(tmp_path / "artifacts")
    assert (
        main(["shard", "build", "--store", store_dir, "--users", "60", "--seed", "11"])
        == 0
    )
    return store_dir


class TestBuild:
    def test_build_reports_summary(self, capsys, tmp_path):
        store_dir = str(tmp_path / "artifacts")
        assert main(["shard", "build", "--store", store_dir, "--users", "60"]) == 0
        out = capsys.readouterr().out
        assert "derived pairs" in out
        assert "60 users" in out
        assert store_dir in out

    def test_build_writes_trace(self, tmp_path, capsys):
        store_dir = str(tmp_path / "artifacts")
        trace = tmp_path / "trace.json"
        assert (
            main(
                [
                    "shard",
                    "build",
                    "--store",
                    store_dir,
                    "--users",
                    "60",
                    "--trace",
                    str(trace),
                ]
            )
            == 0
        )
        assert trace.exists()

    def test_trace_spans_each_stage_at_top_level(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        argv = ["shard", "build", "--store", str(tmp_path / "artifacts"), "--users", "60"]
        assert main([*argv, "--trace", str(trace)]) == 0
        spans = json.loads(trace.read_text(encoding="utf-8"))["spans"]
        assert [span["name"] for span in spans] == [
            "cli.load",
            "step1.fit",
            "derive.trust",
            "propagation.eigentrust",
            "shard.artifacts.save",
        ]
        for before, after in zip(spans, spans[1:]):
            assert before["start_s"] + before["duration_s"] <= after["start_s"] + 2e-6

    def test_build_from_files_stores_the_loaded_version(self, tmp_path, capsys):
        data = tmp_path / "epinions"
        write_epinions_files(generate_community(paper_profile(60), 5).community, str(data))
        store_dir = tmp_path / "artifacts"
        argv = ["shard", "build", "--dir", str(data), "--store", str(store_dir)]
        assert main(argv) == 0
        manifest = json.loads((store_dir / "artifacts.json").read_text(encoding="utf-8"))
        assert manifest["epoch"] == load_epinions_community(str(data)).version


class TestInspect:
    def test_inspect_prints_manifest_tables(self, built_store, capsys):
        assert main(["shard", "inspect", "--store", built_store]) == 0
        out = capsys.readouterr().out
        assert "Artifacts:" in out
        assert "epoch" in out
        assert "Shards" in out
        assert "[0," in out  # first row range


class TestVerify:
    def test_verify_clean_artifact_store(self, built_store, capsys):
        assert main(["shard", "verify", "--store", built_store]) == 0
        out = capsys.readouterr().out
        assert "all checksums match" in out

    def test_verify_fails_on_corruption(self, built_store, tmp_path, capsys):
        target = tmp_path / "artifacts" / "expertise.npy"
        with open(target, "r+b") as handle:
            handle.seek(-1, 2)
            handle.write(b"\x42")
        assert main(["shard", "verify", "--store", built_store]) == 1
        out = capsys.readouterr().out
        assert "CHECKSUM MISMATCH" in out
        assert "expertise.npy" in out

    def test_verify_accepts_bare_shard_store(self, tmp_path, capsys):
        store = ShardStore(tmp_path / "bare")
        store.write_array("a.npy", np.arange(4, dtype=np.int64))
        store.write_manifest(
            {"format": FORMAT, "checksums": {"a.npy": store.checksum("a.npy")}}
        )
        assert main(["shard", "verify", "--store", str(tmp_path / "bare")]) == 0
        assert "verified 1 payloads" in capsys.readouterr().out
