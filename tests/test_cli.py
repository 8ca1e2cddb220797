"""End-to-end command-line flows against a temporary state directory."""

import fcntl
import json
import os
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import biochain
from biochain import cli, crypto
from biochain.cli import main
from biochain.encoding import ByteReader, lp
from biochain.extractor import StableSnapshot, StageParams
from biochain.harness import ExperimentConfig, enroll, load_gallery, save_gallery
from biochain.ledger import Ledger
from biochain.matcher import Template
from helpers import chain_keys


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, out, *args, expect=0):
    result = runner.invoke(main, ["--out", str(out), *args], catch_exceptions=False)
    assert result.exit_code == expect, result.output
    return result


def bootstrap(runner, out, seed="3", size="40"):
    invoke(runner, out, "--seed", seed, "gen", "--gallery-size", size, "--template-dim", "8")
    invoke(runner, out, "enroll")


def spy(monkeypatch, name):
    """Replace ``biochain.cli.<name>`` with a pass-through that records
    each call's positional arguments and result, in call order."""
    calls = []
    original = getattr(cli, name)

    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(cli, name, recorded)
    return calls


BOGUS_STAGE = '{"chain_spec": [{"kind": "activation", "activation": "bogus"}]}'
MISSPELLED_STAGE = '{"chain_spec": [{"kind": "activation", "activaton": "relu"}]}'
NAN_BIAS_STAGE = '{"chain_spec": [{"kind": "convolution", "kernel": 1, "bias": NaN}]}'


def state_files(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}


def corrupt_records(path, case):
    """Make a gallery file unreadable: a ``nan`` value in one record, a
    header count one above the records, or a blank interior line."""
    lines = path.read_text().splitlines()
    if case == "nan-value":
        fields = lines[5].split()
        fields[2] = "nan"
        lines[5] = " ".join(fields)
    elif case == "header-count":
        header = lines[0].split()
        header[3] = str(int(header[3]) + 1)
        lines[0] = " ".join(header)
    else:
        lines.insert(5, "")
    path.write_text("\n".join(lines) + "\n")


class TestGenEnroll:
    def test_gen_writes_gallery_and_config(self, runner, tmp_path):
        out = tmp_path / "run"
        result = invoke(runner, out, "--seed", "5", "gen", "--gallery-size", "12")
        assert "12 templates" in result.output
        assert (out / "gallery.txt").exists()
        config = json.loads((out / "config.json").read_text())
        assert config["seed"] == 5
        assert config["gallery_size"] == 12

    def test_gen_is_deterministic(self, runner, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        invoke(runner, a, "--seed", "5", "gen")
        invoke(runner, b, "--seed", "5", "gen")
        assert (a / "gallery.txt").read_bytes() == (b / "gallery.txt").read_bytes()

    def test_enroll_reports_shapes_and_hashes(self, runner, tmp_path):
        out = tmp_path / "run"
        invoke(runner, out, "--seed", "7", "gen", "--gallery-size", "120", "--template-dim", "16")
        result = invoke(runner, out, "enroll")
        assert "3 chiefs" in result.output
        assert "tree root hash:" in result.output
        for name in ("archive.txt", "snapshot.bin", "chain_params.bin"):
            assert (out / name).exists()

    def test_enroll_without_gallery_fails(self, runner, tmp_path):
        result = runner.invoke(main, ["--out", str(tmp_path / "none"), "enroll"])
        assert result.exit_code != 0

    def test_malformed_gallery_is_a_one_line_error_and_writes_nothing(self, runner, tmp_path):
        out = tmp_path / "run"
        invoke(runner, out, "--seed", "3", "gen", "--gallery-size", "20", "--template-dim", "8")
        lines = (out / "gallery.txt").read_text().splitlines()
        lines[3] = ""
        (out / "gallery.txt").write_text("\n".join(lines) + "\n")
        state = state_files(out)
        result = runner.invoke(main, ["--out", str(out), "enroll"])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [f"Error: {out / 'gallery.txt'}: line 4 is blank"]
        assert state_files(out) == state


    @pytest.mark.parametrize("config,gallery,command,message", [
        (None, None, ["gen", "--gallery-size", "0"], "gallery_size must be >= 1"),
        ('{"bogus": 2}', None, ["gen"], "unknown configuration keys: bogus"),
        ('{"seed": 1,', None, ["gen"], "does not parse"),
        ('{"fanout": 0}', None, ["gen"], "fanout must be >= 1"),
        ('{"metric": "manhattan"}', None, ["gen"], "metric must be one of"),
        (None, "biochain-gallery 1 16 0\n", ["enroll"], "cannot enroll an empty gallery"),
        ('{"fanout": 200}', None, ["enroll"], "GF(2^8) sharing allows at most 127"),
        ('{"fanout": "5"}', None, ["gen"], "fanout must be of type int, got '5'"),
        ('{"fanout": "5"}', None, ["enroll"], "fanout must be of type int, got '5'"),
        ('{"seed": true}', None, ["enroll"], "seed must be of type int, got True"),
        ('{"probe_noise_sigma": NaN}', None, ["gen"], "probe_noise_sigma must be >= 0"),
        ('{"chain_spec": [1]}', None, ["enroll"], "chain_spec must be a list of objects"),
        (BOGUS_STAGE, None, ["gen"], "unknown activation 'bogus'"),
        (BOGUS_STAGE, None, ["enroll"], "unknown activation 'bogus'"),
        ('{"chain_spec": [{"init": "identity"}]}', None, ["gen"], "unknown stage kind None"),
        ('{"chain_spec": [{"init": "identity"}]}', None, ["enroll"], "unknown stage kind None"),
        (MISSPELLED_STAGE, None, ["gen"], "stage kind 'activation' reads no key 'activaton'"),
        (MISSPELLED_STAGE, None, ["enroll"], "stage kind 'activation' reads no key 'activaton'"),
        ('{"chain_spec": [{"kind": "dense", "out": 1e999}]}', None, ["gen"],
         "stage key 'out' must be of type int, got inf"),
        ('{"chain_spec": [{"kind": "dense", "out": 8.9}]}', None, ["gen"],
         "stage key 'out' must be of type int, got 8.9"),
        ('{"chain_spec": [{"kind": "dense", "out": "8"}]}', None, ["gen"],
         "stage key 'out' must be of type int, got '8'"),
        ('{"chain_spec": [{"kind": "pooling", "pool_size": true}]}', None, ["gen"],
         "stage key 'pool_size' must be of type int, got True"),
        ('{"chain_spec": [{"kind": "convolution", "kernel": 2.5, "bias": true}]}', None, ["gen"],
         "stage key 'kernel' must be of type int, got 2.5"),
        ('{"chain_spec": [{"kind": "convolution", "bias": true}]}', None, ["gen"],
         "stage key 'bias' must be of type float, got True"),
        ('{"chain_spec": [{"kind": "dense", "init": "bogus"}]}', None, ["gen"],
         "stage key 'init' must be 'identity' or 'random', got 'bogus'"),
        (NAN_BIAS_STAGE, None, ["gen"], "stage key 'bias' must be finite, got nan"),
        (NAN_BIAS_STAGE, None, ["enroll"], "stage key 'bias' must be finite, got nan"),
        ('{"chain_spec": [{"kind": "convolution", "bias": -Infinity}]}', None, ["gen"],
         "stage key 'bias' must be finite, got -inf"),
    ], ids=["gen-size-0", "unknown-key", "malformed-json", "fanout-0", "unknown-metric",
            "empty-gallery", "fanout-200", "fanout-str-gen", "fanout-str-enroll", "seed-bool",
            "sigma-nan", "stage-not-object", "bogus-activation-gen", "bogus-activation-enroll",
            "stage-without-kind-gen", "stage-without-kind-enroll", "misspelled-stage-key-gen",
            "misspelled-stage-key-enroll", "infinite-stage-size", "fractional-stage-size",
            "string-stage-size", "bool-stage-size", "fractional-kernel-bool-bias", "bool-stage-bias",
            "unknown-stage-init", "nan-stage-bias-gen", "nan-stage-bias-enroll",
            "infinite-stage-bias"])
    def test_bad_configuration_is_a_one_line_error(
        self, runner, tmp_path, config, gallery, command, message
    ):
        out = tmp_path / "run"
        invoke(runner, out, "--seed", "3", "gen", "--gallery-size", "300")
        if gallery is not None:
            (out / "gallery.txt").write_text(gallery)
        options = []
        if config is not None:
            (tmp_path / "cfg.json").write_text(config)
            options = ["--config", str(tmp_path / "cfg.json")]
        state = state_files(out)
        result = runner.invoke(main, ["--out", str(out), *options, *command])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error: ") and message in lines[0], lines
        assert state_files(out) == state


class TestIdentify:
    def test_archived_identity_scores_zero(self, runner, tmp_path):
        out = tmp_path / "run"
        bootstrap(runner, out)
        result = invoke(runner, out, "identify", "--identity", "id0005")
        assert "identity: id0005" in result.output
        assert "score: 0 " in result.output

    def test_unknown_identity_rejected(self, runner, tmp_path):
        out = tmp_path / "run"
        bootstrap(runner, out)
        result = runner.invoke(main, ["--out", str(out), "identify", "--identity", "ghost"])
        assert result.exit_code != 0

    def test_probe_file(self, runner, tmp_path):
        out = tmp_path / "run"
        bootstrap(runner, out)
        gallery = (out / "gallery.txt").read_text().splitlines()
        probe_path = tmp_path / "probe.txt"
        probe_path.write_text(gallery[0].replace(" 40", " 1", 1) + "\n")
        # single-record gallery file: reuse record 3 under a fresh header
        header = gallery[0].split()
        record = gallery[3]
        probe_path.write_text(f"{header[0]} {header[1]} {header[2]} 1\n{record}\n")
        result = invoke(runner, out, "identify", "--probe-file", str(probe_path))
        assert f"identity: {record.split()[0]}" in result.output

    def test_wrong_dimension_probe_rejected(self, runner, tmp_path):
        out = tmp_path / "run"
        bootstrap(runner, out)
        probe_path = tmp_path / "probe.txt"
        probe_path.write_text("biochain-gallery 1 3 1\nstray 1 2 3\n")
        result = runner.invoke(main, ["--out", str(out), "identify",
                                      "--probe-file", str(probe_path)])
        assert result.exit_code != 0

    @pytest.mark.parametrize("text,reason", [
        ("biochain-gallery 1 8 1\nstray nan 1 2 3 4 5 6 7\n",
         "record stray: template entries must be finite"),
        ("biochain-gallery 1 8 0\n", "holds no record"),
    ], ids=["nan-value", "no-record"])
    def test_unusable_probe_file_is_a_one_line_error(self, runner, tmp_path, text, reason):
        out = tmp_path / "run"
        bootstrap(runner, out)
        probe_path = tmp_path / "probe.txt"
        probe_path.write_text(text)
        state = state_files(out)
        result = runner.invoke(main, ["--out", str(out), "identify",
                                      "--probe-file", str(probe_path)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [f"Error: {probe_path}: {reason}"]
        assert state_files(out) == state

    def test_zero_probe_under_cosine_is_a_one_line_error(self, runner, tmp_path):
        out = tmp_path / "run"
        bootstrap(runner, out)
        probe_path = tmp_path / "zero.txt"
        probe_path.write_text("biochain-gallery 1 8 1\nzero 0 0 0 0 0 0 0 0\n")
        result = runner.invoke(main, ["--out", str(out), "--metric", "cosine", "identify",
                                      "--probe-file", str(probe_path)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [
            "Error: feature cannot be scored against the gallery: "
            "cosine distance is undefined for zero vectors"]

    def test_overflowing_probe_is_a_one_line_error(self, runner, tmp_path):
        out = tmp_path / "run"
        bootstrap(runner, out)
        probe_path = tmp_path / "big.txt"
        probe_path.write_text("biochain-gallery 1 8 1\nbig" + " 1e300" * 8 + "\n")
        result = runner.invoke(main, ["--out", str(out), "identify",
                                      "--probe-file", str(probe_path)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [
            "Error: feature cannot be scored against the gallery: its scores are not finite"]

    def test_ledger_grows_across_queries(self, runner, tmp_path):
        out = tmp_path / "run"
        bootstrap(runner, out)
        invoke(runner, out, "identify", "--identity", "id0001")
        size_one = (out / "ledger.bin").stat().st_size
        invoke(runner, out, "identify", "--identity", "id0002")
        assert (out / "ledger.bin").stat().st_size > size_one


class TestTamperAuditRestore:
    def test_clean_audit_exits_zero(self, runner, tmp_path):
        out = tmp_path / "run"
        bootstrap(runner, out)
        result = invoke(runner, out, "audit")
        assert "chain: intact" in result.output
        assert "tree: intact" in result.output

    def test_template_tamper_cycle(self, runner, tmp_path):
        out = tmp_path / "run"
        bootstrap(runner, out)
        invoke(runner, out, "tamper", "--fraction", "0.2")
        audit_result = runner.invoke(main, ["--out", str(out), "audit"])
        assert audit_result.exit_code == 1
        assert "tampered leaf" in audit_result.output
        restore_result = invoke(runner, out, "restore")
        assert "post-restore audit: clean" in restore_result.output
        invoke(runner, out, "audit")

    def test_deleted_gallery_records_found_and_restored(self, runner, tmp_path):
        out = tmp_path / "run"
        bootstrap(runner, out)
        lines = (out / "gallery.txt").read_text().splitlines()
        header = lines[0].split()
        header[3] = "35"
        (out / "gallery.txt").write_text("\n".join([" ".join(header), *lines[1:-5]]) + "\n")
        audit_result = runner.invoke(main, ["--out", str(out), "audit"])
        assert audit_result.exit_code == 1
        assert "store: 35 live records, archive holds 40" in audit_result.output
        restore_result = invoke(runner, out, "restore")
        assert "post-restore audit: clean" in restore_result.output
        assert (out / "gallery.txt").read_bytes() == (out / "archive.txt").read_bytes()
        invoke(runner, out, "audit")

    def test_chain_tamper_cycle(self, runner, tmp_path):
        out = tmp_path / "run"
        bootstrap(runner, out)
        invoke(runner, out, "tamper", "--block", "0", "--epsilon", "0.001")
        audit_result = runner.invoke(main, ["--out", str(out), "audit"])
        assert audit_result.exit_code == 1
        assert "first tampered block index 0" in audit_result.output
        # a tampered chain refuses queries
        blocked = runner.invoke(main, ["--out", str(out), "identify", "--identity", "id0001"])
        assert blocked.exit_code != 0
        restore_result = invoke(runner, out, "restore")
        assert "restored chain stage 0" in restore_result.output.splitlines()
        invoke(runner, out, "identify", "--identity", "id0001")

    def test_corrupted_snapshot_audited_and_restore_refused(self, runner, tmp_path):
        out = tmp_path / "run"
        bootstrap(runner, out)
        # change block 0's stored parameters but keep its stored hash
        snapshot = StableSnapshot.load(out / "snapshot.bin")
        index, stored_hash, params_bytes = snapshot.blocks[0]
        params = StageParams.from_canonical(params_bytes)
        params.weights.flat[0] += 1.0
        snapshot.blocks[0] = (index, stored_hash, params.canonical_bytes())
        snapshot.save(out / "snapshot.bin")
        audit_result = runner.invoke(main, ["--out", str(out), "audit"])
        assert audit_result.exit_code == 1
        assert "chain: intact" in audit_result.output
        assert any(line.startswith("snapshot:") for line in audit_result.output.splitlines())
        invoke(runner, out, "tamper", "--block", "0")
        # a subprocess with a timeout, so a restore that never ends fails the test
        env = dict(os.environ, PYTHONPATH=str(Path(biochain.__file__).parents[1]))
        restore = subprocess.run(
            [sys.executable, "-m", "biochain.cli", "--out", str(out), "restore"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert restore.returncode == 1
        assert "refusing to restore the chain" in restore.stderr
        assert "restored chain stage" not in restore.stdout

    def test_torn_snapshot_is_a_finding_or_an_error(self, runner, tmp_path):
        out = tmp_path / "run"
        bootstrap(runner, out)
        path = out / "snapshot.bin"
        path.write_bytes(path.read_bytes()[:20])
        state = {p.name: p.read_bytes() for p in out.iterdir()}
        audit_result = runner.invoke(main, ["--out", str(out), "audit"])
        assert audit_result.exit_code == 1
        assert isinstance(audit_result.exception, SystemExit)
        lines = audit_result.output.splitlines()
        assert "snapshot: does not parse; the chain cannot be verified or restored from it" in lines
        assert "tree: intact" in lines
        restore = runner.invoke(main, ["--out", str(out), "restore"])
        assert restore.exit_code == 1 and isinstance(restore.exception, SystemExit)
        assert "refusing to restore the chain" in restore.output
        assert "restored" not in restore.output
        for command in (["identify", "--identity", "id0001"], ["tamper", "--fraction", "0.1"]):
            result = runner.invoke(main, ["--out", str(out), *command])
            assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
            assert result.output.splitlines() == [
                "Error: snapshot.bin does not parse: truncated record; run audit"
            ]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == state

    @pytest.mark.parametrize("change", ["added", "removed"])
    def test_stage_count_change_audited_and_restored(self, runner, tmp_path, change):
        out = tmp_path / "run"
        bootstrap(runner, out)
        path = out / "chain_params.bin"
        enrolled = path.read_bytes()
        snapshot = StableSnapshot.load(out / "snapshot.bin")
        blobs = [params for _, _, params in snapshot.blocks]
        changed = blobs + [blobs[-1]] if change == "added" else blobs[:-1]
        path.write_bytes(b"".join(lp(blob) for blob in changed))
        audit_result = runner.invoke(main, ["--out", str(out), "audit"])
        assert audit_result.exit_code == 1, audit_result.output
        chain_lines = [l for l in audit_result.output.splitlines() if l.startswith("chain:")]
        assert chain_lines == [
            f"chain: {len(changed)} stages, snapshot holds {len(blobs)}; "
            "restore rewrites the stage list from the snapshot"
        ]
        blocked = runner.invoke(main, ["--out", str(out), "identify", "--identity", "id0001"])
        assert blocked.exit_code == 1 and "chain integrity check failed" in blocked.output
        restore_result = invoke(runner, out, "restore")
        assert "post-restore audit: clean" in restore_result.output
        restored = [l for l in restore_result.output.splitlines() if l.startswith("restored chain")]
        assert restored == [f"restored chain stage {min(len(changed), len(blobs))}"]
        assert path.read_bytes() == enrolled
        invoke(runner, out, "audit")
        invoke(runner, out, "identify", "--identity", "id0001")

    def test_empty_stage_list_is_an_error_message(self, runner, tmp_path):
        out = tmp_path / "run"
        bootstrap(runner, out)
        (out / "chain_params.bin").write_bytes(b"")
        result = runner.invoke(main, ["--out", str(out), "audit"])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "chain_params.bin holds no usable stage list" in result.output

    def test_tamper_requires_a_target(self, runner, tmp_path):
        out = tmp_path / "run"
        bootstrap(runner, out)
        result = runner.invoke(main, ["--out", str(out), "tamper"])
        assert result.exit_code != 0

    @pytest.mark.parametrize("command", [
        ["tamper", "--fraction", "2"],
        ["tamper", "--fraction", "0"],
        ["tamper", "--fraction", "0.5", "--sigma", "0"],
        ["tamper", "--fraction", "0.5", "--sigma", "-1"],
        ["tamper", "--fraction", "0.5", "--sigma", "nan"],
        ["tamper", "--fraction", "0.5", "--sigma", "0", "--block", "0"],
        ["identify", "--identity", "id0001", "--probe-noise", "-1"],
    ], ids=["fraction-2", "fraction-0", "sigma-0", "sigma-negative", "sigma-nan",
            "sigma-0-with-block", "negative-probe-noise"])
    def test_bad_input_is_a_one_line_error(self, runner, tmp_path, command):
        out = tmp_path / "run"
        bootstrap(runner, out)
        state = {p.name: p.read_bytes() for p in out.iterdir()}
        result = runner.invoke(main, ["--out", str(out), *command])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error: "), result.output
        assert {p.name: p.read_bytes() for p in out.iterdir()} == state

    def test_wrong_dimension_store_audited_restored_and_refused(self, runner, tmp_path):
        # gallery.txt rewritten at dimension 7 over a dimension-8 archive
        out = tmp_path / "run"
        bootstrap(runner, out)
        lines = (out / "gallery.txt").read_text().splitlines()
        header = lines[0].split()
        header[2] = "7"
        records = [" ".join(line.split()[:-1]) for line in lines[1:]]
        (out / "gallery.txt").write_text("\n".join([" ".join(header), *records]) + "\n")
        blocked = runner.invoke(main, ["--out", str(out), "identify", "--identity", "id0001"])
        assert blocked.exit_code == 1 and isinstance(blocked.exception, SystemExit)
        assert len(blocked.output.splitlines()) == 1
        assert blocked.output.startswith("Error: ")
        audit_result = runner.invoke(main, ["--out", str(out), "audit"])
        assert audit_result.exit_code == 1 and isinstance(audit_result.exception, SystemExit)
        lines = audit_result.output.splitlines()
        assert "chain: intact" in lines
        assert any(line.startswith(("tree: tampered leaf", "store:")) for line in lines)
        restore_result = invoke(runner, out, "restore")
        assert "post-restore audit: clean" in restore_result.output
        assert (out / "gallery.txt").read_bytes() == (out / "archive.txt").read_bytes()
        invoke(runner, out, "audit")
        invoke(runner, out, "identify", "--identity", "id0001")


class TestUnreadableState:
    @pytest.mark.parametrize("case", ["nan-value", "header-count", "blank-line"])
    def test_unreadable_gallery_is_a_finding_or_an_error(self, runner, tmp_path, case):
        out = tmp_path / "run"
        bootstrap(runner, out)
        corrupt_records(out / "gallery.txt", case)
        state = state_files(out)
        for command in (["identify", "--identity", "id0001"], ["tamper", "--fraction", "0.1"]):
            result = runner.invoke(main, ["--out", str(out), *command])
            assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
            lines = result.output.splitlines()
            assert len(lines) == 1 and lines[0].startswith("Error: "), result.output
            assert "gallery.txt" in lines[0] and lines[0].endswith("; run audit")
        assert state_files(out) == state
        audit_result = runner.invoke(main, ["--out", str(out), "audit"])
        assert audit_result.exit_code == 1 and isinstance(audit_result.exception, SystemExit)
        assert audit_result.output.splitlines() == [
            "chain: intact",
            "tree: intact",
            "store: does not parse; restore rewrites the store from the tree",
        ]
        restore_lines = invoke(runner, out, "restore").output.splitlines()
        assert restore_lines == ["restored the live store to 40 records",
                                 "post-restore audit: clean"]
        assert (out / "gallery.txt").read_bytes() == (out / "archive.txt").read_bytes()
        invoke(runner, out, "audit")

    def test_torn_ledger_is_a_finding_or_an_error(self, runner, tmp_path):
        out = tmp_path / "run"
        bootstrap(runner, out)
        invoke(runner, out, "identify", "--identity", "id0001")
        path = out / "ledger.bin"
        path.write_bytes(path.read_bytes()[:-5])
        state = state_files(out)
        audit_result = runner.invoke(main, ["--out", str(out), "audit"])
        assert audit_result.exit_code == 1 and isinstance(audit_result.exception, SystemExit)
        assert audit_result.output.splitlines() == [
            "chain: intact",
            "tree: intact",
            "ledger: does not parse: truncated record",
        ]
        for command in (["identify", "--identity", "id0001"], ["tamper", "--fraction", "0.1"],
                        ["restore"]):
            result = runner.invoke(main, ["--out", str(out), *command])
            assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
            assert result.output.splitlines() == [
                "Error: ledger.bin does not parse: truncated record; run audit"
            ]
        assert state_files(out) == state

    def test_missing_ledger_is_a_finding_or_an_error(self, runner, tmp_path):
        # enroll always writes ledger.bin, so a directory without one lost
        # its transcript: audit says so, and identify starts no new one.
        out = tmp_path / "run"
        bootstrap(runner, out)
        invoke(runner, out, "identify", "--identity", "id0001")
        (out / "ledger.bin").unlink()
        state = state_files(out)
        audit_result = runner.invoke(main, ["--out", str(out), "audit"])
        assert audit_result.exit_code == 1 and isinstance(audit_result.exception, SystemExit)
        assert audit_result.output.splitlines() == [
            "chain: intact",
            "tree: intact",
            "ledger: missing",
        ]
        for command in (["identify", "--identity", "id0001"], ["tamper", "--fraction", "0.1"],
                        ["restore"]):
            result = runner.invoke(main, ["--out", str(out), *command])
            assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
            assert result.output.splitlines() == [
                f"Error: missing ledger.bin in {out}; run enroll first"
            ]
        assert state_files(out) == state

    def test_unreadable_archive_is_a_one_line_error(self, runner, tmp_path):
        out = tmp_path / "run"
        bootstrap(runner, out)
        corrupt_records(out / "archive.txt", "blank-line")
        state = state_files(out)
        for command in (["identify", "--identity", "id0001"], ["tamper", "--fraction", "0.1"],
                        ["audit"], ["restore"]):
            result = runner.invoke(main, ["--out", str(out), *command])
            assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
            lines = result.output.splitlines()
            assert len(lines) == 1 and lines[0].startswith("Error: "), result.output
            assert "archive.txt: line 6 is blank" in lines[0]
        assert state_files(out) == state

    def test_empty_archive_is_an_audit_finding_or_a_one_line_error(self, runner, tmp_path):
        out = tmp_path / "run"
        bootstrap(runner, out, size="20")
        (out / "archive.txt").write_text("biochain-gallery 1 8 0\n")
        state = state_files(out)
        message = "archive.txt holds no record; no tree can be built from it"
        audit_result = runner.invoke(main, ["--out", str(out), "audit"])
        assert audit_result.exit_code == 1 and isinstance(audit_result.exception, SystemExit)
        assert audit_result.output.splitlines() == [f"archive: {message}"]
        for command in (["identify", "--identity", "id0001"], ["tamper", "--fraction", "0.1"],
                        ["restore"]):
            result = runner.invoke(main, ["--out", str(out), *command])
            assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
            assert result.output.splitlines() == [f"Error: {message}"]
        assert state_files(out) == state


def edit_blobs(path, edit):
    """Rewrite a file of length-prefixed blobs (``chain_params.bin``, or
    ``ledger.bin`` whose blobs are record bodies) with ``edit`` applied to
    the list of blobs, each length prefix following its blob."""
    reader = ByteReader(path.read_bytes())
    blobs = []
    while not reader.exhausted:
        blobs.append(reader.read_lp())
    edit(blobs)
    path.write_bytes(b"".join(lp(blob) for blob in blobs))


def edit_snapshot_block(out, position, edit):
    snapshot = StableSnapshot.load(out / "snapshot.bin")
    snapshot.blocks[position] = edit(*snapshot.blocks[position])
    snapshot.save(out / "snapshot.bin")


def interleave_cycles(path):
    """Move the first cycle's last record behind the later records, then
    renumber the seqs so that they still run 0, 1, 2, ...; return the
    moved record's cycle id."""
    entries = Ledger.load(path).entries()
    last = max(i for i, entry in enumerate(entries) if entry.cycle_id == entries[0].cycle_id)
    moved = entries[:last] + entries[last + 1:] + [entries[last]]
    path.write_bytes(b"".join(replace(e, seq=i).to_bytes() for i, e in enumerate(moved)))
    return entries[0].cycle_id


class TestOnlyWrittenBytes:
    """A state file holding bytes that no biochain command writes is a
    finding or a one-line error, never a clean audit."""

    def test_interleaved_cycles_are_a_finding_or_an_error(self, runner, tmp_path):
        out = tmp_path / "run"
        bootstrap(runner, out)
        invoke(runner, out, "identify", "--identity", "id0001")
        invoke(runner, out, "identify", "--identity", "id0002")
        cycle_id = interleave_cycles(out / "ledger.bin")
        state = state_files(out)
        reason = f"does not parse: cycle {cycle_id} is finalized"
        audit_result = runner.invoke(main, ["--out", str(out), "audit"])
        assert audit_result.exit_code == 1 and isinstance(audit_result.exception, SystemExit)
        assert audit_result.output.splitlines() == [
            "chain: intact", "tree: intact", f"ledger: {reason}"]
        for command in (["identify", "--identity", "id0001"], ["tamper", "--fraction", "0.1"],
                        ["restore"]):
            result = runner.invoke(main, ["--out", str(out), *command])
            assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
            assert result.output.splitlines() == [f"Error: ledger.bin {reason}; run audit"]
        assert state_files(out) == state

    @pytest.mark.parametrize("case", [
        "stage-trailing-bytes", "snapshot-blob-trailing-bytes", "snapshot-block-index",
        "record-trailing-bytes", "record-seq-padded",
    ])
    def test_unwritten_bytes_are_a_finding_or_an_error(self, runner, tmp_path, case):
        out = tmp_path / "run"
        bootstrap(runner, out)
        invoke(runner, out, "identify", "--identity", "id0001")
        if case == "stage-trailing-bytes":
            def pad(blobs):
                blobs[0] += bytes(8)
            edit_blobs(out / "chain_params.bin", pad)
            error = ("chain_params.bin holds no usable stage list: "
                     "trailing bytes after the stage parameters")
            audit_line, query_error = f"Error: {error}", error
        elif case == "snapshot-blob-trailing-bytes":
            edit_snapshot_block(out, 0, lambda index, h, params: (index, h, params + bytes(2)))
            audit_line = ("snapshot: stored parameters do not reproduce the stored hashes; "
                          "the chain cannot be restored from it")
            query_error = None  # the stored hashes still match the chain
        elif case == "snapshot-block-index":
            edit_snapshot_block(out, 1, lambda index, h, params: (7, h, params))
            audit_line = "snapshot: does not parse; the chain cannot be verified or restored from it"
            query_error = ("snapshot.bin does not parse: snapshot block 1 is stored under "
                           "another index; run audit")
        else:
            def pad(bodies):
                if case == "record-trailing-bytes":
                    bodies[-1] += bytes(4)
                else:  # the seq field is the body's first blob, 8 bytes long
                    bodies[0] = lp(bodies[0][4:12] + bytes(1)) + bodies[0][12:]
            edit_blobs(out / "ledger.bin", pad)
            audit_line = "ledger: does not parse: malformed ledger record"
            query_error = "ledger.bin does not parse: malformed ledger record; run audit"
        state = state_files(out)
        audit_result = runner.invoke(main, ["--out", str(out), "audit"])
        assert audit_result.exit_code == 1 and isinstance(audit_result.exception, SystemExit)
        assert audit_line in audit_result.output.splitlines(), audit_result.output
        if query_error is not None:
            result = runner.invoke(main, ["--out", str(out), "identify", "--identity", "id0001"])
            assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
            assert result.output.splitlines() == [f"Error: {query_error}"]
            assert state_files(out) == state


class TestRebuiltKeys:
    @pytest.fixture
    def enrolled(self, runner, tmp_path):
        """A state directory and the whole deployment enrollment builds for
        its gallery, configuration and seed."""
        out = tmp_path / "run"
        invoke(runner, out, "--seed", "3", "gen", "--gallery-size", "120", "--template-dim", "8")
        invoke(runner, out, "enroll")
        config = ExperimentConfig.from_dict(json.loads((out / "config.json").read_text()))
        return out, enroll(load_gallery(out / "gallery.txt"), config.chain_spec,
                           fanout=config.fanout, seed=config.seed)

    def test_identify_rebuilds_the_enrolled_keys(self, runner, monkeypatch, enrolled):
        out, system = enrolled
        queried = spy(monkeypatch, "identify")
        cycles = spy(monkeypatch, "run_query_cycle")
        invoke(runner, out, "identify", "--identity", "id0003")
        tree, chain = queried[0][0][0], cycles[0][0][0]
        assert tree.public_key == system.tree.public_key
        assert len(tree.chief_channels) == len(system.tree.chief_channels) == 3
        assert len(tree.leaf_channels) == len(system.tree.leaf_channels) == 120
        # Every rebuilt channel holds its enrolled key: one block under a
        # fixed nonce encrypts to the same bytes.
        for rebuilt, enrolled in zip(tree.chief_channels + tree.leaf_channels,
                                     system.tree.chief_channels + system.tree.leaf_channels):
            assert rebuilt.encrypt(bytes(12), b"block", None) == enrolled.encrypt(
                bytes(12), b"block", None)
        assert tree.decision_commitments == system.tree.decision_commitments
        assert np.array_equal(tree.shards, system.tree.shards)
        assert len(tree.decision_commitments) == 3
        assert chain_keys(chain) == chain_keys(system.chain)

    def test_audit_rebuilds_the_enrolled_chain_keys_without_tree_keys(
        self, runner, monkeypatch, enrolled
    ):
        out, system = enrolled
        audited = spy(monkeypatch, "run_audit")
        invoke(runner, out, "audit")
        rebuilt = audited[0][0][0]
        assert rebuilt.tree.chief_channels == []
        assert rebuilt.tree.public_key == system.tree.public_key
        assert rebuilt.chain.notary.matcher_root_public == system.tree.public_key
        assert chain_keys(rebuilt.chain) == chain_keys(system.chain)

    def test_non_query_commands_set_up_no_tree_keys(self, runner, tmp_path, monkeypatch):
        out = tmp_path / "run"
        bootstrap(runner, out)
        calls = Counter()
        for name in ("link_key", "shamir_split", "generate_keypair"):
            def counted(*args, _name=name, _original=getattr(crypto, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(crypto, name, counted)
        # Per rebuild: the chain's notary and blocks, and the tree's root.
        per_rebuild = len(StableSnapshot.load(out / "snapshot.bin").blocks) + 2
        for command, expect, rebuilds in ((["enroll"], 0, 1),
                                          (["tamper", "--fraction", "0.1"], 0, 1),
                                          (["audit"], 1, 1), (["restore"], 0, 2),
                                          (["tamper", "--block", "0"], 0, 1)):
            calls.clear()
            result = runner.invoke(main, ["--out", str(out), *command])
            assert result.exit_code == expect, result.output
            assert calls["link_key"] == calls["shamir_split"] == 0, command
            assert 0 < calls["generate_keypair"] <= rebuilds * per_rebuild, command
        calls.clear()
        invoke(runner, out, "restore")
        invoke(runner, out, "identify", "--identity", "id0001")
        assert calls["link_key"] > 0 and calls["shamir_split"] > 0


class TestExperimentCommand:
    def test_experiment_writes_all_artifacts(self, runner, tmp_path):
        out = tmp_path / "exp"
        config = {
            "seed": 2,
            "gallery_size": 24,
            "template_dim": 8,
            "probes_per_identity": 2,
            "ranks": 5,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        result = runner.invoke(
            main, ["--out", str(out), "--config", str(cfg_path), "experiment"],
            catch_exceptions=False,
        )
        assert result.exit_code == 0, result.output
        for name in ("report.txt", "summary.json", "timings.txt"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        before = summary["results"]["before_tamper"]
        after = summary["results"]["after_tamper"]
        assert before["proposed"]["rank1"] == after["proposed"]["rank1"]
        assert after["traditional"]["rank1"] < before["traditional"]["rank1"]

    def test_report_command_prints_report(self, runner, tmp_path):
        out = tmp_path / "exp"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "seed": 2, "gallery_size": 12, "template_dim": 8,
            "probes_per_identity": 1, "ranks": 3,
        }))
        runner.invoke(main, ["--out", str(out), "--config", str(cfg_path), "experiment"],
                      catch_exceptions=False)
        result = invoke(runner, out, "report")
        assert "experiment report" in result.output
        assert "proposed | after_tamper" in result.output

    def test_report_without_experiment_fails(self, runner, tmp_path):
        result = runner.invoke(main, ["--out", str(tmp_path / "empty"), "report"])
        assert result.exit_code != 0


STATE_FILES = {
    cli.CONFIG_FILE, cli.GALLERY_FILE, cli.ARCHIVE_FILE,
    cli.CHAIN_FILE, cli.SNAPSHOT_FILE, cli.LEDGER_FILE,
}
_writes = None  # names opened for writing, while a recording is on
_hooked = False


def _record_write(event, args):
    if event == "open" and _writes is not None:
        path, _, flags = args
        if not isinstance(path, int) and flags & (os.O_WRONLY | os.O_RDWR):
            _writes.append(os.path.basename(os.fsdecode(path)))


@contextmanager
def files_opened_for_writing():
    """Names of the files opened for writing inside the block, by any
    route (``open``, ``Path.write_*``, ``os.open``): an audit hook sees
    them all. The hook stays installed and is inert outside the block."""
    global _writes, _hooked
    if not _hooked:
        sys.addaudithook(_record_write)
        _hooked = True
    _writes = []
    try:
        yield _writes
    finally:
        _writes = None


def crash_before_rename(src, dst):
    raise OSError("crashed before the rename")


def temp_target(name):
    """The state file a temporary ``.<name>.<hex>.tmp`` file replaces."""
    return name[1:].rsplit(".", 2)[0] if name.startswith(".") and name.endswith(".tmp") else None


class TestCrashSafeStateFiles:
    def test_tamper_and_restore_never_rewrite_a_state_file_in_place(self, runner, tmp_path):
        bootstrap(runner, tmp_path)
        with files_opened_for_writing() as names:
            invoke(runner, tmp_path, "tamper", "--fraction", "0.2", "--block", "0")
            invoke(runner, tmp_path, "restore")
        # neither appends to the transcript, so neither opens ledger.bin
        assert [n for n in names if n in STATE_FILES] == []
        assert {cli.GALLERY_FILE, cli.CHAIN_FILE} <= {temp_target(n) for n in names}
        assert set(os.listdir(tmp_path)) == STATE_FILES

    @pytest.mark.parametrize("command", [
        ("tamper", "--fraction", "0.2"), ("tamper", "--block", "0"), ("restore",),
    ])
    def test_failed_rename_leaves_every_state_file_as_it_was(
        self, runner, tmp_path, monkeypatch, command
    ):
        bootstrap(runner, tmp_path)
        if command == ("restore",):
            invoke(runner, tmp_path, "tamper", "--fraction", "0.2", "--block", "0")
        before = state_files(tmp_path)
        monkeypatch.setattr(os, "replace", crash_before_rename)
        result = runner.invoke(main, ["--out", str(tmp_path), *command])
        assert isinstance(result.exception, OSError)
        # old bytes, and no temporary file left beside them
        assert state_files(tmp_path) == before

    def test_failed_re_enroll_keeps_the_earlier_ledger(self, runner, tmp_path, monkeypatch):
        bootstrap(runner, tmp_path)
        invoke(runner, tmp_path, "identify", "--identity", "id0005")
        before = state_files(tmp_path)
        assert before[cli.LEDGER_FILE]
        monkeypatch.setattr(os, "replace", crash_before_rename)
        result = runner.invoke(main, ["--out", str(tmp_path), "enroll"])
        assert isinstance(result.exception, OSError)
        assert state_files(tmp_path) == before
        monkeypatch.undo()
        invoke(runner, tmp_path, "enroll")  # a whole enrollment starts an empty transcript
        assert state_files(tmp_path)[cli.LEDGER_FILE] == b""

    @pytest.mark.parametrize("writer", ["gallery", "snapshot", "config", "chain params"])
    def test_failed_rename_keeps_the_old_file(self, tmp_path, monkeypatch, writer):
        def write(version):
            if writer == "gallery":
                save_gallery(tmp_path / "f", [Template(f"id{version}", np.full(3, version))])
            elif writer == "snapshot":
                StableSnapshot([(0, b"h", b"p")], b"n", float(version)).save(tmp_path / "f")
            elif writer == "config":
                cli._save_config(tmp_path, ExperimentConfig(seed=version))
            else:
                cli._save_chain_params(tmp_path / "f", [bytes([version])])

        write(1)
        before = state_files(tmp_path)
        monkeypatch.setattr(os, "replace", crash_before_rename)
        with pytest.raises(OSError):
            write(2)
        assert state_files(tmp_path) == before
        monkeypatch.undo()
        write(2)
        assert state_files(tmp_path) != before and len(state_files(tmp_path)) == 1


@contextmanager
def locked_directory(out, mode):
    """Hold ``flock(mode)`` on the directory ``out``, as another command would."""
    fd = os.open(out, os.O_RDONLY | os.O_DIRECTORY)
    try:
        fcntl.flock(fd, mode)
        yield
    finally:
        os.close(fd)


class TestOneWriterPerDirectory:
    @pytest.mark.parametrize("command", [
        ("identify", "--identity", "id0005"), ("tamper", "--fraction", "0.2"),
        ("tamper", "--block", "0"), ("restore",), ("enroll",), ("gen",),
    ], ids=["identify", "tamper-fraction", "tamper-block", "restore", "enroll", "gen"])
    def test_a_locked_directory_refuses_every_writer(self, runner, tmp_path, command):
        bootstrap(runner, tmp_path)
        invoke(runner, tmp_path, "tamper", "--fraction", "0.1")  # something to restore
        before = state_files(tmp_path)
        for mode in (fcntl.LOCK_EX, fcntl.LOCK_SH):
            with locked_directory(tmp_path, mode):
                result = runner.invoke(main, ["--out", str(tmp_path), *command])
            assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
            assert result.output.splitlines() == [
                f"Error: {tmp_path} is in use by another biochain command; try again later"]
            assert state_files(tmp_path) == before

    def test_readers_share_the_lock(self, runner, tmp_path):
        bootstrap(runner, tmp_path)
        invoke(runner, tmp_path, "experiment")
        with locked_directory(tmp_path, fcntl.LOCK_SH):
            assert "tree: intact" in invoke(runner, tmp_path, "audit").output
            assert "experiment report" in invoke(runner, tmp_path, "report").output
        with locked_directory(tmp_path, fcntl.LOCK_EX):
            result = runner.invoke(main, ["--out", str(tmp_path), "audit"])
        assert result.exit_code == 1 and "is in use" in result.output
        invoke(runner, tmp_path, "audit")  # each command lets go when it ends

    def test_concurrent_queries_leave_a_ledger_that_parses(self, runner, tmp_path):
        bootstrap(runner, tmp_path)
        env = dict(os.environ, PYTHONPATH=str(Path(biochain.__file__).parents[1]))
        command = [sys.executable, "-m", "biochain.cli", "--out", str(tmp_path),
                   "identify", "--identity", "id0005"]
        succeeded = 0
        for _ in range(3):
            queries = [subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                                        stderr=subprocess.PIPE, text=True) for _ in range(4)]
            for query in queries:
                stdout, stderr = query.communicate(timeout=120)
                if query.returncode == 0:
                    assert "identity: id0005" in stdout
                    succeeded += 1
                else:
                    assert query.returncode == 1 and "is in use" in stderr, stderr
        ledger = Ledger.load(tmp_path / cli.LEDGER_FILE)
        assert succeeded >= 3  # one query of each round at least gets the lock
        assert len({entry.cycle_id for entry in ledger.entries()}) == succeeded
