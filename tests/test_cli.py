"""End-to-end command-line flows against a temporary state directory."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner

import biochain
from biochain import cli, crypto
from biochain.cli import main
from biochain.encoding import lp
from biochain.extractor import StableSnapshot, StageParams
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


class TestRebuiltKeys:
    @pytest.fixture
    def enrolled(self, runner, tmp_path, monkeypatch):
        """A state directory and the deployment ``enroll`` built for it."""
        out = tmp_path / "run"
        invoke(runner, out, "--seed", "3", "gen", "--gallery-size", "120", "--template-dim", "8")
        built = spy(monkeypatch, "enroll")
        invoke(runner, out, "enroll")
        return out, built[0][1]

    def test_identify_rebuilds_the_enrolled_keys(self, runner, monkeypatch, enrolled):
        out, system = enrolled
        queried = spy(monkeypatch, "identify")
        cycles = spy(monkeypatch, "run_query_cycle")
        invoke(runner, out, "identify", "--identity", "id0003")
        tree, chain = queried[0][0][0], cycles[0][0][0]
        assert tree.public_key == system.tree.public_key
        assert len(tree.chiefs) == len(system.tree.chiefs) == 3
        assert tree.decision_commitments == system.tree.decision_commitments
        assert len(tree.decision_commitments) == 3
        assert chain_keys(chain) == chain_keys(system.chain)

    def test_audit_rebuilds_the_enrolled_chain_keys_without_tree_keys(
        self, runner, monkeypatch, enrolled
    ):
        out, system = enrolled
        audited = spy(monkeypatch, "run_audit")
        invoke(runner, out, "audit")
        rebuilt = audited[0][0][0]
        assert rebuilt.tree.chiefs == []
        assert rebuilt.tree.public_key == system.tree.public_key
        assert rebuilt.chain.notary.matcher_root_public == system.tree.public_key
        assert chain_keys(rebuilt.chain) == chain_keys(system.chain)

    def test_non_query_commands_set_up_no_tree_keys(self, runner, tmp_path, monkeypatch):
        out = tmp_path / "run"
        bootstrap(runner, out)
        calls = Counter()
        for name in ("seal", "shamir_split", "generate_keypair"):
            def counted(*args, _name=name, _original=getattr(crypto, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(crypto, name, counted)
        # Per rebuild: the chain's notary and blocks, and the tree's root.
        per_rebuild = len(StableSnapshot.load(out / "snapshot.bin").blocks) + 2
        for command, expect, rebuilds in ((["tamper", "--fraction", "0.1"], 0, 1),
                                          (["audit"], 1, 1), (["restore"], 0, 2),
                                          (["tamper", "--block", "0"], 0, 1)):
            calls.clear()
            result = runner.invoke(main, ["--out", str(out), *command])
            assert result.exit_code == expect, result.output
            assert calls["seal"] == calls["shamir_split"] == 0, command
            assert 0 < calls["generate_keypair"] <= rebuilds * per_rebuild, command
        calls.clear()
        invoke(runner, out, "restore")
        invoke(runner, out, "identify", "--identity", "id0001")
        assert calls["seal"] > 0 and calls["shamir_split"] > 0


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
