"""Command-line driver for the experiment harness.

State lives in the output directory (default ``./runs``):

    config.json       experiment configuration
    gallery.txt       live template store (both architectures read this)
    archive.txt       enrollment-time template copies
    chain_params.bin  live extraction-stage parameters
    snapshot.bin      enrollment-time chain snapshot
    ledger.bin        append-only protocol transcript
    report.txt        deterministic experiment report
    summary.json      machine-readable results
    timings.txt       measured wall-clock costs (not deterministic)

A deployment is rebuilt deterministically from (archive, fanout, seed),
so no key material is stored between commands. Each command rebuilds
only the parts it reads:

* ``tamper``, ``audit`` and ``restore`` rebuild the tree's hash structure
  (template matrix and enrollment hashes) under the root's key pair, and
  the chain with its keys;
* ``identify`` rebuilds the same, then runs the tree's key set-up (node
  keys, channels, decision keys and shards) before it queries;
* ``enroll`` and ``experiment`` build the whole deployment.

No command rewrites ``ledger.bin``; one that does not parse is an
``audit`` finding and an error for every other command.

The chain's keys come from their own seed stream, so every command
rebuilds the same chain keys. State directories enrolled while the chain
keys still continued the tree's stream keep working, because each
command rebuilds both ends of every chain link from the seed; only the
signatures already in their ``ledger.bin`` were made with the earlier
keys, and no command verifies those signatures.

The seed in ``config.json`` regenerates every private key, the matching
tree's decision keys included, so anyone who can read the state
directory can forge consensus: keep the directory secret.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Optional

import click
import numpy as np

from . import crypto
from .encoding import ByteReader, lp
from .extractor import (
    ExtractorChain,
    IndexOutOfRange,
    IntegrityFailure,
    ShapeMismatch,
    StableSnapshot,
    StageParams,
    handoff_envelope,
    run_query_cycle,
)
from .harness import (
    EnrolledSystem,
    ExperimentConfig,
    audit as run_audit,
    chain_keys_rng,
    enroll,
    enrollment_keys_rng,
    generate_synthetic_gallery,
    inject_template_noise,
    load_gallery,
    run_experiment,
    save_gallery,
    tamper_extractor_block,
)
from .metrics import DimensionMismatch
from .ledger import Ledger, LedgerError
from .matcher import (
    TemplateArchive,
    build_hash_tree,
    identify,
    restore_leaves,
    setup_tree_keys,
)

CONFIG_FILE = "config.json"
GALLERY_FILE = "gallery.txt"
ARCHIVE_FILE = "archive.txt"
CHAIN_FILE = "chain_params.bin"
SNAPSHOT_FILE = "snapshot.bin"
LEDGER_FILE = "ledger.bin"


def _load_config(out: Path, overrides: dict) -> ExperimentConfig:
    path = out / CONFIG_FILE
    data = json.loads(path.read_text()) if path.exists() else {}
    data.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig.from_dict(data)


def _save_config(out: Path, config: ExperimentConfig) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / CONFIG_FILE).write_text(json.dumps(config.to_dict(), indent=2) + "\n")


def _save_chain_params(path: Path, params: list[bytes]) -> None:
    """Write canonical stage-parameter blobs, in chain order."""
    path.write_bytes(b"".join(lp(blob) for blob in params))


def _chain_params(chain: ExtractorChain) -> list[bytes]:
    return [block.params.canonical_bytes() for block in chain.blocks]


def _load_chain_params(path: Path) -> list[StageParams]:
    reader = ByteReader(path.read_bytes())
    stages = []
    while not reader.exhausted:
        stages.append(StageParams.from_canonical(reader.read_lp()))
    return stages


def _load_system(
    out: Path, config: ExperimentConfig, keys_rng: np.random.Generator,
    strict: bool = True, ledger: Optional[Ledger] = None,
) -> EnrolledSystem:
    """Rebuild the enrolled deployment's checkable state from the state
    directory: the tree's hash structure under the root's key pair, the
    first draw of ``keys_rng``, and the chain with its keys. The tree has
    no node keys; a command that queries continues ``keys_rng`` with
    :func:`setup_tree_keys`. The system's ledger is ``ledger``, or else
    ``ledger.bin`` replayed and reopened for appending.

    An archive or a ledger that does not parse is a one-line error. So is
    a snapshot or a live store that does not parse, or a live store whose
    records do not fit the tree's rows, unless ``strict`` is False (audit
    and restore): the chain then has no snapshot, the system no live
    store, or the tree keeps the archive's templates, and the audit
    reports a finding."""
    for name in (GALLERY_FILE, ARCHIVE_FILE, CHAIN_FILE, SNAPSHOT_FILE):
        if not (out / name).exists():
            raise click.ClickException(f"missing {name} in {out}; run enroll first")
    try:
        archive_templates = load_gallery(out / ARCHIVE_FILE)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    try:
        live_templates = load_gallery(out / GALLERY_FILE)
    except ValueError as exc:
        if strict:
            raise click.ClickException(f"{exc}; run audit")
        live_templates = None
    tree = build_hash_tree(archive_templates, crypto.generate_keypair(keys_rng), config.fanout)
    try:
        stages = _load_chain_params(out / CHAIN_FILE)
        chain = ExtractorChain.build(stages, tree.public_key, rng=chain_keys_rng(config.seed))
    except ValueError as exc:
        raise click.ClickException(f"{CHAIN_FILE} holds no usable stage list: {exc}")
    try:
        chain.snapshot = StableSnapshot.load(out / SNAPSHOT_FILE)
    except ValueError as exc:
        if strict:
            raise click.ClickException(f"{SNAPSHOT_FILE} does not parse: {exc}; run audit")
    # Load the live (possibly tampered) templates over the enrollment tree.
    try:
        for index, template in enumerate((live_templates or [])[:len(archive_templates)]):
            tree.write_template(index, template)
    except DimensionMismatch as exc:
        if strict:
            raise click.ClickException(f"{GALLERY_FILE} does not fit the tree: {exc}; run audit")
    ledger_path = out / LEDGER_FILE
    if ledger is None and ledger_path.exists() and ledger_path.stat().st_size:
        try:
            ledger = Ledger.load(ledger_path, resume=True)
        except (ValueError, LedgerError) as exc:
            raise click.ClickException(f"{LEDGER_FILE} does not parse: {exc}; run audit")
    elif ledger is None:
        ledger = Ledger(ledger_path)
    return EnrolledSystem(
        chain=chain,
        ledger=ledger,
        tree=tree,
        archive=TemplateArchive(archive_templates),
        flat_store=live_templates,
        seed=config.seed,
        fanout=config.fanout,
    )


@click.group()
@click.option("--out", default="runs", type=click.Path(path_type=Path), show_default=True,
              help="State/output directory.")
@click.option("--config", "config_path", type=click.Path(exists=True, path_type=Path),
              help="JSON file with configuration fields.")
@click.option("--seed", type=int, default=None, help="Override the experiment seed.")
@click.option("--metric", type=click.Choice(["euclidean", "cosine"]), default=None,
              help="Override the distance metric.")
@click.pass_context
def main(ctx, out: Path, config_path, seed, metric):
    """Tamper-evident biometric identification testbed."""
    overrides = {"seed": seed, "metric": metric}
    if config_path is not None:
        base = json.loads(Path(config_path).read_text())
        base.update({k: v for k, v in overrides.items() if v is not None})
        file_cfg = ExperimentConfig.from_dict(base)
        ctx.obj = {"out": out, "config": file_cfg}
    else:
        ctx.obj = {"out": out, "config": _load_config(out, overrides)}


@main.command()
@click.option("--gallery-size", type=int, default=None)
@click.option("--template-dim", type=int, default=None)
@click.pass_context
def gen(ctx, gallery_size, template_dim):
    """Generate a synthetic gallery and write it with the configuration."""
    out: Path = ctx.obj["out"]
    config: ExperimentConfig = ctx.obj["config"]
    if gallery_size is not None:
        config.gallery_size = gallery_size
    if template_dim is not None:
        config.template_dim = template_dim
    templates = generate_synthetic_gallery(config)
    out.mkdir(parents=True, exist_ok=True)
    save_gallery(out / GALLERY_FILE, templates)
    _save_config(out, config)
    click.echo(f"wrote {len(templates)} templates of dimension "
               f"{config.template_dim} to {out / GALLERY_FILE}")


@main.command("enroll")
@click.pass_context
def enroll_cmd(ctx):
    """Enroll the gallery: build the chain and tree, snapshot, archive."""
    out: Path = ctx.obj["out"]
    config: ExperimentConfig = ctx.obj["config"]
    gallery_path = out / GALLERY_FILE
    if not gallery_path.exists():
        raise click.ClickException(f"no gallery at {gallery_path}; run gen first")
    try:
        templates = load_gallery(gallery_path)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    ledger_path = out / LEDGER_FILE
    ledger_path.write_bytes(b"")
    system = enroll(templates, config.chain_spec, fanout=config.fanout,
                    seed=config.seed, ledger=Ledger(ledger_path))
    save_gallery(out / ARCHIVE_FILE, templates)
    _save_chain_params(out / CHAIN_FILE, _chain_params(system.chain))
    system.chain.snapshot.save(out / SNAPSHOT_FILE)
    _save_config(out, config)
    click.echo(f"enrolled {len(templates)} templates: "
               f"{len(system.tree.chiefs)} chiefs, "
               f"{len(system.chain.blocks)} chain stages")
    click.echo(f"tree root hash: {system.tree.hash.hex()}")
    click.echo(f"chain notary hash: {system.chain.notary_hash().hex()}")


@main.command("identify")
@click.option("--identity", help="Probe the archived template of this identity.")
@click.option("--probe-file", type=click.Path(exists=True, path_type=Path),
              help="Single-record gallery file to use as the probe.")
@click.option("--probe-noise", type=float, default=0.0, show_default=True,
              help="Gaussian noise added to the probe.")
@click.pass_context
def identify_cmd(ctx, identity, probe_file, probe_noise):
    """Run one query through the chain and the tree."""
    out: Path = ctx.obj["out"]
    config: ExperimentConfig = ctx.obj["config"]
    if not probe_noise >= 0:
        raise click.ClickException("--probe-noise must be >= 0")
    keys_rng = enrollment_keys_rng(config.seed)
    system = _load_system(out, config, keys_rng)
    if probe_file is not None:
        try:
            records = load_gallery(probe_file)
        except ValueError as exc:
            raise click.ClickException(str(exc))
        if not records:
            raise click.ClickException(f"{probe_file}: holds no record")
        probe = records[0].vector
    elif identity is not None:
        matches = [t for t in system.archive.templates() if t.identity == identity]
        if not matches:
            raise click.ClickException(f"identity {identity!r} not in the archive")
        probe = matches[0].vector
    else:
        raise click.ClickException("pass --identity or --probe-file")
    if probe_noise > 0:
        probe = probe + np.random.default_rng([config.seed, 99]).normal(
            scale=probe_noise, size=probe.shape[0]
        )
    try:
        entry = run_query_cycle(system.chain, system.ledger, probe)
    except IntegrityFailure as exc:
        raise click.ClickException(f"chain integrity check failed: {exc}; run audit")
    except ShapeMismatch as exc:
        raise click.ClickException(f"probe does not fit the extraction chain: {exc}")
    setup_tree_keys(system.tree, keys_rng)
    try:
        result = identify(system.tree, handoff_envelope(entry), config.metric)
    except DimensionMismatch as exc:
        raise click.ClickException(f"feature does not fit the gallery: {exc}")
    click.echo(f"identity: {result.identity}")
    click.echo(f"score: {result.score:.17g} ({config.metric})")
    if result.scrutinized_chiefs:
        click.echo(f"scrutinized chiefs: {list(result.scrutinized_chiefs)}")
    system.ledger.close()


@main.command("tamper")
@click.option("--fraction", type=float, default=None,
              help="Fraction of templates to perturb with Gaussian noise.")
@click.option("--sigma", type=float, default=None,
              help="Template noise std (default: configured tamper sigma).")
@click.option("--block", "block_index", type=int, default=None,
              help="Chain stage index to perturb.")
@click.option("--epsilon", type=float, default=1e-6, show_default=True,
              help="Perturbation added to the chain stage parameter.")
@click.pass_context
def tamper_cmd(ctx, fraction, sigma, block_index, epsilon):
    """Inject tampering into the live template store and/or the chain."""
    out: Path = ctx.obj["out"]
    config: ExperimentConfig = ctx.obj["config"]
    if fraction is None and block_index is None:
        raise click.ClickException("pass --fraction and/or --block")
    system = _load_system(out, config, enrollment_keys_rng(config.seed))
    noise = sigma if sigma is not None else config.effective_noise_sigma()
    # Both tampers run in memory first, so bad input leaves every file as it was.
    try:
        if fraction is not None:
            chosen = inject_template_noise(system.flat_store, noise, config.seed, fraction)
        if block_index is not None:
            tamper_extractor_block(system.chain, block_index, epsilon)
    except (ValueError, IndexOutOfRange) as exc:
        raise click.ClickException(str(exc))
    if fraction is not None:
        save_gallery(out / GALLERY_FILE, system.flat_store)
        click.echo(f"perturbed {len(chosen)} templates (sigma={noise})")
    if block_index is not None:
        _save_chain_params(out / CHAIN_FILE, _chain_params(system.chain))
        click.echo(f"perturbed chain stage {block_index} by {epsilon}")
    system.ledger.close()


@main.command("audit")
@click.pass_context
def audit_cmd(ctx):
    """Check both integrity surfaces and that the ledger parses; exit
    nonzero on any finding."""
    out: Path = ctx.obj["out"]
    config: ExperimentConfig = ctx.obj["config"]
    ledger_path, ledger_error = out / LEDGER_FILE, None
    try:
        ledger = Ledger.load(ledger_path) if ledger_path.exists() else Ledger()
    except (ValueError, LedgerError) as exc:
        ledger, ledger_error = Ledger(), exc
    system = _load_system(out, config, enrollment_keys_rng(config.seed), strict=False,
                          ledger=ledger)
    findings = run_audit(system)
    for line in findings.lines:
        click.echo(line)
    if ledger_error is not None:
        click.echo(f"ledger: does not parse: {ledger_error}")
    if not findings.clean or ledger_error is not None:
        sys.exit(1)


@main.command("restore")
@click.pass_context
def restore_cmd(ctx):
    """Repair whatever the audit locates, from snapshot and archive."""
    out: Path = ctx.obj["out"]
    config: ExperimentConfig = ctx.obj["config"]
    system = _load_system(out, config, enrollment_keys_rng(config.seed), strict=False)
    findings = run_audit(system)
    if findings.chain_first_tampered is not None:
        if not findings.snapshot_consistent:
            raise click.ClickException(
                f"{SNAPSHOT_FILE} fails its self-check; refusing to restore the chain from it"
            )
        # The snapshot passed its self-check, so its stage list is the chain:
        # writing it back repairs a changed stage and an added or removed one.
        live = _chain_params(system.chain)
        snapshot_params = [params for _, _, params in system.chain.snapshot.blocks]
        for index in range(max(len(live), len(snapshot_params))):
            if live[index:index + 1] != snapshot_params[index:index + 1]:
                click.echo(f"restored chain stage {index}")
        _save_chain_params(out / CHAIN_FILE, snapshot_params)
    if findings.tree_locators:
        restore_leaves(system.tree, findings.tree_locators, system.archive)
        click.echo(f"restored {len(findings.tree_locators)} templates")
    if findings.store_mismatch:
        click.echo(f"restored the live store to {len(system.archive)} records")
    if findings.tree_locators or findings.store_mismatch:
        save_gallery(out / GALLERY_FILE, system.tree.templates())
    system.ledger.close()
    del system  # one rebuilt deployment in memory at a time
    system = _load_system(out, config, enrollment_keys_rng(config.seed))
    post = run_audit(system)
    system.ledger.close()
    click.echo("post-restore audit: " + ("clean" if post.clean else "STILL TAMPERED"))
    if not post.clean:
        sys.exit(1)


@main.command("experiment")
@click.pass_context
def experiment_cmd(ctx):
    """Run the full tamper-retention comparison and write the report."""
    out: Path = ctx.obj["out"]
    config: ExperimentConfig = ctx.obj["config"]
    report = run_experiment(config)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").write_text(report.to_text())
    (out / "summary.json").write_text(report.to_json())
    (out / "timings.txt").write_text(report.timing_text())
    _save_config(out, config)
    click.echo(report.to_text())
    click.echo(f"report written to {out / 'report.txt'}")


@main.command("report")
@click.pass_context
def report_cmd(ctx):
    """Print the most recent experiment report."""
    out: Path = ctx.obj["out"]
    path = out / "report.txt"
    if not path.exists():
        raise click.ClickException(f"no report at {path}; run experiment first")
    click.echo(path.read_text(), nl=False)


if __name__ == "__main__":
    main()
