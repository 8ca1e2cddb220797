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

* ``enroll``, ``tamper``, ``audit`` and ``restore`` build the tree's hash
  structure (template matrix and enrollment hashes) under the root's key
  pair, and the chain with its keys;
* ``identify`` rebuilds the same, then runs the tree's key set-up before
  it queries: X25519-only node keys, kept only until the ends of each link
  agree its key, the channels, and each link's decision secret, dealt as
  rows of the (chiefs, 2n + 1, 64) shard tensor (row k is field point
  k + 1: rows 0..n-1 the leaves', row n the chief's, the rest the root's);
* ``experiment`` builds the whole deployment.

Only ``identify`` appends to ``ledger.bin``; ``enroll`` replaces it with
an empty one, last, so every enrolled directory has one. A ledger that is
missing or does not parse is an ``audit`` finding (``ledger: missing`` or
``ledger: does not parse``, exit 1) and a one-line error for every other
command that loads the state; ``identify`` then creates no new ledger.

The chain's keys come from their own seed stream, so every command
rebuilds the same chain keys. State directories enrolled while the chain
keys still continued the tree's stream keep working, because each
command rebuilds both ends of every chain link from the seed; only the
signatures already in their ``ledger.bin`` were made with the earlier
keys, and no command verifies those signatures.

The seed in ``config.json`` regenerates every private key and the
matching tree's decision secrets, so anyone who can read the state
directory can forge consensus: keep the directory secret.

A configuration that does not parse or violates a constraint is a
one-line error for every command.

One writer at a time: every command holds an advisory ``flock`` on the
state directory itself until it ends, shared for ``audit`` and ``report``
and exclusive for the rest, and a command that finds it locked exits 1
at once. The lock adds no file; it is POSIX-only and binds only the
processes that take it.
"""

from __future__ import annotations

import fcntl
import json
import os
import sys
from pathlib import Path
from typing import Optional

import click
import numpy as np

from . import crypto
from .encoding import ByteReader, lp, write_atomic
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
    enrollment_keys_rng,
    enrollment_stages,
    generate_synthetic_gallery,
    inject_template_noise,
    load_gallery,
    run_experiment,
    save_gallery,
    tamper_extractor_block,
)
from .metrics import DimensionMismatch, NonFiniteFeature, ZeroVector
from .ledger import Ledger, LedgerError
from .matcher import (
    MatcherTree,
    Template,
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


def _config(ctx: click.Context, **overrides) -> ExperimentConfig:
    """The one reader of a command's configuration: the ``--config`` file,
    else the state directory's, else the defaults, under the global options
    and then the command's ``overrides`` (None overrides nothing), validated."""
    path = ctx.obj["config_path"]
    try:
        data = json.loads(path.read_text()) if path.exists() else {}
    except ValueError as exc:
        raise click.ClickException(f"{path} does not parse: {exc}")
    if not isinstance(data, dict):
        raise click.ClickException(f"{path} does not hold a JSON object")
    data.update((k, v) for k, v in {**ctx.obj["overrides"], **overrides}.items() if v is not None)
    return ExperimentConfig.from_dict(data)


def _save_config(out: Path, config: ExperimentConfig) -> None:
    out.mkdir(parents=True, exist_ok=True)
    write_atomic(out / CONFIG_FILE, (json.dumps(config.to_dict(), indent=2) + "\n").encode())


def _save_chain_params(path: Path, params: list[bytes]) -> None:
    """Write canonical stage-parameter blobs, in chain order."""
    write_atomic(path, b"".join(lp(blob) for blob in params))


def _chain_params(chain: ExtractorChain) -> list[bytes]:
    return [block.params.canonical_bytes() for block in chain.blocks]


def _load_chain_params(path: Path) -> list[StageParams]:
    reader = ByteReader(path.read_bytes())
    stages = []
    while not reader.exhausted:
        stages.append(StageParams.from_canonical(reader.read_lp()))
    return stages


def _build_system(
    templates: list[Template], stages: list[StageParams], config: ExperimentConfig,
    keys_rng: np.random.Generator,
) -> tuple[MatcherTree, ExtractorChain]:
    """The tree's hash structure over ``templates`` under the root's key
    pair, the first draw of ``keys_rng``, then the chain over ``stages`` with
    its keys; a command that queries continues ``keys_rng``."""
    tree = build_hash_tree(templates, crypto.generate_keypair(keys_rng), config.fanout)
    return tree, ExtractorChain.build(stages, tree.public_key, rng=chain_keys_rng(config.seed))


class _EmptyArchive(click.ClickException):
    """``archive.txt`` parses but holds no record, so no tree can be built:
    an ``archive:`` finding for ``audit``, a one-line error elsewhere."""


def _load_system(
    out: Path, config: ExperimentConfig, keys_rng: np.random.Generator,
    strict: bool = True, ledger: Optional[Ledger] = None,
) -> EnrolledSystem:
    """Rebuild the enrolled deployment's checkable state from the state
    directory, the archive and the stored stages, with :func:`_build_system`.
    The system's ledger is ``ledger``, or else ``ledger.bin`` replayed; it
    opens the file only if the command appends.

    A missing state file (``ledger.bin`` too, unless ``ledger`` is given),
    an archive that does not parse or holds no record (:class:`_EmptyArchive`)
    and a ledger that does not parse are one-line errors. So is a snapshot
    or a live store that does not parse, or a live store whose
    records do not fit the tree's rows, unless ``strict`` is False (audit
    and restore): the chain then has no snapshot, the system no live
    store, or the tree keeps the archive's templates, and the audit
    reports a finding."""
    required = (GALLERY_FILE, ARCHIVE_FILE, CHAIN_FILE, SNAPSHOT_FILE)
    if ledger is None:
        required += (LEDGER_FILE,)
    for name in required:
        if not (out / name).exists():
            raise click.ClickException(f"missing {name} in {out}; run enroll first")
    try:
        archive_templates = load_gallery(out / ARCHIVE_FILE)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    if not archive_templates:
        raise _EmptyArchive(f"{ARCHIVE_FILE} holds no record; no tree can be built from it")
    try:
        live_templates = load_gallery(out / GALLERY_FILE)
    except ValueError as exc:
        if strict:
            raise click.ClickException(f"{exc}; run audit")
        live_templates = None
    try:
        tree, chain = _build_system(
            archive_templates, _load_chain_params(out / CHAIN_FILE), config, keys_rng)
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
    if ledger is None:
        try:
            ledger = Ledger.load(out / LEDGER_FILE)
        except (ValueError, LedgerError) as exc:
            raise click.ClickException(f"{LEDGER_FILE} does not parse: {exc}; run audit")
    return EnrolledSystem(chain=chain, ledger=ledger, tree=tree,
                          archive=archive_templates, flat_store=live_templates)


def _lock_state(ctx: click.Context) -> None:
    """Hold an advisory ``flock`` on the state directory until the command
    ends, shared for ``audit`` and ``report`` and exclusive for the rest; a
    directory not yet made has nothing to guard, and a lock held is kept.
    A command that cannot get the lock at once is a one-line error."""
    root = ctx.find_root()
    out: Path = root.obj["out"]
    if "lock" in root.obj or not out.is_dir():
        return
    root.obj["lock"] = fd = os.open(out, os.O_RDONLY)
    root.call_on_close(lambda: os.close(fd))
    shared = root.invoked_subcommand in ("audit", "report")
    try:
        fcntl.flock(fd, (fcntl.LOCK_SH if shared else fcntl.LOCK_EX) | fcntl.LOCK_NB)
    except BlockingIOError:
        raise click.ClickException(f"{out} is in use by another biochain command; try again later")


class _Main(click.Group):
    """The command group: a configuration error is a one-line error."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except crypto.InvalidConfig as exc:
            raise click.ClickException(str(exc))


@click.group(cls=_Main)
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
    ctx.obj = {"out": out, "config_path": config_path or out / CONFIG_FILE,
               "overrides": {"seed": seed, "metric": metric}}
    _lock_state(ctx)


@main.command()
@click.option("--gallery-size", type=int, default=None)
@click.option("--template-dim", type=int, default=None)
@click.pass_context
def gen(ctx, gallery_size, template_dim):
    """Generate a synthetic gallery and write it with the configuration."""
    out: Path = ctx.obj["out"]
    config = _config(ctx, gallery_size=gallery_size, template_dim=template_dim)
    templates = generate_synthetic_gallery(config)
    out.mkdir(parents=True, exist_ok=True)
    _lock_state(ctx)
    save_gallery(out / GALLERY_FILE, templates)
    _save_config(out, config)
    click.echo(f"wrote {len(templates)} templates of dimension "
               f"{config.template_dim} to {out / GALLERY_FILE}")


@main.command("enroll")
@click.pass_context
def enroll_cmd(ctx):
    """Enroll the gallery: build the chain and tree, snapshot, archive."""
    out: Path = ctx.obj["out"]
    config = _config(ctx)
    gallery_path = out / GALLERY_FILE
    if not gallery_path.exists():
        raise click.ClickException(f"no gallery at {gallery_path}; run gen first")
    try:
        templates = load_gallery(gallery_path)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    stages = enrollment_stages(templates, config.chain_spec, config.seed)
    tree, chain = _build_system(templates, stages, config, enrollment_keys_rng(config.seed))
    chain.take_snapshot()
    save_gallery(out / ARCHIVE_FILE, templates)
    _save_chain_params(out / CHAIN_FILE, _chain_params(chain))
    chain.snapshot.save(out / SNAPSHOT_FILE)
    _save_config(out, config)
    # Last, so a failure before it leaves the earlier transcript in place.
    write_atomic(out / LEDGER_FILE, b"")
    click.echo(f"enrolled {len(templates)} templates: "
               f"{len(tree.chief_rows)} chiefs, "
               f"{len(chain.blocks)} chain stages")
    click.echo(f"tree root hash: {tree.hash.hex()}")
    click.echo(f"chain notary hash: {chain.snapshot.notary_hash.hex()}")


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
    config = _config(ctx)
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
        matches = [t for t in system.archive if t.identity == identity]
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
    except (DimensionMismatch, ZeroVector, NonFiniteFeature) as exc:
        raise click.ClickException(f"feature cannot be scored against the gallery: {exc}")
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
    config = _config(ctx)
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


@main.command("audit")
@click.pass_context
def audit_cmd(ctx):
    """Check both integrity surfaces and that the ledger is there and
    parses; exit nonzero on any finding."""
    out: Path = ctx.obj["out"]
    config = _config(ctx)
    ledger_error = None
    try:
        ledger = Ledger.load(out / LEDGER_FILE)
    except FileNotFoundError:
        ledger, ledger_error = Ledger(), "missing"
    except (ValueError, LedgerError) as exc:
        ledger, ledger_error = Ledger(), f"does not parse: {exc}"
    try:
        system = _load_system(out, config, enrollment_keys_rng(config.seed), strict=False,
                              ledger=ledger)
    except _EmptyArchive as exc:
        click.echo(f"archive: {exc.message}")
        sys.exit(1)
    findings = run_audit(system)
    for line in findings.lines:
        click.echo(line)
    if ledger_error is not None:
        click.echo(f"ledger: {ledger_error}")
    if not findings.clean or ledger_error is not None:
        sys.exit(1)


@main.command("restore")
@click.pass_context
def restore_cmd(ctx):
    """Repair whatever the audit locates, from snapshot and archive."""
    out: Path = ctx.obj["out"]
    config = _config(ctx)
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
    del system  # one rebuilt deployment in memory at a time
    system = _load_system(out, config, enrollment_keys_rng(config.seed))
    post = run_audit(system)
    click.echo("post-restore audit: " + ("clean" if post.clean else "STILL TAMPERED"))
    if not post.clean:
        sys.exit(1)


@main.command("experiment")
@click.pass_context
def experiment_cmd(ctx):
    """Run the full tamper-retention comparison and write the report."""
    out: Path = ctx.obj["out"]
    config = _config(ctx)
    report = run_experiment(config)
    out.mkdir(parents=True, exist_ok=True)
    _lock_state(ctx)
    write_atomic(out / "report.txt", report.to_text().encode())
    write_atomic(out / "summary.json", report.to_json().encode())
    write_atomic(out / "timings.txt", report.timing_text().encode())
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
