"""Batch command-line surface: tasks, generate, edit, eval, train-toy.

Exit codes: 0 success, 1 runtime failure, 2 usage or prompt-parse error.
Commands raise; only ``main`` turns an exception into an exit code.
Every subcommand is byte-deterministic for fixed inputs: demo-catalog,
generate, edit and train-toy take --seed, while tasks and eval draw
nothing at random and take none. On tasks and eval, --json switches the
human-readable output to machine-readable JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import sys
import typing
from pathlib import Path

import numpy as np

from . import dataset as ds
from .dataset.manifest import simplified_from_json
from .core import Action, parse_action_vector, validate_instruction
from .editor import (
    FilmMaskNet,
    MaskKind,
    MaskNetConfig,
    TrainExample,
    embed_instruction,
    export_mask,
    ideal_mask,
    load_net,
    mask_edit,
    save_net,
    train_toy,
)
from .editor.film import _CONFIG_HINTS
from .errors import MixeditError, read_json_config
from .metrics import snr, snri
from .mixer import LengthMismatch, mix, target_mixture
from .prompt import ParseError, Prompt, Provenance, expand, parse, simplify
from .taskspace import Composition, Task, count_table, defined_tasks, enumerate_edits


def _parse_composition(text: str) -> Composition:
    try:
        n_speech, n_audio = (int(p) for p in text.split(","))
        return Composition(n_speech, n_audio)
    except (ValueError, TypeError):
        raise argparse.ArgumentTypeError(
            f"composition must look like '2,2', got {text!r}"
        )


def _int_from(least: int):
    """An argparse type: an integer of at least ``least``."""
    def integer(text: str) -> int:  # "invalid integer value" if not one
        if (value := int(text)) < least:
            raise argparse.ArgumentTypeError(
                f"must be at least {least}, got {value}")
        return value
    return integer


def _parse_actions(text: str):
    try:
        return parse_action_vector(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err))


class BadConfigFile(MixeditError):
    pass


class UsageError(MixeditError):
    """Options that do not fit together; ``main`` exits 2."""


def _echo_config(args, keys) -> dict:
    return {k: getattr(args, k) for k in keys if hasattr(args, k)}


# ---------------- tasks ----------------

def cmd_tasks(args) -> int:
    comp = args.composition
    table = count_table(comp)
    total = sum(table.values())
    edits = {
        t: ["".join(a.symbol for a in v) for v in enumerate_edits(t, comp)]
        for t in defined_tasks(comp)
    } if args.enumerate else {}
    if args.json:
        doc = {
            "config": {"composition": f"{comp.n_speech},{comp.n_audio}"},
            "counts": {t.value: n for t, n in table.items()},
            "total": total,
        }
        if args.enumerate:
            doc["edits"] = {t.value: vecs for t, vecs in edits.items()}
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(f"# composition: {comp.n_speech} speech + {comp.n_audio} audio")
    print(f"{'task':8s} {'count':>6s}")
    for task in Task:
        count = table[task]
        shown = str(count) if count else "n/a"
        print(f"{task.symbol:8s} {shown:>6s}")
    print(f"{'total':8s} {total:>6d}")
    for task, vecs in edits.items():
        print(f"{task.symbol}: {' '.join(vecs)}")
    return 0


# ---------------- demo catalog ----------------

def cmd_demo_catalog(args) -> int:
    meta = ds.build_demo_catalog(args.out, seed=args.seed)
    print(f"demo catalog written: {meta}")
    return 0


# ---------------- generate ----------------

def cmd_generate(args) -> int:
    catalog = ds.ingest(args.catalog, metadata=args.metadata)
    splits = ds.partition(catalog, seed=args.seed)
    records = ds.generate_manifest(
        catalog, splits, count=args.count, comp=args.composition,
        seed=args.seed, split=args.split,
    )
    if args.rephrase:
        config = ds.RephraseConfig.from_file(args.rephrase)
        fallbacks = _rephrase_records(records, config)
        if fallbacks:
            print(f"rephrase unavailable for {fallbacks} records; "
                  "template prompts kept", file=sys.stderr)
    summary = ds.synthesize(records, args.out, workers=args.workers,
                            pcm16=args.pcm16)
    doc = summary.to_json()
    doc["config"] = _echo_config(
        args, ["catalog", "out", "count", "seed", "workers", "split"])
    doc["config"]["composition"] = (
        f"{args.composition.n_speech},{args.composition.n_audio}")
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0 if summary.ok else 1


def _rephrase_records(records, config) -> int:
    """Swap template prompts for service rephrasings, bounded concurrency.

    Returns the number of records that fell back to their template prompt.
    """
    from concurrent.futures import ThreadPoolExecutor

    eligible = [r for r in records if r.prompt_provenance == "template"]

    def one(record):
        try:
            variants = ds.rephrase(
                Prompt(record.prompt, Provenance.TEMPLATE), config)
            return record, variants[0].text
        except (ds.Disabled, ds.NetworkError, ds.MalformedResponse):
            return record, None

    with ThreadPoolExecutor(max_workers=config.max_concurrency) as pool:
        results = list(pool.map(one, eligible))
    fallbacks = 0
    for record, text in results:
        if text is None:
            fallbacks += 1
        else:
            record.prompt = text
            record.prompt_provenance = "external_rephrase"
    return fallbacks


# ---------------- edit ----------------

def _instruction(args, sources, catalog):
    """The edit's actions and its simplified instruction, each None when
    the options do not give it: --prompt gives actions only with
    --sources, and --actions gives an instruction only to --editor film,
    with --catalog and --sources. A bad prompt raises before any source
    is looked up, and an instruction film cannot take raises before the
    net is loaded. With --sources, an edit that removes every source
    leaves a silent target and nothing to score, and is refused whichever
    options gave it."""
    actions, simplified = args.actions, None
    if args.prompt is not None:
        if catalog is None:
            raise UsageError("--prompt needs --catalog for the label set")
        simplified = parse(args.prompt, catalog.labels)
    elif sources and len(actions) != len(sources):
        raise UsageError("one action per source required")
    from_actions = (args.editor == "film" and simplified is None
                    and catalog is not None and bool(sources))
    if from_actions or (simplified is not None and sources):
        by_path = {str(e.path): e.signature for e in catalog.entries}
        sigs = []
        for p in args.sources:
            sig = by_path.get(str(Path(p).resolve()))
            if sig is None:
                raise MixeditError(
                    f"source {p} not found in the catalog; signatures unknown")
            sigs.append(sig)
        if simplified is not None:
            actions = expand(simplified, sigs)
    if sources and all(a is Action.REMOVE for a in actions):
        raise UsageError("the edit removes every source: its target is "
                         "silence, with nothing to score")
    if from_actions:
        try:
            instruction = validate_instruction(list(zip(actions, sigs)))
        except (ValueError, MixeditError) as err:
            raise UsageError(f"--editor film cannot edit with these "
                             f"actions: {err}") from err
        simplified = simplify(instruction, seed=args.seed)
    return actions, simplified


def cmd_edit(args) -> int:
    mixture = ds.read_wav(args.mixture)
    sources = [ds.read_wav(p) for p in args.sources or ()]
    catalog = ds.ingest(args.catalog) if args.catalog else None
    actions, simplified = _instruction(args, sources, catalog)

    target = mask = None
    if sources:
        total = mix(sources)
        if (total.rate != mixture.rate or len(total) != len(mixture)
                or not np.allclose(total.samples, mixture.samples, atol=1e-6)):
            raise UsageError("sources do not sum to the mixture")
        target = target_mixture(sources, actions)
    if args.editor == "film":
        if not args.model:
            raise UsageError("--editor film needs --model")
        if simplified is None:
            raise UsageError("--editor film needs --prompt, or --actions "
                             "with --catalog and --sources")
        net = load_net(args.model)
        z = embed_instruction(simplified, dim=net.config.embed_dim)
        edited, mask = net.edit(mixture, z)
    elif target is None:
        raise UsageError(f"--editor {args.editor} needs --sources")
    elif args.editor == "oracle":
        edited = target
    else:
        mask = ideal_mask(mixture, target, MaskKind(args.editor))
        edited = mask_edit(mixture, mask)

    metrics = {"editor": args.editor, "output": str(args.out),
               "seed": args.seed}
    if target is not None:
        quality = snr(edited, target)
        improvement = snri(mixture, edited, target)
        metrics.update({
            "snr_db": quality.value,
            "snr_clamped": not quality.finite,
            "snri_db": improvement.value,
            "snri_clamped": not improvement.finite,
        })
    if args.dump_mask:
        if mask is None:
            print("note: the oracle editor has no mask to dump",
                  file=sys.stderr)
        else:
            metrics["mask"] = export_mask(mask, args.dump_mask)
    if args.metrics_out:
        Path(args.metrics_out).write_text(
            json.dumps(metrics, indent=2, sort_keys=True) + "\n", "utf-8")
    # Last, so that a failed side file leaves no edited WAV behind.
    ds.write_wav(args.out, edited, pcm16=args.pcm16)
    print(json.dumps(metrics, indent=2, sort_keys=True))
    return 0


# ---------------- eval ----------------

def _quartiles(values):
    """Linear-interpolation quartiles of a sequence (25th, 50th, 75th)."""
    ordered = sorted(values)
    n = len(ordered)
    out = []
    for q in (0.25, 0.5, 0.75):
        pos = q * (n - 1)
        lo = int(pos)
        hi = min(lo + 1, n - 1)
        frac = pos - lo
        out.append(ordered[lo] * (1 - frac) + ordered[hi] * frac)
    return out


def _aggregate(entries):
    values = [e["snri_db"] for e in entries]
    q25, q50, q75 = _quartiles(values)
    return {
        "count": len(values),
        "mean_snri_db": sum(values) / len(values),
        "quartiles_db": {"q25": q25, "q50": q50, "q75": q75},
        "improved_fraction": sum(v > 0 for v in values) / len(values),
        "clamped_count": sum(e["clamped"] for e in entries),
    }


class UnknownRecord(MixeditError):
    """An estimate whose name is no record of the tree's manifest."""


def _record_clips(tree: Path, record):
    """The input and target clips that a record's ``outputs`` names under
    ``tree``."""
    if record.outputs is None:
        raise ds.BadManifestLine(f"record {record.record_id} has no outputs: "
                                 "it was never synthesized")
    return (ds.read_wav(tree / record.outputs["input"]),
            ds.read_wav(tree / record.outputs["target"]))


def cmd_eval(args) -> int:
    est_dir, tree = Path(args.est), Path(args.tree)
    manifest = tree / "manifest.jsonl"
    records = {f"{r.record_id:06d}.wav": r for r in ds.load_manifest(manifest)}
    names = sorted(p.name for p in est_dir.glob("*.wav"))
    if not names:
        raise UsageError(f"no WAV files in {est_dir}")
    entries = []
    for name in names:
        record = records.get(name)
        if record is None:
            raise UnknownRecord(f"{est_dir / name} names no record of "
                                f"{manifest}")
        unprocessed, target = _record_clips(tree, record)
        path = est_dir / name
        est = ds.read_wav(path)
        if not est.rate == target.rate == unprocessed.rate:
            raise LengthMismatch(
                f"sample rates differ for {path}: est {est.rate}, "
                f"target {target.rate}, input {unprocessed.rate} Hz")
        if not len(est) == len(target) == len(unprocessed):
            raise LengthMismatch(
                f"lengths differ for {path}: est {len(est)}, "
                f"target {len(target)}, input {len(unprocessed)} samples")
        value = snri(unprocessed, est, target)
        entries.append({"task": record.task, "snri_db": value.value,
                        "clamped": not value.finite})
    by_task = {}
    for e in entries:
        by_task.setdefault(e["task"], []).append(e)
    report = {
        "overall": _aggregate(entries),
        "per_task": {task: _aggregate(group)
                     for task, group in sorted(by_task.items())},
        "config": _echo_config(args, ["est", "tree"]),
    }
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    for tag, agg in [("overall", report["overall"]),
                     *report["per_task"].items()]:
        q = agg["quartiles_db"]
        print(f"{tag:8s} n={agg['count']:<5d} mean SNRi "
              f"{agg['mean_snri_db']:8.2f} dB  q25/50/75 "
              f"{q['q25']:7.2f}/{q['q50']:7.2f}/{q['q75']:7.2f}  "
              f"improved {agg['improved_fraction']:6.1%}")
    print(json.dumps(report["overall"], sort_keys=True), file=sys.stderr)
    return 0


# ---------------- train-toy ----------------

# Toy sizes over the MaskNetConfig defaults, then the training run's keys.
_TOY_DEFAULTS = {
    "channels": 16, "kernel": 16, "blocks": 2, "embed_dim": 16,
    "steps": 200, "lr": 1e-3, "lr_decay": 1.0,
}


# A toy config's keys and their annotations: MaskNetConfig's fields, then
# train_toy's run settings.
_TOY_HINTS = _CONFIG_HINTS | {
    key: hint for key, hint in typing.get_type_hints(train_toy).items()
    if key in _TOY_DEFAULTS}


def _read_toy_config(path) -> tuple[dict, dict]:
    """The config file as written and the full settings it stands for;
    raises BadConfigFile for a key or value ``errors.check_types`` refuses
    against ``_TOY_HINTS``, no steps, or a negative lr_decay."""
    config = read_json_config(path, _TOY_HINTS, BadConfigFile)
    settings = {f.name: f.default for f in dataclasses.fields(MaskNetConfig)}
    settings.update(_TOY_DEFAULTS)
    settings.update(config)
    if settings["steps"] < 1:
        raise BadConfigFile(f"{path}: need steps >= 1")
    if settings["lr_decay"] < 0:
        raise BadConfigFile(f"{path}: need lr_decay >= 0")
    return config, settings


def _tree_examples(tree: Path, embed_dim: int) -> list[TrainExample]:
    """One example per record of a ``generate`` tree: the input and target
    clips ``eval`` reads, and the record's simplified instruction embedded
    as ``edit --editor film`` embeds a parsed prompt."""
    examples = []
    for record in ds.load_manifest(tree / "manifest.jsonl"):
        unprocessed, target = _record_clips(tree, record)
        z = embed_instruction(simplified_from_json(record.simplified),
                              dim=embed_dim)
        examples.append(TrainExample(unprocessed.samples, z, target.samples))
    return examples


def cmd_train_toy(args) -> int:
    config, settings = _read_toy_config(args.config)
    net_config = MaskNetConfig(**{
        f.name: settings[f.name] for f in dataclasses.fields(MaskNetConfig)})
    net = FilmMaskNet.init(net_config, seed=args.seed)
    examples = _tree_examples(Path(args.tree), net_config.embed_dim)
    out_dir = Path(args.out_dir)
    # The outermost directory this run makes, removed again if training or
    # any write fails, or the run is interrupted. It is made after the tree
    # is read, so that a bad tree leaves no directory, and before training,
    # so that an unwritable one fails before any step.
    made = next((d for d in reversed((out_dir, *out_dir.parents))
                 if not d.exists()), None)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        result = train_toy(
            net, examples,
            steps=settings["steps"],
            lr=settings["lr"],
            lr_decay=settings["lr_decay"],
        )
        save_net(out_dir / "net.mxn", result.net)
        curve = out_dir / "loss_curve.csv"
        with open(curve, "w", encoding="utf-8") as fh:
            fh.write("step,loss\n")
            for i, loss in enumerate(result.losses):
                fh.write(f"{i},{loss:.6f}\n")
        # The config as read, so that the run's copy can be passed back as
        # --config; the seed is an option, not a config key, so it has its
        # own file.
        (out_dir / "config.json").write_text(
            json.dumps(config, indent=2, sort_keys=True) + "\n")
        (out_dir / "seed.json").write_text(
            json.dumps({"seed": args.seed}) + "\n")
    except BaseException:
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
        raise
    print(json.dumps({
        "checkpoint": str(out_dir / "net.mxn"),
        "loss_curve": str(curve),
        "initial_loss": result.losses[0],
        "final_loss": result.losses[-1],
        "config": config,
        "seed": args.seed,
    }, indent=2, sort_keys=True))
    return 0


# ---------------- wiring ----------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedit",
        description="Sound mixture-to-mixture editing toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tasks", help="show the editing-task table")
    p.add_argument("--composition", type=_parse_composition, default="2,2",
                   help="speech,audio source counts (default 2,2)")
    p.add_argument("--enumerate", action="store_true",
                   help="also list every edit vector per task")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_tasks)

    p = sub.add_parser("demo-catalog", help="write the synthetic demo catalog")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_demo_catalog)

    p = sub.add_parser("generate", help="synthesize a prompted mixture dataset")
    p.add_argument("--catalog", required=True)
    p.add_argument("--metadata", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=_int_from(0), required=True)
    p.add_argument("--composition", type=_parse_composition, default="2,2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=_int_from(1), default=1)
    p.add_argument("--split", default="train",
                   choices=("train", "valid", "test"))
    p.add_argument("--pcm16", action="store_true")
    p.add_argument("--rephrase", default=None,
                   help="rephrase-service config JSON")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("edit", help="edit one mixture")
    p.add_argument("--mixture", required=True)
    p.add_argument("--sources", nargs="+", default=None)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--actions", type=_parse_actions,
                       help="action vector like '1,0,u,d'")
    group.add_argument("--prompt", help="natural-language instruction")
    p.add_argument("--catalog", default=None)
    p.add_argument("--editor", default="oracle",
                   choices=("oracle", "psm", "irm", "film"))
    p.add_argument("--model", default=None, help="mask-network checkpoint")
    p.add_argument("--out", default="edited.wav")
    p.add_argument("--metrics-out", default=None)
    p.add_argument("--dump-mask", default=None,
                   help="path prefix for mask CSV/PGM export")
    p.add_argument("--pcm16", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_edit)

    p = sub.add_parser("eval", help="aggregate SNRi over a generated tree")
    p.add_argument("--est", required=True,
                   help="estimates named {record_id:06d}.wav")
    p.add_argument("--tree", required=True, help="a generate --out directory")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("train-toy", help="train the toy mask network")
    p.add_argument("--config", required=True)
    p.add_argument("--tree", required=True,
                   help="a generate --out directory to train on")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--seed", type=_int_from(0), default=0)
    p.set_defaults(func=cmd_train_toy)

    return parser


def main(argv=None) -> int:
    """Run one command; the only place a failure becomes an exit code.
    Argparse's status is returned, not raised: 2 for argv it rejects, 0
    after --help."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:
        return stop.code
    try:
        return args.func(args)
    except ParseError as err:
        span = f" at {err.span}" if err.span else ""
        print(f"prompt error: {err}{span}", file=sys.stderr)
        return 2
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    # OSError: an unwritable output; MemoryError: an input too big to hold.
    except (MixeditError, OSError, MemoryError) as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
