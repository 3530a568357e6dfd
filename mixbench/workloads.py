"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed during set-up,
then runs closed-loop batches from one process (``workers=1``): the next
batch starts only when the previous one is done. ``work`` holds the timed
program calls and returns their outputs; ``check`` verifies them outside
the timed region and returns the number of units (records or training
examples) that failed. Every library call goes through a module attribute
so that the tracer's wrappers see it.

All records use composition 2,2 (two speech and two audio sources) and are
5 s at 16 kHz. The FiLM workloads use the default ``MaskNetConfig``
(C=64, K=16, R=4, D=32).
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

from mixedit import dataset as ds
from mixedit import editor, metrics, prompt
from mixedit.taskspace import Composition

NAMES = ("generate_native", "generate_resample", "edit_eval", "film_train")
COMPOSITION = Composition(2, 2)
LEARNING_RATE = 1e-3

# Per-workload input sizes; "tiny" is the smoke test's size.
SIZES = {
    "full": {"generate_native": 48, "generate_resample": 4,
             "edit_records": 24, "edit_batch": 4, "train_examples": 2},
    "tiny": {"generate_native": 2, "generate_resample": 1,
             "edit_records": 2, "edit_batch": 1, "train_examples": 1},
}


def _log(message):
    print(message, file=sys.stderr)


def tree_digest(tree: Path) -> str:
    """SHA-256 over every file name and its bytes, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(tree.iterdir()):
        h.update(path.name.encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _catalog_16k(root: Path, seed: int) -> Path:
    ds.build_demo_catalog(root, seed=seed)
    return root


def _catalog_resample(root: Path, seed: int) -> Path:
    """Speech at 48 kHz and audio at 44.1 kHz, the usual rates for speech
    and sound-event corpora, merged into one metadata file."""
    rows = []
    for rate, sub, kind in ((48000, "speech48k", "speech"),
                            (44100, "audio44k", "audio")):
        meta = ds.build_demo_catalog(root / sub, seed=seed, rate=rate)
        rows += [dict(row, path=f"{sub}/{row['path']}")
                 for row in json.loads(meta.read_text("utf-8"))
                 if row["type"] == kind]
    (root / "metadata.json").write_text(json.dumps(rows, indent=2), "utf-8")
    return root


class Workload:
    """Counters shared by every workload; subclasses fill in the rest."""

    tracer = None  # set by the harness for the traced window
    gauge_kernel = ""  # the gauge.KERNELS entry that resembles the hot path

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.roundtrip = [0, 0]  # prompts [reproduced, checked]

    def set_up(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.roundtrip = [0, 0]
        self._set_up()

    def start_window(self):
        """Reset what a measured window accumulates."""

    def before_batch(self):
        """Untimed preparation of the next batch."""

    def ready(self) -> bool:
        """True once the window holds enough batches to report on."""
        return True

    def _roundtrip_ok(self, record, labels) -> bool:
        """expand(parse(prompt)) must give back the record's actions."""
        self.roundtrip[1] += 1
        try:
            simplified = prompt.parse(record.prompt, labels)
            ok = prompt.expand(simplified, record.signatures()) \
                == record.action_vector()
        except Exception as err:  # a prompt that fails to parse is a failure
            _log(f"record {record.record_id}: {type(err).__name__}: {err}")
            ok = False
        self.roundtrip[0] += ok
        return ok

    def layer_metrics(self, batch_seconds) -> dict:
        """Per-layer values the workload itself counts, over the window
        whose batch times are given."""
        return {}

    def _record_span(self, record_id):
        """Stamp the spans of one record with its id when tracing."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span("record", record=record_id)


class Generate(Workload):
    """ingest -> partition -> generate_manifest -> synthesize, one pass
    per batch, always the same records into the same output directory."""

    def __init__(self, workdir, seed, size, resample: bool):
        super().__init__(workdir, seed)
        self.build = _catalog_resample if resample else _catalog_16k
        self.gauge_kernel = "resample" if resample else "plan"
        self.batch = size["generate_resample" if resample else "generate_native"]
        self.bytes_per_record = 0.0
        self.synth_failed = 0

    def _set_up(self):
        self.catalog_dir = self.build(self.workdir / "catalog", self.seed)
        self.tree = self.workdir / "tree"
        self.digest = None  # the first pass's tree is the reference

    def start_window(self):
        self.roundtrip = [0, 0]
        self.synth_failed = 0

    def before_batch(self):
        """Each pass writes fresh files, as ``mixedit generate`` into a new
        directory does. Rewriting the files in place instead truncates
        them, and ext4 then starts writeback of the new data on close, so
        the timed pass would wait on the disk. Removed within seconds, the
        fresh files are normally never written out. The directory itself
        is kept."""
        if self.tree.is_dir():
            for path in self.tree.iterdir():
                path.unlink()

    def work(self):
        catalog = ds.ingest(self.catalog_dir)
        splits = ds.partition(catalog, seed=self.seed)
        records = ds.generate_manifest(catalog, splits, count=self.batch,
                                       comp=COMPOSITION, seed=self.seed)
        summary = ds.synthesize(records, self.tree, workers=1)
        return catalog, records, summary

    def check(self, out) -> int:
        catalog, records, summary = out
        failed = {rid for rid, _ in summary.failures}
        self.synth_failed += len(summary.failures)
        for rid, error in summary.failures:
            _log(f"record {rid}: {error}")
        missing = self.batch - len(records)
        digest = tree_digest(self.tree)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            _log("tree digest differs from the first pass")
            return self.batch
        for record in records:
            if not self._roundtrip_ok(record, catalog.labels):
                failed.add(record.record_id)
        self.bytes_per_record = sum(
            p.stat().st_size for p in self.tree.iterdir()) / self.batch
        return len(failed) + missing

    def layer_metrics(self, batch_seconds):
        return {"synth.bytes_written_per_record": self.bytes_per_record,
                "synth.failed": self.synth_failed}


def _finite_and_aligned(out, x) -> bool:
    return len(out) == len(x) and bool(np.all(np.isfinite(out.samples)))


def _median(values):
    return float(np.median(values)) if values else 0.0


class EditEval(Workload):
    """Per record: parse and expand the prompt, then the IRM, PSM and FiLM
    editors, each scored with SNRi and SI-SDR against the target WAV."""

    EDITORS = ("irm", "psm", "film")
    gauge_kernel = "edit"

    def __init__(self, workdir, seed, size):
        super().__init__(workdir, seed)
        self.batch = size["edit_batch"]
        self.n_records = size["edit_records"]

    def _set_up(self):
        catalog_dir = _catalog_16k(self.workdir / "catalog", self.seed)
        self.catalog = ds.ingest(catalog_dir)
        splits = ds.partition(self.catalog, seed=self.seed)
        records = ds.generate_manifest(self.catalog, splits,
                                       count=self.n_records, comp=COMPOSITION,
                                       seed=self.seed)
        self.tree = self.workdir / "tree"
        ds.synthesize(records, self.tree, workers=1)
        self.records = ds.load_manifest(self.tree / "manifest.jsonl")
        if len(self.records) != self.n_records:
            raise RuntimeError("set-up tree is missing records")
        net = editor.FilmMaskNet.init(editor.MaskNetConfig(), seed=self.seed)
        editor.save_net(self.tree / "net.mxn", net)
        self.net = editor.load_net(self.tree / "net.mxn")
        self.next = 0

    def start_window(self):
        self.window_start = self.next
        self.roundtrip = [0, 0]
        self.seconds = dict.fromkeys(self.EDITORS, 0.0)
        self.edited = 0
        self.snri = {"irm": [], "psm": []}
        self.saturated = [0, 0]  # mask bins [clamped, total]

    def ready(self):
        """A window covers every tree record at least once, so that the
        SNRi medians are over the same records on every run."""
        return self.next - self.window_start >= self.n_records

    def _score(self, x, y, est):
        return metrics.snri(x, est, y), metrics.si_sdr(est, y)

    def _edit_one(self, record):
        x = ds.read_wav(self.tree / record.outputs["input"])
        y = ds.read_wav(self.tree / record.outputs["target"])
        simplified = prompt.parse(record.prompt, self.catalog.labels)
        actions = prompt.expand(simplified, record.signatures())
        out = {"record": record, "x": x, "actions": actions}
        t0 = perf_counter()
        for kind in (editor.MaskKind.IRM, editor.MaskKind.PSM):
            mask = editor.ideal_mask(x, y, kind)
            est = editor.mask_edit(x, mask)
            out[kind.value] = (est, mask, self._score(x, y, est))
            t1 = perf_counter()
            self.seconds[kind.value] += t1 - t0
            t0 = t1
        z = editor.embed_instruction(simplified,
                                     dim=self.net.config.embed_dim)
        est, mask = self.net.edit(x, z)
        out["film"] = (est, mask, self._score(x, y, est))
        self.seconds["film"] += perf_counter() - t0
        return out

    def work(self):
        outs = []
        for _ in range(self.batch):
            record = self.records[self.next % len(self.records)]
            self.next += 1
            with self._record_span(record.record_id):
                outs.append(self._edit_one(record))
        return outs

    def check(self, outs) -> int:
        failed = 0
        for out in outs:
            record, x = out["record"], out["x"]
            ok = out["actions"] == record.action_vector()
            self.roundtrip[1] += 1
            self.roundtrip[0] += ok
            for name in self.EDITORS:
                est, mask, (snri, _) = out[name]
                ok = ok and _finite_and_aligned(est, x)
                if name != "film":
                    values = mask.values
                    self.saturated[0] += int(np.count_nonzero(
                        (values == 0.0) | (values == mask.m_max)))
                    self.saturated[1] += values.size
                    if self.edited < self.n_records:  # first pass over the tree
                        self.snri[name].append(snri.value)
            self.edited += 1
            failed += not ok
        return failed

    def layer_metrics(self, batch_seconds):
        rates = {f"editor.{name}_records_per_s":
                 self.edited / s if s > 0 else 0.0
                 for name, s in self.seconds.items()}
        return {
            **rates,
            "editor.irm_snri_db_p50": _median(self.snri["irm"]),
            "editor.psm_snri_db_p50": _median(self.snri["psm"]),
            "masking.saturated_ratio":
                self.saturated[0] / self.saturated[1] if self.saturated[1] else 0.0,
        }


class FilmTrain(Workload):
    """One ``train_toy`` step per batch on a fixed set of tree records,
    chaining the trained net from step to step."""

    gauge_kernel = "train"

    def __init__(self, workdir, seed, size):
        super().__init__(workdir, seed)
        self.batch = size["train_examples"]

    def _set_up(self):
        catalog_dir = _catalog_16k(self.workdir / "catalog", self.seed)
        catalog = ds.ingest(catalog_dir)
        splits = ds.partition(catalog, seed=self.seed)
        records = ds.generate_manifest(catalog, splits, count=self.batch,
                                       comp=COMPOSITION, seed=self.seed)
        tree = self.workdir / "tree"
        ds.synthesize(records, tree, workers=1)
        config = editor.MaskNetConfig()
        self.examples = []
        for record in ds.load_manifest(tree / "manifest.jsonl"):
            if not self._roundtrip_ok(record, catalog.labels):
                raise RuntimeError(f"record {record.record_id} does not "
                                   "round-trip its prompt")
            x = ds.read_wav(tree / record.outputs["input"])
            y = ds.read_wav(tree / record.outputs["target"])
            z = editor.embed_instruction(
                prompt.parse(record.prompt, catalog.labels),
                dim=config.embed_dim)
            self.examples.append(editor.TrainExample(x.samples, z, y.samples))
        if len(self.examples) != self.batch:
            raise RuntimeError("set-up tree is missing records")
        self.net = editor.FilmMaskNet.init(config, seed=self.seed)

    def work(self):
        return editor.train_toy(self.net, self.examples, steps=1,
                                lr=LEARNING_RATE)

    def check(self, result) -> int:
        ok = all(math.isfinite(loss) for loss in result.losses) and all(
            np.all(np.isfinite(p)) for p in result.net.params.values())
        if ok:
            self.net = result.net
        return 0 if ok else self.batch

    def layer_metrics(self, batch_seconds):
        return {"train.step_s": _median(batch_seconds)}


def make(name: str, workdir: Path, seed: int, size_name: str) -> Workload:
    size = SIZES[size_name]
    if name == "generate_native":
        return Generate(workdir, seed, size, resample=False)
    if name == "generate_resample":
        return Generate(workdir, seed, size, resample=True)
    if name == "edit_eval":
        return EditEval(workdir, seed, size)
    if name == "film_train":
        return FilmTrain(workdir, seed, size)
    raise ValueError(f"unknown workload {name!r}")
