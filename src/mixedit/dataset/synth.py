"""Batch synthesis of (input, target, prompt) triples plus WAV file I/O.

Synthesis is a pure function of (manifest record, source files): every
random draw is keyed off the record's own seed, so running with one
worker or eight produces bit-identical output trees.
"""

from __future__ import annotations

import json
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from ..dsp import Clip, DEFAULT_DURATION_S, DEFAULT_RATE, condition, resample
from ..errors import MixeditError
from ..mixer import MixturePair, apply_gains, assign_gains
from ..seeding import derive_seed
from .manifest import ManifestRecord, write_manifest


class BadWavFile(MixeditError):
    """A WAV file that cannot be read, or holds no valid clip."""


def read_wav(path) -> Clip:
    """Load a WAV file as float64 in [-1, 1]; multichannel is downmixed.

    Raises BadWavFile for a missing, non-WAV or corrupt file, and for one
    whose samples are not finite or whose rate is not positive.
    """
    try:
        rate, data = wavfile.read(path)
    except (OSError, ValueError, struct.error,
            # scipy's reader also raises these on some corrupt headers.
            UnboundLocalError, ZeroDivisionError, TypeError) as err:
        raise BadWavFile(f"cannot read {path}: {err}") from err
    data = np.asarray(data)
    if data.ndim == 2:
        data = data.mean(axis=1)
    if data.dtype == np.int16:
        samples = data / 32768.0
    elif data.dtype == np.int32:
        samples = data / 2147483648.0
    elif data.dtype == np.uint8:
        samples = (data.astype(np.float64) - 128.0) / 128.0
    else:
        samples = data.astype(np.float64)
    try:
        return Clip(samples, int(rate))
    except ValueError as err:
        raise BadWavFile(f"{path}: {err}") from err


def write_wav(path, clip: Clip, pcm16: bool = False):
    """IEEE float32 WAV by default; 16-bit PCM with ``pcm16``."""
    if pcm16:
        clipped = np.clip(clip.samples, -1.0, 1.0)
        wavfile.write(path, clip.rate, (clipped * 32767.0).astype(np.int16))
    else:
        wavfile.write(path, clip.rate, clip.samples.astype(np.float32))


@dataclass
class SynthesisSummary:
    total: int
    succeeded: int
    failures: list[tuple[int, str]] = field(default_factory=list)
    per_task: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "total": self.total,
            "succeeded": self.succeeded,
            "failures": [{"record": r, "error": e} for r, e in self.failures],
            "per_task": dict(sorted(self.per_task.items())),
        }


def _load_source(ref, seed: int, index: int) -> Clip:
    clip = read_wav(ref.path)
    if clip.rate != DEFAULT_RATE:
        clip = resample(clip, DEFAULT_RATE)
    return condition(clip, DEFAULT_DURATION_S,
                     seed=derive_seed(seed, "condition", index))


def synthesize_record(record: ManifestRecord, out_dir: str,
                      pcm16: bool = False) -> ManifestRecord:
    """Materialize one record: load, condition, scale, mix, write."""
    out = Path(out_dir)
    clips = [_load_source(ref, record.seed, i)
             for i, ref in enumerate(record.sources)]
    pairs = list(zip(clips, record.signatures()))
    assignment = assign_gains(pairs, derive_seed(record.seed, "gains"))
    scaled = apply_gains(pairs, assignment)
    pair = MixturePair.build(scaled, record.action_vector())

    stem = f"{record.record_id:06d}"
    input_name = f"{stem}_input.wav"
    target_name = f"{stem}_target.wav"
    write_wav(out / input_name, pair.input, pcm16)
    write_wav(out / target_name, pair.target, pcm16)
    (out / f"{stem}_prompt.txt").write_text(record.prompt + "\n", "utf-8")

    for ref, snr_db, gain in zip(record.sources, assignment.snrs_db,
                                 assignment.gains):
        ref.snr_db = snr_db
        ref.gain = gain
    record.scale = pair.scale
    record.outputs = {"input": input_name, "target": target_name,
                      "prompt": f"{stem}_prompt.txt"}
    (out / f"{stem}_record.json").write_text(record.to_json() + "\n", "utf-8")
    return record


def _synthesize_worker(args):
    record, out_dir, pcm16 = args
    try:
        return synthesize_record(record, out_dir, pcm16), None
    except MixeditError as err:
        return record, f"{type(err).__name__}: {err}"


def synthesize(records, out_dir, workers: int = 1,
               pcm16: bool = False) -> SynthesisSummary:
    """Synthesize a manifest into an output tree.

    Writes per-record WAVs, prompt text, and record JSON, then the full
    manifest (with gains filled) and a summary JSON. Per-record failures
    are collected in the summary instead of aborting the batch.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    jobs = [(record, str(out), pcm16) for record in records]
    if workers <= 1:
        results = [_synthesize_worker(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_synthesize_worker, jobs))

    summary = SynthesisSummary(total=len(records), succeeded=0)
    done = []
    for record, error in results:
        if error is None:
            summary.succeeded += 1
            summary.per_task[record.task] = summary.per_task.get(record.task, 0) + 1
            done.append(record)
        else:
            summary.failures.append((record.record_id, error))
    write_manifest(done, out / "manifest.jsonl")
    (out / "summary.json").write_text(
        json.dumps(summary.to_json(), indent=2, sort_keys=True) + "\n", "utf-8"
    )
    return summary
