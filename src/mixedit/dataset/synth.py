"""Batch synthesis of (input, target, prompt) triples plus WAV file I/O.

Synthesis is a pure function of (manifest record, source files): each
source plays at the record's planned ``snr_db``, and the one random draw,
each source's crop, is keyed off the record's own seed, so running with
one worker or eight produces bit-identical output trees.
"""

from __future__ import annotations

import json
import struct
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..dsp import (Clip, DEFAULT_DURATION_S, DEFAULT_RATE, _Fresh,
                   available_cpus, condition, resample)
from ..errors import MixeditError
from ..mixer import MixturePair, apply_gains, assign_gains
from ..seeding import derive_seed
from .manifest import ManifestRecord, write_manifest

_PCM, _FLOAT, _EXTENSIBLE = 1, 3, 0xFFFE
# WAVE_FORMAT_EXTENSIBLE sub-format GUID after its leading format tag.
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# (format tag, bits per sample) -> (dtype of a stored sample, offset, scale):
# a sample reads as (stored - offset) * scale. 24-bit samples are widened
# into the top three bytes of an int32 first.
_SAMPLE_FORMATS = {
    (_PCM, 8): ("u1", 128.0, 2.0 ** -7),
    (_PCM, 16): ("<i2", 0.0, 2.0 ** -15),
    (_PCM, 24): ("<i4", 0.0, 2.0 ** -31),
    (_PCM, 32): ("<i4", 0.0, 2.0 ** -31),
    (_FLOAT, 32): ("<f4", 0.0, 1.0),
    (_FLOAT, 64): ("<f8", 0.0, 1.0),
}


class BadWavFile(MixeditError):
    """A WAV file that cannot be read, or holds no valid clip."""


def _wav_format(body: memoryview) -> tuple[int, int, int, int]:
    """(format tag, channels, rate, bits per sample) of a 'fmt ' chunk."""
    if len(body) < 16:
        raise BadWavFile("short fmt chunk")
    tag, channels, rate, _, block_align, bits = struct.unpack_from(
        "<HHIIHH", body)
    if tag == _EXTENSIBLE:
        if len(body) < 40 or body[28:40] != _GUID_TAIL:
            raise BadWavFile("bad WAVE_FORMAT_EXTENSIBLE fmt chunk")
        tag = struct.unpack_from("<I", body, 24)[0]
    if (tag, bits) not in _SAMPLE_FORMATS:
        raise BadWavFile(f"unsupported format {tag:#x} at {bits} bits")
    if channels == 0 or block_align != channels * bits // 8:
        raise BadWavFile(f"{channels} channels in {block_align}-byte frames "
                         f"of {bits}-bit samples")
    return tag, channels, rate, bits


def _wav_data(blob: memoryview):
    """The fmt chunk's fields and the data chunk's body of a RIFF/WAVE
    file. Each chunk body is sliced from ``blob``, so one that claims more
    bytes than the file holds is cut at its end."""
    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise BadWavFile("not a RIFF/WAVE file")
    fmt, pos = None, 12
    while pos + 8 <= len(blob):
        chunk_id, size = struct.unpack_from("<4sI", blob, pos)
        body = blob[pos + 8:pos + 8 + size]
        if chunk_id == b"fmt ":
            fmt = _wav_format(body)
        elif chunk_id == b"data":
            if fmt is None:
                raise BadWavFile("data chunk before fmt chunk")
            return fmt, body
        pos += 8 + size + (size & 1)
    raise BadWavFile("no data chunk")


def read_wav(path) -> Clip:
    """Load a WAV file as float64 in [-1, 1]; multichannel is averaged.

    Reads RIFF/WAVE files of unsigned 8-bit, signed 16-, 24- or 32-bit
    PCM, or 32- or 64-bit IEEE float samples, in a plain or a
    WAVE_FORMAT_EXTENSIBLE fmt chunk, skipping unknown chunks. A data
    chunk that claims more bytes than the file holds is cut to its whole
    frames. Raises BadWavFile for a missing, non-WAV or corrupt file, for
    any other format (RF64, RIFX, compressed, 64-bit PCM), and for a clip
    whose samples are not finite or whose rate is not positive.
    """
    try:
        (tag, channels, rate, bits), body = _wav_data(
            memoryview(Path(path).read_bytes()))
    except (OSError, ValueError, BadWavFile) as err:
        # ValueError comes from a path with a NUL byte, not from the parse.
        raise BadWavFile(f"cannot read {path}: {err}") from err
    dtype, offset, scale = _SAMPLE_FORMATS[tag, bits]
    width = bits // 8
    count = len(body) // (channels * width) * channels
    data = np.frombuffer(body, np.uint8, count * width)
    if width == 3:
        wide = np.zeros((count, 4), np.uint8)
        wide[:, 1:] = data.reshape(count, 3)
        data = wide.reshape(-1)
    samples = data.view(dtype).astype(np.float64)
    if offset:
        samples -= offset
    if scale != 1.0:
        samples *= scale
    if channels > 1:
        samples = samples.reshape(-1, channels).mean(axis=1)
    try:
        return Clip(_Fresh(samples), rate)
    except ValueError as err:
        raise BadWavFile(f"{path}: {err}") from err


def write_wav(path, clip: Clip, pcm16: bool = False):
    """IEEE float32 WAV by default; 16-bit PCM with ``pcm16``.

    Byte for byte the layout of scipy.io.wavfile.write, so output trees
    keep their digests: a float file's fmt chunk ends in a zero cbSize
    and is followed by a fact chunk.
    """
    if pcm16:
        data = (np.clip(clip.samples, -1.0, 1.0) * 32767.0).astype("<i2")
        fmt_tail, fact = b"", b""
    else:
        data = clip.samples.astype("<f4")
        fmt_tail = b"\x00\x00"
        fact = b"fact" + struct.pack("<II", 4, len(data))
    width = data.itemsize
    fmt = struct.pack("<HHIIHH", _PCM if pcm16 else _FLOAT, 1, clip.rate,
                      clip.rate * width, width, 8 * width) + fmt_tail
    header = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + fact
              + b"data" + struct.pack("<I", data.nbytes))
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", len(header) + data.nbytes)
                 + header)
        fh.write(data.tobytes())


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


# Bytes of 16-kHz source clips one run of records may hold at once for
# later records: about 100 five-second clips.
_HOLD_BYTES = 64 * 2 ** 20


class _SourceClips:
    """The 16-kHz clip of each source path a run of records uses, read and
    resampled once and shared, read-only, by every record that uses it.

    Uses are counted from the records up front, and a clip is dropped
    after its last use. The clips held at once stay within
    ``_HOLD_BYTES``: when a new clip would pass it, the held or new clip
    whose next use is farthest away is let go, and is loaded again when
    that use comes. A path that fails to load is never held, so every
    record that uses it raises its own error.
    """

    def __init__(self, records):
        # Source path -> positions of its uses in record order.
        self._uses: dict[str, deque[int]] = {}
        for position, ref in enumerate(
                ref for record in records for ref in record.sources):
            self._uses.setdefault(ref.path, deque()).append(position)
        self._held: dict[str, Clip] = {}
        self.held_bytes = 0
        self._end = 0  # position after the last finished record's uses

    def take(self, path: str) -> Clip:
        """The clip for the next use of ``path``; uses come in record order."""
        uses = self._uses[path]
        uses.popleft()
        clip = self._held.get(path)
        if clip is None:
            clip = read_wav(path)
            if clip.rate != DEFAULT_RATE:
                clip = resample(clip, DEFAULT_RATE)
            if uses:
                self._hold(path, clip)
        elif not uses:
            self._release(path)
        return clip

    def finish(self, record: ManifestRecord):
        """Give up the uses ``record`` did not take, as when it failed part
        way, and drop each clip that has no use left."""
        self._end += len(record.sources)
        for ref in record.sources:
            uses = self._uses[ref.path]
            while uses and uses[0] < self._end:
                uses.popleft()
            if not uses and ref.path in self._held:
                self._release(ref.path)

    def _hold(self, path: str, clip: Clip):
        size = clip.samples.nbytes
        while self.held_bytes + size > _HOLD_BYTES:
            farthest = max([*self._held, path], key=lambda p: self._uses[p][0])
            if farthest == path:
                return
            self._release(farthest)
        self._held[path] = clip
        self.held_bytes += size

    def _release(self, path: str):
        self.held_bytes -= self._held.pop(path).samples.nbytes


def synthesize_record(record: ManifestRecord, sources: _SourceClips,
                      out_dir: str, pcm16: bool) -> ManifestRecord:
    """Materialize one record: load, condition, scale, mix, write. Each
    source clip comes from ``sources``; conditioning is the record's own,
    and each source plays at its planned ``snr_db``."""
    out = Path(out_dir)
    clips = [condition(sources.take(ref.path), DEFAULT_DURATION_S,
                       seed=derive_seed(record.seed, "condition", i))
             for i, ref in enumerate(record.sources)]
    gains = assign_gains(clips, record.signatures(),
                         [ref.snr_db for ref in record.sources])
    pair = MixturePair.build(apply_gains(clips, gains), record.action_vector())

    stem = f"{record.record_id:06d}"
    input_name = f"{stem}_input.wav"
    target_name = f"{stem}_target.wav"
    write_wav(out / input_name, pair.input, pcm16)
    write_wav(out / target_name, pair.target, pcm16)
    (out / f"{stem}_prompt.txt").write_text(record.prompt + "\n", "utf-8")

    for ref, gain in zip(record.sources, gains):
        ref.gain = gain
    record.scale = pair.scale
    record.outputs = {"input": input_name, "target": target_name,
                      "prompt": f"{stem}_prompt.txt"}
    (out / f"{stem}_record.json").write_text(record.to_json() + "\n", "utf-8")
    return record


def _synthesize_shard(job) -> list[tuple[ManifestRecord, str | None]]:
    """(record, error or None) for each record of a contiguous run, in
    order; the run shares one set of source clips."""
    records, out_dir, pcm16 = job
    sources = _SourceClips(records)
    results = []
    for record in records:
        try:
            results.append(
                (synthesize_record(record, sources, out_dir, pcm16), None))
        except MixeditError as err:
            results.append((record, f"{type(err).__name__}: {err}"))
        sources.finish(record)
    return results


def synthesize(records, out_dir, workers: int = 1,
               pcm16: bool = False) -> SynthesisSummary:
    """Synthesize a manifest into an output tree.

    Writes per-record WAVs, prompt text, and record JSON, then the full
    manifest (with gains filled) and a summary JSON. Per-record failures
    are collected in the summary instead of aborting the batch.

    The records are split into ``min(workers, records, CPUs)`` contiguous
    runs, one per worker process, counting the CPUs this process may run
    on; a single run stays in this process.
    Within a run, each source file is read and resampled to 16 kHz once,
    and held for the run's later records at most until its last use,
    within a fixed byte budget. Output, manifest and summary keep record
    order, and the tree does not depend on the worker count.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # The pool starts every worker up front, so ask for no more than
    # there are records and CPUs.
    shards = min(workers, len(records), available_cpus())
    if shards <= 1:
        results = _synthesize_shard((records, str(out), pcm16))
    else:
        bounds = [len(records) * i // shards for i in range(shards + 1)]
        jobs = [(records[a:b], str(out), pcm16)
                for a, b in zip(bounds, bounds[1:])]
        with ProcessPoolExecutor(max_workers=shards) as pool:
            results = [r for shard in pool.map(_synthesize_shard, jobs)
                       for r in shard]

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
