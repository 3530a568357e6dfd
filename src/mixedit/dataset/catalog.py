"""Source catalogs: metadata ingestion, split partitioning, demo data.

A catalog row maps an audio file to its signature. Speech rows carry the
full five-attribute style (and a speaker id for speaker-level splits);
audio rows carry exactly one class label. Labels related to human voices
are filtered out against a fixed blocklist.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from ..core import (
    STYLE_FIELDS,
    AudioSignature,
    Signature,
    SpeechSignature,
    StyleVector,
    normalize_label,
)
from ..dsp import DEFAULT_RATE, Clip
from ..errors import MixeditError
from ..seeding import derive_seed

SPLITS = ("train", "valid", "test")

# Default speaker-level split ratio: 1177 train, 50 valid, 100 test.
DEFAULT_SPLIT_RATIOS = (1177, 50, 100)

# Normalized labels (see ``normalize_label``) that ``ingest`` skips.
DEFAULT_BLOCKLIST = frozenset({
    "people", "children", "police radio chatter", "speech", "conversation",
    "human voice", "crowd", "baby crying", "singing", "laughing",
})


class MissingFile(MixeditError):
    pass


class BadMetadataRow(MixeditError):
    def __init__(self, row: int, reason: str):
        super().__init__(f"metadata row {row}: {reason}")
        self.row = row


class EmptyCatalog(MixeditError):
    pass


class TooFewEntities(MixeditError):
    pass


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    path: Path
    signature: Signature
    speaker: str | None = None  # split entity for speech; None for audio

    @property
    def is_speech(self) -> bool:
        return isinstance(self.signature, SpeechSignature)


@dataclass
class Catalog:
    entries: tuple[CatalogEntry, ...]
    skipped_labels: tuple[str, ...] = ()

    @property
    def speech(self) -> list[CatalogEntry]:
        return [e for e in self.entries if e.is_speech]

    @property
    def audio(self) -> list[CatalogEntry]:
        return [e for e in self.entries if not e.is_speech]

    @cached_property
    def labels(self) -> frozenset[str]:
        return frozenset(e.signature.label for e in self.audio)

    @property
    def speakers(self) -> list[str]:
        return sorted({e.speaker for e in self.speech})


def _read_rows(metadata_path: Path) -> list[dict]:
    try:
        if metadata_path.suffix.lower() == ".csv":
            with open(metadata_path, newline="", encoding="utf-8-sig") as fh:
                return [dict(row) for row in csv.DictReader(fh)]
        doc = json.loads(metadata_path.read_text("utf-8-sig"))
    except (OSError, ValueError, csv.Error) as err:  # unreadable or malformed
        raise BadMetadataRow(0, f"unreadable metadata: {err}") from err
    if not isinstance(doc, list) or not all(isinstance(r, dict) for r in doc):
        raise BadMetadataRow(0, "metadata JSON must be a list of rows")
    return doc


def _parse_label(raw, row_no: int) -> str:
    if isinstance(raw, list):
        if len(raw) != 1:
            raise BadMetadataRow(row_no, f"{len(raw)} labels on one clip")
        raw = raw[0]
    if not isinstance(raw, str) or not raw.strip():
        raise BadMetadataRow(row_no, "missing class label")
    if "," in raw or ";" in raw:
        raise BadMetadataRow(row_no, "multiple labels on one clip")
    return normalize_label(raw)


def ingest(root, metadata=None) -> Catalog:
    """Build a validated catalog from a metadata file.

    ``metadata`` defaults to <root>/metadata.json; a .csv file with the
    same columns works too, and either may start with a UTF-8 byte-order
    mark, as an Excel "CSV UTF-8" export does. Malformed rows raise
    BadMetadataRow; blocklisted labels are skipped and reported on the
    catalog. Other columns (such as ``duration`` or ``split``) are
    ignored: ``partition`` alone assigns splits.
    """
    root = Path(root)
    metadata_path = Path(metadata) if metadata else root / "metadata.json"
    if not metadata_path.is_file():
        raise MissingFile(f"metadata file not found: {metadata_path}")
    entries: list[CatalogEntry] = []
    skipped: list[str] = []
    seen_ids: set[str] = set()
    for row_no, row in enumerate(_read_rows(metadata_path), start=1):
        entry_id = str(row.get("id") or "").strip()
        if not entry_id:
            raise BadMetadataRow(row_no, "missing id")
        if entry_id in seen_ids:
            raise BadMetadataRow(row_no, f"duplicate id {entry_id!r}")
        kind = str(row.get("type") or "").strip().lower()
        rel = row.get("path")
        if not rel:
            raise BadMetadataRow(row_no, "missing path")
        if not isinstance(rel, str):
            raise BadMetadataRow(row_no, f"path must be a string, got {rel!r}")
        try:
            path = (root / rel).resolve()
            found = path.is_file()
        except (OSError, ValueError) as err:  # a NUL byte, an overlong name
            raise BadMetadataRow(row_no, f"bad path {rel!r}: {err}") from err
        if not found:
            raise MissingFile(f"metadata row {row_no}: no such file {path}")
        if kind == "speech":
            try:
                style = StyleVector.from_strings(
                    *(str(row[f]).strip().lower() for f in STYLE_FIELDS))
            except (KeyError, ValueError) as err:
                raise BadMetadataRow(row_no, f"bad style attributes: {err}")
            speaker = str(row.get("speaker") or entry_id)
            entries.append(CatalogEntry(entry_id, path, SpeechSignature(style),
                                        speaker))
        elif kind == "audio":
            label = _parse_label(row.get("label"), row_no)
            if label in DEFAULT_BLOCKLIST:
                skipped.append(label)
                continue
            entries.append(CatalogEntry(entry_id, path, AudioSignature(label)))
        else:
            raise BadMetadataRow(row_no, f"unknown type {kind!r}")
        seen_ids.add(entry_id)
    if not entries:
        raise EmptyCatalog(f"no usable entries in {metadata_path}")
    return Catalog(tuple(entries), tuple(skipped))


@dataclass(frozen=True)
class SplitAssignment:
    """Disjoint train/valid/test assignment; speakers for speech, clip
    ids for audio."""

    speakers: dict[str, str]
    clips: dict[str, str]

    def split_of(self, entry: CatalogEntry) -> str:
        if entry.is_speech:
            return self.speakers[entry.speaker]
        return self.clips[entry.id]

    def entries(self, catalog: Catalog, split: str) -> list[CatalogEntry]:
        return [e for e in catalog.entries if self.split_of(e) == split]


def _allocate(n: int, ratios) -> list[int]:
    total = sum(ratios)
    raw = [n * r / total for r in ratios]
    counts = [math.floor(x) for x in raw]
    leftover = n - sum(counts)
    order = sorted(range(len(ratios)), key=lambda i: raw[i] - counts[i],
                   reverse=True)
    for i in order[:leftover]:
        counts[i] += 1
    return counts


def _partition_entities(entities, ratios, rng: random.Random) -> dict[str, str]:
    entities = sorted(entities)
    counts = _allocate(len(entities), ratios)
    if any(c == 0 for c in counts):
        raise TooFewEntities(
            f"{len(entities)} entities cannot fill splits at ratio {ratios}"
        )
    rng.shuffle(entities)
    assignment = {}
    start = 0
    for split, count in zip(SPLITS, counts):
        for entity in entities[start:start + count]:
            assignment[entity] = split
        start += count
    return assignment


def partition(catalog: Catalog, ratios=DEFAULT_SPLIT_RATIOS,
              seed: int = 0) -> SplitAssignment:
    """Deterministic speaker-level (speech) and clip-level (audio) split."""
    speakers = {}
    clips = {}
    if catalog.speech:
        speakers = _partition_entities(
            catalog.speakers, ratios, random.Random(derive_seed(seed, "speech"))
        )
    if catalog.audio:
        clips = _partition_entities(
            [e.id for e in catalog.audio], ratios,
            random.Random(derive_seed(seed, "audio")),
        )
    return SplitAssignment(speakers, clips)


# ---------------- shipped synthetic catalog ----------------

_DEMO_LABELS = (
    "sine tone", "low hum", "chirp sweep", "noise burst", "click train",
    "square wave", "sawtooth wave", "warble tone", "high whistle", "rumble",
    "beep sequence", "pink noise", "ringing bell", "siren sweep",
    "pulse train", "wind noise",
)

_DEMO_SPEAKERS = 16

_F0 = {"low": 110.0, "normal": 180.0, "high": 280.0}
_AM = {"low": 1.5, "normal": 3.0, "high": 5.5}
_AMP = {"low": 0.08, "normal": 0.16, "high": 0.3}


def _demo_speech(style: StyleVector, rng: np.ndarray, duration: float,
                 rate: int) -> np.ndarray:
    """Speech-like harmonic stack: pitch sets f0, tempo the syllable rate,
    volume the level, gender a formant tilt, emotion the vibrato."""
    n = int(duration * rate)
    t = np.arange(n) / rate
    f0 = _F0[style.pitch.value] * (1.0 if style.gender.value == "male" else 1.35)
    f0 *= 1.0 + 0.02 * rng.standard_normal()
    vib_depth = 0.004 * (1 + list(type(style.emotion)).index(style.emotion))
    vib = np.cumsum(1.0 + vib_depth * np.sin(2 * np.pi * 5.3 * t))
    wave = np.zeros(n)
    tilt = 1.4 if style.gender.value == "female" else 0.9
    for k, gain in enumerate([1.0, 0.6 * tilt, 0.35, 0.2 * tilt], start=1):
        phase = rng.uniform(0, 2 * np.pi)
        wave += gain * np.sin(2 * np.pi * k * f0 * vib / rate + phase)
    am = 0.55 + 0.45 * np.clip(np.sin(2 * np.pi * _AM[style.tempo.value] * t), 0, 1)
    wave *= am
    return _AMP[style.volume.value] * wave / np.max(np.abs(wave))


def _demo_audio(label: str, rng, duration: float, rate: int) -> np.ndarray:
    n = int(duration * rate)
    t = np.arange(n) / rate
    if label == "sine tone":
        w = np.sin(2 * np.pi * 523.25 * t)
    elif label == "low hum":
        w = np.sin(2 * np.pi * 60 * t) + 0.4 * np.sin(2 * np.pi * 120 * t)
    elif label == "chirp sweep":
        w = np.sin(2 * np.pi * (300 + (3000 - 300) * t / t[-1] / 2) * t)
    elif label == "noise burst":
        w = rng.standard_normal(n) * (np.sin(2 * np.pi * 0.7 * t) > 0)
        w += 1e-4 * np.sin(2 * np.pi * 440 * t)  # never fully silent
    elif label == "click train":
        w = np.zeros(n)
        w[::rate // 8] = 1.0
        w = np.convolve(w, np.hanning(64), mode="same")
    elif label == "square wave":
        w = np.sign(np.sin(2 * np.pi * 220 * t))
    elif label == "sawtooth wave":
        w = 2 * ((110 * t) % 1.0) - 1.0
    elif label == "warble tone":
        w = np.sin(2 * np.pi * 880 * t + 6 * np.sin(2 * np.pi * 3 * t))
    elif label == "high whistle":
        w = np.sin(2 * np.pi * 3200 * t)
    elif label == "rumble":
        w = np.cumsum(rng.standard_normal(n))
        w -= np.linspace(0, w[-1], n)
    elif label == "beep sequence":
        w = np.sin(2 * np.pi * 1000 * t) * (np.sin(2 * np.pi * 2.0 * t) > 0.3)
        w += 1e-4 * np.sin(2 * np.pi * 1000 * t)
    elif label == "pink noise":
        white = rng.standard_normal(n // 2 + 1) + 1j * rng.standard_normal(n // 2 + 1)
        spectrum = white / np.maximum(np.sqrt(np.arange(len(white))), 1.0)
        w = np.fft.irfft(spectrum, n=n)
    elif label == "ringing bell":
        w = sum(np.exp(-3 * t) * np.sin(2 * np.pi * f * t)
                for f in (660, 1320, 1980))
    elif label == "siren sweep":
        w = np.sin(2 * np.pi * (600 * t + 200 / (2 * np.pi * 0.5)
                                * -np.cos(2 * np.pi * 0.5 * t)))
    elif label == "pulse train":
        w = (np.sin(2 * np.pi * 150 * t) > 0.95).astype(float)
        w += 1e-4 * np.sin(2 * np.pi * 150 * t)
    else:  # wind noise
        w = np.convolve(rng.standard_normal(n), np.ones(64) / 64, mode="same")
    w = np.asarray(w, dtype=np.float64)
    return 0.25 * w / np.max(np.abs(w))


def build_demo_catalog(out_dir, seed: int = 0,
                       rate: int = DEFAULT_RATE) -> Path:
    """Write the tiny synthetic catalog (tones, chirps, noise bursts with
    fabricated style metadata) used by the tests and demos.

    Returns the metadata path. Durations vary around 5 s so conditioning
    exercises both cropping and padding.
    """
    from .synth import write_wav  # local import to avoid a cycle

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(derive_seed(seed, "demo"))
    rows = []

    styles = list(StyleVector.all_vectors())
    picked_idx = rng.choice(len(styles), size=_DEMO_SPEAKERS, replace=False)
    for i, idx in enumerate(picked_idx):
        style = styles[idx]
        duration = float(rng.uniform(4.0, 6.0))
        wave = _demo_speech(style, rng, duration, rate)
        name = f"speech_{i:03d}.wav"
        write_wav(out_dir / name, Clip(wave, rate))
        rows.append({
            "id": f"spk{i:03d}", "path": name, "type": "speech",
            "speaker": f"speaker{i:03d}",
            **dict(zip(STYLE_FIELDS, style.values())),
        })
    for i, label in enumerate(_DEMO_LABELS):
        duration = float(rng.uniform(4.0, 6.0))
        wave = _demo_audio(label, rng, duration, rate)
        name = f"audio_{i:03d}.wav"
        write_wav(out_dir / name, Clip(wave, rate))
        rows.append({
            "id": f"aud{i:03d}", "path": name, "type": "audio",
            "label": label,
        })
    metadata = out_dir / "metadata.json"
    metadata.write_text(json.dumps(rows, indent=2, sort_keys=True))
    return metadata
