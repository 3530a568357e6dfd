"""Catalog ingestion, splits, manifests, synthesis, and the rephrase client."""

import csv
import dataclasses
import hashlib
import json
import multiprocessing
import struct
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from mixedit import dsp, mixer
from mixedit.core import (STYLE_FIELDS, Action, AudioSignature,
                          SpeechSignature, StyleVector)
from mixedit.dataset import (
    BadManifestLine,
    BadMetadataRow,
    BadWavFile,
    Catalog,
    Disabled,
    EmptyCatalog,
    ExhaustedRetries,
    MalformedResponse,
    MissingFile,
    NetworkError,
    RephraseConfig,
    TooFewEntities,
    build_demo_catalog,
    generate_manifest,
    ingest,
    load_manifest,
    partition,
    read_wav,
    rephrase,
    synthesize,
    write_manifest,
    write_wav,
)
from mixedit.dataset import synth
from mixedit.dataset.catalog import (_AM, _AMP, _DEMO_LABELS, _DEMO_SPEAKERS,
                                     _F0, _allocate)
from mixedit.dataset.manifest import ManifestRecord, simplified_from_json
from mixedit.dsp import Clip
from mixedit.mixer import SPEECH_SNR_RANGES, AUDIO_SNR_RANGE
from mixedit.prompt import Prompt, Provenance
from mixedit.seeding import derive_seed
from mixedit.taskspace import Composition, Task, classify

RATE = 16000


@pytest.fixture(scope="module")
def demo_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("catalog")
    build_demo_catalog(root, seed=0)
    return root


@pytest.fixture(scope="module")
def demo(demo_root):
    return ingest(demo_root)


@pytest.fixture(scope="module")
def resampled(resampled_root):
    """Speech at 48 kHz and audio at 44.1 kHz in one catalog, so every
    source is resampled."""
    return ingest(resampled_root)


# ---------------- WAV I/O ----------------

def test_wav_round_trip_float32(tmp_path):
    clip = Clip(np.random.default_rng(0).standard_normal(1000) * 0.1, RATE)
    path = tmp_path / "x.wav"
    write_wav(path, clip)
    back = read_wav(path)
    assert back.rate == RATE
    assert np.allclose(back.samples, clip.samples, atol=1e-7)


def test_wav_pcm16(tmp_path):
    clip = Clip(np.linspace(-0.5, 0.5, 100), RATE)
    path = tmp_path / "x.wav"
    write_wav(path, clip, pcm16=True)
    back = read_wav(path)
    assert np.abs(back.samples - clip.samples).max() < 1e-3


_RAMP = np.arange(100)


@pytest.mark.parametrize("left, right, mono", [
    (np.ones(100, np.float32), -np.ones(100, np.float32),
     np.zeros(100, np.float32)),
    # equal channels, and their mono twin
    ((_RAMP * 300 - 15000).astype(np.int16),) * 3,
    ((_RAMP * 2 + 28).astype(np.uint8),) * 3,
], ids=["float32", "pcm16", "u8"])
def test_wav_downmix(tmp_path, left, right, mono):
    """A multichannel file reads as the channel average, at full scale."""
    stereo_path, mono_path = tmp_path / "st.wav", tmp_path / "mono.wav"
    wavfile.write(stereo_path, RATE, np.stack([left, right], axis=1))
    wavfile.write(mono_path, RATE, mono)
    assert np.array_equal(read_wav(stereo_path).samples,
                          read_wav(mono_path).samples)


_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _chunk(chunk_id: bytes, body: bytes) -> bytes:
    return chunk_id + struct.pack("<I", len(body)) + body + b"\0" * (len(body) % 2)


def _wav_blob(tag, channels, bits, payload, extensible=False, extra=b""):
    """A RIFF/WAVE file; ``extra`` chunks sit between fmt and data."""
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", 0xFFFE if extensible else tag, channels,
                      RATE, RATE * block, block, bits)
    if extensible:  # cbSize, valid bits, channel mask, sub-format GUID
        fmt += struct.pack("<HHII", 22, bits, 0, tag) + _GUID_TAIL
    body = b"WAVE" + _chunk(b"fmt ", fmt) + extra + _chunk(b"data", payload)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _rf64_blob(payload):
    """A 16-bit mono RF64 file: sizes live in a ds64 chunk."""
    fmt = struct.pack("<HHIIHH", 1, 1, RATE, 2 * RATE, 2, 16)
    rest = _chunk(b"fmt ", fmt) + b"data" + b"\xff" * 4 + payload
    ds64 = struct.pack("<QQQI", 4 + 36 + len(rest), len(payload),
                       len(payload) // 2, 0)
    return b"RF64" + b"\xff" * 4 + b"WAVE" + _chunk(b"ds64", ds64) + rest


def _payload(tag, bits, count) -> bytes:
    rng = np.random.default_rng(0)
    if tag == 3:
        return (rng.standard_normal(count) * 0.3).astype(f"<f{bits // 8}").tobytes()
    return rng.integers(0, 256, count * bits // 8, dtype=np.uint8).tobytes()


def _scipy_reference(path) -> np.ndarray:
    """scipy's reading of a file, converted the way read_wav documents."""
    _, data = wavfile.read(path)
    samples = data.astype(np.float64)
    if data.dtype == np.uint8:
        samples = (samples - 128.0) / 128.0
    elif data.dtype.kind == "i":  # scipy left-justifies 24-bit in int32
        samples = samples / -float(np.iinfo(data.dtype).min)
    return samples.mean(axis=1) if samples.ndim == 2 else samples


_FORMATS = [(1, 8), (1, 16), (1, 24), (1, 32), (3, 32), (3, 64)]


# scipy warns about the unknown chunk each file carries on purpose.
@pytest.mark.filterwarnings("ignore::scipy.io.wavfile.WavFileWarning")
@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("extensible", [False, True])
@pytest.mark.parametrize("tag, bits", _FORMATS)
def test_read_wav_matches_scipy(tmp_path, tag, bits, extensible, channels):
    """Every supported format reads as scipy's samples, scaled to [-1, 1];
    an odd-sized unknown chunk and its pad byte are skipped."""
    path = tmp_path / "x.wav"
    path.write_bytes(_wav_blob(tag, channels, bits,
                               _payload(tag, bits, 101 * channels),
                               extensible, extra=_chunk(b"zzzz", b"odd")))
    clip = read_wav(path)
    assert clip.rate == RATE and len(clip) == 101
    assert np.array_equal(clip.samples, _scipy_reference(path))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_read_wav_refuses_a_signalling_nan_without_a_warning(tmp_path):
    samples = np.zeros(100, "<f4")
    samples.view("<u4")[-1] = 0x7F800001  # a float32 signalling NaN
    path = tmp_path / "snan.wav"
    path.write_bytes(_wav_blob(3, 1, 32, samples.tobytes()))
    with pytest.raises(BadWavFile, match="non-finite"):
        read_wav(path)


@pytest.mark.parametrize("tag, bits", _FORMATS)
def test_read_wav_cuts_an_overlong_data_chunk_to_whole_frames(tmp_path, tag, bits):
    full = _wav_blob(tag, 2, bits, _payload(tag, bits, 2 * 50))
    path = tmp_path / "x.wav"
    path.write_bytes(full)
    whole = read_wav(path).samples
    path.write_bytes(full[:-(2 * bits // 8 * 20 + 1)])  # 20.5 frames cut off
    assert np.array_equal(read_wav(path).samples, whole[:29])


@pytest.mark.parametrize("blob", [
    _wav_blob(1, 1, 64, bytes(64)),  # 64-bit integer PCM
    _wav_blob(6, 1, 8, bytes(64)),  # A-law
    _wav_blob(1, 1, 12, bytes(64)),  # 12-bit PCM
    _wav_blob(1, 0, 16, bytes(64)),  # no channels
    _wav_blob(3, 1, 16, bytes(64)),  # 16-bit float
    _rf64_blob(bytes(64)),
    b"RIFX" + _wav_blob(1, 1, 16, bytes(64))[4:],
    _wav_blob(1, 1, 16, bytes(64))[:36],  # fmt only
    b"RIFF\x04\x00\x00\x00WAVE" + _chunk(b"data", bytes(64)),  # no fmt
], ids=["pcm64", "alaw", "pcm12", "mono0", "float16", "rf64", "rifx",
        "no-data", "no-fmt"])
def test_read_wav_rejects_unsupported_files(tmp_path, blob):
    path = tmp_path / "x.wav"
    path.write_bytes(blob)
    with pytest.raises(BadWavFile):
        read_wav(path)


@pytest.mark.parametrize("name", ["missing.wav", ".", "a\x00.wav"])
def test_read_wav_rejects_unreadable_paths(tmp_path, name):
    with pytest.raises(BadWavFile):
        read_wav(tmp_path / name)


@pytest.mark.parametrize("pcm16", [False, True])
def test_write_wav_matches_scipy_bytes(tmp_path, pcm16):
    clip = Clip(np.random.default_rng(1).standard_normal(1001) * 0.6, RATE)
    ours, ref = tmp_path / "ours.wav", tmp_path / "ref.wav"
    write_wav(ours, clip, pcm16=pcm16)
    if pcm16:
        data = (np.clip(clip.samples, -1.0, 1.0) * 32767.0).astype(np.int16)
    else:
        data = clip.samples.astype(np.float32)
    wavfile.write(ref, RATE, data)
    assert ours.read_bytes() == ref.read_bytes()


# ---------------- ingestion ----------------

def _row_catalog(tmp_path, rows):
    wav = tmp_path / "a.wav"
    write_wav(wav, Clip(np.ones(100) * 0.1, RATE))
    for row in rows:
        row.setdefault("path", "a.wav")
    (tmp_path / "metadata.json").write_text(json.dumps(rows))
    return tmp_path


def test_ingest_demo_catalog(demo):
    assert len(demo.speech) == 16
    assert len(demo.audio) == 16
    assert len(demo.labels) == 16
    styles = [e.signature.style for e in demo.speech]
    assert len(set(styles)) == len(styles)


@pytest.mark.parametrize("rate,digest", [
    (16000, "f7154abb164e6b662df0ef1006f4bbd97f4ef6845756b159687f086915f56204"),
    (48000, "78e81ef2de3bcb5c63417cf73f7156ee0245be4314233fecb4284e32534def34"),
])
def test_demo_catalog_bytes_are_pinned(tmp_path, rate, digest):
    build_demo_catalog(tmp_path, seed=0, rate=rate)
    h = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    assert h.hexdigest() == digest


def _serial_speech(style, rng, duration, rate):
    """The demo speech source as the serial builder made it, drawing its
    f0 jitter and phases from ``rng`` as it goes."""
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


def _serial_audio(label, rng, duration, rate):
    """The demo audio source as the serial builder made it, drawing its
    noise from ``rng`` as it goes."""
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
        w += 1e-4 * np.sin(2 * np.pi * 440 * t)
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
        white = (rng.standard_normal(n // 2 + 1)
                 + 1j * rng.standard_normal(n // 2 + 1))
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


def _serial_demo_catalog(out, seed, rate):
    """The demo catalog built one source after another on one thread,
    each source drawing from the shared generator while it renders; the
    WAVs are written by scipy."""
    out.mkdir()
    rng = np.random.default_rng(derive_seed(seed, "demo"))
    styles = list(StyleVector.all_vectors())
    rows = []
    picked_idx = rng.choice(len(styles), size=_DEMO_SPEAKERS, replace=False)
    for i, idx in enumerate(picked_idx):
        style = styles[idx]
        duration = float(rng.uniform(4.0, 6.0))
        wave = _serial_speech(style, rng, duration, rate)
        wavfile.write(out / f"speech_{i:03d}.wav", rate,
                      wave.astype(np.float32))
        rows.append({"id": f"spk{i:03d}", "path": f"speech_{i:03d}.wav",
                     "type": "speech", "speaker": f"speaker{i:03d}",
                     **dict(zip(STYLE_FIELDS, style.values()))})
    for i, label in enumerate(_DEMO_LABELS):
        duration = float(rng.uniform(4.0, 6.0))
        wave = _serial_audio(label, rng, duration, rate)
        wavfile.write(out / f"audio_{i:03d}.wav", rate,
                      wave.astype(np.float32))
        rows.append({"id": f"aud{i:03d}", "path": f"audio_{i:03d}.wav",
                     "type": "audio", "label": label})
    (out / "metadata.json").write_text(json.dumps(rows, indent=2,
                                                  sort_keys=True))


def _file_digests(root):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.iterdir())}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("rate", [16000, 44100, 48000])
def test_demo_catalog_equals_the_serial_build(tmp_path, monkeypatch, rate,
                                              seed):
    # Every WAV and metadata.json, on the calling thread alone and with
    # the second half of the sources on the pool.
    _serial_demo_catalog(tmp_path / "serial", seed, rate)
    want = _file_digests(tmp_path / "serial")
    assert len(want) == 33
    for cpus in (1, 2):
        monkeypatch.setattr(dsp, "available_cpus", lambda: cpus)
        build_demo_catalog(tmp_path / f"cpus{cpus}", seed=seed, rate=rate)
        got = _file_digests(tmp_path / f"cpus{cpus}")
        assert got.keys() == want.keys()
        assert [name for name in want if got[name] != want[name]] == [], cpus


def test_ingest_rejects_multi_label(tmp_path):
    root = _row_catalog(tmp_path, [
        {"id": "a1", "type": "audio", "label": "dog, cat"},
    ])
    with pytest.raises(BadMetadataRow):
        ingest(root)
    root2 = _row_catalog(tmp_path, [
        {"id": "a1", "type": "audio", "label": ["dog", "cat"]},
    ])
    with pytest.raises(BadMetadataRow):
        ingest(root2)


def test_ingest_skips_blocklisted_labels(tmp_path):
    root = _row_catalog(tmp_path, [
        {"id": "a1", "type": "audio", "label": "People"},
        {"id": "a2", "type": "audio", "label": "dog"},
    ])
    catalog = ingest(root)
    assert catalog.labels == {"dog"}
    assert catalog.skipped_labels == ("people",)


def test_ingest_rejects_missing_style(tmp_path):
    root = _row_catalog(tmp_path, [
        {"id": "s1", "type": "speech", "gender": "female", "pitch": "low",
         "tempo": "low", "volume": "low"},  # emotion missing
    ])
    with pytest.raises(BadMetadataRow):
        ingest(root)


@pytest.mark.parametrize("path", [5, ["x"], "a\x00.wav"])
def test_ingest_rejects_bad_path_with_row_number(tmp_path, path):
    root = _row_catalog(tmp_path, [
        {"id": "a1", "type": "audio", "label": "dog"},
        {"id": "a2", "type": "audio", "label": "cat", "path": path},
    ])
    with pytest.raises(BadMetadataRow) as exc:
        ingest(root)
    assert exc.value.row == 2


def test_ingest_missing_file(tmp_path):
    (tmp_path / "metadata.json").write_text(json.dumps([
        {"id": "a1", "type": "audio", "label": "dog", "path": "nope.wav"},
    ]))
    with pytest.raises(MissingFile):
        ingest(tmp_path)


def test_ingest_rejects_a_directory_as_a_clip(tmp_path):
    root = _row_catalog(tmp_path, [
        {"id": "a1", "type": "audio", "label": "dog"},
        {"id": "a2", "type": "audio", "label": "cat", "path": "."},
    ])
    with pytest.raises(MissingFile, match="metadata row 2"):
        ingest(root)


def test_ingest_empty_catalog(tmp_path):
    root = _row_catalog(tmp_path, [
        {"id": "a1", "type": "audio", "label": "people"},
    ])
    with pytest.raises(EmptyCatalog):
        ingest(root)


def test_ingest_csv(tmp_path):
    wav = tmp_path / "a.wav"
    write_wav(wav, Clip(np.ones(100) * 0.1, RATE))
    (tmp_path / "meta.csv").write_text(
        "id,path,type,label\naa,a.wav,audio,dog\n")
    catalog = ingest(tmp_path, metadata=tmp_path / "meta.csv")
    assert catalog.labels == {"dog"}


@pytest.mark.parametrize("bom", [False, True])
@pytest.mark.parametrize("suffix", [".json", ".csv"])
def test_ingest_reads_metadata_with_or_without_a_bom(
        demo_root, demo, tmp_path, suffix, bom):
    # An Excel "CSV UTF-8" export starts with a UTF-8 byte-order mark.
    rows = json.loads((demo_root / "metadata.json").read_text())
    for row in rows:
        row["path"] = str(demo_root / row["path"])
    metadata = tmp_path / f"metadata{suffix}"
    encoding = "utf-8-sig" if bom else "utf-8"
    if suffix == ".json":
        metadata.write_text(json.dumps(rows), encoding)
    else:
        with open(metadata, "w", newline="", encoding=encoding) as fh:
            writer = csv.DictWriter(fh, sorted(set().union(*rows)))
            writer.writeheader()
            writer.writerows(rows)
    assert metadata.read_bytes().startswith(b"\xef\xbb\xbf") == bom
    assert ingest(tmp_path, metadata=metadata) == demo


# ---------------- partitioning ----------------

def test_allocate_reference_counts():
    assert _allocate(1327, (1177, 50, 100)) == [1177, 50, 100]


def test_partition_too_few_entities(tmp_path):
    rows = [{"id": f"s{i}", "type": "speech", "gender": "female",
             "pitch": "low", "tempo": "low", "volume": "low",
             "emotion": "happy", "speaker": f"spk{i}"} for i in range(10)]
    root = _row_catalog(tmp_path, rows)
    catalog = ingest(root)
    with pytest.raises(TooFewEntities):
        partition(catalog)


def test_partition_deterministic_and_disjoint(demo):
    a = partition(demo, seed=3)
    b = partition(demo, seed=3)
    assert a == b
    c = partition(demo, seed=4)
    assert a != c
    for split_map in (a.speakers, a.clips):
        assert set(split_map.values()) <= {"train", "valid", "test"}
    # split hygiene: each entity in exactly one split
    assert len(a.speakers) == 16
    assert len(a.clips) == 16


# ---------------- manifest generation ----------------

def test_generate_manifest_deterministic(demo):
    splits = partition(demo, seed=0)
    a = generate_manifest(demo, splits, count=12, comp=Composition(2, 2), seed=9)
    b = generate_manifest(demo, splits, count=12, comp=Composition(2, 2), seed=9)
    assert [r.to_json() for r in a] == [r.to_json() for r in b]
    c = generate_manifest(demo, splits, count=12, comp=Composition(2, 2), seed=10)
    assert [r.to_json() for r in a] != [r.to_json() for r in c]


def test_manifest_records_are_consistent(demo):
    splits = partition(demo, seed=0)
    records = generate_manifest(demo, splits, count=40,
                                comp=Composition(2, 2), seed=1)
    for record in records:
        sigs = record.signatures()
        speech = [s for s in sigs if isinstance(s, SpeechSignature)]
        audio = [s for s in sigs if isinstance(s, AudioSignature)]
        assert len(speech) == 2 and len(audio) == 2
        assert speech[0].style != speech[1].style
        assert audio[0].label != audio[1].label
        # stored task matches the stored action vector
        assert classify(record.action_vector(),
                        record.composition) is Task(record.task)
        # stored SNRs respect the volume-conditioned ranges
        for ref, sig in zip(record.sources, sigs):
            if ref.snr_db == 0.0:
                continue
            if isinstance(sig, SpeechSignature):
                lo, hi = SPEECH_SNR_RANGES[sig.style.volume]
            else:
                lo, hi = AUDIO_SNR_RANGE
            assert lo <= ref.snr_db <= hi
        simplified_from_json(record.simplified)  # parses back


def test_manifest_uses_special_prompts_about_half_the_time(demo):
    splits = partition(demo, seed=0)
    records = generate_manifest(demo, splits, count=300,
                                comp=Composition(2, 2), seed=2)
    eligible = [r for r in records
                if r.prompt_provenance == Provenance.SPECIAL_GENERIC.value]
    # ~29/254 edits are uniform-group ones; of those ~half ship special text
    assert 0 < len(eligible) < len(records)
    for r in eligible:
        assert r.template is None
        assert r.prompt[0].isupper()


def test_manifest_task_histogram_16k(demo):
    # 16 tasks drawn uniformly: every count stays within +-10% of 1000
    splits = partition(demo, seed=0)
    records = generate_manifest(demo, splits, count=16_000,
                                comp=Composition(2, 2), seed=123)
    counts = {}
    for r in records:
        counts[r.task] = counts.get(r.task, 0) + 1
    assert len(counts) == 16
    assert all(900 <= n <= 1100 for n in counts.values()), counts


def test_manifest_round_trips_through_jsonl(demo, tmp_path):
    splits = partition(demo, seed=0)
    records = generate_manifest(demo, splits, count=5,
                                comp=Composition(2, 1), seed=3)
    path = tmp_path / "manifest.jsonl"
    write_manifest(records, path)
    loaded = load_manifest(path)
    assert [r.to_json() for r in loaded] == [r.to_json() for r in records]


@pytest.mark.parametrize("bom", [False, True])
def test_load_manifest_with_or_without_a_bom(demo, tmp_path, bom):
    records = generate_manifest(demo, partition(demo, seed=0), count=3,
                                comp=Composition(2, 1), seed=3)
    path = tmp_path / "manifest.jsonl"
    write_manifest(records, path)
    if bom:
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    loaded = load_manifest(path)
    assert [r.to_json() for r in loaded] == [r.to_json() for r in records]


# ---------------- synthesis ----------------

def _tree_digest(root):
    digest = hashlib.blake2b(digest_size=16)
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def test_synthesize_worker_counts_agree(demo, resampled, tmp_path,
                                        monkeypatch):
    monkeypatch.setattr(synth, "available_cpus", lambda: 2)
    for name, catalog in (("demo", demo), ("resampled", resampled)):
        splits = partition(catalog, seed=0)
        records = generate_manifest(catalog, splits, count=8,
                                    comp=Composition(2, 2), seed=5)
        out1 = tmp_path / name / "w1"
        out2 = tmp_path / name / "w2"
        s1 = synthesize(records, out1, workers=1)
        records2 = generate_manifest(catalog, splits, count=8,
                                     comp=Composition(2, 2), seed=5)
        s2 = synthesize(records2, out2, workers=2)
        assert s1.ok and s2.ok
        assert _tree_digest(out1) == _tree_digest(out2)


def test_synthesize_trees_agree_when_shards_resample_on_the_pool(
        resampled, tmp_path, monkeypatch):
    # A shard on a pool thread calls dsp._threads again for each source's
    # resampling halves, with the pool's threads busy with shards.
    splits = partition(resampled, seed=0)
    trees = {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(dsp, "available_cpus", lambda: cpus)
        monkeypatch.setattr(synth, "available_cpus", lambda: cpus)
        for workers in (1, 2, 4):
            records = generate_manifest(resampled, splits, count=8,
                                        comp=Composition(2, 2), seed=5)
            out = tmp_path / f"c{cpus}w{workers}"
            result = []
            run = threading.Thread(target=lambda: result.append(
                synthesize(records, out, workers=workers)), daemon=True)
            run.start()
            run.join(timeout=120)
            assert not run.is_alive(), (cpus, workers)
            assert result[0].ok
            trees[cpus, workers] = _tree_digest(out)
    assert len(set(trees.values())) == 1, trees


def test_synthesize_fills_in_the_callers_records_at_any_worker_count(
        resampled, tmp_path, monkeypatch):
    # Eight shards on more threads than this host has cores, switching
    # often, so that a lost update between shards would show.
    monkeypatch.setattr(dsp, "available_cpus", lambda: 8)
    monkeypatch.setattr(synth, "available_cpus", lambda: 8)
    splits = partition(resampled, seed=0)
    filled, trees = [], []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 8):
            records = generate_manifest(resampled, splits, count=8,
                                        comp=Composition(2, 2), seed=5)
            out = tmp_path / f"w{workers}"
            assert synthesize(records, out, workers=workers).ok
            assert all(r.scale is not None and r.outputs
                       and all(ref.gain is not None for ref in r.sources)
                       for r in records)
            lines = [r.to_json() for r in records]
            assert lines == (out / "manifest.jsonl").read_text().splitlines()
            filled.append(lines)
            trees.append(_tree_digest(out))
    finally:
        sys.setswitchinterval(interval)
    assert filled[0] == filled[1] == filled[2]
    assert trees[0] == trees[1] == trees[2]


def _has_pool():
    return dsp._pool is not None


def test_synthesize_forks_after_the_pool_exists(demo, tmp_path, monkeypatch):
    # synthesize forks nothing, but a library user may fork after the
    # pool exists: the pool's threads do not survive a fork, so the child
    # starts without the parent's pool. Trees made after the pool exists
    # are the one-thread tree.
    monkeypatch.setattr(dsp, "available_cpus", lambda: 2)
    monkeypatch.setattr(synth, "available_cpus", lambda: 2)
    dsp._threads(lambda: None, lambda: None)
    assert _has_pool()
    if "fork" in multiprocessing.get_all_start_methods():
        with multiprocessing.get_context("fork").Pool(1) as child:
            assert child.apply(_has_pool) is False
    splits = partition(demo, seed=0)
    trees = []
    for workers in (1, 2):
        records = generate_manifest(demo, splits, count=8,
                                    comp=Composition(2, 2), seed=5)
        out = tmp_path / f"w{workers}"
        assert synthesize(records, out, workers=workers).ok
        trees.append(_tree_digest(out))
    assert trees[0] == trees[1]


def _spy(monkeypatch, log, name):
    """Replace ``synth.<name>`` with a wrapper that appends (thread id,
    first argument) to ``log[name]``."""
    original = getattr(synth, name)

    def spy(arg, *rest):
        log.setdefault(name, []).append((threading.get_ident(), arg))
        return original(arg, *rest)

    monkeypatch.setattr(synth, name, spy)


@pytest.mark.parametrize("workers", [1, 2])
def test_synthesize_reads_and_resamples_each_source_once_per_worker(
        resampled, tmp_path, monkeypatch, workers):
    log = {}
    _spy(monkeypatch, log, "_synthesize_shard")
    _spy(monkeypatch, log, "read_wav")
    _spy(monkeypatch, log, "resample")
    monkeypatch.setattr(dsp, "available_cpus", lambda: 2)
    monkeypatch.setattr(synth, "available_cpus", lambda: 2)
    records = generate_manifest(resampled, partition(resampled, seed=0),
                                count=8, comp=Composition(2, 2), seed=5)
    assert synthesize(records, tmp_path / "out", workers=workers).ok

    # synthesize gives each worker a contiguous half; a thread reads each
    # path once for every shard it ran that uses it.
    shards = log["_synthesize_shard"]
    assert [r for _, shard in shards for r in shard] == records
    assert [len(shard) for _, shard in shards] == [8 // workers] * workers
    wanted, reads, resamples = {}, {}, {}
    for thread, shard in shards:
        wanted.setdefault(thread, []).extend(
            {ref.path for r in shard for ref in r.sources})
    for thread, path in log["read_wav"]:
        reads.setdefault(thread, []).append(path)
    for thread, _ in log["resample"]:
        resamples[thread] = resamples.get(thread, 0) + 1
    assert sum(len(r.sources) for r in records) > sum(map(len,
                                                          wanted.values()))
    assert {t: sorted(paths) for t, paths in reads.items()} == {
        t: sorted(paths) for t, paths in wanted.items()}
    assert resamples == {t: len(paths) for t, paths in reads.items()}


def test_synthesize_fails_exactly_the_records_that_share_a_bad_source(
        demo, tmp_path):
    records = generate_manifest(demo, partition(demo, seed=0), count=4,
                                comp=Composition(2, 2), seed=7)
    bad = tmp_path / "bad.wav"
    _garbage_wav(bad)
    records[0].sources[2].path = records[2].sources[0].path = str(bad)
    summary = synthesize(records, tmp_path / "out", workers=1)
    assert [r for r, _ in summary.failures] == [records[0].record_id,
                                                records[2].record_id]
    assert all(e.startswith("BadWavFile") for _, e in summary.failures)
    assert summary.succeeded == 2


def _recorded_holders(monkeypatch):
    """Every clip holder a synthesize call makes, kept for inspection."""
    holders = []

    class Recorded(synth._SourceClips):
        def __init__(self, records):
            super().__init__(records)
            holders.append(self)

    monkeypatch.setattr(synth, "_SourceClips", Recorded)
    return holders


def test_synthesize_holds_no_clip_after_the_call(demo, tmp_path, monkeypatch):
    holders = _recorded_holders(monkeypatch)
    records = generate_manifest(demo, partition(demo, seed=0), count=4,
                                comp=Composition(2, 2), seed=7)
    # Record 1 fails at its first source, before it takes its last one,
    # whose clip record 0 has loaded and left held for it.
    bad = tmp_path / "bad.wav"
    _garbage_wav(bad)
    records[1].sources[0].path = str(bad)
    records[1].sources[3].path = records[0].sources[3].path
    summary = synthesize(records, tmp_path / "out", workers=1)
    assert [r for r, _ in summary.failures] == [records[1].record_id]
    [holder] = holders
    assert holder._held == {} and holder.held_bytes == 0
    assert not any(holder._uses.values())


@pytest.mark.parametrize("uses,reads", [
    # C comes when A and B are held and is needed after both: it is not
    # held, and is read again for its second use.
    ("AB CA BC", "ABCC"),
    # C is needed before A: A is let go, and read again for its last use.
    ("AB CB CA", "ABCA"),
])
def test_source_clips_let_go_of_the_clip_needed_last(monkeypatch, uses,
                                                     reads):
    # Three equal clips, room for two; each word is one record's sources.
    clip = Clip(np.ones(RATE), RATE)
    monkeypatch.setattr(synth, "_HOLD_BYTES", 2 * clip.samples.nbytes)
    read = []
    monkeypatch.setattr(synth, "read_wav",
                        lambda path: read.append(path) or clip)
    records = [SimpleNamespace(sources=[SimpleNamespace(path=p) for p in w])
               for w in uses.split()]
    sources = synth._SourceClips(records)
    for record in records:
        for ref in record.sources:
            assert sources.take(ref.path) is clip
        sources.finish(record)
    assert "".join(read) == reads
    assert sources.held_bytes == 0


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("budget", [0, 1_500_000])
def test_synthesize_keeps_held_clips_within_the_budget(
        demo, tmp_path, monkeypatch, budget, workers):
    # Each shard holds its own clips within the budget.
    monkeypatch.setattr(synth, "available_cpus", lambda: 2)
    records = generate_manifest(demo, partition(demo, seed=0), count=12,
                                comp=Composition(2, 2), seed=9)
    assert synthesize(records, tmp_path / "reference", workers=1).ok

    monkeypatch.setattr(synth, "_HOLD_BYTES", budget)
    held, reads = [], []
    take, read = synth._SourceClips.take, synth.read_wav

    def checked_take(self, path):
        clip = take(self, path)
        held.append(self.held_bytes)
        return clip

    monkeypatch.setattr(synth._SourceClips, "take", checked_take)
    monkeypatch.setattr(synth, "read_wav",
                        lambda path: reads.append(path) or read(path))
    records = generate_manifest(demo, partition(demo, seed=0), count=12,
                                comp=Composition(2, 2), seed=9)
    assert synthesize(records, tmp_path / "budgeted", workers=workers).ok
    assert max(held) <= budget
    uses = sum(len(r.sources) for r in records)
    if budget:  # some clips are held, and some let go and read again
        assert len(set(reads)) < len(reads) < uses
    else:
        assert len(reads) == uses
    assert _tree_digest(tmp_path / "budgeted") == _tree_digest(
        tmp_path / "reference")


@pytest.mark.parametrize("workers,count,expected", [(10000, 3, 3),
                                                     (10000, 8, 4), (2, 8, 2)])
def test_synthesize_asks_for_no_more_workers_than_jobs_and_cpus(
        demo, tmp_path, monkeypatch, workers, count, expected):
    # Each shard is one task on the pool: no more than there are records
    # and CPUs.
    shards = []
    shard = synth._synthesize_shard
    monkeypatch.setattr(synth, "_synthesize_shard",
                        lambda records, *rest: shards.append(len(records))
                        or shard(records, *rest))
    monkeypatch.setattr(synth, "available_cpus", lambda: 4)
    records = generate_manifest(demo, partition(demo, seed=0), count=count,
                                comp=Composition(1, 1), seed=5)
    assert synthesize(records, tmp_path, workers=workers).ok
    assert len(shards) == expected and sum(shards) == count


def test_synthesized_mixture_replays_from_record(demo, tmp_path):
    splits = partition(demo, seed=0)
    records = generate_manifest(demo, splits, count=3,
                                comp=Composition(2, 2), seed=6)
    # Synthesis plays a record's levels as given, edited ones included,
    # in or out of the ranges planning draws from.
    for record, snr_db in ((0, 2.5), (2, -11.25)):
        sources = records[record].sources
        reference = [ref.snr_db for ref in sources].index(0.0)
        sources[(reference + 1) % len(sources)].snr_db = snr_db
    planned = [[ref.snr_db for ref in r.sources] for r in records]
    out = tmp_path / "out"
    summary = synthesize(records, out, workers=1)
    assert summary.ok
    for record, snrs_db in zip(load_manifest(out / "manifest.jsonl"),
                               planned, strict=True):
        assert [ref.snr_db for ref in record.sources] == snrs_db
        # The reference source plays at 0 dB with unit gain.
        ref_idx = snrs_db.index(0.0)
        assert record.sources[ref_idx].gain == 1.0
        energies = []
        x = read_wav(out / record.outputs["input"])
        y = read_wav(out / record.outputs["target"])
        total = np.zeros(len(x))
        target = np.zeros(len(x))
        for ref, action in zip(record.sources, record.action_vector()):
            clip = read_wav(ref.path)
            from mixedit.dsp import condition, resample
            from mixedit.seeding import derive_seed
            if clip.rate != RATE:
                clip = resample(clip, RATE)
            idx = record.sources.index(ref)
            conditioned = condition(clip, 5.0,
                                    seed=derive_seed(record.seed, "condition", idx))
            scaled = conditioned.samples * ref.gain * record.scale
            energies.append(np.mean(scaled ** 2))
            total += scaled
            target += action.alpha * scaled
        assert np.abs(total - x.samples).max() < 1e-6
        assert np.abs(target - y.samples).max() < 1e-6
        for energy, snr_db in zip(energies, snrs_db, strict=True):
            realized = 10 * np.log10(energy / energies[ref_idx])
            assert abs(realized - snr_db) <= 1e-9
        prompt_text = (out / record.outputs["prompt"]).read_text().strip()
        assert prompt_text == record.prompt


def test_synthesize_draws_no_levels(demo, tmp_path, monkeypatch):
    records = generate_manifest(demo, partition(demo, seed=0), count=2,
                                comp=Composition(2, 2), seed=6)

    def no_draw(*args, **kwargs):
        raise AssertionError("synthesis drew a level")

    monkeypatch.setattr(mixer, "draw_assigned_snrs", no_draw)
    assert synthesize(records, tmp_path / "out", workers=1).ok


def test_synthesize_keeps_an_unplayable_level_to_its_record(demo, tmp_path):
    records = generate_manifest(demo, partition(demo, seed=0), count=3,
                                comp=Composition(2, 2), seed=7)
    records[1].sources[2].snr_db = 1e6  # 10 ** 1e5 overflows
    summary = synthesize(records, tmp_path / "out", workers=1)
    assert summary.succeeded == 2
    assert [r for r, _ in summary.failures] == [records[1].record_id]
    assert summary.failures[0][1].startswith("BadLevel")


def test_synthesize_collects_silent_source_failures(demo, tmp_path):
    splits = partition(demo, seed=0)
    records = generate_manifest(demo, splits, count=2,
                                comp=Composition(2, 2), seed=7)
    silent = tmp_path / "silent.wav"
    write_wav(silent, Clip(np.zeros(RATE), RATE))
    records[0].sources[1].path = str(silent)
    out = tmp_path / "out"
    summary = synthesize(records, out, workers=1)
    assert not summary.ok
    assert summary.succeeded == 1
    assert summary.failures[0][0] == records[0].record_id
    assert "SilentSource" in summary.failures[0][1]
    listed = json.loads((out / "summary.json").read_text())
    assert listed["failures"][0]["error"].startswith("SilentSource")


def _garbage_wav(path):
    path.write_bytes(b"not a wav file" * 8)


def _nan_wav(path):
    wavfile.write(path, RATE, np.array([0.0, np.nan, 0.5], dtype=np.float32))


def _missing_wav(path):
    pass


@pytest.mark.parametrize("make_bad", [_garbage_wav, _nan_wav, _missing_wav])
def test_synthesize_keeps_a_bad_source_to_its_record(demo, tmp_path, make_bad):
    records = generate_manifest(demo, partition(demo, seed=0), count=3,
                                comp=Composition(2, 2), seed=7)
    bad = tmp_path / "bad.wav"
    make_bad(bad)
    records[1].sources[0].path = str(bad)
    out = tmp_path / "out"
    summary = synthesize(records, out, workers=1)
    assert summary.succeeded == 2
    assert [r for r, _ in summary.failures] == [records[1].record_id]
    assert summary.failures[0][1].startswith("BadWavFile")
    for record in (records[0], records[2]):
        assert (out / f"{record.record_id:06d}_input.wav").exists()


def test_synthesize_keeps_an_unsupported_rate_to_its_record(demo, tmp_path):
    # A 2**31 - 1 Hz header: resampling it to 16 kHz would need ~3e11
    # filter taps. Below 67,109 samples the output would be empty and no
    # plan would be built.
    records = generate_manifest(demo, partition(demo, seed=0), count=3,
                                comp=Composition(2, 2), seed=7)
    fmt = struct.pack("<HHIIHH", 1, 1, 2 ** 31 - 1, 0, 2, 16)
    payload = np.full(67109, 1000, "<i2").tobytes()
    body = b"WAVE" + _chunk(b"fmt ", fmt) + _chunk(b"data", payload)
    bad = tmp_path / "fast.wav"
    bad.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    records[1].sources[0].path = str(bad)
    out = tmp_path / "out"
    summary = synthesize(records, out, workers=1)
    assert summary.succeeded == 2
    assert [r for r, _ in summary.failures] == [records[1].record_id]
    assert summary.failures[0][1].startswith("UnsupportedRate")


# ---------------- rephrase client ----------------

def test_rephrase_disabled_without_endpoint():
    with pytest.raises(Disabled):
        rephrase(Prompt("Please remove the dog sound.", Provenance.TEMPLATE),
                 RephraseConfig(endpoint=None))


class _Handler(BaseHTTPRequestHandler):
    payload: dict | bytes = {}  # bytes go out as they are
    last_request: dict = {}

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        type(self).last_request = json.loads(self.rfile.read(length))
        payload = type(self).payload
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_endpoint():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/rephrase"
    server.shutdown()


def test_rephrase_http_round_trip(http_endpoint):
    _Handler.payload = {"rephrasings": [
        "Could you remove the dog sound?",
        "Take away the dog sound.",
    ]}
    out = rephrase(Prompt("Please remove the dog sound.", Provenance.TEMPLATE),
                   RephraseConfig(endpoint=http_endpoint, n=2))
    assert [p.text for p in out] == _Handler.payload["rephrasings"]
    assert all(p.provenance is Provenance.EXTERNAL_REPHRASE for p in out)
    assert _Handler.last_request["prompt"] == "Please remove the dog sound."
    assert _Handler.last_request["n"] == 2
    assert "rephrase the prompt 2 times" in _Handler.last_request["wrapper"]


def test_rephrase_malformed_response(http_endpoint):
    _Handler.payload = {"something": "else"}
    with pytest.raises(MalformedResponse):
        rephrase(Prompt("Please remove the dog sound.", Provenance.TEMPLATE),
                 RephraseConfig(endpoint=http_endpoint))


json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
rephrase_bodies = st.one_of(
    st.binary(),
    json_scalars.map(json.dumps),
    st.lists(json_scalars).map(json.dumps),
    st.dictionaries(st.sampled_from(["rephrasings", "x"]),
                    json_scalars | st.lists(json_scalars)).map(json.dumps),
).map(lambda body: body if isinstance(body, bytes) else body.encode())


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(b'["x"]')
@example(b"[" * 100_000)
@given(rephrase_bodies)
def test_any_rephrase_response_yields_prompts_or_raises_malformed(
        http_endpoint, body):
    _Handler.payload = body
    try:
        out = rephrase(Prompt("Please remove the dog sound.", Provenance.TEMPLATE),
                       RephraseConfig(endpoint=http_endpoint))
    except MalformedResponse:
        return
    assert out and all(p.provenance is Provenance.EXTERNAL_REPHRASE for p in out)


def test_rephrase_network_error():
    config = RephraseConfig(endpoint="http://127.0.0.1:9/nothing",
                            timeout_s=0.5)
    with pytest.raises(NetworkError):
        rephrase(Prompt("Please remove the dog sound.", Provenance.TEMPLATE),
                 config)


def test_import_does_not_load_urllib_request(import_leaves_out):
    import_leaves_out("import mixedit.dataset", "urllib.request")


def test_import_does_not_load_multiprocessing(import_leaves_out):
    import_leaves_out("import mixedit.dataset", "multiprocessing")


# ---------------- ignored columns, typed manifest lines ----------------

def test_ingest_ignores_duration_and_split_columns(tmp_path):
    root = _row_catalog(tmp_path, [
        {"id": "a1", "type": "audio", "label": "dog", "duration": "abc",
         "split": "holdout"},
        {"id": "s1", "type": "speech", "gender": "female", "pitch": "low",
         "tempo": "low", "volume": "low", "emotion": "neutral",
         "duration": "n/a", "split": "train"},
    ])
    catalog = ingest(root)
    assert catalog.labels == {"dog"}
    assert len(catalog.speech) == 1


@pytest.mark.parametrize("line", [
    "{", '{"schema": 1}', "[]", '"text"', '{"schema": 2}',
    '{"schema": 1, "sources": [1]}',
    '{"schema": 1, "sources": [], "unknown": 0}',
    "[" * 100_000,
])
def test_manifest_line_errors_are_typed(line):
    with pytest.raises(BadManifestLine):
        ManifestRecord.from_json(line)


_GOOD_SOURCE = {"id": "a", "path": "a.wav",
                "signature": {"kind": "audio", "label": "dog"},
                "snr_db": 0.0, "gain": None}


def _line_with_source(**fields) -> str:
    doc = {"schema": 1, "record_id": 0, "seed": 1, "n_speech": 0,
           "n_audio": 1, "sources": [{**_GOOD_SOURCE, **fields}],
           "actions": ["up"], "task": "T1",
           "simplified": [{"action": "up", "kind": "audio", "label": "dog"}],
           "prompt": "p", "prompt_provenance": "template"}
    return json.dumps(doc)


@pytest.mark.parametrize("fields", [
    {"id": 3}, {"path": 5}, {"path": ["a"]}, {"path": None},
    {"signature": "audio:dog"}, {"signature": ["audio", "dog"]},
    {"snr_db": "x"}, {"snr_db": True}, {"snr_db": None},
    {"snr_db": float("nan")}, {"snr_db": float("inf")}, {"snr_db": 10 ** 400},
    {"gain": "1"}, {"gain": False}, {"gain": float("-inf")},
])
def test_manifest_source_fields_are_typed(fields):
    with pytest.raises(BadManifestLine, match="source"):
        ManifestRecord.from_json(_line_with_source(**fields))


def _line_with(**fields) -> str:
    return json.dumps({**json.loads(_line_with_source()), **fields})


@pytest.mark.parametrize("fields", [
    {"outputs": 5}, {"outputs": {"input": 3}}, {"outputs": []},
    {"outputs": {"input": "a.wav", "target": "b.wav"}},
    {"outputs": {"input": "a.wav", "target": None, "prompt": "p.txt"}},
    {"simplified": "x"}, {"simplified": None}, {"simplified": {}},
    {"prompt_provenance": None}, {"prompt_provenance": 1},
    {"template": 7}, {"template": ["please"]},
    {"scale": "big"}, {"scale": True}, {"scale": float("nan")},
    {"scale": float("inf")}, {"scale": 10 ** 400},
    {"schema": True}, {"schema": 1.0},
])
def test_manifest_record_fields_are_typed(fields):
    with pytest.raises(BadManifestLine, match=next(iter(fields))):
        ManifestRecord.from_json(_line_with(**fields))


_NOT_FILE_NAMES = ["/abs.wav", "sub/a.wav", "../a.wav", "a\\b.wav", ".",
                   "..", "", "a\x00.wav"]


@pytest.mark.parametrize("name", _NOT_FILE_NAMES)
@pytest.mark.parametrize("role", ["input", "target", "prompt"])
def test_load_manifest_refuses_outputs_that_are_not_bare_file_names(
        tmp_path, role, name):
    outputs = {"input": "a.wav", "target": "b.wav", "prompt": "p.txt"}
    path = tmp_path / "manifest.jsonl"
    path.write_text(_line_with(outputs={**outputs, role: name}) + "\n")
    with pytest.raises(BadManifestLine, match="line 1: outputs must name"):
        load_manifest(path)


@pytest.mark.parametrize("fields", [
    {"outputs": None},
    {"outputs": {"input": "a.wav", "target": "b.wav", "prompt": "p.txt"}},
    {"template": None}, {"template": "please"},
    {"scale": None}, {"scale": 0.5}, {"scale": 1},
])
def test_manifest_record_fields_of_the_right_type_load(fields):
    record = ManifestRecord.from_json(_line_with(**fields))
    assert {name: getattr(record, name) for name in fields} == fields


@pytest.mark.parametrize("simplified", [
    [], [1], ["up"], [{"action": "up"}], [{"action": "louder", "kind": "audio",
                                          "label": "dog"}],
    [{"action": "up", "kind": "audio", "label": 5}],
    [{"action": "up", "kind": "speech", "attrs": {}}],
    [{"action": "up", "kind": "speech", "attrs": {"gender": "robot"}}],
    [{"action": "up", "kind": "group", "scope": "every source"}],
])
def test_manifest_simplified_that_does_not_parse_is_typed(simplified):
    with pytest.raises(BadManifestLine):
        ManifestRecord.from_json(_line_with(simplified=simplified))


def test_manifest_record_needs_a_source():
    doc = json.loads(_line_with_source())
    doc["sources"] = []
    with pytest.raises(BadManifestLine, match="at least one source"):
        ManifestRecord.from_json(json.dumps(doc))


@pytest.mark.parametrize("fields", [
    {}, {"snr_db": -3}, {"snr_db": 1e6}, {"gain": 0.5}, {"gain": 2}])
def test_manifest_source_fields_of_the_right_type_load(fields):
    record = ManifestRecord.from_json(_line_with_source(**fields))
    assert vars(record.sources[0]) == {**_GOOD_SOURCE, **fields}


def test_load_manifest_names_the_bad_line(demo, tmp_path):
    splits = partition(demo, ratios=(12, 2, 2), seed=0)
    records = generate_manifest(demo, splits, count=2,
                                comp=Composition(2, 2), seed=0)
    path = tmp_path / "manifest.jsonl"
    path.write_text("\n".join([records[0].to_json(), "",
                               records[1].to_json(), '{"schema": 1}']) + "\n")
    with pytest.raises(BadManifestLine, match="line 4"):
        load_manifest(path)


def test_load_manifest_refuses_a_repeated_record_id(demo, tmp_path):
    splits = partition(demo, ratios=(12, 2, 2), seed=0)
    records = generate_manifest(demo, splits, count=2,
                                comp=Composition(2, 2), seed=0)
    path = tmp_path / "manifest.jsonl"
    path.write_text("\n".join([records[0].to_json(), records[1].to_json(),
                               "", records[0].to_json()]) + "\n")
    with pytest.raises(BadManifestLine,
                       match="line 4: record_id 0 repeats line 1"):
        load_manifest(path)


def test_generate_manifest_needs_enough_sources_in_the_split(demo):
    splits = partition(demo, seed=0)
    held = sum(not e.is_speech for e in splits.entries(demo, "train"))
    with pytest.raises(ExhaustedRetries,
                       match=f"need {held + 1} sources but the split holds "
                             f"{held}"):
        generate_manifest(demo, splits, count=1,
                          comp=Composition(0, held + 1), seed=0)


@pytest.mark.parametrize("speech, comp", [(True, Composition(2, 0)),
                                          (False, Composition(0, 2))])
def test_generate_manifest_gives_up_on_a_distinct_draw(demo, speech, comp):
    # Every source of the group carries the first one's signature, so no
    # draw of two differs in style or label.
    group = [e for e in demo.entries if e.is_speech == speech]
    same = Catalog(tuple(dataclasses.replace(e, signature=group[0].signature)
                         for e in group))
    kind = "style" if speech else "label"
    with pytest.raises(ExhaustedRetries,
                       match=f"distinct-{kind} sources in 200 tries"):
        generate_manifest(same, partition(same, seed=0), count=1, comp=comp,
                          seed=0)
