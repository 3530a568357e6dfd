"""Catalog ingestion, splits, manifests, synthesis, and the rephrase client."""

import json
import struct
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from mixedit.core import Action, AudioSignature, SpeechSignature
from mixedit.dataset import (
    BadManifestLine,
    BadMetadataRow,
    BadWavFile,
    Disabled,
    EmptyCatalog,
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
from mixedit.dataset.catalog import _allocate
from mixedit.dataset.manifest import ManifestRecord, simplified_from_json
from mixedit.dsp import Clip
from mixedit.mixer import SPEECH_SNR_RANGES, AUDIO_SNR_RANGE
from mixedit.prompt import Prompt, Provenance
from mixedit.taskspace import Composition, Task, classify

RATE = 16000


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    root = tmp_path_factory.mktemp("catalog")
    build_demo_catalog(root, seed=0)
    return ingest(root)


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


# ---------------- synthesis ----------------

def _tree_digest(root):
    import hashlib
    digest = hashlib.blake2b(digest_size=16)
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def test_synthesize_worker_counts_agree(demo, tmp_path):
    splits = partition(demo, seed=0)
    records = generate_manifest(demo, splits, count=8,
                                comp=Composition(2, 2), seed=5)
    out1 = tmp_path / "w1"
    out2 = tmp_path / "w2"
    s1 = synthesize(records, out1, workers=1)
    records2 = generate_manifest(demo, splits, count=8,
                                 comp=Composition(2, 2), seed=5)
    s2 = synthesize(records2, out2, workers=2)
    assert s1.ok and s2.ok
    assert _tree_digest(out1) == _tree_digest(out2)


def test_synthesized_mixture_replays_from_record(demo, tmp_path):
    splits = partition(demo, seed=0)
    records = generate_manifest(demo, splits, count=3,
                                comp=Composition(2, 2), seed=6)
    out = tmp_path / "out"
    summary = synthesize(records, out, workers=1)
    assert summary.ok
    for record in load_manifest(out / "manifest.jsonl"):
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
            total += scaled
            target += action.alpha * scaled
        assert np.abs(total - x.samples).max() < 1e-6
        assert np.abs(target - y.samples).max() < 1e-6
        prompt_text = (out / record.outputs["prompt"]).read_text().strip()
        assert prompt_text == record.prompt


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


def test_load_manifest_names_the_bad_line(demo, tmp_path):
    splits = partition(demo, ratios=(12, 2, 2), seed=0)
    records = generate_manifest(demo, splits, count=2,
                                comp=Composition(2, 2), seed=0)
    path = tmp_path / "manifest.jsonl"
    path.write_text("\n".join([records[0].to_json(), "",
                               records[1].to_json(), '{"schema": 1}']) + "\n")
    with pytest.raises(BadManifestLine, match="line 4"):
        load_manifest(path)
