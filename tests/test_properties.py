"""Property-based checks of the library invariants."""

import csv
import dataclasses
import functools
import io
import json
import struct
import tempfile
from pathlib import Path
from urllib.parse import urlsplit

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mixedit.cli import BadConfigFile, _read_toy_config, _record_clips, main
from mixedit.core import (
    STYLE_FIELDS,
    Action,
    AudioSignature,
    TrivialIdentity,
    TrivialSilence,
    validate_instruction,
)
from mixedit.dataset import (
    BadRephraseConfig,
    BadWavFile,
    RephraseConfig,
    ingest,
    load_manifest,
    read_wav,
    synthesize,
    write_wav,
)
from mixedit.dataset.catalog import _DEMO_LABELS
from mixedit.dataset.manifest import ManifestRecord, SourceRef
from mixedit.dsp import Clip, condition
from mixedit.editor import FilmMaskNet, MaskNetConfig, load_net, save_net
from mixedit.editor.serialize import BadContainer
from mixedit.errors import MixeditError
from mixedit.metrics import si_sdr, snr
from mixedit.mixer import MixturePair, weighted_sum
from mixedit.prompt import _TEMPLATE_FORMS, ParseError, default_lexicon, parse
from mixedit.taskspace import Composition, Task, TrivialEdit, classify

actions_list = st.lists(st.sampled_from(list(Action)), min_size=2, max_size=6)
scales = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


def _signal(seed, n=512):
    return np.random.default_rng(seed).standard_normal(n)


@given(actions_list)
def test_instruction_validation_accepts_iff_nontrivial(vec):
    sigs = [AudioSignature(f"label {i}") for i in range(len(vec))]
    trivial = all(a is Action.KEEP for a in vec) or \
        all(a is Action.REMOVE for a in vec)
    try:
        validate_instruction(list(zip(vec, sigs)))
        assert not trivial
    except (TrivialIdentity, TrivialSilence):
        assert trivial


@given(st.integers(0, 4), st.integers(0, 4), actions_list)
def test_classify_is_total_over_nontrivial_vectors(n_speech, n_audio, vec):
    total = n_speech + n_audio
    if total < 2:
        return
    comp = Composition(n_speech, n_audio)
    vec = (vec * 4)[:total]
    try:
        task = classify(vec, comp)
    except TrivialEdit:
        assert len(set(vec)) == 1 and vec[0] in (Action.KEEP, Action.REMOVE)
        return
    assert isinstance(task, Task)


@given(scales, st.integers(0, 1000))
def test_snr_invariant_under_common_scaling(scale, seed):
    est, ref = _signal(seed), _signal(seed + 1)
    assert abs(snr(scale * est, scale * ref).value
               - snr(est, ref).value) < 1e-8


@given(scales, st.integers(0, 1000))
def test_si_sdr_invariant_under_estimate_scaling(scale, seed):
    est, ref = _signal(seed), _signal(seed + 1)
    assert abs(si_sdr(scale * est, ref).value - si_sdr(est, ref).value) < 1e-8


@settings(max_examples=30)
@given(st.integers(1, 200_000), st.integers(0, 2 ** 32))
def test_condition_is_idempotent(length, seed):
    clip = Clip(np.linspace(-0.9, 0.9, length), 16000)
    once = condition(clip, 1.0, seed=seed)
    twice = condition(once, 1.0, seed=seed + 1)
    assert len(once) == 16000
    assert np.array_equal(once.samples, twice.samples)


@settings(max_examples=30)
@given(st.integers(0, 500), st.floats(0.1, 50.0))
def test_mixture_pair_never_exceeds_full_scale(seed, gain):
    rng = np.random.default_rng(seed)
    sources = [Clip(gain * rng.standard_normal(256), 16000) for _ in range(3)]
    pair = MixturePair.build(sources, [Action.KEEP, Action.VOLUME_UP,
                                       Action.REMOVE])
    for clip in (pair.input, pair.target, *pair.sources):
        assert np.abs(clip.samples).max() <= 1.0 + 1e-12


@settings(max_examples=30)
@given(st.integers(0, 500))
def test_weighted_sum_additive_in_weights(seed):
    rng = np.random.default_rng(seed)
    sources = [Clip(rng.standard_normal(128), 16000) for _ in range(3)]
    a = [float(rng.uniform(0, 2)) for _ in range(3)]
    b = [float(rng.uniform(0, 2)) for _ in range(3)]
    lhs = weighted_sum(sources, a).samples + weighted_sum(sources, b).samples
    rhs = weighted_sum(sources, [x + y for x, y in zip(a, b)]).samples
    assert np.allclose(lhs, rhs, atol=1e-9)


# ---------------- external inputs fail typed ----------------

_RECORD = json.loads(ManifestRecord(
    record_id=0, seed=1, n_speech=0, n_audio=2,
    sources=[SourceRef("a", "a.wav", {"kind": "audio", "label": "dog"}, 0.0),
             SourceRef("b", "b.wav", {"kind": "audio", "label": "cat"}, 1.5)],
    actions=["keep", "remove"], task="T1",
    simplified=[{"action": "remove", "kind": "audio", "label": "cat"}],
    prompt="p", prompt_provenance="template",
).to_json())

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


# Values a source field is likely to be mistyped with.
source_values = json_values | st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), 1e6, -1e6, 1e308, 10 ** 400,
     2.5, -40, True, "x", "a.wav", ["a"], {"kind": "audio"}])


def _mutated(draw, doc: dict, values) -> dict:
    key = draw(st.sampled_from(sorted(doc) + ["extra"]))
    if draw(st.booleans()):
        doc.pop(key, None)
    else:
        doc[key] = draw(values)
    return doc


@st.composite
def mutated_records(draw, record: dict):
    return json.dumps(_mutated(draw, dict(record), json_values))


@st.composite
def mutated_sources(draw, record: dict):
    doc = dict(record)
    doc["sources"] = [dict(source) for source in record["sources"]]
    i = draw(st.integers(0, len(doc["sources"]) - 1))
    _mutated(draw, doc["sources"][i], source_values)
    return json.dumps(doc)


@st.composite
def records_with_outputs(draw, record: dict):
    """``record`` with an ``outputs`` object; each name is likely one that
    eval cannot read under a tree, or one of the record's own sources."""
    names = st.text(max_size=8) | st.sampled_from(
        ["", ".", "..", "a\x00b", *(s["path"] for s in record["sources"])])
    outputs = draw(st.fixed_dictionaries(
        {"input": names, "target": names, "prompt": names}))
    return json.dumps({**record, "outputs": outputs})


@pytest.fixture(scope="module")
def source_record(tmp_path_factory) -> dict:
    """``_RECORD`` with its sources as short WAV files on disk."""
    root = tmp_path_factory.mktemp("sources")
    t = np.arange(1600) / 16000
    doc = dict(_RECORD)
    doc["sources"] = [dict(source) for source in _RECORD["sources"]]
    for source, hz in zip(doc["sources"], (440, 2093)):
        write_wav(root / source["path"],
                  Clip(0.3 * np.sin(2 * np.pi * hz * t), 16000))
        source["path"] = str(root / source["path"])
    return doc


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_manifest_line_loads_or_raises_typed(source_record, data):
    line = data.draw(st.one_of(
        st.text(), json_values.map(json.dumps),
        mutated_records(source_record), mutated_sources(source_record),
        records_with_outputs(source_record)))
    try:
        record = ManifestRecord.from_json(line)
    except MixeditError:
        return
    # A loaded record serves what eval and the batch callers read of it,
    # and synthesis either writes it or keeps its failure to it.
    f"{record.record_id:06d}"
    record.action_vector()
    record.signatures()
    with tempfile.TemporaryDirectory() as tmp:
        if record.outputs is not None:
            try:
                _record_clips(Path(tmp), record)
            except MixeditError:
                pass
        summary = synthesize([record], tmp)
        assert summary.succeeded + len(summary.failures) == 1
        # eval reads back what synthesis wrote through the manifest's names.
        for written in load_manifest(Path(tmp) / "manifest.jsonl"):
            _record_clips(Path(tmp), written)


@functools.cache
def _checkpoint() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.mxn"
        cfg = MaskNetConfig(channels=2, kernel=4, blocks=1, embed_dim=2)
        save_net(path, FilmMaskNet.init(cfg, seed=0))
        return path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_checkpoint_prefixes_and_byte_flips_fail_typed(data):
    good = _checkpoint()
    pos = data.draw(st.integers(0, len(good) - 1), label="pos")
    truncate = data.draw(st.booleans(), label="truncate")
    if truncate:
        blob = good[:pos]
    else:
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != good[pos]),
                         label="byte")
        blob = good[:pos] + bytes([byte]) + good[pos + 1:]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.mxn"
        path.write_bytes(blob)
        try:
            load_net(path)
            assert not truncate, "a truncated checkpoint must not load"
        except BadContainer:
            pass


@functools.cache
def _small_wav(pcm16: bool) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "clip.wav"
        write_wav(path, Clip(np.linspace(-0.5, 0.5, 64), 16000), pcm16)
        return path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_wav_prefixes_and_header_bit_flips_load_or_raise_bad_wav(data):
    good = _small_wav(data.draw(st.booleans(), label="pcm16"))
    if data.draw(st.booleans(), label="truncate"):
        blob = good[:data.draw(st.integers(0, len(good)), label="cut")]
    else:
        pos = data.draw(st.integers(0, 79), label="pos")
        bit = data.draw(st.integers(0, 7), label="bit")
        blob = good[:pos] + bytes([good[pos] ^ 1 << bit]) + good[pos + 1:]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "clip.wav"
        path.write_bytes(blob)
        try:
            read_wav(path)
        except BadWavFile:
            pass


u32 = st.integers(0, 2 ** 32 - 1)
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _usually(common: list, rare: list):
    """One of ``common`` four times as often as each of ``rare``."""
    return st.sampled_from(common * 4 + rare)


@st.composite
def fmt_bodies(draw):
    """A 'fmt ' chunk body, mostly of valid field values, sometimes of edge
    values or any bytes at all; extensible or not."""
    if draw(_usually([False], [True])):
        return draw(st.binary(max_size=40))
    tag = draw(_usually([1, 3, 0xFFFE], [6, 0x55]))
    sub = draw(_usually([1, 3], [6])) if tag == 0xFFFE else tag
    channels = draw(_usually([1, 2, 3], [0, 300]))
    bits = draw(_usually([32, 64] if sub == 3 else [8, 16, 24, 32], [0, 12, 64]))
    align = draw(_usually([channels * bits // 8 % 2 ** 16], [0, 4]))
    rate = draw(_usually([16000], [0, 2 ** 32 - 1]))
    body = struct.pack("<HHIIHH", tag, channels, rate, rate * align % 2 ** 32,
                       align, bits)
    if tag == 0xFFFE or draw(st.booleans()):  # cbSize onwards
        body += struct.pack("<HHII", 22, bits, 0, sub)
        body += draw(_usually([_GUID_TAIL], [b"", bytes(12)]))
    return body


@st.composite
def riff_files(draw):
    """A fmt and a data chunk, sometimes with other chunks, out of order,
    or with one chunk declaring a wrong size."""
    chunks = [(b"fmt ", draw(fmt_bodies())),
              (b"data", draw(st.binary(max_size=64)))]
    chunks += draw(st.lists(st.tuples(
        st.sampled_from([b"fact", b"LIST", b"fmt ", b"data"])
        | st.binary(min_size=4, max_size=4),
        st.binary(max_size=16)), max_size=2))
    if draw(_usually([False], [True])):
        chunks = draw(st.permutations(chunks))
    liar = draw(_usually([None], list(range(len(chunks)))))
    blob = b"WAVE"
    for i, (chunk_id, body) in enumerate(chunks):
        size = draw(u32) if i == liar else len(body)
        blob += chunk_id + struct.pack("<I", size) + body + b"\0" * (len(body) % 2)
    head = draw(_usually([b"RIFF"], [b"RF64", b"RIFX"]))
    return head + struct.pack("<I", draw(u32)) + blob


@settings(max_examples=1000, deadline=None)
@given(st.binary() | riff_files())
def test_any_bytes_load_as_wav_or_raise_bad_wav(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "clip.wav"
        path.write_bytes(blob)
        try:
            read_wav(path)
        except BadWavFile:
            pass


row_values = json_values | st.sampled_from(
    ["a.wav", "speech", "audio", "dog", "female", "low", "neutral"])
metadata_rows = st.lists(
    st.dictionaries(st.sampled_from(
        ["id", "type", "path", "label", "speaker", *STYLE_FIELDS]),
        row_values, max_size=9),
    max_size=4)


@settings(max_examples=300, deadline=None)
@given(metadata_rows)
def test_any_metadata_rows_ingest_or_raise_typed(rows):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "a.wav").write_bytes(b"")
        (root / "metadata.json").write_text(json.dumps(rows), "utf-8")
        try:
            ingest(root)
        except MixeditError:
            pass


csv_cells = row_values.map(lambda v: v if isinstance(v, str) else json.dumps(v))


@st.composite
def metadata_csvs(draw):
    """A header of metadata columns and rows of any width beneath it."""
    header = draw(st.lists(st.sampled_from(
        ["id", "type", "path", "label", "speaker", *STYLE_FIELDS]), max_size=9))
    rows = draw(st.lists(st.lists(csv_cells, max_size=len(header) + 1),
                         max_size=4))
    text = io.StringIO()
    csv.writer(text).writerows([header, *rows])
    return text.getvalue()


@settings(max_examples=300, deadline=None)
@given(st.text() | metadata_csvs())
def test_any_metadata_csv_ingests_or_raises_typed(text):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "a.wav").write_bytes(b"")
        (root / "metadata.csv").write_text(text, "utf-8")
        try:
            ingest(root, metadata=root / "metadata.csv")
        except MixeditError:
            pass


def _config_objects(keys: list[str], values):
    return st.dictionaries(st.sampled_from(keys + ["extra"]), values,
                           max_size=len(keys) + 1)


_TOY_KEYS = [f.name for f in dataclasses.fields(MaskNetConfig)] + [
    "steps", "lr", "lr_decay"]


@settings(max_examples=300, deadline=None)
@given(_config_objects(_TOY_KEYS, json_values | st.integers(-2, 64)))
def test_any_toy_config_reaches_the_net_config_or_raises_typed(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc), "utf-8")
        try:
            _, settings = _read_toy_config(path)
        except BadConfigFile:
            return
    try:  # the net config checks sizes itself; no training here
        MaskNetConfig(**{f.name: settings[f.name]
                         for f in dataclasses.fields(MaskNetConfig)})
    except MixeditError:
        pass


_REPHRASE_VALUES = json_values | st.sampled_from([
    "http://127.0.0.1:1/rephrase", "https://[::1]:1/", "http://[::1", "x:",
    "not a url", "{n}", "{n:d} times", "{n!r}", "{", "{0}", "{n.x}", "{n[0]}",
])


@settings(max_examples=300, deadline=None)
@given(_config_objects([f.name for f in dataclasses.fields(RephraseConfig)],
                       _REPHRASE_VALUES))
def test_any_rephrase_config_loads_or_raises_typed(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rephrase.json"
        path.write_text(json.dumps(doc), "utf-8")
        try:
            config = RephraseConfig.from_file(path)
        except BadRephraseConfig:
            return
    # A loaded config builds its request: the wrapper formats, the types
    # hold and the endpoint is an http(s) URL or absent.
    config.wrapper.format(n=config.n)
    assert type(config.n) is int and type(config.max_concurrency) is int
    assert 1 <= config.max_concurrency <= 32
    assert isinstance(config.api_key_env, str)
    assert 0 < config.timeout_s <= 86400
    assert config.endpoint is None or urlsplit(
        config.endpoint).scheme in ("http", "https")


def _prompt_tokens() -> list[str]:
    """Words and phrases the prompt grammar reacts to, plus glue."""
    lex = default_lexicon()
    tokens = [opening.strip() for opening, _ in _TEMPLATE_FORMS.values()]
    tokens += [p for phrases in lex.verbs.values() for p in phrases]
    tokens += [p for table in lex.terms.values()
               for phrases in table.values() for p in phrases]
    tokens += list(lex.speaker_terms) + list(lex.sound_terms)
    tokens += [s.text for group in lex.specials.values() for s in group]
    tokens += list(_DEMO_LABELS)
    tokens += ["the", "a", "an", "and", "with", "by", "characterized by",
               ",", ".", "?", "!", "", " ", "\t", "\n", "İ"]
    return tokens


prompt_texts = st.lists(st.sampled_from(_prompt_tokens()), max_size=14).flatmap(
    lambda words: st.sampled_from([" ".join(words), ", ".join(words),
                                   "".join(words)]))


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(), prompt_texts))
@example("Please remove the İİİİ.")  # "İ".lower() is two code points
def test_any_prompt_parses_or_raises_parse_error(text):
    try:
        parse(text, _DEMO_LABELS)
    except ParseError as err:
        start, end = err.span
        assert 0 <= start <= end <= len(text)


# ---------------- edit and eval end with an exit code ----------------

_RATE = 16000


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """Good, corrupt and missing inputs for ``edit`` and ``eval``: two tones
    that sum to ``mix.wav`` in a catalog labelling them, a tiny FiLM
    checkpoint, estimate directories, and ``generate``-style trees of one
    record: good, with a corrupt manifest, and missing the target WAV."""
    root = tmp_path_factory.mktemp("cli")
    t = np.arange(1600) / _RATE
    tones = {"s1": 0.4 * np.sin(2 * np.pi * 440 * t),
             "s2": 0.3 * np.sin(2 * np.pi * 2093 * t)}
    tones["mix"] = tones["s1"] + tones["s2"]
    for name, wave in tones.items():
        write_wav(root / f"{name}.wav", Clip(wave, _RATE))
    write_wav(root / "slow.wav", Clip(tones["s1"], 8000))
    (root / "corrupt.wav").write_bytes((root / "s1.wav").read_bytes()[:30])
    (root / "dir.wav").mkdir()
    (root / "metadata.json").write_text(json.dumps([
        {"id": "a", "path": "s1.wav", "type": "audio", "label": "low tone"},
        {"id": "b", "path": "s2.wav", "type": "audio", "label": "high tone"},
    ]))
    (root / "badcat").mkdir()
    (root / "badcat" / "metadata.json").write_text('[{"id": ')
    net = FilmMaskNet.init(MaskNetConfig(channels=4, blocks=1, embed_dim=4))
    save_net(root / "net.mxn", net)
    (root / "corrupt.mxn").write_bytes((root / "net.mxn").read_bytes()[:40])
    for est, wav in (("est", "s1"), ("inp", "mix"), ("badest", "corrupt"),
                     ("slowest", "slow")):
        (root / est).mkdir()
        (root / est / "000000.wav").write_bytes(
            (root / f"{wav}.wav").read_bytes())
    (root / "empty").mkdir()
    outputs = {"input": "000000_input.wav", "target": "000000_target.wav",
               "prompt": "000000_prompt.txt"}
    for tree in ("tree", "badtree", "holetree"):
        (root / tree).mkdir()
        for role, wav in (("input", "mix"), ("target", "s1")):
            (root / tree / outputs[role]).write_bytes(
                (root / f"{wav}.wav").read_bytes())
        (root / tree / "manifest.jsonl").write_text(
            json.dumps({**_RECORD, "outputs": outputs}) + "\n")
    (root / "badtree" / "manifest.jsonl").write_bytes(b"\xff\xfe")
    (root / "holetree" / outputs["target"]).unlink()
    return root


# Each list repeats its good entries, so that most draws get far enough to
# edit.
_MIXTURES = ["mix.wav"] * 4 + ["s1.wav", "slow.wav", "corrupt.wav", "dir.wav",
                               "missing.wav"]
_SOURCES = [["s1.wav", "s2.wav"]] * 4 + [
    [], ["s1.wav"], ["s2.wav", "s1.wav"], ["s1.wav", "s2.wav", "s2.wav"],
    ["s1.wav", "corrupt.wav"], ["s1.wav", "slow.wav"], ["missing.wav"]]
_EDIT_PROMPTS = [
    "Please remove the low tone sound.",
    "Please keep the low tone sound, and remove the high tone sound.",
    "Please remove the low tone sound, and remove the high tone sound.",
    "Can you turn up the high tone sound?",
    "Please frobnicate the tone.",
]


def _edit_argv(data, root: Path, out: Path) -> list[str]:
    pick = data.draw
    argv = ["edit", "--mixture", str(root / pick(st.sampled_from(_MIXTURES)))]
    sources = pick(st.sampled_from(_SOURCES))
    if sources:
        argv += ["--sources", *(str(root / name) for name in sources)]
    if pick(st.booleans()):
        argv += ["--actions", pick(st.sampled_from(
            ["0", "1", "u", "0,0", "1,0", "d,u", "1,1", "0,1,1", "1,x"]))]
    else:
        argv += ["--prompt", pick(st.sampled_from(_EDIT_PROMPTS))]
    catalog = pick(st.sampled_from([".", ".", ".", None, "badcat", "missing"]))
    if catalog:
        argv += ["--catalog", str(root / catalog)]
    argv += ["--editor", pick(st.sampled_from(["oracle", "psm", "irm",
                                                "film"]))]
    model = pick(st.sampled_from(["net.mxn", "net.mxn", None, "corrupt.mxn",
                                  "missing.mxn"]))
    if model:
        argv += ["--model", str(root / model)]
    # A side file goes next to the output or into a missing directory.
    for option, name in (("--metrics-out", "metrics.json"),
                         ("--dump-mask", "mask")):
        if pick(st.booleans()):
            where = pick(st.sampled_from([out.parent, out.parent / "missing"]))
            argv += [option, str(where / name)]
    if pick(st.booleans()):
        argv.append("--pcm16")
    return argv + ["--seed", str(pick(st.integers(0, 3))), "--out", str(out)]


def _eval_argv(data, root: Path) -> list[str]:
    pick = data.draw
    estimates = st.sampled_from(["est", "est", "inp", "badest", "slowest",
                                 "empty", "missing", "tree"])
    trees = st.sampled_from(["tree", "tree", "tree", "badtree", "holetree",
                             "est", "missing", "mix.wav"])
    argv = ["eval", "--est", str(root / pick(estimates)),
            "--tree", str(root / pick(trees))]
    if pick(st.booleans()):
        argv.append("--json")
    return argv


# Ways argparse refuses an argv before any command runs: an unknown
# option, the first (required) option missing, a value of the wrong type
# (or, for eval, which takes no --seed, another unknown option).
_REJECTIONS = [
    lambda argv: argv + ["--frobnicate"],
    lambda argv: argv[:1] + argv[3:],
    lambda argv: argv + ["--seed", "x"],
]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_edit_and_eval_exit_0_1_or_2_and_fail_without_output(cli_inputs,
                                                              data):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "edited.wav"
        argv = (_edit_argv(data, cli_inputs, out) if data.draw(
            st.booleans(), label="edit") else _eval_argv(data, cli_inputs))
        reject = data.draw(st.sampled_from([None] * 4 + _REJECTIONS),
                           label="rejection")
        if reject:
            argv = reject(argv)
        code = main(argv)
        assert code in (0, 1, 2)
        if reject:
            assert code == 2
        if argv[0] == "edit":
            assert out.exists() == (code == 0)
