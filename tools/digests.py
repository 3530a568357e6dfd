#!/usr/bin/env python3
"""SHA-256 digests of what mixedit's commands write, so that "this change
keeps every output bit" is a diff of two runs.

    python3 tools/digests.py [--work DIR]

Each case runs its commands in-process through ``mixedit.cli.main``, in
DIR (a new temporary directory by default) with paths relative to it, and
prints one ``name sha256`` line per output file, tree or stdout; DIR's
own path, which manifests hold, is digested as ``$WORK``. The BLAS thread
variables and ``dsp.available_cpus()`` follow, since both decide which
bits the program writes. The cases, each run on what it builds itself in
DIR:

- ``demo``: the files of the 16-kHz demo catalog, then of the 48-kHz
  speech catalog and of the 44.1-kHz audio catalog that ``cat48`` merges,
  one digest per file set;
- ``generate``: trees and stdout of 4 records of 2,2 at ``--workers`` 1
  and 2, float32 and ``--pcm16``, from the 16-kHz demo catalog and from
  one with speech at 48 kHz and audio at 44.1 kHz;
- ``edit``: the WAV, metrics JSON, ``--dump-mask`` files and stdout of
  the oracle, IRM, PSM and FiLM (default ``MaskNetConfig``, seed 0)
  editors on one 5-s mixture; the mask files hold the raw grid each
  editor multiplied (STFT bins or latent channels by frames);
- ``eval``: ``eval --json`` stdout over FiLM edits of a 16-kHz tree's
  records from their prompts, and those edits;
- ``train-toy``: ``net.mxn``, ``loss_curve.csv``, ``config.json``,
  ``seed.json`` and stdout of three steps on that tree;
- ``film``: the cache of FiLM ``forward`` (default ``MaskNetConfig``,
  seed 0) on one 5-s noise clip, on the float64 net and its float32 copy;
- ``loss``: ``snr_loss_and_grad``'s loss and gradients (default
  ``MaskNetConfig``, seed 0), float64 and float32;
- ``train``: ``train_toy``'s losses and params, one digest, after two
  steps of a default ``MaskNetConfig`` net (seed 0) on three 5-s float32
  noise examples, whose parts the pool cuts unevenly on two CPUs;
- ``resample``: ``resample`` of fixed noise at 1, 255, 256, 257 and 1250
  output blocks, one digest per rate pair to 16 or 8 kHz; then one
  ``/split`` digest per pair, those and 48000 <-> 44100, at one block
  below and at the count from which it splits its blocks over the pool;
- ``parse``: ``parse`` over fixed corruptions of rendered 2,2 prompts,
  one digest over each prompt's instruction or error class and span;
- ``rejects``: one line per malformed input, the error class (or
  ``accepted``) of ``load_manifest``, the ``train-toy`` config reader
  followed by ``MaskNetConfig``, ``RephraseConfig.from_file``,
  ``load_net`` and ``MaskNetConfig``, so that a change in what is
  refused, and how, shows as a changed line.

The checkout's own ``src`` is imported, so a copy of this file in another
checkout digests that one. Run both under the same CPU set and BLAS
settings, for example ``OPENBLAS_NUM_THREADS=1 taskset -c 0,1``, and
diff the outputs. It uses numpy and the stdlib only, and is a tool, not a
gate.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import struct
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

# mixedit first: it sets the BLAS thread defaults before numpy loads.
from mixedit import cli, dsp  # noqa: E402
from mixedit.core import (AudioSignature, SpeechSignature,  # noqa: E402
                          StyleVector, validate_instruction)
from mixedit.dataset import (RephraseConfig,  # noqa: E402
                             build_demo_catalog, load_manifest, read_wav,
                             write_wav)
from mixedit.dataset.manifest import simplified_to_json  # noqa: E402
from mixedit.editor import (FilmMaskNet, MaskNetConfig,  # noqa: E402
                            TrainExample, load_net, save_net, train_toy)
from mixedit.editor.film import snr_loss_and_grad  # noqa: E402
from mixedit.errors import MixeditError  # noqa: E402
from mixedit.mixer import mix  # noqa: E402
from mixedit.prompt import (ParseError, TemplateId, parse,  # noqa: E402
                            render, simplify)
from mixedit.taskspace import Composition, sample_edit  # noqa: E402

import numpy as np  # noqa: E402

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RECORDS = 4
SEED = 7


def _sha(data: bytes) -> str:
    """The digest of ``data`` with the work directory's absolute path, which
    a manifest's source paths hold, read as ``$WORK``."""
    work = os.path.realpath(os.getcwd()).encode()
    return hashlib.sha256(data.replace(work, b"$WORK")).hexdigest()


def _values(value) -> str:
    """One digest over nested dicts, lists and tuples of arrays and
    scalars: each array's dtype, shape and bytes, each scalar's repr."""
    sha = hashlib.sha256()

    def feed(item):
        if isinstance(item, dict):
            for key in sorted(item):
                sha.update(f"{key}:".encode())
                feed(item[key])
        elif isinstance(item, (list, tuple)):
            sha.update(f"[{len(item)}".encode())
            for part in item:
                feed(part)
        elif isinstance(item, np.ndarray):
            sha.update(f"{item.dtype.str}{item.shape}".encode())
            sha.update(np.ascontiguousarray(item).tobytes())
        else:
            sha.update(repr(item).encode())

    feed(value)
    return sha.hexdigest()


def _file(path) -> str:
    return _sha(Path(path).read_bytes())


def _tree(root) -> str:
    """One digest over every file under ``root``: its relative path and its
    own digest, in path order."""
    root = Path(root)
    lines = (f"{p.relative_to(root).as_posix()} {_file(p)}\n"
             for p in sorted(root.rglob("*")) if p.is_file())
    return _sha("".join(lines).encode())


def _run(*argv) -> str:
    """The stdout of one mixedit command, which must exit 0."""
    argv = [str(a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"mixedit {' '.join(argv)} exited {code}: "
                           f"{err.getvalue().strip()}")
    return out.getvalue()


def _catalog(name: str) -> Path:
    """``cat16``, the 16-kHz demo catalog, or ``cat48``, its speech at
    48 kHz and its audio at 44.1 kHz, so that every source is resampled;
    built on first use."""
    root = Path(name)
    if root.exists():
        return root
    if name == "cat16":
        build_demo_catalog(root, seed=0)
        return root
    rows = []
    for rate, kind in ((48000, "speech"), (44100, "audio")):
        meta = build_demo_catalog(root / kind, seed=0, rate=rate)
        rows += [dict(row, path=f"{kind}/{row['path']}")
                 for row in json.loads(meta.read_text()) if row["type"] == kind]
    (root / "metadata.json").write_text(json.dumps(rows))
    return root


def _data() -> Path:
    """A float32 ``generate`` tree of the 16-kHz catalog, made once."""
    tree = Path("data")
    if not tree.exists():
        _run("generate", "--catalog", _catalog("cat16"), "--out", tree,
             "--count", RECORDS, "--seed", SEED)
    return tree


def _film_net() -> Path:
    """An untrained FiLM net of the default config, saved once."""
    path = Path("film.mxn")
    if not path.exists():
        save_net(path, FilmMaskNet.init(MaskNetConfig(), seed=0))
    return path


def _mixture() -> tuple[Path, Path, list[Path]]:
    """``(mixture, catalog, sources)``: the first speech and the first
    audio clip of the 16-kHz catalog, each conditioned to 5 s, in a
    catalog of their own so that ``edit`` can look them up, and their
    sum; made once."""
    root, mixture = Path("mix5"), Path("mixture.wav")
    sources = [root / "speech.wav", root / "audio.wav"]
    if not mixture.exists():
        cat = _catalog("cat16")
        rows = json.loads((cat / "metadata.json").read_text())
        picked = [next(r for r in rows if r["type"] == kind)
                  for kind in ("speech", "audio")]
        root.mkdir()
        for row, path in zip(picked, sources):
            write_wav(path, dsp.condition(read_wav(cat / row["path"]),
                                          5.0, seed=0))
            row["path"] = path.name
        (root / "metadata.json").write_text(json.dumps(picked))
        write_wav(mixture, mix(read_wav(p) for p in sources))
    return mixture, root, sources


def case_demo():
    yield "demo/cat16", _tree(_catalog("cat16"))
    for kind in ("speech", "audio"):
        yield f"demo/cat48/{kind}", _tree(_catalog("cat48") / kind)


def case_generate():
    for cat in ("cat16", "cat48"):
        for workers in (1, 2):
            for pcm16 in (False, True):
                name = f"{cat}-w{workers}-{'pcm16' if pcm16 else 'f32'}"
                out = Path(f"generate-{name}")
                stdout = _run("generate", "--catalog", _catalog(cat),
                              "--out", out, "--count", RECORDS, "--seed",
                              SEED, "--workers", workers,
                              *["--pcm16"] * pcm16)
                yield f"generate/{name}/tree", _tree(out)
                yield f"generate/{name}/stdout", _sha(stdout.encode())


def case_edit():
    mixture, catalog, sources = _mixture()
    for editor in ("oracle", "irm", "psm", "film"):
        film = ["--catalog", catalog, "--model", _film_net()] * (
            editor == "film")
        stdout = _run("edit", "--mixture", mixture, "--sources", *sources,
                      "--actions", "u,0", "--editor", editor, *film,
                      "--out", f"edit-{editor}.wav",
                      "--metrics-out", f"edit-{editor}.json",
                      "--dump-mask", f"mask-{editor}")
        yield f"edit/{editor}/wav", _file(f"edit-{editor}.wav")
        yield f"edit/{editor}/metrics", _file(f"edit-{editor}.json")
        if editor != "oracle":  # the oracle has no mask to dump
            for ext in ("csv", "pgm"):
                yield f"edit/{editor}/mask.{ext}", _file(f"mask-{editor}.{ext}")
        yield f"edit/{editor}/stdout", _sha(stdout.encode())


def case_eval():
    tree, est = _data(), Path("est")
    est.mkdir()
    for record in load_manifest(tree / "manifest.jsonl"):
        _run("edit", "--mixture", tree / record.outputs["input"],
             "--catalog", _catalog("cat16"), "--prompt", record.prompt,
             "--editor", "film", "--model", _film_net(),
             "--out", est / f"{record.record_id:06d}.wav")
    yield "eval/estimates", _tree(est)
    stdout = _run("eval", "--est", est, "--tree", tree, "--json")
    yield "eval/stdout", _sha(stdout.encode())


def case_train_toy():
    config, run = Path("toy.json"), Path("run")
    config.write_text(json.dumps({"steps": 3}))
    stdout = _run("train-toy", "--config", config, "--tree", _data(),
                  "--out-dir", run, "--seed", SEED)
    for name in ("net.mxn", "loss_curve.csv", "config.json", "seed.json"):
        yield f"train-toy/{name}", _file(run / name)
    yield "train-toy/stdout", _sha(stdout.encode())


def _nets(config: MaskNetConfig):
    """``(name, net)`` for the float64 net of ``config`` at seed 0 and for
    its float32 copy."""
    net = FilmMaskNet.init(config, seed=0)
    yield "float64", net
    yield "float32", FilmMaskNet(config, {
        key: val.astype(np.float32) for key, val in net.params.items()})


def _noise(rng, *shape) -> np.ndarray:
    return 0.1 * rng.standard_normal(shape)


def case_film():
    rng = np.random.default_rng(SEED)
    x, z = _noise(rng, 5 * 16000), rng.standard_normal(32)
    for name, net in _nets(MaskNetConfig()):
        yield f"film/{name}/forward", _values(net.forward(x, z))


def case_loss():
    rng = np.random.default_rng(SEED)
    sources = _noise(rng, 2, 5 * 16000)
    x, y, z = sources.sum(axis=0), sources[0], rng.standard_normal(32)
    for name, net in _nets(MaskNetConfig()):
        yield f"loss/{name}", _values(snr_loss_and_grad(net, x, z, y))


def case_train():
    rng = np.random.default_rng(SEED)
    examples = []
    for _ in range(3):
        x, y = _noise(rng, 2, 5 * 16000).astype(np.float32)
        examples.append(TrainExample(x, rng.standard_normal(32), y))
    net = FilmMaskNet.init(MaskNetConfig(), seed=0)
    result = train_toy(net, examples, steps=2)
    yield "train", _values([result.losses, result.net.params])


RESAMPLE_PAIRS = [(8000, 16000), (11025, 16000), (22050, 16000),
                  (24000, 16000), (32000, 16000), (44100, 16000),
                  (48000, 16000), (96000, 16000), (16000, 8000)]
# The block count from which ``resample`` runs two halves, for each pair
# that ``/split`` digests at one block below it and at it: the pairs
# above and 48000 <-> 44100. Fixed here, so that a changed rule runs the
# same inputs and shows as changed digests.
SPLIT_FROM = {(8000, 16000): 770, (11025, 16000): 236, (22050, 16000): 150,
              (24000, 16000): 408, (32000, 16000): 306, (44100, 16000): 110,
              (48000, 16000): 204, (96000, 16000): 130, (16000, 8000): 306,
              (48000, 44100): 274, (44100, 48000): 274}


def _resampled(rng, src: int, tgt: int, counts) -> list[np.ndarray]:
    """``resample`` of noise at each count of output blocks, the last
    block half full."""
    period, _, _ = dsp._resample_plan(src, tgt)
    clips = (dsp.Clip(_noise(rng, (n * period - period // 2) * src // tgt),
                      src) for n in counts)
    return [dsp.resample(clip, tgt).samples for clip in clips]


def case_resample():
    rng = np.random.default_rng(SEED)
    for src, tgt in RESAMPLE_PAIRS:
        yield f"resample/{src}-{tgt}", _values(
            _resampled(rng, src, tgt, (1, 255, 256, 257, 1250)))
    for (src, tgt), least in SPLIT_FROM.items():
        yield f"resample/{src}-{tgt}/split", _values(
            _resampled(rng, src, tgt, (least - 1, least)))


def _corruptions(text: str, rng: random.Random) -> list[str]:
    """``text`` and seven damaged copies: a word dropped, two neighbours
    swapped, a word doubled, a cut, a character replaced, capitals, and a
    stray word."""
    words = text.split(" ")
    i = rng.randrange(len(words))
    j = rng.randrange(len(words) - 1)
    cut = rng.randrange(len(text))
    at = rng.randrange(len(text))
    swapped = words[:j] + [words[j + 1], words[j]] + words[j + 2:]
    return [
        text,
        " ".join(words[:i] + words[i + 1:]),
        " ".join(swapped),
        " ".join(words[:i + 1] + words[i:]),
        text[:cut],
        text[:at] + rng.choice(",.?;x ") + text[at + 1:],
        text.upper(),
        " ".join(words[:i] + [rng.choice(("and", "not", "the", "all"))]
                 + words[i:]),
    ]


def case_parse():
    sigs = [SpeechSignature(StyleVector.from_strings(*style)) for style in (
        ("female", "normal", "high", "high", "happy"),
        ("male", "low", "low", "normal", "sad"))]
    sigs += [AudioSignature("playing cello"), AudioSignature("dog barking")]
    labels = {"playing cello", "dog barking"}
    rng = random.Random(SEED)
    lines = []
    for seed in range(60):
        _, actions = sample_edit(Composition(2, 2), seed)
        simp = simplify(validate_instruction(list(zip(actions, sigs))), seed)
        text = render(simp, list(TemplateId)[seed % 3], seed=seed).text
        for prompt in _corruptions(text, rng):
            try:
                result = json.dumps(simplified_to_json(parse(prompt, labels)),
                                    sort_keys=True)
            except ParseError as err:
                result = f"{type(err).__name__} {err.span}"
            lines.append(f"{prompt!r} {result}\n")
    yield "parse/results", _sha("".join(lines).encode())


_GOOD_RECORD = {
    "schema": 1, "record_id": 0, "seed": 1, "n_speech": 0, "n_audio": 1,
    "sources": [{"id": "a", "path": "a.wav", "snr_db": 0.0,
                 "signature": {"kind": "audio", "label": "dog"}}],
    "actions": ["up"], "task": "T1", "prompt": "p",
    "simplified": [{"action": "up", "kind": "audio", "label": "dog"}],
    "prompt_provenance": "template"}

# Malformed inputs of each reader, as JSON texts; every row names one
# field or one damage.
_BAD_RECORD_FIELDS = [
    ("record_id", '"0"'), ("record_id", "true"), ("record_id", "0.0"),
    ("seed", "null"), ("n_speech", '"0"'), ("n_audio", "1.5"),
    ("task", "5"), ("prompt", "[]"), ("prompt_provenance", "null"),
    ("actions", "{}"), ("actions", '["loud"]'), ("actions", '"up"'),
    ("simplified", '"x"'), ("simplified", "[1]"), ("template", "7"),
    ("scale", "NaN"), ("scale", "1e400"), ("scale", "true"), ("scale", '"1"'),
    ("outputs", "[]"), ("outputs", '{"input":3}'), ("schema", "2"),
    ("schema", "1.0"), ("sources", "[]"), ("sources", "[1]"),
    ("sources", '"a"'), ("extra", "0"), ("template", "null"), ("scale", "1"),
]
_BAD_SOURCE_FIELDS = [
    ("id", "3"), ("path", "null"), ("signature", '"audio:dog"'),
    ("signature", '{"kind":"audio"}'), ("snr_db", "NaN"), ("snr_db", '"x"'),
    ("snr_db", "true"), ("snr_db", "1e400"), ("gain", "false"),
    ("gain", "-Infinity"), ("gain", "null"), ("extra", "0"),
]
_BAD_TOY = [
    '{"steps":1,', "[1,2]", '{"steps":"a"}', '{"steps":0}', '{"lr":"x"}',
    '{"lr":NaN}', '{"lr":1e400}', '{"lr_decay":-1}', '{"lr_decay":Infinity}',
    '{"mask_max":NaN}', '{"mask_max":1e400}', '{"mask_max":-1}',
    '{"mask_max":"3"}', '{"mask_max":null}', '{"channels":8.0}',
    '{"channels":true}', '{"channels":0}', '{"kernel":15}', '{"hidden":null}',
    '{"hidden":0}', '{"hidden":"4"}', '{"n_masks":-1}', '{"seed":0}', "{}",
    # film._MAX_BLOCKS is 16: one net past it, one at it.
    '{"blocks":40,"steps":1}', '{"blocks":16,"steps":1}',
]
_BAD_REPHRASE = [
    "[]", '{"endpoint":5}', '{"endpoint":"ftp://x"}', '{"endpoint":null}',
    '{"timeout_s":NaN}', '{"timeout_s":0}', '{"timeout_s":1e400}',
    '{"timeout_s":"1"}', '{"n":"5"}', '{"n":true}', '{"n":2.0}',
    '{"max_concurrency":0}', '{"max_concurrency":1.5}', '{"wrapper":"{0}"}',
    '{"wrapper":null}', '{"api_key_env":null}', '{"api_key_env":7}',
    '{"extra":1}', "{}",
]
_BAD_NET_FIELDS = [
    ("kernel", 15), ("channels", 0), ("channels", 8.0), ("channels", True),
    ("blocks", np.int64(0)), ("hidden", True), ("hidden", 0),
    ("mask_max", 0.0), ("mask_max", float("nan")), ("mask_max", float("inf")),
    ("mask_max", np.True_), ("embed_dim", np.bool_(True)),
    ("channels", np.int64(8)), ("mask_max", np.float32(2.0)), ("hidden", None),
]


def _outcome(read, *args) -> str:
    """The class of the MixeditError ``read(*args)`` raises, or
    ``accepted``."""
    try:
        read(*args)
    except MixeditError as err:
        return type(err).__name__
    return "accepted"


def _with(doc: dict, key: str, text: str) -> str:
    """``doc`` as JSON text, with ``key`` holding the JSON ``text``."""
    return json.dumps({**doc, key: "@"}).replace('"@"', text)


def _read_text(read, text: str):
    path = Path("rejects.json")
    path.write_text(text, "utf-8")
    return read(path)


def _toy_net(path):
    _, settings = cli._read_toy_config(path)
    MaskNetConfig(**{f.name: settings[f.name] for f in fields(MaskNetConfig)})


def _containers():
    """``(damage, bytes)`` of malformed ``.mxn`` containers of a small
    net."""
    save_net("small.mxn", FilmMaskNet.init(MaskNetConfig(
        channels=4, kernel=4, blocks=1, embed_dim=4), seed=0))
    data = Path("small.mxn").read_bytes()
    (length,) = struct.unpack_from("<I", data, 8)
    config = json.loads(data[12:12 + length])

    def with_config(key, value):
        blob = json.dumps({**config, key: value}).encode()
        return (data[:8] + struct.pack("<I", len(blob)) + blob
                + data[12 + length:])

    yield "intact", data
    yield "truncated", data[:len(data) // 2]
    yield "magic", b"MXN2" + data[4:]
    yield "version", data[:4] + struct.pack("<I", 2) + data[8:]
    yield "trailing", data + b"\0"
    yield "tensor-name", data.replace(b"head.b", b"head.c")
    for key, value in (("mask_max", "3"), ("mask_max", None),
                       ("channels", True), ("channels", 8.0),
                       ("kernel", 3), ("extra", 1), ("n_masks", 2)):
        yield f"config-{key}={value!r}", with_config(key, value)


def case_rejects():
    for key, text in _BAD_RECORD_FIELDS:
        yield f"rejects/manifest/{key}={text}", _outcome(
            _read_text, load_manifest, _with(_GOOD_RECORD, key, text))
    source = _GOOD_RECORD["sources"][0]
    for key, text in _BAD_SOURCE_FIELDS:
        line = _with(_GOOD_RECORD, "sources", f"[{_with(source, key, text)}]")
        yield f"rejects/manifest/source.{key}={text}", _outcome(
            _read_text, load_manifest, line)
    good = json.dumps(_GOOD_RECORD)
    for name, text in (("good", good), ("repeated-id", f"{good}\n{good}"),
                       ("not-json", "{"), ("array", "[]")):
        yield f"rejects/manifest/{name}", _outcome(_read_text, load_manifest,
                                                   text)
    for text in _BAD_TOY:
        yield f"rejects/toy/{text}", _outcome(_read_text, _toy_net, text)
    for text in _BAD_REPHRASE:
        yield f"rejects/rephrase/{text}", _outcome(
            _read_text, RephraseConfig.from_file, text)
    for damage, data in _containers():
        Path("damaged.mxn").write_bytes(data)
        yield f"rejects/net/{damage}", _outcome(load_net, "damaged.mxn")
    for key, value in _BAD_NET_FIELDS:
        yield f"rejects/config/{key}={value!r}", _outcome(
            lambda: MaskNetConfig(**{key: value}))


CASES = {"demo": case_demo, "generate": case_generate, "edit": case_edit,
         "eval": case_eval, "train-toy": case_train_toy, "film": case_film,
         "loss": case_loss, "train": case_train, "resample": case_resample,
         "parse": case_parse, "rejects": case_rejects}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Print SHA-256 digests of mixedit's outputs.")
    parser.add_argument("--work", help="an empty or new directory to run "
                        "in; a temporary one, removed after, by default")
    args = parser.parse_args(argv)
    with contextlib.ExitStack() as stack:
        if args.work is None:
            work = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        else:
            work = Path(args.work)
            work.mkdir(parents=True, exist_ok=True)
            if any(work.iterdir()):
                parser.error(f"--work {work} is not empty")
        stack.callback(os.chdir, os.getcwd())
        os.chdir(work)
        for case in CASES.values():
            for name, digest in case():
                print(name, digest, flush=True)
    for var in BLAS_VARS:
        print(var, os.environ.get(var, "unset"))
    print("available_cpus", dsp.available_cpus())
    return 0


if __name__ == "__main__":
    sys.exit(main())
