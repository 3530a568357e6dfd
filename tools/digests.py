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

- ``generate``: trees and stdout of 4 records of 2,2 at ``--workers`` 1
  and 2, float32 and ``--pcm16``, from the 16-kHz demo catalog and from
  one with speech at 48 kHz and audio at 44.1 kHz;
- ``edit``: the WAV, metrics JSON, ``--dump-mask`` files and stdout of
  the oracle, IRM, PSM and FiLM (default ``MaskNetConfig``, seed 0)
  editors on one 5-s mixture;
- ``eval``: ``eval --json`` stdout over FiLM edits of a 16-kHz tree's
  records from their prompts, and those edits;
- ``train-toy``: ``net.mxn``, ``loss_curve.csv``, ``config.json``,
  ``seed.json`` and stdout of three steps on that tree.

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
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

# mixedit first: it sets the BLAS thread defaults before numpy loads.
from mixedit import cli, dsp  # noqa: E402
from mixedit.dataset import (build_demo_catalog, load_manifest,  # noqa: E402
                             read_wav, write_wav)
from mixedit.editor import FilmMaskNet, MaskNetConfig, save_net  # noqa: E402
from mixedit.mixer import mix  # noqa: E402

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RECORDS = 4
SEED = 7


def _sha(data: bytes) -> str:
    """The digest of ``data`` with the work directory's absolute path, which
    a manifest's source paths hold, read as ``$WORK``."""
    work = os.path.realpath(os.getcwd()).encode()
    return hashlib.sha256(data.replace(work, b"$WORK")).hexdigest()


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


CASES = {"generate": case_generate, "edit": case_edit, "eval": case_eval,
         "train-toy": case_train_toy}


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
