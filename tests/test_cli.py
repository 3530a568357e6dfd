"""Command-line surface: round trips, exit codes, JSON outputs."""

import argparse
import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import mixedit
from mixedit import cli, dsp
from mixedit.cli import main
from mixedit.core import Action
from mixedit.dataset import (RephraseConfig, build_demo_catalog, ingest,
                             load_manifest, read_wav, write_manifest,
                             write_wav)
from mixedit.dataset import synth
from mixedit.dataset.manifest import ManifestRecord, SourceRef
from mixedit.dsp import Clip
from mixedit.editor import (FilmMaskNet, MaskKind, MaskNetConfig,
                            embed_instruction, ideal_mask, load_net, save_net)
from mixedit.mixer import mix, target_mixture
from mixedit.prompt import parse
from mixedit.taskspace import Composition, defined_tasks, enumerate_edits

RATE = 16000


@pytest.fixture(scope="module")
def catalog_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("catalog")
    build_demo_catalog(root, seed=0)
    return root


@pytest.fixture(scope="module")
def demo_tree(catalog_dir, tmp_path_factory):
    """A ``generate`` tree of three 2,2 records of the demo catalog."""
    tree = tmp_path_factory.mktemp("demo") / "data"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", "--catalog", str(catalog_dir), "--out",
                     str(tree), "--count", "3", "--seed", "5"]) == 0
    return tree


@pytest.fixture()
def tone_setup(tmp_path):
    t = np.arange(2 * RATE) / RATE
    s1 = Clip(0.4 * np.sin(2 * np.pi * 440 * t), RATE)
    s2 = Clip(0.3 * np.sin(2 * np.pi * 2093 * t), RATE)
    mixture = Clip(s1.samples + s2.samples, RATE)
    paths = {}
    for name, clip in [("s1", s1), ("s2", s2), ("mix", mixture)]:
        path = tmp_path / f"{name}.wav"
        write_wav(path, clip)
        paths[name] = str(path)
    return tmp_path, paths, s1, s2


@pytest.fixture()
def tone_catalog(tone_setup):
    """``tone_setup`` with a metadata file naming both tones as audio."""
    (tone_setup[0] / "metadata.json").write_text(json.dumps([
        {"id": "a", "path": "s1.wav", "type": "audio", "label": "low tone"},
        {"id": "b", "path": "s2.wav", "type": "audio", "label": "high tone"},
    ]))
    return tone_setup


def test_tasks_table(capsys):
    assert main(["tasks", "--composition", "2,2"]) == 0
    out = capsys.readouterr().out
    assert "254" in out
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(lines) == 18  # header + 16 tasks + total


def test_tasks_json(capsys):
    assert main(["tasks", "--composition", "2,2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["total"] == 254
    assert doc["counts"]["MVC"] == 64
    assert doc["counts"]["MEVC"] == 160


@pytest.mark.parametrize("as_json", [False, True])
def test_tasks_enumerate_lists_every_edit(capsys, as_json):
    comp = Composition(1, 1)
    edits = {task: ["".join(a.symbol for a in vec)
                    for vec in enumerate_edits(task, comp)]
             for task in defined_tasks(comp)}
    assert main(["tasks", "--composition", "1,1", "--enumerate"]
                + ["--json"] * as_json) == 0
    out = capsys.readouterr().out
    if as_json:
        doc = json.loads(out)
        assert doc["edits"] == {t.value: v for t, v in edits.items()}
        assert sum(map(len, doc["edits"].values())) == doc["total"] == 14
    else:
        for task, vecs in edits.items():
            assert f"{task.symbol}: {' '.join(vecs)}" in out.splitlines()


def test_tasks_degenerate_composition(capsys):
    assert main(["tasks", "--composition", "2,0"]) == 0
    out = capsys.readouterr().out
    assert "n/a" in out
    assert main(["tasks", "--composition", "1,1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["total"] == 14


def test_tasks_too_many_sources_exits_1_at_once(capsys):
    start = time.perf_counter()
    assert main(["tasks", "--composition", "6,5"]) == 1
    assert time.perf_counter() - start < 0.5
    assert "error: TooManySources" in capsys.readouterr().err


def test_tasks_usage_error(capsys):
    assert main(["tasks", "--composition", "abc"]) == 2
    assert "error:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert main(["edit", "--help"]) == 0
    assert "--mixture" in capsys.readouterr().out


def test_edit_oracle_extraction(tone_setup, capsys):
    tmp_path, paths, s1, _ = tone_setup
    out_path = tmp_path / "edited.wav"
    metrics_path = tmp_path / "metrics.json"
    code = main([
        "edit", "--mixture", paths["mix"],
        "--sources", paths["s1"], paths["s2"],
        "--actions", "1,0",
        "--editor", "oracle",
        "--out", str(out_path),
        "--metrics-out", str(metrics_path),
    ])
    assert code == 0
    edited = read_wav(out_path)
    assert np.allclose(edited.samples, s1.samples, atol=1e-6)
    metrics = json.loads(metrics_path.read_text())
    assert metrics["snr_db"] == 300.0
    assert metrics["snr_clamped"] is True


def test_edit_psm_with_mask_dump(tone_setup, capsys):
    tmp_path, paths, _, _ = tone_setup
    out_path = tmp_path / "edited.wav"
    code = main([
        "edit", "--mixture", paths["mix"],
        "--sources", paths["s1"], paths["s2"],
        "--actions", "1,d",
        "--editor", "psm",
        "--out", str(out_path),
        "--dump-mask", str(tmp_path / "mask"),
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["snr_db"] > 40.0
    assert doc["snri_db"] > 0.0
    assert (tmp_path / "mask.csv").exists()
    assert (tmp_path / "mask.pgm").exists()


@pytest.mark.parametrize("editor", ["irm", "psm", "film"])
def test_edit_dumps_the_mask_it_applied(tmp_path, toy_model, assert_dump_is,
                                        capsys, editor):
    """On a 5-s mixture, ``--dump-mask`` writes the gain field the editor
    multiplied, whatever the editor: its values in the CSV, and in the PGM
    over ``[0, m_max]``."""
    t = np.arange(5 * RATE) / RATE
    for name, freq, amp in [("s1", 440, 0.4), ("s2", 2093, 0.3)]:
        write_wav(tmp_path / f"{name}.wav",
                  Clip(amp * np.sin(2 * np.pi * freq * t), RATE))
    (tmp_path / "metadata.json").write_text(json.dumps([
        {"id": "a", "path": "s1.wav", "type": "audio", "label": "low tone"},
        {"id": "b", "path": "s2.wav", "type": "audio", "label": "high tone"},
    ]))
    sources = [read_wav(tmp_path / f"{name}.wav") for name in ("s1", "s2")]
    write_wav(tmp_path / "mix.wav", mix(sources))
    mixture = read_wav(tmp_path / "mix.wav")
    prompt = "Please remove the high tone sound."
    if editor == "film":
        options = ["--catalog", str(tmp_path), "--prompt", prompt,
                   "--model", str(toy_model)]
        net = load_net(toy_model)
        z = embed_instruction(parse(prompt, ["low tone", "high tone"]),
                              dim=net.config.embed_dim)
        mask = net.edit(mixture, z)[1]
    else:
        options = ["--sources", str(tmp_path / "s1.wav"),
                   str(tmp_path / "s2.wav"), "--actions", "1,0"]
        target = target_mixture(sources, [Action.KEEP, Action.REMOVE])
        mask = ideal_mask(mixture, target, MaskKind(editor))
    prefix = tmp_path / "mask"
    assert main(["edit", "--mixture", str(tmp_path / "mix.wav"), *options,
                 "--editor", editor, "--out", str(tmp_path / "out.wav"),
                 "--dump-mask", str(prefix)]) == 0
    assert json.loads(capsys.readouterr().out)["mask"] == {
        "csv": f"{prefix}.csv", "pgm": f"{prefix}.pgm"}
    assert_dump_is(prefix, mask)


def test_edit_inconsistent_sources_rejected(tone_setup):
    tmp_path, paths, _, _ = tone_setup
    code = main([
        "edit", "--mixture", paths["s1"],  # not the sum of the sources
        "--sources", paths["s1"], paths["s2"],
        "--actions", "1,0",
    ])
    assert code == 2


def test_edit_bad_prompt_exit_code(tone_setup, catalog_dir, capsys):
    tmp_path, paths, _, _ = tone_setup
    code = main([
        "edit", "--mixture", paths["mix"],
        "--sources", paths["s1"], paths["s2"],
        "--prompt", "Please frobnicate the dog.",
        "--catalog", str(catalog_dir),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "prompt error" in err
    assert "frobnicate" in err


@pytest.mark.parametrize("options, message", [
    (["--prompt", "Please remove the high tone sound."],
     "--prompt needs --catalog"),
    (["--actions", "1,0", "--editor", "film"], "--editor film needs --model"),
])
def test_edit_without_a_needed_option_exits_2(tone_setup, capsys, options,
                                              message):
    tmp_path, paths, _, _ = tone_setup
    out = tmp_path / "out.wav"
    assert main(["edit", "--mixture", paths["mix"], "--sources", paths["s1"],
                 paths["s2"], *options, "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_edit_source_missing_from_the_catalog_exits_1(tone_catalog, capsys):
    tmp_path, paths, s1, _ = tone_catalog
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    write_wav(elsewhere / "s1.wav", s1)
    out = tmp_path / "out.wav"
    assert main(["edit", "--mixture", paths["mix"], "--sources",
                 str(elsewhere / "s1.wav"), paths["s2"], "--catalog",
                 str(tmp_path), "--prompt", "Please remove the high tone sound.",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: MixeditError: source ")
    assert "not found in the catalog" in err
    assert not out.exists()


def test_edit_oracle_has_no_mask_to_dump(tone_setup, capsys):
    tmp_path, paths, _, _ = tone_setup
    assert main(["edit", "--mixture", paths["mix"], "--sources", paths["s1"],
                 paths["s2"], "--actions", "1,0", "--out",
                 str(tmp_path / "out.wav"), "--dump-mask",
                 str(tmp_path / "mask")]) == 0
    captured = capsys.readouterr()
    assert captured.err == "note: the oracle editor has no mask to dump\n"
    assert "mask" not in json.loads(captured.out)
    assert not list(tmp_path.glob("mask.*"))


def _write_tree(tree: Path, pairs, tasks=None):
    """A ``generate``-style tree of one record per (input, target) clip
    pair, record i named after ``tasks[i]`` (default T1)."""
    tree.mkdir()
    records = []
    for i, (unprocessed, target) in enumerate(pairs):
        outputs = {"input": f"{i:06d}_input.wav",
                   "target": f"{i:06d}_target.wav",
                   "prompt": f"{i:06d}_prompt.txt"}
        write_wav(tree / outputs["input"], unprocessed)
        write_wav(tree / outputs["target"], target)
        records.append(ManifestRecord(
            record_id=i, seed=i, n_speech=0, n_audio=2,
            sources=[SourceRef("a", "a.wav",
                               {"kind": "audio", "label": "dog"}, 0.0),
                     SourceRef("b", "b.wav",
                               {"kind": "audio", "label": "cat"}, 1.5)],
            actions=["keep", "remove"], task=tasks[i] if tasks else "T1",
            simplified=[{"action": "remove", "kind": "audio", "label": "cat"}],
            prompt="p", prompt_provenance="template", outputs=outputs))
    write_manifest(records, tree / "manifest.jsonl")


def test_generate_and_eval_round_trip(catalog_dir, tmp_path, capsys):
    out = tmp_path / "data"
    code = main([
        "generate", "--catalog", str(catalog_dir), "--out", str(out),
        "--count", "10", "--composition", "2,2", "--seed", "11",
        "--workers", "1",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["succeeded"] == 10
    assert sum(doc["per_task"].values()) == 10
    assert (out / "manifest.jsonl").exists()

    # Only the estimates are copied; eval finds input and target through
    # each record's outputs. est == target: clamped SNRi everywhere.
    est, unedited = tmp_path / "est", tmp_path / "unedited"
    for d in (est, unedited):
        d.mkdir()
    for record_path in sorted(out.glob("*_record.json")):
        record = json.loads(record_path.read_text())
        name = f"{record['record_id']:06d}.wav"
        shutil.copy(out / record["outputs"]["target"], est / name)
        shutil.copy(out / record["outputs"]["input"], unedited / name)
    assert main(["eval", "--est", str(est), "--tree", str(out),
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["overall"]["count"] == 10
    assert report["overall"]["improved_fraction"] == 1.0
    assert report["overall"]["clamped_count"] == 10
    assert {task: agg["count"] for task, agg in report["per_task"].items()} \
        == doc["per_task"]
    assert report["config"] == {"est": str(est), "tree": str(out)}

    # The text report has the overall line, then one line per task.
    assert main(["eval", "--est", str(est), "--tree", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == \
        ["overall", *sorted(doc["per_task"])]

    # est == input: SNRi identically zero, no improvement
    assert main(["eval", "--est", str(unedited), "--tree", str(out),
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["overall"]["improved_fraction"] == 0.0
    assert abs(report["overall"]["mean_snri_db"]) < 1e-9


def test_eval_quartiles_match_independent_recompute(tmp_path, capsys):
    rng = np.random.default_rng(0)
    est = tmp_path / "est"
    est.mkdir()
    pairs, tasks = [], []
    from mixedit.metrics import snri as snri_fn
    for i in range(9):
        target = rng.standard_normal(4000)
        noise = rng.standard_normal(4000)
        x = target + noise
        e = target + noise * rng.uniform(0.1, 1.0)
        pairs.append((Clip(x * 0.05, RATE), Clip(target * 0.05, RATE)))
        tasks.append("T2" if i % 3 == 0 else "T1")
        write_wav(est / f"{i:06d}.wav", Clip(e * 0.05, RATE))
    tree = tmp_path / "tree"
    _write_tree(tree, pairs, tasks)
    groups = {"overall": []}
    for i, task in enumerate(tasks):
        value = snri_fn(read_wav(tree / f"{i:06d}_input.wav"),
                        read_wav(est / f"{i:06d}.wav"),
                        read_wav(tree / f"{i:06d}_target.wav")).value
        groups["overall"].append(value)
        groups.setdefault(task, []).append(value)
    assert main(["eval", "--est", str(est), "--tree", str(tree),
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert sorted(report["per_task"]) == ["T1", "T2"]
    for group, values in groups.items():
        agg = report["per_task"].get(group, report["overall"])
        assert agg["count"] == len(values)
        got = agg["quartiles_db"]
        expected = np.percentile(np.array(values), [25, 50, 75])
        assert got["q25"] == pytest.approx(expected[0], abs=1e-9)
        assert got["q50"] == pytest.approx(expected[1], abs=1e-9)
        assert got["q75"] == pytest.approx(expected[2], abs=1e-9)


def test_eval_missing_pair(tmp_path, capsys):
    """An estimate named after no record of the tree."""
    x = Clip(np.ones(100) * 0.1, RATE)
    _write_tree(tmp_path / "tree", [(x, x)])
    est = tmp_path / "est"
    est.mkdir()
    write_wav(est / "000000.wav", x)
    write_wav(est / "000001.wav", x)
    assert main(["eval", "--est", str(est), "--tree",
                 str(tmp_path / "tree")]) == 1
    err = capsys.readouterr().err
    assert "error: UnknownRecord" in err and "000001.wav" in err


@pytest.mark.parametrize("hole", ["target file", "outputs"])
def test_eval_record_without_its_files_exits_1(tmp_path, capsys, hole):
    x = Clip(np.ones(100) * 0.1, RATE)
    tree = tmp_path / "tree"
    _write_tree(tree, [(x, x)])
    if hole == "target file":
        (tree / "000000_target.wav").unlink()
    else:  # a planned manifest that was never synthesized
        record = json.loads((tree / "manifest.jsonl").read_text())
        (tree / "manifest.jsonl").write_text(
            json.dumps({**record, "outputs": None}) + "\n")
    est = tmp_path / "est"
    est.mkdir()
    write_wav(est / "000000.wav", x)
    assert main(["eval", "--est", str(est), "--tree", str(tree)]) == 1
    error = "BadWavFile" if hole == "target file" else "BadManifestLine"
    assert f"error: {error}" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["ABS", "../000000_target.wav",
                                  "sub/000000_target.wav", ".."])
def test_eval_refuses_outputs_outside_the_tree(tmp_path, capsys, name):
    x = Clip(np.ones(100) * 0.1, RATE)
    tree = tmp_path / "tree"
    _write_tree(tree, [(x, x)])
    outside = tmp_path / "000000_target.wav"
    shutil.copy(tree / "000000_target.wav", outside)
    (tree / "sub").mkdir()
    shutil.copy(outside, tree / "sub")
    record = json.loads((tree / "manifest.jsonl").read_text())
    record["outputs"]["target"] = str(outside) if name == "ABS" else name
    (tree / "manifest.jsonl").write_text(json.dumps(record) + "\n")
    est = tmp_path / "est"
    est.mkdir()
    write_wav(est / "000000.wav", x)
    assert main(["eval", "--est", str(est), "--tree", str(tree)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert err.startswith("error: BadManifestLine") and "bare file" in err


@pytest.mark.parametrize("option", ["--ref", "--input", "--per-task"])
def test_eval_takes_no_three_directory_options(tmp_path, capsys, option):
    x = Clip(np.ones(100) * 0.1, RATE)
    _write_tree(tmp_path / "tree", [(x, x)])
    assert main(["eval", "--est", str(tmp_path / "tree"), "--tree",
                 str(tmp_path / "tree"), option, str(tmp_path)]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_generate_deterministic_across_runs(catalog_dir, tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main([
            "generate", "--catalog", str(catalog_dir), "--out", str(out),
            "--count", "5", "--seed", "3",
        ]) == 0
        capsys.readouterr()
    a = (out1 / "manifest.jsonl").read_bytes()
    b = (out2 / "manifest.jsonl").read_bytes()
    assert a == b
    for wav in sorted(out1.glob("*.wav")):
        assert wav.read_bytes() == (out2 / wav.name).read_bytes()


def test_generate_with_rephrase_service(catalog_dir, tmp_path, capsys):
    import threading
    from http.server import BaseHTTPRequestHandler, HTTPServer

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers["Content-Length"])
            doc = json.loads(self.rfile.read(length))
            body = json.dumps({
                "rephrasings": [f"Rephrased: {doc['prompt']}"]
            }).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        config = tmp_path / "rephrase.json"
        config.write_text(json.dumps({
            "endpoint": f"http://127.0.0.1:{server.server_port}/", "n": 1,
        }))
        out = tmp_path / "data"
        assert main([
            "generate", "--catalog", str(catalog_dir), "--out", str(out),
            "--count", "6", "--seed", "2", "--rephrase", str(config),
        ]) == 0
        capsys.readouterr()
        from mixedit.dataset import load_manifest
        records = load_manifest(out / "manifest.jsonl")
        rephrased = [r for r in records
                     if r.prompt_provenance == "external_rephrase"]
        assert rephrased
        assert all(r.prompt.startswith("Rephrased:") for r in rephrased)
    finally:
        server.shutdown()


def test_generate_rephrase_disabled_falls_back(catalog_dir, tmp_path, capsys):
    config = tmp_path / "rephrase.json"
    config.write_text(json.dumps({"endpoint": None}))
    out = tmp_path / "data"
    assert main([
        "generate", "--catalog", str(catalog_dir), "--out", str(out),
        "--count", "4", "--seed", "2", "--rephrase", str(config),
    ]) == 0
    err = capsys.readouterr().err
    assert "template prompts kept" in err
    from mixedit.dataset import load_manifest
    records = load_manifest(out / "manifest.jsonl")
    assert all(r.prompt_provenance in ("template", "special_generic")
               for r in records)


def test_generate_rephrase_malformed_reply_falls_back(catalog_dir, tmp_path,
                                                      capsys):
    import threading
    from http.server import BaseHTTPRequestHandler, HTTPServer

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            body = b'{"something": "else"}'
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        config = tmp_path / "rephrase.json"
        config.write_text(json.dumps({
            "endpoint": f"http://127.0.0.1:{server.server_port}/", "n": 1,
        }))
        out = tmp_path / "data"
        assert main([
            "generate", "--catalog", str(catalog_dir), "--out", str(out),
            "--count", "6", "--seed", "2", "--rephrase", str(config),
        ]) == 0
    finally:
        server.shutdown()
    err = capsys.readouterr().err
    from mixedit.dataset import load_manifest
    records = load_manifest(out / "manifest.jsonl")
    templated = sum(r.prompt_provenance == "template" for r in records)
    assert templated > 0
    assert f"rephrase unavailable for {templated} records" in err
    assert all(r.prompt_provenance in ("template", "special_generic")
               for r in records)


def test_train_toy_cli(demo_tree, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "channels": 8, "blocks": 2, "embed_dim": 8, "steps": 10, "lr": 1e-3,
    }))
    out_dir = tmp_path / "run"
    assert main(["train-toy", "--config", str(config), "--tree",
                 str(demo_tree), "--out-dir", str(out_dir), "--seed", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 4
    assert doc["config"] == json.loads(config.read_text())
    assert json.loads((out_dir / "config.json").read_text()) == doc["config"]
    assert json.loads((out_dir / "seed.json").read_text()) == {"seed": 4}
    assert (out_dir / "net.mxn").exists()
    curve = (out_dir / "loss_curve.csv").read_text().splitlines()
    assert curve[0] == "step,loss"
    assert len(curve) == 11
    losses = [float(line.split(",")[1]) for line in curve[1:]]
    assert losses[-1] < losses[0]


def test_train_toy_reruns_from_its_own_config_json(demo_tree, tmp_path,
                                                   capsys):
    config = tmp_path / "toy.json"
    config.write_text(json.dumps({
        "channels": 8, "blocks": 1, "embed_dim": 8, "hidden": None,
        "steps": 2, "lr": 1e-3,
    }))
    first, again = tmp_path / "run", tmp_path / "again"
    assert main(["train-toy", "--config", str(config), "--tree",
                 str(demo_tree), "--out-dir", str(first), "--seed", "3"]) == 0
    seed = json.loads((first / "seed.json").read_text())["seed"]
    assert main(["train-toy", "--config", str(first / "config.json"),
                 "--tree", str(demo_tree), "--out-dir", str(again),
                 "--seed", str(seed)]) == 0
    capsys.readouterr()
    for name in ("net.mxn", "config.json", "seed.json", "loss_curve.csv"):
        assert (again / name).read_bytes() == (first / name).read_bytes()


def test_train_toy_examples_embed_what_edit_embeds(catalog_dir, demo_tree):
    """Each record gives its input, its target and its simplified
    instruction, embedded as ``edit --editor film --prompt`` embeds the
    record's prompt."""
    labels = ingest(catalog_dir).labels
    records = load_manifest(demo_tree / "manifest.jsonl")
    examples = cli._tree_examples(demo_tree, embed_dim=8)
    assert len(examples) == len(records) == 3
    for record, ex in zip(records, examples):
        for role, samples in (("input", ex.x), ("target", ex.y)):
            clip = read_wav(demo_tree / record.outputs[role])
            assert np.array_equal(samples, clip.samples)
        assert np.array_equal(ex.z, embed_instruction(
            parse(record.prompt, labels), dim=8))


def test_train_toy_config_sets_every_net_field(demo_tree, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "channels": 8, "kernel": 8, "blocks": 1, "embed_dim": 4, "hidden": 5,
        "mask_max": 3.0, "steps": 1,
    }))
    out_dir = tmp_path / "run"
    assert main(["train-toy", "--config", str(config), "--tree",
                 str(demo_tree), "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    net = load_net(out_dir / "net.mxn")
    assert (net.config.hidden, net.config.mask_max) == (5, 3.0)
    assert net.params["block0.film.f1.w"].shape == (5, 4)


def test_film_editor_cli_prompt_path(demo_tree, tmp_path, capsys):
    # Tiny aligned catalog (equal-length clips) so unmodified catalog
    # files can be summed into the mixture directly.
    cat = tmp_path / "cat"
    cat.mkdir()
    t = np.arange(2 * RATE) / RATE
    tone_a = Clip(0.3 * np.sin(2 * np.pi * 440 * t), RATE)
    tone_b = Clip(0.25 * np.sin(2 * np.pi * 1750 * t), RATE)
    write_wav(cat / "a.wav", tone_a)
    write_wav(cat / "b.wav", tone_b)
    (cat / "metadata.json").write_text(json.dumps([
        {"id": "a", "path": "a.wav", "type": "audio", "label": "sine tone"},
        {"id": "b", "path": "b.wav", "type": "audio", "label": "high whistle"},
    ]))
    mix_path = tmp_path / "mix.wav"
    write_wav(mix_path, Clip(tone_a.samples + tone_b.samples, RATE))

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "channels": 8, "blocks": 2, "embed_dim": 16, "steps": 5, "lr": 1e-3,
    }))
    run_dir = tmp_path / "run"
    assert main(["train-toy", "--config", str(config), "--tree",
                 str(demo_tree), "--out-dir", str(run_dir)]) == 0
    capsys.readouterr()

    code = main([
        "edit", "--mixture", str(mix_path),
        "--prompt", "Please remove the high whistle sound.",
        "--sources", str(cat / "a.wav"), str(cat / "b.wav"),
        "--catalog", str(cat),
        "--editor", "film", "--model", str(run_dir / "net.mxn"),
        "--out", str(tmp_path / "out.wav"),
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["editor"] == "film"
    assert "snr_db" in doc  # an untrained toy net is scored, not judged
    assert (tmp_path / "out.wav").exists()


def test_film_edits_a_generated_mixture_from_its_prompt(catalog_dir, demo_tree,
                                                       tmp_path, capsys):
    """``generate``, then ``train-toy --tree`` on what it wrote, then
    ``edit --editor film --prompt "$(cat 000000_prompt.txt)"``."""
    config = tmp_path / "toy.json"
    config.write_text(json.dumps({"steps": 2}))
    run = tmp_path / "run"
    assert main(["train-toy", "--config", str(config), "--tree",
                 str(demo_tree), "--out-dir", str(run)]) == 0
    prompt = (demo_tree / "000000_prompt.txt").read_text("utf-8").rstrip("\n")
    out = tmp_path / "edited.wav"
    assert main(["edit", "--mixture", str(demo_tree / "000000_input.wav"),
                 "--catalog", str(catalog_dir), "--prompt", prompt,
                 "--editor", "film", "--model", str(run / "net.mxn"),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert len(read_wav(out)) == len(read_wav(demo_tree / "000000_input.wav"))


@pytest.fixture()
def toy_model(tmp_path):
    path = tmp_path / "net.mxn"
    save_net(path, FilmMaskNet.init(
        MaskNetConfig(channels=8, blocks=2, embed_dim=16), seed=0))
    return path


def test_film_edits_from_prompt_without_sources(tone_catalog, toy_model,
                                                capsys):
    tmp_path, paths, _, _ = tone_catalog
    prompt = "Please remove the high tone sound."
    out = tmp_path / "out.wav"
    assert main(["edit", "--mixture", paths["mix"], "--catalog", str(tmp_path),
                 "--prompt", prompt, "--editor", "film",
                 "--model", str(toy_model), "--out", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert not any(key.startswith("snr") for key in doc)  # no target

    net = load_net(toy_model)
    z = embed_instruction(parse(prompt, ["low tone", "high tone"]),
                          dim=net.config.embed_dim)
    edited, _ = net.edit(read_wav(paths["mix"]), z)
    write_wav(tmp_path / "expected.wav", edited)
    assert out.read_bytes() == (tmp_path / "expected.wav").read_bytes()


def test_film_actions_without_sources_exits_2(tone_catalog, toy_model, capsys):
    tmp_path, paths, _, _ = tone_catalog
    assert main(["edit", "--mixture", paths["mix"], "--catalog", str(tmp_path),
                 "--actions", "1,0", "--editor", "film",
                 "--model", str(toy_model),
                 "--out", str(tmp_path / "out.wav")]) == 2
    assert "--sources" in capsys.readouterr().err
    assert not (tmp_path / "out.wav").exists()


@pytest.mark.parametrize("editor", ["oracle", "irm", "psm"])
def test_reference_editor_prompt_without_sources_exits_2(tone_catalog, capsys,
                                                         editor):
    tmp_path, paths, _, _ = tone_catalog
    assert main(["edit", "--mixture", paths["mix"], "--catalog", str(tmp_path),
                 "--prompt", "Please remove the high tone sound.",
                 "--editor", editor, "--out", str(tmp_path / "out.wav")]) == 2
    assert f"--editor {editor} needs --sources" in capsys.readouterr().err
    assert not (tmp_path / "out.wav").exists()


@pytest.mark.parametrize("editor", ["oracle", "psm"])
def test_edit_sources_at_another_rate_exit_2(tone_setup, capsys, editor):
    tmp_path, paths, s1, s2 = tone_setup
    slow = []
    for name, clip in [("s1_8k", s1), ("s2_8k", s2)]:
        write_wav(tmp_path / f"{name}.wav", Clip(clip.samples, 8000))
        slow.append(str(tmp_path / f"{name}.wav"))
    assert main(["edit", "--mixture", paths["mix"], "--sources", *slow,
                 "--actions", "1,0", "--editor", editor,
                 "--out", str(tmp_path / "out.wav"),
                 "--metrics-out", str(tmp_path / "metrics.json")]) == 2
    assert "sources do not sum to the mixture" in capsys.readouterr().err
    assert not (tmp_path / "out.wav").exists()
    assert not (tmp_path / "metrics.json").exists()


def test_eval_rejects_mismatched_sample_rates(tmp_path, capsys):
    x = np.random.default_rng(0).standard_normal(800) * 0.1
    _write_tree(tmp_path / "tree", [(Clip(x, RATE), Clip(x, RATE))])
    est = tmp_path / "est"
    est.mkdir()
    write_wav(est / "000000.wav", Clip(x, 8000))
    assert main(["eval", "--est", str(est), "--tree",
                 str(tmp_path / "tree")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: LengthMismatch: sample rates differ")
    assert "000000.wav" in err and "8000" in err and "16000" in err


def test_eval_names_an_estimate_of_another_length(tmp_path, capsys):
    x = np.random.default_rng(0).standard_normal(800) * 0.1
    _write_tree(tmp_path / "tree", [(Clip(x, RATE), Clip(x, RATE))])
    est = tmp_path / "est"
    est.mkdir()
    write_wav(est / "000000.wav", Clip(x[:795], RATE))
    assert main(["eval", "--est", str(est), "--tree",
                 str(tmp_path / "tree")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: LengthMismatch")
    assert str(est / "000000.wav") in err and "795" in err and "800" in err


# A non-finite mask_max, or n_masks, which names no field, fails the file's
# type rule before any net config is built; a net too big to build fails
# on its parameter count, one too deep on its block count.
@pytest.mark.parametrize("bad,error", [
    ({"kernel": 15}, "BadNetConfig"), ({"channels": 0}, "BadNetConfig"),
    ({"n_masks": -1}, "BadConfigFile"), ({"mask_max": 1e400}, "BadConfigFile"),
    ({"hidden": 10 ** 20}, "BadNetConfig"),
    ({"channels": 100_000_000_000}, "BadNetConfig"),
    ({"blocks": 40}, "BadNetConfig"),
], ids=[f"bad{i}" for i in range(7)])
def test_train_toy_bad_net_config_exits_1(demo_tree, tmp_path, capsys, bad,
                                          error):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"steps": 1, **bad}))
    assert main(["train-toy", "--config", str(config), "--tree",
                 str(demo_tree), "--out-dir", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}: ") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("text", ['{"steps": 1,', "[1, 2]",
                                  '{"steps": "a"}', '{"lr": "x"}',
                                  '{"stpes": 1}', '{"pit": 1}',
                                  '{"channels": 8.0}', '{"seed": null}',
                                  '{"seed": -1}', '{"steps": 0}',
                                  '{"examples": 0}', '{"lr": 1e400}',
                                  '{"lr": NaN}', '{"lr_decay": -1}',
                                  '{"lr_decay": Infinity}',
                                  # keys of the tone generator and of the seed
                                  '{"examples": 4}', '{"samples": 4000}',
                                  '{"pit": false}', '{"seed": 0}',
                                  # a net has one mask: no key sets a count
                                  '{"n_masks": 1}', '{"n_masks": 2}'])
def test_train_toy_bad_config_file_exits_1(demo_tree, tmp_path, capsys, text):
    config = tmp_path / "config.json"
    config.write_text(text)
    assert main(["train-toy", "--config", str(config), "--tree",
                 str(demo_tree), "--out-dir", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: BadConfigFile: ") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("bom", [False, True])
@pytest.mark.parametrize("read,doc", [
    (cli._read_toy_config,
     {"channels": 8, "steps": 3, "lr": 0.01, "hidden": None}),
    (RephraseConfig.from_file,
     {"endpoint": "http://127.0.0.1:9/x", "n": 2, "timeout_s": 1.5}),
], ids=["toy", "rephrase"])
def test_json_config_with_or_without_a_bom(tmp_path, read, doc, bom):
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(doc), "utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), "utf-8-sig" if bom else "utf-8")
    assert config.read_bytes().startswith(b"\xef\xbb\xbf") == bom
    assert read(config) == read(plain)


_MAIN = """
import sys
sys.path.insert(0, sys.argv[1])
from mixedit.cli import main
sys.exit(main(sys.argv[2:]))
"""


def test_edit_of_a_signalling_nan_prints_one_line(tmp_path):
    path = tmp_path / "snan.wav"
    write_wav(path, Clip(np.zeros(100), RATE))
    blob = bytearray(path.read_bytes())
    blob[-4:] = (0x7F800001).to_bytes(4, "little")  # float32 signalling NaN
    path.write_bytes(bytes(blob))
    src = str(Path(mixedit.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", _MAIN, src, "edit",
                          "--mixture", str(path), "--actions", "1",
                          "--out", str(tmp_path / "out.wav")],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 1
    assert run.stderr == (f"error: BadWavFile: {path}: clip contains "
                          "non-finite samples\n")


def _tone_tree(tree: Path, samples: int):
    """A one-record tree of two tones, the high one removed."""
    t = np.arange(samples) / RATE
    low = 0.4 * np.sin(2 * np.pi * 440 * t)
    high = 0.3 * np.sin(2 * np.pi * 1320 * t)
    _write_tree(tree, [(Clip(low + high, RATE), Clip(low, RATE))])


# 20000 samples split the training pass in two, so on two CPUs the
# overflow also happens on a pool thread.
@pytest.mark.parametrize("samples", [400, 20000])
def test_train_toy_divergence_prints_one_line_and_removes_its_out_dir(
        tmp_path, samples):
    _tone_tree(tmp_path / "tree", samples)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"lr": 1e30, "steps": 3}))
    src = str(Path(mixedit.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", _MAIN, src, "train-toy",
                          "--config", str(config),
                          "--tree", str(tmp_path / "tree"),
                          "--out-dir", str(tmp_path / "made" / "run")],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 1
    assert run.stderr == "error: Diverged: loss became non-finite at step 1\n"
    assert not (tmp_path / "made").exists()


def test_train_toy_divergence_keeps_an_out_dir_it_did_not_make(tmp_path,
                                                              capsys):
    _tone_tree(tmp_path / "tree", 400)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"lr": 1e30, "steps": 3}))
    kept = tmp_path / "kept"
    kept.mkdir()
    assert main(["train-toy", "--config", str(config), "--tree",
                 str(tmp_path / "tree"), "--out-dir", str(kept / "run")]) == 1
    assert "error: Diverged" in capsys.readouterr().err
    assert kept.is_dir() and not (kept / "run").exists()


@pytest.mark.parametrize("name,error", [
    ("train_toy", MemoryError("cannot allocate the pass")),
    ("save_net", OSError(28, "No space left on device")),
], ids=["MemoryError", "OSError"])
def test_train_toy_failure_after_its_out_dir_removes_it(
        demo_tree, tmp_path, capsys, monkeypatch, name, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, name, fail)
    config = tmp_path / "toy.json"
    config.write_text(json.dumps({"channels": 4, "blocks": 1, "embed_dim": 4,
                                  "steps": 1}))
    assert main(["train-toy", "--config", str(config), "--tree",
                 str(demo_tree),
                 "--out-dir", str(tmp_path / "made" / "run")]) == 1
    assert capsys.readouterr().err == (
        f"error: {type(error).__name__}: {error}\n")
    assert not (tmp_path / "made").exists()


def test_train_toy_interrupted_removes_its_out_dir(demo_tree, tmp_path,
                                                   monkeypatch):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "train_toy", interrupt)
    config = tmp_path / "toy.json"
    config.write_text(json.dumps({"channels": 4, "blocks": 1, "embed_dim": 4,
                                  "steps": 1}))
    with pytest.raises(KeyboardInterrupt):
        main(["train-toy", "--config", str(config), "--tree", str(demo_tree),
              "--out-dir", str(tmp_path / "made" / "run")])
    assert not (tmp_path / "made").exists()


@pytest.mark.parametrize("field,value", [
    ("outputs", None), ("simplified", []), ("simplified", [1])])
def test_train_toy_bad_tree_exits_1_before_its_out_dir(tmp_path, capsys,
                                                      field, value):
    _tone_tree(tmp_path / "tree", 400)
    manifest = tmp_path / "tree" / "manifest.jsonl"
    record = json.loads(manifest.read_text())
    manifest.write_text(json.dumps({**record, field: value}) + "\n")
    config = tmp_path / "toy.json"
    config.write_text("{}")
    assert main(["train-toy", "--config", str(config), "--tree",
                 str(tmp_path / "tree"),
                 "--out-dir", str(tmp_path / "made" / "run")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: BadManifestLine")
    assert not (tmp_path / "made").exists()


@pytest.mark.parametrize("text", ['{"endpoint":', '{"endpointz": null}',
                                  "[1, 2]", '{"endpoint": "not a url"}',
                                  '{"endpoint": "ftp://127.0.0.1/x"}',
                                  '{"endpoint": 5}', '{"wrapper": "{foo}"}',
                                  '{"wrapper": "{"}',
                                  '{"wrapper": "{n:>100000000}"}',
                                  '{"wrapper": "{n!r}"}',
                                  '{"wrapper": "{n.real}"}', '{"timeout_s": "x"}',
                                  '{"timeout_s": -1}',
                                  '{"max_concurrency": "a"}',
                                  '{"max_concurrency": 0}',
                                  '{"max_concurrency": 100000}'])
def test_generate_bad_rephrase_config_exits_1(catalog_dir, tmp_path, capsys,
                                              text):
    config = tmp_path / "rephrase.json"
    config.write_text(text)
    assert main([
        "generate", "--catalog", str(catalog_dir), "--out",
        str(tmp_path / "data"), "--count", "2", "--rephrase", str(config),
    ]) == 1
    assert "error: BadRephraseConfig" in capsys.readouterr().err


@pytest.mark.parametrize("blob", [b'[{"id": "a",', b"\xff\xfe", b"[1, 2]"])
def test_generate_bad_metadata_exits_1(tmp_path, capsys, blob):
    root = tmp_path / "catalog"
    root.mkdir()
    (root / "metadata.json").write_bytes(blob)
    assert main(["generate", "--catalog", str(root), "--out",
                 str(tmp_path / "data"), "--count", "2"]) == 1
    assert "error: BadMetadataRow" in capsys.readouterr().err


@pytest.mark.parametrize("option,value", [("--count", "-2"),
                                          ("--workers", "0"),
                                          ("--workers", "-5")])
def test_generate_refuses_a_negative_count_or_no_workers(
        catalog_dir, tmp_path, capsys, option, value):
    out = tmp_path / "data"
    assert main(["generate", "--catalog", str(catalog_dir), "--out",
                 str(out), "--count", "2", option, value]) == 2
    assert f"argument {option}: must be at least" in capsys.readouterr().err
    assert not out.exists()


def test_train_toy_refuses_a_negative_seed(demo_tree, tmp_path, capsys):
    config = tmp_path / "toy.json"
    config.write_text("{}")
    out = tmp_path / "run"
    assert main(["train-toy", "--config", str(config), "--tree",
                 str(demo_tree), "--out-dir", str(out), "--seed", "-1"]) == 2
    assert "argument --seed: must be at least 0" in capsys.readouterr().err
    assert not out.exists()


def test_generate_of_no_records_exits_0(catalog_dir, tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["generate", "--catalog", str(catalog_dir), "--out",
                 str(out), "--count", "0"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["total"] == 0 and summary["succeeded"] == 0


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("command,error", [
    ("generate", "MissingFile"), ("eval", "BadManifestLine"),
    ("edit", "BadContainer"),
])
def test_unreadable_input_path_exits_1(tone_catalog, capsys, command, error,
                                       kind):
    tmp_path, paths, _, _ = tone_catalog
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    argv = {
        "generate": ["generate", "--catalog", str(tmp_path), "--metadata",
                     str(path), "--out", str(tmp_path / "data"),
                     "--count", "2"],
        "eval": ["eval", "--est", str(tmp_path), "--tree", str(path)],
        "edit": ["edit", "--mixture", paths["mix"], "--sources", paths["s1"],
                 paths["s2"], "--actions", "1,0", "--catalog", str(tmp_path),
                 "--editor", "film", "--model", str(path)],
    }[command]
    assert main(argv) == 1
    assert f"error: {error}" in capsys.readouterr().err


@pytest.mark.parametrize("command,option", [
    ("edit", "--out"), ("edit", "--dump-mask"), ("edit", "--metrics-out"),
    ("generate", "--out"), ("train-toy", "--out-dir"), ("demo-catalog", "--out"),
])
def test_unwritable_output_exits_1(tone_setup, catalog_dir, demo_tree, capsys,
                                   monkeypatch, command, option):
    tmp_path, paths, _, _ = tone_setup
    if command == "edit":  # a directory that does not exist
        path, error = tmp_path / "missing" / "out", "FileNotFoundError"
    else:  # a path under a regular file
        path, error = Path(paths["s1"]) / "out", "NotADirectoryError"
    config = tmp_path / "toy.json"
    config.write_text(json.dumps({"channels": 4, "blocks": 1, "embed_dim": 4,
                                  "steps": 1}))
    argv = {  # the option under test comes last, so it wins over an --out
        "edit": ["edit", "--mixture", paths["mix"], "--sources", paths["s1"],
                 paths["s2"], "--actions", "1,0", "--editor", "psm",
                 "--out", str(tmp_path / "edited.wav")],
        "generate": ["generate", "--catalog", str(catalog_dir),
                     "--count", "1"],
        "train-toy": ["train-toy", "--config", str(config), "--tree",
                      str(demo_tree)],
        "demo-catalog": ["demo-catalog"],
    }[command]
    def no_training(*args, **kwargs):
        raise AssertionError("trained before checking --out-dir")

    monkeypatch.setattr(cli, "train_toy", no_training)
    assert main([*argv, option, str(path)]) == 1
    assert f"error: {error}" in capsys.readouterr().err
    if command == "edit" and option != "--out":
        assert not (tmp_path / "edited.wav").exists()


@pytest.mark.parametrize("cpus", [1, 2])
def test_demo_catalog_write_failing_in_a_pool_task_exits_1(
        tmp_path, capsys, monkeypatch, cpus):
    # audio_012.wav is in the second half of the sources, the part that
    # goes to the pool at two CPUs.
    write = synth.write_wav

    def full_disk(path, clip, pcm16=False):
        if path.name == "audio_012.wav":
            raise OSError(28, "No space left on device")
        write(path, clip, pcm16)

    monkeypatch.setattr(synth, "write_wav", full_disk)
    monkeypatch.setattr(dsp, "available_cpus", lambda: cpus)
    assert main(["demo-catalog", "--out", str(tmp_path / "demo")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: OSError: [Errno 28] No space left on device"]
    assert not (tmp_path / "demo" / "metadata.json").exists()


@pytest.mark.parametrize("sources,actions", [(["s1", "s2"], "1,x")])
def test_edit_bad_actions_exit_2(tone_catalog, capsys, sources, actions):
    tmp_path, paths, _, _ = tone_catalog
    argv = ["edit", "--mixture", paths["s1"], "--actions", actions,
            "--sources", *(paths[s] for s in sources),
            "--catalog", str(tmp_path), "--out", str(tmp_path / "out.wav")]
    assert main(argv) == 2  # argparse rejects the option itself
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("editor", ["oracle", "irm", "psm"])
@pytest.mark.parametrize("sources,actions", [
    (["s1"], "1"), (["s1"], "u"), (["s1", "s2"], "1,1"), (["s1", "s2"], "d,0")])
def test_actions_edit_ends_the_same_with_or_without_catalog(
        tone_catalog, capsys, editor, sources, actions):
    # Only the FiLM editor reads an instruction, so only it turns
    # --actions into one against the catalog's signatures.
    tmp_path, paths, s1, s2 = tone_catalog
    mixture = tmp_path / "mixture.wav"
    write_wav(mixture, Clip(sum(c.samples for c in (s1, s2)[:len(sources)]),
                            RATE))
    runs = []
    for catalog in ([], ["--catalog", str(tmp_path)]):
        out = tmp_path / f"out{len(runs)}.wav"
        code = main(["edit", "--mixture", str(mixture), "--actions", actions,
                     "--sources", *(paths[s] for s in sources),
                     "--editor", editor, "--out", str(out), *catalog])
        doc = json.loads(capsys.readouterr().out)
        del doc["output"]
        runs.append((code, doc, out.read_bytes()))
    assert runs[0][0] == 0
    assert runs[0] == runs[1]


@pytest.mark.parametrize("sources,actions", [
    (["s1"], "1"), (["s1"], "u"), (["s1", "s2"], "1,1"), (["s1", "s1"], "1,0")])
def test_film_refuses_an_invalid_instruction_before_loading_the_net(
        tone_catalog, toy_model, capsys, monkeypatch, sources, actions):
    tmp_path, paths, _, _ = tone_catalog

    def no_loading(*args, **kwargs):
        raise AssertionError("the net was loaded")

    monkeypatch.setattr(cli, "load_net", no_loading)
    out = tmp_path / "out.wav"
    assert main(["edit", "--mixture", paths["mix"], "--actions", actions,
                 "--sources", *(paths[s] for s in sources),
                 "--catalog", str(tmp_path), "--editor", "film",
                 "--model", str(toy_model), "--out", str(out)]) == 2
    assert "error: --editor film cannot edit" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sources,option,value,with_catalog", [
    (["s1"], "--actions", "0", False),
    (["s1"], "--actions", "0", True),
    (["s1", "s2"], "--actions", "0,0", False),
    (["s1", "s2"], "--actions", "0,0", True),
    (["s1"], "--prompt", "Please remove the low tone sound.", True),
    (["s1", "s2"], "--prompt",
     "Please remove the low tone sound, and remove the high tone sound.",
     True),
])
def test_edit_removing_every_source_exits_2_before_editing(
        tone_catalog, capsys, monkeypatch, sources, option, value,
        with_catalog):
    tmp_path, paths, s1, s2 = tone_catalog
    mixture = tmp_path / "mixture.wav"
    write_wav(mixture, Clip(sum(c.samples for c in (s1, s2)[:len(sources)]),
                            RATE))

    def no_editing(*args, **kwargs):
        raise AssertionError("an editor ran")

    monkeypatch.setattr(cli, "ideal_mask", no_editing)
    argv = ["edit", "--mixture", str(mixture), option, value, "--sources",
            *(paths[s] for s in sources), "--editor", "psm",
            "--out", str(tmp_path / "out.wav")]
    if with_catalog:
        argv += ["--catalog", str(tmp_path)]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out.wav").exists()


def test_generate_corrupt_wav_header_exits_1_with_summary(tmp_path, capsys):
    root = tmp_path / "catalog"
    build_demo_catalog(root, seed=0)
    wav = root / "audio_000.wav"
    blob = bytearray(wav.read_bytes())
    blob[23] ^= 1  # 257 channels in a 4-byte frame
    wav.write_bytes(bytes(blob))
    assert main(["generate", "--catalog", str(root), "--out",
                 str(tmp_path / "data"), "--count", "8"]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["total"] == 8 and summary["succeeded"] == 7
    [failure] = summary["failures"]
    assert failure["error"].startswith("BadWavFile")


_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now fails
sys.path.insert(0, sys.argv[1])
from mixedit.cli import main
out = sys.argv[2]
mix = f"{out}/data/000000_input.wav"
for argv in (
    ["demo-catalog", "--out", f"{out}/catalog"],
    ["generate", "--catalog", f"{out}/catalog", "--out", f"{out}/data",
     "--count", "2", "--pcm16"],
    ["edit", "--mixture", mix, "--sources", mix, "--actions", "d",
     "--editor", "psm", "--out", f"{out}/edited.wav"],
):
    code = main(argv)
    if code:
        sys.exit(f"{argv[0]} exited {code}")
"""


def test_cli_runs_without_scipy(tmp_path):
    src = str(Path(mixedit.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, src,
                          str(tmp_path)], capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "edited.wav").is_file()


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_GENERATE_AND_TRAIN = """
import sys
sys.path.insert(0, sys.argv[1])
from mixedit.cli import main
catalog, config, out = sys.argv[2:]
for argv in (
    ["generate", "--catalog", catalog, "--out", f"{out}/data", "--count", "4",
     "--seed", "7"],
    ["train-toy", "--config", config, "--tree", f"{out}/data",
     "--out-dir", f"{out}/net", "--seed", "3"],
):
    code = main(argv)
    if code:
        sys.exit(f"{argv[0]} exited {code}")
"""


def _run_with_blas(blas_env, code, *argv):
    """Runs ``code`` in a fresh interpreter on this checkout's sources,
    with ``blas_env`` as the only BLAS variables set."""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    src = str(Path(mixedit.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code, src, *argv],
                          env=env | blas_env, capture_output=True, text=True,
                          timeout=300)


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # Resampling and training reduce through BLAS matmuls whose order
    # follows the thread count; the package pins one thread, so a run
    # with the BLAS variables unset writes the bytes of a pinned run.
    catalog = tmp_path / "catalog"
    rows = []
    for rate, kind in ((48000, "speech"), (44100, "audio")):
        meta = build_demo_catalog(catalog / kind, seed=0, rate=rate)
        rows += [dict(row, path=f"{kind}/{row['path']}")
                 for row in json.loads(meta.read_text()) if row["type"] == kind]
    (catalog / "metadata.json").write_text(json.dumps(rows))
    config = tmp_path / "toy.json"
    config.write_text(json.dumps({"steps": 2, "channels": 64}))
    out = tmp_path / "out"  # one path for both runs: stdout names it
    runs = {}
    for name, env in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        run = _run_with_blas(env, _GENERATE_AND_TRAIN, str(catalog),
                             str(config), str(out))
        assert run.returncode == 0, run.stderr
        runs[name] = (run.stdout, {str(f.relative_to(out)): f.read_bytes()
                                   for f in out.rglob("*") if f.is_file()})
        shutil.rmtree(out)
    assert any(name.endswith("_input.wav") for name in runs["one"][1])
    assert "net/net.mxn" in runs["one"][1]
    assert runs["unset"] == runs["one"]


def test_an_explicit_blas_thread_count_is_left_as_set():
    code = ("import os, sys; sys.path.insert(0, sys.argv[1]); import mixedit; "
            "print(*(os.environ[k] for k in sys.argv[2:]))")
    run = _run_with_blas({"OPENBLAS_NUM_THREADS": "2"}, code, *_BLAS_VARS)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["2", "1", "1"]


def test_eval_non_utf8_manifest_exits_1(tmp_path, capsys):
    x = Clip(np.full(800, 0.1), RATE)
    _write_tree(tmp_path / "tree", [(x, x)])
    (tmp_path / "tree" / "manifest.jsonl").write_bytes(b"\xff\xfe")
    assert main(["eval", "--est", str(tmp_path / "tree"), "--tree",
                 str(tmp_path / "tree")]) == 1
    assert "error: BadManifestLine" in capsys.readouterr().err


def test_eval_tree_that_is_a_file_exits_1(tmp_path, capsys):
    write_wav(tmp_path / "000000.wav", Clip(np.full(800, 0.1), RATE))
    assert main(["eval", "--est", str(tmp_path), "--tree",
                 str(tmp_path / "000000.wav")]) == 1
    assert "error: BadManifestLine" in capsys.readouterr().err


def test_eval_mistyped_manifest_field_exits_1(catalog_dir, tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["generate", "--catalog", str(catalog_dir), "--out", str(data),
                 "--count", "1"]) == 0
    record = json.loads((data / "manifest.jsonl").read_text())
    est = tmp_path / "est"
    est.mkdir()
    shutil.copy(data / record["outputs"]["target"], est / "000000.wav")
    for field, value in [("record_id", "x"), ("outputs", {"input": 3})]:
        (data / "manifest.jsonl").write_text(
            json.dumps({**record, field: value}) + "\n")
        assert main(["eval", "--est", str(est), "--tree", str(data)]) == 1
        err = capsys.readouterr().err
        assert "error: BadManifestLine" in err and field in err


def test_readme_commands_use_only_options_the_parser_defines():
    """Each ``mixedit <command>`` line of the README's shell blocks, with
    its continuation lines, runs a command ``build_parser`` defines and
    passes only that command's options; every command is shown."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        "utf-8")
    blocks = [b.split("```", 1)[0] for b in readme.split("```sh\n")[1:]]
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    shown = set()
    for line in lines:
        words = line.split()
        if words[:1] != ["mixedit"]:
            continue
        command = commands[words[1]]
        shown.add(words[1])
        for option in re.findall(r"(?<!\S)--[\w-]+", line):
            assert option in command._option_string_actions, (line, option)
    assert shown == set(commands)
