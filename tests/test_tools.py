"""The repository's tools."""

import importlib.util
from pathlib import Path

from mixedit import dsp

_DIGESTS = Path(__file__).resolve().parents[1] / "tools" / "digests.py"


def _digests_module():
    spec = importlib.util.spec_from_file_location("digests", _DIGESTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _twice(case: str, tmp_path, monkeypatch) -> list:
    """The lines of one digests case, run in two new directories."""
    digests = _digests_module()
    runs = []
    for name in ("first", "second"):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        runs.append(list(digests.CASES[case]()))
    return runs


def test_digests_of_a_case_agree_across_runs(tmp_path, monkeypatch):
    runs = _twice("edit", tmp_path, monkeypatch)
    assert runs[0] == runs[1]
    names = [name for name, _ in runs[0]]
    assert len(set(names)) == len(names) == 18
    assert all(len(digest) == 64 for _, digest in runs[0])


def test_digests_of_the_loss_case_agree_across_runs(tmp_path, monkeypatch):
    runs = _twice("loss", tmp_path, monkeypatch)
    assert runs[0] == runs[1]
    assert [name for name, _ in runs[0]] == ["loss/float64", "loss/float32"]
    assert len({digest for _, digest in runs[0]}) == 2


def test_digests_of_the_resample_case_agree_on_one_and_two_cpus(monkeypatch):
    digests = _digests_module()
    runs = []
    counts = []  # of the parts each resample call runs
    each = dsp._each
    monkeypatch.setattr(dsp, "_each", lambda parts, step: (
        counts.append(len(parts)), each(parts, step)))
    for cpus in (1, 2):
        monkeypatch.setattr(dsp, "available_cpus", lambda: cpus)
        runs.append(list(digests.CASES["resample"]()))
    assert runs[0] == runs[1]
    assert [name for name, _ in runs[0]] == [
        f"resample/{src}-{tgt}" for src, tgt in digests.RESAMPLE_PAIRS] + [
        f"resample/{src}-{tgt}/split" for src, tgt in digests.SPLIT_FROM]
    # Each /split digest is of one block below resample's split and of it.
    splits = len(digests.SPLIT_FROM)
    assert counts[-2 * splits:] == [1, 2] * splits
    assert len({digest for _, digest in runs[0]}) == len(runs[0])


def test_digests_of_the_demo_case_agree_on_one_and_two_cpus(tmp_path,
                                                            monkeypatch):
    digests = _digests_module()
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(dsp, "available_cpus", lambda: cpus)
        (tmp_path / f"cpus{cpus}").mkdir()
        monkeypatch.chdir(tmp_path / f"cpus{cpus}")
        runs.append(list(digests.CASES["demo"]()))
    assert runs[0] == runs[1]
    assert [name for name, _ in runs[0]] == [
        "demo/cat16", "demo/cat48/speech", "demo/cat48/audio"]
    assert len({digest for _, digest in runs[0]}) == 3
