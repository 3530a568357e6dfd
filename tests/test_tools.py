"""The repository's tools."""

import importlib.util
from pathlib import Path

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
    assert [name for name, _ in runs[0]] == [
        f"loss/{dtype}/{refs}" for dtype in ("float64", "float32")
        for refs in ("mixture", "pit")]
    assert len({digest for _, digest in runs[0]}) == 4
