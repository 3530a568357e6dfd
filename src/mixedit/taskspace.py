"""The 16-task taxonomy over editing vectors: classify, enumerate, count, sample.

Every nontrivial action vector over a fixed speech/audio composition maps to
exactly one task. Overlapping structural patterns are resolved by a fixed
precedence: overall volume moves, then whole-group extraction (SE/SR), then
uniform group volume moves (S-up/S-down), then single-target edits (extraction
patterns before removal patterns), then the multi-source buckets.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .core import Action
from .errors import MixeditError
from .seeding import derive_seed


class Task(Enum):
    TSE = "TSE"        # extract one speech source
    TSR = "TSR"        # remove one speech source
    TS_UP = "TSup"     # turn one speech source up
    TS_DOWN = "TSdown"
    TAE = "TAE"        # extract one audio source
    TAR = "TAR"
    TA_UP = "TAup"
    TA_DOWN = "TAdown"
    SE = "SE"          # keep all speech, drop all audio
    SR = "SR"          # drop all speech, keep all audio
    S_UP = "Sup"       # favor speech: speech up, audio down, or both
    S_DOWN = "Sdown"   # favor audio: speech down, audio up, or both
    ME = "ME"          # extract/remove several sources
    MVC = "MVC"        # volume moves on several sources
    MEVC = "MEVC"      # mixed extraction/removal and volume moves
    OVC = "OVC"        # same volume move on every source

    @property
    def symbol(self) -> str:
        return self.value.replace("up", "↑").replace("down", "↓")


@dataclass(frozen=True, order=True)
class Composition:
    """Source counts of a mixture, speech positions first."""

    n_speech: int
    n_audio: int

    def __post_init__(self):
        if self.n_speech < 0 or self.n_audio < 0:
            raise ValueError("source counts must be non-negative")
        if self.total < 2:
            raise ValueError("a mixture needs at least two sources")

    @property
    def total(self) -> int:
        return self.n_speech + self.n_audio


class TrivialEdit(MixeditError):
    pass


class TooManySources(MixeditError):
    pass


class UndefinedTask(MixeditError):
    def __init__(self, task: Task, comp: Composition):
        super().__init__(
            f"{task.value} has no edits for {comp.n_speech} speech + "
            f"{comp.n_audio} audio"
        )
        self.task = task
        self.comp = comp


# _edit_map classifies all 4^N vectors, so each source costs ~4x more time.
MAX_ENUMERATED_SOURCES = 10

_UP, _DOWN, _KEEP, _REMOVE = (
    Action.VOLUME_UP, Action.VOLUME_DOWN, Action.KEEP, Action.REMOVE
)

# (uniform speech action, uniform audio action) patterns per group task
_S_UP_PAIRS = {(_UP, _KEEP), (_KEEP, _DOWN), (_UP, _DOWN)}
_S_DOWN_PAIRS = {(_DOWN, _KEEP), (_KEEP, _UP), (_DOWN, _UP)}


def uniform(actions) -> Action | None:
    """The action every entry of a non-empty group shares, or None."""
    first = actions[0]
    return first if all(a is first for a in actions) else None


def classify(actions, comp: Composition) -> Task:
    """Map one nontrivial action vector to its task.

    Raises TrivialEdit for the identity and silence vectors and ValueError
    when the vector length does not match the composition.
    """
    actions = tuple(actions)
    if len(actions) != comp.total:
        raise ValueError(
            f"action vector length {len(actions)} != {comp.total} sources"
        )
    if all(a is _KEEP for a in actions):
        raise TrivialEdit("identity edit")
    if all(a is _REMOVE for a in actions):
        raise TrivialEdit("silence edit")

    ns = comp.n_speech
    speech, audio = actions[:ns], actions[ns:]

    uni = uniform(actions)
    if uni in (_UP, _DOWN):
        return Task.OVC

    if speech and audio:
        if all(a is _KEEP for a in speech) and all(a is _REMOVE for a in audio):
            return Task.SE
        if all(a is _REMOVE for a in speech) and all(a is _KEEP for a in audio):
            return Task.SR
        pair = (uniform(speech), uniform(audio))
        if pair in _S_UP_PAIRS:
            return Task.S_UP
        if pair in _S_DOWN_PAIRS:
            return Task.S_DOWN

    # Single-target patterns. Extraction (one keep, rest removed) is checked
    # before removal (one removed, rest kept): at N=2 the same vector matches
    # both readings and counts as extraction.
    kept = [i for i, a in enumerate(actions) if a is _KEEP]
    removed = [i for i, a in enumerate(actions) if a is _REMOVE]
    if len(kept) == 1 and len(removed) == comp.total - 1:
        return Task.TSE if kept[0] < ns else Task.TAE
    if len(removed) == 1 and len(kept) == comp.total - 1:
        return Task.TSR if removed[0] < ns else Task.TAR
    ups = [i for i, a in enumerate(actions) if a is _UP]
    downs = [i for i, a in enumerate(actions) if a is _DOWN]
    if len(ups) == 1 and len(kept) == comp.total - 1:
        return Task.TS_UP if ups[0] < ns else Task.TA_UP
    if len(downs) == 1 and len(kept) == comp.total - 1:
        return Task.TS_DOWN if downs[0] < ns else Task.TA_DOWN

    present = set(actions)
    if present <= {_KEEP, _REMOVE}:
        return Task.ME
    if _REMOVE not in present:
        return Task.MVC
    return Task.MEVC


@lru_cache(maxsize=64)
def _edit_map(comp: Composition) -> dict[Task, tuple[tuple[Action, ...], ...]]:
    """All nontrivial vectors for a composition, grouped by task; raises
    TooManySources beyond MAX_ENUMERATED_SOURCES."""
    if comp.total > MAX_ENUMERATED_SOURCES:
        raise TooManySources(
            f"{comp.total} sources: enumerating 4^{comp.total} edits is capped "
            f"at {MAX_ENUMERATED_SOURCES} sources")
    grouped: dict[Task, list] = {t: [] for t in Task}
    for vec in itertools.product(tuple(Action), repeat=comp.total):
        try:
            grouped[classify(vec, comp)].append(vec)
        except TrivialEdit:
            continue
    return {t: tuple(vecs) for t, vecs in grouped.items()}


def enumerate_edits(task: Task, comp: Composition) -> tuple[tuple[Action, ...], ...]:
    """Every action vector classified as ``task``; raises UndefinedTask if none."""
    vecs = _edit_map(comp)[task]
    if not vecs:
        raise UndefinedTask(task, comp)
    return vecs


def count_table(comp: Composition) -> dict[Task, int]:
    """Edit count per task; zero marks a task undefined for the composition."""
    return {t: len(vecs) for t, vecs in _edit_map(comp).items()}


def defined_tasks(comp: Composition) -> tuple[Task, ...]:
    return tuple(t for t, vecs in _edit_map(comp).items() if vecs)


def sample_edit(comp: Composition, seed: int) -> tuple[Task, tuple[Action, ...]]:
    """Sample uniformly over defined tasks, then uniformly within the task."""
    rng = random.Random(derive_seed(seed))
    tasks = defined_tasks(comp)
    task = tasks[rng.randrange(len(tasks))]
    vecs = _edit_map(comp)[task]
    return task, vecs[rng.randrange(len(vecs))]
