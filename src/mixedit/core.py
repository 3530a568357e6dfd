"""Shared domain types: source signatures, editing actions, and instructions.

A source is identified by its signature: a five-attribute speaking style
for speech, or a class label for everything else. An instruction pairs
every source in a mixture with exactly one action from the four-element
action set. All types here are immutable value types with a canonical
ordering, so instruction sets are reproducible across runs.
"""

from __future__ import annotations

import itertools
import typing
from dataclasses import dataclass
from enum import Enum

from .errors import MixeditError


class Gender(str, Enum):
    FEMALE = "female"
    MALE = "male"


class Level(str, Enum):
    """Three-step scale shared by the pitch, tempo, and volume attributes."""

    LOW = "low"
    NORMAL = "normal"
    HIGH = "high"


class Emotion(str, Enum):
    ANGRY = "angry"
    CONTEMPT = "contempt"
    DISGUSTED = "disgusted"
    FEAR = "fear"
    HAPPY = "happy"
    SAD = "sad"
    SURPRISED = "surprised"
    NEUTRAL = "neutral"


@dataclass(frozen=True, order=True)
class StyleVector:
    """Five-attribute speaking style in canonical attribute order."""

    gender: Gender
    pitch: Level
    tempo: Level
    volume: Level
    emotion: Emotion

    def values(self) -> tuple[str, ...]:
        return tuple(getattr(self, f).value for f in STYLE_FIELDS)

    def canonical(self) -> str:
        return "/".join(self.values())

    @classmethod
    def from_strings(cls, gender: str, pitch: str, tempo: str, volume: str,
                     emotion: str) -> "StyleVector":
        return cls(Gender(gender), Level(pitch), Level(tempo), Level(volume),
                   Emotion(emotion))

    @classmethod
    def all_vectors(cls):
        """Every possible style vector, in canonical order (2*3*3*3*8 = 432)."""
        spaces = [list(_STYLE_ENUMS[f]) for f in STYLE_FIELDS]
        for combo in itertools.product(*spaces):
            yield cls(*combo)


# Each style field's enum, in canonical attribute order (the field order
# of ``StyleVector``); rendering and subset selection both rely on it.
_STYLE_ENUMS = typing.get_type_hints(StyleVector)
STYLE_FIELDS = tuple(_STYLE_ENUMS)


def normalize_label(text: str) -> str:
    """Lower-case text and collapse its whitespace: the one normaliser for
    class labels and prompt text alike."""
    return " ".join(text.strip().lower().split())


@dataclass(frozen=True, order=True)
class SpeechSignature:
    style: StyleVector

    def canonical(self) -> str:
        return "speech:" + self.style.canonical()


@dataclass(frozen=True, order=True)
class AudioSignature:
    label: str

    def __post_init__(self):
        norm = normalize_label(self.label)
        if not norm:
            raise ValueError("class label must be non-empty")
        if "," in norm or ";" in norm:
            raise ValueError("class label may not contain list separators")
        object.__setattr__(self, "label", norm)

    def canonical(self) -> str:
        return "audio:" + self.label


Signature = SpeechSignature | AudioSignature


class Action(Enum):
    """The four editing actions and their scaling factors."""

    REMOVE = "remove"
    KEEP = "keep"
    VOLUME_UP = "up"
    VOLUME_DOWN = "down"

    @property
    def alpha(self) -> float:
        return _ALPHA[self]

    @property
    def symbol(self) -> str:
        return _SYMBOL[self]


_ALPHA = {
    Action.REMOVE: 0.0,
    Action.KEEP: 1.0,
    Action.VOLUME_UP: 2.0,    # +20*log10(2) ~ 6.02 dB
    Action.VOLUME_DOWN: 0.5,  # -6.02 dB
}

_SYMBOL = {
    Action.REMOVE: "0",
    Action.KEEP: "1",
    Action.VOLUME_UP: "↑",
    Action.VOLUME_DOWN: "↓",
}

# Action by its serialized value ("remove", "keep", "up", "down").
ACTION_BY_VALUE = {a.value: a for a in Action}

# Each action reads from its symbol, its serialized value and that value's
# initial ("u" for "up").
_ACTION_TOKENS = {
    token: action for value, action in ACTION_BY_VALUE.items()
    for token in (_SYMBOL[action], value, value[0])
}


def parse_action(token: str) -> Action:
    """Parse one action token; accepts symbols (0,1,↑,↓) and ASCII aliases."""
    try:
        return _ACTION_TOKENS[token.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown action token {token!r}") from None


def parse_action_vector(text: str) -> tuple[Action, ...]:
    """Parse a comma-separated action vector like '1,0,u,d'."""
    tokens = [t for t in text.split(",") if t.strip()]
    if not tokens:
        raise ValueError("empty action vector")
    return tuple(parse_action(t) for t in tokens)


class DuplicateSignature(MixeditError):
    def __init__(self, i: int, j: int):
        super().__init__(f"sources {i} and {j} share the same signature")
        self.indices = (i, j)


class TrivialIdentity(MixeditError):
    pass


class TrivialSilence(MixeditError):
    pass


@dataclass(frozen=True)
class Instruction:
    """Ordered per-source edits; one (action, signature) pair per source."""

    edits: tuple[tuple[Action, Signature], ...]

    @property
    def actions(self) -> tuple[Action, ...]:
        return tuple(a for a, _ in self.edits)

    @property
    def signatures(self) -> tuple[Signature, ...]:
        return tuple(s for _, s in self.edits)

    def __len__(self) -> int:
        return len(self.edits)


def validate_instruction(edits) -> Instruction:
    """Check signature distinctness and reject identity/silence edits.

    Raises DuplicateSignature, TrivialIdentity, or TrivialSilence.
    """
    edits = tuple((a, s) for a, s in edits)
    if len(edits) < 2:
        raise ValueError("an instruction needs at least two sources")
    for i in range(len(edits)):
        for j in range(i + 1, len(edits)):
            if edits[i][1] == edits[j][1]:
                raise DuplicateSignature(i, j)
    actions = [a for a, _ in edits]
    if all(a is Action.KEEP for a in actions):
        raise TrivialIdentity("all sources kept: nothing to edit")
    if all(a is Action.REMOVE for a in actions):
        raise TrivialSilence("all sources removed: result is silence")
    return Instruction(edits)


class GroupScope(Enum):
    """Source groups addressable by generic prompts."""

    ALL_SPEECH = "all_speech"
    ALL_AUDIO = "all_audio"
    EVERYTHING = "everything"


@dataclass(frozen=True)
class SpeechDescriptor:
    """A speech source described by a non-empty subset of style attributes.

    ``attrs`` holds (field, value) pairs in canonical attribute order.
    """

    attrs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if not self.attrs:
            raise ValueError("speech descriptor needs at least one attribute")
        fields = [f for f, _ in self.attrs]
        if fields != [f for f in STYLE_FIELDS if f in fields]:
            raise ValueError("attributes must follow canonical order")
        for field, value in self.attrs:
            _STYLE_ENUMS[field](value)  # raises on unknown values

    @classmethod
    def from_style(cls, style: StyleVector, fields) -> "SpeechDescriptor":
        chosen = tuple(
            (f, getattr(style, f).value) for f in STYLE_FIELDS if f in fields
        )
        return cls(chosen)

    def matches(self, style: StyleVector) -> bool:
        return all(getattr(style, f).value == v for f, v in self.attrs)


@dataclass(frozen=True)
class AudioDescriptor:
    label: str

    def __post_init__(self):
        object.__setattr__(self, "label", normalize_label(self.label))


@dataclass(frozen=True)
class GroupDescriptor:
    scope: GroupScope


Descriptor = SpeechDescriptor | AudioDescriptor | GroupDescriptor


@dataclass(frozen=True)
class SimplifiedInstruction:
    """Human-like reduction of an instruction: keep-edits dropped (unless the
    extraction phrasing was chosen) and speech styles cut to a distinguishing
    attribute subset."""

    edits: tuple[tuple[Action, Descriptor], ...]

    def __post_init__(self):
        if not self.edits:
            raise ValueError("simplified instruction must be non-empty")

    @property
    def extraction_phrased(self) -> bool:
        """True when every edit keeps its source (unmentioned ones drop)."""
        return all(a is Action.KEEP for a, _ in self.edits)

    def as_set(self) -> frozenset:
        return frozenset(self.edits)

    def __len__(self) -> int:
        return len(self.edits)
