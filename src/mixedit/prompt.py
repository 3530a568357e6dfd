"""Instruction simplification, template prompts, generic prompts, and parsing.

The pipeline is symmetric: ``simplify`` reduces a full instruction to the
subset a person would actually say, ``render`` turns that into one of three
template sentences using a phrase lexicon, and ``parse`` inverts the
rendering back to the simplified instruction. Uniform group edits can
instead use one of five stored generic phrasings per edit pattern.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from importlib import resources

from .core import (
    ACTION_BY_VALUE,
    Action,
    AudioDescriptor,
    AudioSignature,
    Descriptor,
    GroupDescriptor,
    GroupScope,
    Instruction,
    STYLE_FIELDS,
    SimplifiedInstruction,
    SpeechDescriptor,
    SpeechSignature,
    normalize_label,
)
from .errors import MixeditError
from .seeding import derive_seed
from .taskspace import uniform


class CannotDistinguish(MixeditError):
    pass


class ParseError(MixeditError):
    """Base for prompt parsing failures; carries the offending span."""

    def __init__(self, message: str, span: tuple[int, int] | None = None):
        super().__init__(message)
        self.span = span


class UnknownVerb(ParseError):
    pass


class UnknownDescriptor(ParseError):
    pass


class ConflictingEdits(ParseError):
    pass


class EmptyInstruction(ParseError):
    pass


class BadLexicon(MixeditError, ValueError):
    """A lexicon file that cannot be read, or whose content is malformed."""


class TemplateId(Enum):
    PLEASE = "please"
    I_WANT_TO = "i_want_to"
    CAN_YOU = "can_you"


# (opening, closing) of each template sentence; ``parse`` strips the openings.
_TEMPLATE_FORMS = {
    TemplateId.PLEASE: ("Please ", "."),
    TemplateId.I_WANT_TO: ("I want to ", "."),
    TemplateId.CAN_YOU: ("Can you ", "?"),
}


class Provenance(Enum):
    TEMPLATE = "template"
    SPECIAL_GENERIC = "special_generic"
    EXTERNAL_REPHRASE = "external_rephrase"


@dataclass(frozen=True)
class Prompt:
    text: str
    provenance: Provenance

    def __post_init__(self):
        if not self.text.strip():
            raise ValueError("prompt text must be non-empty")
        if not self.text.rstrip().endswith((".", "?")):
            raise ValueError("prompt must end in '.' or '?'")


@dataclass(frozen=True)
class SpecialPrompt:
    text: str
    edits: tuple[tuple[Action, GroupDescriptor], ...]


_SCOPES = {s.value: s for s in GroupScope}

# Style fields phrased before the speaker noun ("the happy female
# speaker"); the other fields follow as level-trait pairs.
_HEAD_FIELDS = ("emotion", "gender")

# Term tables of the lexicon file (``<name>_terms``), each mapping a value
# (an attribute value, or a field name for "trait") to its phrases.
_TERM_TABLES = _HEAD_FIELDS + ("level", "trait")


# The one lexicon the prompt functions read, through ``default_lexicon``.
_LEXICON_FILE = resources.files("mixedit.data").joinpath("lexicon.json")


def _phrases(value) -> tuple[str, ...]:
    """A lexicon phrase list: a non-empty JSON list of strings."""
    if not (isinstance(value, list) and value
            and all(isinstance(p, str) for p in value)):
        raise TypeError(f"expected a non-empty list of strings, got {value!r}")
    return tuple(value)


def _special_prompt(entry) -> SpecialPrompt:
    """A special prompt entry: its text and its [action, scope] pairs."""
    text, edits = entry["text"], entry["edits"]
    if not (isinstance(text, str) and isinstance(edits, list) and all(
            isinstance(e, list) and len(e) == 2 for e in edits)):
        raise TypeError(f"malformed special prompt {entry!r}")
    return SpecialPrompt(text, tuple(
        (ACTION_BY_VALUE[a], GroupDescriptor(_SCOPES[scope]))
        for a, scope in edits))


@dataclass
class Lexicon:
    """Phrase inventory for rendering and parsing prompts.

    Shipped as a versioned data file; every action must have at least
    three verb phrases and no phrase may serve two actions.
    """

    version: int
    verbs: dict[Action, tuple[str, ...]]
    terms: dict[str, dict[str, tuple[str, ...]]]  # table -> value -> phrases
    speaker_terms: tuple[str, ...]
    sound_terms: tuple[str, ...]
    specials: dict[str, tuple[SpecialPrompt, ...]]
    # lookup tables built after validation
    _verb_lookup: dict = field(default_factory=dict, repr=False)
    _verb_sizes: tuple = field(default=(), repr=False)
    _special_lookup: dict = field(default_factory=dict, repr=False)
    _head_lookup: dict = field(default_factory=dict, repr=False)
    _term_lookup: dict = field(default_factory=dict, repr=False)

    @classmethod
    def load(cls) -> "Lexicon":
        """The shipped lexicon, read from ``_LEXICON_FILE``. Raises
        BadLexicon for a file that cannot be read, is not JSON, lacks a
        key or holds a wrongly shaped entry, and for a lexicon that fails
        validation. A leading UTF-8 byte-order mark is skipped."""
        try:
            doc = json.loads(_LEXICON_FILE.read_text("utf-8-sig"))
            if type(doc["version"]) is not int:
                raise TypeError(f"version must be int, got {doc['version']!r}")
            lex = cls(
                version=doc["version"],
                verbs={ACTION_BY_VALUE[key]: _phrases(phrases)
                       for key, phrases in doc["verbs"].items()},
                terms={
                    table: {k: _phrases(v)
                            for k, v in doc[f"{table}_terms"].items()}
                    for table in _TERM_TABLES
                },
                speaker_terms=_phrases(doc["speaker_terms"]),
                sound_terms=_phrases(doc["sound_terms"]),
                specials={key: tuple(map(_special_prompt, entries))
                          for key, entries in doc["special_prompts"].items()},
            )
        except (OSError, ValueError, KeyError, TypeError, AttributeError,
                RecursionError) as err:
            # ValueError covers bad UTF-8 and bad JSON.
            raise BadLexicon(
                f"lexicon.json: {type(err).__name__}: {err}") from err
        lex._validate()
        lex._build_lookups()
        return lex

    def _validate(self):
        for action in Action:
            phrases = self.verbs.get(action, ())
            if len(phrases) < 3:
                raise BadLexicon(f"need at least 3 phrases for {action.value}")
        seen: dict[str, Action] = {}
        for action, phrases in self.verbs.items():
            for p in phrases:
                if p in seen:
                    raise BadLexicon(f"phrase {p!r} serves two actions")
                seen[p] = action
        texts = [sp.text for entries in self.specials.values() for sp in entries]
        if len(set(map(normalize_label, texts))) != len(texts):
            raise BadLexicon("special prompt texts must be globally unique")
        for key, entries in self.specials.items():
            if len(entries) != 5:
                raise BadLexicon(f"pattern {key!r} needs exactly 5 phrasings")

    def _build_lookups(self):
        # The grammar ``parse`` reads: each verb phrase's action by its words,
        # the phrase lengths longest first, each style word before the
        # speaker noun as (field, value), and the level and trait tables.
        self._verb_lookup = {tuple(p.split()): a
                             for a, ps in self.verbs.items() for p in ps}
        self._verb_sizes = tuple(sorted(set(map(len, self._verb_lookup)),
                                        reverse=True))
        self._special_lookup = {
            normalize_label(sp.text): sp
            for entries in self.specials.values()
            for sp in entries
        }
        self._head_lookup = {p: (f, v) for f in _HEAD_FIELDS
                             for v, ps in self.terms[f].items() for p in ps}
        self._term_lookup = {
            table: {p: v for v, ps in self.terms[table].items() for p in ps}
            for table in ("level", "trait")
        }

    def phrase(self, table: str, value: str) -> str:
        """The phrase ``render`` uses for a term-table value."""
        return self.terms[table][value][0]

    def _verb(self, words) -> tuple[int, Action] | None:
        """The longest verb phrase that opens ``words`` and has a word after
        it, as (its word count, its action), or None."""
        for size in self._verb_sizes:
            action = self._verb_lookup.get(tuple(words[:size]))
            if action is not None and len(words) > size:
                return size, action
        return None

    def verb_for(self, action: Action, rng: random.Random) -> str:
        phrases = self.verbs[action]
        return phrases[rng.randrange(len(phrases))]

    def special_entries(self, speech_action: Action, audio_action: Action):
        key = f"{speech_action.value}|{audio_action.value}"
        return self.specials.get(key)


@lru_cache(maxsize=1)
def default_lexicon() -> Lexicon:
    return Lexicon.load()


def minimal_distinguishing_fields(styles) -> tuple[str, ...]:
    """Smallest attribute subset telling all styles apart, ties broken by
    canonical attribute order. A lone style still gets one attribute so
    descriptors stay non-empty."""
    styles = list(styles)
    if len(styles) <= 1:
        return (STYLE_FIELDS[0],)
    pairs = list(itertools.combinations(styles, 2))
    for size in range(1, len(STYLE_FIELDS) + 1):
        for combo in itertools.combinations(STYLE_FIELDS, size):
            if all(
                any(getattr(a, f) != getattr(b, f) for f in combo)
                for a, b in pairs
            ):
                return combo
    raise CannotDistinguish("two speech sources share all five attributes")


def simplify(instruction: Instruction, seed: int = 0) -> SimplifiedInstruction:
    """Reduce an instruction to what a person would say.

    Pure extraction/removal edits flip a fair coin between the extraction
    phrasing (keep-edits stay, removals go unsaid) and the removal phrasing
    (the reverse). Any other edit just drops its keep-edits. Speech styles
    are cut down to one minimal distinguishing attribute subset, shared by
    all speakers in the mixture.
    """
    rng = random.Random(derive_seed(seed))
    actions = set(instruction.actions)
    if actions <= {Action.KEEP, Action.REMOVE}:
        extraction = rng.random() < 0.5
        wanted = Action.KEEP if extraction else Action.REMOVE
        chosen = [(a, s) for a, s in instruction.edits if a is wanted]
    else:
        chosen = [(a, s) for a, s in instruction.edits if a is not Action.KEEP]

    styles = [
        s.style for _, s in instruction.edits if isinstance(s, SpeechSignature)
    ]
    fields = minimal_distinguishing_fields(styles) if styles else ()

    edits = []
    for action, sig in chosen:
        if isinstance(sig, SpeechSignature):
            edits.append((action, SpeechDescriptor.from_style(sig.style, fields)))
        else:
            edits.append((action, AudioDescriptor(sig.label)))
    return SimplifiedInstruction(tuple(edits))


def _speech_phrase(desc: SpeechDescriptor, lex: Lexicon) -> str:
    attrs = dict(desc.attrs)
    pre = [lex.phrase(f, attrs[f]) for f in _HEAD_FIELDS if f in attrs]
    head = "the " + " ".join(pre + [lex.speaker_terms[0]])
    post = [
        f"{lex.phrase('level', attrs[f])} {lex.phrase('trait', f)}"
        for f in STYLE_FIELDS
        if f in attrs and f not in _HEAD_FIELDS
    ]
    if not post:
        return head
    return head + " characterized by " + _join_and(post)


def _audio_phrase(desc: AudioDescriptor, lex: Lexicon) -> str:
    label = desc.label
    if label.split()[-1] in lex.sound_terms:
        return f"the {label}"
    return f"the {label} {lex.sound_terms[0]}"


def _join_and(parts) -> str:
    parts = list(parts)
    if len(parts) == 1:
        return parts[0]
    if len(parts) == 2:
        return f"{parts[0]} and {parts[1]}"
    return ", ".join(parts[:-1]) + ", and " + parts[-1]


def render(simplified: SimplifiedInstruction, template: TemplateId,
           seed: int = 0) -> Prompt:
    """Slot a simplified instruction into one of the three templates.

    Edits are shuffled first so sources do not sit at fixed positions;
    verbs are sampled from the lexicon. Deterministic per seed.
    """
    lex = default_lexicon()
    rng = random.Random(derive_seed(seed))
    edits = list(simplified.edits)
    rng.shuffle(edits)
    clauses = []
    for action, desc in edits:
        verb = lex.verb_for(action, rng)
        if isinstance(desc, SpeechDescriptor):
            phrase = _speech_phrase(desc, lex)
        elif isinstance(desc, AudioDescriptor):
            phrase = _audio_phrase(desc, lex)
        else:
            raise ValueError("group descriptors are rendered by generic prompts")
        clauses.append(f"{verb} {phrase}")
    if len(clauses) == 1:
        body = clauses[0]
    else:
        body = ", ".join(clauses[:-1]) + ", and " + clauses[-1]
    opening, closing = _TEMPLATE_FORMS[template]
    text = opening + body + closing
    return Prompt(text, Provenance.TEMPLATE)


def special_generic(actions, comp, seed: int = 0) -> Prompt | None:
    """One of five generic phrasings for uniform group edits, or None.

    Applicable exactly when all speech actions agree and all audio actions
    agree. An empty group inherits the other group's action, collapsing
    onto the whole-mixture pattern. Callers are expected to use the result
    with probability 0.5 when it is available.
    """
    actions = tuple(actions)
    groups = [g for g in (actions[:comp.n_speech], actions[comp.n_speech:]) if g]
    group_acts = [uniform(g) for g in groups]
    if None in group_acts:
        return None
    s_act, a_act = group_acts[0], group_acts[-1]
    if s_act is a_act and s_act in (Action.KEEP, Action.REMOVE):
        return None  # identity or silence; nothing to phrase
    entries = default_lexicon().special_entries(s_act, a_act)
    if not entries:
        return None
    rng = random.Random(derive_seed(seed))
    chosen = entries[rng.randrange(len(entries))]
    return Prompt(chosen.text, Provenance.SPECIAL_GENERIC)


# A word of a prompt, as ``str.split`` finds it; ``parse`` keeps its offsets.
_WORD = re.compile(r"\S+")

_ARTICLES = ("the", "an", "a")


@lru_cache(maxsize=8)
def _normal_labels(labels: frozenset[str]) -> frozenset[str]:
    """A label set normalised once, not on every ``parse`` against it."""
    return frozenset(map(normalize_label, labels))


def parse(text: str, labels) -> SimplifiedInstruction:
    """Invert ``render``: map a template or special generic prompt back to
    its simplified instruction.

    ``labels`` is the set of class labels known to the catalog. Edits come
    back in textual order. Raises UnknownVerb, UnknownDescriptor,
    ConflictingEdits, or EmptyInstruction, each carrying a span
    ``(start, end)``: ``text[start:end]`` is the offending clause as
    written, without its separating comma or closing punctuation.
    EmptyInstruction's span is ``(0, len(text))``.
    """
    lex = default_lexicon()
    labels = _normal_labels(frozenset(labels))
    norm = normalize_label(text)
    special = lex._special_lookup.get(norm)
    if special is not None:
        return SimplifiedInstruction(special.edits)

    # The words after the template opening and before the closing
    # punctuation: their matches in text, and the words lower-cased.
    opening = next((len(o.split()) for o, _ in _TEMPLATE_FORMS.values()
                    if norm.startswith(o.lower())), 0)
    stop = len(text.rstrip().rstrip(".?!").rstrip())
    found = list(_WORD.finditer(text, 0, stop))[opening:]
    if not found:
        raise EmptyInstruction("no edits found", span=(0, len(text)))
    words = text[found[0].start():stop].lower().split()

    # Clause boundaries: a segment after ", " opens a new clause only when
    # it starts with a verb phrase; anything else (e.g. the tail of an
    # attribute list) continues the previous clause. A segment's last word
    # keeps its comma here: a verb phrase needs a word after it.
    cuts = [k for k, word in enumerate(words[:-1], 1) if word[-1] == ","]
    clauses: list[list] = []  # [first word, end word, verb match]
    for begin, end in zip([0] + cuts, cuts + [len(words)]):
        if end - begin > 1 and words[begin] == "and":
            begin += 1
        matched = lex._verb(words[begin:end])
        if matched is not None or not clauses:
            clauses.append([begin, end, matched])
        else:
            clauses[-1][1] = end

    edits: dict[Descriptor, Action] = {}
    for first, end, matched in clauses:
        cut = int(end < len(words))  # the comma before the next clause
        clause = words[first:end]
        clause[-1] = clause[-1][:len(clause[-1]) - cut]
        try:
            if matched is None:
                head = " ".join(clause).split(" the ")[0]
                raise UnknownVerb(f"no known action phrase in {head!r}")
            size, action = matched
            rest = [w for w in clause[size:] if w]
            desc = _parse_descriptor(rest, labels, lex)
            if desc in edits:
                raise ConflictingEdits(
                    f"descriptor mentioned twice: {' '.join(rest)!r}")
        except ParseError as err:
            # The span ends at the clause's last word; a lone comma is none.
            start, last = found[first].start(), found[end - 1].end() - cut
            err.span = (start, max(start, len(text[:last].rstrip())))
            raise
        edits[desc] = action
    return SimplifiedInstruction(tuple((a, d) for d, a in edits.items()))


def _strip_article(words):
    return words[1:] if len(words) > 1 and words[0] in _ARTICLES else words


def _parse_descriptor(words, labels, lex: Lexicon) -> Descriptor:
    core = _strip_article(words)
    if not core:
        raise UnknownDescriptor("empty source description")
    if " ".join(core) in labels:
        return AudioDescriptor(" ".join(core))
    if core[-1] in lex.sound_terms and " ".join(core[:-1]) in labels:
        return AudioDescriptor(" ".join(core[:-1]))

    # The head words end at the first "characterized by" with words on
    # both sides; the level-trait list follows it.
    by = next((i for i in range(1, len(core) - 2)
               if core[i:i + 2] == ["characterized", "by"]), len(core))
    if any(w in lex.speaker_terms or w in lex._head_lookup for w in core[:by]):
        return _parse_speech(core[:by], core[by + 2:], lex)
    raise UnknownDescriptor(f"unknown source description {' '.join(words)!r}")


def _parse_speech(head, tail, lex: Lexicon) -> SpeechDescriptor:
    attrs: dict[str, str] = {}
    for word in head:
        if word in lex.speaker_terms:
            continue
        if word not in lex._head_lookup:
            raise UnknownDescriptor(f"unknown style word {word!r}")
        _put_attr(attrs, *lex._head_lookup[word])
    # The level-trait pairs of "a, b, and c" or "a and b".
    parts = (p.split() for piece in " ".join(tail).split(", ")
             for p in piece.split(" and "))
    for part in filter(None, parts):
        if len(part) > 1 and part[0] == "and":
            part = part[1:]
        part = _strip_article(part)
        level = lex._term_lookup["level"].get(part[0])
        trait = lex._term_lookup["trait"].get(" ".join(part[1:]))
        if len(part) < 2 or level is None or trait is None:
            raise UnknownDescriptor(f"unreadable trait {' '.join(part)!r}")
        _put_attr(attrs, trait, level)
    if not attrs:
        raise UnknownDescriptor("speaker described with no attributes")
    ordered = tuple((f, attrs[f]) for f in STYLE_FIELDS if f in attrs)
    return SpeechDescriptor(ordered)


def _put_attr(attrs: dict, key: str, value: str):
    if key in attrs and attrs[key] != value:
        raise UnknownDescriptor(
            f"attribute {key!r} given twice with different values")
    attrs[key] = value


def expand(simplified: SimplifiedInstruction, signatures) -> tuple[Action, ...]:
    """Resolve a simplified instruction against concrete mixture signatures.

    Extraction-phrased instructions imply removal of unmentioned sources;
    any other phrasing keeps them. Group descriptors fan out over their
    whole group.
    """
    signatures = list(signatures)
    default = Action.REMOVE if simplified.extraction_phrased else Action.KEEP
    actions: list[Action] = [default] * len(signatures)
    for action, desc in simplified.edits:
        matched = [i for i, sig in enumerate(signatures) if _matches(desc, sig)]
        if not matched:
            raise UnknownDescriptor(f"{desc!r} matches no source in the mixture")
        if len(matched) > 1 and not isinstance(desc, GroupDescriptor):
            raise UnknownDescriptor(f"{desc!r} is ambiguous for this mixture")
        for i in matched:
            actions[i] = action
    return tuple(actions)


def _matches(desc: Descriptor, sig) -> bool:
    if isinstance(desc, GroupDescriptor):
        if desc.scope is GroupScope.EVERYTHING:
            return True
        if desc.scope is GroupScope.ALL_SPEECH:
            return isinstance(sig, SpeechSignature)
        return isinstance(sig, AudioSignature)
    if isinstance(desc, SpeechDescriptor):
        return isinstance(sig, SpeechSignature) and desc.matches(sig.style)
    return isinstance(sig, AudioSignature) and desc.label == sig.label
