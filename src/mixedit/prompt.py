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
    _verb_lookup: tuple[tuple[str, Action], ...] = field(default=(), repr=False)
    _special_lookup: dict = field(default_factory=dict, repr=False)
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
        self._verb_lookup = tuple(sorted(
            ((p, a) for a, ps in self.verbs.items() for p in ps),
            key=lambda pa: -len(pa[0]),
        ))
        self._special_lookup = {
            normalize_label(sp.text): sp
            for entries in self.specials.values()
            for sp in entries
        }
        self._term_lookup = {
            table: {p: v for v, ps in values.items() for p in ps}
            for table, values in self.terms.items()
        }

    def phrase(self, table: str, value: str) -> str:
        """The phrase ``render`` uses for a term-table value."""
        return self.terms[table][value][0]

    def lookup(self, table: str, phrase: str) -> str | None:
        """The term-table value a phrase names, or None."""
        return self._term_lookup[table].get(phrase)

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


def parse(text: str, labels) -> SimplifiedInstruction:
    """Invert ``render``: map a template or special generic prompt back to
    its simplified instruction.

    ``labels`` is the set of class labels known to the catalog. Edits come
    back in textual order. Raises UnknownVerb, UnknownDescriptor,
    ConflictingEdits, or EmptyInstruction, each carrying a source span.
    """
    lex = default_lexicon()
    labels = {normalize_label(l) for l in labels}
    norm = normalize_label(text)
    special = lex._special_lookup.get(norm)
    if special is not None:
        return SimplifiedInstruction(special.edits)

    lowered = text.lower()
    body = norm
    for opening, _ in _TEMPLATE_FORMS.values():
        if body.startswith(opening.lower()):
            body = body[len(opening):]
            break
    body = body.rstrip(".?!").strip()
    if not body:
        raise EmptyInstruction("no edits found", span=(0, len(text)))

    # Clause boundaries: a segment after ', ' opens a new clause only when
    # it starts with a verb phrase; anything else (e.g. the tail of an
    # attribute list) continues the previous clause.
    clauses: list[list] = []  # [clause, verb match of its first segment]
    for seg in body.split(", "):
        candidate = seg[4:] if seg.startswith("and ") else seg
        matched = _match_verb(candidate, lex)
        if matched is not None or not clauses:
            clauses.append([candidate, matched])
        else:
            clauses[-1][0] += ", " + seg

    edits = []
    seen: set[Descriptor] = set()
    for clause, matched in clauses:
        # The clause comes from whitespace-collapsed text: let any run of
        # whitespace in the original stand for each space.
        found = re.search(r"\s+".join(map(re.escape, clause.split())), lowered)
        span = found.span() if found else None
        if matched is None:
            head = clause.split(" the ")[0]
            raise UnknownVerb(f"no known action phrase in {head!r}", span=span)
        phrase, action = matched
        rest = clause[len(phrase):].strip()
        desc = _parse_descriptor(rest, labels, lex, span)
        if desc in seen:
            raise ConflictingEdits(
                f"descriptor mentioned twice: {rest!r}", span=span
            )
        seen.add(desc)
        edits.append((action, desc))
    return SimplifiedInstruction(tuple(edits))


def _match_verb(clause: str, lex: Lexicon):
    for phrase, action in lex._verb_lookup:
        if clause.startswith(phrase + " "):
            return phrase, action
    return None


def _strip_article(text: str) -> str:
    for art in ("the ", "an ", "a "):
        if text.startswith(art):
            return text[len(art):]
    return text


def _parse_descriptor(text: str, labels, lex: Lexicon,
                      span) -> Descriptor:
    core = _strip_article(text.strip())
    if not core:
        raise UnknownDescriptor("empty source description", span=span)

    if core in labels:
        return AudioDescriptor(core)
    words = core.split()
    if words[-1] in lex.sound_terms and " ".join(words[:-1]) in labels:
        return AudioDescriptor(" ".join(words[:-1]))

    head, _, tail = core.partition(" characterized by ")
    head_words = head.split()
    if any(w in lex.speaker_terms or _head_attr(w, lex) for w in head_words):
        return _parse_speech(head_words, tail, lex, span)
    raise UnknownDescriptor(f"unknown source description {text!r}", span=span)


def _head_attr(word: str, lex: Lexicon) -> tuple[str, str] | None:
    """The (field, value) a style word before the speaker noun names."""
    for f in _HEAD_FIELDS:
        value = lex.lookup(f, word)
        if value is not None:
            return f, value
    return None


def _parse_speech(head_words, tail, lex: Lexicon, span) -> SpeechDescriptor:
    attrs: dict[str, str] = {}
    for word in head_words:
        if word in lex.speaker_terms:
            continue
        attr = _head_attr(word, lex)
        if attr is None:
            raise UnknownDescriptor(f"unknown style word {word!r}", span=span)
        _put_attr(attrs, *attr, span)
    if tail:
        parts = [p for piece in tail.split(", ") for p in piece.split(" and ") if p]
        for part in parts:
            part = part.strip()
            if part.startswith("and "):
                part = part[4:]
            part = _strip_article(part)
            tokens = part.split()
            if len(tokens) < 2:
                raise UnknownDescriptor(f"unreadable trait {part!r}", span=span)
            level_word, trait_word = tokens[0], " ".join(tokens[1:])
            level = lex.lookup("level", level_word)
            trait = lex.lookup("trait", trait_word)
            if level is None or trait is None:
                raise UnknownDescriptor(f"unreadable trait {part!r}", span=span)
            _put_attr(attrs, trait, level, span)
    if not attrs:
        raise UnknownDescriptor("speaker described with no attributes", span=span)
    ordered = tuple((f, attrs[f]) for f in STYLE_FIELDS if f in attrs)
    return SpeechDescriptor(ordered)


def _put_attr(attrs: dict, key: str, value: str, span):
    if key in attrs and attrs[key] != value:
        raise UnknownDescriptor(
            f"attribute {key!r} given twice with different values", span=span
        )
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
