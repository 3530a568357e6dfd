"""Manifest records: JSON-serializable descriptions of generated mixtures.

A record carries everything needed to re-synthesize its mixture pair
bit-identically: source references with their levels, the action vector,
the simplified instruction, the prompt, and the per-record seed. Each
source's ``snr_db`` is drawn at planning, with the reference source (the
first speech source, or the first source) pinned at 0 dB, and synthesis
plays it as given, relative to the reference source's conditioned energy.
The manifest is line-delimited JSON, one record per line, schema-versioned.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from ..core import (
    ACTION_BY_VALUE,
    STYLE_FIELDS,
    Action,
    AudioDescriptor,
    AudioSignature,
    GroupDescriptor,
    GroupScope,
    SimplifiedInstruction,
    SpeechDescriptor,
    SpeechSignature,
    StyleVector,
    validate_instruction,
)
from ..errors import MixeditError
from ..mixer import draw_assigned_snrs
from ..prompt import TemplateId, parse, render, simplify, special_generic
from ..seeding import derive_seed
from ..taskspace import Composition, sample_edit
from .catalog import Catalog, CatalogEntry, SplitAssignment

SCHEMA_VERSION = 1

# Draws per record before a split is declared too small for distinct sources.
_MAX_TRIES = 200


class ExhaustedRetries(MixeditError):
    pass


class BadManifestLine(MixeditError):
    pass


def signature_to_json(sig) -> dict:
    if isinstance(sig, SpeechSignature):
        return {"kind": "speech",
                "style": dict(zip(STYLE_FIELDS, sig.style.values()))}
    return {"kind": "audio", "label": sig.label}


def signature_from_json(doc: dict):
    if doc["kind"] == "speech":
        return SpeechSignature(StyleVector.from_strings(
            *(doc["style"][f] for f in STYLE_FIELDS)))
    return AudioSignature(doc["label"])


def simplified_to_json(simp: SimplifiedInstruction) -> list[dict]:
    out = []
    for action, desc in simp.edits:
        if isinstance(desc, SpeechDescriptor):
            out.append({"action": action.value, "kind": "speech",
                        "attrs": dict(desc.attrs)})
        elif isinstance(desc, AudioDescriptor):
            out.append({"action": action.value, "kind": "audio",
                        "label": desc.label})
        else:
            out.append({"action": action.value, "kind": "group",
                        "scope": desc.scope.value})
    return out


def simplified_from_json(doc: list[dict]) -> SimplifiedInstruction:
    edits = []
    for item in doc:
        action = ACTION_BY_VALUE[item["action"]]
        if item["kind"] == "speech":
            attrs = tuple(sorted(item["attrs"].items(),
                                 key=lambda kv: STYLE_FIELDS.index(kv[0])))
            edits.append((action, SpeechDescriptor(attrs)))
        elif item["kind"] == "audio":
            edits.append((action, AudioDescriptor(item["label"])))
        else:
            edits.append((action, GroupDescriptor(GroupScope(item["scope"]))))
    return SimplifiedInstruction(tuple(edits))


@dataclass
class SourceRef:
    id: str
    path: str
    signature: dict
    snr_db: float
    gain: float | None = None  # filled during synthesis


# Fields that callers format or compare by type; json.loads gives exactly
# these types (a bool is not an int here).
_FIELD_TYPES = {"record_id": int, "seed": int, "n_speech": int, "n_audio": int,
                "task": str, "prompt": str, "prompt_provenance": str,
                "actions": list, "simplified": list}
_SOURCE_FIELD_TYPES = {"id": str, "path": str, "signature": dict}


def _check_types(obj, types: dict, where: str = ""):
    for name, kind in types.items():
        value = getattr(obj, name)
        if type(value) is not kind:
            raise BadManifestLine(
                f"{where}{name} must be {kind.__name__}, got {value!r}")


def _is_finite_number(value) -> bool:
    """A JSON number that is finite; a bool is not a number here."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _check_optional_fields(record: "ManifestRecord"):
    if record.template is not None and type(record.template) is not str:
        raise BadManifestLine(
            f"template must be null or str, got {record.template!r}")
    if record.scale is not None and not _is_finite_number(record.scale):
        raise BadManifestLine(
            f"scale must be null or a finite number, got {record.scale!r}")
    outputs = record.outputs
    if outputs is not None and not (
            type(outputs) is dict
            and all(type(outputs.get(role)) is str
                    for role in ("input", "target", "prompt"))):
        raise BadManifestLine(f"outputs must be null or an object of "
                              f"input, target and prompt names, got {outputs!r}")


def _check_source(ref: SourceRef):
    _check_types(ref, _SOURCE_FIELD_TYPES, "source ")
    if not _is_finite_number(ref.snr_db):
        raise BadManifestLine(
            f"source snr_db must be a finite number, got {ref.snr_db!r}")
    if ref.gain is not None and not _is_finite_number(ref.gain):
        raise BadManifestLine(
            f"source gain must be null or a finite number, got {ref.gain!r}")


@dataclass
class ManifestRecord:
    record_id: int
    seed: int
    n_speech: int
    n_audio: int
    sources: list[SourceRef]
    actions: list[str]
    task: str
    simplified: list[dict]
    prompt: str
    prompt_provenance: str
    template: str | None = None
    scale: float | None = None
    outputs: dict | None = None
    schema: int = SCHEMA_VERSION

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True, default=vars)

    @classmethod
    def from_json(cls, line: str) -> "ManifestRecord":
        try:
            doc = json.loads(line)
            schema = doc.get("schema")
            if type(schema) is not int or schema != SCHEMA_VERSION:
                raise BadManifestLine(f"unsupported manifest schema {schema!r}")
            doc["sources"] = [SourceRef(**s) for s in doc["sources"]]
            record = cls(**doc)
            _check_types(record, _FIELD_TYPES)
            _check_optional_fields(record)
            if not record.sources:
                raise BadManifestLine("a record needs at least one source")
            for ref in record.sources:
                _check_source(ref)
            record.action_vector()
            record.signatures()
            simplified_from_json(record.simplified)
            return record
        except (ValueError, KeyError, TypeError, AttributeError,
                RecursionError) as err:
            raise BadManifestLine(f"{type(err).__name__}: {err}") from err

    @property
    def composition(self) -> Composition:
        return Composition(self.n_speech, self.n_audio)

    def action_vector(self) -> tuple[Action, ...]:
        return tuple(ACTION_BY_VALUE[a] for a in self.actions)

    def signatures(self):
        return [signature_from_json(s.signature) for s in self.sources]


def _sample_distinct(pool: list[CatalogEntry], count: int, rng: random.Random,
                     *, speech: bool) -> list[CatalogEntry]:
    if len(pool) < count:
        raise ExhaustedRetries(
            f"need {count} sources but the split holds {len(pool)}"
        )
    for _ in range(_MAX_TRIES):
        picked = rng.sample(pool, count)
        if speech:
            styles = {e.signature.style for e in picked}
            speakers = {e.speaker for e in picked}
            if len(styles) == count and len(speakers) == count:
                return picked
        else:
            labels = {e.signature.label for e in picked}
            if len(labels) == count:
                return picked
    raise ExhaustedRetries(
        f"could not draw {count} distinct-{'style' if speech else 'label'} "
        f"sources in {_MAX_TRIES} tries"
    )


def generate_manifest(catalog: Catalog, splits: SplitAssignment, count: int,
                      comp: Composition, seed: int,
                      split: str = "train") -> list[ManifestRecord]:
    """Symbolic dataset plan: no audio is read here.

    Per record, all randomness derives from hash(master seed, record id),
    so synthesis order and worker counts cannot change the result. Tasks
    are drawn uniformly over those defined for the composition, then one
    edit uniformly within the task. Special generic prompts replace the
    template rendering with probability 0.5 whenever they apply.
    """
    entries = splits.entries(catalog, split)
    speech_pool = [e for e in entries if e.is_speech]
    audio_pool = [e for e in entries if not e.is_speech]
    records = []
    for record_id in range(count):
        rec_seed = derive_seed(seed, record_id)
        rng = random.Random(derive_seed(rec_seed, "sources"))
        picked = []
        if comp.n_speech:
            picked += _sample_distinct(speech_pool, comp.n_speech, rng,
                                       speech=True)
        if comp.n_audio:
            picked += _sample_distinct(audio_pool, comp.n_audio, rng,
                                       speech=False)
        signatures = [e.signature for e in picked]
        task, actions = sample_edit(comp, derive_seed(rec_seed, "edit"))
        instruction = validate_instruction(list(zip(actions, signatures)))
        simp = simplify(instruction, derive_seed(rec_seed, "simplify"))
        template = None
        coin = random.Random(derive_seed(rec_seed, "special-coin")).random()
        special = special_generic(actions, comp,
                                  seed=derive_seed(rec_seed, "special"))
        if special is not None and coin < 0.5:
            prompt = special
            # store the group-level edits the shipped prompt denotes
            group_edits = parse(special.text, catalog.labels)
            simp_doc = simplified_to_json(group_edits)
        else:
            template_rng = random.Random(derive_seed(rec_seed, "template"))
            template = list(TemplateId)[template_rng.randrange(3)]
            prompt = render(simp, template,
                            seed=derive_seed(rec_seed, "render"))
            simp_doc = simplified_to_json(simp)
        snrs = draw_assigned_snrs(signatures, derive_seed(rec_seed, "gains"))
        sources = [
            SourceRef(e.id, str(e.path), signature_to_json(e.signature),
                      snr_db=snrs[i])
            for i, e in enumerate(picked)
        ]
        records.append(ManifestRecord(
            record_id=record_id,
            seed=rec_seed,
            n_speech=comp.n_speech,
            n_audio=comp.n_audio,
            sources=sources,
            actions=[a.value for a in actions],
            task=task.value,
            simplified=simp_doc,
            prompt=prompt.text,
            prompt_provenance=prompt.provenance.value,
            template=template.value if template else None,
        ))
    return records


def write_manifest(records, path):
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(record.to_json())
            fh.write("\n")


def load_manifest(path) -> list[ManifestRecord]:
    records = []
    try:
        # utf-8-sig skips a leading byte-order mark.
        lines = Path(path).read_text("utf-8-sig").splitlines()
    except (OSError, UnicodeDecodeError) as err:  # unreadable, not UTF-8
        raise BadManifestLine(f"{path}: {err}") from err
    for line_no, line in enumerate(lines, start=1):
        if line.strip():
            try:
                records.append(ManifestRecord.from_json(line))
            except BadManifestLine as err:
                raise BadManifestLine(f"{path} line {line_no}: {err}") from err
    return records
