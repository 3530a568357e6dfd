"""Simplification, template rendering, generic prompts, and the parser."""

import itertools
from pathlib import Path

import pytest

from mixedit.core import (
    Action,
    Instruction,
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
from mixedit import prompt as prompt_module
from mixedit.prompt import (
    BadLexicon,
    CannotDistinguish,
    ConflictingEdits,
    EmptyInstruction,
    Lexicon,
    Provenance,
    TemplateId,
    UnknownDescriptor,
    UnknownVerb,
    default_lexicon,
    expand,
    minimal_distinguishing_fields,
    parse,
    render,
    simplify,
    special_generic,
)
from mixedit.dataset.catalog import Catalog, CatalogEntry
from mixedit.taskspace import Composition, defined_tasks, enumerate_edits

K, R, U, D = Action.KEEP, Action.REMOVE, Action.VOLUME_UP, Action.VOLUME_DOWN

SPK1 = SpeechSignature(StyleVector.from_strings(
    "female", "normal", "high", "high", "happy"))
SPK2 = SpeechSignature(StyleVector.from_strings(
    "male", "normal", "low", "high", "happy"))
AUD1 = AudioSignature("playing cello")
AUD2 = AudioSignature("dog barking")
SIGS = [SPK1, SPK2, AUD1, AUD2]
LABELS = {"playing cello", "dog barking"}
COMP = Composition(2, 2)


def instr(actions):
    return validate_instruction(list(zip(actions, SIGS)))


# ---------------- lexicon ----------------

def test_lexicon_loads_and_validates():
    lex = default_lexicon()
    for action in Action:
        assert len(lex.verbs[action]) >= 3
    phrases = [p for ps in lex.verbs.values() for p in ps]
    assert len(set(phrases)) == len(phrases)
    # 14 uniform group patterns with five phrasings each
    assert len(lex.specials) == 14
    assert all(len(v) == 5 for v in lex.specials.values())


def _packaged_lexicon() -> dict:
    import json
    from importlib import resources
    return json.loads(
        resources.files("mixedit.data").joinpath("lexicon.json").read_text())


def _load_shipped(monkeypatch, path):
    """``Lexicon.load`` with the shipped file replaced by ``path``."""
    monkeypatch.setattr(prompt_module, "_LEXICON_FILE", path)
    return Lexicon.load()


def test_lexicon_rejects_ambiguous_phrases(tmp_path, monkeypatch):
    import json
    doc = _packaged_lexicon()
    doc["verbs"]["keep"] = list(doc["verbs"]["keep"]) + ["remove"]
    bad = tmp_path / "lexicon.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        _load_shipped(monkeypatch, bad)


def test_lexicon_rejects_special_prompts_differing_in_whitespace(
        tmp_path, monkeypatch):
    import json
    doc = _packaged_lexicon()
    entries = doc["special_prompts"]["keep|remove"]
    entries[1]["text"] = entries[0]["text"].replace(" ", "  ", 1)
    bad = tmp_path / "lexicon.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        _load_shipped(monkeypatch, bad)


_DROP = object()


def _set(doc, path, value):
    *head, last = path
    for key in head:
        doc = doc[key]
    if value is _DROP:
        del doc[last]
    else:
        doc[last] = value


def test_lexicon_loads_with_or_without_a_bom(tmp_path, monkeypatch):
    import json
    text = json.dumps(_packaged_lexicon())
    expected = default_lexicon().verbs
    for name, data in (("plain", text.encode()),
                       ("bom", b"\xef\xbb\xbf" + text.encode())):
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        assert _load_shipped(monkeypatch, path).verbs == expected


@pytest.mark.parametrize("text", [
    None, "", "{", "[]", "{}", '"text"', "\udcff", "[" * 100_000],
    ids=["missing", "empty", "open brace", "list", "empty object", "string",
         "not utf-8", "deep nesting"])
def test_lexicon_rejects_an_unreadable_file(tmp_path, monkeypatch, text):
    path = tmp_path / "lexicon.json"
    if text is not None:
        path.write_text(text, "utf-8", errors="surrogateescape")
    with pytest.raises(BadLexicon) as err:
        _load_shipped(monkeypatch, path)
    assert isinstance(err.value, ValueError)


@pytest.mark.parametrize("path, value", [
    (("version",), _DROP), (("version",), "1"), (("version",), True),
    (("verbs",), _DROP), (("verbs",), []), (("verbs", "keep"), "keep"),
    (("verbs", "keep"), [1, 2, 3]), (("verbs", "frobnicate"), ["x"]),
    (("gender_terms",), _DROP), (("gender_terms", "female"), []),
    (("level_terms",), ["low"]), (("speaker_terms",), "speaker"),
    (("sound_terms",), []), (("special_prompts",), _DROP),
    (("special_prompts", "keep|remove"), "text"),
    (("special_prompts", "keep|remove", 0, "text"), 5),
    (("special_prompts", "keep|remove", 0, "edits"), ["ka"]),
    (("special_prompts", "keep|remove", 0, "edits", 0), ["keep", "nobody"]),
    (("special_prompts", "keep|remove", 0, "edits", 0), ["keep"]),
])
def test_lexicon_rejects_a_wrongly_shaped_entry(tmp_path, monkeypatch, path,
                                                value):
    import json
    doc = _packaged_lexicon()
    _set(doc, path, value)
    bad = tmp_path / "lexicon.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(BadLexicon):
        _load_shipped(monkeypatch, bad)


# ---------------- simplify ----------------

def test_simplify_extraction_or_removal_phrasing():
    tse = instr([K, R, R, R])
    seen = set()
    for seed in range(40):
        simp = simplify(tse, seed=seed)
        if simp.extraction_phrased:
            assert simp.as_set() == {
                (K, SpeechDescriptor((("gender", "female"),)))}
            seen.add("extract")
        else:
            assert {a for a, _ in simp.edits} == {R}
            assert len(simp) == 3
            seen.add("remove")
    assert seen == {"extract", "remove"}


def test_simplify_drops_keeps_for_volume_edits():
    simp = simplify(instr([U, K, D, K]), seed=1)
    assert simp.as_set() == {
        (U, SpeechDescriptor((("gender", "female"),))),
        (D, AudioDescriptor("playing cello")),
    }


def test_simplify_minimal_subset_single_attribute():
    # speakers differing in gender keep only gender
    simp = simplify(instr([U, D, K, K]), seed=0)
    descs = [d for _, d in simp.edits]
    assert all(d.attrs == ((("gender", d.attrs[0][1]),))[0:1] for d in descs)


def test_simplify_deterministic():
    a = simplify(instr([K, R, R, R]), seed=5)
    b = simplify(instr([K, R, R, R]), seed=5)
    assert a == b


def test_minimal_distinguishing_fields():
    s1 = StyleVector.from_strings("female", "low", "low", "low", "happy")
    s2 = StyleVector.from_strings("female", "low", "high", "low", "happy")
    assert minimal_distinguishing_fields([s1, s2]) == ("tempo",)
    s3 = StyleVector.from_strings("female", "high", "low", "low", "sad")
    # one attribute cannot separate all three; gender+pitch fails; first
    # working pair is (pitch, tempo)
    fields = minimal_distinguishing_fields([s1, s2, s3])
    assert len(fields) == 2
    assert minimal_distinguishing_fields([s1]) == ("gender",)
    with pytest.raises(CannotDistinguish):
        minimal_distinguishing_fields([s1, s1])


def test_simplify_rejects_unvalidated_equal_styles():
    twin = Instruction(((R, SPK1), (K, SPK1), (K, AUD1)))
    with pytest.raises(CannotDistinguish):
        simplify(twin, seed=0)


def test_simplify_true_minimality_property():
    # dropping any retained attribute breaks distinguishability, unless
    # the subset is a singleton
    for seed in range(10):
        simp = simplify(instr([U, D, K, K]), seed=seed)
        speech = [d for _, d in simp.edits if isinstance(d, SpeechDescriptor)]
        fields = [f for f, _ in speech[0].attrs]
        if len(fields) == 1:
            continue
        styles = [SPK1.style, SPK2.style]
        for drop in fields:
            rest = [f for f in fields if f != drop]
            assert not all(
                any(getattr(a, f) != getattr(b, f) for f in rest)
                for a in styles for b in styles if a != b
            )


# ---------------- render ----------------

def test_render_deterministic_and_well_formed():
    simp = simplify(instr([U, K, R, K]), seed=2)
    a = render(simp, TemplateId.PLEASE, seed=9)
    b = render(simp, TemplateId.PLEASE, seed=9)
    assert a.text == b.text
    assert a.text.startswith("Please ")
    assert a.text.endswith(".")
    assert a.provenance is Provenance.TEMPLATE
    c = render(simp, TemplateId.CAN_YOU, seed=9)
    assert c.text.startswith("Can you ") and c.text.endswith("?")
    d = render(simp, TemplateId.I_WANT_TO, seed=9)
    assert d.text.startswith("I want to ") and d.text.endswith(".")


def test_render_single_clause():
    simp = simplify(instr([K, R, R, R]), seed=0)
    text = render(simp, TemplateId.PLEASE, seed=0).text
    assert "," not in text or simp.extraction_phrased is False


def test_render_shuffles_edit_order():
    simp = simplify(instr([R, R, R, K]), seed=3)  # three removals retained
    texts = {render(simp, TemplateId.PLEASE, seed=s).text for s in range(12)}
    assert len(texts) > 1


def test_render_rejects_group_descriptors():
    from mixedit.core import SimplifiedInstruction
    simp = SimplifiedInstruction(((R, GroupDescriptor(GroupScope.ALL_AUDIO)),))
    with pytest.raises(ValueError):
        render(simp, TemplateId.PLEASE)


# ---------------- special generic prompts ----------------

def test_special_generic_for_group_patterns():
    texts = {special_generic([K, K, R, R], COMP, seed=s).text for s in range(40)}
    assert "Extract all speakers." in texts
    assert len(texts) == 5
    p = special_generic([K, K, R, R], COMP, seed=0)
    assert p.provenance is Provenance.SPECIAL_GENERIC


def test_special_generic_inapplicable_for_mixed_groups():
    assert special_generic([K, R, K, K], COMP, seed=0) is None
    assert special_generic([U, D, U, U], COMP, seed=0) is None


def test_special_generic_overall_volume():
    texts = {special_generic([D, D, D, D], COMP, seed=s).text for s in range(40)}
    assert "Make everything quieter." in texts


def test_special_generic_empty_group_collapses_to_everything():
    comp = Composition(2, 0)
    texts = {special_generic([U, U], comp, seed=s).text for s in range(40)}
    assert "Make everything louder." in texts


def test_special_generic_audio_only_mixture():
    comp = Composition(0, 2)
    entries = default_lexicon().special_entries(U, U)
    texts = {special_generic([U, U], comp, seed=s).text for s in range(40)}
    assert texts == {sp.text for sp in entries}
    assert special_generic([R, K], comp, seed=0) is None
    assert special_generic([U, D], comp, seed=0) is None
    assert special_generic([R, R], comp, seed=0) is None


# ---------------- parse ----------------

def test_parse_template_round_trip_exhaustive_sample():
    for comp, sigs in [
        (Composition(2, 2), SIGS),
        (Composition(2, 1), [SPK1, SPK2, AUD1]),
        (Composition(1, 2), [SPK1, AUD1, AUD2]),
        (Composition(2, 0), [SPK1, SPK2]),
        (Composition(0, 2), [AUD1, AUD2]),
    ]:
        for task in defined_tasks(comp):
            for vec in enumerate_edits(task, comp):
                instruction = validate_instruction(list(zip(vec, sigs)))
                for seed in range(3):
                    simp = simplify(instruction, seed=seed)
                    for template in TemplateId:
                        p = render(simp, template, seed=seed + 11)
                        back = parse(p.text, LABELS)
                        assert back.as_set() == simp.as_set(), p.text


@pytest.mark.parametrize("template", list(TemplateId))
def test_parse_accepts_upper_case_template_opening(template):
    simp = simplify(instr([R, K, U, K]), seed=0)
    text = render(simp, template, seed=3).text
    opening = {TemplateId.PLEASE: "Please ", TemplateId.I_WANT_TO: "I want to ",
               TemplateId.CAN_YOU: "Can you "}[template]
    assert text.startswith(opening)
    shouted = opening.upper() + text[len(opening):]
    assert parse(shouted, LABELS).as_set() == simp.as_set()


@pytest.mark.parametrize("label", ["Straße noise", "οδός"])
@pytest.mark.parametrize("template", list(TemplateId))
def test_parse_round_trip_label_whose_casefold_differs(label, template):
    # casefold() turns "ß" into "ss" and a final "ς" into "σ"; labels keep them.
    simp = SimplifiedInstruction((
        (R, AudioDescriptor(label)),
        (U, SpeechDescriptor((("gender", "male"),))),
    ))
    text = render(simp, template, seed=1).text
    assert parse(text, [label]).as_set() == simp.as_set(), text


def test_parse_normalises_a_catalogs_labels_once(monkeypatch):
    catalog = Catalog(tuple(
        CatalogEntry(f"a{i}", Path(f"a{i}.wav"), AudioSignature(label))
        for i, label in enumerate(
            [f"Sound  {i}" for i in range(500)] + ["Dog barking"])))
    assert len(catalog.labels) == 501 and catalog.labels is catalog.labels
    simp = SimplifiedInstruction((
        (R, AudioDescriptor("dog barking")),
        (U, SpeechDescriptor((("gender", "male"),))),
    ))
    text = render(simp, TemplateId.PLEASE, seed=1).text
    assert parse(text, catalog.labels).as_set() == simp.as_set()
    calls = []
    normalize = prompt_module.normalize_label
    monkeypatch.setattr(prompt_module, "normalize_label",
                        lambda t: calls.append(t) or normalize(t))
    assert parse(text, catalog.labels).as_set() == simp.as_set()
    assert len(calls) < 10


def test_parse_special_prompts():
    back = parse("Extract all speakers.", LABELS)
    assert back.edits == ((K, GroupDescriptor(GroupScope.ALL_SPEECH)),)
    assert back.extraction_phrased
    assert expand(back, SIGS) == (K, K, R, R)
    down = parse("Make everything quieter.", LABELS)
    assert expand(down, SIGS) == (D, D, D, D)


def test_parse_unknown_verb_with_span():
    with pytest.raises(UnknownVerb) as exc:
        parse("Please frobnicate the dog barking sound.", LABELS)
    assert exc.value.span == (7, 39)  # "frobnicate the dog barking sound"


@pytest.mark.parametrize("text, error, span, clause", [
    # a repeated clause reports its own span, not the first one's
    ("Please remove the sine tone, and remove the sine tone.",
     ConflictingEdits, (33, 53), "remove the sine tone"),
    # spans index the text as given: "İ".lower() is two code points
    ("Please remove the İİİİ.", UnknownDescriptor, (7, 22), "remove the İİİİ"),
    # a lone separating comma is no part of its clause
    ("Please , remove the sine tone.", UnknownVerb, (7, 7), ""),
    ("Please mute \t, remove the sine tone.", UnknownDescriptor, (7, 11),
     "mute"),
])
def test_parse_error_span_is_the_clause_as_written(text, error, span, clause):
    with pytest.raises(error) as exc:
        parse(text, {"sine tone"})
    assert exc.value.span == span
    assert text[span[0]:span[1]] == clause


def test_parse_unknown_descriptor():
    with pytest.raises(UnknownDescriptor):
        parse("Please remove the zebra sound.", LABELS)
    with pytest.raises(UnknownDescriptor):
        parse("Please remove the purple speaker.", LABELS)


@pytest.mark.parametrize("traits", [("pitch", "tempo"), ("pitch", "volume"),
                                    ("tempo", "volume"),
                                    ("pitch", "tempo", "volume")])
def test_parse_round_trip_of_a_speaker_with_two_or_three_traits(traits):
    # The traits render as "a and b" or "a, b, and c" after "characterized
    # by"; each is read back with or without a head word.
    joined = " and " if len(traits) == 2 else ", and "
    for levels in itertools.product(("low", "normal", "high"),
                                    repeat=len(traits)):
        for head in ((), (("gender", "female"),)):
            desc = SpeechDescriptor(head + tuple(zip(traits, levels)))
            simp = SimplifiedInstruction(
                ((U, desc), (R, AudioDescriptor("playing cello"))))
            for template in TemplateId:
                text = render(simp, template, seed=len(levels)).text
                assert joined in text.split("characterized by")[1], text
                assert parse(text, LABELS).as_set() == simp.as_set(), text


@pytest.mark.parametrize("text, message", [
    ("Please remove the speaker characterized by purple pitch.",
     "unreadable trait"),
    ("Please remove the speaker characterized by high.", "unreadable trait"),
    ("Please remove the speaker.", "no attributes"),
    ("Please remove the female male speaker.", "given twice"),
    ("Please remove the speaker characterized by low pitch and high pitch.",
     "given twice"),
])
def test_parse_unreadable_speaker_descriptions(text, message):
    with pytest.raises(UnknownDescriptor, match=message):
        parse(text, LABELS)


def test_parse_conflicting_edits():
    with pytest.raises(ConflictingEdits):
        parse("Please remove the dog barking sound, and extract the dog "
              "barking sound.", LABELS)


def test_parse_empty_instruction():
    with pytest.raises(EmptyInstruction):
        parse("Please .", LABELS)


def test_parse_accepts_attribute_synonyms():
    got = parse("Please turn up the speaker characterized by high volume.",
                LABELS)
    assert got.edits == ((U, SpeechDescriptor((("volume", "high"),))),)
    got = parse("Please mute the man.", LABELS)
    assert got.edits == ((R, SpeechDescriptor((("gender", "male"),))),)


def test_parse_multiword_speech_descriptor():
    text = ("Please remove the happy male speaker characterized by normal "
            "pitch, high tempo, and high energy.")
    got = parse(text, LABELS)
    assert got.edits == ((R, SpeechDescriptor((
        ("gender", "male"), ("pitch", "normal"), ("tempo", "high"),
        ("volume", "high"), ("emotion", "happy"),
    ))),)


# ---------------- expand ----------------

def test_expand_template_instruction():
    simp = simplify(instr([U, K, R, K]), seed=4)
    assert expand(simp, SIGS) == (U, K, R, K)


def test_expand_extraction_phrasing_removes_unmentioned():
    from mixedit.core import SimplifiedInstruction
    simp = SimplifiedInstruction(((K, AudioDescriptor("dog barking")),))
    assert expand(simp, SIGS) == (R, R, R, K)


def test_expand_round_trip_all_edits():
    for task in defined_tasks(COMP):
        for vec in enumerate_edits(task, COMP):
            instruction = validate_instruction(list(zip(vec, SIGS)))
            simp = simplify(instruction, seed=8)
            assert expand(simp, SIGS) == vec


def test_expand_ambiguous_descriptor():
    # Both speakers of SIGS have normal pitch.
    simp = SimplifiedInstruction(
        ((R, SpeechDescriptor((("pitch", "normal"),))),))
    with pytest.raises(UnknownDescriptor, match="ambiguous"):
        expand(simp, SIGS)


def test_expand_unmatched_descriptor():
    from mixedit.core import SimplifiedInstruction
    simp = SimplifiedInstruction(((R, AudioDescriptor("thunder")),))
    with pytest.raises(UnknownDescriptor):
        expand(simp, SIGS)
