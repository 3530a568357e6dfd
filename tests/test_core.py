"""Domain type behavior: actions, signatures, instruction validation."""

import dataclasses
import itertools
import math

import pytest

from mixedit.core import (
    Action,
    AudioSignature,
    DuplicateSignature,
    Emotion,
    Gender,
    Level,
    STYLE_FIELDS,
    SpeechDescriptor,
    SpeechSignature,
    StyleVector,
    TrivialIdentity,
    TrivialSilence,
    normalize_label,
    parse_action,
    parse_action_vector,
    validate_instruction,
)


def spk(gender="female", pitch="normal", tempo="normal", volume="normal",
        emotion="neutral"):
    return SpeechSignature(
        StyleVector.from_strings(gender, pitch, tempo, volume, emotion)
    )


def test_alpha_values_exact():
    assert Action.KEEP.alpha == 1.0
    assert Action.REMOVE.alpha == 0.0
    assert Action.VOLUME_UP.alpha == 2.0
    assert Action.VOLUME_DOWN.alpha == 0.5


def test_volume_up_is_six_db():
    assert 20 * math.log10(Action.VOLUME_UP.alpha) == pytest.approx(6.0206, abs=1e-4)


def test_alpha_total_and_injective():
    values = [a.alpha for a in Action]
    assert len(values) == 4
    assert len(set(values)) == 4


def test_parse_action_symbols_and_aliases():
    assert parse_action("0") is Action.REMOVE
    assert parse_action("1") is Action.KEEP
    assert parse_action("↑") is Action.VOLUME_UP
    assert parse_action("↓") is Action.VOLUME_DOWN
    assert parse_action("u") is Action.VOLUME_UP
    assert parse_action("D") is Action.VOLUME_DOWN
    assert parse_action_vector("1,0,u,d") == (
        Action.KEEP, Action.REMOVE, Action.VOLUME_UP, Action.VOLUME_DOWN
    )
    with pytest.raises(ValueError):
        parse_action("x")


@pytest.mark.parametrize("token,action", [
    ("0", Action.REMOVE), ("1", Action.KEEP),
    ("↑", Action.VOLUME_UP), ("↓", Action.VOLUME_DOWN),
    ("r", Action.REMOVE), ("k", Action.KEEP),
    ("u", Action.VOLUME_UP), ("d", Action.VOLUME_DOWN),
    ("remove", Action.REMOVE), ("keep", Action.KEEP),
    ("up", Action.VOLUME_UP), ("down", Action.VOLUME_DOWN),
])
def test_parse_action_every_token_and_its_upper_case(token, action):
    assert parse_action(token) is action
    assert parse_action(token.upper()) is action
    assert parse_action(f" {token} ") is action


def test_duplicate_signature_rejected():
    a = spk()
    with pytest.raises(DuplicateSignature) as exc:
        validate_instruction([(Action.KEEP, a), (Action.REMOVE, a)])
    assert exc.value.indices == (0, 1)


def test_trivial_identity_and_silence_rejected():
    a, b = spk(), AudioSignature("dog")
    with pytest.raises(TrivialIdentity):
        validate_instruction([(Action.KEEP, a), (Action.KEEP, b)])
    with pytest.raises(TrivialSilence):
        validate_instruction([(Action.REMOVE, a), (Action.REMOVE, b)])


def test_valid_instruction_accepted():
    instr = validate_instruction(
        [(Action.KEEP, spk()), (Action.REMOVE, AudioSignature("dog"))]
    )
    assert len(instr) == 2
    assert instr.actions == (Action.KEEP, Action.REMOVE)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_validation_accepts_exactly_all_but_two_vectors(n):
    sigs = [AudioSignature(f"label {i}") for i in range(n)]
    accepted = 0
    for vec in itertools.product(list(Action), repeat=n):
        try:
            validate_instruction(list(zip(vec, sigs)))
            accepted += 1
        except (TrivialIdentity, TrivialSilence):
            pass
    assert accepted == 4 ** n - 2


def test_style_vectors_have_a_total_order():
    vectors = list(StyleVector.all_vectors())
    assert len(vectors) == 2 * 3 * 3 * 3 * 8
    assert len(set(vectors)) == len(vectors)
    ordered = sorted(vectors)
    assert ordered == sorted(ordered)
    a, b = vectors[0], vectors[1]
    assert (a < b) != (b < a)


def test_signature_equality_and_ordering():
    assert spk() == spk()
    assert spk(gender="male") != spk()
    assert AudioSignature("Dog ") == AudioSignature("dog")
    assert sorted([AudioSignature("zebra"), AudioSignature("ant")]) == [
        AudioSignature("ant"), AudioSignature("zebra")]


def test_normalize_label():
    assert normalize_label("  Playing   Cello ") == "playing cello"
    with pytest.raises(ValueError):
        AudioSignature("   ")


def test_style_fields_follow_style_vector_field_order():
    assert STYLE_FIELDS == tuple(f.name for f in dataclasses.fields(StyleVector))


def test_speech_descriptor_validation():
    style = spk().style
    d = SpeechDescriptor.from_style(style, ["gender", "tempo"])
    assert d.attrs == (("gender", "female"), ("tempo", "normal"))
    assert d.matches(style)
    assert not d.matches(spk(gender="male").style)
    with pytest.raises(ValueError):
        SpeechDescriptor(())
    with pytest.raises(ValueError):
        SpeechDescriptor((("tempo", "normal"), ("gender", "female")))
    with pytest.raises(ValueError):
        SpeechDescriptor((("gender", "blue"),))


def test_style_enums_cover_published_values():
    assert {g.value for g in Gender} == {"female", "male"}
    assert {l.value for l in Level} == {"low", "normal", "high"}
    assert {e.value for e in Emotion} == {
        "angry", "contempt", "disgusted", "fear",
        "happy", "sad", "surprised", "neutral",
    }
