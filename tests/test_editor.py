"""Reference editors: oracle, ideal masks, embedding, FiLM mask network."""

import gc
import hashlib
import importlib
import importlib.util
import json
import math
import os
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from mixedit.core import (
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
from mixedit.dataset import (
    build_demo_catalog,
    generate_manifest,
    ingest,
    load_manifest,
    partition,
    read_wav,
    synthesize,
)
from mixedit import dsp
from mixedit.dsp import HOP, WINDOW, Clip, _Fresh, overlap_add, stft
from mixedit.editor import (
    BadNetConfig,
    Diverged,
    EditingMask,
    FilmMaskNet,
    MaskKind,
    MaskNetConfig,
    ShapeMismatch,
    TrainExample,
    embed_instruction,
    export_mask,
    ideal_mask,
    load_net,
    mask_edit,
    oracle_edit,
    save_net,
    train_toy,
)
from mixedit.editor import film, masking
from mixedit.editor.film import latent_frames, snr_loss_and_grad
from mixedit.editor.masking import DimMismatch
from mixedit.errors import MixeditError
from mixedit.metrics import ZeroReference, snr, snri
from mixedit.mixer import mix, target_mixture
from mixedit.prompt import simplify
from mixedit.taskspace import Composition, defined_tasks, enumerate_edits

K, R, U, D = Action.KEEP, Action.REMOVE, Action.VOLUME_UP, Action.VOLUME_DOWN
RATE = 16000


def tone(freq, n=32000, amp=0.3, phase=0.0):
    t = np.arange(n) / RATE
    return Clip(amp * np.sin(2 * np.pi * freq * t + phase), RATE)


def unit_vec(dim, seed=0):
    v = np.random.default_rng(seed).standard_normal(dim)
    return v / np.linalg.norm(v)


# ---------------- oracle ----------------

def test_oracle_edit_is_target_mixture_bit_for_bit():
    srcs = [tone(300), tone(900), tone(2500)]
    actions = [U, R, K]
    a = oracle_edit(srcs, actions)
    b = target_mixture(srcs, actions)
    assert np.array_equal(a.samples, b.samples)


def test_oracle_edit_identity_and_extraction():
    srcs = [tone(300), tone(900)]
    x = mix(srcs)
    assert np.array_equal(oracle_edit(srcs, [K, K]).samples, x.samples)
    assert np.array_equal(oracle_edit(srcs, [K, R]).samples, srcs[0].samples)


def test_oracle_edit_scores_clamped_snr():
    srcs = [tone(300), tone(900)]
    actions = [D, U]
    y = target_mixture(srcs, actions)
    v = snr(oracle_edit(srcs, actions), y)
    assert v.value == 300.0 and not v.finite


# ---------------- ideal masks ----------------

def test_ideal_mask_identity_target():
    x = tone(440)
    for kind in MaskKind:
        m = ideal_mask(x, x, kind).values
        spec_mag = np.abs(stft(x))
        strong = spec_mag > 1e-3
        assert np.allclose(m[strong], 1.0, atol=1e-6)


def test_ideal_mask_zero_and_double_target():
    x = tone(440)
    zero = Clip(np.zeros(len(x)), RATE)
    assert np.all(ideal_mask(x, zero, MaskKind.PSM).values == 0.0)
    doubled = Clip(2.0 * x.samples, RATE)
    m = ideal_mask(x, doubled, MaskKind.PSM).values
    spec_mag = np.abs(stft(x))
    strong = spec_mag > 1e-3
    assert np.allclose(m[strong], 2.0, atol=1e-6)


def test_ideal_mask_clamps_to_range():
    x = tone(440)
    m = ideal_mask(x, Clip(8.0 * x.samples, RATE), MaskKind.IRM)
    assert m.values.max() <= 4.0


def test_mask_edit_unity_and_half():
    x = Clip(np.random.default_rng(0).standard_normal(32000), RATE)
    shape = stft(x).shape
    ones = EditingMask(np.ones(shape))
    out = mask_edit(x, ones)
    interior = slice(512, -512)
    assert np.abs(out.samples[interior] - x.samples[interior]).max() < 1e-6
    half = EditingMask(np.full(shape, 0.5))
    out = mask_edit(x, half)
    assert np.abs(out.samples[interior] - 0.5 * x.samples[interior]).max() < 1e-6


def test_mask_edit_dim_mismatch():
    x = tone(440)
    with pytest.raises(DimMismatch):
        mask_edit(x, EditingMask(np.ones((10, 10))))


def test_psm_two_tone_extraction():
    # Frequency-disjoint tones: the mask editor should null one tone with
    # tens of dB to spare (threshold cross-checked against the oracle).
    s1, s2 = tone(440, 80000), tone(2093, 80000)
    x = mix([s1, s2])
    y = oracle_edit([s1, s2], [K, R])
    m = ideal_mask(x, y, MaskKind.PSM)
    out = mask_edit(x, m)
    assert snr(out, y).value >= 40.0


def test_psm_mask_linearity_on_disjoint_sources():
    # With disjoint supports, the mask of a combined edit matches the
    # product of the single-edit masks bin by bin (inside the clamp).
    # Only frames whose window lies wholly inside the clip count: the
    # others straddle the tones' hard onset or offset.
    s1, s2 = tone(440, 80000), tone(2093, 80000)
    srcs = [s1, s2]
    x = mix(srcs)
    mag = np.abs(stft(x))
    strong = mag > 0.01 * mag.max()  # leakage-dominated bins excluded
    first = WINDOW // 2 // HOP
    last = (len(x) - WINDOW // 2) // HOP
    strong[:, :first] = False
    strong[:, last + 1:] = False
    m_up = ideal_mask(x, oracle_edit(srcs, [U, K]), MaskKind.PSM).values
    m_dn = ideal_mask(x, oracle_edit(srcs, [K, D]), MaskKind.PSM).values
    m_both = ideal_mask(x, oracle_edit(srcs, [U, D]), MaskKind.PSM).values
    assert np.allclose((m_up * m_dn)[strong], m_both[strong], atol=1e-4)


def test_irm_and_psm_edits_of_one_pair_take_two_stfts(monkeypatch):
    calls = []
    real_stft = masking.stft

    def counting_stft(clip, *args, **kwargs):
        calls.append(clip)
        return real_stft(clip, *args, **kwargs)

    monkeypatch.setattr(masking, "stft", counting_stft)
    s1, s2 = tone(440), tone(2093)
    x, y = mix([s1, s2]), oracle_edit([s1, s2], [K, D])
    for kind in (MaskKind.IRM, MaskKind.PSM):
        mask_edit(x, ideal_mask(x, y, kind))
    assert len(calls) == 2
    assert calls[0] is x and calls[1] is y


def test_spectrum_memo_drops_collected_clips():
    gc.collect()  # clips that earlier tests left to the collector
    before = len(masking._SPECTRA)
    clip = tone(440)
    masking._spectrum(clip)
    ref = weakref.ref(clip)
    assert ref() in masking._SPECTRA
    del clip
    gc.collect()
    assert ref() is None
    assert len(masking._SPECTRA) == before


def test_spectrum_memo_frames_are_read_only():
    frames = masking._spectrum(tone(440))
    with pytest.raises(ValueError):
        frames[0, 0] = 1.0


# The ideal-mask editors as they ran on a C-contiguous copy of the STFT,
# with the window sum rebuilt on every call and every mask copied.
_HANN = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(WINDOW) / WINDOW)


def _contiguous_stft(samples):
    n = len(samples)
    n_frames = -(-n // HOP) + 1
    x = np.zeros((n_frames - 1) * HOP + WINDOW)
    x[WINDOW // 2:WINDOW // 2 + n] = samples
    frames = np.lib.stride_tricks.sliding_window_view(x, WINDOW)[::HOP]
    return np.ascontiguousarray(np.fft.rfft(frames * _HANN, axis=1).T)


def _istft_rebuilding_the_window_sum(frames, n):
    frames_t = np.fft.irfft(frames.T, n=WINDOW, axis=1)
    frames_t *= _HANN
    keep = slice(WINDOW // 2, WINDOW // 2 + n)
    num = overlap_add(frames_t, HOP)[keep]
    den = overlap_add(np.broadcast_to(_HANN * _HANN, frames_t.shape),
                      HOP)[keep]
    return num / den


def _copied_ideal_mask_and_edit(x, y, kind):
    xf, yf = _contiguous_stft(x), _contiguous_stft(y)
    if kind is MaskKind.IRM:
        raw = np.abs(yf) / np.maximum(np.abs(xf), masking.MASK_EPS)
    else:
        raw = (yf * np.conj(xf)).real / np.maximum(np.abs(xf) ** 2,
                                                    masking.MASK_EPS)
    mask = np.array(np.clip(raw, 0.0, masking.DEFAULT_MASK_MAX))
    return mask, np.array(_istft_rebuilding_the_window_sum(mask * xf, len(x)))


# A 5-s clip, one shorter than a window, and one off the hop grid.
_EDIT_LENGTHS = [5 * RATE, WINDOW - 212, 3 * RATE + 37]


@pytest.mark.parametrize("kind", list(MaskKind))
@pytest.mark.parametrize("n", _EDIT_LENGTHS)
def test_ideal_mask_edits_equal_the_contiguous_path_bit_for_bit(kind, n):
    rng = np.random.default_rng(n)
    x = Clip(rng.standard_normal(n) * 0.3, RATE)
    y = Clip(x.samples * rng.uniform(0.0, 1.5, n), RATE)
    mask = ideal_mask(x, y, kind)
    edited = mask_edit(x, mask)
    expected_mask, expected_edit = _copied_ideal_mask_and_edit(
        x.samples, y.samples, kind)
    assert np.array_equal(mask.values, expected_mask)
    assert np.array_equal(edited.samples, expected_edit)
    # Once more, on the cached spectra and window sum.
    assert np.array_equal(mask_edit(x, ideal_mask(x, y, kind)).samples,
                          expected_edit)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-9,
                                 masking.DEFAULT_MASK_MAX * (1 + 1e-12)])
@pytest.mark.parametrize("fresh", [False, True])
def test_editing_mask_rejects_non_finite_and_out_of_range(bad, fresh):
    values = np.full((3, 4), 0.5)
    values[1, 2] = bad
    with pytest.raises(ValueError):
        EditingMask(_Fresh(values) if fresh else values)


def test_editing_mask_copies_a_callers_array_and_keeps_a_fresh_one():
    values = np.full((3, 4), 0.5)
    mask = EditingMask(values)
    values[0, 0] = 1.0
    assert mask.values[0, 0] == 0.5
    assert not np.shares_memory(mask.values, values)
    values.setflags(write=False)
    assert not np.shares_memory(EditingMask(values).values, values)
    fresh = np.full((3, 4), 0.5)
    assert EditingMask(_Fresh(fresh)).values is fresh
    assert not fresh.flags.writeable


def test_ideal_masks_gain_on_every_record_of_a_synthesized_tree(
        tmp_path_factory):
    root = tmp_path_factory.mktemp("catalog")
    build_demo_catalog(root, seed=0)
    catalog = ingest(root)
    records = generate_manifest(catalog, partition(catalog, seed=5),
                                count=12, comp=Composition(2, 2), seed=5)
    tree = tmp_path_factory.mktemp("tree")
    assert synthesize(records, tree).ok
    for record in load_manifest(tree / "manifest.jsonl"):
        x = read_wav(tree / record.outputs["input"])
        y = read_wav(tree / record.outputs["target"])
        for kind in MaskKind:
            gain = snri(x, mask_edit(x, ideal_mask(x, y, kind)), y)
            assert gain.value > 0.0, (record.record_id, kind, gain.value)


# ---------------- instruction embedding ----------------

def _mixture_signatures():
    spk1 = SpeechSignature(StyleVector.from_strings(
        "female", "normal", "high", "high", "happy"))
    spk2 = SpeechSignature(StyleVector.from_strings(
        "male", "low", "low", "normal", "sad"))
    return [spk1, spk2, AudioSignature("playing cello"),
            AudioSignature("dog barking")]


def test_embed_deterministic_unit_norm():
    simp = SimplifiedInstruction((
        (U, SpeechDescriptor((("gender", "female"),))),
        (R, AudioDescriptor("dog barking")),
    ))
    a = embed_instruction(simp)
    b = embed_instruction(simp)
    assert np.array_equal(a, b)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)


def test_embed_order_insensitive():
    e1 = (U, SpeechDescriptor((("gender", "female"),)))
    e2 = (R, AudioDescriptor("dog barking"))
    a = embed_instruction(SimplifiedInstruction((e1, e2)))
    b = embed_instruction(SimplifiedInstruction((e2, e1)))
    assert np.allclose(a, b)


@pytest.mark.parametrize("desc, tokens", [
    (GroupDescriptor(GroupScope.ALL_SPEECH), ["scope=all_speech"]),
    (GroupDescriptor(GroupScope.EVERYTHING), ["scope=everything"]),
    (SpeechDescriptor((("gender", "female"), ("pitch", "high"))),
     ["gender=female", "pitch=high", "gender=female+pitch=high"]),
    (SpeechDescriptor((("tempo", "low"), ("volume", "high"),
                       ("emotion", "sad"))),
     ["tempo=low", "volume=high", "emotion=sad",
      "tempo=low+volume=high+emotion=sad"]),
])
def test_embed_group_and_several_attribute_edits(desc, tokens):
    # A speech edit of several attributes adds one whole-edit token; each
    # token lights four signed blake2b buckets.
    assert masking._edit_tokens(U, desc) == tokens
    expected = np.zeros(64)
    for token in tokens:
        for r in range(4):
            digest = hashlib.blake2b(f"{r}|{U.value}|{token}".encode(),
                                     digest_size=9).digest()
            expected[int.from_bytes(digest[:8], "little") % 64] += (
                1.0 if digest[8] & 1 else -1.0)
    z = embed_instruction(SimplifiedInstruction(((U, desc),)), dim=64)
    assert np.array_equal(z, expected / np.linalg.norm(expected))


def test_embed_distinct_over_all_edits():
    sigs = _mixture_signatures()
    comp = Composition(2, 2)
    vectors = []
    for task in defined_tasks(comp):
        for vec in enumerate_edits(task, comp):
            instr = validate_instruction(list(zip(vec, sigs)))
            vectors.append(embed_instruction(simplify(instr, seed=7)))
    z = np.stack(vectors)
    assert z.shape[0] == 254
    dists = np.linalg.norm(z[:, None, :] - z[None, :, :], axis=2)
    iu = np.triu_indices(len(z), k=1)
    assert dists[iu].min() > 1e-3


# ---------------- FiLM mask network ----------------

TOY = MaskNetConfig(channels=8, kernel=16, blocks=2, embed_dim=8)


def toy_data(t=1600, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(t) * 0.3
    z = rng.standard_normal(8)
    z /= np.linalg.norm(z)
    y = 0.5 * x + 0.05 * rng.standard_normal(t)
    return x, z, y


def _shift(m, off):
    """Columns shifted so out[:, l] = m[:, l + off], zero-filled."""
    if off == 0:
        return m
    out = np.zeros_like(m)
    if off > 0:
        out[:, :-off] = m[:, off:]
    else:
        out[:, -off:] = m[:, :off]
    return out


def _block_conv(net, i, h_tilde):
    """Block i's ReLU dilated conv over ``h_tilde`` from shifted copies,
    zero outside the clip."""
    w, d = net.params[f"block{i}.conv.w"], 2 ** i
    pre = net.params[f"block{i}.conv.b"][:, None] + sum(
        w[:, :, j] @ _shift(h_tilde, (j - 1) * d) for j in range(3))
    return np.maximum(pre, 0.0)


def test_latent_frame_count():
    assert latent_frames(80000, 16) == 9999
    assert latent_frames(1600, 16) == 199
    with pytest.raises(ShapeMismatch):
        latent_frames(8, 16)


def test_forward_shapes_and_length():
    net = FilmMaskNet.init(TOY, seed=0)
    x, z, _ = toy_data()
    out, mask = net.edit(Clip(x, RATE), z)
    assert len(out) == len(x)
    assert mask.values.shape == (8, 199)


def test_film_broadcast_is_time_invariant():
    net = FilmMaskNet.init(TOY, seed=0)
    x, z, _ = toy_data()
    cache = net.forward(x, z)
    for i, blk in enumerate(cache["blocks"]):
        assert blk["gamma"].shape == (8,)
        assert blk["beta"].shape == (8,)
        h_tilde = blk["gamma"][:, None] * blk["h_in"] + blk["beta"][:, None]
        assert np.array_equal(blk["h_out"], _block_conv(net, i, h_tilde))


def test_film_identity_modulation_matches_unconditioned():
    net = FilmMaskNet.init(TOY, seed=0)
    # Force gamma = 1, beta = 0: conditioning has no effect, so any two
    # conditioning vectors give the same output.
    for i in range(TOY.blocks):
        net.params[f"block{i}.film.f2.w"][:] = 0.0
        net.params[f"block{i}.film.f2.b"][:] = 1.0
        net.params[f"block{i}.film.g2.w"][:] = 0.0
        net.params[f"block{i}.film.g2.b"][:] = 0.0
    x, z, _ = toy_data()
    out1, _ = net.edit(Clip(x, RATE), z)
    out2, _ = net.edit(Clip(x, RATE), unit_vec(8, seed=9))
    assert np.array_equal(out1.samples, out2.samples)
    cache = net.forward(x, z)
    for i, blk in enumerate(cache["blocks"]):
        assert np.array_equal(blk["h_out"], _block_conv(net, i, blk["h_in"]))


def test_shape_mismatch_errors():
    net = FilmMaskNet.init(TOY, seed=0)
    x, z, y = toy_data()
    with pytest.raises(ShapeMismatch):
        net.forward(x, np.zeros(5))
    with pytest.raises(ShapeMismatch):
        snr_loss_and_grad(net, x, z, y[:-10])


def test_gradients_match_finite_differences_sampled():
    # Full-parameter sweep runs in the acceptance suite; here a sampled
    # subset guards the backward pass. Seeds are pinned away from ReLU
    # kinks so the h=1e-4 central difference is valid.
    net = FilmMaskNet.init(TOY, seed=3)
    x, z, y = toy_data(seed=0)
    h = 1e-4
    _, grads = snr_loss_and_grad(net, x, z, y)
    rng = np.random.default_rng(0)
    for key in list(net.params) + ["z"]:
        target = z if key == "z" else net.params[key]
        flat = target.reshape(-1)
        gflat = grads[key].reshape(-1)
        for i in rng.choice(len(flat), size=min(6, len(flat)), replace=False):
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = snr_loss_and_grad(net, x, z, y)
            flat[i] = orig - h
            lm, _ = snr_loss_and_grad(net, x, z, y)
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            assert abs(fd - gflat[i]) <= 1e-3 * max(abs(fd), abs(gflat[i]), 1e-8), key


def test_perfect_estimate_has_zero_gradient():
    # Documented subgradient choice at the SNR clamp.
    net = FilmMaskNet.init(TOY, seed=3)
    x, z, _ = toy_data()
    cache = net.forward(x, z)
    loss, grads = snr_loss_and_grad(net, x, z, cache["y"].copy())
    assert loss == -300.0
    assert all(np.all(g == 0.0) for k, g in grads.items())


def test_film_edit_float32_matches_float64_forward():
    net = FilmMaskNet.init(MaskNetConfig(), seed=2)
    x = Clip(np.random.default_rng(3).standard_normal(5 * RATE) * 0.1, RATE)
    z = unit_vec(net.config.embed_dim, seed=4)
    cache = net.forward(x.samples, z)
    assert cache["y"].dtype == np.float64
    est, mask = net.edit(x, z)
    assert est.samples.dtype == np.float64
    assert mask.values.dtype == np.float64
    assert snr(est, cache["y"]).value >= 100.0


@pytest.mark.parametrize("mask_max", [1.1, 0.1])
def test_film_edit_saturated_mask_within_bound(mask_max):
    # float32(mask_max) exceeds mask_max for these values; every bin of
    # the head saturates, so the mask reaches its bound.
    cfg = MaskNetConfig(channels=8, kernel=16, blocks=2, embed_dim=8,
                        mask_max=mask_max)
    net = FilmMaskNet.init(cfg, seed=1)
    net.params["head.b"] = np.full_like(net.params["head.b"], 10.0)
    est, mask = net.edit(tone(440, n=4000), unit_vec(8, seed=2))
    assert mask.m_max == mask_max
    assert np.all(mask.values == mask.m_max)
    assert np.all(np.isfinite(est.samples))


def test_saturated_mask_head_gets_zero_gradient():
    # Every bin sits at the clamp, where the subgradient is taken as zero.
    cfg = MaskNetConfig(channels=8, kernel=16, blocks=2, embed_dim=8)
    net = FilmMaskNet.init(cfg, seed=1)
    net.params["head.b"] = np.full_like(net.params["head.b"], 10.0)
    x, z, y = toy_data()
    assert np.all(net.forward(x, z)["masks"] == cfg.mask_max)
    _, grads = snr_loss_and_grad(net, x, z, y)
    assert np.all(grads["head.w"] == 0.0) and np.all(grads["head.b"] == 0.0)
    assert np.any(grads["dec.w"] != 0.0)


def test_film_edit_peak_memory(monkeypatch):
    # edit runs forward without the backward cache: the blocks share one
    # zero-margined buffer, freed before the head allocates, and each
    # block's input is freed before its h_out allocates (11.1 MiB
    # measured). A 60-s clip runs in 30 windows, two at a time here,
    # and holds little more than its float64 output and mask (74.6 MiB
    # measured, against 121.3 MiB for one whole-clip pass).
    monkeypatch.setattr(dsp, "available_cpus", lambda: 2)
    for seconds, limit_mib in ((5, 13), (60, 80)):
        x = Clip(np.random.default_rng(3).standard_normal(seconds * RATE)
                 * 0.1, RATE)
        net = FilmMaskNet.init(MaskNetConfig(), seed=2)
        z = unit_vec(net.config.embed_dim, seed=4)
        tracemalloc.start()
        try:
            net.edit(x, z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit_mib * 2**20, seconds


def test_film_training_step_peak_memory():
    # The cache keeps one h_out per block, not each block's h_tilde;
    # forward and backward each work in one set of zero-margined buffers
    # (30.7 MiB measured, against 48.0 MiB when every block kept its own
    # margined h_tilde).
    x = np.random.default_rng(3).standard_normal(5 * RATE) * 0.1
    y = 0.5 * x
    net = FilmMaskNet.init(MaskNetConfig(), seed=2)
    net = FilmMaskNet(net.config, net._params_as(np.float32))
    z = unit_vec(net.config.embed_dim, seed=4)
    tracemalloc.start()
    try:
        snr_loss_and_grad(net, x, z, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 34 * 2**20


WIDE = MaskNetConfig(channels=8, kernel=4, blocks=6, embed_dim=8)
# The head's bias starts at 1, so a mask_max of 1.1 keeps many bins at the
# upper clamp, which float32 rounds above the float64 bound.
CLAMPED = MaskNetConfig(mask_max=1.1)
BLOCKS7 = MaskNetConfig(channels=8, kernel=4, blocks=7, embed_dim=8)
_EDIT_CONFIGS = [pytest.param(MaskNetConfig(), id="default"),
                 pytest.param(CLAMPED, id="clamped"),
                 pytest.param(WIDE, id="wide")]


def _whole_clip_edit(net, x, z):
    """The output and mask of one cached float32 forward over the whole
    clip."""
    cache = FilmMaskNet(net.config, net._params_as(np.float32)).forward(x, z)
    mask = np.clip(cache["masks"].astype(np.float64), 0.0,
                   net.config.mask_max)
    return cache["y"], mask


def _assert_edits_whole_clip(net, x, z):
    est, mask = net.edit(Clip(x, RATE), z)
    expected_est, expected_mask = _whole_clip_edit(net, x, z)
    assert np.array_equal(est.samples, expected_est)
    assert np.array_equal(mask.values, expected_mask)
    return est, mask


def _samples_for(cfg, n_frames):
    return cfg.kernel + (n_frames - 1) * cfg.stride


@pytest.mark.parametrize("cfg,n", [
    pytest.param(MaskNetConfig(), 5 * RATE, id="default-80000"),
    pytest.param(CLAMPED, 5 * RATE, id="clamped-80000"),
    pytest.param(WIDE, 4000, id="wide-4000"),
    # L = 4 frames against a widest margin of 2**5 columns: the outer
    # taps of the later blocks read nothing but the shared margins.
    pytest.param(WIDE, WIDE.kernel + 3 * WIDE.stride, id="wide-10"),
    pytest.param(MaskNetConfig(), 60 * RATE, id="default-960000"),
    # The longest clip that is one window, and the shortest that splits.
    pytest.param(MaskNetConfig(), _samples_for(MaskNetConfig(), 1023),
                 id="default-8192"),
    pytest.param(MaskNetConfig(), _samples_for(MaskNetConfig(), 1024),
                 id="default-8200"),
])
def test_film_edit_equals_cached_float32_forward_bit_for_bit(cfg, n):
    net = FilmMaskNet.init(cfg, seed=2)
    x = np.random.default_rng(3).standard_normal(n) * 0.1
    _assert_edits_whole_clip(net, x, unit_vec(cfg.embed_dim, seed=4))


@pytest.mark.parametrize("cfg", _EDIT_CONFIGS)
def test_film_edit_windows_equal_the_whole_clip_at_every_offset(cfg):
    # Clip lengths over two strides, so the clip's end and the sample
    # edges of the windows fall at every offset of the frame grid.
    net = FilmMaskNet.init(cfg, seed=2)
    z = unit_vec(cfg.embed_dim, seed=4)
    first = _samples_for(cfg, 3001)
    for n in range(first, first + 2 * cfg.stride):
        x = np.random.default_rng(n).standard_normal(n) * 0.1
        _assert_edits_whole_clip(net, x, z)


def test_film_edit_is_the_same_on_one_thread_or_four(monkeypatch):
    pools, started = [], []

    class Recorded(ThreadPoolExecutor):
        def __init__(self, max_workers, initializer, **kwargs):
            def counted():
                started.append(max_workers)
                initializer()

            pools.append(max_workers)
            super().__init__(max_workers, initializer=counted, **kwargs)

    monkeypatch.setattr(dsp, "ThreadPoolExecutor", Recorded)
    monkeypatch.setattr(dsp, "_pool", None)  # the process's pool is put back
    net = FilmMaskNet.init(MaskNetConfig(), seed=2)
    x = np.random.default_rng(3).standard_normal(5 * RATE) * 0.1
    z = unit_vec(net.config.embed_dim, seed=4)
    edits = []
    for cpus in (1, 4):
        monkeypatch.setattr(dsp, "available_cpus", lambda: cpus)
        est, mask = _assert_edits_whole_clip(net, x, z)
        edits.append((est.samples.tobytes(), mask.values.tobytes()))
    dsp._pool[1].shutdown(wait=True)  # every started thread has set up
    # One CPU starts no thread. On four, one pool of three threads serves
    # the edit's four windows (a 5-s clip); the cached reference pass
    # runs on the calling thread.
    # The edit submits its three windows at once, so it normally starts
    # all three; a thread that ends a window before the next is submitted
    # takes that one too.
    assert pools == [3]
    assert 1 <= len(started) <= 3
    assert edits[0] == edits[1]


def _assert_parts(settings, n_frames, narrowest=1):
    """``dsp._parts(n_frames, *settings)`` tiles the frames: one part below
    ``least``, else an even count of parts, at least ``narrowest`` and at
    most ``widest`` wide, each cut at the multiple of ``grid`` nearest
    below the equal cut. Returns the parts."""
    least, grid, widest = (*settings, None)[:3]
    parts = dsp._parts(n_frames, *settings)
    if n_frames < least:
        assert parts == [(0, n_frames)]
        return parts
    assert parts[0][0] == 0 and parts[-1][1] == n_frames
    assert all(a[1] == b[0] for a, b in zip(parts, parts[1:]))
    count = len(parts)
    assert count % 2 == 0 and (count == 2 if widest is None else
                               max(end - first for first, end in parts)
                               <= widest)
    for i, (first, _) in enumerate(parts[1:], 1):
        equal = n_frames * i // count
        assert first % grid == 0 and equal - grid < first <= equal
    assert min(end - first for first, end in parts) >= narrowest
    return parts


@pytest.mark.parametrize("n_frames", [1, 1023, 1024, 1025, 8191, 8192, 8193,
                                      9999, 16384, 16385, 119999])
def test_film_windows_tile_the_clip_in_an_even_count(n_frames):
    windows = _assert_parts(film._EDIT_PARTS, n_frames, 512)
    widths = {end - first for first, end in windows}
    assert max(widths) - min(widths) <= 1


def test_film_parts_are_wide_and_on_their_grid_from_1024_frames_on():
    grid = film._EDIT_PARTS[1]
    for n_frames in range(1024, 70000):
        parts = dsp._parts(n_frames, *film._EDIT_PARTS)
        assert min(end - first for first, end in parts) >= 512
        assert all(first % grid == 0 for first, _ in parts)


def test_threads_run_every_task_once_and_raise_its_error(monkeypatch):
    # More threads than cores and a short switch interval, so the caller
    # and the pool race to start the queued tasks.
    monkeypatch.setattr(dsp, "available_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(200):
            done = []
            dsp._threads(*(partial(done.append, i) for i in range(9)))
            assert sorted(done) == list(range(9))
        with pytest.raises(ZeroDivisionError):
            dsp._threads(lambda: None, lambda: 1 / 0, lambda: None)
    finally:
        sys.setswitchinterval(interval)


def test_threads_leave_no_taken_back_task_in_the_pool_queue(monkeypatch):
    # While the one pool thread is busy, a task waits in its queue and the
    # caller takes it back; the queue keeps the cancelled item until the
    # pool thread is free, but not the task or what the task holds.
    monkeypatch.setattr(dsp, "available_cpus", lambda: 2)
    release = threading.Event()
    busy = dsp._shared_pool(1).submit(release.wait, 10)
    try:
        held = np.zeros(4)
        kept = weakref.ref(held)
        done = []
        dsp._threads(lambda: None, partial(done.append, held))
        assert len(done) == 1
        del held, done
        gc.collect()
        assert kept() is None
    finally:
        release.set()
        busy.result(timeout=10)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs to pin a pool thread to")
def test_threads_pin_the_pool_thread_and_leave_the_caller(monkeypatch):
    monkeypatch.setattr(dsp, "available_cpus", lambda: 2)
    allowed = os.sched_getaffinity(0)
    seen = []

    def report():
        seen.append((threading.get_ident(), os.sched_getaffinity(0)))

    for _ in range(20):
        # The caller sleeps through its task, so the pool thread starts
        # the report before the caller could take it back.
        dsp._threads(partial(time.sleep, 0.002), report)
    assert os.sched_getaffinity(0) == allowed
    pooled = [cpus for ident, cpus in seen if ident != threading.get_ident()]
    assert pooled
    assert all(len(cpus) == 1 and cpus <= allowed for cpus in pooled)


# Clip lengths whose frame counts straddle the STFT path's split, at
# every offset of the hop grid, and a 5-s clip.
_SPLIT_EDGE = (dsp._STFT_PARTS[0] - 2) * HOP  # the longest clip kept whole
_SPLIT_LENGTHS = [*range(_SPLIT_EDGE - HOP // 2, _SPLIT_EDGE + HOP // 2),
                  5 * RATE]


def _same_bits(got, expected):
    return got.shape == expected.shape and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("cpus", [1, 4])
def test_stft_path_on_frame_halves_equals_the_whole_arrays(monkeypatch,
                                                           cpus):
    monkeypatch.setattr(dsp, "available_cpus", lambda: cpus)
    for n, count in [(_SPLIT_EDGE, 1), (_SPLIT_EDGE + 1, 2)]:
        assert len(dsp._parts(-(-n // HOP) + 1, *dsp._STFT_PARTS)) == count
    for n in _SPLIT_LENGTHS:
        rng = np.random.default_rng(n)
        x = Clip(rng.standard_normal(n) * 0.3, RATE)
        y = Clip(x.samples * rng.uniform(0.0, 1.5, n), RATE)
        spectrum = stft(x)
        assert spectrum.flags.f_contiguous
        assert _same_bits(spectrum, _contiguous_stft(x.samples)), n
        assert _same_bits(dsp.istft(spectrum, n),
                          _istft_rebuilding_the_window_sum(spectrum, n)), n
        for kind in MaskKind:
            mask = ideal_mask(x, y, kind)
            expected_mask, expected_edit = _copied_ideal_mask_and_edit(
                x.samples, y.samples, kind)
            assert mask.values.flags.f_contiguous
            assert _same_bits(mask.values, expected_mask), (n, kind)
            assert _same_bits(mask_edit(x, mask).samples, expected_edit), \
                (n, kind)


@pytest.mark.parametrize("n_frames", [1, 255, 256, 257, 263, 264, 626,
                                      1251, 9999])
def test_stft_frame_parts_split_on_the_8_frame_grid(n_frames):
    _assert_parts(dsp._STFT_PARTS, n_frames)


_EDIT_ON_CPUS = """
import hashlib, os, sys, threading
sys.path.insert(0, sys.argv[1])
if sys.argv[2] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from mixedit.dsp import Clip
from mixedit.editor import (FilmMaskNet, MaskKind, MaskNetConfig,
                            ideal_mask, mask_edit)
rng = np.random.default_rng(3)
x = Clip(rng.standard_normal(80000) * 0.3, 16000)
y = Clip(x.samples * rng.uniform(0.0, 1.5, 80000), 16000)
z = rng.standard_normal(32)
net = FilmMaskNet.init(MaskNetConfig(), seed=2)
est, mask = net.edit(x, z / np.linalg.norm(z))
digest = hashlib.blake2b(est.samples.tobytes() + mask.values.tobytes())
for kind in MaskKind:
    mask = ideal_mask(x, y, kind)
    digest.update(mask.values.tobytes() + mask_edit(x, mask).samples.tobytes())
print(threading.active_count(), digest.hexdigest())
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs a settable CPU affinity")
def test_one_cpu_affinity_starts_no_pool_thread_and_edits_the_same():
    src = str(Path(film.__file__).resolve().parents[2])
    runs = {}
    for cpus in ("one", "all"):
        run = subprocess.run([sys.executable, "-c", _EDIT_ON_CPUS, src, cpus],
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        runs[cpus] = run.stdout.split()
    threads, digest = runs["one"]
    assert threads == "1"  # the calling thread alone
    assert digest == runs["all"][1]


def _assert_same_bits(got, expected, where="cache"):
    if isinstance(expected, dict):
        assert got.keys() == expected.keys(), where
        for key in expected:
            _assert_same_bits(got[key], expected[key], f"{where}[{key!r}]")
    elif isinstance(expected, list):
        assert len(got) == len(expected), where
        for i, (a, b) in enumerate(zip(got, expected)):
            _assert_same_bits(a, b, f"{where}[{i}]")
    else:
        got, expected = np.asarray(got), np.asarray(expected)
        assert got.dtype == expected.dtype, where
        assert got.shape == expected.shape, where
        assert got.tobytes() == expected.tobytes(), where


def _training_examples(cfg, n, rng, seeds):
    """One example of ``n`` samples per seed: the sum of two sources, with
    the first as the target."""
    examples = []
    for seed in seeds:
        sources = rng.standard_normal((2, n)) * 0.1
        examples.append(TrainExample(sources.sum(axis=0),
                                     unit_vec(cfg.embed_dim, seed=seed),
                                     sources[0]))
    return examples


def _training_runs(cfg, n, dtype):
    """A cached forward, its backward, three ``train_toy`` steps on two
    examples, and two steps each on one and on three examples, the
    examples' parts cut unevenly on two CPUs."""
    net = FilmMaskNet.init(cfg, seed=2)
    net = FilmMaskNet(cfg, net._params_as(dtype))
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 0.1
    cache = net.forward(x, unit_vec(cfg.embed_dim, seed=4))
    grads = net.backward(cache, rng.standard_normal(n))
    examples = _training_examples(cfg, n, rng, (5, 6, 7))
    runs = [train_toy(net, examples[:2], steps=3, lr=1e-3)]
    runs += [train_toy(net, examples[:count], steps=2, lr=1e-3)
             for count in (1, 3)]
    return cache, grads, [[run.losses, run.net.params] for run in runs]


@pytest.mark.parametrize("cfg,n,dtype", [
    pytest.param(MaskNetConfig(), 5 * RATE, np.float32,
                 id="default-80000-float32"),
    pytest.param(CLAMPED, 5 * RATE, np.float32, id="clamped-80000-float32"),
    pytest.param(WIDE, 4000, np.float32, id="wide-4000-float32"),
    pytest.param(MaskNetConfig(), 5 * RATE, np.float64,
                 id="default-80000-float64"),
])
def test_training_pass_is_the_same_on_one_two_or_four_cpus(
        monkeypatch, cfg, n, dtype):
    # The reference is the run on one CPU, every example on the calling
    # thread.
    monkeypatch.setattr(dsp, "available_cpus", lambda: 1)
    expected = _training_runs(cfg, n, dtype)
    for cpus in (1, 2, 4):
        monkeypatch.setattr(dsp, "available_cpus", lambda: cpus)
        _assert_same_bits(_training_runs(cfg, n, dtype), list(expected),
                          f"{cpus} cpus")


def test_training_threads_only_the_examples_of_a_step(monkeypatch):
    # A pass runs on one thread; a step's examples are the only parts of
    # training that reach the pool.
    monkeypatch.setattr(dsp, "available_cpus", lambda: 2)
    threads = dsp._threads
    calls = []
    monkeypatch.setattr(dsp, "_threads", lambda *tasks: (
        calls.append(len(tasks)), threads(*tasks)))
    cfg = MaskNetConfig()
    net = FilmMaskNet.init(cfg, seed=2)
    net = FilmMaskNet(cfg, net._params_as(np.float32))
    example, other = _training_examples(cfg, 5 * RATE,
                                        np.random.default_rng(3), (4, 5))
    snr_loss_and_grad(net, example.x, example.z, example.y)
    assert calls == []
    train_toy(net, [example, other], steps=1)
    assert calls == [2]


def test_train_toy_step_peak_memory_on_two_cpus(monkeypatch):
    # Two examples' passes run at once, one per CPU, so a float32 step
    # holds two passes (62 MiB measured). Four examples hold no more: a
    # task the pool's queue keeps after its cancel holds none of its
    # arrays (148 MiB when it did).
    monkeypatch.setattr(dsp, "available_cpus", lambda: 2)
    rng = np.random.default_rng(3)
    cfg = MaskNetConfig()
    net = FilmMaskNet.init(cfg, seed=2)
    for count in (2, 4):
        examples = _training_examples(cfg, 5 * RATE, rng, range(count))
        tracemalloc.start()
        try:
            train_toy(net, examples, steps=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 68 * 2**20, count


def _three_examples(bad=()):
    """Three toy examples and the ``z`` of the last; on two CPUs the first
    is the calling thread's part, the last two the pool's. The last, if
    in ``bad``, has a target one sample short; another one in ``bad`` has
    a ``z`` one entry short."""
    x, z, y = toy_data()
    last = unit_vec(8, seed=9)
    return [TrainExample(x, last if i == 2 else z[:-1] if i in bad else z,
                         y[:-1] if i == 2 and i in bad else y)
            for i in range(3)], last


def _raised(monkeypatch, cpus, examples, **kwargs):
    """``(class, message)`` of the error ``train_toy`` raises on
    ``examples`` at ``cpus`` CPUs, and the threads that ran a pass. On
    more than one CPU the calling thread's first pass waits until a pool
    thread has started its part, which it would otherwise take back when
    it got there first."""
    monkeypatch.setattr(dsp, "available_cpus", lambda: cpus)
    caller, threads, pooled = threading.get_ident(), set(), threading.Event()
    body = FilmMaskNet._forward

    def recorded(self, *args, **kw):
        if threading.get_ident() != caller:
            pooled.set()
        elif cpus > 1:
            assert pooled.wait(timeout=10)
        threads.add(threading.get_ident())
        return body(self, *args, **kw)

    net = FilmMaskNet.init(TOY, seed=0)
    before = {key: val.copy() for key, val in net.params.items()}
    with monkeypatch.context() as patch, \
            pytest.raises(MixeditError) as raised:
        patch.setattr(FilmMaskNet, "_forward", recorded)
        train_toy(net, examples, **kwargs)
    for key, val in before.items():
        assert np.array_equal(net.params[key], val)
    return (type(raised.value), str(raised.value)), threads


@pytest.mark.parametrize("bad,message", [
    ((2,), "target length must match the input"),
    # Both parts fail: the calling thread's example comes first.
    ((0, 2), "conditioning vector must have size 8"),
])
def test_train_toy_raises_an_examples_error_as_one_cpu_does(monkeypatch,
                                                            bad, message):
    examples, _ = _three_examples(bad)
    serial, _ = _raised(monkeypatch, 1, examples, steps=1)
    assert serial == (ShapeMismatch, message)
    pooled, threads = _raised(monkeypatch, 2, examples, steps=1)
    assert pooled == serial
    assert len(threads) == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_toy_diverges_on_two_cpus_as_on_one(monkeypatch):
    examples, last = _three_examples()
    # The loss overflows at the second step, in every example.
    for cpus in (1, 2):
        error, _ = _raised(monkeypatch, cpus, examples, steps=3, lr=1e30)
        assert error == (Diverged, "loss became non-finite at step 1")
    # Only the pool's example's gradient overflows, at the first step.
    body = FilmMaskNet._backward

    def overflowing(self, cache, grad_y):
        grads = body(self, cache, grad_y)
        if np.array_equal(cache["z"], last.astype(np.float32)):
            grads["head.b"][3] = np.inf
        return grads

    monkeypatch.setattr(FilmMaskNet, "_backward", overflowing)
    for cpus in (1, 2):
        error, threads = _raised(monkeypatch, cpus, examples, steps=2)
        assert error == (Diverged, "gradient became non-finite at step 0")
        assert len(threads) == cpus


TRACING = Path(__file__).resolve().parents[1] / "mixbench" / "tracing.py"


def test_film_threads_call_no_traced_layer(monkeypatch, tmp_path,
                                          resampled_root):
    # The benchmark tracer keeps one span stack for the process, so every
    # call it wraps must come from the thread that called into mixedit,
    # synthesis at the one worker the benchmark runs included.
    spec = importlib.util.spec_from_file_location("mixbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    calls = []

    def recorded(name, real):
        def recorder(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return real(*args, **kwargs)
        return recorder

    for name, module, path in tracing.LAYERS:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        real = vars(owner)[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(real, classmethod):
            wrapped = classmethod(recorded(name, real.__func__))
        else:
            wrapped = recorded(name, real)
        monkeypatch.setattr(owner, attr, wrapped)
    monkeypatch.setattr(dsp, "available_cpus", lambda: 2)

    import mixedit.dataset as dataset
    import mixedit.editor as editor
    cfg = MaskNetConfig()
    net = editor.FilmMaskNet.init(cfg, seed=2)
    rng = np.random.default_rng(3)
    sources = rng.standard_normal((2, 5 * RATE)) * 0.1
    x, z = sources.sum(axis=0), unit_vec(cfg.embed_dim, seed=4)
    net.edit(Clip(x, RATE), z)
    film.snr_loss_and_grad(net, x, z, sources[0])
    example = editor.TrainExample(x, z, sources[0])
    editor.train_toy(net, [example], steps=1)
    # Of three examples the calling thread runs the first, through the
    # traced passes, and the pool the other two, through their bodies.
    start = len(calls)
    editor.train_toy(net, [example] * 3, steps=1)
    assert sorted(name for name, _ in calls[start:]) == [
        "film.backward", "film.forward", "film.train_toy"]
    # The STFT path splits a 5-s clip's 626 frames in two.
    for kind in MaskKind:
        mixture = Clip(x, RATE)
        mask = editor.ideal_mask(mixture, Clip(sources[0], RATE), kind)
        editor.mask_edit(mixture, mask)
    # Every source of a 48-kHz speech and 44.1-kHz audio catalog is
    # resampled, in halves on the pool.
    catalog = ingest(resampled_root)
    records = generate_manifest(catalog, partition(catalog, seed=0), count=4,
                                comp=Composition(2, 2), seed=5)
    assert dataset.synthesize(records, tmp_path / "tree", workers=1).ok
    names = {name for name, _ in calls}
    assert {"dsp.clip", "film.forward", "film.backward", "film.train_toy",
            "dsp.stft", "dsp.istft", "masking.ideal_mask",
            "masking.mask_edit", "synth.synthesize", "synth.record",
            "synth.read_wav", "synth.write_wav", "dsp.resample",
            "dsp.condition", "mixer.assign_gains", "mixer.apply_gains",
            "mixer.build"} <= names
    assert {ident for _, ident in calls} == {threading.get_ident()}


def _film_edit_with_zeroed_buffers(net, x, z):
    """``FilmMaskNet.edit`` as it ran before: cache-less float32 forward
    on zero-filled buffers that stay allocated to the end, then the
    output and the mask copied."""
    cfg = net.config
    p = net._params_as(np.float32)
    x, z = np.asarray(x, np.float32), np.asarray(z, np.float32)
    k, s, c = cfg.kernel, cfg.stride, cfg.channels
    n_frames = latent_frames(len(x), k)
    frames = np.lib.stride_tricks.sliding_window_view(x, k)[::s]
    h_x = p["enc.w"] @ frames.T
    prod = np.empty((c, n_frames), np.float32)
    margin = 2 ** (cfg.blocks - 1)
    padded = np.zeros((c, n_frames + 2 * margin), np.float32)
    h_out = np.empty((c, n_frames), np.float32)
    h = h_x
    for i in range(cfg.blocks):
        _, gamma = net._mlp(p, f"block{i}.film.f", z)
        _, beta = net._mlp(p, f"block{i}.film.g", z)
        d = 2 ** i
        h_tilde = padded[:, margin:margin + n_frames]
        np.multiply(gamma[:, None], h, out=h_tilde)
        h_tilde += beta[:, None]
        w = p[f"block{i}.conv.w"]
        taps = [padded[:, start:start + n_frames]
                for start in (margin - d, margin, margin + d)]
        np.matmul(w[:, :, 0], taps[0], out=h_out)
        for j in (1, 2):
            h_out += np.matmul(w[:, :, j], taps[j], out=prod)
        h_out += p[f"block{i}.conv.b"][:, None]
        np.maximum(h_out, 0.0, out=h_out)
        h = h_out
    mask = p["head.w"] @ h
    mask += p["head.b"][:, None]
    np.clip(mask, 0.0, cfg.mask_max, out=mask)
    y = np.zeros(len(x), np.float32)
    contrib = p["dec.w"].T @ np.multiply(mask, h_x, out=prod)
    y_full = overlap_add(contrib.T, s)
    y[:len(y_full)] = y_full
    mask64 = mask.astype(np.float64)
    np.clip(mask64, 0.0, cfg.mask_max, out=mask64)
    return np.array(y, dtype=np.float64), mask64


@pytest.mark.parametrize("cfg", _EDIT_CONFIGS)
@pytest.mark.parametrize("n", _EDIT_LENGTHS)
def test_film_edit_equals_the_zeroed_buffer_path_bit_for_bit(cfg, n):
    net = FilmMaskNet.init(cfg, seed=2)
    x = np.random.default_rng(n).standard_normal(n) * 0.1
    z = unit_vec(cfg.embed_dim, seed=4)
    est, mask = net.edit(Clip(x, RATE), z)
    expected_est, expected_mask = _film_edit_with_zeroed_buffers(net, x, z)
    assert np.array_equal(est.samples, expected_est)
    assert np.array_equal(mask.values, expected_mask)


def _backward_with_cached_htilde(net, cache, grad_y):
    """``FilmMaskNet.backward`` as it ran when the cache held each block's
    ``h_tilde`` in its own buffer with zero margins of its dilation d:
    those buffers are rebuilt here with forward's ops. Every block
    allocates a fresh margined gradient buffer and sums the three adjoint
    products into a new array."""
    cfg = net.config
    k, s, c = cfg.kernel, cfg.stride, cfg.channels
    mask, h_x = cache["masks"], cache["h_x"]
    p = net._params_as(h_x.dtype)
    grad_y = np.asarray(grad_y, dtype=h_x.dtype)
    grads = {key: np.zeros_like(val) for key, val in p.items()}
    grad_z = np.zeros(cfg.embed_dim, dtype=h_x.dtype)
    n = h_x.shape[1]

    grad_hx = np.zeros_like(h_x)
    grad_contrib = np.ascontiguousarray(
        np.lib.stride_tricks.sliding_window_view(grad_y, k)[::s].T)
    grads["dec.w"] += (mask * h_x) @ grad_contrib.T
    grad_prod = p["dec.w"] @ grad_contrib
    grad_mask = grad_prod * h_x
    grad_hx += grad_prod * mask

    on = (mask > 0.0) & (mask < cfg.mask_max)
    grad_mpre = grad_mask * on
    grads["head.w"] += grad_mpre @ cache["blocks"][-1]["h_out"].T
    grads["head.b"] += grad_mpre.sum(axis=1)
    grad_h = p["head.w"].T @ grad_mpre

    for i in reversed(range(cfg.blocks)):
        blk, d, w = cache["blocks"][i], 2 ** i, p[f"block{i}.conv.w"]
        padded = np.zeros((c, n + 2 * d), h_x.dtype)
        h_tilde = padded[:, d:d + n]
        np.multiply(blk["gamma"][:, None], blk["h_in"], out=h_tilde)
        h_tilde += blk["beta"][:, None]
        grad_padded = np.zeros((c, n + 2 * d), h_x.dtype)
        grad_pre = grad_padded[:, d:d + n]
        np.multiply(grad_h, blk["h_out"] > 0.0, out=grad_pre)
        grads[f"block{i}.conv.b"] += grad_pre.sum(axis=1)
        for j in range(3):
            grads[f"block{i}.conv.w"][:, :, j] += (
                grad_pre @ padded[:, j * d:j * d + n].T)
        grad_htilde = sum(
            w[:, :, j].T @ grad_padded[:, (2 - j) * d:(2 - j) * d + n]
            for j in range(3))
        grad_gamma = (grad_htilde * blk["h_in"]).sum(axis=1)
        grad_beta = grad_htilde.sum(axis=1)
        grad_h = np.multiply(grad_htilde, blk["gamma"][:, None],
                             out=grad_htilde)
        grad_z += net._mlp_backward(p, f"block{i}.film.f", cache["z"],
                                    blk["a_f"], grad_gamma, grads)
        grad_z += net._mlp_backward(p, f"block{i}.film.g", cache["z"],
                                    blk["a_g"], grad_beta, grads)

    grad_hx += grad_h
    grads["enc.w"] += grad_hx @ cache["frames"]
    grads["z"] = grad_z
    return grads


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("cfg,n", [
    pytest.param(MaskNetConfig(), 5 * RATE, id="default-80000"),
    pytest.param(CLAMPED, 5 * RATE, id="clamped-80000"),
    pytest.param(WIDE, 4000, id="wide-4000"),
    pytest.param(BLOCKS7, 97, id="blocks7-97"),
])
def test_backward_equals_the_cached_htilde_path_bit_for_bit(cfg, n, dtype):
    net = FilmMaskNet.init(cfg, seed=2)
    net = FilmMaskNet(cfg, net._params_as(dtype))
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 0.1
    g = rng.standard_normal(n)
    cache = net.forward(x, unit_vec(cfg.embed_dim, seed=4))
    grads = net.backward(cache, g)
    expected = _backward_with_cached_htilde(net, cache, g)
    assert set(grads) == set(expected)
    for key, val in expected.items():
        assert grads[key].dtype == val.dtype == dtype, key
        assert np.array_equal(grads[key], val), key


def test_edit_and_training_run_forward_with_and_without_the_cache(
        monkeypatch):
    # Benchmark tracing times FilmMaskNet.forward, so edit must call it.
    forward = FilmMaskNet.forward
    calls = []

    def spy(self, *args, **kwargs):
        out = forward(self, *args, **kwargs)
        calls.append((kwargs.get("keep_cache", True), set(out)))
        return out

    monkeypatch.setattr(FilmMaskNet, "forward", spy)
    net = FilmMaskNet.init(TOY, seed=0)
    x, z, y = toy_data()
    net.edit(Clip(x, RATE), z)
    assert calls == [(False, {"mask", "y"})]
    snr_loss_and_grad(net, x, z, y)
    net.forward(x, z)
    for keep, keys in calls[1:]:
        assert keep
        assert {"blocks", "frames", "h_x", "masks", "y"} <= keys
    assert len(calls) == 3


def test_loss_without_refs_is_the_mixture_snr():
    cfg = MaskNetConfig(channels=8, kernel=16, blocks=2, embed_dim=8)
    net = FilmMaskNet.init(cfg, seed=1)
    x, z, y = toy_data()
    loss, _ = snr_loss_and_grad(net, x, z, y)
    assert loss == -snr(net.forward(x, z)["y"], y).value


def test_train_toy_reduces_loss_and_keeps_input_frozen():
    net = FilmMaskNet.init(MaskNetConfig(channels=8, kernel=16, blocks=2,
                                         embed_dim=8), seed=0)
    before = {k: v.copy() for k, v in net.params.items()}
    x, z, y = toy_data()
    result = train_toy(net, [TrainExample(x, z, y)], steps=30, lr=1e-3)
    assert len(result.losses) == 30
    assert result.losses[-1] < result.losses[0]
    for key, val in before.items():
        assert np.array_equal(net.params[key], val)


def test_train_toy_eight_example_regression():
    # 200 constant-lr steps on a fixed 8-example tonal set: the loss must
    # drop by more than 3 dB and decrease monotonically on average
    # (20-step block means).
    def example(seed, t=1600):
        rng = np.random.default_rng(seed)
        ax = np.arange(t) / RATE
        f1 = rng.choice([330.0, 440.0, 550.0, 660.0])
        f2 = rng.choice([1100.0, 1320.0, 1540.0])
        s1 = 0.4 * np.sin(2 * np.pi * f1 * ax + rng.uniform(0, 2 * np.pi))
        s2 = 0.3 * np.sin(2 * np.pi * f2 * ax + rng.uniform(0, 2 * np.pi))
        a1, a2 = rng.choice([0.0, 0.5, 1.0, 2.0], size=2)
        while (a1 == a2 == 1.0) or (a1 == a2 == 0.0):
            a1, a2 = rng.choice([0.0, 0.5, 1.0, 2.0], size=2)
        z = rng.standard_normal(16)
        z /= np.linalg.norm(z)
        return TrainExample(s1 + s2, z, a1 * s1 + a2 * s2)

    net = FilmMaskNet.init(MaskNetConfig(channels=8, kernel=16, blocks=2,
                                         embed_dim=16), seed=0)
    result = train_toy(net, [example(i) for i in range(8)],
                       steps=200, lr=1e-3)
    losses = result.losses
    assert losses[-1] < losses[0] - 3.0
    blocks = [float(np.mean(losses[i:i + 20])) for i in range(0, 200, 20)]
    assert all(b2 <= b1 + 1e-9 for b1, b2 in zip(blocks, blocks[1:]))


def test_train_toy_diverges_cleanly():
    net = FilmMaskNet.init(MaskNetConfig(channels=8, kernel=16, blocks=2,
                                         embed_dim=8), seed=0)
    net.params["enc.w"][0, 0] = np.nan  # poisoned state must be caught
    x, z, y = toy_data()
    with pytest.raises(Diverged):
        train_toy(net, [TrainExample(x, z, y)], steps=5, lr=1e-3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_toy_diverges_by_overflow_without_a_warning():
    # A short clip runs each pass as one part, on the calling thread.
    net = FilmMaskNet.init(TOY, seed=0)
    x, z, y = toy_data(t=400)
    with pytest.raises(Diverged, match="loss became non-finite at step 1"):
        train_toy(net, [TrainExample(x, z, y)], steps=3, lr=1e30)


def test_train_toy_rejects_an_empty_example_list():
    net = FilmMaskNet.init(MaskNetConfig(channels=8, blocks=1, embed_dim=4))
    with pytest.raises(ShapeMismatch, match="at least one training example"):
        train_toy(net, [], steps=1)


def test_train_toy_stops_on_a_non_finite_gradient(monkeypatch):
    # The loss stays finite; only the second step's gradient overflows.
    backward = FilmMaskNet.backward
    calls = []

    def overflowing(self, cache, grad_y):
        grads = backward(self, cache, grad_y)
        calls.append(1)
        if len(calls) == 2:
            grads["head.b"][3] = np.inf
        return grads

    monkeypatch.setattr(FilmMaskNet, "backward", overflowing)
    net = FilmMaskNet.init(TOY, seed=0)
    before = {k: v.copy() for k, v in net.params.items()}
    x, z, y = toy_data()
    with pytest.raises(Diverged, match="gradient became non-finite at step 1"):
        train_toy(net, [TrainExample(x, z, y)], steps=3, lr=1e-3)
    for key, val in before.items():
        assert np.array_equal(net.params[key], val)


def test_backward_on_a_float32_cache_gives_float32_gradients():
    # A float64 grad_y must not upcast a float32 net's pass.
    cfg = MaskNetConfig(channels=8, kernel=16, blocks=2, embed_dim=8)
    net = FilmMaskNet.init(cfg, seed=2)
    net32 = FilmMaskNet(cfg, net._params_as(np.float32))
    x, z, _ = toy_data()
    g = np.random.default_rng(4).standard_normal(len(x))
    cache = net32.forward(x, z)
    assert cache["h_x"].dtype == np.float32
    grads = net32.backward(cache, g)
    assert set(grads) == set(net.params) | {"z"}
    assert {v.dtype for v in grads.values()} == {np.dtype(np.float32)}
    # grad_y is cast on entry: no float64 intermediate anywhere.
    same = net32.backward(cache, g.astype(np.float32))
    assert all(np.array_equal(grads[k], same[k]) for k in grads)


def test_train_toy_computes_in_float32_and_keeps_float64_masters(
        monkeypatch):
    backward = FilmMaskNet.backward
    seen = []

    def recording(self, cache, grad_y):
        seen.append(cache["h_x"].dtype)
        return backward(self, cache, grad_y)

    monkeypatch.setattr(FilmMaskNet, "backward", recording)
    x, z, y = toy_data()
    net = FilmMaskNet.init(TOY, seed=0)
    net32 = FilmMaskNet(TOY, {k: v.astype(np.float32)
                              for k, v in net.params.items()})
    for start in (net, net32):
        result = train_toy(start, [TrainExample(x, z, y)], steps=2, lr=1e-3)
        assert {v.dtype for v in result.net.params.values()} == {
            np.dtype(np.float64)}
    assert seen == [np.dtype(np.float32)] * 4


def test_float32_training_tracks_float64_over_25_steps():
    # Reference: train_toy's update with every pass in float64. Tolerance
    # 1e-5 dB per step, at the default config on a 5-s example; the
    # largest difference measured is 1e-6 dB. Longer runs drift apart.
    cfg = MaskNetConfig()
    rng = np.random.default_rng(9)
    n, lr = 5 * RATE, 1e-3
    s1, s2 = tone(440, n).samples, tone(1320, n, amp=0.2, phase=1.0).samples
    x = s1 + s2 + 0.01 * rng.standard_normal(n)
    y = 2.0 * s1
    z = unit_vec(cfg.embed_dim, seed=1)
    net = FilmMaskNet.init(cfg, seed=3)
    result = train_toy(net, [TrainExample(x, z, y)], steps=25, lr=lr)
    ref = FilmMaskNet(cfg, {k: v.copy() for k, v in net.params.items()})
    for step, loss in enumerate(result.losses):
        ref_loss, grads = snr_loss_and_grad(ref, x, z, y)
        assert abs(loss - ref_loss) <= 1e-5, f"step {step}"
        for key, val in ref.params.items():
            val -= lr * grads[key]


# ---------------- serialization and export ----------------

def test_net_serialization_round_trip(tmp_path):
    cfg = MaskNetConfig(channels=8, kernel=16, blocks=2, embed_dim=8)
    net = FilmMaskNet.init(cfg, seed=5)
    path = tmp_path / "net.mxn"
    save_net(path, net)
    # Every container written so far holds "n_masks": 1; save_net still
    # writes it, so that a net saves to the same bytes.
    assert b'"n_masks": 1' in path.read_bytes()
    loaded = load_net(path)
    assert loaded.config == cfg
    for key, val in net.params.items():
        assert np.allclose(loaded.params[key], val.astype(np.float32), atol=0)
    x, z, _ = toy_data()
    a, _ = FilmMaskNet(cfg, {k: v.astype(np.float64) for k, v in loaded.params.items()}).edit(Clip(x, RATE), z)
    assert np.all(np.isfinite(a.samples))


@pytest.mark.parametrize("cfg", [pytest.param(MaskNetConfig(), id="default"),
                                 pytest.param(WIDE, id="wide")])
def test_film_edit_reads_only_the_float32_params(tmp_path, cfg):
    # edit runs on the float32 copy, so that copy, and the float32
    # checkpoint of the net, edit bit for bit as the net does.
    net = FilmMaskNet.init(cfg, seed=2)
    save_net(tmp_path / "net.mxn", net)
    x = Clip(np.random.default_rng(3).standard_normal(4000) * 0.1, RATE)
    z = unit_vec(cfg.embed_dim, seed=4)
    est, mask = net.edit(x, z)
    for other in (FilmMaskNet(cfg, net._params_as(np.float32)),
                  load_net(tmp_path / "net.mxn")):
        other_est, other_mask = other.edit(x, z)
        assert np.array_equal(other_est.samples, est.samples)
        assert np.array_equal(other_mask.values, mask.values)


def test_bad_container_rejected(tmp_path):
    from mixedit.editor.serialize import BadContainer
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\0" * 16)
    with pytest.raises(BadContainer):
        load_net(path)


def test_mask_exports(tmp_path, assert_dump_is):
    x = tone(440, 16000)
    m = ideal_mask(x, Clip(0.5 * x.samples, RATE), MaskKind.PSM)
    prefix = tmp_path / "mask"
    assert export_mask(m, prefix) == {"csv": f"{prefix}.csv",
                                      "pgm": f"{prefix}.pgm"}
    assert_dump_is(prefix, m)


def test_an_all_ones_mask_dumps_flat(tmp_path, assert_dump_is):
    ones = EditingMask(np.ones((257, 40)))
    export_mask(ones, tmp_path / "ones")
    assert_dump_is(tmp_path / "ones", ones)
    assert (tmp_path / "ones.csv").read_text() == ("1," * 39 + "1\n") * 257
    assert (tmp_path / "ones.pgm").read_bytes().endswith(
        b"\n255\n" + bytes([64]) * 257 * 40)


# ---------------- shared overlap-add and SNR ----------------

def _decode_per_tap(net, prods, n):
    """Linear decoder written as one strided add per kernel tap."""
    k, s = net.config.kernel, net.config.stride
    n_frames = prods.shape[1]
    contrib = net.params["dec.w"].T @ prods
    y = np.zeros(n)
    for kk in range(k):
        y[kk:kk + (n_frames - 1) * s + 1:s] += contrib[kk]
    return y


def test_film_decoder_equals_per_tap_loop_bit_for_bit():
    cfg = MaskNetConfig(channels=8, kernel=12, blocks=2, embed_dim=8)
    net = FilmMaskNet.init(cfg, seed=4)
    x = np.random.default_rng(5).standard_normal(1003) * 0.3  # ragged tail
    cache = net.forward(x, unit_vec(8, seed=6))
    prods = cache["masks"] * cache["h_x"]
    assert np.array_equal(cache["y"], _decode_per_tap(net, prods, len(x)))


def test_film_decoder_gradient_equals_per_tap_framing_bit_for_bit():
    cfg = MaskNetConfig(channels=8, kernel=12, blocks=2, embed_dim=8)
    net = FilmMaskNet.init(cfg, seed=4)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(1003) * 0.3
    cache = net.forward(x, unit_vec(8, seed=6))
    g = rng.standard_normal(len(x))
    k, s, n_frames = cfg.kernel, cfg.stride, cache["h_x"].shape[1]
    framed = np.empty((k, n_frames))
    for kk in range(k):
        framed[kk] = g[kk:kk + (n_frames - 1) * s + 1:s]
    expected = (cache["masks"] * cache["h_x"]) @ framed.T
    assert np.array_equal(net.backward(cache, g)["dec.w"], expected)


@pytest.mark.parametrize("cfg, n", [
    pytest.param(MaskNetConfig(channels=8, kernel=12, blocks=3, embed_dim=8),
                 1003, id="kernel12-1003"),
    # 47 latent frames: the taps of dilation 32 reach past both ends, and
    # with a seventh block the dilation (64) exceeds the latent length.
    pytest.param(WIDE, 97, id="wide-97"),
    pytest.param(BLOCKS7, 97, id="blocks7-97"),
])
def test_dilated_conv_and_adjoint_equal_shifted_copies_bit_for_bit(cfg, n):
    net = FilmMaskNet.init(cfg, seed=4)
    rng = np.random.default_rng(8)
    cache = net.forward(rng.standard_normal(n) * 0.3, unit_vec(8, seed=6))
    n_frames, margin = cache["h_x"].shape[1], 2 ** (cfg.blocks - 1)
    for i, blk in enumerate(cache["blocks"]):
        w, d = net.params[f"block{i}.conv.w"], 2 ** i
        h_tilde = blk["gamma"][:, None] * blk["h_in"] + blk["beta"][:, None]
        assert np.array_equal(blk["h_out"], _block_conv(net, i, h_tilde))
        grad_out = rng.standard_normal(h_tilde.shape)
        grad_pre = grad_out * (blk["h_out"] > 0.0)
        grad_w = np.zeros_like(w)
        grad_htilde = np.zeros_like(h_tilde)
        for j in range(3):
            off = (j - 1) * d
            grad_w[:, :, j] += grad_pre @ _shift(h_tilde, off).T
            grad_htilde += w[:, :, j].T @ _shift(grad_pre, -off)
        # The buffers backward passes: h_tilde and a gradient buffer with
        # zero margins of the widest dilation, interiors left as garbage.
        padded = np.zeros((cfg.channels, n_frames + 2 * margin))
        padded[:, margin:margin + n_frames] = h_tilde
        grad_padded = np.zeros_like(padded)
        grad_padded[:, margin:margin + n_frames] = np.nan
        grad_h = grad_out.copy()
        prod = np.full_like(grad_h, np.nan)
        grads = {k: np.zeros_like(v) for k, v in net.params.items()}
        got = net._conv_backward(net.params, i, blk["h_out"], padded,
                                 grad_padded, grad_h, prod, grads)
        assert got is grad_h
        assert np.array_equal(got, grad_htilde)
        assert np.array_equal(grads[f"block{i}.conv.w"], grad_w)
        assert np.array_equal(grads[f"block{i}.conv.b"], grad_pre.sum(axis=1))


def test_training_loss_rejects_zero_target_typed():
    net = FilmMaskNet.init(TOY, seed=3)
    x, z, _ = toy_data()
    with pytest.raises(ZeroReference):
        snr_loss_and_grad(net, x, z, np.zeros_like(x))


@pytest.mark.parametrize("bad", [
    {"kernel": 15}, {"kernel": 0}, {"channels": 0}, {"blocks": -1},
    {"embed_dim": 0}, {"mask_max": -1.0}, {"hidden": 0}, {"channels": 8.0},
    {"mask_max": 0.0}, {"mask_max": float("nan")}, {"mask_max": math.inf},
    {"channels": True}, {"blocks": True}, {"kernel": True}, {"hidden": True},
    {"mask_max": True}, {"mask_max": np.True_},
])
def test_mask_net_config_rejects_bad_values_typed(bad):
    with pytest.raises(BadNetConfig) as info:
        MaskNetConfig(**bad)
    assert isinstance(info.value, MixeditError)
    assert isinstance(info.value, ValueError)


def test_mask_net_config_takes_numpy_numbers():
    cfg = MaskNetConfig(channels=np.int64(8), hidden=np.uint8(4),
                        mask_max=np.float32(2.0))
    assert FilmMaskNet.init(cfg, seed=0).params["block0.film.f1.w"].shape == (
        4, cfg.embed_dim)


def test_mask_net_config_caps_blocks_before_building_its_layout(monkeypatch):
    deepest = MaskNetConfig(channels=16, kernel=16,
                            blocks=film._MAX_BLOCKS, embed_dim=16)
    assert len(film.param_layout(deepest)) == 4 + 10 * film._MAX_BLOCKS

    def no_layout(config):
        raise AssertionError("param_layout built for a refused config")

    monkeypatch.setattr(film, "param_layout", no_layout)
    for blocks in (film._MAX_BLOCKS + 1, 40):
        with pytest.raises(BadNetConfig, match=f"blocks must be at most "
                           f"{film._MAX_BLOCKS}, got {blocks}"):
            MaskNetConfig(channels=16, kernel=16, blocks=blocks, embed_dim=16)


def _rewrite_config(path, **fields):
    """Set ``fields`` in the config blob of the container at ``path``."""
    data = path.read_bytes()
    (config_len,) = struct.unpack_from("<I", data, 8)
    config = json.loads(data[12:12 + config_len])
    blob = json.dumps({**config, **fields}).encode("utf-8")
    path.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob
                     + data[12 + config_len:])


@pytest.mark.parametrize("edit", ["truncate", "unknown key", "bad json",
                                  "renamed tensor", "bad shape",
                                  "infinite mask_max", "bool channels",
                                  "bool blocks", "bool n_masks",
                                  "bool mask_max", "version 2",
                                  "trailing bytes", "n_masks 2", "n_masks 0",
                                  "n_masks 1.0"])
def test_load_net_malformed_raises_bad_container(tmp_path, edit):
    from mixedit.editor.serialize import BadContainer
    path = tmp_path / "net.mxn"
    save_net(path, FilmMaskNet.init(TOY, seed=0))
    data = path.read_bytes()
    if edit == "truncate":
        data = data[:len(data) // 2]
    elif edit == "unknown key":
        data = data.replace(b'"blocks"', b'"blockz"')
    elif edit == "renamed tensor":
        data = data.replace(b"head.b", b"head.c")
    elif edit == "bad shape":
        net = FilmMaskNet.init(TOY, seed=0)
        net.params["head.b"] = np.ones(3)
        save_net(path, net)
        data = path.read_bytes()
    elif edit == "infinite mask_max":
        # The container an unchecked config wrote: "mask_max": Infinity.
        # The net gets its own config, so that TOY stays as it is.
        net = FilmMaskNet.init(MaskNetConfig(**vars(TOY)), seed=0)
        object.__setattr__(net.config, "mask_max", math.inf)
        save_net(path, net)
        data = path.read_bytes()
        assert b'"mask_max": Infinity' in data
    elif edit.startswith("bool "):
        # A net whose field is 1, saved with that field true: its tensors
        # fit the config, so only the bool check can refuse it.
        save_net(path, FilmMaskNet.init(MaskNetConfig(
            channels=1, blocks=1, embed_dim=4, mask_max=1.0), seed=0))
        data = path.read_bytes()
        (config_len,) = struct.unpack_from("<I", data, 8)
        config = json.loads(data[12:12 + config_len])
        blob = json.dumps({**config, edit[5:]: True}).encode("utf-8")
        data = (data[:8] + struct.pack("<I", len(blob)) + blob
                + data[12 + config_len:])
    elif edit.startswith("n_masks "):
        # The tensors fit the one-mask config, so only the count refuses it.
        _rewrite_config(path, n_masks=json.loads(edit[8:]))
        data = path.read_bytes()
    elif edit == "version 2":
        data = data[:4] + struct.pack("<I", 2) + data[8:]
    elif edit == "trailing bytes":
        data += b"\0"
    else:
        data = data.replace(b'"blocks"', b'"blocks\x01')
    path.write_bytes(data)
    with pytest.raises(BadContainer):
        load_net(path)


def test_load_net_rejects_oversized_config_before_allocating(tmp_path):
    from mixedit.editor.serialize import BadContainer
    path = tmp_path / "net.mxn"
    save_net(path, FilmMaskNet.init(TOY, seed=0))
    _rewrite_config(path, channels=2048)
    tracemalloc.start()
    try:
        with pytest.raises(BadContainer):
            load_net(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_load_net_refuses_blocks_past_the_cap(tmp_path):
    from mixedit.editor.serialize import BadContainer
    path = tmp_path / "net.mxn"
    save_net(path, FilmMaskNet.init(TOY, seed=0))
    _rewrite_config(path, blocks=film._MAX_BLOCKS + 1)
    with pytest.raises(BadContainer, match="blocks must be at most"):
        load_net(path)
