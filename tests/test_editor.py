"""Reference editors: oracle, ideal masks, embedding, FiLM mask network."""

import gc
import json
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

from mixedit.core import (
    Action,
    AudioDescriptor,
    AudioSignature,
    SimplifiedInstruction,
    SpeechDescriptor,
    SpeechSignature,
    StyleVector,
    validate_instruction,
)
from mixedit.dsp import Clip
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
    export_mask_csv,
    export_mask_pgm,
    ideal_mask,
    load_net,
    mask_edit,
    oracle_edit,
    save_net,
    train_toy,
)
from mixedit.editor import masking
from mixedit.editor.film import latent_frames, snr_loss_and_grad
from mixedit.editor.masking import DimMismatch
from mixedit.errors import MixeditError
from mixedit.metrics import ZeroReference, edit_loss, snr
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
        spec_mag = np.abs(__import__("mixedit.dsp", fromlist=["stft"]).stft(x).frames)
        strong = spec_mag > 1e-3
        assert np.allclose(m[strong], 1.0, atol=1e-6)


def test_ideal_mask_zero_and_double_target():
    x = tone(440)
    zero = Clip(np.zeros(len(x)), RATE)
    assert np.all(ideal_mask(x, zero, MaskKind.PSM).values == 0.0)
    doubled = Clip(2.0 * x.samples, RATE)
    m = ideal_mask(x, doubled, MaskKind.PSM).values
    spec_mag = np.abs(__import__("mixedit.dsp", fromlist=["stft"]).stft(x).frames)
    strong = spec_mag > 1e-3
    assert np.allclose(m[strong], 2.0, atol=1e-6)


def test_ideal_mask_clamps_to_range():
    x = tone(440)
    m = ideal_mask(x, Clip(8.0 * x.samples, RATE), MaskKind.IRM, m_max=4.0)
    assert m.values.max() <= 4.0


def test_mask_edit_unity_and_half():
    x = Clip(np.random.default_rng(0).standard_normal(32000), RATE)
    spec = __import__("mixedit.dsp", fromlist=["stft"]).stft(x)
    ones = EditingMask(np.ones(spec.frames.shape))
    out = mask_edit(x, ones)
    interior = slice(512, -512)
    assert np.abs(out.samples[interior] - x.samples[interior]).max() < 1e-6
    half = EditingMask(np.full(spec.frames.shape, 0.5))
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
    s1, s2 = tone(440, 80000), tone(2093, 80000)
    srcs = [s1, s2]
    x = mix(srcs)
    stft = __import__("mixedit.dsp", fromlist=["stft"]).stft
    mag = np.abs(stft(x).frames)
    strong = mag > 0.01 * mag.max()  # leakage-dominated bins excluded
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
    spec = masking._spectrum(tone(440))
    with pytest.raises(ValueError):
        spec.frames[0, 0] = 1.0


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
    for blk in cache["blocks"]:
        assert blk["gamma"].shape == (8,)
        assert blk["beta"].shape == (8,)
        expected = blk["gamma"][:, None] * blk["h_in"] + blk["beta"][:, None]
        assert np.array_equal(blk["h_tilde"], expected)


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
    for blk in cache["blocks"]:
        assert np.array_equal(blk["h_tilde"], blk["h_in"])


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


def test_multimask_sum_equals_combined_mask_path():
    cfg = MaskNetConfig(channels=8, kernel=16, blocks=2, embed_dim=8, n_masks=2)
    net = FilmMaskNet.init(cfg, seed=1)
    x, z, _ = toy_data()
    cache = net.forward(x, z)
    parts = cache["per_source"]
    summed = parts[0] + parts[1]
    assert np.allclose(summed, cache["y"], atol=1e-12)
    # decoding the summed mask directly gives the same waveform (linear decoder)
    combined = (cache["masks"].sum(axis=0)) * cache["h_x"]
    k, s = cfg.kernel, cfg.stride
    y_full = np.zeros((cache["L"] - 1) * s + k)
    contrib = net.params["dec.w"].T @ combined
    for kk in range(k):
        y_full[kk:kk + (cache["L"] - 1) * s + 1:s] += contrib[kk]
    assert np.allclose(y_full[:len(x)], cache["y"], atol=1e-9)


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


@pytest.mark.parametrize("mask_max,n_masks", [(1.1, 1), (2.2, 2), (0.1, 1)])
def test_film_edit_saturated_mask_within_bound(mask_max, n_masks):
    # float32(mask_max) exceeds mask_max for these values; every bin of
    # the head saturates, so the combined mask reaches its bound.
    cfg = MaskNetConfig(channels=8, kernel=16, blocks=2, embed_dim=8,
                        n_masks=n_masks, mask_max=mask_max)
    net = FilmMaskNet.init(cfg, seed=1)
    net.params["head.b"] = np.full_like(net.params["head.b"], 10.0)
    est, mask = net.edit(tone(440, n=4000), unit_vec(8, seed=2))
    assert mask.m_max == mask_max * n_masks
    assert np.all(mask.values == mask.m_max)
    assert np.all(np.isfinite(est.samples))


def test_pit_loss_invariant_to_reference_order():
    cfg = MaskNetConfig(channels=8, kernel=16, blocks=2, embed_dim=8, n_masks=2)
    net = FilmMaskNet.init(cfg, seed=1)
    rng = np.random.default_rng(2)
    t = 800
    x = rng.standard_normal(t) * 0.3
    z = unit_vec(8, seed=3)
    r1 = 0.4 * x + 0.05 * rng.standard_normal(t)
    r2 = 0.2 * x + 0.05 * rng.standard_normal(t)
    y = r1 + r2
    a, _ = snr_loss_and_grad(net, x, z, y, refs=(r1, r2), use_pit=True)
    b, _ = snr_loss_and_grad(net, x, z, y, refs=(r2, r1), use_pit=True)
    assert a == pytest.approx(b, abs=1e-9)


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


# ---------------- serialization and export ----------------

def test_net_serialization_round_trip(tmp_path):
    cfg = MaskNetConfig(channels=8, kernel=16, blocks=2, embed_dim=8, n_masks=2)
    net = FilmMaskNet.init(cfg, seed=5)
    path = tmp_path / "net.mxn"
    save_net(path, net)
    loaded = load_net(path)
    assert loaded.config == cfg
    for key, val in net.params.items():
        assert np.allclose(loaded.params[key], val.astype(np.float32), atol=0)
    x, z, _ = toy_data()
    a, _ = FilmMaskNet(cfg, {k: v.astype(np.float64) for k, v in loaded.params.items()}).edit(Clip(x, RATE), z)
    assert np.all(np.isfinite(a.samples))


def test_bad_container_rejected(tmp_path):
    from mixedit.editor.serialize import BadContainer
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\0" * 16)
    with pytest.raises(BadContainer):
        load_net(path)


def test_mask_exports(tmp_path):
    x = tone(440, 16000)
    m = ideal_mask(x, Clip(0.5 * x.samples, RATE), MaskKind.PSM)
    csv_path = tmp_path / "mask.csv"
    export_mask_csv(m, csv_path)
    grid = np.loadtxt(csv_path, delimiter=",")
    assert grid.shape == m.values.shape
    mel_csv = tmp_path / "mask_mel.csv"
    export_mask_csv(m, mel_csv, rate=RATE, n_mels=40)
    assert np.loadtxt(mel_csv, delimiter=",").shape[0] == 40
    pgm_path = tmp_path / "mask.pgm"
    export_mask_pgm(m, pgm_path)
    blob = pgm_path.read_bytes()
    assert blob.startswith(b"P5\n")
    header, rest = blob.split(b"255\n", 1)
    dims = header.split(b"\n")[1].split()
    assert len(rest) == int(dims[0]) * int(dims[1])


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
    cfg = MaskNetConfig(channels=8, kernel=12, blocks=2, embed_dim=8, n_masks=2)
    net = FilmMaskNet.init(cfg, seed=4)
    x = np.random.default_rng(5).standard_normal(1003) * 0.3  # ragged tail
    cache = net.forward(x, unit_vec(8, seed=6))
    for m in range(cfg.n_masks):
        assert np.array_equal(cache["per_source"][m],
                              _decode_per_tap(net, cache["prods"][m], len(x)))


def test_film_decoder_gradient_equals_per_tap_framing_bit_for_bit():
    cfg = MaskNetConfig(channels=8, kernel=12, blocks=2, embed_dim=8, n_masks=2)
    net = FilmMaskNet.init(cfg, seed=4)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(1003) * 0.3
    cache = net.forward(x, unit_vec(8, seed=6))
    g = rng.standard_normal((2, len(x)))
    k, s, n_frames = cfg.kernel, cfg.stride, cache["L"]
    expected = np.zeros_like(net.params["dec.w"])
    for m in range(2):
        framed = np.empty((k, n_frames))
        for kk in range(k):
            framed[kk] = g[m][kk:kk + (n_frames - 1) * s + 1:s]
        expected += cache["prods"][m] @ framed.T
    assert np.array_equal(net.backward(cache, g)["dec.w"], expected)


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


@pytest.mark.parametrize("cfg, n", [
    (MaskNetConfig(channels=8, kernel=12, blocks=3, embed_dim=8), 1003),
    # 47 latent frames: the taps of dilation 32 reach past both ends, and
    # with a seventh block the dilation (64) exceeds the latent length.
    (MaskNetConfig(channels=8, kernel=4, blocks=6, embed_dim=8), 97),
    (MaskNetConfig(channels=8, kernel=4, blocks=7, embed_dim=8), 97),
])
def test_dilated_conv_and_adjoint_equal_shifted_copies_bit_for_bit(cfg, n):
    net = FilmMaskNet.init(cfg, seed=4)
    rng = np.random.default_rng(8)
    cache = net.forward(rng.standard_normal(n) * 0.3, unit_vec(8, seed=6))
    for i, blk in enumerate(cache["blocks"]):
        w, d = net.params[f"block{i}.conv.w"], blk["dilation"]
        pre = net.params[f"block{i}.conv.b"][:, None] + sum(
            w[:, :, j] @ _shift(blk["h_tilde"], (j - 1) * d) for j in range(3))
        assert np.array_equal(blk["pre"], pre)
        grad_out = rng.standard_normal(pre.shape)
        grad_pre = grad_out * (pre > 0.0)
        grad_w = np.zeros_like(w)
        grad_htilde = np.zeros_like(blk["h_tilde"])
        for j in range(3):
            off = (j - 1) * d
            grad_w[:, :, j] += grad_pre @ _shift(blk["h_tilde"], off).T
            grad_htilde += w[:, :, j].T @ _shift(grad_pre, -off)
        grads = {k: np.zeros_like(v) for k, v in net.params.items()}
        assert np.array_equal(net._conv_backward(i, blk, grad_out, grads),
                              grad_htilde)
        assert np.array_equal(grads[f"block{i}.conv.w"], grad_w)
        assert np.array_equal(grads[f"block{i}.conv.b"], grad_pre.sum(axis=1))

def test_pit_training_loss_is_metrics_edit_loss():
    cfg = MaskNetConfig(channels=8, kernel=16, blocks=2, embed_dim=8, n_masks=2)
    net = FilmMaskNet.init(cfg, seed=1)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(800) * 0.3
    z = unit_vec(8, seed=3)
    r1 = 0.4 * x + 0.05 * rng.standard_normal(800)
    r2 = 0.2 * x + 0.05 * rng.standard_normal(800)
    y = r1 + r2
    loss, _ = snr_loss_and_grad(net, x, z, y, refs=(r1, r2), use_pit=True)
    cache = net.forward(x, z)
    assert loss == edit_loss(list(cache["per_source"]), [r1, r2],
                             cache["y"], y)


def test_training_loss_rejects_zero_target_typed():
    net = FilmMaskNet.init(TOY, seed=3)
    x, z, _ = toy_data()
    with pytest.raises(ZeroReference):
        snr_loss_and_grad(net, x, z, np.zeros_like(x))


@pytest.mark.parametrize("bad", [
    {"kernel": 15}, {"kernel": 0}, {"channels": 0}, {"blocks": -1},
    {"embed_dim": 0}, {"n_masks": 0}, {"hidden": 0}, {"channels": 8.0},
    {"mask_max": 0.0}, {"mask_max": float("nan")},
])
def test_mask_net_config_rejects_bad_values_typed(bad):
    with pytest.raises(BadNetConfig) as info:
        MaskNetConfig(**bad)
    assert isinstance(info.value, MixeditError)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("edit", ["truncate", "unknown key", "bad json",
                                  "renamed tensor", "bad shape"])
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
    else:
        data = data.replace(b'"blocks"', b'"blocks\x01')
    path.write_bytes(data)
    with pytest.raises(BadContainer):
        load_net(path)


def test_load_net_rejects_oversized_config_before_allocating(tmp_path):
    from mixedit.editor.serialize import BadContainer
    path = tmp_path / "net.mxn"
    save_net(path, FilmMaskNet.init(TOY, seed=0))
    data = path.read_bytes()
    (config_len,) = struct.unpack_from("<I", data, 8)
    config = json.loads(data[12:12 + config_len])
    blob = json.dumps({**config, "channels": 2048}).encode("utf-8")
    path.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob
                     + data[12 + config_len:])
    tracemalloc.start()
    try:
        with pytest.raises(BadContainer):
            load_net(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
