"""FiLM-conditioned latent editing-mask network with analytic gradients.

A linear filterbank encoder (kernel K, stride K/2) lifts the waveform
into a C-channel latent sequence. R dilated 1-D conv blocks refine an
editing mask; before every block the features are modulated feature-wise
as gamma * h + beta, where gamma and beta come from two-layer perceptrons
applied to the conditioning vector z and are broadcast along time. The
mask (ReLU output clamped to [0, m_max]) multiplies the encoded mixture,
and a linear overlap-add decoder returns to the waveform.

Written in plain numpy with handwritten reverse-mode gradients so the
whole pipeline runs without any ML framework and finite differences stay
an independent check. Subgradients at the ReLU kinks and at the mask and
SNR clamps are taken as zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..dsp import Clip, _Fresh, overlap_add
from ..errors import MixeditError
from ..metrics import pit_snr, snr
from .masking import DEFAULT_EMBED_DIM, DEFAULT_MASK_MAX, EditingMask

_LN10 = math.log(10.0)


class ShapeMismatch(MixeditError):
    pass


class Diverged(MixeditError):
    pass


class BadNetConfig(MixeditError, ValueError):
    pass


@dataclass(frozen=True)
class MaskNetConfig:
    channels: int = 64        # latent width C
    kernel: int = 16          # encoder/decoder kernel; stride is kernel // 2
    blocks: int = 4           # editing blocks, dilation 2**i
    embed_dim: int = DEFAULT_EMBED_DIM  # conditioning vector size D
    hidden: int | None = None  # FiLM perceptron hidden width, default C
    mask_max: float = DEFAULT_MASK_MAX
    n_masks: int = 1          # >1 adds a per-source mask stack

    def __post_init__(self):
        sizes = ["channels", "kernel", "blocks", "embed_dim", "n_masks"]
        if self.hidden is not None:
            sizes.append("hidden")
        for name in sizes:
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value <= 0:
                raise BadNetConfig(f"{name} must be a positive integer, "
                                   f"got {value!r}")
        if self.kernel % 2 != 0:
            raise BadNetConfig("kernel must be even so the stride is kernel/2")
        if not self.mask_max > 0:
            raise BadNetConfig(
                f"mask_max must be positive, got {self.mask_max!r}")

    @property
    def stride(self) -> int:
        return self.kernel // 2

    @property
    def film_hidden(self) -> int:
        return self.hidden if self.hidden is not None else self.channels


def latent_frames(n_samples: int, kernel: int) -> int:
    """Latent sequence length for a waveform of n_samples."""
    if n_samples < kernel:
        raise ShapeMismatch(f"need at least {kernel} samples")
    return (n_samples - kernel) // (kernel // 2) + 1


def _margined(rows: int, width: int, margin: int, dtype) -> np.ndarray:
    """A ``(rows, width + 2 * margin)`` buffer whose ``margin``-column
    edges are zero; its interior is left for the caller to fill."""
    buf = np.empty((rows, width + 2 * margin), dtype=dtype)
    buf[:, :margin] = 0.0
    buf[:, margin + width:] = 0.0
    return buf


def param_layout(config: MaskNetConfig) -> dict:
    """Every parameter in initialization order: name -> (shape, init), where
    init scales a standard-normal draw of that shape or is a constant fill.
    Building it allocates no tensor."""
    c, k, h, d = (config.channels, config.kernel, config.film_hidden,
                  config.embed_dim)
    layout = {
        "enc.w": ((c, k), lambda w: w / math.sqrt(k)),
        "dec.w": ((c, k), lambda w: w / math.sqrt(c * k)),
    }
    for i in range(config.blocks):
        layout[f"block{i}.conv.w"] = (
            (c, c, 3), lambda w: w * math.sqrt(2.0 / (3 * c)))
        layout[f"block{i}.conv.b"] = ((c,), 0.0)
        # f gives gamma (starts at 1), g gives beta (starts at 0).
        for mlp, bias in (("f", 1.0), ("g", 0.0)):
            name = f"block{i}.film.{mlp}"
            layout[f"{name}1.w"] = ((h, d), lambda w: w / math.sqrt(d))
            layout[f"{name}1.b"] = ((h,), 0.0)
            layout[f"{name}2.w"] = ((c, h), lambda w: w * 0.1 / math.sqrt(h))
            layout[f"{name}2.b"] = ((c,), bias)
    layout["head.w"] = ((config.n_masks * c, c), lambda w: w * math.sqrt(1.0 / c))
    layout["head.b"] = ((config.n_masks * c,), 1.0)
    return layout


class FilmMaskNet:
    """Parameter container plus forward/backward passes."""

    def __init__(self, config: MaskNetConfig, params: dict[str, np.ndarray]):
        self.config = config
        self.params = params

    @classmethod
    def init(cls, config: MaskNetConfig, seed: int = 0) -> "FilmMaskNet":
        """Deterministic initialization; gamma starts at 1 and beta at 0 so
        the first step is an unmodulated pass, and the mask head biases
        toward unity gain."""
        rng = np.random.default_rng(seed)
        p = {
            name: init(rng.standard_normal(shape)) if callable(init)
            else np.full(shape, init)
            for name, (shape, init) in param_layout(config).items()
        }
        return cls(config, p)

    def _params_as(self, dtype) -> dict:
        """The params in ``dtype``; arrays already in it are not copied."""
        return {key: val.astype(dtype, copy=False)
                for key, val in self.params.items()}

    # ---------------- forward ----------------

    @staticmethod
    def _mlp(p: dict, name: str, z: np.ndarray):
        """Two-layer tanh perceptron ``name`` over params ``p``; returns
        (hidden, output)."""
        hidden = np.tanh(p[f"{name}1.w"] @ z + p[f"{name}1.b"])
        return hidden, p[f"{name}2.w"] @ hidden + p[f"{name}2.b"]

    @staticmethod
    def _modulate(gamma: np.ndarray, beta: np.ndarray, h: np.ndarray,
                  out: np.ndarray) -> None:
        """FiLM, gamma * h + beta broadcast along time, into ``out``.
        ``backward`` rebuilds each block's ``h_tilde`` with it, so the
        rebuilt values equal the ones ``forward`` convolved bit for bit."""
        np.multiply(gamma[:, None], h, out=out)
        out += beta[:, None]

    def forward(self, x: np.ndarray, z: np.ndarray, *,
                keep_cache: bool = True) -> dict:
        """Run the net in the dtype of its own params, to which ``x`` and
        ``z`` are cast; returns a cache consumed by this net's
        ``backward``. The cache holds only what ``backward`` reads:
        each block's input, perceptron activations and ``h_out``, from
        which ``backward`` rebuilds the modulated input and the ReLU
        gates, and ``masks`` for the clamp gates.

        Every block writes its modulated input ``h_tilde`` into one
        zero-margined buffer, with margins as wide as the last block's
        dilation, and its ``h_out`` into a fresh array. With
        ``keep_cache=False`` (inference) only ``masks``, ``per_source``
        and ``y`` come back, bit-identical to the cached run: each
        block's input is dropped once modulated, so the blocks' working
        set is three ``(C, L)`` arrays whatever their number, and the
        buffer is freed before the head and the decoder allocate."""
        cfg, p = self.config, self.params
        dtype = p["enc.w"].dtype
        x = np.asarray(x, dtype=dtype)
        z = np.asarray(z, dtype=dtype)
        if x.ndim != 1:
            raise ShapeMismatch("expected a mono waveform")
        if z.shape != (cfg.embed_dim,):
            raise ShapeMismatch(
                f"conditioning vector must have size {cfg.embed_dim}"
            )
        k, s, c = cfg.kernel, cfg.stride, cfg.channels
        n = len(x)
        n_frames = latent_frames(n, k)
        frames = np.lib.stride_tricks.sliding_window_view(x, k)[::s]
        h_x = p["enc.w"] @ frames.T  # (C, L)

        cache = {"z": z, "frames": frames, "h_x": h_x, "blocks": []}
        prod = np.empty((c, n_frames), dtype=dtype)  # one tap's product
        # h_tilde sits between zero margins of at least d columns, so tap
        # j of a conv with dilation d reads the window shifted (j-1)*d.
        margin = 2 ** (cfg.blocks - 1)
        padded = _margined(c, n_frames, margin, dtype)
        h_tilde = padded[:, margin:margin + n_frames]
        h = h_x
        for i in range(cfg.blocks):
            a_f, gamma = self._mlp(p, f"block{i}.film.f", z)
            a_g, beta = self._mlp(p, f"block{i}.film.g", z)
            self._modulate(gamma, beta, h, h_tilde)
            if keep_cache:
                cache["blocks"].append({"h_in": h, "a_f": a_f, "gamma": gamma,
                                        "a_g": a_g, "beta": beta})
            del h  # without the cache, freed before the next h allocates
            d, w = 2 ** i, p[f"block{i}.conv.w"]
            left = margin - d
            h = w[:, :, 0] @ padded[:, left:left + n_frames]
            for j in (1, 2):
                start = left + j * d
                h += np.matmul(w[:, :, j], padded[:, start:start + n_frames],
                               out=prod)
            h += p[f"block{i}.conv.b"][:, None]
            np.maximum(h, 0.0, out=h)
            if keep_cache:
                cache["blocks"][-1]["h_out"] = h

        del padded, h_tilde  # spent: freed before the head allocates
        masks = p["head.w"] @ h
        del h  # without the cache, freed before the decoder allocates
        masks += p["head.b"][:, None]
        masks = masks.reshape(cfg.n_masks, c, n_frames)
        np.clip(masks, 0.0, cfg.mask_max, out=masks)
        per_source = np.empty((cfg.n_masks, n), dtype=dtype)
        for m in range(cfg.n_masks):
            contrib = p["dec.w"].T @ np.multiply(masks[m], h_x, out=prod)
            y_full = overlap_add(contrib.T, s)  # <= n samples; the tail is 0
            per_source[m, :len(y_full)] = y_full
            per_source[m, len(y_full):] = 0.0
        out = {"masks": masks, "per_source": per_source,
               "y": per_source.sum(axis=0)}
        return cache | out if keep_cache else out

    def edit(self, clip: Clip, z: np.ndarray) -> tuple[Clip, EditingMask]:
        """Edit a clip under conditioning z; returns the output and the
        combined latent editing mask. Runs ``forward`` on the float32
        copy of the net that a ``train_toy`` step makes (no copy if the
        params are float32 already), about 135 dB SNR from the float64
        forward on a 5-s clip; the returned clip and mask are float64.
        The mask is summed and clamped in float64: a float32 ``mask_max``
        such as 1.1 rounds up past the float64 bound. The forward runs
        without the backward cache: bit-identical to the copy's cached
        run, at about 10.5 MiB of peak numpy memory against 19 MiB at
        the default config on a 5-s clip."""
        net32 = FilmMaskNet(self.config, self._params_as(np.float32))
        out = net32.forward(clip.samples, z, keep_cache=False)
        max_gain = self.config.mask_max * self.config.n_masks
        combined = out["masks"].sum(axis=0, dtype=np.float64)
        np.clip(combined, 0.0, max_gain, out=combined)
        return (Clip(_Fresh(out["y"]), clip.rate),
                EditingMask(_Fresh(combined), max_gain))

    # ---------------- backward ----------------

    @staticmethod
    def _mlp_backward(p: dict, name: str, z: np.ndarray, hidden: np.ndarray,
                      grad_out: np.ndarray, grads: dict) -> np.ndarray:
        """Adjoint of ``_mlp``: accumulates its parameter gradients into
        ``grads`` and returns d(loss)/dz."""
        grads[f"{name}2.w"] += np.outer(grad_out, hidden)
        grads[f"{name}2.b"] += grad_out
        g_pre = (p[f"{name}2.w"].T @ grad_out) * (1.0 - hidden ** 2)
        grads[f"{name}1.w"] += np.outer(g_pre, z)
        grads[f"{name}1.b"] += g_pre
        return p[f"{name}1.w"].T @ g_pre

    @staticmethod
    def _conv_backward(p: dict, i: int, h_out: np.ndarray,
                       padded: np.ndarray, grad_padded: np.ndarray,
                       grad_h: np.ndarray, prod: np.ndarray,
                       grads: dict) -> np.ndarray:
        """Adjoint of block i's ReLU dilated conv, in caller-owned buffers.

        ``padded`` holds the block's ``h_tilde`` between zero margins at
        least ``2**i`` columns wide; ``grad_padded`` has its shape and zero
        margins, and its interior is overwritten with the ReLU-gated
        gradient, so tap j gathers from the mirrored window shifted
        (1-j)*d. Accumulates the conv gradients into ``grads``, then
        overwrites ``grad_h`` (d(loss)/d(h_out)) with d(loss)/d(h_tilde),
        summing the taps in ``prod``, and returns it."""
        w = p[f"block{i}.conv.w"]
        d, n = 2 ** i, h_out.shape[1]
        margin = (padded.shape[1] - n) // 2
        grad_pre = grad_padded[:, margin:margin + n]
        np.multiply(grad_h, h_out > 0.0, out=grad_pre)
        grads[f"block{i}.conv.b"] += grad_pre.sum(axis=1)
        for j in range(3):
            start = margin + (j - 1) * d
            grads[f"block{i}.conv.w"][:, :, j] += (
                grad_pre @ padded[:, start:start + n].T)
        start = margin + d
        np.matmul(w[:, :, 0].T, grad_padded[:, start:start + n], out=grad_h)
        for j in (1, 2):
            start = margin + (1 - j) * d
            grad_h += np.matmul(w[:, :, j].T, grad_padded[:, start:start + n],
                                out=prod)
        return grad_h

    def backward(self, cache: dict, grad_sources: np.ndarray) -> dict:
        """Gradients of a scalar loss given d(loss)/d(per-source output).

        grad_sources has shape (n_masks, T), and ``cache`` comes from this
        net's ``forward``. Runs in the dtype of the params, as ``forward``
        does: grad_sources is cast to it, so a float32 net gives float32
        gradients. Returns a dict keyed like ``params`` plus "z".

        The decoder and head adjoints write into one ``(C, L)`` scratch
        and the mask gradient's own array. The blocks then share two
        zero-margined buffers, allocated once the mask gradient is
        freed: each block rebuilds its ``h_tilde`` into the first from
        the cached input, gamma and beta with ``forward``'s
        ``_modulate``, gates the gradient into the second, and
        overwrites the incoming gradient's array with the next one.
        """
        cfg = self.config
        k, s, c = cfg.kernel, cfg.stride, cfg.channels
        masks, h_x = cache["masks"], cache["h_x"]
        n_frames = h_x.shape[1]
        p = self.params
        grad_sources = np.asarray(grad_sources, dtype=h_x.dtype)
        grads = {key: np.zeros_like(val) for key, val in p.items()}
        grad_z = np.zeros(cfg.embed_dim, dtype=h_x.dtype)

        prod = np.empty_like(h_x)  # scratch for one (C, L) product
        grad_masks = np.empty_like(masks)
        grad_hx = np.zeros_like(h_x)
        for m in range(cfg.n_masks):
            # The decoder's adjoint frames the gradient like the encoder;
            # a contiguous copy keeps the products below on BLAS.
            grad_contrib = np.ascontiguousarray(
                np.lib.stride_tricks.sliding_window_view(
                    grad_sources[m], k)[::s].T)  # (K, L)
            grads["dec.w"] += (np.multiply(masks[m], h_x, out=prod)
                               @ grad_contrib.T)
            grad_prod = np.matmul(p["dec.w"], grad_contrib, out=prod)
            np.multiply(grad_prod, h_x, out=grad_masks[m])
            grad_hx += np.multiply(grad_prod, masks[m], out=grad_prod)

        grad_masks *= (masks > 0.0) & (masks < cfg.mask_max)
        grad_mpre = grad_masks.reshape(cfg.n_masks * c, n_frames)
        grads["head.w"] += grad_mpre @ cache["blocks"][-1]["h_out"].T
        grads["head.b"] += grad_mpre.sum(axis=1)
        grad_h = p["head.w"].T @ grad_mpre
        del grad_masks, grad_mpre

        margin = 2 ** (cfg.blocks - 1)
        padded = _margined(c, n_frames, margin, h_x.dtype)
        grad_padded = _margined(c, n_frames, margin, h_x.dtype)
        h_tilde = padded[:, margin:margin + n_frames]
        for i in reversed(range(cfg.blocks)):
            blk = cache["blocks"][i]
            self._modulate(blk["gamma"], blk["beta"], blk["h_in"], h_tilde)
            grad_htilde = self._conv_backward(p, i, blk["h_out"], padded,
                                              grad_padded, grad_h, prod, grads)
            grad_gamma = np.multiply(grad_htilde, blk["h_in"],
                                     out=prod).sum(axis=1)
            grad_beta = grad_htilde.sum(axis=1)
            grad_h = np.multiply(grad_htilde, blk["gamma"][:, None],
                                 out=grad_htilde)

            grad_z += self._mlp_backward(p, f"block{i}.film.f", cache["z"],
                                         blk["a_f"], grad_gamma, grads)
            grad_z += self._mlp_backward(p, f"block{i}.film.g", cache["z"],
                                         blk["a_g"], grad_beta, grads)

        grad_hx += grad_h  # the first block reads the encoded mixture
        grads["enc.w"] += grad_hx @ cache["frames"]
        grads["z"] = grad_z
        return grads


def _snr_and_grad(est: np.ndarray, ref: np.ndarray):
    """``metrics.snr`` in dB and d(SNR)/d(est); zero gradient in the
    clamped regime."""
    value = snr(est, ref)
    if not value.finite:
        return value.value, np.zeros_like(est)
    err = ref - est
    return value.value, 20.0 * err / (_LN10 * float(np.sum(err * err)))


@dataclass(frozen=True)
class TrainExample:
    """One training tuple; refs, when given, are the per-source targets
    of the permutation-invariant term."""

    x: np.ndarray
    z: np.ndarray
    y: np.ndarray
    refs: tuple[np.ndarray, ...] | None = None


def snr_loss_and_grad(net: FilmMaskNet, x, z, y, refs=None):
    """Loss = -SNR(edit, target); given per-source ``refs``, one per mask,
    the permutation-invariant per-source term is added. The net runs in
    its params' dtype and so do the gradients; the loss is computed in
    float64 from its output. Returns (loss, grads dict including "z")."""
    cache = net.forward(x, z)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != cache["y"].shape:
        raise ShapeMismatch("target length must match the input")
    n_masks = net.config.n_masks
    mix_snr, mix_grad = _snr_and_grad(cache["y"], y)
    loss = -mix_snr
    grad_sources = np.tile(-mix_grad, (n_masks, 1))
    if refs is not None:
        if len(refs) != n_masks:
            raise ShapeMismatch("PIT needs one reference per mask")
        refs = [np.asarray(r, dtype=np.float64) for r in refs]
        ests = [cache["per_source"][m] for m in range(n_masks)]
        perm, _ = pit_snr(ests, refs)
        total = 0.0
        for i, ref in enumerate(refs):
            value, g = _snr_and_grad(ests[perm[i]], ref)
            total += value
            grad_sources[perm[i]] -= g / n_masks
        loss -= total / n_masks
    grads = net.backward(cache, grad_sources)
    return loss, grads


@dataclass
class TrainResult:
    net: FilmMaskNet
    losses: list[float] = field(default_factory=list)


def train_toy(net: FilmMaskNet, examples, steps: int = 200, lr: float = 1e-3,
              lr_decay: float = 1.0) -> TrainResult:
    """Plain full-batch gradient descent on the editing objective.

    The dB-scale loss has gradient norm growing as the error shrinks, so
    a constant step size settles into a limit cycle well short of a tight
    fit; pass ``lr_decay`` < 1 (per-step exponential) to converge further.

    Mixed precision: each step runs ``forward`` and ``backward`` in
    float32 on one float32 copy of the float64 master params, sums the
    gradients in float64 and updates the masters. Over 25 steps the loss
    curve stays within 1e-5 dB of all-float64 training; longer runs may
    drift apart.

    The input net is left untouched; a trained copy with float64 params
    is returned along with the loss curve. Raises ShapeMismatch for an
    empty example list, and Diverged when the loss or the summed gradient
    stops being finite, before that step's update.
    """
    if not examples:
        raise ShapeMismatch("need at least one training example")
    trained = FilmMaskNet(net.config, {key: val.astype(np.float64)
                                       for key, val in net.params.items()})
    losses: list[float] = []
    step_lr = lr
    for step in range(steps):
        work = FilmMaskNet(net.config, trained._params_as(np.float32))
        total = 0.0
        acc = {key: np.zeros_like(val) for key, val in trained.params.items()}
        for ex in examples:
            loss, grads = snr_loss_and_grad(work, ex.x, ex.z, ex.y,
                                            refs=ex.refs)
            total += loss
            for key in acc:
                acc[key] += grads[key]
        mean_loss = total / len(examples)
        if not math.isfinite(mean_loss):
            raise Diverged(f"loss became non-finite at step {step}")
        if not all(np.isfinite(g).all() for g in acc.values()):
            raise Diverged(f"gradient became non-finite at step {step}")
        losses.append(mean_loss)
        for key, g in acc.items():
            trained.params[key] -= step_lr * g / len(examples)
        step_lr *= lr_decay
    return TrainResult(trained, losses)
