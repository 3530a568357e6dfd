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
import typing
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .. import dsp
from ..dsp import Clip, _each, _equal_parts, _Fresh, _parts, overlap_add
from ..errors import MixeditError, check_types
from ..metrics import _snr_error
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

    def __post_init__(self):
        """Raises BadNetConfig for a field ``errors.check_types`` refuses
        (numpy integers and reals pass, no bool does), a field that is not
        positive, more than ``_MAX_BLOCKS`` blocks, an odd kernel, or more
        than ``_MAX_PARAMS`` parameters."""
        check_types(vars(self), _CONFIG_HINTS, BadNetConfig)
        for name, value in vars(self).items():
            if value is not None and not value > 0:
                raise BadNetConfig(f"{name} must be positive, got {value!r}")
        if self.blocks > _MAX_BLOCKS:
            raise BadNetConfig(f"blocks must be at most {_MAX_BLOCKS}, "
                               f"got {self.blocks}")
        if self.kernel % 2 != 0:
            raise BadNetConfig("kernel must be even so the stride is kernel/2")
        # int(): a product of numpy sizes would wrap around.
        if sum(math.prod(map(int, shape))
               for shape, _ in param_layout(self).values()) > _MAX_PARAMS:
            raise BadNetConfig(f"the net would hold more than {_MAX_PARAMS} "
                               "parameters")

    @property
    def stride(self) -> int:
        return self.kernel // 2

    @property
    def film_hidden(self) -> int:
        return self.hidden if self.hidden is not None else self.channels


_CONFIG_HINTS = typing.get_type_hints(MaskNetConfig)

# The most parameters a net may hold: training keeps float64 params, a
# float32 copy and float64 gradients, 1.25 GiB at this cap, and a larger
# net would fail in numpy's allocator with a traceback.
_MAX_PARAMS = 2 ** 26

# The most dilated blocks a net may have: each block doubles the margin
# ``forward`` pads (2**(blocks-1) latent frames a side) and the context an
# ``edit`` window reads. At 16 the margin is 2**15 frames, about 16 s of
# 16-kHz audio at the default stride, more than a tree clip holds.
_MAX_BLOCKS = 16


def latent_frames(n_samples: int, kernel: int) -> int:
    """Latent sequence length for a waveform of n_samples."""
    if n_samples < kernel:
        raise ShapeMismatch(f"need at least {kernel} samples")
    return (n_samples - kernel) // (kernel // 2) + 1


# ``dsp._parts`` settings of the inference forward, in latent frames: one
# window under 1024 frames, else an even count of equal windows at most
# 8192 frames wide. Every window is at least 512 frames wide: OpenBLAS
# takes a narrow sgemm (N below about 250) through another kernel, whose
# last bits differ from the whole-clip product's. Cut this way, a
# window's products equal the whole-clip product's columns bit for bit
# for the default shapes.
_EDIT_PARTS = (1024, 1, 8192)


def _bool_scratch(buf: np.ndarray, count: int) -> list[np.ndarray]:
    """``count`` boolean arrays shaped like the 2-D float array ``buf``,
    laid over its bytes, for a caller done with its values."""
    cols = buf.shape[1]
    flat = buf.view(np.bool_)  # (rows, cols * itemsize)
    return [flat[:, i * cols:(i + 1) * cols] for i in range(count)]


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
    layout["head.w"] = ((c, c), lambda w: w * math.sqrt(1.0 / c))
    layout["head.b"] = ((c,), 1.0)
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

    @staticmethod
    def _conv(w: np.ndarray, bias: np.ndarray, tap0: np.ndarray,
              tap1: np.ndarray, tap2: np.ndarray, out: np.ndarray,
              prod: np.ndarray) -> None:
        """A block's dilated conv, bias and ReLU into ``out``: tap j of
        ``w`` reads ``tap{j}``, the block's input shifted (j-1)*d, and
        the taps sum in order through the scratch ``prod``."""
        np.matmul(w[:, :, 0], tap0, out=out)
        out += np.matmul(w[:, :, 1], tap1, out=prod)
        out += np.matmul(w[:, :, 2], tap2, out=prod)
        out += bias[:, None]
        np.maximum(out, 0.0, out=out)

    @staticmethod
    def _head(w: np.ndarray, bias: np.ndarray, mask_max: float,
              h: np.ndarray, out: np.ndarray) -> None:
        """The mask head into ``out``: ``w @ h + bias`` clamped to
        ``[0, mask_max]``."""
        np.matmul(w, h, out=out)
        out += bias[:, None]
        np.clip(out, 0.0, mask_max, out=out)

    def forward(self, x: np.ndarray, z: np.ndarray, *,
                keep_cache: bool = True) -> dict:
        """Run the net in the dtype of its own params, to which ``x`` and
        ``z`` are cast; returns a cache consumed by this net's
        ``backward``. The cache holds only what ``backward`` reads:
        each block's input, perceptron activations and ``h_out``, from
        which ``backward`` rebuilds the modulated input and the ReLU
        gates, and the ``(C, L)`` mask as ``masks`` for the clamp gates.
        The cached pass runs whole on the calling thread.

        With ``keep_cache=False`` (inference) the clip runs in windows of
        latent frames (``_EDIT_PARTS``), on up to one thread per CPU, and
        only ``y`` and ``mask`` come back, both float64: the output, and
        the mask clamped to ``config.mask_max`` in float64. A window
        reads 2^R - 1 frames of context on each side, the receptive field
        of the R dilated blocks, plus one more on its left, since its
        first samples also sum the frame before its first. It keeps only
        the frames and samples it owns, so both equal the cached
        whole-clip run bit for bit whatever the thread count.
        """
        return self._forward(x, z, keep_cache)

    def _forward(self, x: np.ndarray, z: np.ndarray,
                 keep_cache: bool = True) -> dict:
        """``forward``'s body, which the benchmark tracer does not wrap, for
        ``train_toy``'s examples on the pool's threads."""
        cfg, p = self.config, self.params
        dtype = p["enc.w"].dtype
        x = np.asarray(x)
        z = np.asarray(z, dtype=dtype)
        if x.ndim != 1:
            raise ShapeMismatch("expected a mono waveform")
        if z.shape != (cfg.embed_dim,):
            raise ShapeMismatch(
                f"conditioning vector must have size {cfg.embed_dim}"
            )
        n_frames = latent_frames(len(x), cfg.kernel)
        if keep_cache:
            return self._run(np.asarray(x, dtype=dtype), z, keep_cache=True)

        s, context = cfg.stride, 2 ** cfg.blocks
        y = np.empty(len(x))
        mask = np.empty((cfg.channels, n_frames))

        def run_window(first, end):
            lo = max(first - context, 0)
            hi = min(end + context - 1, n_frames)
            # Frames [lo, hi) read samples [lo*s, (hi+1)*s); a window that
            # reaches the last frame reads on to the clip's end.
            read = x[lo * s:(hi + 1) * s if hi < n_frames else None]
            out = self._run(np.asarray(read, dtype=dtype), z,
                            keep_cache=False)
            part = mask[:, first:end]
            part[...] = out["masks"][:, first - lo:end - lo]
            np.clip(part, 0.0, cfg.mask_max, out=part)
            stop = end * s if end < n_frames else len(x)
            y[first * s:stop] = out["y"][(first - lo) * s:stop - lo * s]

        _each(_parts(n_frames, *_EDIT_PARTS), run_window)
        return {"y": y, "mask": mask}

    def _run(self, x: np.ndarray, z: np.ndarray, keep_cache: bool) -> dict:
        """``forward`` over the whole of ``x`` and ``z``, both already in
        the params' dtype, on the calling thread: the ``(C, L)`` mask as
        ``masks`` and the output ``y``, plus the backward cache if
        ``keep_cache``.

        Every block writes its modulated input ``h_tilde`` into one
        zero-margined buffer, with margins as wide as the last block's
        dilation, and its ``h_out`` into a fresh array. Without the
        cache each block's input is dropped once modulated, so the
        blocks' working set is three ``(C, L)`` arrays whatever their
        number, and the buffer is freed before the head and the decoder
        allocate."""
        cfg, p = self.config, self.params
        dtype = p["enc.w"].dtype
        k, s, c = cfg.kernel, cfg.stride, cfg.channels
        n = len(x)
        n_frames = latent_frames(n, k)
        frames = np.lib.stride_tricks.sliding_window_view(x, k)[::s]
        h_x = p["enc.w"] @ frames.T

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
                cache["blocks"].append({"h_in": h, "a_f": a_f,
                                        "gamma": gamma, "a_g": a_g,
                                        "beta": beta})
            del h  # without the cache, freed before the next h allocates
            d = 2 ** i
            taps = [padded[:, start:start + n_frames]
                    for start in (margin - d, margin, margin + d)]
            h = np.empty((c, n_frames), dtype=dtype)
            self._conv(p[f"block{i}.conv.w"], p[f"block{i}.conv.b"], *taps,
                       h, prod)
            if keep_cache:
                cache["blocks"][-1]["h_out"] = h

        del padded, h_tilde, taps  # spent: freed before the head allocates
        masks = np.empty((c, n_frames), dtype=dtype)
        self._head(p["head.w"], p["head.b"], cfg.mask_max, h, masks)
        del h  # without the cache, freed before the decoder allocates
        contrib = p["dec.w"].T @ np.multiply(masks, h_x, out=prod)
        y_full = overlap_add(contrib.T, s)  # <= n samples; tail is 0
        y = np.zeros(n, dtype=dtype)
        y[:len(y_full)] = y_full
        out = {"masks": masks, "y": y}
        return cache | out if keep_cache else out

    def edit(self, clip: Clip, z: np.ndarray) -> tuple[Clip, EditingMask]:
        """Edit a clip under conditioning z; returns the output and the
        latent editing mask. Runs the inference ``forward`` on
        the float32 copy of the net that a ``train_toy`` step makes (no
        copy if the params are float32 already), about 135 dB SNR from
        the float64 forward on a 5-s clip; the returned clip and mask are
        float64. The mask is cast to float64 and clamped again there: a
        float32 ``mask_max`` such as 1.1 rounds up past the float64 bound."""
        net32 = FilmMaskNet(self.config, self._params_as(np.float32))
        out = net32.forward(clip.samples, z, keep_cache=False)
        return (Clip(_Fresh(out["y"]), clip.rate),
                EditingMask(_Fresh(out["mask"]), self.config.mask_max))

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
        # The ReLU gate, its comparison in prod's bytes until the
        # input-gradient taps need them.
        gate = _bool_scratch(prod, 1)[0]
        np.greater(h_out, 0.0, out=gate)
        np.multiply(grad_h, gate, out=grad_pre)
        grads[f"block{i}.conv.b"] += np.sum(grad_pre, axis=1)
        for j in range(3):
            start = margin + (j - 1) * d
            grads[f"block{i}.conv.w"][:, :, j] += (
                grad_pre @ padded[:, start:start + n].T)
        start = margin + d
        acc = np.matmul(w[:, :, 0].T, grad_padded[:, start:start + n],
                        out=grad_h)
        for j in (1, 2):
            start = margin + (1 - j) * d
            acc += np.matmul(w[:, :, j].T, grad_padded[:, start:start + n],
                             out=prod)
        return grad_h

    def backward(self, cache: dict, grad_y: np.ndarray) -> dict:
        """Gradients of a scalar loss given d(loss)/d(y), the output.

        grad_y has shape (T,), and ``cache`` comes from this net's
        ``forward``. Runs in the dtype of the params, as ``forward`` does:
        grad_y is cast to it, so a float32 net gives float32 gradients.
        Returns a dict keyed like ``params`` plus "z".

        The decoder and head adjoints write into one ``(C, L)`` scratch
        and the mask gradient's own array. The blocks then share two
        zero-margined buffers, allocated once the mask gradient is
        freed: each block rebuilds its ``h_tilde`` into the first from
        the cached input, gamma and beta with ``forward``'s
        ``_modulate``, gates the gradient into the second, and
        overwrites the incoming gradient's array with the next one.

        Like the cached ``forward``, the pass runs whole on the calling
        thread.
        """
        return self._backward(cache, grad_y)

    def _backward(self, cache: dict, grad_y: np.ndarray) -> dict:
        """``backward``'s body, which the benchmark tracer does not wrap,
        for ``train_toy``'s examples on the pool's threads."""
        cfg = self.config
        k, s, c = cfg.kernel, cfg.stride, cfg.channels
        mask, h_x = cache["masks"], cache["h_x"]
        n_frames = h_x.shape[1]
        p = self.params
        grad_y = np.asarray(grad_y, dtype=h_x.dtype)
        grads = {key: np.zeros_like(val) for key, val in p.items()}
        grad_z = np.zeros(cfg.embed_dim, dtype=h_x.dtype)
        grad_gamma = np.empty(c, dtype=h_x.dtype)
        grad_beta = np.empty(c, dtype=h_x.dtype)

        prod = np.empty_like(h_x)  # scratch for one (C, L) product
        grad_mask = np.empty_like(mask)
        grad_hx = np.zeros_like(h_x)
        # The decoder's adjoint frames the gradient like the encoder; a
        # contiguous copy keeps the products on BLAS.
        grad_contrib = np.ascontiguousarray(
            np.lib.stride_tricks.sliding_window_view(grad_y, k)[::s].T)
        # grad_mask holds the decoder's input until the adjoint below
        # overwrites it.
        np.multiply(mask, h_x, out=grad_mask)
        grads["dec.w"] += grad_mask @ grad_contrib.T
        np.matmul(p["dec.w"], grad_contrib, out=prod)
        # The masked product's adjoint: the mask gradient, and the h_x
        # gradient through prod, which it overwrites.
        np.multiply(prod, h_x, out=grad_mask)
        grad_hx += np.multiply(prod, mask, out=prod)
        # Zero where the mask sits at a clamp; the comparisons in prod's
        # bytes.
        above, below = _bool_scratch(prod, 2)
        np.greater(mask, 0.0, out=above)
        np.less(mask, cfg.mask_max, out=below)
        grad_mask *= np.logical_and(above, below, out=above)
        grads["head.w"] += grad_mask @ cache["blocks"][-1]["h_out"].T
        grads["head.b"] += np.sum(grad_mask, axis=1)
        grad_h = p["head.w"].T @ grad_mask
        del grad_mask

        margin = 2 ** (cfg.blocks - 1)
        padded = _margined(c, n_frames, margin, h_x.dtype)
        grad_padded = _margined(c, n_frames, margin, h_x.dtype)
        h_tilde = padded[:, margin:margin + n_frames]
        for i in reversed(range(cfg.blocks)):
            blk = cache["blocks"][i]
            self._modulate(blk["gamma"], blk["beta"], blk["h_in"], h_tilde)
            grad_h = self._conv_backward(
                p, i, blk["h_out"], padded, grad_padded, grad_h, prod,
                grads)
            # FiLM's adjoint: the gamma and beta gradients, each row's sum
            # over every frame, then d(loss)/d(h_in) over grad_h in place.
            np.sum(np.multiply(grad_h, blk["h_in"], out=prod), axis=1,
                   out=grad_gamma)
            np.sum(grad_h, axis=1, out=grad_beta)
            np.multiply(grad_h, blk["gamma"][:, None], out=grad_h)

            grad_z += self._mlp_backward(p, f"block{i}.film.f",
                                         cache["z"], blk["a_f"],
                                         grad_gamma, grads)
            grad_z += self._mlp_backward(p, f"block{i}.film.g",
                                         cache["z"], blk["a_g"],
                                         grad_beta, grads)

        # The first block reads the encoded mixture.
        grad_hx += grad_h
        grads["enc.w"] += grad_hx @ cache["frames"]
        grads["z"] = grad_z
        return grads


def _snr_and_grad(est: np.ndarray, ref: np.ndarray):
    """``metrics.snr`` in dB and d(SNR)/d(est), from the error energy the
    SNR was measured with; zero gradient in the clamped regime."""
    value, err, err_e = _snr_error(est, ref)
    if not value.finite:
        return value.value, np.zeros_like(est)
    return value.value, 20.0 * err / (_LN10 * err_e)


@dataclass(frozen=True)
class TrainExample:
    """One training tuple: the input mixture, the conditioning vector and
    the edited mixture to aim for."""

    x: np.ndarray
    z: np.ndarray
    y: np.ndarray


def snr_loss_and_grad(net: FilmMaskNet, x, z, y):
    """Loss = -SNR(edit, target). The net runs in its params' dtype and so
    do the gradients; the loss is computed in float64 from its output.
    Returns (loss, grads dict including "z")."""
    return _loss_and_grad(net.forward, net.backward, x, z, y)


def _loss_and_grad(forward, backward, x, z, y):
    """``snr_loss_and_grad`` through the given ``forward`` and
    ``backward``: a net's public passes, or their bodies on a pool
    thread. Calls no other name the benchmark tracer wraps."""
    cache = forward(x, z)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != cache["y"].shape:
        raise ShapeMismatch("target length must match the input")
    value, grad = _snr_and_grad(cache["y"], y)
    return -value, backward(cache, -grad)


def _examples_loss_and_grad(net: FilmMaskNet, examples, results: list,
                            first: int, end: int) -> None:
    """``(loss, grads)`` of ``examples[first:end]`` into the same slots of
    ``results``, one example after another on the part's thread. The part
    from 0, which ``dsp._threads`` runs on the calling thread, goes
    through the net's public ``forward`` and ``backward``, which the
    benchmark tracer wraps; the pool's parts go through their bodies."""
    passes = ((net.forward, net.backward) if first == 0
              else (net._forward, net._backward))
    for i in range(first, end):
        ex = examples[i]
        results[i] = _loss_and_grad(*passes, ex.x, ex.z, ex.y)


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

    Each step hands its examples to the pool (``dsp._each``) in
    contiguous parts (``dsp._equal_parts``), one per CPU at most, and
    each pass runs whole on its part's thread. The calling thread runs
    the first part through the public passes; the pool's parts call no
    name the benchmark tracer wraps. The step then sums every example's
    loss and float32 gradients in example order, as one thread does, so
    the losses and params do not depend on the thread count. A step
    holds one pass per CPU in use, and every example's gradients until
    the sum.

    The input net is left untouched; a trained copy with float64 params
    is returned along with the loss curve. Raises ShapeMismatch for an
    empty example list, and Diverged when the loss or the summed gradient
    stops being finite, before that step's update. Of the examples'
    errors the first in example order is raised, as one thread raises it.
    The steps run under ``np.errstate(all="ignore")``, pool threads
    included, so an overflow on the way to ``Diverged`` prints no numpy
    warning.
    """
    n = len(examples)
    if not n:
        raise ShapeMismatch("need at least one training example")
    parts = _equal_parts(n, min(n, dsp.available_cpus()))
    trained = FilmMaskNet(net.config, {key: val.astype(np.float64)
                                       for key, val in net.params.items()})
    losses: list[float] = []
    step_lr = lr
    with np.errstate(all="ignore"):
        for step in range(steps):
            work = FilmMaskNet(net.config, trained._params_as(np.float32))
            results: list = [None] * n
            _each(parts, partial(_examples_loss_and_grad, work, examples,
                                 results))
            total = 0.0
            acc = {key: np.zeros_like(val)
                   for key, val in trained.params.items()}
            for loss, grads in results:
                total += loss
                for key in acc:
                    acc[key] += grads[key]
            mean_loss = total / n
            if not math.isfinite(mean_loss):
                raise Diverged(f"loss became non-finite at step {step}")
            if not all(np.isfinite(g).all() for g in acc.values()):
                raise Diverged(f"gradient became non-finite at step {step}")
            losses.append(mean_loss)
            for key, g in acc.items():
                trained.params[key] -= step_lr * g / n
            step_lr *= lr_decay
    return TrainResult(trained, losses)
