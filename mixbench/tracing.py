"""In-memory span tracer that wraps the library's public functions.

Each entry of ``LAYERS`` names a span and the attribute it replaces: the
name in the module (or class) where the caller looks the function up.
``mixedit.dataset.synth`` imports ``resample`` by name, so the resample
span patches ``mixedit.dataset.synth.resample``; the benchmark itself calls
through module attributes (``ds.synthesize``, ``editor.ideal_mask``), so
those spans patch the package attributes. Nothing under ``src/`` changes:
wrappers are installed for the traced window only and removed afterwards.

A span is (name, start, end, parent, record id, root, size). Self time is
span time minus the time covered by its child spans; because the program
is single-threaded, children never overlap, so that cover is their sum.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from contextlib import contextmanager

# (span name, module, attribute path)
LAYERS = (
    ("catalog.ingest", "mixedit.dataset", "ingest"),
    ("catalog.partition", "mixedit.dataset", "partition"),
    ("manifest.plan", "mixedit.dataset", "generate_manifest"),
    ("manifest.to_json", "mixedit.dataset.manifest", "ManifestRecord.to_json"),
    ("prompt.simplify", "mixedit.dataset.manifest", "simplify"),
    ("prompt.render", "mixedit.dataset.manifest", "render"),
    ("prompt.parse", "mixedit.dataset.manifest", "parse"),
    ("prompt.parse", "mixedit.prompt", "parse"),
    ("prompt.expand", "mixedit.prompt", "expand"),
    ("synth.synthesize", "mixedit.dataset", "synthesize"),
    ("synth.record", "mixedit.dataset.synth", "synthesize_record"),
    ("synth.read_wav", "mixedit.dataset.synth", "read_wav"),
    ("synth.read_wav", "mixedit.dataset", "read_wav"),
    ("synth.write_wav", "mixedit.dataset.synth", "write_wav"),
    ("dsp.resample", "mixedit.dataset.synth", "resample"),
    ("dsp.condition", "mixedit.dataset.synth", "condition"),
    ("dsp.clip", "mixedit.dsp", "Clip.__post_init__"),
    ("mixer.assign_gains", "mixedit.dataset.synth", "assign_gains"),
    ("mixer.apply_gains", "mixedit.dataset.synth", "apply_gains"),
    ("mixer.build", "mixedit.mixer", "MixturePair.build"),
    ("dsp.stft", "mixedit.editor.masking", "stft"),
    ("dsp.istft", "mixedit.editor.masking", "istft"),
    ("masking.ideal_mask", "mixedit.editor", "ideal_mask"),
    ("masking.mask_edit", "mixedit.editor", "mask_edit"),
    ("metrics.snr", "mixedit.metrics", "snr"),
    ("metrics.snri", "mixedit.metrics", "snri"),
    ("metrics.si_sdr", "mixedit.metrics", "si_sdr"),
    ("film.embed", "mixedit.editor", "embed_instruction"),
    ("film.forward", "mixedit.editor.film", "FilmMaskNet.forward"),
    ("film.backward", "mixedit.editor.film", "FilmMaskNet.backward"),
    ("film.train_toy", "mixedit.editor", "train_toy"),
)

# Work size of one call, summed per span name (input samples for resample).
SIZE_OF = {"dsp.resample": lambda args: len(args[0])}
# Record id stamped on a span and on the spans below it.
RECORD_OF = {"synth.record": lambda args: args[0].record_id}

# Root span around the timed program calls; per-layer numbers count only
# spans below it, so the benchmark's own checks never inflate a layer.
WORK = "work"

NAME, START, END, PARENT, RECORD, ROOT, SIZE, CHILD = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.record = None  # record id stamped on new spans

    def _open(self, name, size=None) -> list:
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][ROOT] if parent >= 0 else name
        span = [name, 0.0, 0.0, parent, self.record, root, size, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += span[END] - span[START]

    @contextmanager
    def span(self, name, record=None):
        """A span opened by the benchmark itself, e.g. the WORK root."""
        saved = self.record
        if record is not None:
            self.record = record
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)
            self.record = saved

    def _wrap(self, name, fn):
        tracer = self
        size_of = SIZE_OF.get(name)
        record_of = RECORD_OF.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            saved = tracer.record
            if record_of:
                tracer.record = record_of(args)
            span = tracer._open(name, size_of(args) if size_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)
                tracer.record = saved

        return traced

    @contextmanager
    def installed(self):
        """Wrap every entry of LAYERS for the duration of the block."""
        patches = []
        for name, module, path in LAYERS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__))
            else:
                wrapped = self._wrap(name, original)
            setattr(owner, attr, wrapped)
            patches.append((owner, attr, original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def summary(self) -> "Summary":
        return Summary(self.spans)

    def write(self, path):
        """One JSON object per span; ``self`` is in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "record": s[RECORD], "root": s[ROOT],
                    "size": s[SIZE], "self": s[END] - s[START] - s[CHILD],
                }) + "\n")


class Summary:
    """Per span name, over the spans below a WORK root: self seconds,
    calls, summed work size and the list of span durations."""

    def __init__(self, spans):
        self._layers: dict[str, list] = {}
        for s in spans:
            if s[ROOT] != WORK:
                continue
            layer = self._layers.setdefault(s[NAME], [0.0, 0, 0, []])
            duration = s[END] - s[START]
            layer[0] += duration - s[CHILD]
            layer[1] += 1
            layer[2] += s[SIZE] or 0
            layer[3].append(duration)

    def _get(self, name):
        return self._layers.get(name, [0.0, 0, 0, []])

    def self_seconds(self, name) -> float:
        return self._get(name)[0]

    def calls(self, name) -> int:
        return self._get(name)[1]

    def size(self, name) -> int:
        return self._get(name)[2]

    def durations(self, name) -> list[float]:
        return self._get(name)[3]


def quantile(values, q):
    """Linear-interpolation quantile; 0.0 for an empty list."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]
