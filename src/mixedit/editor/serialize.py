"""Flat binary container for mask-network parameters.

Layout, all little-endian:

    bytes 0-3   magic "MXN1"
    u32         container version (currently 1)
    u32         length of the config JSON blob
    bytes       config JSON (the MaskNetConfig fields, and "n_masks": 1)
    u32         tensor count
    per tensor: u16 name length, name (utf-8),
                u8 ndim, ndim * u32 dims,
                float32 data in C order
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..errors import MixeditError
from .film import FilmMaskNet, MaskNetConfig, param_layout

MAGIC = b"MXN1"
VERSION = 1


class BadContainer(MixeditError):
    pass


def save_net(path, net: FilmMaskNet):
    """Write ``net`` to ``path``. The config blob keeps the
    ``"n_masks": 1`` that every container has carried, so that a net
    saves to the same bytes as before."""
    config = asdict(net.config) | {"n_masks": 1}
    config_blob = json.dumps(config, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(config_blob)))
        fh.write(config_blob)
        fh.write(struct.pack("<I", len(net.params)))
        for name in sorted(net.params):
            tensor = np.ascontiguousarray(net.params[name], dtype="<f4")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", tensor.ndim))
            fh.write(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
            fh.write(tensor.tobytes())


def load_net(path) -> FilmMaskNet:
    """Read a container; any malformed content, including a tensor whose
    name or shape does not fit the config or an ``n_masks`` other than 1,
    raises BadContainer; so does a path that cannot be read."""
    try:
        data = Path(path).read_bytes()
    except OSError as err:  # missing, a directory, no permission
        raise BadContainer(f"{path}: {err}") from err
    view = memoryview(data)
    if bytes(view[:4]) != MAGIC:
        raise BadContainer("not a mask-network container")
    try:
        version, config_len = struct.unpack_from("<II", view, 4)
        if version != VERSION:
            raise BadContainer(f"unsupported container version {version}")
        offset = 12
        blob = json.loads(bytes(view[offset:offset + config_len]))
        if isinstance(blob, dict):
            n_masks = blob.pop("n_masks", 1)
            if type(n_masks) is not int or n_masks != 1:
                raise BadContainer(f"a net has one mask, not {n_masks!r}")
        config = MaskNetConfig(**blob)
        offset += config_len
        (count,) = struct.unpack_from("<I", view, offset)
        offset += 4
        params: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", view, offset)
            offset += 2
            name = bytes(view[offset:offset + name_len]).decode("utf-8")
            offset += name_len
            (ndim,) = struct.unpack_from("<B", view, offset)
            offset += 1
            dims = struct.unpack_from(f"<{ndim}I", view, offset)
            offset += 4 * ndim
            size = math.prod(dims)
            tensor = np.frombuffer(view, dtype="<f4", count=size, offset=offset)
            if not np.isfinite(tensor).all():
                raise BadContainer(f"non-finite values in tensor {name!r}")
            offset += 4 * size
            params[name] = tensor.reshape(dims).astype(np.float64)
    except (struct.error, ValueError, TypeError, OverflowError,
            RecursionError) as err:
        # ValueError covers bad JSON/UTF-8, short tensors and BadNetConfig;
        # TypeError covers unknown config keys.
        raise BadContainer(f"{type(err).__name__}: {err}") from err
    if offset != len(data):
        raise BadContainer("trailing bytes after the tensor table")
    expected = {k: shape for k, (shape, _) in param_layout(config).items()}
    found = {k: v.shape for k, v in params.items()}
    if found != expected:
        wrong = sorted(k for k in expected.keys() | found.keys()
                       if found.get(k) != expected.get(k))
        raise BadContainer(f"tensors do not fit the config: {', '.join(wrong)}")
    return FilmMaskNet(config, params)
