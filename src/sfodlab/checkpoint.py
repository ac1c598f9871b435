"""Binary model checkpoints.

Layout: 8-byte magic ``SFODCKPT``, little-endian u32 format version,
little-endian u64 JSON header length, UTF-8 JSON header (architecture
descriptor, ordered array names/shapes, free-form metadata), then the
concatenated little-endian float32 array payloads in header order.
Round trips are bit-exact, BN running statistics included. A checkpoint is
written through data.atomic_write, as every run output is, so a failed save
leaves any earlier file at that path as it was.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .data import atomic_write
from .detector import ArchDescriptor, ModelState

MAGIC = b"SFODCKPT"
VERSION = 1


class CheckpointError(Exception):
    """Malformed, truncated or incompatible checkpoint file."""


def save_checkpoint(path, model: ModelState, metadata: dict):
    names = list(model.params)
    header = {
        "arch": asdict(model.arch),
        "arrays": [{"name": n, "shape": list(model.params[n].shape)} for n in names],
        "metadata": metadata,
    }
    blob = json.dumps(header).encode("utf-8")
    with atomic_write(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for n in names:
            f.write(np.ascontiguousarray(model.params[n], dtype="<f4").tobytes())


def _decode_header(header):
    """(arch, ordered {array name: shape}, metadata) of a parsed JSON header.

    Raises KeyError, TypeError or ValueError on a malformed header, and
    CheckpointError when the arrays differ from those the architecture
    descriptor defines.
    """
    arch = ArchDescriptor.from_dict(header["arch"])
    layout = [(entry["name"], tuple(entry["shape"])) for entry in header["arrays"]]
    shapes = arch.param_shapes()
    names = [name for name, _ in layout]
    if sorted(names) != sorted(shapes):
        raise CheckpointError("parameter names do not match descriptor")
    for name, shape in layout:
        if shape != shapes[name]:
            raise CheckpointError(
                f"{name} has shape {shape}, descriptor needs {shapes[name]}")
    return arch, {name: shapes[name] for name in names}, header["metadata"]


def load_checkpoint(path):
    """Read a checkpoint; returns (ModelState, metadata).

    Fails loudly with CheckpointError if the file is malformed, its header
    lacks an entry or holds an invalid architecture descriptor, or its array
    names or shapes differ from those the descriptor defines.
    """
    path = Path(path)
    try:
        with path.open("rb") as f:
            return _read_checkpoint(f, path)
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e


def _read_checkpoint(f, path):
    """load_checkpoint on the open file f. Each array is read straight into
    the float32 array that the model then owns, so no copy of the payload
    is alive beside it."""
    size = os.fstat(f.fileno()).st_size
    head = f.read(len(MAGIC) + 12)
    if len(head) < len(MAGIC) + 12 or head[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    version, hlen = struct.unpack_from("<IQ", head, len(MAGIC))
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    try:
        # a corrupt length must not size the read: read() allocates it first
        header = json.loads(f.read(min(hlen, size)).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: corrupt header: {e}") from e
    try:
        arch, layout, metadata = _decode_header(header)
    except CheckpointError as e:
        raise CheckpointError(f"{path}: {e}") from e
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: invalid header: {type(e).__name__}: {e}") from e
    params = {}
    for name, shape in layout.items():
        params[name] = np.empty(shape, "<f4")
        if f.readinto(params[name]) != params[name].nbytes:
            raise CheckpointError(f"{path}: truncated payload at {name}")
    trailing = size - f.tell()
    if trailing:
        raise CheckpointError(f"{path}: {trailing} trailing bytes")
    return ModelState(arch, params), metadata
