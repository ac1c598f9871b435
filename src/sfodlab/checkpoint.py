"""Binary model checkpoints.

Layout: 8-byte magic ``SFODCKPT``, little-endian u32 format version,
little-endian u64 JSON header length, UTF-8 JSON header (architecture
descriptor, ordered array names/shapes, free-form metadata), then the
concatenated little-endian float32 array payloads in header order.
Round trips are bit-exact, BN running statistics included.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .detector import ArchDescriptor, ModelState

MAGIC = b"SFODCKPT"
VERSION = 1


class CheckpointError(Exception):
    """Malformed, truncated or incompatible checkpoint file."""


def save_checkpoint(path, model: ModelState, metadata: dict | None = None):
    names = list(model.params)
    header = {
        "arch": model.arch.to_dict(),
        "arrays": [{"name": n, "shape": list(model.params[n].shape)} for n in names],
        "metadata": metadata or {},
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for n in names:
            f.write(np.ascontiguousarray(model.params[n], dtype="<f4").tobytes())


def load_checkpoint(path):
    """Read a checkpoint; returns (ModelState, metadata).

    Fails loudly with CheckpointError if the file is malformed or its array
    names or shapes differ from those its architecture descriptor defines.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    if len(raw) < len(MAGIC) + 12 or raw[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    off = len(MAGIC)
    (version,) = struct.unpack_from("<I", raw, off)
    off += 4
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    (hlen,) = struct.unpack_from("<Q", raw, off)
    off += 8
    try:
        header = json.loads(raw[off:off + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: corrupt header: {e}") from e
    off += hlen
    arch = ArchDescriptor.from_dict(header["arch"])
    params = {}
    for entry in header["arrays"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 4
        if off + nbytes > len(raw):
            raise CheckpointError(f"{path}: truncated payload at {entry['name']}")
        params[entry["name"]] = np.frombuffer(
            raw[off:off + nbytes], dtype="<f4").reshape(shape).copy()
        off += nbytes
    if off != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - off} trailing bytes")
    shapes = arch.param_shapes()
    if set(params) != set(shapes):
        raise CheckpointError(f"{path}: parameter names do not match descriptor")
    for name, arr in params.items():
        if arr.shape != shapes[name]:
            raise CheckpointError(
                f"{path}: {name} has shape {arr.shape}, descriptor needs {shapes[name]}")
    return ModelState(arch, params), header["metadata"]
