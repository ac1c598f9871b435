"""Binary model checkpoints.

Layout: 8-byte magic ``SFODCKPT``, little-endian u32 format version,
little-endian u64 JSON header length, UTF-8 JSON header (architecture
descriptor, ordered array names/shapes, free-form metadata), then the
concatenated little-endian float32 array payloads in header order.
Round trips are bit-exact, BN running statistics included. A checkpoint is
written to a temporary file beside its path and renamed into place, so a
failed save leaves any earlier file at that path as it was.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

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
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", VERSION))
            f.write(struct.pack("<Q", len(blob)))
            f.write(blob)
            for n in names:
                f.write(np.ascontiguousarray(model.params[n], dtype="<f4").tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
    try:
        arch, layout, metadata = _decode_header(header)
    except CheckpointError as e:
        raise CheckpointError(f"{path}: {e}") from e
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: invalid header: {type(e).__name__}: {e}") from e
    params = {}
    for name, shape in layout.items():
        nbytes = int(np.prod(shape)) * 4
        if off + nbytes > len(raw):
            raise CheckpointError(f"{path}: truncated payload at {name}")
        params[name] = np.frombuffer(
            raw[off:off + nbytes], dtype="<f4").reshape(shape).copy()
        off += nbytes
    if off != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - off} trailing bytes")
    return ModelState(arch, params), metadata
