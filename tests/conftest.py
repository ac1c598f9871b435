"""Shared test helpers: 64-bit central finite differences, the small test
architecture, a checkpoint header rewriter and scenes read back from disk;
the mark of tests that need argument handover. The kernel oracles are in
reference.py."""

import json
import struct
import sys
from dataclasses import replace

import numpy as np
import pytest

from sfodlab.data import DomainSpec, float_pixels, read_dataset, write_dataset
from sfodlab.detector import ArchDescriptor

# A test that a callee frees a model its caller passed without keeping it:
# before 3.11 a Python call keeps its arguments on the caller's stack until
# it returns, so the caller holds the model for the whole call.
needs_argument_handover = pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="call arguments outlive the call on the caller's stack before 3.11")


def numerical_grad(f, x, h=1e-3):
    """Central finite differences of scalar f() w.r.t. the float64 array x,
    mutated in place entry by entry."""
    assert x.dtype == np.float64, "finite differences run on the 64-bit shadow path"
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        fp = f()
        flat[i] = old - h
        fm = f()
        flat[i] = old
        gf[i] = (fp - fm) / (2 * h)
    return g


def assert_grads_close(analytic, numeric, rtol=1e-3, atol=1e-7, what=""):
    analytic = np.asarray(analytic, np.float64)
    err = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(numeric), np.abs(analytic))
    bad = err > atol + rtol * scale
    assert not bad.any(), (
        f"{what}: {bad.sum()}/{bad.size} gradient entries off; "
        f"worst abs {err.max():.3e} at scale {scale[err.argmax()]:.3e}")


def well_separated(rng, shape, step=0.07):
    """Values with pairwise gaps >= step/2 and |value| >= step/2: safe for
    finite differences through max/relu kinks."""
    n = int(np.prod(shape))
    vals = (rng.permutation(n) + 0.5) * step
    vals = vals - step * (n // 2)
    vals = np.where(np.abs(vals) < step / 2, vals + step, vals)
    return vals.reshape(shape).astype(np.float64)


def small_arch(**kw):
    """The tests' small detector: a 32-px input, two blocks and a 3 x 3 ROI
    pool on an 8 x 8 map; kw overrides any field."""
    base = dict(input_size=32, channels=(4, 8), feature_stride=4,
                anchor_scales=(8.0, 16.0), anchor_aspects=(1.0,),
                rpn_channels=8, roi_pool_size=3, roi_hidden=16)
    base.update(kw)
    return ArchDescriptor(**base)


def bn_stat_names(arch):
    """Names of the BN running statistics: the entries no gradient reaches."""
    return [f"{bn}.{stat}" for bn, _ in arch.bn_layers()
            for stat in ("running_mean", "running_var")]


def rewrite_header(path, edit):
    """Re-encode the JSON header of the checkpoint at path after edit(header)."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", raw, 12)
    header = json.loads(raw[20:20 + hlen])
    header = edit(header)
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:12] + struct.pack("<Q", len(blob)) + blob + raw[20 + hlen:])


def read_back(scenes, directory):
    """The scenes written to directory and read again, with their 8-bit
    pixels, and the same scenes with those pixels decoded to float32."""
    write_dataset(scenes, directory, DomainSpec(), 0)
    read = read_dataset(directory)
    assert all(s.image.dtype == np.uint8 for s in read)
    return read, [replace(s, image=float_pixels(s.image)) for s in read]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
