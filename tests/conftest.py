"""Shared oracles: 64-bit central finite differences, naive references and
scenes read back from disk; the mark of tests that need argument handover."""

import sys
from dataclasses import replace

import numpy as np
import pytest

from sfodlab.data import DomainSpec, float_pixels, read_dataset, write_dataset

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


def conv2d_naive(x, w, b, stride=1, pad=0):
    """Direct 6-loop convolution reference."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((n, o, oh, ow), dtype=np.float64)
    for ni in range(n):
        for oi in range(o):
            for yi in range(oh):
                for xi in range(ow):
                    acc = 0.0
                    for ci in range(c):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += (xp[ni, ci, yi * stride + ky, xi * stride + kx]
                                        * w[oi, ci, ky, kx])
                    out[ni, oi, yi, xi] = acc + (b[oi] if b is not None else 0.0)
    return out


def bn_stat_names(arch):
    """Names of the BN running statistics: the entries no gradient reaches."""
    return [f"{bn}.{stat}" for bn, _ in arch.bn_layers()
            for stat in ("running_mean", "running_var")]


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
