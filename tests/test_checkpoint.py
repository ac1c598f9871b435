"""Checkpoint format contracts: bit-exact round trips, and a CheckpointError
for every malformed or incompatible file."""

import hashlib
import json
import re
import struct

import numpy as np
import pytest

from sfodlab.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from sfodlab.detector import ArchDescriptor, init_model


def small_model(seed=0):
    arch = ArchDescriptor(input_size=32, channels=(4, 8), feature_stride=4,
                          anchor_scales=(8.0, 16.0), anchor_aspects=(1.0,),
                          rpn_channels=8, roi_pool_size=3, roi_hidden=16)
    return init_model(arch, seed)


@pytest.fixture
def ckpt(tmp_path):
    model = small_model()
    model.params["backbone.b0.bn.running_mean"][:] = (0.25, -1e-30, np.pi, 7.0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, {"kind": "source", "steps": 3})
    return path, model


def test_round_trip_bit_exact(ckpt):
    path, model = ckpt
    loaded, meta = load_checkpoint(path)
    assert meta == {"kind": "source", "steps": 3}
    assert loaded.arch == model.arch
    assert list(loaded.params) == list(model.params)
    for name, arr in model.params.items():
        assert loaded.params[name].dtype == np.float32
        assert loaded.params[name].tobytes() == arr.tobytes(), name


DEFAULT_ARCH_JSON = (
    '{"input_size": 96, "in_channels": 3, "channels": [8, 16, 32, 64], '
    '"feature_stride": 8, "anchor_scales": [16.0, 32.0, 64.0], '
    '"anchor_aspects": [0.5, 1.0, 2.0], "num_classes": 3, "rpn_channels": 64, '
    '"roi_pool_size": 5, "roi_hidden": 256, "rpn_pos_thr": 0.7, "rpn_neg_thr": 0.3, '
    '"roi_pos_thr": 0.5, "rpn_sample": 64, "rpn_pos_fraction": 0.5, "roi_sample": 32, '
    '"roi_pos_fraction": 0.25, "pre_nms_topk": 100, "post_nms_topk": 50, '
    '"proposal_nms_iou": 0.7}')


@pytest.mark.parametrize("arch,arch_json,digest", [
    (ArchDescriptor(), DEFAULT_ARCH_JSON,
     "c4d3635dae30aaffa7d386aeb18bd1fb474ddf5b5479aae89d664ab166bffcef"),
    (ArchDescriptor(input_size=64, num_classes=2, channels=(4, 8, 8)),
     DEFAULT_ARCH_JSON.replace('"input_size": 96', '"input_size": 64')
     .replace("[8, 16, 32, 64]", "[4, 8, 8]").replace('"num_classes": 3', '"num_classes": 2'),
     "07bf573b5e36f5eb9b143eaffbabf0edf504f0a60116dfdf9cadb2895c04ba5d"),
], ids=["default", "small"])
def test_header_bytes_pinned(tmp_path, arch, arch_json, digest):
    """The JSON header byte for byte: the architecture descriptor first,
    tuples as JSON lists."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_model(arch, 0), {"kind": "source"})
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", raw, 12)
    header = raw[20:20 + hlen]
    assert header.startswith(b'{"arch": ' + arch_json.encode() + b', "arrays": [')
    assert hashlib.sha256(header).hexdigest() == digest


def rewrite(path, raw):
    path.write_bytes(raw)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_failed_save_keeps_the_old_checkpoint(ckpt):
    """A save whose payload write raises leaves the checkpoint already at the
    path byte-identical, and no temporary file beside it."""
    path, _ = ckpt
    before = path.read_bytes()
    broken = small_model(1)
    last = list(broken.params)[-1]
    broken.params[last] = np.full(broken.params[last].shape, "x", dtype=object)
    with pytest.raises(ValueError):
        save_checkpoint(path, broken, {"kind": "source"})
    assert path.read_bytes() == before
    assert [p.name for p in path.parent.iterdir()] == [path.name]


def test_bad_magic(ckpt):
    path, _ = ckpt
    rewrite(path, b"NOTACKPT" + path.read_bytes()[8:])


def test_bad_version(ckpt):
    path, _ = ckpt
    raw = path.read_bytes()
    rewrite(path, raw[:8] + struct.pack("<I", 2) + raw[12:])


def test_truncated_payload(ckpt):
    path, _ = ckpt
    rewrite(path, path.read_bytes()[:-4])


def test_trailing_bytes(ckpt):
    path, _ = ckpt
    rewrite(path, path.read_bytes() + b"\0")


def test_missing_file(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "absent.ckpt")


def test_wrong_names(tmp_path):
    model = small_model()
    model.params["roi.fc1.bias"] = model.params.pop("roi.fc1.b")
    save_checkpoint(tmp_path / "m.ckpt", model, {})
    with pytest.raises(CheckpointError, match="names"):
        load_checkpoint(tmp_path / "m.ckpt")


def test_wrong_shape(tmp_path):
    model = small_model()
    model.params["roi.fc1.b"] = np.zeros(7, np.float32)
    save_checkpoint(tmp_path / "m.ckpt", model, {})
    with pytest.raises(CheckpointError, match="roi.fc1.b"):
        load_checkpoint(tmp_path / "m.ckpt")


def rewrite_header(path, edit):
    """Re-encode the JSON header of the checkpoint at path after edit(header)."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", raw, 12)
    header = json.loads(raw[20:20 + hlen])
    header = edit(header)
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:12] + struct.pack("<Q", len(blob)) + blob + raw[20 + hlen:])


def set_key(obj, key, value):
    obj[key] = value
    return obj


def del_key(obj, key):
    del obj[key]
    return obj


@pytest.mark.parametrize("edit", [
    lambda h: set_key(h, "arch", set_key(h["arch"], "bogus", 1)),
    lambda h: set_key(h, "arch", del_key(h["arch"], "channels")),
    lambda h: set_key(h, "arch", set_key(h["arch"], "feature_stride", 3)),
    lambda h: set_key(h, "arch", set_key(h["arch"], "channels", 8)),
    lambda h: del_key(h, "arch"),
    lambda h: del_key(h, "arrays"),
    lambda h: del_key(h, "metadata"),
    lambda h: set_key(h, "arrays", [del_key(e, "name") for e in h["arrays"]]),
    lambda h: set_key(h, "arrays", [del_key(e, "shape") for e in h["arrays"]]),
    lambda h: set_key(h, "arrays", [set_key(e, "shape", 4) for e in h["arrays"]]),
    lambda h: set_key(h, "arrays", h["arrays"] + h["arrays"][-1:]),
    lambda h: [h],
], ids=["extra-arch-key", "missing-arch-key", "bad-stride", "bad-channels",
        "no-arch", "no-arrays", "no-metadata", "no-name", "no-shape",
        "int-shape", "duplicate-name", "not-an-object"])
def test_malformed_header(ckpt, edit):
    path, _ = ckpt
    rewrite_header(path, edit)
    with pytest.raises(CheckpointError, match=re.escape(str(path))):
        load_checkpoint(path)


def test_rewrite_header_identity(ckpt):
    """The header rewriter alone keeps a loadable, bit-exact checkpoint."""
    path, model = ckpt
    rewrite_header(path, lambda h: h)
    loaded, _ = load_checkpoint(path)
    for name, arr in model.params.items():
        assert loaded.params[name].tobytes() == arr.tobytes(), name
