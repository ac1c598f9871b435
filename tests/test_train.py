"""Dataset-level evaluation: chunked detection equals per-image detection,
and one evaluation's traced memory stays bounded."""

import tracemalloc

import numpy as np

from sfodlab import detector as D
from sfodlab import train
from sfodlab.boxes import evaluate_ap50
from sfodlab.data import Scene


def test_evaluate_model_chunking_is_invisible(rng, monkeypatch):
    arch = D.ArchDescriptor(input_size=32, channels=(4, 8), feature_stride=4,
                            anchor_scales=(8.0, 16.0), anchor_aspects=(1.0,),
                            rpn_channels=8, roi_pool_size=3, roi_hidden=16)
    model = D.init_model(arch, 3)
    images = [rng.random((32, 32, 3)).astype(np.float32) for _ in range(20)]
    single = [D.forward_inference_batch(model, [im])[0] for im in images]
    # ground truth on some of the model's own detections, so AP is not 0
    scenes = []
    for i, (im, det) in enumerate(zip(images, single)):
        keep = slice(0, 2) if i % 2 == 0 else slice(0, 0)
        boxes = np.concatenate([det.boxes[keep], np.array([[2, 2, 14, 14]])])
        labels = np.concatenate([det.labels[keep], [i % arch.num_classes]])
        scenes.append(Scene(im, boxes.astype(np.float32), labels.astype(np.int64)))

    chunks = []

    def recording(model, images):
        chunks.append(len(images))
        return D.forward_inference_batch(model, images)

    monkeypatch.setattr(train, "forward_inference_batch", recording)
    got = train.evaluate_model(model, scenes)
    assert chunks == [4, 4, 4, 4, 4]
    expected = evaluate_ap50(single, [(s.boxes, s.labels) for s in scenes])
    assert got == expected
    assert 0 < got.map < 1


def test_evaluate_model_traced_peak_bound():
    """One evaluation of 16 96-px scenes with the default detector: 4-image
    chunks, the in-place BN and ReLU and a backbone that unbinds each
    block's activations before the next conv keep the traced transient at
    about 5.5 MiB. It peaks in block 0's conv; with the activations still
    bound it peaked in block 1's at 6.1 MiB, an out-of-place BN or ReLU
    adds about 1.1 MiB each, and 8-image chunks with both took 16.6 MiB."""
    rng = np.random.default_rng(0)
    model = D.init_model(D.ArchDescriptor(), 0)
    scenes = [Scene(rng.random((96, 96, 3)).astype(np.float32),
                    np.array([[10, 12, 50, 60]], np.float32), np.array([i % 3]))
              for i in range(16)]
    train.evaluate_model(model, scenes[:4])  # first-call allocations are not the bound
    tracemalloc.start()
    try:
        train.evaluate_model(model, scenes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.75 * 2 ** 20, f"{peak / 2 ** 20:.1f} MiB"
