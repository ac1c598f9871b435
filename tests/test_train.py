"""Dataset-level evaluation: chunked detection equals per-image detection."""

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
    assert chunks == [8, 8, 4]
    expected = evaluate_ap50(single, [(s.boxes, s.labels) for s in scenes])
    assert got == expected
    assert 0 < got.map < 1
