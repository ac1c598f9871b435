"""Source-free object detection adaptation laboratory.

A desk-scale two-stage anchor detector with batch-normalization layers,
a synthetic shape-detection benchmark with parametric domain shift, and
the full spectrum of source-free self-training adaptation strategies
(AdaBN, mean-teacher EMA variants, fixed pseudo-label training, weak/strong
augmentation, mosaic), plus a reproducible experiment harness.
"""
