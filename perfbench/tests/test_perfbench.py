"""Tests of the benchmark harness and its tracer.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import hashlib
import json
import shutil
import sys
from time import perf_counter

import pytest

from perfbench import harness
from perfbench.tracer import Tracer

ROOT = harness.HERE.parent


def _tree_digest(path):
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def prepared(work_root):
    """Each workload's splits generated once, with the workload seed 3."""
    dirs = {}
    for name, workload in harness.WORKLOADS.items():
        work = work_root / name
        work.mkdir()
        _, errors = harness.setup(workload, 3, work)
        assert errors == []
        dirs[name] = work
    return dirs


@pytest.fixture(scope="module")
def traced_runs(prepared):
    return {name: harness.run_command(harness.WORKLOADS[name], work, traced=True)
            for name, work in prepared.items()}


def _bindings():
    return {(name, attr): value
            for name, mod in sys.modules.items() if name.startswith("sfodlab")
            for attr, value in vars(mod).items() if callable(value)}


def test_traced_run_restores_every_patched_attribute(prepared):
    from sfodlab import cli, detector

    before = _bindings()
    original = detector.conv2d_forward_cols
    work = prepared["adapt_adabn"]
    argv = harness.WORKLOADS["adapt_adabn"].argv(work)
    with Tracer() as tracer:
        assert detector.conv2d_forward_cols is not original
        assert cli.main(argv) == 0
    assert tracer.spans["ops.conv2d_forward_cols"][1] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_self_times_sum_to_at_most_traced_wall(prepared):
    from sfodlab import cli

    argv = harness.WORKLOADS["source_train"].argv(prepared["source_train"])
    (prepared["source_train"] / "out").mkdir(exist_ok=True)
    t0 = perf_counter()
    with Tracer() as tracer:
        assert cli.main(argv) == 0
    wall = perf_counter() - t0
    total = sum(self_s for self_s, _ in tracer.spans.values())
    assert 0 < total <= wall


def test_same_seed_gives_byte_identical_splits(work_root):
    workload = harness.WORKLOADS["adapt_adabn"]
    digests = []
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        work = work_root / f"splits-{label}"
        work.mkdir()
        harness.setup(workload, seed, work)
        digests.append(_tree_digest(work / "data"))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_failing_command_counts_as_failed_operation(work_root):
    workload = harness.WORKLOADS["adapt_adabn"]
    work = work_root / "missing-split"
    work.mkdir()
    harness.setup(workload, 3, work)
    shutil.rmtree(work / "data" / "target_train")
    tally = harness.Tally()
    run = harness.run_command(workload, work)
    tally.add_command(workload, run)
    assert run.rc == 3 and not run.ok
    assert any("missing split" in e for e in run.errors)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.success_rate == 0.0


def test_fixture_mismatch_is_a_failed_setup(work_root, monkeypatch):
    workload = harness.WORKLOADS["adapt_sf_ut"]
    record = json.loads((harness.FIXTURE_DIR / "fixture.json").read_text())
    assert harness.fixture_errors() == []
    fake = work_root / "fixture"
    fake.mkdir()
    (fake / "fixture.json").write_text(json.dumps({**record, "sha256": "0" * 64}))
    (fake / record["file"]).write_bytes(b"not a checkpoint")
    monkeypatch.setattr(harness, "FIXTURE_DIR", fake)
    work = work_root / "bad-fixture"
    work.mkdir()
    _, errors = harness.setup(workload, 3, work)
    tally = harness.Tally()
    tally.add_setup(errors)
    assert errors and tally.failed == 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == [tuple(m) for m in harness.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(m) for m in harness.PER_LAYER]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] \
        == [(w.name, w.why) for w in harness.WORKLOADS.values()]


def test_traced_runs_report_every_per_layer_metric(traced_runs):
    for name, run in traced_runs.items():
        assert run.ok, (name, run.errors)
        values = harness.layer_metrics([run], [run])
        assert set(values) == {m for m, _, _ in harness.PER_LAYER}


def test_call_counts_separate_the_workloads(traced_runs):
    layers = {name: run.layers for name, run in traced_runs.items()}
    assert layers["source_train"]["ops.maxpool2_forward.calls"] == 0
    assert layers["source_train"]["ops.conv2d_backward.calls"] > 0
    assert layers["adapt_adabn"]["ops.conv2d_backward.calls"] == 0
    assert layers["adapt_adabn"]["batchnorm.collect_target_statistics.calls"] == 1
    assert layers["adapt_sf_ut"]["adapt.ema_update.calls"] == harness.SF_UT_STEPS
    assert layers["adapt_adabn"]["train.evaluate_model.unique_ratio"] == pytest.approx(1 / 3)


def test_golden_mismatch_fails_the_output_check(prepared):
    workload = harness.WORKLOADS["source_train"]
    run = harness.run_command(workload, prepared["source_train"],
                              golden={"loss_csv_sha256": "0" * 64})
    assert run.rc == 0 and not run.ok
    assert any("loss_csv_sha256 differs" in e for e in run.errors)


def test_golden_seed_outputs_match_golden_json(prepared, work_root):
    env = harness.environment()
    for name, workload in harness.WORKLOADS.items():
        golden = harness.load_golden(workload, harness.GOLDEN_SEED, env)
        if golden is None:
            pytest.skip("numeric environment differs from golden.json")
        work = work_root / f"golden-{name}"
        work.mkdir()
        harness.setup(workload, harness.GOLDEN_SEED, work)
        run = harness.run_command(workload, work, golden)
        assert run.ok, (name, run.errors)
