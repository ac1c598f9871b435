import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness  # noqa: E402

harness.pin_environment()


@pytest.fixture(scope="session")
def work_root():
    """Scratch space inside the checkout, removed afterwards."""
    root = ROOT / ".bench_work" / "tests"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    yield root
    shutil.rmtree(root, ignore_errors=True)
