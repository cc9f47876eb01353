from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _demo_env(**extra) -> dict[str, str]:
    src = str(ROOT / "src")
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=pythonpath, **extra)


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    done = subprocess.run(
        [sys.executable, str(demo)], env=_demo_env(), capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_into_a_closed_pipe_exits_1_without_a_traceback(demo, unbuffered):
    # The reader is gone before the first write, as when `| head -c0` exits
    # first; unbuffered, the first print fails, buffered (PYTHONUNBUFFERED
    # empty counts as unset), the closing flush.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, str(demo)],
            env=_demo_env(PYTHONUNBUFFERED=unbuffered),
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in done.stderr, done.stderr
    assert "Exception ignored" not in done.stderr, done.stderr
    assert done.returncode == 1, done.stderr


def test_round_by_round_demo_prints_its_pinned_rounds():
    # The demo prints every round's pool, rebuilt on read from the lists and
    # the coloring, and each deletion count; pinned from an engine that kept
    # each round's pool.
    demo = ROOT / "demos" / "galvin_round_by_round.py"
    done = subprocess.run(
        [sys.executable, str(demo)], env=_demo_env(), capture_output=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (ROOT / "tests" / "data" / "galvin_round_by_round.txt").read_bytes()
