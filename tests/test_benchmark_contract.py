"""The benchmark's self-test on a copy of the checkout.

perfbench is the only caller of some library forms (the one-item
``run_example``, ``MarkableTagger.nll``/``decode`` and ``run_game``,
``ModelAgent``'s ``keep_states`` default, ``annotate_transcript`` without a
``dialogue_id``) and of every layertrace boundary, each of which a workload
must reach; its self-test fails when one of them goes.  The copy keeps the
tiny runs' results out of the checkout's ``.bench_out/``."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes(tmp_path):
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = dict(os.environ, PYTHONPATH=str(tmp_path / "src"))
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selftest: all workloads ok" in proc.stdout
