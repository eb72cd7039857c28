"""Builds finish in a one-CPU Ray session.

The tokenize actor pool must never hold the CPU that the read, extract and
write tasks feeding it need; a pool holding the only CPU waits forever for
input.  The build runs in a child process with its own one-CPU Ray
session, under a timeout, so a hang fails the test instead of the suite.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from vexor_ray.index.build import tokenize_pool

_REPO = str(Path(__file__).resolve().parents[1])

_SCRIPT = """
import sys

import ray

from vexor_ray.fixtures.pages import write_pages
from vexor_ray.index.build import BuildConfig, build_index
from vexor_ray.index.positions import (
    PositionsConfig, PositionsIndex, build_positions_index,
)
from vexor_ray.query.searcher import Searcher

root = sys.argv[1]
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
ray.data.DataContext.get_current().enable_progress_bars = False
pages = write_pages(f"{root}/pages", 200, seed=42, rows_per_file=100)
man = build_index(pages, f"{root}/idx", BuildConfig(num_waves=1, partitions_per_wave=2))
assert man["stats"]["doc_count"] == 200, man["stats"]
assert len(Searcher(f"{root}/idx").search("needledften", 20)) > 0
build_positions_index(pages, f"{root}/pos", PositionsConfig(partitions_per_wave=2))
assert PositionsIndex(f"{root}/pos").phrase_occurrences("body html").num_rows == 200
ray.shutdown()
print("BUILT")
"""

TIMEOUT_S = 180


def test_tokenize_pool_sizing():
    # sessions with a CPU to spare keep whole-CPU actors (2 CPUs: 1 actor)
    assert tokenize_pool(4, 2.0) == {"concurrency": 1}
    assert tokenize_pool(4, 8.0) == {"concurrency": 4}
    # one CPU: the actor takes none of the CPU its input tasks need
    assert tokenize_pool(4, 1.0) == {"concurrency": 1, "num_cpus": 0.0}
    assert tokenize_pool(4, 1.5) == {"concurrency": 1, "num_cpus": 0.5}


def test_build_and_positions_in_one_cpu_session(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_REPO, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", _SCRIPT, str(tmp_path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"build made no progress in {TIMEOUT_S} s in a 1-CPU session")
    assert proc.returncode == 0 and "BUILT" in out, out[-3000:]
