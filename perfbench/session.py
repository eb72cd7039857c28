"""Process ownership for one benchmark run: the Ray session and its reaping.

The run makes itself a child subreaper, so every process it starts stays
its descendant even after the intermediate parent (Ray's raylet) exits,
and at exit it waits until none of them is alive.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import time
from pathlib import Path

PR_SET_CHILD_SUBREAPER = 36

# Two logical CPUs, even on a one-core host: with one, build_index's
# tokenize actor pool holds the only CPU and the read tasks never schedule.
RAY_CPUS = 2
OBJECT_STORE_BYTES = 128 * 1024 * 1024
_SOCKET_PATH_MAX = 107
_SESSION_SOCKET_SUFFIX = 64  # "/session_<date>_<time>_<pid>/sockets/plasma_store"


def become_subreaper() -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _children() -> list[int]:
    pids: list[int] = []
    for task in Path("/proc/self/task").iterdir():
        try:
            pids += [int(p) for p in (task / "children").read_text().split()]
        except OSError:
            continue
    return pids


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def wait_for_children(timeout: float = 20.0) -> int:
    """Reap every descendant; signal those still alive after ``timeout``.

    Returns how many had to be signalled."""
    deadline = time.monotonic() + timeout
    signalled = 0
    sig = signal.SIGTERM
    while True:
        _reap()
        alive = _children()
        if not alive:
            return signalled
        if time.monotonic() > deadline:
            for pid in alive:
                try:
                    os.kill(pid, sig)
                    signalled += 1
                except ProcessLookupError:
                    pass
            sig = signal.SIGKILL
            deadline = time.monotonic() + 5.0
        time.sleep(0.05)


class RaySession:
    """A local Ray cluster owned by this run, with its files in ``run_dir``."""

    def __init__(self, root: Path, run_dir: Path):
        self.root = root
        self.run_dir = run_dir
        self.fallback_dir: str | None = None
        self.up = False

    def _temp_dir(self) -> str:
        temp = self.run_dir / "ray"
        if len(str(temp)) + _SESSION_SOCKET_SUFFIX <= _SOCKET_PATH_MAX:
            return str(temp)
        # Ray's unix sockets live under the temp dir; a deep checkout would
        # exceed the socket path limit, so take a short directory instead
        import tempfile

        self.fallback_dir = tempfile.mkdtemp(prefix="pbray-")
        return self.fallback_dir

    def start(self) -> None:
        import ray
        from ray.data import DataContext

        path = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = str(self.root) + (os.pathsep + path if path else "")
        plasma = self.run_dir / "plasma"
        plasma.mkdir(parents=True, exist_ok=True)
        ray.init(
            address="local",
            num_cpus=RAY_CPUS,
            object_store_memory=OBJECT_STORE_BYTES,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            _temp_dir=self._temp_dir(),
            _plasma_directory=str(plasma),
        )
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        self.up = True
        log("ray session up")

    def stop(self) -> None:
        if self.up:
            import ray

            ray.shutdown()
            self.up = False
            log("ray session down")

    def remove_fallback_dir(self) -> None:
        """After the session's processes have exited."""
        if self.fallback_dir is not None:
            import shutil

            shutil.rmtree(self.fallback_dir, ignore_errors=True)
            self.fallback_dir = None


_T0 = time.monotonic()


def log(msg: str) -> None:
    try:
        print(f"[perfbench +{time.monotonic() - _T0:.1f}s] {msg}", file=sys.stderr, flush=True)
    except OSError:  # a closed stderr must not stop the clean-up that logs
        pass
