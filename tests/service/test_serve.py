"""``repro serve`` as a process: a SIGTERM shuts its worker pool down."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.jobs import CampaignCell, StackSweepJob, TraceSpec
from repro.service import ServiceClient

SRC = Path(__file__).resolve().parents[2] / "src"


def children(pid):
    """Pids of a process's children, from every thread's ``children`` list."""
    found = set()
    for path in Path(f"/proc/{pid}/task").glob("*/children"):
        found.update(int(child) for child in path.read_text().split())
    return found


def alive(pid):
    """Whether ``pid`` runs (a zombie has exited; it only awaits reaping)."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state != "Z"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc")
def test_sigterm_stops_the_pool_workers():
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--workers", "1", "--port", "0"],
        env=env, stderr=subprocess.PIPE, text=True,
    )
    workers = set()
    try:
        banner = server.stderr.readline()
        assert "listening on" in banner, banner
        url = banner.split("listening on ", 1)[1].split()[0]
        cell = CampaignCell(
            "tiny", TraceSpec.catalog("ZGREP", 2_000), StackSweepJob(sizes=(512,))
        )
        final = ServiceClient(url, timeout=60).run([cell])
        assert final["status"] == "done"
        workers = children(server.pid)
        assert workers, "the pool worker should be running"

        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=30) == 0
        assert "campaign service stopped" in server.stderr.read()
        deadline = time.monotonic() + 10
        while any(alive(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not [pid for pid in workers if alive(pid)]
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        server.stderr.close()
        for pid in workers:  # never leave an orphaned worker behind
            if alive(pid):
                os.kill(pid, signal.SIGKILL)
