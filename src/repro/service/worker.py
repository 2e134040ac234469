"""Fleet-backend worker: pull cells over a pipe, push results back.

``python -m repro.service.worker`` is the process the
:class:`~repro.service.backends.SubprocessFleetBackend` spawns N times.
The protocol over stdin/stdout is deliberately dumb — length-prefixed
pickle frames, one request in, one response out:

* worker → parent, once: :data:`READY`, after the worker has imported
  its runner — so the parent can hold a worker back until start-up is
  over and no cell's timeout pays for it;
* parent → worker: a pickled :class:`~repro.core.jobs.CampaignCell`;
* worker → parent: ``("ok", CellResult)`` or ``("error", CellError)``.

Frames are ``8-byte big-endian length + payload``.  EOF on stdin is the
shutdown signal; the worker drains nothing and exits 0.  A worker that
dies mid-cell simply stops answering — the parent sees EOF on *its* read
and surfaces the loss as a failed cell, then respawns the worker.

``--runner pkg.mod:function`` overrides the per-cell execution function
(default :func:`repro.core.jobs.run_cell`) — the same injectable seam
the campaign fault-injection suite uses, here for crashing/hanging a
real subprocess deterministically in tests.

Workers inherit the parent's environment, so ``REPRO_TRACE_STORE`` and
``REPRO_CACHE_DIR`` behave exactly as they do for pool workers: every
worker memory-maps traces from the shared store instead of regenerating
them.
"""

from __future__ import annotations

import argparse
import importlib
import pickle
import struct
import sys

from ..core.jobs import CellError, run_cell

__all__ = ["READY", "read_frame", "write_frame", "resolve_runner", "main"]

_HEADER = struct.Struct(">Q")

#: The worker's first frame: its runner is resolved and it takes cells.
READY = b"ready"

#: Refuse frames over this size (a corrupt length prefix must not OOM us).
MAX_FRAME_BYTES = 256 * 1024 * 1024


def read_frame(stream) -> bytes | None:
    """Read one length-prefixed frame; None on clean EOF at a boundary."""
    header = stream.read(_HEADER.size)
    if not header:
        return None
    if len(header) < _HEADER.size:
        raise EOFError("truncated frame header")
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {length} bytes exceeds the protocol limit")
    payload = b""
    while len(payload) < length:
        chunk = stream.read(length - len(payload))
        if not chunk:
            raise EOFError("truncated frame payload")
        payload += chunk
    return payload


def write_frame(stream, payload: bytes) -> None:
    """Write one length-prefixed frame and flush it."""
    stream.write(_HEADER.pack(len(payload)))
    stream.write(payload)
    stream.flush()


def resolve_runner(spec: str):
    """Resolve a ``pkg.mod:function`` runner path to the callable."""
    module_name, _, attribute = spec.partition(":")
    if not module_name or not attribute:
        raise ValueError(f"runner must look like 'pkg.mod:function', got {spec!r}")
    module = importlib.import_module(module_name)
    runner = getattr(module, attribute)
    if not callable(runner):
        raise TypeError(f"{spec} is not callable")
    return runner


def serve(stdin, stdout, runner) -> None:
    """The worker loop: announce :data:`READY`, then one cell in, one
    result out, until EOF."""
    write_frame(stdout, READY)
    while True:
        frame = read_frame(stdin)
        if frame is None:
            return
        cell = pickle.loads(frame)
        try:
            reply = ("ok", runner(cell))
        except Exception as exc:
            reply = ("error", CellError.from_exception(exc))
        write_frame(stdout, pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro.service.worker")
    parser.add_argument(
        "--runner",
        default="repro.core.jobs:run_cell",
        help="dotted per-cell execution function (test seam)",
    )
    args = parser.parse_args(argv)
    runner = run_cell if args.runner == "repro.core.jobs:run_cell" else (
        resolve_runner(args.runner)
    )
    serve(sys.stdin.buffer, sys.stdout.buffer, runner)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
