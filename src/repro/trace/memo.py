"""The process-wide trace memo: recent traces, bounded by the bytes they hold.

Campaign cells name their traces by spec, and every cell over one trace in
one process should share one :class:`~repro.trace.stream.Trace` — and with
it the compiled views, list conversions and kernel artifacts already
derived from it.  :data:`TRACE_MEMO` keeps the most recently used traces
for that.  Both :func:`repro.workloads.catalog.generate` and
:meth:`repro.core.jobs.TraceSpec.build` resolve through it.

The bound is bytes, not a count: a count that ignores size lets a
long-lived worker pin dozens of paper-length traces with all their views.
A trace's bytes are charged where they are created — its own arrays
(mapped or not) when it is built, then each compiled view, list conversion
and ``CompiledTrace.memo`` artifact — so a lookup stays O(1).  When the
total passes :data:`MEMO_BUDGET_BYTES`, the least recently used traces
leave, but never the most recently used one: a trace larger than the
whole budget is still kept while it is the one in use.  The studies in
:mod:`repro.analysis` emit their cells trace-major, so the bound costs
them no rebuilds.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .stream import Trace

__all__ = ["MEMO_BUDGET_BYTES", "TraceMemo", "TRACE_MEMO"]

#: Bytes the process-wide memo holds at most, unless its most recent trace
#: alone holds more: about nine paper-length traces, each with its
#: line-size-16 view and stack profile (~7 MB together).
MEMO_BUDGET_BYTES = 64 << 20


class TraceMemo:
    """An LRU map from trace identity to trace, bounded by held bytes.

    Args:
        budget: the byte bound (:data:`MEMO_BUDGET_BYTES` for the
            process-wide memo).

    Cells may run on threads (the service's inline backend), so the
    bookkeeping is locked; a build runs outside the lock, and when two
    threads build one key at once the first to finish is kept.
    """

    def __init__(self, budget: int = MEMO_BUDGET_BYTES) -> None:
        self.budget = budget
        self._entries: OrderedDict[Hashable, Trace] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    def get(self, key: Hashable, build: Callable[[], Trace]) -> Trace:
        """The trace held under ``key``, or ``build()`` held from now on."""
        with self._lock:
            trace = self._entries.get(key)
            if trace is not None:
                self._entries.move_to_end(key)
                return trace
        trace = build()
        with self._lock:
            held = self._entries.get(key)
            if held is not None:
                self._entries.move_to_end(key)
                return held
            account = trace._account
            account.memo = self
            self._entries[key] = trace
            self._bytes += account.nbytes
            self._evict()
        return trace

    def charge(self, account, nbytes: int) -> None:
        """Add ``nbytes`` (negative: release) to a trace's account.

        Called through the account whenever the trace gains or drops a
        view, conversion or artifact.
        """
        with self._lock:
            account.nbytes += nbytes
            if account.memo is self:
                self._bytes += nbytes
                self._evict()

    def _evict(self) -> None:
        entries = self._entries
        while self._bytes > self.budget and len(entries) > 1:
            _key, trace = entries.popitem(last=False)
            account = trace._account
            account.memo = None
            self._bytes -= account.nbytes

    def clear(self) -> None:
        """Drop every trace (their derived state goes with them)."""
        with self._lock:
            for trace in self._entries.values():
                trace._account.memo = None
            self._entries.clear()
            self._bytes = 0

    @property
    def nbytes(self) -> int:
        """Bytes charged to the traces held now."""
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries


#: The one memo of this process.
TRACE_MEMO = TraceMemo()
