"""Thread-synchronization primitives for the serving layer (and the façade).

This module is the *only* place in the repository that imports
:mod:`threading` — the REPRO-L009 invariant
(see ``tools/lint_invariants.py``).  Everything that needs a lock, an event
or a worker thread takes it from here, the same way every consumer of numpy
goes through the :mod:`repro.storage.columns` re-export: concurrency stays
auditable in one spot, and layers that must remain deterministic and
single-threaded cannot quietly grow threads.

The names are straight re-exports, not wrappers: a
:class:`~threading.Lock` is already the right primitive, it just is not
allowed to be *imported* anywhere else.
"""

from __future__ import annotations

import threading

#: Mutual exclusion (``with Mutex(): ...``).
Mutex = threading.Lock
#: Reentrant mutual exclusion, for lock-holding methods calling each other.
ReentrantMutex = threading.RLock
#: Condition variable over a mutex (publish/subscribe on state changes).
Condition = threading.Condition
#: One-shot / resettable flag with blocking wait.
Event = threading.Event
#: A worker thread (the refresh daemon).
Thread = threading.Thread


def current_thread_name() -> str:
    """Name of the calling thread (crash reports name the daemon thread)."""
    return threading.current_thread().name


__all__ = [
    "Mutex",
    "ReentrantMutex",
    "Condition",
    "Event",
    "Thread",
    "current_thread_name",
]
