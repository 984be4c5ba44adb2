"""A threaded client swarm over a serving session.

:func:`run_client_swarm` hammers one
:class:`~repro.api.serving.ServingSession` with N reader threads issuing
point queries round-robin over the served views while the calling thread
plays the update producer, ingesting a churn stream of update rounds.  It
records what the serving benchmark's correctness checks read:

* the **maximum staleness** any non-degraded read observed, per the SLO
  accounting — admission control guarantees it never exceeds the bound;
* every **distinct (view, version)** relation served, with its as-of
  round — the hook for serial-oracle verification: snapshot contents are
  immutable per version, so checking each distinct version against a
  serial replay of rounds ``1..as_of`` verifies *every* read that was
  served from it, without comparing bags per query.

The driver is deliberately free of policy: admission control, SLOs and
refresh scheduling all live in the session; the swarm only reads and
writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.errors import ServingError, StaleReadError
from repro.serving.sync import Event, Mutex, Thread
from repro.storage.relation import Relation


@dataclass
class SwarmResult:
    """What one swarm run observed."""

    #: Reads that were admitted (served a snapshot, degraded or not).
    queries: int = 0
    #: Ingest rounds the producer pushed.
    ingested_rounds: int = 0
    #: Ingests shed because the write queue was full.
    shed_ingests: int = 0
    #: Worst staleness (in rounds) among *non-degraded* reads.
    max_fresh_staleness_rounds: int = 0
    #: Every distinct (view, version) relation served, with its as-of round.
    served_versions: Dict[Tuple[str, int], Tuple[Relation, int]] = field(
        default_factory=dict
    )
    #: Unexpected reader-thread errors (empty on a healthy run).
    errors: List[str] = field(default_factory=list)


def run_client_swarm(
    session,
    views: Sequence[str],
    batches: Sequence[object],
    *,
    readers: int,
    read_policy: Optional[str] = None,
) -> SwarmResult:
    """Run ``readers`` query threads against ``session`` while ingesting.

    The calling thread ingests ``batches`` (each any shape ``ingest()``
    accepts) and flushes at the end; reader threads query the given views
    round-robin as fast as admission control lets them, until the producer
    is done.
    """
    stop = Event()
    mutex = Mutex()
    result = SwarmResult()

    def reader(offset: int) -> None:
        queries = 0
        fresh_rounds = 0
        versions: Dict[Tuple[str, int], Tuple[Relation, int]] = {}
        position = offset
        while not stop.is_set():
            view = views[position % len(views)]
            position += 1
            try:
                served = session.query(view, read_policy=read_policy)
            except StaleReadError:
                continue
            except Exception as exc:  # surfaced daemon crash etc.
                with mutex:
                    result.errors.append(f"{type(exc).__name__}: {exc}")
                return
            queries += 1
            if not served.degraded:
                fresh_rounds = max(fresh_rounds, served.staleness.rounds)
            versions[(view, served.version)] = (served.relation, served.as_of_round)
        with mutex:
            result.queries += queries
            result.max_fresh_staleness_rounds = max(
                result.max_fresh_staleness_rounds, fresh_rounds
            )
            result.served_versions.update(versions)

    threads = [
        Thread(target=reader, args=(index,), name=f"swarm-reader-{index}", daemon=True)
        for index in range(readers)
    ]
    for thread in threads:
        thread.start()
    try:
        for batch in batches:
            try:
                session.ingest(batch)
                result.ingested_rounds += 1
            except ServingError:
                result.shed_ingests += 1
        session.flush(timeout=120.0)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)
    return result
