"""Generation of update (delta) batches.

The paper models an "x% update" to a relation as inserting x% as many tuples
as the relation currently holds and deleting x/2% of the current tuples
(twice as many inserts as deletes, modelling a growing warehouse).  This
module turns that specification into concrete :class:`Delta` batches against
an executable database — fresh, referentially consistent tuples for the
inserts and a deterministic sample of existing tuples for the deletes — so
the maintenance machinery can be exercised and verified end to end.

For streaming sessions (:meth:`repro.api.Warehouse.stream`) the generator
additionally supports *deferred* generation: rounds produced while earlier
rounds are still pending can exclude already-pending deletes (so a tuple is
never deleted twice) and continue primary-key sequences past pending
inserts; :func:`generate_update_stream` produces whole round sequences whose
deletes deliberately overlap earlier rounds' inserts — the workload where
coalescing annihilation pays.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.engine.database import Database
from repro.maintenance.update_spec import UpdateSpec
from repro.storage.delta import Delta, DeltaStore
from repro.storage.bagdiff import multiset_subtract
from repro.storage.relation import Relation, Row
from repro.workloads.datagen import TpcdDataGenerator


def generate_deltas(
    database: Database,
    spec: UpdateSpec,
    relations: Optional[Sequence[str]] = None,
    seed: int = 2024,
    generator: Optional[TpcdDataGenerator] = None,
    exclude_deletes: Optional[Mapping[str, Iterable[Row]]] = None,
    key_offsets: Optional[Mapping[str, int]] = None,
) -> DeltaStore:
    """Build a :class:`DeltaStore` realizing ``spec`` against ``database``.

    Inserted tuples are produced by the TPC-D generator (continuing its key
    sequences, so they do not collide with existing primary keys); deleted
    tuples are sampled uniformly from the current contents.

    ``exclude_deletes`` removes a multiset of rows per relation from the
    delete-sampling pool (a streaming session passes its pending delete
    bags, so deferred rounds never delete the same tuple twice), and
    ``key_offsets`` advances the insert key sequences per relation (past
    pending, not-yet-applied inserts).
    """
    rng = random.Random(seed)
    names = list(relations) if relations is not None else database.table_names()
    generator = generator or TpcdDataGenerator(scale_factor=0.001, seed=seed)
    offsets = dict(key_offsets or {})
    # Continue key sequences past what is already loaded (and pending).
    for name in names:
        generator._counters[name] = len(database.table(name)) + offsets.get(name, 0)

    store = DeltaStore(names)
    for name in names:
        current = database.table(name)
        fractions = spec.for_relation(name)
        insert_count = int(round(len(current) * fractions.insert_fraction))
        delete_count = int(round(len(current) * fractions.delete_fraction))

        inserts = Relation(current.schema, [], name=f"delta_plus_{name}")
        if insert_count > 0:
            inserts.extend(generator.generate_table(name, cardinality=insert_count))

        pool = multiset_subtract(current.rows, (exclude_deletes or {}).get(name, ()))
        delete_count = min(delete_count, len(pool))

        deletes = Relation(current.schema, [], name=f"delta_minus_{name}")
        if delete_count > 0 and pool:
            deletes.extend(rng.sample(pool, delete_count))

        store.set_delta(Delta(name, inserts, deletes))
    return store


def uniform_deltas(
    database: Database,
    update_percentage: float,
    relations: Optional[Sequence[str]] = None,
    seed: int = 2024,
) -> DeltaStore:
    """Deltas for the paper's uniform "x% update" model."""
    names = list(relations) if relations is not None else database.table_names()
    return generate_deltas(database, UpdateSpec.uniform(update_percentage, names), names, seed=seed)


def generate_update_stream(
    database: Database,
    update_percentage: float,
    rounds: int,
    relations: Optional[Sequence[str]] = None,
    overlap: float = 0.5,
    seed: int = 2024,
) -> List[DeltaStore]:
    """A sequence of update rounds with insert/delete overlap between rounds.

    Each round realizes the paper's uniform update model against a lock-step
    simulation of the base tables (so the rounds can be replayed verbatim by
    both an eager and a deferred consumer), except that an ``overlap``
    fraction of every round's deletes is drawn from the *previous round's
    inserts* instead of the original contents — the churn pattern of a
    warehouse ingesting corrections: a tuple arrives, is amended, and the
    first version is deleted again one batch later.  Those insert-then-delete
    pairs are exactly what :func:`repro.storage.delta.coalesce_delta`
    annihilates.
    """
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap must be within [0, 1], got {overlap}")
    rng = random.Random(seed)
    names = list(relations) if relations is not None else database.table_names()
    sim = database.copy()
    generator = TpcdDataGenerator(scale_factor=0.001, seed=seed)
    stream: List[DeltaStore] = []
    previous_inserts: Dict[str, List[Row]] = {}
    # Key sequences advance monotonically past everything ever issued —
    # deletes shrink the simulated tables, so resetting the counters to the
    # current length each round would re-issue earlier rounds' keys.
    issued: Dict[str, int] = {name: len(sim.table(name)) for name in names}

    for round_number in range(rounds):
        store = DeltaStore(names)
        round_inserts: Dict[str, List[Row]] = {}
        for name in names:
            current = sim.table(name)
            generator._counters[name] = issued[name]
            insert_count = int(round(len(current) * update_percentage))
            issued[name] += insert_count
            delete_count = int(round(len(current) * update_percentage / 2.0))

            inserts = Relation(current.schema, [], name=f"delta_plus_{name}")
            if insert_count > 0:
                inserts.extend(generator.generate_table(name, cardinality=insert_count))
            round_inserts[name] = list(inserts.rows)

            # Deletes: `overlap` of them target the previous round's inserts
            # (which the simulation has already applied), the rest sample the
            # remaining contents.
            recent = previous_inserts.get(name, [])
            from_recent = min(len(recent), int(round(delete_count * overlap)))
            chosen: List[Row] = []
            if from_recent > 0:
                chosen.extend(rng.sample(recent, from_recent))
            rest = delete_count - from_recent
            if rest > 0:
                pool = multiset_subtract(current.rows, chosen)
                chosen.extend(rng.sample(pool, min(rest, len(pool))))
            deletes = Relation(current.schema, chosen, name=f"delta_minus_{name}")
            store.set_delta(Delta(name, inserts, deletes))

        stream.append(store)
        for delta in store:
            sim.apply_delta(delta)
        previous_inserts = round_inserts
    return stream
