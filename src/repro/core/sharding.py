"""Consistent shard assignment for the sharded execution engine.

Both detection methods keep **independent per-key state** — the delay
detector per link, the forwarding detector per (router, destination) —
so the state space can be partitioned freely as long as every key
always lands on the same shard:

* delay state is sharded by the link (the ordered IP pair);
* forwarding state is sharded by the **router IP alone**, so all of a
  router's models stay together and router-level statistics (the paper's
  "170k router IPs") merge by simple addition across shards.

Assignments use a keyed BLAKE2b hash, not Python's built-in ``hash``:
they must be stable across processes (``PYTHONHASHSEED`` randomises
string hashing per interpreter), across runs, and across machines, so a
checkpointed campaign can resume with the same layout.
"""

from __future__ import annotations

import hashlib

#: Domain-separation prefix so unrelated hash uses can never collide.
_HASH_PERSON = b"repro-shard"


def stable_hash64(text: str) -> int:
    """A 64-bit hash of *text* that is stable across processes and runs.

    >>> stable_hash64("10.0.0.1") == stable_hash64("10.0.0.1")
    True
    """
    digest = hashlib.blake2b(
        text.encode("utf-8", "surrogatepass"),
        digest_size=8,
        person=_HASH_PERSON,
    ).digest()
    return int.from_bytes(digest, "big")


def shard_of(key, n_shards: int) -> int:
    """Consistent shard index in ``[0, n_shards)`` for *key*.

    *key* may be a string (a router IP) or a tuple of strings (a link);
    tuples are joined with ``|`` before hashing so ``("a", "b")`` and
    ``("a|b",)`` cannot collide with plain string keys in practice.

    >>> shard_of(("10.0.0.1", "10.0.0.2"), 1)
    0
    >>> 0 <= shard_of("192.0.2.7", 8) < 8
    True
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1: {n_shards}")
    if n_shards == 1:
        return 0
    if isinstance(key, tuple):
        text = "|".join(str(part) for part in key)
    else:
        text = str(key)
    return stable_hash64(text) % n_shards
