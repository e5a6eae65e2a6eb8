"""Generation-keyed LRU response cache for the serving layer.

The HTTP API's hot queries — the same operator polling the same AS —
must not recompute magnitude series or re-serialise JSON on every
request.  :class:`ResponseCache` memoises fully rendered responses
keyed by ``(route, canonical params, store generation)``:

* the **store generation** is part of the key, so a writer appending a
  segment invalidates every cached answer implicitly — the next request
  observes the new generation, misses, and recomputes.  Lookups only
  ever use the current token, so the superseded entries are
  unreachable: :meth:`ResponseCache.retain` drops them when the server
  observes the new token instead of letting them age out of the LRU;
* entries carry a strong **ETag** derived from the body, so a client
  replaying it via ``If-None-Match`` gets ``304 Not Modified`` with no
  body bytes;
* the cache is a plain bounded LRU guarded by a lock — correct under
  the server's executor threads.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Default number of distinct (route, params, generation) entries kept.
DEFAULT_CACHE_SIZE = 256

#: A cache key: route path, canonicalised query items, and the store's
#: epoch-qualified generation token (``StoreQuery.cache_token`` — a
#: bare generation int would collide across store recreations).
CacheKey = Tuple[str, Tuple[Tuple[str, str], ...], object]


def make_etag(body: bytes, generation) -> str:
    """Strong ETag for a response body at a store generation/token."""
    digest = hashlib.blake2b(body, digest_size=8).hexdigest()
    return f'"g{generation}-{digest}"'


@dataclass(frozen=True)
class CachedResponse:
    """One fully rendered response: status, body bytes and ETag.

    ``retry_after`` (seconds), when set, is emitted as a ``Retry-After``
    header — 503 answers carry it so clients built on a backoff policy
    (e.g. the connector layer's ``RetryPolicy``) wait the advertised
    interval instead of hot-looping on an unavailable store.
    """

    status: int
    body: bytes
    etag: str
    content_type: str = "application/json"
    retry_after: Optional[int] = None


class ResponseCache:
    """Bounded thread-safe LRU over :class:`CachedResponse` entries."""

    def __init__(self, max_entries: int = DEFAULT_CACHE_SIZE) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1: {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[CacheKey, CachedResponse]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: CacheKey) -> Optional[CachedResponse]:
        """The cached response for *key* (marks it most recently used)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: CacheKey, response: CachedResponse) -> None:
        """Insert *response*, evicting the least recently used entry."""
        with self._lock:
            self._entries[key] = response
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def retain(self, token: object) -> None:
        """Drop (and count as evicted) every entry of another token."""
        with self._lock:
            stale = [key for key in self._entries if key[2] != token]
            for key in stale:
                del self._entries[key]
            self.evictions += len(stale)

    def clear(self) -> None:
        """Drop every entry (the generation key makes this optional)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> Dict[str, int]:
        """Hit/miss/eviction counters plus the current size."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
