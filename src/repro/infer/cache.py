"""Per-design feature cache keyed by a digest of the model's weights.

The serving pattern is *repeated queries against a fixed model*: the
expensive part of a prediction — the GNN sweep over the whole design
graph and the CNN over every path image — produces the same
``(u, u_n, u_d)`` triple on every call until a parameter changes.
:class:`FeatureCache` memoises that triple per design, keyed by
:func:`weight_digest`, a stable hash over **every** parameter tensor of
the model.  Any weight update — an optimizer step, ``load_state_dict``,
an ablation preset writing ``.data`` directly — changes the digest, so
stale features can never be served; no explicit invalidation hook is
needed (or trusted).

The digest walks *all* tensor attributes, not just trainable ones:
ablations freeze parameters by flipping ``requires_grad`` off, and a
later ``.data`` write to a frozen tensor must still invalidate.
Digesting the full parameter set costs one pass over ~10^5 floats
(tens of microseconds) — noise next to the graph sweep it saves.

Both :class:`FeatureCache` and :class:`BoundedLRU` are thread-safe:
the resident server (`repro.serve`) hits them from every handler
thread, where unguarded dict writes and bare ``hits += 1`` counters
are lost-update races.  Every public method takes the instance lock.
The feature cache holds one entry per design; :class:`BoundedLRU`
evicts least-recently-used entries, so a long-lived process serving
an open-ended stream of design sets cannot grow without limit.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Iterator, Optional, Tuple

import numpy as np

from ..nn import Module, Tensor

__all__ = ["BoundedLRU", "FeatureCache", "design_key", "named_tensors",
           "weight_digest"]

#: Cached value: ``(u, u_n, u_d)`` numpy arrays over a design's full
#: endpoint set, detached from any autograd graph.
FeatureTriple = Tuple[np.ndarray, np.ndarray, np.ndarray]


def named_tensors(module: Module, prefix: str = ""
                  ) -> Iterator[Tuple[str, Tensor]]:
    """Yield every tensor attribute of the module tree, frozen or not.

    Like :meth:`Module.named_parameters` but without the
    ``requires_grad`` filter, so frozen (ablation-pinned) tensors are
    still part of the digest and of saved checkpoints.
    """
    for name, value in vars(module).items():
        full = f"{prefix}{name}"
        if isinstance(value, Tensor):
            yield full, value
        elif isinstance(value, Module):
            yield from named_tensors(value, prefix=f"{full}.")
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                if isinstance(item, Module):
                    yield from named_tensors(item, prefix=f"{full}.{i}.")
                elif isinstance(item, Tensor):
                    yield f"{full}.{i}", item


def weight_digest(model: Module) -> str:
    """Stable hex digest of every tensor in the module tree.

    Covers names, shapes and raw float64 bytes, so any in-place or
    wholesale parameter change produces a different digest.
    """
    h = hashlib.blake2b(digest_size=16)
    for name, tensor in named_tensors(model):
        h.update(name.encode("utf-8"))
        data = np.ascontiguousarray(tensor.data)
        h.update(str(data.shape).encode("ascii"))
        h.update(data.tobytes())
    return h.hexdigest()


def design_key(design) -> Tuple[str, str, str]:
    """``(name, node, content digest)``: what every per-design cache
    keys on.

    ``(name, node)`` alone is ambiguous: the same benchmark built
    against differently-scaled libraries is a different design, so the
    key includes a digest of the actual model inputs.
    """
    return (design.name, design.node, design.content_digest())


class BoundedLRU:
    """Thread-safe mapping with least-recently-used eviction.

    The inference engine memoises its weight-independent per-design-set
    structures (fused batch graphs with their im2col columns) in an
    instance of this: in a resident server every distinct request mix
    would otherwise pin a full union-graph batch forever.  ``get``
    refreshes recency; ``put`` evicts the coldest entries past
    ``max_entries`` (None = unbounded) and counts them in
    ``evictions``.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None)")
        self.max_entries = max_entries
        self.evictions = 0
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Optional[Any]:
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self._data.move_to_end(key)
            return value

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while self.max_entries is not None and \
                    len(self._data) > self.max_entries:
                self._data.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"entries": len(self._data),
                    "evictions": self.evictions,
                    "max_entries": self.max_entries}


class FeatureCache:
    """Per-design ``(u, u_n, u_d)`` store, one entry per design.

    An entry is valid only for the digest it was stored under; a lookup
    with a different digest misses (and the subsequent store replaces
    the stale entry, so memory stays bounded at one triple per design).

    Thread-safe: lookup/store and the hit/miss counters are guarded by
    one lock, so concurrent server threads never lose counter updates
    or observe a half-written entry.
    """

    def __init__(self) -> None:
        self._store: Dict[Tuple[str, str, str],
                          Tuple[str, FeatureTriple]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def lookup(self, design, digest: str) -> Optional[FeatureTriple]:
        """The cached triple for ``design`` under ``digest``, or None."""
        key = design_key(design)
        with self._lock:
            entry = self._store.get(key)
            if entry is not None and entry[0] == digest:
                self.hits += 1
                return entry[1]
            self.misses += 1
            return None

    def store(self, design, digest: str,
              features: FeatureTriple) -> None:
        """Insert (or replace) the design's triple under ``digest``."""
        key = design_key(design)
        with self._lock:
            self._store[key] = (digest, features)

    def clear(self) -> None:
        with self._lock:
            self._store.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "entries": len(self._store)}
