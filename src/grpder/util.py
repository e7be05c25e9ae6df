"""Small shared utilities."""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextvars import ContextVar

from .errors import Cancelled

# Default seed for every randomized search and cross-check in the package.
DEFAULT_SEED = 271828

# Tokens of the enclosing ``with token:`` blocks, innermost last. Every
# thread starts with its own empty context, so a scope never leaves its thread.
_scopes: ContextVar[tuple["CancelToken", ...]] = ContextVar("grpder_cancel_scopes", default=())


class CancelToken:
    """Cooperative cancellation flag polled by long-running solvers.

    Work runs under ``with token:``; a caller may set the token from another
    thread, and the work raises :class:`Cancelled` at its next checkpoint.
    Scopes nest, and every enclosing token is honoured. One token may be
    entered from several threads at once; each scope reaches only the
    solvers its own thread runs.
    """

    __slots__ = ("_cancelled",)

    def __init__(self) -> None:
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def check(self) -> None:
        if self._cancelled:
            raise Cancelled("operation cancelled")

    def __enter__(self) -> "CancelToken":
        _scopes.set(_scopes.get() + (self,))
        return self

    def __exit__(self, *exc_info) -> None:
        # Blocks nest, so this scope is the innermost one of its context.
        _scopes.set(_scopes.get()[:-1])


def check_cancel() -> None:
    """Raise :class:`Cancelled` if a token of an enclosing scope is set."""
    for token in _scopes.get():
        token.check()


# Bounds of every content-keyed cache in the package: the number of entries,
# and the table and matrix cells summed over the entries, each group's table
# counted once. An entry larger than the cell bound is not stored.
_CACHE_MAX_ENTRIES = 64
_CACHE_MAX_CELLS = 1 << 16

_caches: list["_LruCache"] = []


class _LruCache:
    """Thread-safe map evicting its least recently used entries to stay within the bounds.

    Callers store a value only once it is computed, so an error or a
    cancellation leaves nothing behind.
    """

    __slots__ = ("_entries", "_tables", "_cells", "_lock")

    def __init__(self) -> None:
        self._entries: OrderedDict = OrderedDict()  # key -> (value, cells, group or None)
        self._tables: dict[int, int] = {}  # id of a group held -> number of entries naming it
        self._cells = 0
        self._lock = threading.Lock()
        _caches.append(self)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def cells(self) -> int:
        return self._cells

    @staticmethod
    def fits(cells: int) -> bool:
        return cells <= _CACHE_MAX_CELLS

    def get(self, key):
        """The value stored under ``key``, now the most recently used, or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key, value, cells: int, group=None) -> None:
        """Store ``value`` under ``key``, counting ``cells`` and the table of ``group``.

        ``group`` is a group object the entry holds. Its ``order**2`` table
        cells are counted once while any entry of this cache names that
        object, and released with the last of them. An entry whose cells
        and table together exceed the cell bound is not stored.
        """
        table = 0 if group is None else group.order**2
        if not self.fits(cells + table):
            return
        with self._lock:
            if key in self._entries:
                self._drop(key)
            self._entries[key] = (value, cells, group)
            self._cells += cells
            if group is not None:
                held = self._tables.get(id(group), 0)
                self._tables[id(group)] = held + 1
                if not held:
                    self._cells += table
            while len(self._entries) > _CACHE_MAX_ENTRIES or self._cells > _CACHE_MAX_CELLS:
                self._drop(next(iter(self._entries)))

    def _drop(self, key) -> None:
        _value, cells, group = self._entries.pop(key)
        self._cells -= cells
        if group is not None:
            held = self._tables.pop(id(group)) - 1
            if held:
                self._tables[id(group)] = held
            else:
                self._cells -= group.order**2

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._tables.clear()
            self._cells = 0


def _clear_caches() -> None:
    """Empty every cache, so that the next call does its work from scratch."""
    for cache in _caches:
        cache.clear()
