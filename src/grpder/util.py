"""Small shared utilities."""

from __future__ import annotations

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
