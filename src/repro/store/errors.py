"""The store client's error taxonomy and retry defaults, without the HTTP stack.

:mod:`repro.store.client` raises these and re-exports them.  They live apart
so that a drain loop can name them (and take the client's defaults) without
importing :mod:`http.client`: a local ``repro.run()`` never talks HTTP.
"""

from __future__ import annotations

from typing import Optional

#: Per-attempt socket deadline (seconds) unless the caller overrides it.
DEFAULT_TIMEOUT_SECONDS = 30.0

#: Retries after the first attempt (6 retries -> 7 attempts total).
DEFAULT_MAX_RETRIES = 6

#: Base backoff (seconds); doubles per retry up to :data:`BACKOFF_CAP_SECONDS`.
DEFAULT_BACKOFF_SECONDS = 0.25

BACKOFF_CAP_SECONDS = 8.0


class StoreClientError(Exception):
    """Base of the client's error taxonomy."""


class FatalRequestError(StoreClientError):
    """A non-retryable failure: the request itself is wrong (4xx, protocol
    violations).  Retrying an identical request cannot succeed, so the
    client fails fast instead of burning its budget."""

    def __init__(self, message: str, status: Optional[int] = None):
        super().__init__(message)
        self.status = status


class RetryableTransportError(StoreClientError):
    """A transient failure: connection refused/reset, a timeout, a 5xx, a
    draining server's 503, or a response torn mid-flight.  The client
    retries these (mutations re-send the same idempotency key); the
    instance that escapes to the caller carries the attempt count."""

    def __init__(self, message: str, status: Optional[int] = None,
                 attempts: int = 1):
        super().__init__(message)
        self.status = status
        self.attempts = attempts
