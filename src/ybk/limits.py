"""Global cap on word/table enumeration sizes.

Exhaustive checks materialize tables indexed by N**n words.  The cap keeps
those tables at desk scale; the YBK_LIMIT environment variable overrides it.
"""

import os

from .errors import Overflow

DEFAULT_LIMIT = 2 ** 20
ENV_VAR = "YBK_LIMIT"


def encoding_limit() -> int:
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return DEFAULT_LIMIT
    try:
        value = int(raw)
    except ValueError as exc:
        raise Overflow(f"{ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise Overflow(f"{ENV_VAR} must be positive, got {value}")
    return value


def check_count(count: int, what: str, exponent: int = 1, limit: int | None = None) -> int:
    """Raise Overflow when an enumeration of count ** exponent items exceeds the cap.

    Returns the cap.  A call with several checks reads the cap at its first
    and passes the returned value as `limit` to the rest, so YBK_LIMIT is
    read once per call and never kept past it.

    The power is raised only when its exponent could fit: any count of 2 or
    more to an exponent at least the cap's bit length is over the cap.  A
    count too long to read in the message is named as count^exponent.
    """
    if limit is None:
        limit = encoding_limit()
    total = None
    if count < 2 or exponent < limit.bit_length():
        total = count ** exponent
        if total <= limit:
            return limit
    shown = total if total is not None and total.bit_length() <= 64 else f"{count}^{exponent}"
    raise Overflow(
        f"{what} needs {shown} entries, above the limit {limit}"
        f" (override with {ENV_VAR})"
    )
