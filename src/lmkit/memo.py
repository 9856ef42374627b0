"""The one store policy of lmkit's memo tables.  A hit is an inline dict
read at the call site; a miss stores through remember, which bounds every
table by dropping its oldest entry first (dicts keep insertion order)."""

MEMO_CAP = 1024


def remember(table: dict, key, value) -> None:
    """table[key] = value, evicting the oldest entry first when full."""
    if len(table) >= MEMO_CAP:
        table.pop(next(iter(table)), None)
    table[key] = value
