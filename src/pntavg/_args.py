"""The one check for integer arguments: orders, sizes and indices."""

import numpy as np

MAX_ORDER = 8  # the highest order of average; averaging and zeros both check it


def check_int(name: str, v, lo: int, hi: int | None = None) -> None:
    """Raise ValueError naming the argument unless v is an int or numpy
    integer, not a bool, with lo <= v and, when hi is given, v <= hi."""
    is_int = isinstance(v, (int, np.integer)) and not isinstance(v, bool)
    if not (is_int and lo <= v and (hi is None or v <= hi)):
        rng = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be {rng}, got {v}")
