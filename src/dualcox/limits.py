"""Default enumeration caps and the construction limit.

The command line's enumerating verbs resolve their effective cap from the
``--cap`` flag, the ``DUALCOX_CAP`` environment variable, and these
defaults, in that order.  The other verbs take no cap: verification suites
are fixed sweeps, and the rest enumerate nothing.  Library calls take
explicit cap arguments with these as defaults.  The element cap also bounds
the size of the absolute interval [1, w] for ``reds --count``, the
exhaustive indecomposability check and the orbit search behind ``orbits``
and ``cycledec --all-orbits``, however much of it is cached; ``orbits
--dot`` lists every word and keeps the word cap.

Construction is limited by the number N of positive roots, because every
group stores the images of the 2N signed roots under each of its N
reflections.  Up to 2N = 256 an entry is one byte; above that, A62 among
them, it is a tuple entry of 8 bytes: about 61 MB at A62.

A rank or an index is read from at most ``MAX_DIGITS`` digits after its
leading zeros; ``int`` refuses text past 4300 digits.  ``info`` refuses a
total rank above ``MAX_INFO_RANK`` before it computes the order; the
largest order it prints, of B1000 or D1000, has 2869 digits.
"""

import os

DEFAULT_RED_CAP = 10**6
DEFAULT_ENUM_CAP = 10**5
MAX_ROOTS = 2000
MAX_DIGITS = 100
MAX_INFO_RANK = 1000
QUOTED_CHARS = 20

ENV_VAR = "DUALCOX_CAP"


def requested_cap(flag):
    """The cap given by the ``--cap`` text ``flag``, else by the environment,
    else None.  ValueError unless it is a positive integer, quoting at most
    QUOTED_CHARS characters of a text that is no integer."""
    name, text = ("--cap", flag) if flag is not None else (ENV_VAR, os.environ.get(ENV_VAR))
    if text is None:
        return None
    try:
        value = int(text)
    except ValueError:
        cut = f"... ({len(text)} characters)" if len(text) > QUOTED_CHARS else ""
        raise ValueError(f"{name} must be an integer, got {text[:QUOTED_CHARS]!r}{cut}") from None
    if value <= 0:
        raise ValueError(f"{name} must be positive")
    return value


def read_int(digits: str, error, position: int) -> int:
    """int(digits), or ``error`` raised at ``position`` when the number has
    more than MAX_DIGITS digits after its leading zeros."""
    significant = digits.lstrip("0") or "0"
    if len(significant) > MAX_DIGITS:
        raise error(f"number of {len(digits)} digits is too long; at most "
                    f"{MAX_DIGITS} are read after leading zeros", position=position)
    return int(significant)
