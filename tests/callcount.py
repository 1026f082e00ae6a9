"""The one call counter of the exact budget tests.

Wall-clock is noise on a shared box; the calls a run makes are not.
:func:`count_calls` runs a callable under one ``sys.setprofile`` hook and
returns three counts of it: the Python frames entered under
``src/repro``, the C functions those frames called, and every Python
and C call made anywhere (what cProfile counts). With ``tally=True`` it
also counts every call per function, so that a budget that fails can
name the functions that grew (:func:`grown`) without a rerun.
"""

import os
import sys
from collections import Counter
from typing import NamedTuple

import repro

#: Code under this directory is the library's.
PACKAGE = os.path.dirname(repro.__file__) + os.sep


class Calls(NamedTuple):
    #: Python frames entered under ``src/repro``.
    frames: int
    #: C functions called from such frames.
    c_calls: int
    #: Every Python and C call, wherever it was made.
    total: int
    #: Every call per function — keyed by the code object of a Python
    #: frame, by the qualified name of a C function — or ``None`` unless
    #: asked for.
    by_function: "Counter | None" = None

    @property
    def library(self) -> int:
        """Calls made by the library: its frames and their C calls."""
        return self.frames + self.c_calls


def _name(key) -> str:
    """``file:line name`` of a Python function, ``<name>`` of a C one."""
    if isinstance(key, str):
        return f"<{key}>"
    return (f"{os.path.basename(key.co_filename)}:{key.co_firstlineno} "
            f"{key.co_qualname}")


def count_calls(run, tally: bool = False) -> Calls:
    """The calls made while ``run()`` runs; per function too with
    ``tally``."""
    counts = {"call": 0, "c_call": 0}
    total = [0]
    by_function = Counter() if tally else None

    def profiler(frame, event, arg):
        if event in counts:
            total[0] += 1
            if frame.f_code.co_filename.startswith(PACKAGE):
                counts[event] += 1
            if by_function is not None:
                by_function[frame.f_code if event == "call"
                            else getattr(arg, "__qualname__", "?")] += 1

    sys.setprofile(profiler)
    try:
        run()
    finally:
        sys.setprofile(None)
    return Calls(counts["call"], counts["c_call"], total[0], by_function)


def grown(busy: Calls, idle: "Calls | None" = None, top: int = 5) -> str:
    """The ``top`` functions with the most calls in ``busy`` beyond
    ``idle`` (both counted with ``tally``), one ``count name`` per line —
    what a budget's failure message prints."""
    counts = Counter(busy.by_function)
    if idle is not None:
        counts.subtract(idle.by_function)
    return "\n".join(f"{count:>9} {_name(key)}"
                     for key, count in counts.most_common(top))
