"""The one call counter of the exact budget tests.

Wall-clock is noise on a shared box; the calls a run makes are not.
:func:`count_calls` runs a callable under one ``sys.setprofile`` hook and
returns three counts of it: the Python frames entered under
``src/repro``, the C functions those frames called, and every Python
and C call made anywhere (what cProfile counts).
"""

import os
import sys
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

    @property
    def library(self) -> int:
        """Calls made by the library: its frames and their C calls."""
        return self.frames + self.c_calls


def count_calls(run) -> Calls:
    """The calls made while ``run()`` runs."""
    counts = {"call": 0, "c_call": 0}
    total = [0]

    def profiler(frame, event, _arg):
        if event in counts:
            total[0] += 1
            if frame.f_code.co_filename.startswith(PACKAGE):
                counts[event] += 1

    sys.setprofile(profiler)
    try:
        run()
    finally:
        sys.setprofile(None)
    return Calls(counts["call"], counts["c_call"], total[0])
