"""Work counters for complexity guards: what a call does, counted rather than timed."""

from __future__ import annotations

import sys
from types import ModuleType
from typing import Any, Callable


def line_events(module: ModuleType, fn: Callable[..., Any], *args: Any) -> int:
    """The Python ``line`` events that ``fn(*args)`` runs in ``module``'s source file.

    Frames of other files are not traced line by line.  A count does not move
    with the machine's load, so its ratio at two input sizes is a stable
    guard on how a call's cost grows.
    """
    path, count = module.__file__, 0

    def trace(frame, event, arg):
        nonlocal count
        if frame.f_code.co_filename != path:
            return None
        if event == "line":
            count += 1
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count
