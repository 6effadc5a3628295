"""Counting the lines a function runs, as a measure of its work that does
not depend on the speed of the host."""

import sys


def _nested(code):
    """code and the code objects nested in it, such as comprehensions."""
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_consts"):
            yield from _nested(const)


def lines_run(func, *args, also=()):
    """func(*args) and the number of lines run in the frames of func and of
    the functions in also, counting the comprehensions, generator
    expressions and lambdas nested in them."""
    codes = {code for f in (func, *also) for code in _nested(f.__code__)}
    lines = 0

    def trace(frame, event, arg):
        nonlocal lines
        if frame.f_code not in codes:
            return None
        if event == "line":
            lines += 1
        return trace

    before = sys.gettrace()
    sys.settrace(trace)
    try:
        value = func(*args)
    finally:
        sys.settrace(before)
    return value, lines
