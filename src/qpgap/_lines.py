"""Source lines of the keys of a JSON text, for config error messages.

Only error paths read these, so the config loader imports this module
when it reports an error, and a valid config never compiles it.
"""

from __future__ import annotations

import json


def _read_keys(text: str, record) -> None:
    """Call ``record(path, line)`` for every key and list element of the
    JSON ``text``, in reading order.

    A path is a tuple of keys and list indices.  A key's line is the one
    its name is on, an element's the one it starts on.  ``text`` that is
    not JSON is read up to the fault.
    """
    scan = json.JSONDecoder().scan_once
    mark = [0, 1]  # a position and its line; the positions read only grow

    def line(pos: int) -> int:
        mark[1] += text.count("\n", mark[0], pos)
        mark[0] = pos
        return mark[1]

    def skip(pos: int) -> int:
        return json.decoder.WHITESPACE.match(text, pos).end()

    def value(pos: int, path: tuple) -> int:
        """Read the value at ``pos``; return the position past it."""
        pos = skip(pos)
        close = {"{": "}", "[": "]"}.get(text[pos])
        if close is None:
            return scan(text, pos)[1]
        pos = skip(pos + 1)
        index = 0
        while text[pos] != close:
            if close == "}":
                key, pos = json.decoder.scanstring(text, pos + 1)
                record(path + (key,), line(pos))
                pos = value(skip(pos) + 1, path + (key,))
            else:
                record(path + (index,), line(pos))
                pos = value(pos, path + (index,))
            index += 1
            pos = skip(pos)
            if text[pos] == ",":
                pos = skip(pos + 1)
        return pos + 1

    try:
        value(0, ())
    except (IndexError, ValueError, StopIteration, RecursionError):
        pass


def source_lines(text: str) -> dict:
    """The line of every key and list element of the JSON ``text``.

    Keys are found by their path, so a key that many objects repeat gets
    the line of its own object.
    """
    lines = {}
    _read_keys(text, lines.__setitem__)
    return lines


def repeated_key(text: str) -> tuple[tuple, int] | None:
    """The path and line of the first key, in reading order, that repeats
    a key of its own object, or None when no key does."""
    seen, repeats = set(), []

    def record(path: tuple, line: int) -> None:
        if path in seen:
            repeats.append((path, line))
        seen.add(path)

    _read_keys(text, record)
    return repeats[0] if repeats else None
