"""``%.10g`` CSV text of a float table, from array operations.

Python formats one float at a time, about 0.3 us each, which made writing
the 5000 x 161 ``scan.csv`` of a 1000 s ``parity-sim`` most of its run.
Its cells are mostly amplitudes between 0.001 and 1, which ``%.10g``
writes as ``0.`` and up to two zeros, then ten significant digits with
the trailing zeros dropped.  Those cells are formatted a block at a time:

* two comparisons (below 0.1, below 0.01) pick the exponent of each
  magnitude, and the magnitude, scaled by that exponent's exact power of
  ten to ten integer digits, is rounded to an integer in float
  arithmetic.  The product is within half an ulp of the exact one and
  every half-integer below 2**34 is a float, so that rounding is the
  correctly rounded one unless the product is itself a half-integer.  A
  rounded product between 1e9 and 1e10 has ten digits, so the exponent
  was the cell's own;
* each cell is 16 bytes, two words built from lookup tables: the
  separator before it, its sign, ``0.`` and the leading zeros, then its
  digits in groups of 2, 4 and 4.  A group followed only by zero groups
  is looked up with its own trailing zeros blanked.  Blank (zero) bytes
  are dropped from the text.

Every other cell (zero, non-finite, another exponent, a half-integer
product or one rounding to eleven digits) is written as ``%.10g`` and
the block's bytes are %-formatted with their values, so they are byte
for byte ``b"%.10g,...,%.10g\\n" % tuple(row)`` for each row.  The
first column comes as its own array, so a table need not be copied to
join it.  The work arrays are allocated once per table and reused for
every block: fresh arrays map fresh memory pages, and those page faults
alone took as long as the formatting.
"""

from __future__ import annotations

import numpy as np

# Rows of a float table formatted and written at a time.  The work
# arrays take about 125 bytes a cell (0.65 MB for 32 rows of the 162-column
# scan), and each block makes three bytes objects of about 16 bytes a
# cell.  At 64 rows those were 146-166 KB each, which glibc maps and
# returns to the system, so every block faulted them in again: a cold
# 1000 s 3P parity-sim took 12.5k minor page faults, and 6.1k at 32 rows,
# where they are reused from the heap.  Warm and in-process, 32 rows
# format the 5000-row scan about 6 % slower than 64.
_CSV_ROWS = 32

_EXPONENTS = (-1, -2, -3)  # of the cells formatted here
# the bytes after the separator of a cell that Python formats: "%.10g"
_HOLE = int.from_bytes(b"%.10g", "little")


def _group_words(width: int, shift: int) -> np.ndarray:
    """ASCII of every ``width``-digit group as a word shifted left by
    ``shift`` bytes: first the plain text, then the text with its trailing
    zeros blanked."""
    group = np.arange(10**width, dtype=np.uint64)
    plain = np.zeros_like(group)
    stripped = np.zeros_like(group)
    trailing = np.ones(group.shape, dtype=bool)  # digits so far all zero
    for place in range(width - 1, -1, -1):  # last digit first
        digit = group // np.uint64(10**(width - 1 - place)) % np.uint64(10)
        char = (digit + np.uint64(ord("0"))) << np.uint64(8 * (shift + place))
        trailing &= digit == 0
        plain |= char
        stripped |= np.where(trailing, np.uint64(0), char)
    return np.concatenate([plain, stripped])


_FIRST = _group_words(2, 6)  # bytes 6-7 of the first word
_SECOND = _group_words(4, 0)  # bytes 0-3 of the second word
_THIRD = _group_words(4, 4)[10**4:]  # bytes 4-7, always stripped
# bytes 2-5 of the first word: "0." and the leading zeros, right-aligned
_PREFIX = np.array([
    int.from_bytes(("0." + "0" * (-exp - 1)).rjust(4, "\0").encode(), "little")
    << 16
    for exp in _EXPONENTS
], dtype=np.uint64)
_SCALE = np.array([10.0 ** (9 - exp) for exp in _EXPONENTS])
_MINUS = np.uint64(ord("-") << 8)


class _Formatter:
    """The work arrays of ``rows`` rows of ``width`` cells, and the
    formatting of a block of at most that many rows into them."""

    def __init__(self, width: int, rows: int):
        self.width = width
        self.rows = rows
        size = rows * width
        self.floats = [np.empty(size) for _ in range(5)]
        self.indices = [np.empty(size, dtype=np.intp) for _ in range(4)]
        self.masks = [np.empty(size, dtype=bool) for _ in range(4)]
        self.word, self.lookup = (np.empty(size, dtype=np.uint64)
                                  for _ in range(2))
        # a word pair per cell, then one for the newline that ends a block
        self.words = np.zeros((size + 1, 2), dtype=np.uint64)
        self.separator = np.full(size, ord(","), dtype=np.uint64)
        self.separator[::width] = ord("\n")
        self.separator[0] = 0
        self.hole = self.separator | np.uint64(_HOLE << 8)

    def format(self, column: np.ndarray, table: np.ndarray) -> bytes:
        """``b"%.10g,%.10g,...,%.10g\\n" % (c, *row)`` of each (c, row) of
        a column and a table of at most ``rows`` rows, joined."""
        values, magnitude, scaled, number, part = self.floats
        slot, first, second, third = self.indices
        fast, slow, test, zero = self.masks
        word, lookup, words = self.word, self.lookup, self.words
        separator, hole = self.separator, self.hole
        size = len(values)
        n_cells = len(table) * self.width
        cells = values[:n_cells].reshape(len(table), self.width)
        cells[:, 0] = column
        cells[:, 1:] = table
        values[n_cells:] = 0.5  # a filler formatted here, never written

        np.abs(values, out=magnitude)
        # the exponent's slot: 0 from 0.1 up (and nan), 1 below, 2 below 0.01
        slot[:] = np.less(magnitude, 0.1, out=test)
        slot += np.less(magnitude, 0.01, out=test)
        # the product overflows to inf for the largest magnitudes, and an
        # infinite one minus its rounding is nan.  Every np.take index here
        # is in range, and mode="clip" writes straight to ``out``, which
        # the default mode="raise" buffers.
        with np.errstate(over="ignore", invalid="ignore"):
            np.take(_SCALE, slot, out=part, mode="clip")
            np.multiply(magnitude, part, out=scaled)
            np.rint(scaled, out=number)
            np.greater(number, 1e9, out=fast)
            fast &= np.less(number, 1e10, out=test)
            np.abs(np.subtract(scaled, number, out=part), out=part)
            fast &= np.less(part, 0.5, out=test)
        np.logical_not(fast, out=slow)
        np.copyto(number, 1e9, where=slow)

        # digits in groups of 2, 4 and 4 (float division and flooring are
        # exact here); a group followed only by zero groups is looked up
        # stripped
        first[:] = np.floor(np.divide(number, 1e8, out=part), out=part)
        number -= np.multiply(part, 1e8, out=part)
        second[:] = np.floor(np.divide(number, 1e4, out=part), out=part)
        number -= np.multiply(part, 1e4, out=part)
        third[:] = number
        np.equal(third, 0, out=zero)
        np.add(second, 10**4, out=second, where=zero)
        zero &= np.equal(second, 10**4, out=test)
        np.add(first, 100, out=first, where=zero)

        np.take(_FIRST, first, out=word, mode="clip")
        word |= np.take(_PREFIX, slot, out=lookup, mode="clip")
        word |= separator
        # the sign byte of each negative cell, as 0 or 1 times _MINUS
        word |= np.multiply(np.less(values, 0, out=test), _MINUS, out=lookup)
        np.copyto(word, hole, where=slow)
        words[:size, 0] = word
        np.take(_SECOND, second, out=word, mode="clip")
        word |= np.take(_THIRD, third, out=lookup, mode="clip")
        np.copyto(word, 0, where=slow)
        words[:size, 1] = word
        words[n_cells] = (ord("\n"), 0)

        text = words[:n_cells + 1].tobytes().translate(None, b"\0")
        python = values[:n_cells][slow[:n_cells]]
        if len(python):
            text %= tuple(python.tolist())
        return text


def format_blocks(header: list[str], blocks):
    """Yield the CSV bytes of a table given as ``(column, table)`` blocks:
    the ``header`` line, then at most ``_CSV_ROWS`` rows at a time.

    Each block is a 1-d float ``column`` and a 2-d float ``table`` with one
    row per entry of the column; every table has the same width.  The
    bytes of a row are ``b"%.10g,%.10g,...,%.10g\\n" % (c, *row)``.  The
    work arrays are sized to the first block, up to ``_CSV_ROWS`` rows,
    and made again only for a later block that is taller.
    """
    yield (",".join(header) + "\n").encode()
    formatter = None
    for column, table in blocks:
        for start in range(0, len(table), _CSV_ROWS):
            part = table[start:start + _CSV_ROWS]
            if formatter is None or formatter.rows < len(part):
                formatter = _Formatter(part.shape[1] + 1, len(part))
            yield formatter.format(column[start:start + _CSV_ROWS], part)
