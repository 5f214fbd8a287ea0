"""Comma-separated text read a block of lines at a time, as columns.

:func:`parse_events <jobgraph.ingest.parse_events>` and
:func:`load_digraph <jobgraph.scoring.load_digraph>` split each block whose
lines are plain with one ``str.split`` and code its ids with
:func:`code_ids`; a block that is not plain goes through their row-by-row
paths, which read it as ``csv.reader`` does.
"""

from __future__ import annotations

from itertools import count, filterfalse, islice
from operator import itemgetter
from typing import Container, Iterator

_last_char = itemgetter(slice(-1, None))


def split_block(
    lines: list[str], widths: Container[int], forbidden: str, ascii_only: bool = False
) -> list[list[str]] | None:
    """The columns of the comma-separated ``lines``; None unless every line
    holds the same number of fields, one of ``widths``, none of the
    characters ``forbidden`` and, under ``ascii_only``, only ASCII.

    Each line but the last must end in its only line break, which may be
    CRLF.
    """
    n = len(lines)
    if set(map(_last_char, islice(lines, n - 1))) - {"\n"}:
        return None
    text = ",".join(lines) + ("" if lines[-1].endswith("\n") else "\n")
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    if text.count("\n") != n or any(map(text.__contains__, forbidden)) or (ascii_only and not text.isascii()):
        return None
    if text[0] == "\n" or "\n,\n" in text:  # a blank line, found before the split
        return None
    # each line break becomes a field of its own, "\n", so that a line of
    # another width moves the breaks off their places
    fields = text.replace("\n", ",\n").split(",")
    del text
    width = len(fields) // n - 1
    if width not in widths or len(fields) != (width + 1) * n or fields[width :: width + 1].count("\n") != n:
        return None
    return [fields[i :: width + 1] for i in range(width)]


def code_ids(vocabulary: dict[str, int], ids: list[str]) -> Iterator[int]:
    """The codes of ``ids`` in ``vocabulary``, where each new id, in order
    of first appearance, gets the next code."""
    vocabulary.update(zip(filterfalse(vocabulary.__contains__, dict.fromkeys(ids)), count(len(vocabulary))))
    return map(vocabulary.__getitem__, ids)
