"""Crash-tolerant JSONL parsing shared by every record reader.

A JSONL file written record-at-a-time (``solve_many`` sweeps, stream
reports, serve snapshots' write-ahead batches) has exactly one benign
failure shape: a process killed mid-``write`` leaves a *truncated final
line*.  Every intact record before it is good data, and losing a whole
sweep to the tail of a ``kill -9`` is the durability bug this module
exists to fix.

:func:`parse_jsonl_lines` therefore distinguishes the two failure modes:

* a record that fails to parse and is the **last non-empty line** of the
  input is treated as a truncated tail — a :class:`TruncatedJSONLWarning`
  is emitted and every earlier record is returned;
* a record that fails to parse **mid-file** is real corruption (a partial
  line cannot be followed by further records a line-oriented writer
  appended) and raises :class:`JSONLCorruptionError` with the 1-based
  line number, after yielding the intact records before it.

The parser is streaming: records are yielded as they parse, so callers
iterating lazily (e.g. batch replay) keep their bounded-memory behavior.
"""

from __future__ import annotations

import warnings
from typing import Any, Callable, Iterable, Iterator, Optional, TypeVar

T = TypeVar("T")


class TruncatedJSONLWarning(UserWarning):
    """A JSONL file ended in a partial record (killed writer); the intact
    prefix was returned."""


class JSONLCorruptionError(ValueError):
    """A JSONL record failed to parse *mid-file* — not a truncated tail.

    ``line_number`` is 1-based; the original parse error is chained.
    """

    def __init__(self, message: str, line_number: int) -> None:
        super().__init__(message)
        self.line_number = line_number


def parse_jsonl_lines(
    lines: Iterable[str],
    parse: Callable[[str], T],
    *,
    source: Any = "<jsonl>",
) -> Iterator[T]:
    """Yield ``parse(line)`` for every non-empty line, crash-tolerantly.

    ``parse`` receives the stripped line text and may raise anything; see
    the module docstring for how failures at the tail vs mid-file differ.
    ``source`` names the input in warnings/errors (a path, usually).
    """
    pending: Optional[tuple] = None  # (line_number, text, error)
    for line_number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if pending is not None:
            # The failed line has a successor: mid-file corruption, not a
            # truncated tail.  Everything before it was already yielded.
            failed_at, _, error = pending
            raise JSONLCorruptionError(
                f"{source}: corrupt JSONL record at line {failed_at} "
                f"({type(error).__name__}: {error}); "
                f"intact records continue after it, so this is not a "
                f"truncated tail — refusing to guess",
                line_number=failed_at,
            ) from error
        try:
            record = parse(stripped)
        except Exception as error:  # noqa: BLE001 - classified below
            pending = (line_number, stripped, error)
            continue
        yield record
    if pending is not None:
        failed_at, text, error = pending
        warnings.warn(
            f"{source}: ignoring truncated final JSONL record at line "
            f"{failed_at} ({type(error).__name__}: {error}) — the writer "
            f"was likely killed mid-write; {failed_at - 1} earlier "
            f"line(s) were read intact",
            TruncatedJSONLWarning,
            # Blame the caller of the public reader: this generator runs
            # under repro.utils.record.iter_jsonl, under that reader.
            stacklevel=4,
        )
