"""Exception types raised by the data-file loaders, the line reader they
share, and the checks the strategies' arguments pass."""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import nullcontext
from pathlib import Path


class TamilSpellError(Exception):
    """Base class for loader and configuration errors."""


class WordListError(TamilSpellError):
    """A word list file could not be read or decoded."""


class MatrixFormatError(TamilSpellError):
    """A confusion matrix file is malformed."""


def _check_distance(name: str, value) -> None:
    """Raise unless ``value`` is an int of at least 1.

    A bool is an int subclass, but ``True`` is no distance, so it is
    rejected with every other non-int.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, not {type(value).__name__}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1")


def _check_letters(letters) -> None:
    """Raise unless ``letters`` holds letter texts, as ``letter_texts`` gives them.

    Only the first item is tested, so the check costs the same for any
    length: text or ``Letter`` objects would otherwise find no word.
    """
    if isinstance(letters, str) or (letters and not isinstance(letters[0], str)):
        raise TypeError("letters must be the word's letter_texts, not its text or Letter objects")


def _data_lines(source, error: type[TamilSpellError]) -> Iterator[tuple[str, int, str]]:
    """``(name, lineno, line)`` for each line of ``source`` with content.

    ``source`` is a path, or a text or binary stream named by its ``name``
    attribute.  Lines are read one at a time and come back as read, line
    ending included, so that a tab at either end still separates fields;
    blank lines and ``#`` comments are skipped.  Bytes are decoded as UTF-8
    line by line, and undecodable ones raise ``error`` as ``name:lineno:
    undecodable bytes: <codec message>``.  One byte order mark (U+FEFF) at
    the start of line 1 is dropped, whether it came as bytes or as text.
    """
    with open(source, "rb") if isinstance(source, (str, Path)) else nullcontext(source) as stream:
        name = getattr(stream, "name", "<stream>")
        for lineno, line in enumerate(stream, start=1):
            if isinstance(line, bytes):
                try:
                    line = line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise error(f"{name}:{lineno}: undecodable bytes: {exc}") from exc
            if lineno == 1:
                line = line.removeprefix("\ufeff")
            content = line.strip()
            if content and not content.startswith("#"):
                yield name, lineno, line
