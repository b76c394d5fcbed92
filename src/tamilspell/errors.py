"""Exception types raised by the data-file loaders, the one reader for
each input format, and the checks the strategies' arguments pass."""

from __future__ import annotations

import os
from collections.abc import Iterator
from contextlib import nullcontext


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


def _data_text(source, error: type[TamilSpellError]) -> tuple[str, str]:
    """``(name, text)``: the name of ``source`` and its whole text, read at once.

    Every input is read here: each data file, and each document the
    command line checks.  ``source`` is a path (a ``str`` or any
    ``os.PathLike``), or a text or binary stream named by its ``name``
    attribute.  Bytes are decoded as UTF-8 in one pass.  Undecodable bytes
    raise ``error`` as ``name:lineno: undecodable bytes: <codec message>``
    for the first line that holds some.  The message is the one decoding
    that line alone, line ending included, would give, so its positions
    count from the line's start: a line feed is never part of a UTF-8
    sequence, so the decoder starts each line clean and fails on it as on
    the line alone.  One byte order mark (U+FEFF) at the start of the text
    is dropped, whether it came as bytes or as text.
    """
    with open(source, "rb") if isinstance(source, (str, os.PathLike)) else nullcontext(source) as stream:
        name = getattr(stream, "name", "<stream>")
        text = stream.read()
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            data, bad = exc.object, exc.start
            start = data.rfind(b"\n", 0, bad) + 1
            line = data[start : data.find(b"\n", bad) + 1 or len(data)]
            lineno = data.count(b"\n", 0, start) + 1
            message = UnicodeDecodeError(exc.encoding, line, bad - start, exc.end - start, exc.reason)
            raise error(f"{name}:{lineno}: undecodable bytes: {message}") from exc
    return name, text.removeprefix("\ufeff")


def _listed_words(sources, error: type[TamilSpellError]) -> list[str]:
    """The stripped lines of ``sources`` that are neither blank nor comments, in order.

    This reads word lists and stop lists, one word per line.
    """
    words: list[str] = []
    for source in sources:
        lines = _data_text(source, error)[1].split("\n")
        words += [word for word in map(str.strip, lines) if word and word[0] != "#"]
    return words


def _data_fields(
    source, error: type[TamilSpellError], form: str
) -> Iterator[tuple[str, int, str, str]]:
    """``(name, lineno, left, right)`` for each ``left<TAB>right`` line of ``source``.

    The text comes from :func:`_data_text`, so a bad byte anywhere in the
    source is reported before any line is given.  Lines are split at
    ``\\n``, and blank lines and ``#`` comments are skipped.  Each other
    line is split at its first tab, and the fields come back unstripped; a
    line with no tab raises ``error`` as ``name:lineno: expected '<form>'``.
    """
    name, text = _data_text(source, error)
    for lineno, line in enumerate(text.split("\n"), start=1):
        content = line.strip()
        if content and not content.startswith("#"):
            left, tab, right = line.partition("\t")
            if not tab:
                raise error(f"{name}:{lineno}: expected '{form}'")
            yield name, lineno, left, right
