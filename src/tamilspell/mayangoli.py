"""Confusable-series substitution for the classic ல/ழ/ள family of mistakes.

Tamil has consonant groups that many writers mix up because they sound
alike: ல்-ழ்-ள், ர்-ற், ந்-ன்-ண் and ங்-ஞ்.  For every letter of the input
whose consonant falls in one of those series, the letter's uyir is held
fixed and the consonant is swapped through the rest of its series; the
cartesian product over all matched positions (minus the input itself) is
the candidate set.  Word length is always preserved.  ``suggest`` takes
the input as its letter split, as the checker made it, and takes the
lexicon words of that set with one substitution walk, so its work is
bounded by the lexicon's prefixes, not by the size of the product that
``generate_alternates`` enumerates.  Each series letter's alternates are
resolved once, when the :class:`SeriesTable` is built.

A bare mei (no vowel part) is deliberately not substituted: series
confusion is a pronunciation error, and a pulli consonant at a word
boundary is rarely the mistake.
"""

from __future__ import annotations

import itertools
import unicodedata
from collections.abc import Sequence
from dataclasses import dataclass, field

from .errors import SeriesTableError, _data_lines
from .letters import VOWEL_SIGNS, Letter, LetterKind, tokenize

__all__ = [
    "DEFAULT_SERIES",
    "SeriesMatch",
    "SeriesTable",
    "find_correspondents",
    "find_letter_positions",
    "generate_alternates",
    "load_series_table",
    "suggest",
]

DEFAULT_SERIES = (
    ("ல்", "ழ்", "ள்"),
    ("ர்", "ற்"),
    ("ந்", "ன்", "ண்"),
    ("ங்", "ஞ்"),
)


@dataclass(frozen=True)
class SeriesTable:
    """The confusable groups, each a tuple of mei letters.

    Each uyirmei of a series member is mapped once, at construction, to
    its match data, its row (every member of its series joined with its
    uyir) and its alternates (the row without the letter itself).
    """

    series: tuple[tuple[str, ...], ...] = DEFAULT_SERIES
    _letters: dict[str, tuple[str, str, int, tuple[str, ...]]] = field(
        init=False, repr=False, compare=False
    )
    _alternates: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seen: dict[str, int] = {}
        for idx, group in enumerate(self.series):
            if len(group) < 2:
                raise SeriesTableError(f"series {idx} has fewer than two members")
            for mei in group:
                if tokenize(mei) != [Letter(mei, LetterKind.MEI)]:
                    raise SeriesTableError(f"series member is not a mei letter: {mei!r}")
                if mei in seen:
                    raise SeriesTableError(f"{mei!r} appears in series {seen[mei]} and {idx}")
                seen[mei] = idx
        letters, alternates = {}, {}
        for idx, group in enumerate(self.series):
            for uyir, sign in VOWEL_SIGNS.items():
                # join_mei_uyir, for members already checked to be mei
                row = tuple(mei[:-1] + sign for mei in group)
                for mei, letter in zip(group, row):
                    letters[letter] = (mei, uyir, idx, row)
                    alternates[letter] = tuple(alt for alt in row if alt != letter)
        object.__setattr__(self, "_letters", letters)
        object.__setattr__(self, "_alternates", alternates)


@dataclass(frozen=True)
class SeriesMatch:
    """One substitutable position: which letter matched which series."""

    position: int
    mei: str
    uyir: str
    series_index: int


def load_series_table(source) -> SeriesTable:
    """Read a series table: one series per line, mei letters space-separated.

    Blank lines and ``#`` comments are skipped.  Undecodable bytes,
    malformed members and duplicates across series raise
    :class:`SeriesTableError` with the line number.
    """
    groups: list[tuple[str, ...]] = []
    seen: set[str] = set()
    for name, lineno, line in _data_lines(source, SeriesTableError):
        members = tuple(unicodedata.normalize("NFC", m) for m in line.split())
        if len(members) < 2:
            raise SeriesTableError(f"{name}:{lineno}: a series needs at least two members")
        for mei in members:
            if tokenize(mei) != [Letter(mei, LetterKind.MEI)]:
                raise SeriesTableError(f"{name}:{lineno}: not a mei letter: {mei!r}")
            if mei in seen:
                raise SeriesTableError(f"{name}:{lineno}: {mei!r} is already in a series")
            seen.add(mei)
        groups.append(members)
    return SeriesTable(tuple(groups))


_DEFAULT_TABLE = SeriesTable()


def find_letter_positions(word, table: SeriesTable | None = None) -> list[SeriesMatch]:
    """Positions of ``word`` whose consonant belongs to a confusable series.

    Only uyirmei letters participate; bare mei, uyir, ayudham and
    pass-through tokens are skipped.
    """
    table = table or _DEFAULT_TABLE
    get = table._letters.get
    matches: list[SeriesMatch] = []
    for pos, letter in enumerate(_letters(word)):
        entry = get(letter.text)
        if entry is not None:
            matches.append(SeriesMatch(pos, *entry[:3]))
    return matches


def find_correspondents(word, matches=None, table: SeriesTable | None = None) -> list[list[str]]:
    """Per-match substitute letters, the original's uyir preserved.

    For a match on ரீ the result row is ``["ரீ", "றீ"]``: every series
    member joined with the matched letter's uyir, in series order, the
    original letter included.
    """
    table = table or _DEFAULT_TABLE
    letters = _letters(word)
    if matches is None:
        matches = find_letter_positions(letters, table)
    return [list(table._letters[letters[m.position].text][3]) for m in matches]


def _letters(word) -> list[Letter]:
    if isinstance(word, str):
        return tokenize(unicodedata.normalize("NFC", word))
    return list(word)


def generate_alternates(word: str, table: SeriesTable | None = None) -> list[str]:
    """All series-substituted variants of ``word``, the input excluded.

    With k matched positions of series sizes s1..sk, this yields exactly
    s1*...*sk - 1 words, in cartesian-product order.
    """
    table = table or _DEFAULT_TABLE
    word = unicodedata.normalize("NFC", word)
    letters = tokenize(word)
    matches = find_letter_positions(letters, table)
    if not matches:
        return []
    rows = find_correspondents(letters, matches, table)
    texts = [lt.text for lt in letters]
    alternates: list[str] = []
    for combo in itertools.product(*rows):
        for match, replacement in zip(matches, combo):
            texts[match.position] = replacement
        candidate = "".join(texts)
        if candidate != word:
            alternates.append(candidate)
    return alternates


def suggest(letters: Sequence[str], lexicon, table: SeriesTable | None = None) -> set[str]:
    """Lexicon words that swap series letters at one or more positions.

    ``letters`` is the word's letter split.  Any number of positions may
    change.
    """
    get = (table or _DEFAULT_TABLE)._alternates.get
    alternates = [get(letter, ()) for letter in letters]
    return {
        candidate
        for candidate, _ in lexicon.substitutions(letters, alternates, len(letters))
    }
