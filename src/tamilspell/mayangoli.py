"""Confusable-series substitution for the classic ல/ழ/ள family of mistakes.

Tamil has consonant groups that many writers mix up because they sound
alike: ல்-ழ்-ள், ர்-ற், ந்-ன்-ண் and ங்-ஞ்.  For every letter of the input
whose consonant falls in one of those series, the letter's uyir is held
fixed and the consonant is swapped through the rest of its series; the
cartesian product over all matched positions (minus the input itself) is
the candidate set.  Word length is always preserved.  ``suggest`` takes
the lexicon words of that set with one substitution walk, so its work is
bounded by the lexicon's prefixes, not by the size of the product that
``generate_alternates`` enumerates.

A bare mei (no vowel part) is deliberately not substituted: series
confusion is a pronunciation error, and a pulli consonant at a word
boundary is rarely the mistake.
"""

from __future__ import annotations

import itertools
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

from .errors import SeriesTableError
from .letters import VOWEL_SIGNS, Letter, LetterKind, tokenize
from .suggestion import Strategy, Suggestion

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
    its match data and its row: every member of its series joined with
    its uyir.
    """

    series: tuple[tuple[str, ...], ...] = DEFAULT_SERIES
    _letters: dict[str, tuple[str, str, int, tuple[str, ...]]] = field(
        init=False, repr=False, compare=False
    )

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
        letters = {}
        for idx, group in enumerate(self.series):
            for uyir, sign in VOWEL_SIGNS.items():
                # join_mei_uyir, for members already checked to be mei
                row = tuple(mei[:-1] + sign for mei in group)
                for mei, letter in zip(group, row):
                    letters[letter] = (mei, uyir, idx, row)
        object.__setattr__(self, "_letters", letters)


@dataclass(frozen=True)
class SeriesMatch:
    """One substitutable position: which letter matched which series."""

    position: int
    mei: str
    uyir: str
    series_index: int


def load_series_table(source) -> SeriesTable:
    """Read a series table: one series per line, mei letters space-separated.

    Blank lines and ``#`` comments are skipped.  Malformed members and
    duplicates across series raise :class:`SeriesTableError` with the line
    number.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            lines = fh.readlines()
        name = str(source)
    else:
        lines = list(source)
        name = getattr(source, "name", "<stream>")
    groups: list[tuple[str, ...]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        members = tuple(unicodedata.normalize("NFC", m) for m in line.split())
        if len(members) < 2:
            raise SeriesTableError(f"{name}:{lineno}: a series needs at least two members")
        for mei in members:
            if tokenize(mei) != [Letter(mei, LetterKind.MEI)]:
                raise SeriesTableError(f"{name}:{lineno}: not a mei letter: {mei!r}")
        groups.append(members)
    try:
        return SeriesTable(tuple(groups))
    except SeriesTableError as exc:
        raise SeriesTableError(f"{name}: {exc}") from None


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


def suggest(word: str, lexicon, table: SeriesTable | None = None) -> list[Suggestion]:
    """Series-substituted variants that the lexicon recognizes.

    Scored by the number of substituted positions, ranked (score,
    code-point order).
    """
    word = unicodedata.normalize("NFC", word)
    letters = tokenize(word)
    texts = [lt.text for lt in letters]
    alternates: list[list[str]] = [[] for _ in letters]
    matches = find_letter_positions(letters, table)
    for match, row in zip(matches, find_correspondents(letters, matches, table)):
        alternates[match.position] = [alt for alt in row if alt != texts[match.position]]
    found = [
        Suggestion(candidate, Strategy.MAYANGOLI, changed)
        for candidate, changed in lexicon.substitutions(texts, alternates, len(texts))
    ]
    found.sort(key=lambda s: (s.score, s.candidate))
    return found
