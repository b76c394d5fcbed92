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
``generate_alternates`` enumerates.  The series are the constant
``DEFAULT_SERIES``, and each series letter's alternates are resolved
once, at import.

A bare mei (no vowel part) is deliberately not substituted: series
confusion is a pronunciation error, and a pulli consonant at a word
boundary is rarely the mistake.
"""

from __future__ import annotations

import itertools
import unicodedata
from collections.abc import Sequence
from dataclasses import dataclass

from .letters import UYIRMEI, VOWEL_SIGNS, letter_texts

__all__ = [
    "DEFAULT_SERIES",
    "SeriesMatch",
    "find_correspondents",
    "find_letter_positions",
    "generate_alternates",
    "suggest",
]

DEFAULT_SERIES = (
    ("ல்", "ழ்", "ள்"),
    ("ர்", "ற்"),
    ("ந்", "ன்", "ண்"),
    ("ங்", "ஞ்"),
)


# Each series uyirmei -> (mei, uyir, series index, row), where the row is
# every member of its series joined with its uyir, in series order.
_MATCHES = {
    letter: (mei, uyir, idx, row)
    for idx, group in enumerate(DEFAULT_SERIES)
    for uyir in VOWEL_SIGNS
    for row in [tuple(UYIRMEI[member][uyir] for member in group)]
    for mei, letter in zip(group, row)
}
# Each series uyirmei -> its alternates: its row without the letter itself.
_ALTERNATES = {
    letter: tuple(alt for alt in row if alt != letter)
    for letter, (_, _, _, row) in _MATCHES.items()
}


@dataclass(frozen=True)
class SeriesMatch:
    """One substitutable position: which letter matched which series."""

    position: int
    mei: str
    uyir: str
    series_index: int


def find_letter_positions(word) -> list[SeriesMatch]:
    """Positions of ``word`` whose consonant belongs to a confusable series.

    Only uyirmei letters participate; bare mei, uyir, ayudham and
    pass-through tokens are skipped.
    """
    get = _MATCHES.get
    matches: list[SeriesMatch] = []
    for pos, letter in enumerate(_letters(word)):
        entry = get(letter)
        if entry is not None:
            matches.append(SeriesMatch(pos, *entry[:3]))
    return matches


def find_correspondents(word, matches=None) -> list[list[str]]:
    """Per-match substitute letters, the original's uyir preserved.

    For a match on ரீ the result row is ``["ரீ", "றீ"]``: every series
    member joined with the matched letter's uyir, in series order, the
    original letter included.
    """
    letters = _letters(word)
    if matches is None:
        matches = find_letter_positions(letters)
    return [list(_MATCHES[letters[m.position]][3]) for m in matches]


def _letters(word) -> tuple[str, ...]:
    # Text (normalized here), ``Letter`` objects or letter texts.
    if isinstance(word, str):
        word = unicodedata.normalize("NFC", word)
    return letter_texts(word)


def generate_alternates(word: str) -> list[str]:
    """All series-substituted variants of ``word``, the input excluded.

    With k matched positions of series sizes s1..sk, this yields exactly
    s1*...*sk - 1 words, in cartesian-product order.
    """
    word = unicodedata.normalize("NFC", word)
    letters = letter_texts(word)
    matches = find_letter_positions(letters)
    if not matches:
        return []
    rows = find_correspondents(letters, matches)
    texts = list(letters)
    alternates: list[str] = []
    for combo in itertools.product(*rows):
        for match, replacement in zip(matches, combo):
            texts[match.position] = replacement
        candidate = "".join(texts)
        if candidate != word:
            alternates.append(candidate)
    return alternates


def suggest(letters: Sequence[str], lexicon) -> set[str]:
    """Lexicon words that swap series letters at one or more positions.

    ``letters`` is the word's letter split, not its text.  Any number of
    positions may change.
    """
    if isinstance(letters, str):
        raise TypeError("letters must be the word's letter split, not its text")
    get = _ALTERNATES.get
    alternates = [get(letter, ()) for letter in letters]
    return {
        candidate
        for candidate, _ in lexicon.substitutions(letters, alternates, len(letters))
    }
