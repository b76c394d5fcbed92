"""Confusable-series substitution for the classic ல/ழ/ள family of mistakes.

Tamil has consonant groups that many writers mix up because they sound
alike: ல்-ழ்-ள், ர்-ற், ந்-ன்-ண் and ங்-ஞ்.  For every letter of the input
whose consonant falls in one of those series, the letter's uyir is held
fixed and the consonant is swapped through the rest of its series; the
cartesian product over all matched positions (minus the input itself) is
the candidate set.  Word length is always preserved.  ``suggest`` takes
the input as its letter split, as the checker made it, and takes the
lexicon words of that set with one substitution walk, so its work is
bounded by the lexicon's prefixes, not by the size of the product.  The
series are the constant ``DEFAULT_SERIES``, and each series letter's
alternates are resolved once, at import.

A bare mei (no vowel part) is deliberately not substituted: series
confusion is a pronunciation error, and a pulli consonant at a word
boundary is rarely the mistake.
"""

from __future__ import annotations

from collections.abc import Sequence

from .letters import UYIRMEI, VOWEL_SIGNS

__all__ = [
    "DEFAULT_SERIES",
    "suggest",
]

DEFAULT_SERIES = (
    ("ல்", "ழ்", "ள்"),
    ("ர்", "ற்"),
    ("ந்", "ன்", "ண்"),
    ("ங்", "ஞ்"),
)


# Each series uyirmei -> its alternates: every other member of its series
# joined with its uyir, in series order.
_ALTERNATES = {
    letter: tuple(alt for alt in row if alt != letter)
    for group in DEFAULT_SERIES
    for uyir in VOWEL_SIGNS
    for row in [tuple(UYIRMEI[member][uyir] for member in group)]
    for letter in row
}


def suggest(letters: Sequence[str], lexicon) -> set[str]:
    """Lexicon words that swap series letters at one or more positions.

    ``letters`` is the word's letter split from ``letter_texts``, not
    its text.  Any number of positions may change.
    """
    get = _ALTERNATES.get
    alternates = [get(letter, ()) for letter in letters]
    return lexicon.substitutions(letters, alternates, len(letters))
