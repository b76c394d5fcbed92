"""Edit-distance candidates over Tamil letter sequences.

All operations work on whole letters, never raw code points: deleting the
second letter of கடல் gives கல், and replacing the sign of கா gives கி in
one edit.  ``suggest`` is the contract: every lexicon word within
letter-level Damerau-Levenshtein distance ``nedits`` is a candidate.  It
takes the input as its letter split, as the checker made it, and takes
the candidates from the lexicon by walking it, never by generating
strings.  It maps each candidate to its distance and neither labels nor
ranks them: the checker does that, for the candidates it keeps.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import _check_distance
from .letters import letter_texts

__all__ = [
    "letter_edit_distance",
    "suggest",
]


def suggest(letters: Sequence[str], lexicon, nedits: int = 2) -> dict[str, int]:
    """Every lexicon word within ``nedits`` letter edits, the input excluded.

    ``letters`` is the word's letter split from ``letter_texts``, not
    its text.  Each word maps to its letter-level edit distance, in no
    particular order.
    ``lexicon`` is a :class:`tamilspell.lexicon.Lexicon`.
    """
    _check_distance("nedits", nedits)
    return lexicon.within_distance(letters, nedits)


def letter_edit_distance(a, b) -> int:
    """Unrestricted Damerau-Levenshtein distance between letter sequences.

    Insert, delete, replace and transpose all cost one, counted on whole
    letters; accepts NFC strings or letter sequences.
    """
    sa, sb = letter_texts(a), letter_texts(b)
    la, lb = len(sa), len(sb)
    if not la:
        return lb
    if not lb:
        return la
    maxdist = la + lb
    # Lowrance-Wagner matrix with a -1 guard row/column (offset by one).
    d = [[0] * (lb + 2) for _ in range(la + 2)]
    d[0][0] = maxdist
    for i in range(la + 1):
        d[i + 1][0] = maxdist
        d[i + 1][1] = i
    for j in range(lb + 1):
        d[0][j + 1] = maxdist
        d[1][j + 1] = j
    last_row: dict[str, int] = {}
    for i in range(1, la + 1):
        last_match_col = 0
        for j in range(1, lb + 1):
            row = last_row.get(sb[j - 1], 0)
            col = last_match_col
            if sa[i - 1] == sb[j - 1]:
                cost = 0
                last_match_col = j
            else:
                cost = 1
            d[i + 1][j + 1] = min(
                d[i][j] + cost,
                d[i + 1][j] + 1,
                d[i][j + 1] + 1,
                d[row][col] + (i - row - 1) + 1 + (j - col - 1),
            )
        last_row[sa[i - 1]] = i
    return d[la + 1][lb + 1]
