"""Edit-distance candidates over Tamil letter sequences.

All operations work on whole letters, never raw code points: deleting the
second letter of கடல் gives கல், and replacements draw from a letter
alphabet (247 standard, 323 with grantha).  ``suggest`` is the contract:
every lexicon word within letter-level Damerau-Levenshtein distance
``nedits`` is a candidate.  It takes the input as its letter split, as
the checker made it, and takes the candidates from the lexicon by walking
it, never by generating strings.  It maps each candidate to its distance
and neither labels nor ranks them: the checker does that, for the
candidates it keeps.  ``edit_operations``, ``edits1`` and
``edits_n`` enumerate the neighbourhood itself, level by level; they are
the reference the walk is tested against.
"""

from __future__ import annotations

import unicodedata
from collections.abc import Sequence

from .letters import Alphabet, alphabet as default_alphabet, letter_texts

__all__ = [
    "edit_operations",
    "edits1",
    "edits_n",
    "letter_edit_distance",
    "suggest",
]


def _coerce_word(word) -> tuple[str, ...]:
    if isinstance(word, str):
        word = unicodedata.normalize("NFC", word)
    letters = letter_texts(word)
    if not letters:
        raise ValueError("cannot generate edits for an empty word")
    return letters


def _coerce_alphabet(alphabet) -> tuple[str, ...]:
    if alphabet is None:
        return default_alphabet().letters
    if isinstance(alphabet, Alphabet):
        return alphabet.letters
    return letter_texts(alphabet)


def _operations(letters: tuple[str, ...], alpha: tuple[str, ...]) -> dict[str, list[tuple]]:
    splits = [(letters[:i], letters[i:]) for i in range(len(letters) + 1)]
    return {
        "deletes": [a + b[1:] for a, b in splits if b],
        "transposes": [a + (b[1], b[0]) + b[2:] for a, b in splits if len(b) > 1],
        "replaces": [a + (c,) + b[1:] for a, b in splits if b for c in alpha],
        "inserts": [a + (c,) + b for a, b in splits for c in alpha],
    }


def edit_operations(word, alphabet=None) -> dict[str, list[str]]:
    """Raw candidate lists per operation, before any deduplication.

    Returns the four lists keyed ``deletes``, ``transposes``, ``replaces``
    and ``inserts``.  For a word of n letters over an alphabet of A
    letters the sizes are exactly n, max(n-1, 0), n*A and (n+1)*A.
    """
    ops = _operations(_coerce_word(word), _coerce_alphabet(alphabet))
    return {name: ["".join(w) for w in cands] for name, cands in ops.items()}


def edits1(word, alphabet=None) -> list[str]:
    """Every word one letter-edit away, deduplicated, in generation order.

    Order is deletes, transposes, replaces, inserts (positions left to
    right).  Replacing a letter by itself gives the input back, and it is
    kept.
    """
    return edits_n(word, alphabet, nedits=1)


def edits_n(word, alphabet=None, nedits: int = 1) -> list[str]:
    """Candidates within ``nedits`` letter edits, in first-seen order.

    Level k applies one edit to every candidate level k-1 added; the empty
    word is kept as a candidate but never expanded.
    """
    if nedits < 1:
        raise ValueError("nedits must be >= 1")
    alpha = _coerce_alphabet(alphabet)
    seen: dict[tuple[str, ...], None] = {}  # insertion-ordered set
    frontier = [_coerce_word(word)]
    for _ in range(nedits):
        start = len(seen)
        for source in frontier:
            if source:
                for cands in _operations(source, alpha).values():
                    seen.update(dict.fromkeys(cands))
        frontier = list(seen)[start:]
    return ["".join(w) for w in seen]


def suggest(letters: Sequence[str], lexicon, nedits: int = 2) -> dict[str, int]:
    """Every lexicon word within ``nedits`` letter edits, the input excluded.

    ``letters`` is the word's letter split, not its text.  Each word maps
    to its letter-level edit distance, in no particular order.
    ``lexicon`` is a :class:`tamilspell.lexicon.Lexicon`.
    """
    if isinstance(letters, str):
        raise TypeError("letters must be the word's letter split, not its text")
    if not isinstance(nedits, int):
        raise TypeError(f"nedits must be an int, not {type(nedits).__name__}")
    if nedits < 1:
        raise ValueError("nedits must be >= 1")
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
