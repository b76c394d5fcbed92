"""Keyboard-typo correction via substitutions from a confusion matrix.

A confusion matrix maps each letter to the letters a typist is likely to
hit instead (physically adjacent keys, usually).  A keyboard candidate
replaces up to ``ed`` positions of the input, each only by a neighbour of
the letter originally there.  ``corrections`` takes the input as its
letter split, as the checker made it, and takes the set of those
candidates from the lexicon with one substitution walk, so only
neighbours that keep a lexicon prefix alive are tried.

A keyboard candidate differs from the input in at most ``ed`` letters,
which makes it an edit candidate at the same distance as well.
``corrections`` therefore returns bare words, and the checker labels the
edit candidates among them as keyboard suggestions.

Uyirmei letters resolve through their mei: the matrix holds adjacency for
ள், and பளம் gets பழம் by joining the neighbour ழ் with the original ள's
uyir.  A full uyirmei key in the matrix overrides that resolution.

The walk looks up the substituted letters as they are: a க் put before a
ஷ letter stays two letters and does not match the one letter க்ஷ its
joined text re-tokenizes to.  Only grantha letters can form such a pair.
"""

from __future__ import annotations

import unicodedata
from collections.abc import Iterable, Mapping, Sequence

from .errors import MatrixFormatError, _check_distance, _data_fields
from .letters import UYIRMEI, Letter, LetterKind, classify, tokenize

__all__ = [
    "ConfusionMatrix",
    "corrections",
    "load_confusion_matrix",
]


class ConfusionMatrix:
    """Letter -> likely-mistyped-neighbour lists.

    Every key and neighbour must be one letter, and no key may list
    itself; a bad entry raises :class:`MatrixFormatError`.  Keys that
    spell the same letter (say in NFC and in NFD) are one key: each
    entry extends the earlier list for its letter, in order and without
    repeats, as a repeated key in a matrix file does.  Every letter's
    alternates are resolved once, at construction: the direct entries,
    and for each mei key the uyirmei fallback of its twelve uyir forms.
    """

    def __init__(self, neighbors: Mapping[str, Sequence[str]]):
        table: dict[str, tuple[str, ...]] = {}
        for key, alts in neighbors.items():
            key, alts = _entry(key, alts)
            table[key] = tuple(dict.fromkeys(table.get(key, ()) + alts))
        self._table = table
        resolved = dict(table)
        for key, alts in table.items():
            if key not in UYIRMEI:
                continue
            meis = [alt for alt in alts if alt in UYIRMEI]
            for uyir, letter in UYIRMEI[key].items():
                if letter not in table:
                    resolved[letter] = tuple(UYIRMEI[mei][uyir] for mei in meis)
        self._resolved = resolved

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, key: object) -> bool:
        return key in self._table

    def alternates_for(self, letter: Letter | str) -> tuple[str, ...]:
        """Substitute letters for ``letter``; empty when unmapped.

        Direct table entries win.  An unmapped uyirmei falls back to its
        mei's entry, each mei neighbour re-joined with the original uyir
        (non-mei neighbours cannot carry an uyir and are skipped).
        """
        if not isinstance(letter, Letter):
            letter = classify(unicodedata.normalize("NFC", letter))
        return self._resolved.get(letter.text, ())


def _entry(key: str, alts: Iterable[str]) -> tuple[str, tuple[str, ...]]:
    """One matrix entry, NFC-normalized, or MatrixFormatError."""
    key = _single_token(key)
    alts = tuple(map(_single_token, alts))
    if key in alts:
        raise MatrixFormatError(f"{key!r} lists itself as a neighbour")
    return key, alts


def _single_token(field: str) -> str:
    field = unicodedata.normalize("NFC", field)
    tokens = tokenize(field)
    if len(tokens) != 1 or tokens[0].kind is LetterKind.MALFORMED:
        raise MatrixFormatError(f"not a single letter: {field!r}")
    return tokens[0].text


def load_confusion_matrix(source) -> ConfusionMatrix:
    """Parse a matrix file: ``letter<TAB>alt1 alt2 ...`` per line.

    Blank lines and ``#`` comments are skipped.  Undecodable bytes, a
    missing tab, an entry that is not a single letter, or a letter listing
    itself raise :class:`MatrixFormatError` with the line number.
    Repeated keys extend the earlier neighbour list.
    """
    table: dict[str, tuple[str, ...]] = {}
    fields = _data_fields(source, MatrixFormatError, "letter<TAB>neighbours")
    for name, lineno, key_field, alt_field in fields:
        try:
            key, alts = _entry(key_field.strip(), alt_field.split())
        except MatrixFormatError as exc:
            raise MatrixFormatError(f"{name}:{lineno}: {exc}") from None
        table[key] = table.get(key, ()) + alts
    return ConfusionMatrix(table)


def corrections(letters: Sequence[str], lexicon, matrix: ConfusionMatrix, ed: int = 2) -> set[str]:
    """Lexicon words that substitute matrix neighbours at 1..``ed`` positions.

    ``letters`` is the word's letter split from ``letter_texts``, not
    its text; ``ed`` may exceed its length, as n letters take at most n
    substitutions.
    """
    _check_distance("ed", ed)
    # No entry lists its own letter: the matrix rejects self-neighbours,
    # and distinct mei neighbours join to distinct uyirmei.
    get = matrix._resolved.get
    return lexicon.substitutions(letters, [get(letter, ()) for letter in letters], ed)
