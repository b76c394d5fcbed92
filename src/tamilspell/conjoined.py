"""Recognition of two words written as one.

Two split families are generated.  A plain split cuts between letters:
தென்றல்காற்று -> தென்றல் + காற்று.  An uyirmei split cuts inside a letter,
because joining word-final mei with word-initial uyir is exactly how such
compounds fuse: கணவன் -> கண் + அவன் (the ண becomes ண் + அ).  A word the
lexicon already knows both halves of is reported as a recognized pair
rather than a misspelling, as a :class:`SplitPair`, an immutable record
(``letters._Record``); recognizing one asks the lexicon only whether each
half is a word.  ``recognize`` takes the word as its letter split,
as the checker made it.
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum

from .errors import _check_letters
from .letters import MEI_UYIR, _Record, join_mei_uyir, tokenize

__all__ = [
    "SplitKind",
    "SplitPair",
    "recognize",
]


class SplitKind(Enum):
    PLAIN = "plain"
    OTTRU = "ottru"


class SplitPair(_Record):
    """One candidate decomposition of a word into two halves."""

    __slots__ = __match_args__ = ("left", "right", "kind")
    left: str
    right: str
    kind: SplitKind

    def __init__(self, left: str, right: str, kind: SplitKind):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "kind", kind)

    def _values(self) -> tuple[str, str, SplitKind]:
        return (self.left, self.right, self.kind)

    def reconstruct(self) -> str:
        """Re-fuse the halves back into the original word."""
        if self.kind is SplitKind.PLAIN:
            return self.left + self.right
        mei = tokenize(self.left)[-1]
        uyir = tokenize(self.right)[0]
        joined = join_mei_uyir(mei, uyir).text
        return self.left[: -len(mei.text)] + joined + self.right[len(uyir.text) :]


def recognize(letters: Sequence[str], lexicon) -> list[SplitPair]:
    """Splits whose halves are both lexicon words; plain splits first.

    ``letters`` is the word's letter split from ``letter_texts``, not
    its text.  No (left, right) pair repeats: plain pairs differ in the
    length of their left half, ottru pairs too, and an ottru pair's halves
    are longer together than the word.  Split points past
    ``lexicon.longest`` are not walked: a plain left half there has more
    letters than any word, and an ottru one more still.  A right half is
    looked up only behind a left half that is a word, so each split point
    costs at most four membership probes, and a word costs at most
    4 * (``lexicon.longest`` + 1).
    Each half must be exactly a word's letter split: an ottru split's
    uyir ஒ followed by a lone ௗ is not the word ஔ, although NFC would
    compose the two.
    """
    _check_letters(letters)
    texts = tuple(letters)
    plain: list[SplitPair] = []
    ottru: list[SplitPair] = []
    for i, text in enumerate(texts[: lexicon.longest + 1]):
        left = "".join(texts[:i])
        if lexicon.contains_letters(texts[:i]) and lexicon.contains_letters(texts[i:]):
            plain.append(SplitPair(left, "".join(texts[i:]), SplitKind.PLAIN))
        if text in MEI_UYIR:
            mei, uyir = MEI_UYIR[text]
            right = (uyir,) + texts[i + 1 :]
            if lexicon.contains_letters(texts[:i] + (mei,)) and lexicon.contains_letters(right):
                ottru.append(SplitPair(left + mei, "".join(right), SplitKind.OTTRU))
    return plain + ottru
