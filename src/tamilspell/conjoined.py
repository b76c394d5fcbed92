"""Recognition of two words written as one.

Two split families are generated.  A plain split cuts between letters:
தென்றல்காற்று -> தென்றல் + காற்று.  An uyirmei split cuts inside a letter,
because joining word-final mei with word-initial uyir is exactly how such
compounds fuse: கணவன் -> கண் + அவன் (the ண becomes ண் + அ).  A word the
lexicon already knows both halves of is reported as a recognized pair
rather than a misspelling; recognizing one asks the lexicon only whether
each half is a word.  ``recognize`` takes the word as its letter
split, as the checker made it; ``generate_plain_splits`` and
``generate_ottru_splits`` enumerate every split of a text and are the
reference it is tested against.
"""

from __future__ import annotations

import unicodedata
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from .letters import MEI_UYIR, LetterKind, join_mei_uyir, split_mei_uyir, tokenize

__all__ = [
    "SplitKind",
    "SplitPair",
    "generate_ottru_splits",
    "generate_plain_splits",
    "recognize",
]


class SplitKind(Enum):
    PLAIN = "plain"
    OTTRU = "ottru"


@dataclass(frozen=True, slots=True)
class SplitPair:
    """One candidate decomposition of a word into two halves."""

    left: str
    right: str
    kind: SplitKind

    def reconstruct(self) -> str:
        """Re-fuse the halves back into the original word."""
        if self.kind is SplitKind.PLAIN:
            return self.left + self.right
        mei = tokenize(self.left)[-1]
        uyir = tokenize(self.right)[0]
        joined = join_mei_uyir(mei, uyir).text
        return self.left[: -len(mei.text)] + joined + self.right[len(uyir.text) :]


def generate_ottru_splits(word: str) -> list[SplitPair]:
    """Every split through an uyirmei letter, left to right.

    At each uyirmei position the letter decomposes into mei + uyir; the
    mei closes the left half and the uyir opens the right half:
    யாரிகுழந்து -> (ய், ஆரிகுழந்து), (யார், இகுழந்து), ...  A word with
    no uyirmei letter yields an empty list.
    """
    word = unicodedata.normalize("NFC", word)
    letters = tokenize(word)
    texts = [lt.text for lt in letters]
    pairs: list[SplitPair] = []
    for idx, letter in enumerate(letters):
        if letter.kind is not LetterKind.UYIRMEI:
            continue
        mei, uyir = split_mei_uyir(letter)
        left = "".join(texts[:idx]) + mei.text
        right = uyir.text + "".join(texts[idx + 1 :])
        pairs.append(SplitPair(left, right, SplitKind.OTTRU))
    return pairs


def generate_plain_splits(word: str) -> list[SplitPair]:
    """Every between-letter split; a word under two letters yields none."""
    word = unicodedata.normalize("NFC", word)
    texts = [lt.text for lt in tokenize(word)]
    return [
        SplitPair("".join(texts[:i]), "".join(texts[i:]), SplitKind.PLAIN)
        for i in range(1, len(texts))
    ]


def recognize(letters: Sequence[str], lexicon) -> list[SplitPair]:
    """Splits whose halves are both lexicon words; plain splits first.

    ``letters`` is the word's letter split, not its text.  No (left,
    right) pair repeats: plain pairs differ in the length of their left
    half, ottru pairs too, and an ottru pair's halves are longer together
    than the word.  Split points past ``lexicon.longest`` are not walked:
    a plain left half there has more letters than any word, and an ottru
    one more still.  A right half is looked up only behind a left half
    that is a word, so each split point costs at most four membership
    probes, and a word costs at most 4 * (``lexicon.longest`` + 1).
    Each half must be exactly a word's letter split: an ottru split's
    uyir ஒ followed by a lone ௗ is not the word ஔ, although NFC would
    compose the two.
    """
    if isinstance(letters, str):
        raise TypeError("letters must be the word's letter split, not its text")
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
