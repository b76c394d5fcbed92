"""Tamil script model: code-point screening, letter tokenization.

Tamil is an abugida, so a "letter" is usually a grapheme built from more
than one code point: a consonant plus pulli forms a mei (க + ் = க்), a
consonant alone carries an implicit அ, and a consonant plus a vowel sign
forms the other uyirmei shapes (க + ா = கா).  Edit operations that work on
raw code points produce garbage (deleting the ா from கா yields a different
letter, not a shorter word), so everything downstream runs on the letter
texts produced by :func:`letter_texts`; the four strategies reject a
word's text or a sequence of :class:`Letter` objects.

Splitting is one compiled regular expression: a consonant (the conjunct
க்ஷ tried first) with an optional pulli or vowel sign, or else any single
code point.  :func:`letter_texts` returns those texts as they are;
:func:`tokenize` maps each through a table built once at import that
holds a shared :class:`Letter` for every Tamil letter and every lone mark
(``Letter`` is frozen, so sharing is safe), and wraps any other code
point as an OTHER letter.

``Letter``, like ``conjoined.SplitPair``, ``checker.CheckReport`` and
``checker.EngineConfig``, is a plain immutable class on the private base
``_Record``, not a dataclass: ``dataclasses`` imports ``inspect`` and
``ast``, and added about 10 ms to every cold start.
"""

from __future__ import annotations

import re
from enum import Enum

PULLI = "்"
AYUDHAM = "ஃ"  # ஃ
KSSA = "க்ஷ"  # conjunct consonant, three code points

UYIR_LETTERS = ("அ", "ஆ", "இ", "ஈ", "உ", "ஊ", "எ", "ஏ", "ஐ", "ஒ", "ஓ", "ஔ")

# Vowel sign used when a consonant combines with each uyir; அ is implicit.
VOWEL_SIGNS = {
    "அ": "",
    "ஆ": "ா",
    "இ": "ி",
    "ஈ": "ீ",
    "உ": "ு",
    "ஊ": "ூ",
    "எ": "ெ",
    "ஏ": "ே",
    "ஐ": "ை",
    "ஒ": "ொ",
    "ஓ": "ோ",
    "ஔ": "ௌ",
}
SIGN_TO_UYIR = {sign: uyir for uyir, sign in VOWEL_SIGNS.items() if sign}

CONSONANTS = (
    "க", "ங", "ச", "ஞ", "ட", "ண", "த", "ந", "ப",
    "ம", "ய", "ர", "ல", "வ", "ழ", "ள", "ற", "ன",
)
GRANTHA_CONSONANTS = ("ஜ", "ஷ", "ஸ", "ஹ", KSSA, "ஶ")


class LetterKind(Enum):
    """Classification of one token produced by :func:`tokenize`."""

    UYIR = "uyir"
    AYUDHAM = "ayudham"
    MEI = "mei"
    UYIRMEI = "uyirmei"
    OTHER = "other"          # non-Tamil pass-through (latin, digits, space, ...)
    MALFORMED = "malformed"  # combining mark with no consonant to attach to


class _Record:
    """Base of the package's immutable records: Letter, SplitPair, CheckReport, EngineConfig.

    A record names its fields in ``__match_args__``, sets them in its own
    ``__init__`` through ``object.__setattr__``, and returns their values in
    that order from its own ``_values``, written out field by field (a loop
    over the names made ``==`` several times slower).  It equals only a
    record of its own class with equal fields, hashes by its fields, and
    refuses to set or delete any attribute.  Pickling, ``copy`` and
    ``copy.replace`` go through the constructor, so they check what it
    checks.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__match_args__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return type(self), self._values()

    def __replace__(self, **changes):
        return type(self)(**{**dict(zip(self.__match_args__, self._values())), **changes})


class Letter(_Record):
    """One tokenizer token: a Tamil letter, or a pass-through code point."""

    __slots__ = __match_args__ = ("text", "kind")
    text: str
    kind: LetterKind

    def __init__(self, text: str, kind: LetterKind):
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "kind", kind)

    def _values(self) -> tuple[str, LetterKind]:
        return (self.text, self.kind)

    def __str__(self) -> str:
        return self.text


def is_tamil_codepoint(ch: str) -> bool:
    """True when the single code point ``ch`` falls in the Tamil block."""
    if len(ch) != 1:
        raise ValueError(f"expected a single code point, got {len(ch)} characters")
    return "ஂ" <= ch <= "௺"


_TAMIL_SEARCH = re.compile("[ஂ-௺]").search


def has_tamil(text: str) -> bool:
    """True when any code point of ``text`` is Tamil."""
    # A Tamil first code point answers without starting the regex engine.
    return "ஂ" <= text[:1] <= "௺" or _TAMIL_SEARCH(text) is not None


# The base code points are ASCII, the Tamil block, ZWNJ/ZWJ, the no-break
# space, General Punctuation from U+2010 (dashes, quotes, bullets, per mille,
# primes, the separators and the invisible format characters), the
# Currency Symbols (U+20A0-U+20C0, with the rupee sign), which typeset
# Tamil text uses, and U+FEFF, the byte order mark an editor may leave in
# a pasted text or a joined file; any other code point is "other".
_BASE_CODE_POINTS = (
    *range(0x80), 0xA0, *range(0x0B80, 0x0C00), 0x200C, 0x200D,
    *range(0x2010, 0x2065), *range(0x20A0, 0x20C1), 0xFEFF,
)
_OTHER_CHARS = re.compile("[^%s]" % re.escape("".join(map(chr, _BASE_CODE_POINTS))))

# The only base pairs NFC changes: each composes to one Tamil code point.
_COMPOSING_PAIRS = ("\u0bc6\u0bbe", "\u0bc7\u0bbe", "\u0bc6\u0bd7", "\u0b92\u0bd7")


def _known_nfc(text: str) -> bool:
    """True when ``text`` is of base code points alone and holds no composing pair.

    Such a text is its own NFC form (a test checks every pair against
    ``unicodedata``): among the base code points only pulli has a non-zero
    combining class, so nothing reorders; every base code point is its own
    NFC form; no two compose but ``_COMPOSING_PAIRS``; and the second code
    point of each pair has class 0, so it composes only with the code point
    just before it.  False says only that NFC could change the text.  Texts
    joined by a base code point in no pair, such as a newline, pass together
    exactly when each passes alone.
    """
    return not _OTHER_CHARS.search(text) and not any(pair in text for pair in _COMPOSING_PAIRS)


# The composition table: every mei -> its uyirmei letters, keyed by uyir
# (க் -> {அ: க, ஆ: கா, ...}).  MEI_UYIR is its inverse.
UYIRMEI = {
    cons + PULLI: {uyir: cons + sign for uyir, sign in VOWEL_SIGNS.items()}
    for cons in (*CONSONANTS, *GRANTHA_CONSONANTS)
}
# Every uyirmei letter -> the texts of its (mei, uyir).
MEI_UYIR = {letter: (mei, uyir) for mei, row in UYIRMEI.items() for uyir, letter in row.items()}


def _letter_table() -> dict[str, Letter]:
    table = {u: Letter(u, LetterKind.UYIR) for u in UYIR_LETTERS}
    table[AYUDHAM] = Letter(AYUDHAM, LetterKind.AYUDHAM)
    for mark in (PULLI, *SIGN_TO_UYIR):
        table[mark] = Letter(mark, LetterKind.MALFORMED)
    table.update((mei, Letter(mei, LetterKind.MEI)) for mei in UYIRMEI)
    table.update((letter, Letter(letter, LetterKind.UYIRMEI)) for letter in MEI_UYIR)
    return table


# Every Tamil token text -> its (shared, immutable) Letter.
_LETTERS = _letter_table()
# One token: a consonant (க்ஷ tried first) with an optional pulli or vowel
# sign, else any single code point.
_SINGLE_CONSONANTS = "".join(c for c in (*CONSONANTS, *GRANTHA_CONSONANTS) if c != KSSA)
_SPLIT = re.compile(
    f"(?:{KSSA}|[{_SINGLE_CONSONANTS}])[{PULLI}{''.join(SIGN_TO_UYIR)}]?|.", re.DOTALL
).findall


def tokenize(text: str) -> list[Letter]:
    """Split ``text`` into Tamil letters plus pass-through tokens.

    The concatenation of the returned token texts always equals the input;
    nothing is dropped.  A vowel sign or pulli with no consonant before it
    becomes a MALFORMED token, and any non-Tamil code point becomes an
    OTHER token.  Callers are expected to hand in NFC-normalized text.
    """
    get = _LETTERS.get
    return [get(t) or Letter(t, LetterKind.OTHER) for t in _SPLIT(text)]


def classify(text: str) -> Letter:
    """Tokenize ``text`` and require exactly one token."""
    tokens = tokenize(text)
    if len(tokens) != 1:
        raise ValueError(f"expected a single letter, got {len(tokens)} tokens: {text!r}")
    return tokens[0]


def _as_letter(letter: Letter | str) -> Letter:
    return letter if isinstance(letter, Letter) else classify(letter)


def letter_texts(word: str | list[Letter] | tuple[str, ...]) -> tuple[str, ...]:
    """Coerce a word (string or pre-tokenized sequence) to letter texts."""
    if isinstance(word, str):
        return tuple(_SPLIT(word))
    return tuple(t.text if isinstance(t, Letter) else t for t in word)


def split_mei_uyir(letter: Letter | str) -> tuple[Letter, ...]:
    """Decompose a letter into its mei and uyir parts.

    An uyirmei splits into (mei, uyir): கா -> (க், ஆ) and bare க -> (க், அ).
    Uyir, ayudham and mei letters are already atomic and come back as a
    one-element tuple.  Anything that is not a Tamil letter is an error.
    """
    lt = _as_letter(letter)
    if lt.kind in (LetterKind.UYIR, LetterKind.AYUDHAM, LetterKind.MEI):
        return (lt,)
    if lt.kind is not LetterKind.UYIRMEI:
        raise ValueError(f"not a Tamil letter: {lt.text!r}")
    return tuple(_LETTERS[part] for part in MEI_UYIR[lt.text])


def join_mei_uyir(mei: Letter | str, uyir: Letter | str) -> Letter:
    """Compose a mei and an uyir into the uyirmei letter: க் + ஈ -> கீ."""
    m = _as_letter(mei)
    u = _as_letter(uyir)
    if m.kind is not LetterKind.MEI:
        raise ValueError(f"not a mei letter: {m.text!r}")
    if u.kind is not LetterKind.UYIR:
        raise ValueError(f"not an uyir letter: {u.text!r}")
    return _LETTERS[UYIRMEI[m.text][u.text]]
