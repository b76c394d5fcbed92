"""The checking driver: validate tokens, merge strategy suggestions.

Every token takes one route, whether it comes from ``check_word`` or
``check_text``: a token with no Tamil code point goes to the parallel
dictionary, a stop word is skipped, a token the lexicon knows is valid,
and anything else goes through every correction strategy and the results
are merged.  The checker is the input boundary.  ``check_word`` answers
a token the lexicon holds exactly as given (so an NFC one) with that one
lookup, when it has a Tamil code point and is no stop word; it
NFC-normalizes any other token once, and the lexicon is then probed
exactly on the normalized token.  A non-word is split into letters once;
every strategy takes that letter tuple.  ``check_text`` splits a
document with one function, ``_word_tokens``, which normalizes it only
when that could change it: a text of ASCII, Tamil-block, joiner, General
Punctuation, currency and U+FEFF code points alone is already NFC unless
it holds one of four composing pairs (``letters._known_nfc`` says why).

Conjoined-split recognition outranks confusable-series substitution,
which outranks keyboard-adjacency patterns, which outrank generic edit
candidates.  The strategies return bare words (the edit strategy maps
each to its distance), and the checker alone ranks them: each candidate
gets one rank key, (letter-level edit distance to the input, strategy
priority, candidate), where a recognized conjoined pair scores 0.  A
candidate the edit walk found takes the distance the walk gave it, and
is labelled with the highest-priority strategy that proposed it.  The
one walk holds every lexicon word within ``edit_distance`` ed, so it
finds every keyboard candidate and every series candidate within ed;
only a series candidate beyond ed (the series budget is unlimited) is
scored on its own, by ``letter_edit_distance``.  On the bounded path
(below) the walk holds only the ed - 1 ball: a keyboard candidate
outside it scores ed, since the keyboard strategy substitutes at most ed
letters, and a series candidate outside it is scored on its own.  The
``MAX_SUGGESTIONS`` smallest keys are kept, and a :class:`Suggestion` is
built for those alone.

The kept list is the head of that ranking.  At an ``edit_distance`` ed of
2 or more, a non-word of at most ed + 3 letters takes the bounded path,
which finds the kept list without listing the whole edit ball; every other
non-word takes one walk within ed, since its ball is small and the bound
skips little.  The choice reads ed and the letter count alone, on any
lexicon.  On a 200,000-word lexicon at ed 2 the bounded path took
0.35-0.38 against 3.6-4.0 ms per token at 3 letters and 1.2-1.45 against
1.55-1.7 ms at 5, but lost 5-16% at 6 letters and 7-12% from 7 on; at ed 3
it won at 6 letters and lost at 7, and at ed 4 the two were within 6% at 8
letters and the walk won from 9.  At ed 1 the one walk was never slower.
On the bundled lexicon, over 600 typos (best of 5 passes), the rule took
208-229 against 289-316 ms at ed 3 and 380-385 against 461-485 ms at ed 4
with the one walk alone, and 124-129 against 121-128 ms at ed 2.  On the
bounded path the lexicon is first walked within ``edit_distance`` - 1, and
those words are ranked with the other strategies' candidates.  An edit
word that walk leaves out, and that no other strategy proposed, scores
``edit_distance`` under the EDIT label, so its key ranks after every other
key within that distance, and such keys differ in their text alone.  Of
them the cut can keep only as many as it has slots left, the
text-smallest: ``Lexicon.first_at_distance`` finds those, skipping every
trie node whose prefix text sorts after the last word it keeps, since
every word below a node starts with its prefix.  When no slot is left,
that search is skipped.  A token too long for any candidate (see
``SpellChecker.__init__``) gets no suggestions and no strategy runs.

Reports are named tuples, so building one costs little.  Each engine
keeps one LRU memo of ``CACHE_SIZE`` non-words that maps a non-word to
its finished report, so a document that repeats a misspelling computes
it once, ``check_word`` and ``check_text`` hand out the same report
object for it, and a long-lived engine stays bounded.  Within one call,
``check_text`` routes each distinct token of the document once and builds
one report for it, which all its occurrences share; every non-word
occurrence still asks the memo, so its counters count occurrences.
``CheckReport.to_json`` renders each distinct report once per call,
keyed by its value, since equal reports render equal text, and takes
the text of a suggestion list from one module-wide LRU memo of
``CACHE_SIZE`` entries keyed by the list and the layout, so a memoized
non-word's list is rendered once per layout, not once per pass.  Nothing
else is kept across calls.  Checking runs serially.  An engine may be
shared across threads; concurrent misses on one word may then compute it
twice, with equal results.
"""

from __future__ import annotations

import functools
import heapq
import re
import unicodedata
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring
from typing import NamedTuple

from . import conjoined, edits, keyboard, mayangoli
from .edits import letter_edit_distance
from .errors import TamilSpellError, _check_distance, _data_fields, _listed_words
from .letters import _BASE_CODE_POINTS, _OTHER_CHARS, _known_nfc, has_tamil, letter_texts

__all__ = [
    "CACHE_SIZE",
    "CheckReport",
    "EngineConfig",
    "MAX_SUGGESTIONS",
    "SpellChecker",
    "Strategy",
    "Suggestion",
    "TokenReport",
    "Verdict",
    "load_parallel_dict",
    "load_stop_words",
]

# Distinct non-words an engine keeps reports for, and suggestion lists
# whose JSON text is kept.
CACHE_SIZE = 4096

# Suggestions kept per non-word.  It must stay at least 1: a recognized
# conjoined pair ranks first, and keeping it is what makes the token read
# clean.
MAX_SUGGESTIONS = 10

class Verdict(Enum):
    VALID = "valid"
    NON_WORD = "nonword"
    NON_TAMIL = "nontamil"
    SKIPPED = "skipped"

    # Members compare by identity, so they may hash by it; Enum's own hash
    # is Python code, and every report hash and JSON lookup pays for it.
    __hash__ = object.__hash__


class Strategy(Enum):
    """Which generator produced a suggestion; order is the merge priority."""

    CONJOINED = "conjoined"
    MAYANGOLI = "mayangoli"
    KEYBOARD = "keyboard"
    EDIT = "edit"
    FOREIGN = "foreign"

    __hash__ = object.__hash__

    @property
    def priority(self) -> int:
        return _BY_PRIORITY.index(self)


# The merge priority, written once: each strategy at the index of its priority.
_BY_PRIORITY = tuple(Strategy)


class Suggestion(NamedTuple):
    """One candidate correction: the word, its origin, and a distance score."""

    candidate: str
    strategy: Strategy
    score: int

    def as_dict(self) -> dict:
        return {
            "candidate": self.candidate,
            "strategy": self.strategy.value,
            "score": self.score,
        }


class TokenReport(NamedTuple):
    """Outcome for one token, in document order."""

    token: str
    verdict: Verdict
    suggestions: tuple[Suggestion, ...] = ()

    @property
    def is_clean(self) -> bool:
        """Not a misspelling; a recognized conjoined pair counts as clean."""
        if self.verdict is not Verdict.NON_WORD:
            return True
        return any(s.strategy is Strategy.CONJOINED for s in self.suggestions)

    def as_dict(self) -> dict:
        return {
            "token": self.token,
            "verdict": self.verdict.value,
            "suggestions": [s.as_dict() for s in self.suggestions],
        }


# A report from its (token, verdict, suggestions) tuple: tuple's own
# constructor, without the named tuple's Python-level ``__new__``.
_report = functools.partial(tuple.__new__, TokenReport)

# The JSON text of every verdict and strategy name.
_QUOTED = {member: encode_basestring(member.value) for member in (*Verdict, *Strategy)}


def _layout(indent: str | None, depth: int) -> tuple[str, tuple[str, ...]]:
    """The item separator, and the line break before an item at each depth 0-4, ``depth`` deeper."""
    if indent is None:
        return ", ", ("",) * 5
    return ",", tuple("\n" + indent * k for k in range(depth, depth + 5))


@functools.lru_cache(maxsize=CACHE_SIZE)
def _suggestions_json(suggestions: tuple[Suggestion, ...], indent: str | None, depth: int) -> str:
    """The JSON text of a non-empty suggestion list as a report's value, in a layout."""
    sep, nl = _layout(indent, depth)
    quote = encode_basestring
    candidate_head = "{" + nl[4] + '"candidate": '
    strategy_head = sep + nl[4] + '"strategy": '
    score_head = sep + nl[4] + '"score": '
    tail = nl[3] + "}"
    return "[" + nl[3] + (sep + nl[3]).join([
        candidate_head + quote(s.candidate) + strategy_head + _QUOTED[s.strategy]
        + score_head + str(s.score) + tail
        for s in suggestions
    ]) + nl[2] + "]"


@dataclass(frozen=True)
class CheckReport:
    """Every token of a checked document, in order."""

    tokens: tuple[TokenReport, ...]

    @property
    def clean(self) -> bool:
        return all(t.is_clean for t in self.tokens)

    def non_words(self) -> list[TokenReport]:
        return [t for t in self.tokens if t.verdict is Verdict.NON_WORD]

    def as_dicts(self) -> list[dict]:
        return [t.as_dict() for t in self.tokens]

    def to_json(self, indent: int | str | None = None, *, _depth: int = 0) -> str:
        """The text of ``json.dumps(self.as_dicts(), ensure_ascii=False, indent=indent)``.

        Written directly, without building the dicts.  Strings are escaped,
        so every newline in the text is layout.  Each distinct report is
        rendered once, and every occurrence looks its text up by the
        report's value, since equal reports render equal text; a suggestion
        list's text comes from the render memo.  The result is one ``join``.
        ``_depth`` nests the text that many levels deeper, as the CLI's
        report of several files does.
        """
        if not self.tokens:
            return "[]"
        if indent is not None and not isinstance(indent, str):
            indent = " " * indent
        sep, nl = _layout(indent, _depth)
        quote, render = encode_basestring, _suggestions_json
        token_head = "{" + nl[2] + '"token": '
        verdict_head = sep + nl[2] + '"verdict": '
        suggestions_head = sep + nl[2] + '"suggestions": '
        token_tail = nl[1] + "}"
        texts = {
            t: token_head + quote(t.token) + verdict_head + _QUOTED[t.verdict]
            + suggestions_head + (render(t.suggestions, indent, _depth) if t.suggestions else "[]")
            + token_tail
            for t in dict.fromkeys(self.tokens)
        }
        # One join builds the text; the brackets ride on the first and last part.
        parts = list(map(texts.__getitem__, self.tokens))
        parts[0] = "[" + nl[1] + parts[0]
        parts[-1] += nl[0] + "]"
        return (sep + nl[1]).join(parts)


@dataclass(frozen=True)
class EngineConfig:
    """Tunables for a :class:`SpellChecker`."""

    edit_distance: int = 2

    def __post_init__(self):
        _check_distance("edit_distance", self.edit_distance)


class SpellChecker:
    """Two-step checker over a lexicon, with pluggable strategy inputs.

    ``confusion_matrix=None`` loads the bundled keyboard-adjacency matrix;
    with an empty :class:`~tamilspell.keyboard.ConfusionMatrix` no
    candidate is labelled KEYBOARD, and the words the keyboard strategy
    would have reached are labelled EDIT.
    """

    def __init__(
        self,
        lexicon,
        *,
        config: EngineConfig | None = None,
        confusion_matrix: keyboard.ConfusionMatrix | None = None,
        parallel_dict: Mapping[str, str] | None = None,
        stop_words: Iterable[str] = (),
    ):
        from .bundled import bundled_confusion_matrix

        if isinstance(stop_words, str):
            raise TypeError("stop_words must be a collection of words, not one text")
        self.lexicon = lexicon
        self.config = config or EngineConfig()
        self.confusion_matrix = (
            confusion_matrix if confusion_matrix is not None else bundled_confusion_matrix()
        )
        nfc = functools.partial(unicodedata.normalize, "NFC")
        self.parallel_dict = {nfc(k).casefold(): nfc(v) for k, v in (parallel_dict or {}).items()}
        self.stop_words = frozenset(map(nfc, stop_words))
        self._reports = functools.lru_cache(maxsize=CACHE_SIZE)(self._non_word)
        # A word within ed of an m-letter token has at least m - ed letters,
        # a keyboard or series candidate has m and a conjoined pair's halves
        # are words, so no candidate matches a token of more than
        # max(L + ed, 2 * L) letters, L the longest word's.  A letter spans
        # at most four code points (க்ஷா), so a token longer than four times
        # that many is answered without a letter split and kept out of the
        # memo, which holds no longer token.
        longest = lexicon.longest
        self._longest_matchable = 4 * max(longest + self.config.edit_distance, 2 * longest)

    # ------------------------------------------------------------------ #

    def check_word(self, word: str) -> TokenReport:
        """Check one token, with the verdict ``check_text`` would give it.

        A token the lexicon holds exactly as given is NFC, so when it has a
        Tamil code point and is no stop word it is valid after that one
        probe, with no normalization.  Any other token is normalized once
        and routed.
        """
        if self.lexicon.holds(word) and word not in self.stop_words and has_tamil(word):
            return _report((word, Verdict.VALID, ()))
        token = unicodedata.normalize("NFC", word)
        return self._route(token) or self._reports(token)

    def check_text(self, text: str) -> CheckReport:
        """Check a document; the report lists every token in order.

        The text is split into the tokens of its NFC form, and normalized
        only when that could change it (see ``_word_tokens``).  Each
        distinct token is routed once and gets one report, which all its
        occurrences share; every non-word occurrence still asks the memo,
        so its counters count occurrences, as ``check_word``'s do.
        """
        tokens = _word_tokens(text)
        routes = {tok: self._route(tok) for tok in dict.fromkeys(tokens)}
        non_words = {tok for tok, report in routes.items() if report is None}
        # The last answer is the report.  A word evicted mid-pass is
        # computed again, with an equal result.
        routes.update({tok: self._reports(tok) for tok in filter(non_words.__contains__, tokens)})
        return CheckReport(tuple(map(routes.__getitem__, tokens)))

    @property
    def stats(self) -> dict:
        """Memo counters.

        A computation that raises counts as a miss but stores nothing, so
        ``cache_misses - cache_size`` is the evictions plus the failed
        computations.
        """
        info = self._reports.cache_info()
        return {
            "cache_hits": info.hits,
            "cache_misses": info.misses,
            "cache_size": info.currsize,
        }

    # ------------------------------------------------------------------ #

    def _route(self, token: str) -> TokenReport | None:
        """The report of an NFC token no strategy needs to see, else None.

        A token without a Tamil code point is looked up, case-folded, in the
        parallel dictionary, a stop word is skipped and a word the lexicon
        holds is valid.  A token too long for any strategy to match is a
        non-word without suggestions, and is not memoized.
        """
        if not has_tamil(token):
            sub = self.parallel_dict.get(token.casefold())
            subs = () if sub is None else (Suggestion(sub, Strategy.FOREIGN, 0),)
            return _report((token, Verdict.NON_TAMIL, subs))
        if token in self.stop_words:
            return _report((token, Verdict.SKIPPED, ()))
        if self.lexicon.holds(token):
            return _report((token, Verdict.VALID, ()))
        if len(token) > self._longest_matchable:
            return _report((token, Verdict.NON_WORD, ()))
        return None

    def _non_word(self, word: str) -> TokenReport:
        """The report of an NFC non-word, with its ranked suggestions; the memo wraps this."""
        lexicon, ed = self.lexicon, self.config.edit_distance
        letters = letter_texts(word)
        series = mayangoli.suggest(letters, lexicon)
        nearby = keyboard.corrections(letters, lexicon, self.confusion_matrix, ed)
        pairs = conjoined.recognize(letters, lexicon)
        # The bounded search pays only where the ed ball is large (see the
        # module docstring); both paths give the same report.
        bounded = 2 <= ed and len(letters) <= ed + 3
        if bounded:
            within = lexicon.within_distance(letters, ed - 1)
        else:
            within = edits.suggest(letters, lexicon, nedits=ed)
        # Candidate -> rank key.  Each strategy overwrites the ones of lower
        # priority.
        edit = Strategy.EDIT.priority
        ranks = {candidate: (distance, edit, candidate) for candidate, distance in within.items()}
        for candidate in nearby:
            # Only on the bounded path can ``within`` lack a keyboard
            # candidate, which then scores ed: the strategy substitutes at
            # most ed letters, so the candidate is within ed, and it is not
            # within ed - 1 since ``within`` holds that whole ball.
            ranks[candidate] = (within.get(candidate, ed), Strategy.KEYBOARD.priority, candidate)
        for candidate in series:
            distance = within.get(candidate) or letter_edit_distance(letters, candidate)
            ranks[candidate] = (distance, Strategy.MAYANGOLI.priority, candidate)
        for pair in pairs:
            # Scores 0, below any other strategy's score for the same text.
            candidate = f"{pair.left} {pair.right}"
            ranks[candidate] = (0, Strategy.CONJOINED.priority, candidate)
        if bounded:
            # The edit words at distance ed left to rank have keys
            # (ed, EDIT, word), after every other key within ed, so the cut
            # takes the text-smallest of them into the slots it has left.
            bar = (ed, edit)
            need = MAX_SUGGESTIONS - sum(key < bar for key in ranks.values())
            if need > 0:
                for candidate in lexicon.first_at_distance(letters, ed, need, ranks):
                    ranks[candidate] = (*bar, candidate)
        kept = heapq.nsmallest(MAX_SUGGESTIONS, ranks.values())
        suggestions = tuple([Suggestion(c, _BY_PRIORITY[p], score) for score, p, c in kept])
        return TokenReport(word, Verdict.NON_WORD, suggestions)


# ---------------------------------------------------------------------- #


def _is_word_char(ch: str) -> bool:
    return ch in "_\u200c\u200d" or unicodedata.category(ch)[0] in "LMN"


# Word characters are letters, marks, digits, _ and the joiners.  A run is
# text free of the base code points that are not word characters, which
# are classified once here (unassigned Tamil-block points are not word
# characters).  A run may hold other code points that are not word
# characters either; ``_word_tokens`` turns those into spaces first.
_WORD_RUNS = re.compile("[^%s]+" % re.escape("".join(
    ch for ch in map(chr, _BASE_CODE_POINTS) if not _is_word_char(ch)
)))


def _word_tokens(text: str) -> list[str]:
    """The word tokens of NFC text: runs of letters, marks, digits, _ or joiners.

    Splitting on Unicode categories (not on ``\\w``) keeps Tamil combining
    marks glued to their consonants.  ZWNJ and ZWJ stay inside the word
    they sit in, so ``check_text`` sees the token ``check_word`` would be
    given.

    The text is normalized only when that could change it: a text that
    ``letters._known_nfc`` passes, of base code points alone with no
    composing pair, is split as it is, by ``_WORD_RUNS``.  Any other text
    is normalized, and then each other code point in it that is no word
    character becomes a space, which ends a run.
    """
    if not _known_nfc(text):
        text = unicodedata.normalize("NFC", text)
        text = _OTHER_CHARS.sub(lambda other: other[0] if _is_word_char(other[0]) else " ", text)
    return _WORD_RUNS.findall(text)


def load_parallel_dict(source) -> dict[str, str]:
    """Read ``foreign<TAB>tamil`` lines into a mapping, both fields NFC and keys case-folded."""
    mapping: dict[str, str] = {}
    for name, lineno, foreign, tamil in _data_fields(source, TamilSpellError, "foreign<TAB>tamil"):
        foreign = unicodedata.normalize("NFC", foreign.strip()).casefold()
        tamil = unicodedata.normalize("NFC", tamil.strip())
        if not foreign or not tamil:
            raise TamilSpellError(f"{name}:{lineno}: empty field")
        mapping[foreign] = tamil
    return mapping


def load_stop_words(source) -> frozenset[str]:
    """Read a stop list, as a word list is read, into a set of NFC words."""
    words = _listed_words((source,), TamilSpellError)
    return frozenset(unicodedata.normalize("NFC", word) for word in words)
