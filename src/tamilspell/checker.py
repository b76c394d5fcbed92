"""The checking driver: validate tokens, merge strategy suggestions.

Every token takes one route, whether it comes from ``check_word`` or
``check_text``: a token with no Tamil code point goes to the parallel
dictionary, a stop word is skipped, a token the lexicon knows is valid,
and anything else goes through every correction strategy and the results
are merged.

Conjoined-split recognition outranks confusable-series substitution,
which outranks keyboard-adjacency patterns, which outrank generic edit
candidates; within the merged list candidates sort by letter-level edit
distance to the input (a recognized conjoined pair scores 0), then
strategy priority, then code-point order.  The edit strategy returns
every lexicon word within ``edit_distance``, with its distance.

Suggestion lists are memoized per engine.  The cache is single-flight:
when several threads miss on the same word at once, one computes and the
rest wait for its result, so a word is never computed twice.  Document
checking can therefore fan out across a thread pool (``workers`` in the
config) and still produce byte-identical reports for any worker count.
"""

from __future__ import annotations

import json
import threading
import unicodedata
from collections.abc import Iterable, Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from . import conjoined, edits, keyboard, mayangoli
from .edits import letter_edit_distance
from .errors import TamilSpellError
from .letters import has_tamil, tokenize
from .suggestion import Strategy, Suggestion

__all__ = [
    "CheckReport",
    "EngineConfig",
    "SpellChecker",
    "SuggestionCache",
    "TokenReport",
    "Verdict",
    "load_parallel_dict",
    "load_stop_words",
]


class Verdict(Enum):
    VALID = "valid"
    NON_WORD = "nonword"
    NON_TAMIL = "nontamil"
    SKIPPED = "skipped"


@dataclass(frozen=True, slots=True)
class TokenReport:
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

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.as_dicts(), ensure_ascii=False, indent=indent)


@dataclass(frozen=True)
class EngineConfig:
    """Tunables for a :class:`SpellChecker`.

    ``max_suggestions`` caps the merged list handed back per token.
    """

    edit_distance: int = 2
    max_suggestions: int = 10
    workers: int = 1
    cache_enabled: bool = True

    def __post_init__(self):
        if self.edit_distance < 1:
            raise ValueError("edit_distance must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_suggestions < 0:
            raise ValueError("max_suggestions must be >= 0")


class _Pending:
    __slots__ = ("event", "value", "error")

    def __init__(self):
        self.event = threading.Event()
        self.value: tuple | None = None
        self.error: BaseException | None = None


class SuggestionCache:
    """Single-flight memo of word -> suggestion tuple, with hit counters.

    Concurrent misses on one key coalesce: the first caller computes, the
    others block on its event and share the result object, so hits always
    return the identical tuple and the computation runs exactly once.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._entries: dict[str, _Pending] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def get_or_compute(self, key: str, compute):
        if not self.enabled:
            with self._lock:
                self.misses += 1
            return compute()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = _Pending()
                self._entries[key] = entry
                self.misses += 1
                owner = True
            else:
                self.hits += 1
                owner = False
        if owner:
            try:
                entry.value = compute()
            except BaseException as exc:
                entry.error = exc
                with self._lock:
                    self._entries.pop(key, None)  # never cache a failure
                entry.event.set()
                raise
            entry.event.set()
            return entry.value
        entry.event.wait()
        if entry.error is not None:
            raise entry.error
        return entry.value


class SpellChecker:
    """Two-step checker over a lexicon, with pluggable strategy inputs.

    ``confusion_matrix=None`` loads the bundled keyboard-adjacency matrix;
    pass an empty :class:`~tamilspell.keyboard.ConfusionMatrix` to disable
    the keyboard strategy.  ``ranker`` may reorder the merged suggestion
    list (word, suggestions) -> suggestions before it is capped.
    """

    def __init__(
        self,
        lexicon,
        *,
        config: EngineConfig | None = None,
        confusion_matrix: keyboard.ConfusionMatrix | None = None,
        series_table: mayangoli.SeriesTable | None = None,
        parallel_dict: Mapping[str, str] | None = None,
        stop_words: Iterable[str] = (),
        ranker=None,
    ):
        from .bundled import bundled_confusion_matrix

        self.lexicon = lexicon
        self.config = config or EngineConfig()
        self.confusion_matrix = (
            confusion_matrix if confusion_matrix is not None else bundled_confusion_matrix()
        )
        self.series_table = series_table or mayangoli.SeriesTable()
        self.parallel_dict = {
            k.casefold(): v for k, v in (parallel_dict or {}).items()
        }
        self.stop_words = frozenset(
            unicodedata.normalize("NFC", w) for w in stop_words
        )
        self.ranker = ranker
        self.cache = SuggestionCache(enabled=self.config.cache_enabled)
        self.suggestion_computations = 0
        self._counter_lock = threading.Lock()

    # ------------------------------------------------------------------ #

    def check_word(self, word: str) -> TokenReport:
        """Check one token, with the verdict ``check_text`` would give it."""
        token = unicodedata.normalize("NFC", word)
        report = self._route(token)
        if report is None:
            report = TokenReport(token, Verdict.NON_WORD, self._suggestions_for(token))
        return report

    def check_text(self, text: str) -> CheckReport:
        """Check a document; the report lists every token in order.

        Non-word suggestion lists are computed on ``config.workers``
        threads when that is above one.
        """
        text = unicodedata.normalize("NFC", text)
        tokens = _word_tokens(text)
        reports: list[TokenReport | None] = [None] * len(tokens)
        pending: list[tuple[int, str]] = []
        for i, tok in enumerate(tokens):
            reports[i] = self._route(tok)
            if reports[i] is None:
                pending.append((i, tok))
        if pending:
            self._fill_non_words(reports, pending)
        return CheckReport(tuple(reports))  # type: ignore[arg-type]

    def substitute_foreign(self, token: str) -> Suggestion | None:
        """Parallel-dictionary lookup for a non-Tamil token (case-folded)."""
        replacement = self.parallel_dict.get(token.casefold())
        if replacement is None:
            return None
        return Suggestion(replacement, Strategy.FOREIGN, 0)

    @property
    def stats(self) -> dict:
        return {
            "cache_enabled": self.cache.enabled,
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "suggestion_computations": self.suggestion_computations,
        }

    # ------------------------------------------------------------------ #

    def _route(self, token: str) -> TokenReport | None:
        """The report of a token no strategy needs to see, else None.

        A token without a Tamil code point goes to the parallel
        dictionary, a stop word is skipped and a known word is valid.
        """
        if not has_tamil(token):
            sub = self.substitute_foreign(token)
            return TokenReport(token, Verdict.NON_TAMIL, (sub,) if sub else ())
        if token in self.stop_words:
            return TokenReport(token, Verdict.SKIPPED, ())
        if self.lexicon.is_word(token):
            return TokenReport(token, Verdict.VALID, ())
        return None

    def _fill_non_words(self, reports, pending) -> None:
        workers = self.config.workers
        if workers <= 1:
            for i, tok in pending:
                reports[i] = TokenReport(tok, Verdict.NON_WORD, self._suggestions_for(tok))
            return
        if self.cache.enabled:
            # One task per distinct word; occurrences share the result.
            order: dict[str, list[int]] = {}
            for i, tok in pending:
                order.setdefault(tok, []).append(i)
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = {word: pool.submit(self._suggestions_for, word) for word in order}
                for word, indices in order.items():
                    suggestions = futures[word].result()
                    for i in indices:
                        reports[i] = TokenReport(word, Verdict.NON_WORD, suggestions)
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [
                    (i, tok, pool.submit(self._suggestions_for, tok)) for i, tok in pending
                ]
                for i, tok, fut in futures:
                    reports[i] = TokenReport(tok, Verdict.NON_WORD, fut.result())

    def _suggestions_for(self, word: str) -> tuple[Suggestion, ...]:
        return self.cache.get_or_compute(word, lambda: self._compute_suggestions(word))

    def _compute_suggestions(self, word: str) -> tuple[Suggestion, ...]:
        with self._counter_lock:
            self.suggestion_computations += 1
        letters = tuple(lt.text for lt in tokenize(word))
        merged: dict[str, Suggestion] = {}

        def merge(candidate: str, strategy: Strategy, score: int) -> None:
            prev = merged.get(candidate)
            if prev is None or (score, strategy.priority) < (prev.score, prev.strategy.priority):
                merged[candidate] = Suggestion(candidate, strategy, score)

        for pair in conjoined.recognize(word, self.lexicon):
            merge(f"{pair.left} {pair.right}", Strategy.CONJOINED, 0)
        for sug in mayangoli.suggest(word, self.lexicon, self.series_table):
            merge(sug.candidate, Strategy.MAYANGOLI, letter_edit_distance(word, sug.candidate))
        if letters:
            ed = min(self.config.edit_distance, len(letters))
            for sug in keyboard.corrections(word, self.lexicon, self.confusion_matrix, ed):
                merge(sug.candidate, Strategy.KEYBOARD, letter_edit_distance(word, sug.candidate))
            for sug in edits.suggest(word, self.lexicon, nedits=self.config.edit_distance):
                merge(sug.candidate, Strategy.EDIT, sug.score)
        ranked = sorted(
            merged.values(), key=lambda s: (s.score, s.strategy.priority, s.candidate)
        )
        if self.ranker is not None:
            ranked = list(self.ranker(word, ranked))
        return tuple(ranked[: self.config.max_suggestions])


# ---------------------------------------------------------------------- #


def _word_tokens(text: str) -> list[str]:
    """Split text into word tokens: runs of letters, marks, digits, or _.

    Splitting on Unicode categories (not on a word regex) keeps Tamil
    combining marks glued to their consonants.
    """
    tokens: list[str] = []
    current: list[str] = []
    for ch in text:
        if ch == "_" or unicodedata.category(ch)[0] in "LMN":
            current.append(ch)
        elif current:
            tokens.append("".join(current))
            current = []
    if current:
        tokens.append("".join(current))
    return tokens


def load_parallel_dict(source) -> dict[str, str]:
    """Read ``foreign<TAB>tamil`` lines into a case-folded mapping."""
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            lines = fh.readlines()
        name = str(source)
    else:
        lines = list(source)
        name = getattr(source, "name", "<stream>")
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if "\t" not in line:
            raise TamilSpellError(f"{name}:{lineno}: expected 'foreign<TAB>tamil'")
        foreign, tamil = line.split("\t", 1)
        foreign = foreign.strip().casefold()
        tamil = unicodedata.normalize("NFC", tamil.strip())
        if not foreign or not tamil:
            raise TamilSpellError(f"{name}:{lineno}: empty field")
        mapping[foreign] = tamil
    return mapping


def load_stop_words(source) -> frozenset[str]:
    """Read a stop list: one word per line, ``#`` comments allowed."""
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            lines = fh.readlines()
    else:
        lines = list(source)
    words = set()
    for raw in lines:
        word = raw.strip()
        if word and not word.startswith("#"):
            words.add(unicodedata.normalize("NFC", word))
    return frozenset(words)
