"""Tamil spelling correction.

The pipeline: :mod:`~tamilspell.letters` models the script (letters, not
code points), :mod:`~tamilspell.lexicon` holds known words in a trie, and
four strategies generate corrections for a non-word: generic letter edits
(:mod:`~tamilspell.edits`), confusable-series substitution
(:mod:`~tamilspell.mayangoli`), conjoined-word splitting
(:mod:`~tamilspell.conjoined`) and keyboard-adjacency patterns
(:mod:`~tamilspell.keyboard`).  :class:`~tamilspell.checker.SpellChecker`
drives them and merges the results; :mod:`~tamilspell.cli` is the
command-line front end.
"""

from .checker import (
    CheckReport,
    EngineConfig,
    SpellChecker,
    Strategy,
    Suggestion,
    TokenReport,
    Verdict,
    load_parallel_dict,
    load_stop_words,
)
from .errors import MatrixFormatError, TamilSpellError, WordListError
from .keyboard import ConfusionMatrix, load_confusion_matrix
from .letters import (
    Letter,
    LetterKind,
    is_tamil_codepoint,
    join_mei_uyir,
    split_mei_uyir,
    tokenize,
)
from .lexicon import Lexicon, load_wordlist

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "ConfusionMatrix",
    "EngineConfig",
    "Letter",
    "LetterKind",
    "Lexicon",
    "MatrixFormatError",
    "SpellChecker",
    "Strategy",
    "Suggestion",
    "TamilSpellError",
    "TokenReport",
    "Verdict",
    "WordListError",
    "__version__",
    "is_tamil_codepoint",
    "join_mei_uyir",
    "load_confusion_matrix",
    "load_parallel_dict",
    "load_stop_words",
    "load_wordlist",
    "split_mei_uyir",
    "tokenize",
]
