"""Set up one engine the way a user would, answer one word, report, exit.

``run.py`` starts this as a fresh process per ``setup_s`` sample, so each
sample pays for the interpreter, ``import tamilspell``, loading the
lexicon, matrix and parallel dictionary, and constructing the engine.

Usage: ``python3 setup_child.py SRC_DIR PROBE_WORD [WORDLIST]``; without a
word list the bundled lexicon is used.  Prints one JSON line with the
probe's verdict and the peak RSS before and after the lexicon load.
"""

import json
import os
import resource
import sys

sys.path.insert(0, sys.argv[1])

from tamilspell import EngineConfig, SpellChecker, load_wordlist  # noqa: E402
from tamilspell.bundled import bundled_lexicon, bundled_parallel_dict  # noqa: E402


def _peak_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


before = _peak_kb()
lexicon = load_wordlist(sys.argv[3]) if len(sys.argv) > 3 else bundled_lexicon()
after = _peak_kb()
engine = SpellChecker(lexicon, config=EngineConfig(), parallel_dict=bundled_parallel_dict())
report = engine.check_word(sys.argv[2])
print(json.dumps({"verdict": report.verdict.value, "rss_before_kb": before, "rss_after_kb": after}))
sys.stdout.flush()
# The parent has its sample; skip tearing down a large lexicon.
os._exit(0)
