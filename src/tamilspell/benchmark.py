"""Lattice pruning ratios of the keyboard strategy.

``python -m tamilspell.benchmark`` writes a CSV of how far the confusion
matrix prunes the substitution lattice (columns word, word_length, ed,
pruned_count, lattice_count).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import random
import sys

from .bundled import bundled_confusion_matrix, bundled_lexicon
from .keyboard import generate_patterns
from .letters import alphabet, tokenize


def _sample_words(count: int, seed: int) -> list[str]:
    """Deterministic sample of lexicon words, longest-first variety."""
    rng = random.Random(seed)
    words = sorted(bundled_lexicon().words())
    rng.shuffle(words)
    return words[:count]


def _full_lattice_count(word: str, ed: int) -> int:
    """Candidates an unpruned lattice would enumerate for this word.

    Every subset of up to ``ed`` positions is substituted; a position has
    one choice per alphabet letter other than the letter already there.
    """
    letters = [lt.text for lt in tokenize(word)]
    table = alphabet()
    choices = [len(table) - (1 if lt in table.letters else 0) for lt in letters]
    total = 0
    for k in range(1, ed + 1):
        for positions in itertools.combinations(range(len(letters)), k):
            product = 1
            for p in positions:
                product *= choices[p]
            total += product
    return total


def run_pruning(words: int, ed: int, seed: int, out=None) -> None:
    """CSV of pruned-vs-full lattice sizes over sampled lexicon words."""
    matrix = bundled_confusion_matrix()
    writer = csv.writer(out or sys.stdout)
    writer.writerow(["word", "word_length", "ed", "pruned_count", "lattice_count"])
    for word in _sample_words(words, seed):
        n = len(tokenize(word))
        for budget in range(1, min(ed, n) + 1):
            pruned = len(generate_patterns(word, matrix, budget))
            full = _full_lattice_count(word, budget)
            writer.writerow([word, n, budget, pruned, full])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tamilspell.benchmark",
        description="Pruning-ratio CSV of the keyboard substitution lattice.",
    )
    parser.add_argument("--words", type=int, default=25, help="lexicon words to sample")
    parser.add_argument("--ed", type=int, default=2, help="substitution budget upper bound")
    parser.add_argument("--seed", type=int, default=13, help="sampling seed")
    args = parser.parse_args(argv)
    run_pruning(args.words, args.ed, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
