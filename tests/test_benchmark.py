"""Benchmark output sanity: the CSVs parse and their numbers hold up."""

from __future__ import annotations

import csv
import io

from tamilspell.benchmark import _full_lattice_count, run_pruning
from tamilspell.letters import tokenize


def test_pruning_csv_shape_and_bounds():
    out = io.StringIO()
    run_pruning(words=10, ed=2, seed=13, out=out)
    rows = list(csv.DictReader(io.StringIO(out.getvalue())))
    assert rows
    for row in rows:
        assert int(row["word_length"]) == len(tokenize(row["word"]))
        pruned = int(row["pruned_count"])
        lattice = int(row["lattice_count"])
        assert 1 <= int(row["ed"]) <= 2
        assert 0 <= pruned <= lattice
        # The confusion matrix offers a handful of neighbours per key, far
        # fewer than the alphabet, so pruning always bites.
        assert pruned < lattice


def test_pruning_is_deterministic():
    first, second = io.StringIO(), io.StringIO()
    run_pruning(words=5, ed=2, seed=13, out=first)
    run_pruning(words=5, ed=2, seed=13, out=second)
    assert first.getvalue() == second.getvalue()


def test_full_lattice_count_matches_hand_formula():
    # Two in-table letters, alphabet 247: ed 1 counts 2*246, ed 2 adds 246^2.
    assert _full_lattice_count("கப", 1) == 2 * 246
    assert _full_lattice_count("கப", 2) == 2 * 246 + 246 * 246


def test_full_lattice_count_off_table_letter():
    # "x" is not in the table, so that position offers all 247 letters.
    assert _full_lattice_count("xக", 1) == 247 + 246
