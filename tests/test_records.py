"""The four immutable records: Letter, SplitPair, CheckReport, EngineConfig.

Each is built by position and by keyword, compares and hashes by its
class and field values alone, keeps its repr, refuses every attribute
write, and survives pickle and copy as an equal record.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from tamilspell.checker import CheckReport, EngineConfig, TokenReport, Verdict
from tamilspell.cli import _build_parser
from tamilspell.conjoined import SplitKind, SplitPair
from tamilspell.letters import Letter, LetterKind

# (class, field values, other field values, repr of the first).
RECORDS = [
    (
        Letter,
        ("க", LetterKind.UYIRMEI),
        ("க்", LetterKind.MEI),
        "Letter(text='க', kind=<LetterKind.UYIRMEI: 'uyirmei'>)",
    ),
    (
        SplitPair,
        ("தென்றல்", "காற்று", SplitKind.PLAIN),
        ("க்", "அல்", SplitKind.OTTRU),
        "SplitPair(left='தென்றல்', right='காற்று', kind=<SplitKind.PLAIN: 'plain'>)",
    ),
    (
        CheckReport,
        ((TokenReport("பழம்", Verdict.VALID),),),
        ((),),
        "CheckReport(tokens=(TokenReport(token='பழம்', verdict=<Verdict.VALID: 'valid'>,"
        " suggestions=()),))",
    ),
    (EngineConfig, (3,), (2,), "EngineConfig(edit_distance=3)"),
]
FIELDS = {
    Letter: ("text", "kind"),
    SplitPair: ("left", "right", "kind"),
    CheckReport: ("tokens",),
    EngineConfig: ("edit_distance",),
}
by_record = pytest.mark.parametrize(
    "cls, values, other, text", RECORDS, ids=[cls.__name__ for cls, *_ in RECORDS]
)


@by_record
def test_built_by_position_and_by_keyword(cls, values, other, text):
    record = cls(*values)
    assert cls(**dict(zip(FIELDS[cls], values))) == record
    assert tuple(getattr(record, name) for name in FIELDS[cls]) == values
    assert cls.__match_args__ == FIELDS[cls]


@by_record
def test_equal_by_class_and_values_alone(cls, values, other, text):
    record, same, different = cls(*values), cls(*values), cls(*other)
    assert record == same and not record != same
    assert record != different and not record == different
    # A tuple of the same values is another class, so never equal.
    assert record != values and values != record and not record == values
    assert hash(record) == hash(same)
    assert len({record, same, different}) == 2


@by_record
def test_repr_names_class_and_fields(cls, values, other, text):
    assert repr(cls(*values)) == text


@by_record
def test_no_attribute_can_be_set_or_deleted(cls, values, other, text):
    # A frozen dataclass with slots raised TypeError for a new name on
    # Python 3.11; every name now raises AttributeError.
    record = cls(*values)
    for name in (*FIELDS[cls], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(*values) and not hasattr(record, "extra")


@by_record
def test_pickle_and_copy_give_an_equal_record(cls, values, other, text):
    record = cls(*values)
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(record, protocol))
        assert restored == record and type(restored) is cls
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record


def test_engine_config_default_is_two_at_class_level_and_on_the_command_line():
    # cli.py reads the class attribute as the --ed default.
    assert EngineConfig.edit_distance == 2
    assert EngineConfig() == EngineConfig(2)
    assert repr(EngineConfig()) == "EngineConfig(edit_distance=2)"
    assert _build_parser().parse_args([]).ed == 2


@by_record
def test_replace_builds_through_the_constructor(cls, values, other, text):
    # copy.replace, new in Python 3.13, calls __replace__; earlier
    # Pythons lack it, so there this calls __replace__ directly.
    replace = getattr(copy, "replace", cls.__replace__)
    record = cls(*values)
    assert replace(record) == record
    assert replace(record, **dict(zip(FIELDS[cls], other))) == cls(*other)
    with pytest.raises(TypeError):
        replace(record, extra=None)
    if cls is EngineConfig:
        for bad in (0, True, "2"):
            with pytest.raises((TypeError, ValueError)):
                replace(record, edit_distance=bad)
