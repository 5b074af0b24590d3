"""The value-record contract the model, claims and validation classes share:
class-sensitive equality, immutability, ``Claim`` identity outside
equality, exact reprs and binding errors; and start-up that loads no
module for generating classes."""

from __future__ import annotations

import os
import subprocess
import sys
from datetime import date, datetime, timezone
from decimal import Decimal
from pathlib import Path

import pytest

from polare.claims import Claim
from polare.model import (
    Group,
    Membership,
    Participation,
    Person,
    Proposition,
    Recommendation,
    TimeInterval,
    Transaction,
    Vote,
)
from polare.validation import Violation

SRC = Path(__file__).resolve().parent.parent / "src"
T0 = datetime(2020, 1, 1, tzinfo=timezone.utc)
TRIPLE = ("<http://x/s>", "<http://x/p>", "<http://x/o>")


def frozen_values():
    """(value, a field of it) for one record of each kind that refuses change."""
    return [
        (Person("x:a", "A"), "name"),
        (Membership("x:m", "x:a", "x:p", TimeInterval(date(2015, 1, 1), None)), "interval"),
        (TimeInterval(date(2015, 1, 1), date(2016, 1, 1)), "start"),
        (Claim("x:a", "s", T0, (TRIPLE,)), "assertion"),
        (Violation("CODE", "warn", "x:a", (), "message"), "focus"),
    ]


class TestEquality:
    # Vote and Recommendation both hold four ids; their fields may be equal
    VALUES = ("x:v", "x:e", "x:r", "x:c")

    def test_equal_fields_of_two_classes_differ(self):
        vote, rec = Vote(*self.VALUES), Recommendation(*self.VALUES)
        assert vote != rec and not vote == rec
        assert len({vote, rec}) == 2
        assert {vote: 1, rec: 2}[Vote(*self.VALUES)] == 1

    def test_equal_records_hash_alike(self):
        assert Vote(*self.VALUES) == Vote(*self.VALUES)
        assert hash(Vote(*self.VALUES)) == hash(Vote(*self.VALUES))
        assert Vote(*self.VALUES) != Vote(*self.VALUES[:3], "x:d")

    def test_a_tuple_of_the_fields_differs(self):
        assert Person("x:a", "A") != ("x:a", "A")
        assert Participation("x:a", "x:r") != ("x:a", "x:r")
        assert TimeInterval() != (None, None)
        assert (None, None) != TimeInterval()
        assert len({TimeInterval(), (None, None)}) == 2

    def test_claim_equality_ignores_the_id(self):
        built = Claim("x:a", "s", T0, (TRIPLE,))
        vouched = Claim("x:a", "s", T0, (TRIPLE,), "urn:claim:other")
        assert vouched.id == "urn:claim:other" != built.id
        assert built == vouched and hash(built) == hash(vouched)
        assert built != Claim("x:b", "s", T0, (TRIPLE,))


class TestImmutability:
    @pytest.mark.parametrize("value, attr", frozen_values(), ids=lambda v: type(v).__name__)
    def test_assignment_refused(self, value, attr):
        before = getattr(value, attr)
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{attr}'$"):
            setattr(value, attr, before)
        with pytest.raises(AttributeError, match="^cannot assign to field 'other'$"):
            value.other = 1
        assert getattr(value, attr) is before

    @pytest.mark.parametrize("value, attr", frozen_values(), ids=lambda v: type(v).__name__)
    def test_deletion_refused(self, value, attr):
        with pytest.raises(AttributeError, match=f"^cannot delete field '{attr}'$"):
            delattr(value, attr)
        assert getattr(value, attr) is not None


class TestRepr:
    def test_plain(self):
        assert repr(Person("x:a", "A")) == "Person(id='x:a', name='A')"

    def test_interval(self):
        m = Membership("x:m", "x:a", "x:p", TimeInterval(date(2015, 1, 1), None))
        assert repr(m) == (
            "Membership(id='x:m', person='x:a', post='x:p', "
            "interval=TimeInterval(start=datetime.date(2015, 1, 1), end=None))"
        )

    def test_participants(self):
        t = Transaction(
            "x:t", [("x:b", "x:r"), ("x:a", "x:r")], "x:o", "1.50", "EUR", date(2016, 2, 3)
        )
        assert repr(t) == (
            "Transaction(id='x:t', participants=(Participation(agent='x:a', role='x:r'), "
            "Participation(agent='x:b', role='x:r')), object='x:o', amount=Decimal('1.50'), "
            "currency='EUR', date=datetime.date(2016, 2, 3))"
        )
        assert t.amount == Decimal("1.50")

    def test_multi_valued(self):
        assert repr(Proposition("x:p", ["x:b", "x:a", "x:b"])) == (
            "Proposition(id='x:p', creators=('x:a', 'x:b'), title=None)"
        )
        assert repr(Group("x:g", "G", ["x:a"])) == (
            "Group(id='x:g', name='G', members=frozenset({'x:a'}))"
        )

    def test_claim_shows_its_id(self):
        c = Claim("x:a", "s", T0, (TRIPLE,), "urn:claim:x")
        assert repr(c) == (
            "Claim(asserter='x:a', source='s', timestamp=datetime.datetime(2020, 1, 1, 0, 0, "
            "tzinfo=datetime.timezone.utc), assertion=(('<http://x/s>', '<http://x/p>', "
            "'<http://x/o>'),), id='urn:claim:x')"
        )


class TestBinding:
    def test_keywords_and_defaults(self):
        assert Person(name="A", id="x:a") == Person("x:a", "A")
        assert Membership("x:m", person="x:a", post="x:p").interval == TimeInterval()
        assert TimeInterval(end=date(2015, 1, 1)) == TimeInterval(None, date(2015, 1, 1))

    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            (("x:a",), {}, "Person.__init__() missing 1 required positional argument: 'name'"),
            ((), {}, "Person.__init__() missing 2 required positional arguments: 'id' and 'name'"),
            (("x:a", "A", "B"), {}, "Person.__init__() takes 3 positional arguments but 4 were given"),
            (("x:a", "A"), {"nam": "B"}, "Person.__init__() got an unexpected keyword argument 'nam'"),
            (("x:a", "A"), {"name": "B"}, "Person.__init__() got multiple values for argument 'name'"),
        ],
    )
    def test_bad_calls_fail_as_a_dataclass_would(self, args, kwargs, message):
        with pytest.raises(TypeError) as exc:
            Person(*args, **kwargs)
        assert str(exc.value) == message

    def test_missing_arguments_are_listed(self):
        message = (
            "Membership.__init__() missing 3 required positional arguments: "
            "'id', 'person', and 'post'"
        )
        with pytest.raises(TypeError) as exc:
            Membership()
        assert str(exc.value) == message


# -- start-up --------------------------------------------------------------------

#: modules that only a class generator needs; importing them costs
#: milliseconds in every command
CLASS_GENERATION = ("dataclasses", "inspect")


def imported_modules(*argv: str) -> set:
    """Every module a fresh interpreter imports while running ``argv``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }


@pytest.mark.parametrize(
    "argv", [("-c", "import polare.cli"), ("-m", "polare", "--help")], ids=["import", "help"]
)
def test_start_up_loads_no_class_generator(argv):
    modules = imported_modules(*argv)
    assert "polare.model" in modules
    assert sorted(modules & set(CLASS_GENERATION)) == []
