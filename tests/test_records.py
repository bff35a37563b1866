"""The contract of the package's records: equality by class and fields,
hashing, immutability, pickle and copy, the printed form, and the checks
and defaults of the records that take them."""

import copy
import pickle
import re
from fractions import Fraction

import mpmath as mp
import pytest

from tsums.exact import PiPower
from tsums.formulas import (BernoulliEulerResult, CoeffRow, DepthSumResult, TTable,
                            bernoulli_euler_check, depth_sum_identity)
from tsums.oracle import DEFAULT_TERMS, PrecReal, TruncationParams

# Each frozen record: a maker of a fresh instance, its field names, and its
# repr, pinned as the records printed when they were dataclasses.
RECORDS = {
    "PiPower": (lambda: PiPower(Fraction(1, 3840), 6), ("coeff", "pi_exp"),
                "PiPower(coeff=Fraction(1, 3840), pi_exp=6)"),
    "PrecReal": (lambda: PrecReal(mp.mpf("1.5"), mp.mpf("0.25")), ("value", "err"),
                 "PrecReal(value=mpf('1.5'), err=mpf('0.25'))"),
    "TruncationParams": (lambda: TruncationParams(terms=200), ("terms", "tail_order"),
                         "TruncationParams(terms=200, tail_order=1)"),
    "TTable": (lambda: TTable(2, {(1, 1): PiPower(Fraction(1, 8), 2)}), ("max_n", "entries"),
               "TTable(max_n=2, entries={(1, 1): PiPower(coeff=Fraction(1, 8), pi_exp=2)})"),
    "CoeffRow": (lambda: CoeffRow(3, ((0, Fraction(1, 8)), (1, Fraction(-1, 12)))),
                 ("depth", "pairs"),
                 "CoeffRow(depth=3, pairs=((0, Fraction(1, 8)), (1, Fraction(-1, 12))))"),
    "DepthSumResult": (lambda: depth_sum_identity(2), ("lhs", "rhs", "equal"),
                       "DepthSumResult(lhs=PiPower(coeff=Fraction(5, 384), pi_exp=4), "
                       "rhs=PiPower(coeff=Fraction(5, 384), pi_exp=4), equal=True)"),
    "BernoulliEulerResult": (lambda: bernoulli_euler_check(2, 1),
                             ("n", "d", "case", "lhs", "rhs", "passed"),
                             "BernoulliEulerResult(n=2, d=1, case='d<=n', lhs=Fraction(-1, 4), "
                             "rhs=Fraction(-1, 4), passed=True)"),
}
# A dict field makes a record unhashable, as a tuple holding a dict is.
UNHASHABLE = {"TTable"}


def fields(record, names):
    return tuple(getattr(record, name) for name in names)


@pytest.mark.parametrize("name", RECORDS)
def test_repr_is_pinned(name):
    make, _, text = RECORDS[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", RECORDS)
def test_equality_goes_by_class_and_fields(name):
    make, names, _ = RECORDS[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    # Not a tuple of the same fields, in either order of comparison.
    values = fields(a, names)
    assert a != values and values != a
    # Not a subclass instance with the same fields.
    other = type(name, (type(a),), {})(*values)
    assert fields(other, names) == values and a != other and other != a


@pytest.mark.parametrize("a, b", [
    (PiPower(1, 0), TruncationParams(1, 0)),
    (TruncationParams(1, 0), PrecReal(1, 0)),
    (TTable(3, ()), CoeffRow(3, ())),
])
def test_records_of_two_classes_with_equal_fields_differ(a, b):
    assert (a.__class__ is not b.__class__) and a != b and b != a


@pytest.mark.parametrize("name", RECORDS)
def test_equal_records_hash_equal(name):
    make = RECORDS[name][0]
    a, b = make(), make()
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned_or_deleted(name):
    make, names, _ = RECORDS[name]
    record = make()
    before = fields(record, names)
    for field in names:
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 0
    assert fields(record, names) == before


@pytest.mark.parametrize("name", RECORDS)
@pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.copy,
                                   copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
def test_pickle_and_copy_round_trip(name, clone):
    make, names, text = RECORDS[name]
    record = make()
    twin = clone(record)
    assert type(twin) is type(record) and twin == record and repr(twin) == text
    assert fields(twin, names) == fields(record, names)


class TestTruncationParams:
    def test_defaults(self):
        params = TruncationParams()
        assert (params.terms, params.tail_order) == (DEFAULT_TERMS, 1)
        assert params == TruncationParams(DEFAULT_TERMS, 1)

    def test_keyword_and_positional_forms(self):
        assert (TruncationParams(50) == TruncationParams(terms=50)
                == TruncationParams(50, 1) == TruncationParams(tail_order=1, terms=50))
        assert TruncationParams(50, 0) == TruncationParams(terms=50, tail_order=0)
        assert TruncationParams(tail_order=0) == TruncationParams(DEFAULT_TERMS, 0)

    def test_fields_are_plain_ints(self):
        class Index:
            def __index__(self):
                return 50

        params = TruncationParams(Index(), 1)
        assert type(params.terms) is int and params == TruncationParams(50, 1)

    @pytest.mark.parametrize("kwargs, error, message", [
        ({"terms": 0}, ValueError, "terms must be >= 1, got 0"),
        ({"tail_order": 2}, ValueError, "tail_order must be 0 or 1, got 2"),
        ({"terms": True}, TypeError, "expected an integer, got True"),
        ({"tail_order": True}, TypeError, "expected an integer, got True"),
        ({"terms": 2.5}, TypeError, "'float' object cannot be interpreted as an integer"),
        ({"tail_order": 1.0}, TypeError, "'float' object cannot be interpreted as an integer"),
    ])
    def test_refusals(self, kwargs, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            TruncationParams(**kwargs)


class TestPiPower:
    @pytest.mark.parametrize("args, error, message", [
        ((0.1, 2), TypeError, "PiPower coefficient must be exact, got float 0.1"),
        ((Fraction(1, 6), True), TypeError, "pi exponent must be an integer, got True"),
        ((Fraction(1, 6), 2.0), TypeError, "'float' object cannot be interpreted as an integer"),
        ((Fraction(1), 3), ValueError, "pi exponent must be even and >= 0, got 3"),
        ((Fraction(1), -2), ValueError, "pi exponent must be even and >= 0, got -2"),
        ((0, 3), ValueError, "pi exponent must be even and >= 0, got 3"),
    ])
    def test_refusals(self, args, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            PiPower(*args)

    def test_zero_has_exponent_zero(self):
        for zero in (PiPower(0, 4), PiPower(Fraction(0), 6), PiPower(coeff=0, pi_exp=2)):
            assert (zero.coeff, zero.pi_exp) == (Fraction(0), 0)
            assert type(zero.coeff) is Fraction and zero == PiPower.zero()

    def test_fields_are_a_fraction_and_an_int(self):
        value = PiPower(3, 2)
        assert type(value.coeff) is Fraction and type(value.pi_exp) is int
        assert value == 3 * PiPower(1, 2) == PiPower(coeff=3, pi_exp=2)
        assert PiPower(5) == PiPower(Fraction(5), 0)
