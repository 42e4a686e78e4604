"""The package's values are immutable, and so are the arrays they hold.

Every value class stores its fields through one private base: assigning
or deleting any field raises ``AttributeError("<ClassName> is immutable")``,
and each array a value holds, also inside a noise pair, is a read-only
copy, so writing into an array or list the caller passed in changes no
value.
"""

import numpy as np
import pytest

from extgauss import extended as E
from extgauss import gauss, linrel
from extgauss.decorated import CovDec, DecoratedMap, DecoratedRelation, PairDec, PointDec
from extgauss.subspace import Subspace

_U = Subspace.span([[1.0, 1.0]])
_PAIR = PairDec(PointDec(), CovDec())
_PSI = E.ExtendedGaussian(_U, [1.0, 2.0], np.eye(2))

# one value of each public value class
VALUES = [
    _U,
    gauss.GaussianMap(np.eye(2), [1.0, 2.0], np.eye(2)),
    gauss.AffineSupportMap(np.eye(2), [1.0, 2.0], _U),
    linrel.LinearRelation.from_matrix([[1.0, 2.0]]),
    linrel.QuotientForm(_U, np.eye(2)),
    linrel.AffineRelation.from_affine_map([[1.0, 2.0]], [3.0]),
    linrel.AffineQuotientForm(_U, np.eye(2), [1.0, 2.0]),
    DecoratedMap(_PAIR, np.eye(2), (np.ones(2), np.eye(2))),
    DecoratedRelation(_PAIR, _U, np.eye(2), (np.ones(2), np.eye(2))),
    E.ExtendedGaussianMap(_U, np.eye(2), [1.0, 2.0], np.eye(2)),
    _PSI,
    E.to_precision(_PSI),
    E.covariance_rep(_PSI),
]


def _slots(value):
    return [s for cls in type(value).__mro__ for s in vars(cls).get("__slots__", ())]


def _arrays(field):
    if isinstance(field, tuple):
        for item in field:
            yield from _arrays(item)
    elif isinstance(field, np.ndarray):
        yield field
    elif isinstance(field, Subspace):
        yield field.basis


def test_every_value_class_is_covered():
    assert len({type(v) for v in VALUES}) == len(VALUES) == 13


def test_repr_names_the_class_and_its_dimensions():
    assert [repr(v) for v in VALUES] == [
        "Subspace(ambient_dim=2, dim=1)",
        "GaussianMap(2 -> 2)",
        "AffineSupportMap(2 -> 2, noise dim 1)",
        "LinearRelation(2 -> 1)",
        "QuotientForm(2 -> 2, noise dim 1)",
        "AffineRelation(2 -> 1)",
        "AffineQuotientForm(2 -> 2, noise dim 1)",
        "DecoratedMap(2 -> 2, PairDec)",
        "DecoratedRelation(2 -> 2, PairDec, nondet dim 1)",
        "ExtendedGaussianMap(2 -> 2, PairDec, nondet dim 1)",
        "ExtendedGaussian(dim=2, nondet dim 1)",
        "PrecisionRep(ambient 2, support dim 2)",
        "CovarianceRep(ambient 2, dual support dim 1)",
    ]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_fields_cannot_be_assigned_and_arrays_are_read_only(value):
    name = type(value).__name__
    slots = _slots(value)
    assert slots
    for slot in slots + ["not_a_field"]:
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(value, slot, None)
    arrays = [a for slot in slots for a in _arrays(getattr(value, slot))]
    assert arrays
    for array in arrays:
        assert array.dtype == np.float64 and not array.flags.writeable


@pytest.mark.parametrize("dec, noise", [
    (PointDec(), np.array([1.0, 2.0])),
    (CovDec(), np.eye(2)),
], ids=["PointDec", "CovDec"])
def test_decorated_map_keeps_its_own_arrays(dec, noise):
    lin = np.eye(2)
    m = DecoratedMap(dec, lin, noise)
    want_lin, want_noise = lin.copy(), noise.copy()
    lin[0, 0] = 5.0
    noise[0] = 7.0
    assert np.array_equal(m.lin, want_lin) and np.array_equal(m.noise, want_noise)
    assert not m.lin.flags.writeable and not m.noise.flags.writeable


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_fields_cannot_be_deleted(value):
    name = type(value).__name__
    for slot in _slots(value):
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            delattr(value, slot)
        getattr(value, slot)  # still there


@pytest.mark.parametrize("dec, noise", [
    (PointDec(), [1.0, 2.0]),
    (CovDec(), [[1.0, 0.0], [0.0, 1.0]]),
    (_PAIR, ([1.0, 2.0], [[1.0, 0.0], [0.0, 1.0]])),
], ids=["PointDec", "CovDec", "PairDec"])
def test_list_noise_is_stored_as_a_read_only_array(dec, noise):
    m = DecoratedMap(dec, np.eye(2), noise)
    pair = isinstance(noise, tuple)
    for given, array in zip(noise if pair else (noise,), m.noise if pair else (m.noise,)):
        assert isinstance(array, np.ndarray) and not array.flags.writeable
        want = np.array(given)
        given[0] = 7.0
        assert np.array_equal(array, want)
