"""The per-point and per-fit records: frozen dataclasses.

The records built per point or per level (MeasuredPoint, Residual,
ValidationRow, QueueParams, QueueSolution) have a hand-written __init__;
the records built once per fit (UslParams, FitResult) have the generated
one.  Each must behave as a generated frozen __init__: the same checks
and messages, no assignment, and the generated eq, hash and repr.
"""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from uslkit import (
    Dataset,
    DomainError,
    FitResult,
    MeasuredPoint,
    QueueParams,
    QueueSolution,
    Residual,
    RunSeries,
    UslParams,
)
from uslkit.validation import ValidationRow

PARAMS = UslParams(0.05, 1e-4, 120.0)
RESIDUAL = Residual(4.0, 390.0, 391.5, -1.5)

# one instance of each record, with the repr the generated methods give it
RECORDS = [
    (MeasuredPoint(2.0, 10.0), "MeasuredPoint(n=2.0, x=10.0)"),
    (UslParams(0.05, 1e-4), "UslParams(alpha=0.05, beta=0.0001, x1=None)"),
    (PARAMS, "UslParams(alpha=0.05, beta=0.0001, x1=120.0)"),
    (RESIDUAL, "Residual(n=4.0, measured=390.0, modeled=391.5, residual=-1.5)"),
    (FitResult(PARAMS, 2.25, 0.99, (RESIDUAL,), True, "normalized-capacity"),
     "FitResult(params=UslParams(alpha=0.05, beta=0.0001, x1=120.0), sse=2.25, "
     "r_squared=0.99, residuals=(Residual(n=4.0, measured=390.0, modeled=391.5, residual=-1.5),), "
     "significance_warning=True, mode='normalized-capacity')"),
    (ValidationRow(4.0, 3.9, 0.975, ("decrease-before-peak",)),
     "ValidationRow(n=4.0, capacity=3.9, efficiency=0.975, flags=('decrease-before-peak',))"),
    (QueueParams(8, 0.5, 20.0), "QueueParams(n=8, s=0.5, z=20.0, c=0.0)"),
    (QueueSolution(0.3, 1.2, 0.36, 0.7), "QueueSolution(x=0.3, r=1.2, q=0.36, w=0.7)"),
]
IDS = [type(r).__name__ for r, _ in RECORDS]
IDS[2] = "UslParams-x1"


def values(record):
    return tuple(getattr(record, f.name) for f in dataclasses.fields(record) if f.compare)


@pytest.mark.parametrize("record,text", RECORDS, ids=IDS)
class TestGeneratedMethods:
    def test_fields_cannot_be_assigned(self, record, text):
        for f in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, f.name, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.extra = 1.0

    def test_repr_eq_and_hash(self, record, text):
        assert repr(record) == text
        twin = type(record)(*values(record))
        assert twin == record and twin is not record
        assert hash(twin) == hash(record) == hash(values(record))
        assert dataclasses.replace(record) == record

    def test_keyword_arguments(self, record, text):
        kwargs = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
        assert type(record)(**kwargs) == record

    def test_pickle_round_trip(self, record, text):
        back = pickle.loads(pickle.dumps(record))
        assert back == record and repr(back) == text
        assert dataclasses.asdict(back) == dataclasses.asdict(record)


class TestMeasuredPointMeta:
    def test_each_point_gets_its_own_meta(self):
        a, b = MeasuredPoint(2.0, 10.0), MeasuredPoint(2.0, 10.0)
        assert a.meta == {} and b.meta == {}
        assert a.meta is not b.meta

    def test_explicit_meta_is_kept_as_passed(self):
        meta = {"cv": 0.1}
        assert MeasuredPoint(2.0, 10.0, meta).meta is meta
        assert MeasuredPoint(2.0, 10.0, meta=meta).meta is meta
        assert MeasuredPoint(2.0, 10.0, meta=None).meta is None

    def test_meta_stays_out_of_eq_hash_and_repr(self):
        p, q = MeasuredPoint(2.0, 10.0, meta={"cv": 0.1}), MeasuredPoint(2.0, 10.0)
        assert p == q and hash(p) == hash(q)
        assert repr(p) == "MeasuredPoint(n=2.0, x=10.0)"

    def test_replace_keeps_meta_and_revalidates(self):
        meta = {"cv": 0.1}
        p = dataclasses.replace(MeasuredPoint(2.0, 10.0, meta=meta), x=12.0)
        assert p == MeasuredPoint(2.0, 12.0) and p.meta is meta
        with pytest.raises(DomainError, match=r"^concurrency must be >= 1, got 0\.5$"):
            dataclasses.replace(p, n=0.5)
        with pytest.raises(DomainError, match=r"^alpha must be in \[0, 1\), got 1\.0$"):
            dataclasses.replace(PARAMS, alpha=1.0)
        with pytest.raises(DomainError, match=r"^population must be an integer >= 1, got 2\.0$"):
            dataclasses.replace(QueueParams(8, 0.5, 20.0), n=2.0)

    def test_pickle_keeps_meta(self):
        back = pickle.loads(pickle.dumps(MeasuredPoint(2.0, 10.0, meta={"cv": 0.1})))
        assert back.meta == {"cv": 0.1}


# (constructor, arguments, message): the checks run in order, so the first
# failing one names the error
MESSAGES = [
    (MeasuredPoint, (math.nan, 10.0), "concurrency must be >= 1, got nan"),
    (MeasuredPoint, (math.inf, 10.0), "concurrency must be >= 1, got inf"),
    (MeasuredPoint, (0.5, 10.0), "concurrency must be >= 1, got 0.5"),
    (MeasuredPoint, (0.5, -1.0), "concurrency must be >= 1, got 0.5"),
    (MeasuredPoint, (2.0, -1.0), "throughput must be >= 0 and finite, got -1.0"),
    (MeasuredPoint, (2.0, math.nan), "throughput must be >= 0 and finite, got nan"),
    (MeasuredPoint, (2.0, math.inf), "throughput must be >= 0 and finite, got inf"),
    (UslParams, (math.nan, 0.0), "alpha must be in [0, 1), got nan"),
    (UslParams, (-0.1, -1.0), "alpha must be in [0, 1), got -0.1"),
    (UslParams, (0.1, -1.0, 0.0), "beta must be >= 0, got -1.0"),
    (UslParams, (0.1, math.inf), "beta must be >= 0, got inf"),
    (UslParams, (0.1, 0.0, 0.0), "x1 must be positive, got 0.0"),
    (UslParams, (0.1, 0.0, math.nan), "x1 must be positive, got nan"),
    (QueueParams, (0, 0.5, 1.0), "population must be an integer >= 1, got 0"),
    (QueueParams, (True, 0.5, 1.0), None),
    (QueueParams, (4, 0.0, -1.0), "service time must be positive, got 0.0"),
    (QueueParams, (4, 0.5, -1.0, -1.0), "think time must be >= 0, got -1.0"),
    (QueueParams, (4, 0.5, 1.0, math.nan), "coherency penalty must be >= 0, got nan"),
]


@pytest.mark.parametrize("cls,args,message", MESSAGES)
def test_checks_and_messages(cls, args, message):
    if message is None:  # bool is an int, as the generated __init__ let it be
        assert cls(*args).n is True
        return
    with pytest.raises(DomainError) as err:
        cls(*args)
    assert str(err.value) == message


@pytest.mark.parametrize("record", [
    Dataset.from_pairs([(1, 10.0), (2, 18.0), (4, 30.0)]),
    RunSeries(load=2.0, samples=[(float(i), 10.0 + i) for i in range(5)]),
], ids=["Dataset", "RunSeries"])
@pytest.mark.parametrize("duplicate", [
    lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_copies_keep_arrays_read_only(record, duplicate):
    # the arrays built once in __post_init__ must come back read-only
    back = duplicate(record)
    assert back == record
    arrays = [v for v in vars(back).values() if isinstance(v, np.ndarray)]
    assert len(arrays) >= 2 and not any(a.flags.writeable for a in arrays)
