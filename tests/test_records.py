"""The package's result types keep the semantics of frozen dataclasses without
importing the dataclasses module."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
import tracemalloc
from functools import cached_property
from pathlib import Path

import pytest

import gapfree as gf
from gapfree.chromatic import ChromaticIndexResult
from gapfree.colorings import GapViolation, PropernessViolation
from gapfree.constructions import BoundReport
from gapfree.graph import _Record
from gapfree.oracle import CrossCheckReport, OracleResult
from gapfree.products import ProductGraph, ProductKind

SRC = Path(__file__).resolve().parent.parent / "src"


def _samples():
    """For each record class: (class, a function returning fresh field values,
    other field values, exact repr); equal records built from two calls share
    no field object."""
    edges = ((0, 1), (1, 2))
    return [
        (gf.Graph, lambda: (3, ((0, 1), (1, 2))), (3, ((0, 1),)),
         "Graph(n=3, edges=((0, 1), (1, 2)))"),
        (gf.EdgeColoring, lambda: ((1, 2, 1),), ((1, 2, 2),),
         "EdgeColoring(colors=(1, 2, 1))"),
        (PropernessViolation, lambda: (1, 0, 2, 3), (1, 0, 2, 4),
         "PropernessViolation(vertex=1, first_edge=0, second_edge=2, color=3)"),
        (GapViolation, lambda: (2, (1, 3)), (2, (1, 4)),
         "GapViolation(vertex=2, colors=(1, 3))"),
        (gf.IntervalReport,
         lambda: (False, 3, (PropernessViolation(1, 0, 2, 3),), (GapViolation(2, (1, 3)),), (2,)),
         (False, 3, (), (GapViolation(2, (1, 3)),), (2,)),
         "IntervalReport(valid=False, t=3, properness_violations=(PropernessViolation("
         "vertex=1, first_edge=0, second_edge=2, color=3),), gap_violations=("
         "GapViolation(vertex=2, colors=(1, 3)),), unused_colors=(2,))"),
        (ChromaticIndexResult, lambda: (2, gf.EdgeColoring((1, 2)), True),
         (3, gf.EdgeColoring((1, 2)), False),
         "ChromaticIndexResult(chi_prime=2, witness=EdgeColoring(colors=(1, 2)), class1=True)"),
        (BoundReport, lambda: (ProductKind.STRONG, 4, None, "Theorem 3"),
         (ProductKind.STRONG, 5, None, "Theorem 3"),
         "BoundReport(kind=<ProductKind.STRONG: 'strong'>, w_upper=4, W_lower=None, "
         "source='Theorem 3')"),
        (OracleResult, lambda: (True, 2, 2, {2: gf.EdgeColoring((1, 2))}, 7, "complete", None),
         (True, 2, 2, {}, 7, "complete", None),
         "OracleResult(member=True, w=2, W=2, witnesses={2: EdgeColoring(colors=(1, 2))}, "
         "nodes_explored=7, status='complete', premise=None)"),
        (CrossCheckReport, lambda: (True, 2, 2, 3, "complete", ("a note",)),
         (False, 2, 2, 3, "complete", ("a note",)),
         "CrossCheckReport(consistent=True, construction_t=2, oracle_w=2, oracle_W=3, "
         "oracle_status='complete', notes=('a note',))"),
        (ProductGraph, lambda: (gf.Graph(3, edges), ProductKind.TENSOR, 1, 3),
         (gf.Graph(3, edges), ProductKind.TENSOR, 3, 1),
         "ProductGraph(graph=Graph(n=3, edges=((0, 1), (1, 2))), "
         "kind=<ProductKind.TENSOR: 'tensor'>, left_n=1, right_n=3)"),
    ]


def _bytes_each(make, n=200):
    """Memory that n fresh instances hold, per instance: the least of three
    counts, as the first can include one-off allocations."""
    counts = []
    tracemalloc.start()
    try:
        for _ in range(3):
            before = tracemalloc.get_traced_memory()[0]
            kept = [make() for _ in range(n)]
            counts.append((tracemalloc.get_traced_memory()[0] - before) / len(kept))
            del kept
    finally:
        tracemalloc.stop()
    return min(counts)


def test_records_behave_like_frozen_dataclasses():
    samples = _samples()
    records = []
    for cls, values, other, text in samples:
        fields = tuple(cls.__annotations__)
        record = cls(*values())
        keyword = cls(**dict(zip(fields, values())))
        mixed = cls(*values()[:1], **dict(zip(fields[1:], values()[1:])))
        records.append(record)

        # equality over the fields, and only within the class
        assert record == keyword == mixed
        assert not record != keyword
        assert record != cls(*other)
        assert record != values() and values() != record
        assert repr(record) == text

        if cls is OracleResult:  # it holds a dict, as a frozen dataclass would not hash
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(keyword) == hash(values())

        for name in (*fields, "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert tuple(getattr(record, name) for name in fields) == values()

        for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert type(twin) is cls and twin == record and repr(twin) == text

        # instances keep key-sharing dicts: none larger than a frozen dataclass's
        # (a __dict__.update in __init__ passes the first check, not the second)
        # with the class's cached properties, each computed once on both sides
        cached = {k: cached_property(v.func) for k, v in vars(cls).items()
                  if isinstance(v, cached_property)}
        model = dataclasses.make_dataclass(cls.__name__, fields, frozen=True, namespace=cached)
        for made in (cls(*values()), model(*values())):
            for name in cached:
                getattr(made, name)
        assert sys.getsizeof(cls(*values()).__dict__) <= sys.getsizeof(model(*values()).__dict__)
        shared = values()
        assert _bytes_each(lambda: cls(*shared)) <= _bytes_each(lambda: model(*shared))

    assert len({type(r) for r in records}) == 10
    for a in records:
        for b in records:
            assert (a == b) == (a is b)
    assert GapViolation(2, ((0, 1),)) != gf.Graph(2, ((0, 1),))  # equal fields, other class

    g, prod = records[0], records[-1]
    assert g.incident is g.incident and g.adjacency is g.adjacency
    assert prod.coords is prod.coords == ((0, 0), (0, 1), (0, 2))
    assert prod == copy.deepcopy(prod)  # cached values do not enter equality

    with pytest.raises(TypeError):
        gf.EdgeColoring()
    with pytest.raises(TypeError):
        gf.EdgeColoring((1,), (2,))
    with pytest.raises(TypeError):
        gf.EdgeColoring((1,), colors=(1,))
    with pytest.raises(TypeError):
        gf.EdgeColoring(colours=(1,))
    with pytest.raises(ValueError):  # the __post_init__ check still runs
        gf.EdgeColoring((1, 0))
    assert OracleResult(False, None, None, {}) == OracleResult(False, None, None, {}, 0, "complete")


def test_bad_calls_name_the_class():
    for cls, values, _, _ in _samples():
        fields = tuple(cls.__annotations__)
        calls = [
            ((), {}),                                # no arguments
            ((*values(), 0), {}),                    # one argument too many
            (values(), {"not_a_field": 0}),          # an unknown keyword
            (values(), {fields[0]: values()[0]}),    # by position and by keyword
        ]
        for args, kwargs in calls:
            with pytest.raises(TypeError, match=cls.__name__):
                cls(*args, **kwargs)


def test_fields_with_defaults_come_last():
    with pytest.raises(TypeError, match="'b' without a default"):
        class Bad(_Record):
            a: int = 1
            b: int

    class Good(_Record):
        a: int
        b: int = 2
        c: str = "c"

    assert repr(Good(1)) == f"{Good.__qualname__}(a=1, b=2, c='c')"
    assert Good(1, c="x") == Good(a=1, b=2, c="x") == Good(1, 2, "x")


def test_cli_import_leaves_dataclasses_out(tmp_path):
    # neither dataclasses, typing nor inspect: a whole `verify` run, with its
    # readers, verifier and report, imports none of them
    g = gf.product(ProductKind.CARTESIAN, gf.generate("P", 2), gf.generate("C", 4)).graph
    gf.write_edge_list(tmp_path / "p.g", g)
    gf.write_coloring(tmp_path / "p.col", g, gf.bipartite_regular_coloring(g))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, gapfree.cli; "
         "code = gapfree.cli.run(['verify', 'p.g', 'p.col']); "
         "print(code, sorted({'dataclasses', 'typing', 'inspect'} & set(sys.modules)))"],
        env=env, cwd=tmp_path, capture_output=True, text=True, check=True,
    )
    assert out.stdout.splitlines()[-1] == "0 []"
