"""The value-class contract of the ten model, bound, witness and run classes.

Each class is a plain class on ``errors.Value``: positional and keyword
construction, the repr the classes have always printed, ``==`` within one
class, ``hash`` over the compared fields, and no assignment or deletion.
"""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import zerotalk
from zerotalk.bounds import LaminationBound, Partition
from zerotalk.errors import Value
from zerotalk.gf import FiniteMatrix
from zerotalk.mcf import CommonFunctionWitness, EdgeSubsetWitness, KeyExtractor, SubspaceWitness
from zerotalk.sim import SimulationRun
from zerotalk.sources import DiscreteSource, Edge, FiniteLinearSource, HypergraphicalSource

EDGE_A = "Edge(name='a', subset=frozenset({1, 2}), alphabet_size=2, probs=(Fraction(1, 4), Fraction(3, 4)))"
EDGE_B = "Edge(name='b', subset=frozenset({1}), alphabet_size=2, probs=None)"
HYPER = f"HypergraphicalSource(user_count=2, edges=({EDGE_A}, {EDGE_B}))"
MATRIX = "FiniteMatrix(q=3, rows=2, cols=2, entries=(1, 2, 0, 2))"
PARTITION = "Partition(user_count=3, blocks=((1, 3), (2,)))"


def _matrix():
    return FiniteMatrix(3, 2, 2, (1, 5, 0, 2))


def _partition():
    return Partition(3, [[3, 1], [2]])


def _edge():
    return Edge("a", [2, 1], [Fraction(1, 4), Fraction(3, 4)])


def _uniform_edge():
    return Edge.uniform("b", [1], 2)


def _hypergraph():
    return HypergraphicalSource(2, (_edge(), _uniform_edge()))


def _run(codes=((0, 1, 0, 1), (0, 1, 0, 1)), label=str):
    return SimulationRun(4, 7, True, 1.0, 1.0, True, codes, label)


# (class, build, repr): each repr is the text these classes have always
# printed, and build() returns a new, equal value on each call.
VALUES = [
    pytest.param(FiniteMatrix, _matrix, MATRIX, id="FiniteMatrix"),
    pytest.param(Partition, _partition, PARTITION, id="Partition"),
    pytest.param(LaminationBound, lambda: LaminationBound(_partition(), Fraction(1, 2), 1.0),
                 f"LaminationBound(partition={PARTITION}, coefficient=Fraction(1, 2), intercept_bits=1.0)",
                 id="LaminationBound"),
    pytest.param(KeyExtractor, lambda: KeyExtractor(_hypergraph(), (), 1.0, 0.25, 2, str),
                 f"KeyExtractor(source={HYPER}, decoders=(), expected_bits=1.0, surprise_var=0.25, "
                 "label_count=2, label=<class 'str'>)", id="KeyExtractor"),
    pytest.param(CommonFunctionWitness, lambda: EdgeSubsetWitness(("a",), 0.5),
                 "EdgeSubsetWitness(payload=('a',), entropy_bits=0.5)", id="EdgeSubsetWitness"),
    pytest.param(CommonFunctionWitness, lambda: SubspaceWitness(_matrix(), 2.0),
                 f"SubspaceWitness(payload={MATRIX}, entropy_bits=2.0)", id="SubspaceWitness"),
    pytest.param(SimulationRun, _run,
                 "SimulationRun(n=4, seed=7, agreement=True, empirical_rate_bits=1.0, "
                 "expected_rate_bits=1.0, rate_ok=True)", id="SimulationRun"),
    pytest.param(Edge, _edge, EDGE_A, id="Edge"),
    pytest.param(Edge, _uniform_edge, EDGE_B, id="Edge-uniform"),
    pytest.param(HypergraphicalSource, _hypergraph, HYPER, id="HypergraphicalSource"),
    pytest.param(FiniteLinearSource,
                 lambda: FiniteLinearSource(2, 2, (FiniteMatrix(2, 2, 1, (1, 0)), FiniteMatrix(2, 2, 1, (1, 1)))),
                 "FiniteLinearSource(q=2, dim=2, matrices=(FiniteMatrix(q=2, rows=2, cols=1, entries=(1, 0)), "
                 "FiniteMatrix(q=2, rows=2, cols=1, entries=(1, 1))))", id="FiniteLinearSource"),
    pytest.param(DiscreteSource, lambda: DiscreteSource((2, 2), {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)}),
                 "DiscreteSource(alphabet_sizes=(2, 2), weights={(0, 0): 1, (1, 1): 1}, total=2)",
                 id="DiscreteSource"),
]


@pytest.mark.parametrize("cls, build, text", VALUES)
def test_repr_is_unchanged(cls, build, text):
    value = build()
    assert isinstance(value, cls) and isinstance(value, Value)
    assert repr(value) == text


@pytest.mark.parametrize("cls, build, text", VALUES)
def test_equal_values_hash_equal(cls, build, text):
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    if cls is DiscreteSource:  # its weights are a dict
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def test_values_of_different_classes_never_compare_equal():
    values = [p.values[1]() for p in VALUES]
    for i, a in enumerate(values):
        for j, b in enumerate(values):
            assert (a == b) is (i == j or repr(a) == repr(b))
    # same fields, same values, another class
    assert EdgeSubsetWitness(("a",), 0.5) != SubspaceWitness(("a",), 0.5)
    assert _matrix() != (3, 2, 2, (1, 2, 0, 2))


@pytest.mark.parametrize("cls, build, text", VALUES)
def test_fields_cannot_be_set_or_deleted(cls, build, text):
    value = build()
    for name in type(value)._fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text


def _ones():
    return FiniteMatrix(2, 1, 1, (1,))


CONSTRUCTIONS = [  # (class, positional args, the same as keywords in another order)
    (FiniteMatrix, (3, 2, 2, (1, 5, 0, 2)), dict(entries=(1, 5, 0, 2), cols=2, rows=2, q=3)),
    (Partition, (3, [[3, 1], [2]]), dict(blocks=[[3, 1], [2]], user_count=3)),
    (LaminationBound, (_partition(), Fraction(1, 2), 1.0),
     dict(intercept_bits=1.0, coefficient=Fraction(1, 2), partition=_partition())),
    (KeyExtractor, (_hypergraph(), (), 1.0, 0.25, 2, str),
     dict(label=str, label_count=2, surprise_var=0.25, expected_bits=1.0, decoders=(), source=_hypergraph())),
    (EdgeSubsetWitness, (("a",), 0.5), dict(entropy_bits=0.5, payload=("a",))),
    (SimulationRun, (4, 7, True, 1.0, 1.0, True, ((0, 1),) * 2, str),
     dict(label=str, codes=((0, 1),) * 2, rate_ok=True, expected_rate_bits=1.0, empirical_rate_bits=1.0,
          agreement=True, seed=7, n=4)),
    (Edge, ("a", [2, 1], [Fraction(1, 4), Fraction(3, 4)]),
     dict(pmf=[Fraction(1, 4), Fraction(3, 4)], subset=[2, 1], name="a")),
    (HypergraphicalSource, (2, (_edge(),)), dict(edges=(_edge(),), user_count=2)),
    (FiniteLinearSource, (2, 1, (_ones(),) * 2), dict(matrices=(_ones(),) * 2, dim=1, q=2)),
    (DiscreteSource, ((2, 2), {(0, 0): Fraction(1)}), dict(pmf={(0, 0): Fraction(1)}, alphabet_sizes=(2, 2))),
]


@pytest.mark.parametrize("cls, args, kwargs", CONSTRUCTIONS, ids=[c[0].__name__ for c in CONSTRUCTIONS])
def test_positional_and_keyword_construction_agree(cls, args, kwargs):
    positional, keywords = cls(*args), cls(**kwargs)
    assert positional == keywords
    assert repr(positional) == repr(keywords)


@pytest.mark.parametrize("call", [
    lambda: FiniteMatrix(3, 2, 2),
    lambda: FiniteMatrix(3, 2, 2, (1, 5, 0, 2), 0),
    lambda: FiniteMatrix(3, 2, 2, (1, 5, 0, 2), size=4),
    lambda: FiniteMatrix(3, 2, 2, (1, 5, 0, 2), q=3),
    lambda: FiniteMatrix(3, 2, (1, 5, 0, 2), rows=2),
], ids=["missing", "extra", "unknown", "repeated", "repeated-and-missing"])
def test_constructor_rejects_missing_extra_and_repeated_fields(call):
    with pytest.raises(TypeError, match=r"^FiniteMatrix\(\) takes the fields q, rows, cols, entries$"):
        call()


def test_simulation_run_compares_and_hashes_its_scalars_and_keys():
    run = _run()
    assert hash(run) == hash(_run())
    # the same key labels from other codes and another label map
    assert run == _run(((1, 0, 1, 0), (1, 0, 1, 0)), lambda c: str(1 - c))
    assert run != _run(((1, 0, 1, 0), (1, 0, 1, 0)))
    assert run != SimulationRun(4, 8, True, 1.0, 1.0, True, run.codes, str)
    assert run.per_user_keys == (("0", "1", "0", "1"),) * 2
    assert run.discussion_bits == 0 and "discussion_bits" not in SimulationRun._fields


def test_class_constants_are_not_fields():
    assert HypergraphicalSource._fields == ("user_count", "edges")
    assert FiniteLinearSource._fields == ("q", "dim", "matrices")
    assert DiscreteSource._fields == ("alphabet_sizes", "weights", "total")
    assert CommonFunctionWitness._fields == EdgeSubsetWitness._fields == ("payload", "entropy_bits")
    assert EdgeSubsetWitness.kind == "edge-subset"


def test_cli_import_loads_no_dataclasses_inspect_or_hashlib():
    """A cold ``import zerotalk.cli`` skips the modules only simulate or no one needs."""
    code = ("import sys, zerotalk.cli; "
            "print(sorted({'dataclasses', 'inspect', 'hashlib'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(zerotalk.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert proc.stdout == "[]\n"
