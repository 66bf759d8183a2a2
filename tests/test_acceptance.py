"""Acceptance gate: end-to-end criteria with one printed line per criterion.

Run as `pytest tests/test_acceptance.py -v` — each criterion prints a
`[criterion N] PASS/FAIL (elapsed) detail` line straight to the terminal,
bypassing pytest's capture, and also fails the test on a miss.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from zerotalk.bounds import chain_bound, lamination_bound, singleton_partition, alpha
from zerotalk.cli import main
from zerotalk.gf import FiniteMatrix, column_space_intersection, hstack, rank
from zerotalk.mcf import gk_finite_linear, gk_hypergraphical, gk_oracle, jgk
from zerotalk.sim import run as run_simulation
from zerotalk.sources import (
    Edge,
    FiniteLinearSource,
    HypergraphicalSource,
    entropy_profile,
    fls_to_hypergraphical,
)

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "specs"
TOL = 1e-9


@contextlib.contextmanager
def reported(capsys, idx: int, budget_s: float):
    t0 = time.perf_counter()
    state = SimpleNamespace(detail="")
    try:
        yield state
    except BaseException as exc:
        elapsed = time.perf_counter() - t0
        with capsys.disabled():
            print(f"[criterion {idx}] FAIL ({elapsed:.2f}s) {state.detail or exc}")
        raise
    elapsed = time.perf_counter() - t0
    if elapsed > budget_s:
        with capsys.disabled():
            print(
                f"[criterion {idx}] FAIL ({elapsed:.2f}s) "
                f"over the {budget_s:.0f}s budget — {state.detail}"
            )
        raise AssertionError(
            f"criterion {idx}: {elapsed:.2f}s exceeds the {budget_s:.0f}s budget"
        )
    with capsys.disabled():
        print(f"[criterion {idx}] PASS ({elapsed:.2f}s) {state.detail}")


@pytest.fixture(scope="module")
def sweep_models():
    """Exhaustive small hypergraphical sweep plus seeded random linear models,
    shared by criteria 4-6."""
    hyp = []
    for m in (2, 3):
        users = list(range(1, m + 1))
        subsets = [
            frozenset(c)
            for r in range(1, m + 1)
            for c in itertools.combinations(users, r)
        ]
        for k in range(5):
            for assignment in itertools.product(subsets, repeat=k):
                edges = tuple(
                    Edge.uniform(f"e{i}", sub, 2) for i, sub in enumerate(assignment)
                )
                hyp.append(HypergraphicalSource(m, edges))
    rng = random.Random(20260822)
    fls = []
    while len(fls) < 500:
        q = rng.choice([2, 3, 5])
        dim = rng.randrange(1, 4)
        m = rng.choice([2, 3])
        mats = tuple(
            FiniteMatrix(q, dim, cols, tuple(rng.randrange(q) for _ in range(dim * cols)))
            for cols in (rng.randrange(0, 4) for _ in range(m))
        )
        fls.append(FiniteLinearSource(q, dim, mats))
    return hyp, fls


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_criterion_1(capsys):
    """Canonical three-user edge model: exact value and witness via the CLI."""
    with reported(capsys, 1, budget_s=1.0) as state:
        code, out = run_cli(capsys, "jgk", str(SPECS / "shared_bit.json"))
        assert code == 0
        assert "J_GK = 1.000000 bits" in out
        assert "witness edges: {c}" in out
        state.detail = "three-user edge model: J_GK = 1.000000 bits, witness {c}"


def test_criterion_2(capsys, pairwise_xor_source):
    """Pairwise-independent linear model: trivial common function, confirmed
    by brute force on the 4-point support."""
    with reported(capsys, 2, budget_s=1.0) as state:
        w = gk_finite_linear(pairwise_xor_source)
        assert w.payload.cols == 0
        assert w.entropy_bits == 0.0
        oracle = gk_oracle(pairwise_xor_source)
        support = len(oracle.payload)
        components = len(set(oracle.payload.values()))
        assert support == 4
        assert components == 1
        assert oracle.entropy_bits == 0.0
        state.detail = (
            "pairwise-independent triple: closed form and 4-point brute force "
            "both give 0 bits (1 component)"
        )


def test_criterion_3(capsys, overlap_pair_source):
    """Two-user linear model: intersection basis, value, and conversion."""
    with reported(capsys, 3, budget_s=1.0) as state:
        w = gk_finite_linear(overlap_pair_source)
        assert w.payload.cols == 1
        assert w.payload.col(0) == (1, 1, 0)
        assert abs(w.entropy_bits - 1.0) <= TOL
        h = fls_to_hypergraphical(overlap_pair_source)
        assert [e.subset for e in h.edges] == [
            frozenset({1, 2}),
            frozenset({1}),
            frozenset({2}),
        ]
        for e in h.edges:
            assert abs(e.entropy_bits() - 1.0) <= TOL
        assert entropy_profile(overlap_pair_source).matches(entropy_profile(h))
        state.detail = (
            "overlap pair: basis column (1, 1, 0), J_GK = 1 bit; conversion "
            "gives 3 edges of 1 bit with matching entropy profile"
        )


def test_criterion_4(capsys, sweep_models):
    """Closed forms equal brute force across an exhaustive small sweep and
    500 seeded random linear models."""
    with reported(capsys, 4, budget_s=60.0) as state:
        hyp, fls = sweep_models
        checked = 0
        for h in hyp:
            assert abs(gk_hypergraphical(h).entropy_bits - gk_oracle(h).entropy_bits) <= TOL, h
            checked += 1
        for f in fls:
            assert abs(gk_finite_linear(f).entropy_bits - gk_oracle(f).entropy_bits) <= TOL, f
            checked += 1
        state.detail = (
            f"{checked} models ({len(hyp)} exhaustive edge models, "
            f"{len(fls)} random linear): closed form == brute force at 1e-9"
        )


def test_criterion_5(capsys, sweep_models):
    """Singleton-partition coefficient cap and tightness at zero rate."""
    with reported(capsys, 5, budget_s=30.0) as state:
        hyp, _ = sweep_models
        tight = 0
        for h in hyp:
            m = h.user_count
            a = alpha(h, singleton_partition(m))
            assert a <= Fraction(m - 2, m - 1), h
            b = lamination_bound(h, singleton_partition(m))
            if not b.vacuous:
                assert abs(b.bound_at(0.0) - jgk(h)) <= TOL, h
                tight += 1
        state.detail = (
            f"{len(hyp)} edge models: singleton coefficient <= (m-2)/(m-1); "
            f"bound at zero rate equals J_GK on all {tight} non-vacuous cases"
        )


def test_criterion_6(capsys, sweep_models):
    """Sequential chain bound equals the closed form, for every ordering."""
    with reported(capsys, 6, budget_s=60.0) as state:
        hyp, fls = sweep_models
        orderings_checked = 0
        for s in hyp + fls:
            base = jgk(s)
            assert abs(chain_bound(s) - base) <= TOL, s
            m = s.user_count
            if m == 3:
                for order in itertools.permutations((1, 2, 3)):
                    assert abs(chain_bound(s, order) - base) <= TOL, (s, order)
                    orderings_checked += 1
        state.detail = (
            f"{len(hyp) + len(fls)} models: chain bound == J_GK; "
            f"{orderings_checked} three-user orderings all agree"
        )


def test_criterion_7(capsys):
    """Subspace intersection dimension formula, exactly, on random pairs."""
    with reported(capsys, 7, budget_s=10.0) as state:
        rng = random.Random(1789)
        trials = 1000
        for _ in range(trials):
            q = rng.choice([2, 3, 5, 7])
            rows = rng.randrange(1, 6)
            a_cols = rng.randrange(0, 5)
            a = FiniteMatrix(q, rows, a_cols, tuple(rng.randrange(q) for _ in range(rows * a_cols)))
            b_cols = rng.randrange(0, 5)
            b = FiniteMatrix(q, rows, b_cols, tuple(rng.randrange(q) for _ in range(rows * b_cols)))
            meet = column_space_intersection(a, b)
            assert meet.cols == rank(a) + rank(b) - rank(hstack(a, b)), (a, b)
        state.detail = (
            f"{trials} random matrix pairs over GF(q), q in {{2,3,5,7}}: "
            "intersection dimension == rank(A) + rank(B) - rank([A|B]) exactly"
        )


def test_criterion_8(capsys, shared_bit_source, overlap_pair_source):
    """Zero-discussion agreement simulation hits the promised rate."""
    with reported(capsys, 8, budget_s=5.0) as state:
        rates = []
        for s in (shared_bit_source, overlap_pair_source):
            result = run_simulation(s, n=1000, seed=20260822)
            assert result.agreement
            assert result.discussion_bits == 0
            assert abs(result.empirical_rate_bits - 1.0) <= 0.1
            rates.append(result.empirical_rate_bits)
        state.detail = (
            "1000-round runs on both 1-bit models: full agreement, 0 discussion "
            f"bits, empirical rates {rates[0]:.4f} and {rates[1]:.4f}"
        )


def test_criterion_9(capsys):
    """Every subcommand's output is byte-identical across repeat runs."""
    with reported(capsys, 9, budget_s=30.0) as state:
        commands = [
            ["jgk", str(SPECS / "shared_bit.json"), "--json"],
            ["bound", str(SPECS / "shared_bit.json"), "--search", "--json"],
            ["oracle", str(SPECS / "pairwise_xor.json"), "--json"],
            ["convert", str(SPECS / "overlap_pair.json"), "--to", "hypergraphical"],
            ["verify", str(SPECS / "overlap_pair.json"), "--json"],
            ["simulate", str(SPECS / "shared_bit.json"), "--n", "400", "--seed", "3", "--json"],
        ]
        for argv in commands:
            outputs = []
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, "-m", "zerotalk", *argv],
                    capture_output=True,
                    cwd=str(ROOT),
                )
                assert proc.returncode == 0, (argv, proc.stderr.decode())
                outputs.append(proc.stdout)
            assert outputs[0] == outputs[1], argv
            json_out = [a for a in argv if a == "--json"]
            if json_out or argv[0] == "convert":
                json.loads(outputs[0])  # and it is valid JSON
        state.detail = (
            f"{len(commands)} subcommands run twice each via the installed "
            "entry point: byte-identical stdout"
        )
