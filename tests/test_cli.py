"""CLI behavior: parsing, subcommands, exit codes, deterministic output."""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import json
import math
import os
import random
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from zerotalk.cli import (
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_MODEL,
    EXIT_PARSE,
    EXIT_RESOURCE,
    EXIT_UNSUPPORTED,
    build_parser,
    load_model,
    main,
    parse_model,
    parse_partition_text,
    _jsonable,
    _plain_args,
    render_hypergraphical,
)
from zerotalk.errors import ModelError, ParseError
from zerotalk.gf import FiniteMatrix, hstack, rref
from zerotalk.mcf import LabelingWitness
from zerotalk.sim import KeyExtractor, run
from zerotalk.sources import (
    DiscreteSource,
    Edge,
    FiniteLinearSource,
    HypergraphicalSource,
    entropy_profile,
)

from helpers import key_label, key_labels
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "specs"
SHARED_BIT = str(SPECS / "shared_bit.json")
PAIRWISE_XOR = str(SPECS / "pairwise_xor.json")
OVERLAP_PAIR = str(SPECS / "overlap_pair.json")
TWO_COINS = str(SPECS / "two_coins.json")


# --- document parsing ---


def test_parse_hypergraphical_document():
    doc = {
        "model": "hypergraphical",
        "users": 2,
        "edges": [
            {"name": "u", "subset": [1, 2], "uniform": 3},
            {"name": "p", "subset": [2], "pmf": ["1/4", 0.75]},
        ],
    }
    s = parse_model(doc)
    assert isinstance(s, HypergraphicalSource)
    pmfs = {e.name: e.pmf for e in s.edges}
    assert pmfs["u"] == (Fraction(1, 3),) * 3
    assert pmfs["p"] == (Fraction(1, 4), 0.75)


def test_parse_finite_linear_document():
    doc = {
        "model": "finite_linear",
        "q": 3,
        "dim": 2,
        "matrices": {"2": [[1], [2]], "1": [[1, 0], [0, 1]]},
    }
    s = parse_model(doc)
    assert isinstance(s, FiniteLinearSource)
    assert s.matrices[0].cols == 2  # keys sorted numerically, user 1 first
    assert s.matrices[1].col(0) == (1, 2)


def test_finite_linear_entries_are_checked_once_on_load(monkeypatch):
    rows = {"1": [[1, -1], [5, 0], [3, 7]], "2": [[-4], [2], [9]]}
    doc = {"model": "finite_linear", "q": 3, "dim": 3, "matrices": rows}
    calls = []
    real = FiniteMatrix.__post_init__
    monkeypatch.setattr(FiniteMatrix, "__post_init__", lambda m: calls.append(m) or real(m))
    s = parse_model(doc)
    assert calls == []  # the parse checked every entry; the matrices skip the second check
    assert s.matrices == tuple(FiniteMatrix.from_rows(3, rows[k]) for k in ("1", "2"))
    assert len(calls) == 2 and s.matrices[0].entries == (1, 2, 2, 0, 0, 1)


@pytest.mark.parametrize("matrices, expected", [
    # the field is checked once the first matrix's rows parse, before the second matrix
    ({"1": [[1], [0]], "2": [[1], ["x"]]}, (EXIT_MODEL, "error: field order must be prime, got 4\n")),
    ({"1": [[1], [True]], "2": [[1], [0]]},
     (EXIT_PARSE, "error: matrix for user 1: rows must be lists of integers\n")),
])
def test_finite_linear_errors_surface_in_file_order(tmp_path, capsys, matrices, expected):
    model = tmp_path / "gf4.json"
    model.write_text(json.dumps({"model": "finite_linear", "q": 4, "dim": 2, "matrices": matrices}))
    code, out, err = run_cli(capsys, "jgk", str(model))
    assert (code, err) == expected and out == ""


def test_parse_discrete_document():
    doc = {
        "model": "discrete",
        "alphabets": [2, 3],
        "pmf": [
            {"symbols": [0, 0], "p": "1/2"},
            {"symbols": [1, 2], "p": "1/2"},
        ],
    }
    s = parse_model(doc)
    assert isinstance(s, DiscreteSource)
    assert s.support() == ((0, 0), (1, 2))


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {"users": 2},
        {"model": "nope"},
        {"model": "hypergraphical", "users": 2},
        {"model": "hypergraphical", "users": 2, "edges": [{"name": "e"}]},
        {"model": "hypergraphical", "users": 2,
         "edges": [{"name": "e", "subset": [1], "uniform": 2, "pmf": [1]}]},
        {"model": "hypergraphical", "users": 2,
         "edges": [{"name": "e", "subset": [1], "pmf": ["x/y"]}]},
        {"model": "hypergraphical", "users": 2,
         "edges": [{"name": "e", "subset": [1], "uniform": 0}]},
        {"model": "hypergraphical", "users": True, "edges": []},
        {"model": "finite_linear", "q": 2, "dim": 2, "matrices": {"1": [[1]], "3": [[1]]}},
        {"model": "finite_linear", "q": 2, "dim": 2, "matrices": {"1": [[1], [1, 0]]}},
        {"model": "finite_linear", "q": 2, "dim": 2, "matrices": {"one": [[1], [0]]}},
        {"model": "discrete", "alphabets": [2], "pmf": [{"symbols": [0]}]},
        {"model": "discrete", "alphabets": [2, 2],
         "pmf": [{"symbols": [0], "p": 1}]},
        {"model": "discrete", "alphabets": [2],
         "pmf": [{"symbols": [0], "p": 0.5}, {"symbols": [0], "p": 0.5}]},
    ],
)
def test_parse_rejects_malformed_documents(doc):
    with pytest.raises(ParseError):
        parse_model(doc)


# "a/b" strings of ASCII digits take the int reader; every other string is
# Fraction's to accept or refuse, whatever the running Python's Fraction does
_PROBABILITY_STRINGS = [
    "1/2", "01/02", "0/5", "1/0", "0/0", "1/1", "07/7", "3",
    " 1/2", "+1/2", "-1/2", "1_0/40", "1.5/2", "1e2/300", "1 /2", "\t1/1\n",
    "\u00b2/3", "\u0661/\u0662", "\u00bd",
    "", "/", "1/", "/2", "1//2", "1/2/3",
    "1" * 5000 + "/3", "1" * 5000 + "/" + "1" * 5000,
]


@pytest.mark.parametrize("text", _PROBABILITY_STRINGS,
                         ids=[repr(t) if len(t) < 20 else f"{len(t)}-chars" for t in _PROBABILITY_STRINGS])
def test_probability_strings_read_as_fraction_reads_them(tmp_path, capsys, text):
    model = tmp_path / "one.json"
    model.write_text(json.dumps({"model": "discrete", "alphabets": [2, 2],
                                 "pmf": [{"symbols": [1, 0], "p": text}]}))
    try:
        reference = DiscreteSource((2, 2), {(1, 0): Fraction(text)})
    except (ValueError, ZeroDivisionError):
        expected = (EXIT_PARSE, "", f"error: pmf entry #0: bad fraction string {text!r}\n")
    except ModelError as exc:  # the mass read, in the sum or sign message
        expected = (EXIT_MODEL, "", f"error: {exc}\n")
    else:
        loaded = load_model(str(model))
        assert (loaded.weights, loaded.total) == (reference.weights, reference.total)
        expected = (EXIT_OK, "support size: 1\nconnected components: 1\nJ_GK = 0.000000 bits\n", "")
    code, out, err = run_cli(capsys, "oracle", str(model))
    assert (code, out.partition("\n")[2], err) == expected


def test_discrete_file_weights_are_the_fraction_constructors():
    pmf = [((0, 0), "1/6"), ((2, 1), "02/12"), ((1, 0), 0), ((0, 1), "1/4"), ((1, 1), "0/7"),
           ((2, 0), " 1/4 "), ((1, 2), "1/6")]
    loaded = parse_model({"model": "discrete", "alphabets": [3, 3],
                          "pmf": [{"symbols": list(k), "p": p} for k, p in pmf]})
    reference = DiscreteSource((3, 3), {k: Fraction(p) for k, p in pmf})
    assert loaded == reference and list(loaded.weights) == list(reference.weights)
    assert (loaded.weights, loaded.total) == ({(0, 0): 2, (0, 1): 3, (1, 2): 2, (2, 0): 3, (2, 1): 2}, 12)


def test_edge_pmf_strings_read_as_fractions():
    doc = {"model": "hypergraphical", "users": 2, "edges": [
        {"name": "u", "subset": [1, 2], "pmf": ["1/3", "02/6", " 1/3"]},
        {"name": "p", "subset": [1], "pmf": ["1/4", "+3/4"]},
        {"name": "z", "subset": [2], "pmf": ["0/1", "1/2", 0.5]}]}
    u, p, z = parse_model(doc).edges
    assert u == Edge.uniform("u", {1, 2}, 3) and u.probs is None
    assert p.probs == (Fraction(1, 4), Fraction(3, 4))
    assert z.probs == (Fraction(0), Fraction(1, 2), 0.5) and type(z.probs[1]) is Fraction


@pytest.mark.parametrize("key", ["01", " 1", "+1"])
def test_parse_rejects_non_canonical_matrix_keys(key):
    # int() reads each of these as 1, but the matrix is not under "1"
    doc = {"model": "finite_linear", "q": 2, "dim": 1, "matrices": {key: [[1]], "2": [[1]]}}
    with pytest.raises(ParseError, match=r"matrix keys must be the user ids 1\.\.2"):
        parse_model(doc)


@pytest.mark.parametrize(
    "content",
    [
        b'{"model": "hypergraphical", "users": 2, "edges": [{"name": "\xe9", "subset": [1, 2], "uniform": 2}]}',
        b"[" * 100_000 + b"]" * 100_000,
        b'{"model": "hypergraphical", "users": ' + b"9" * 5000 + b', "edges": []}',
    ],
    ids=["not-utf8", "nested-too-deep", "int-too-long"],
)
def test_unparsable_model_file_exits_2(tmp_path, capsys, content):
    model = tmp_path / "bad.json"
    model.write_bytes(content)
    code, out, err = run_cli(capsys, "jgk", str(model))
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith(f"error: cannot parse {model}: ")


def test_parsed_model_names_its_family():
    for path in sorted(SPECS.glob("*.json")):
        doc = json.loads(path.read_text())
        assert parse_model(doc).model == doc["model"]


def test_parse_partition_text():
    p = parse_partition_text("1,3/2", 3)
    assert p.blocks == ((1, 3), (2,))
    assert parse_partition_text("singletons", 3).blocks == ((1,), (2,), (3,))
    with pytest.raises(ParseError):
        parse_partition_text("1,,2/3", 3)
    with pytest.raises(ParseError):
        parse_partition_text("1;2", 2)


def test_render_round_trips(overlap_pair_source):
    from zerotalk.sources import fls_to_hypergraphical

    h = fls_to_hypergraphical(overlap_pair_source)
    doc = render_hypergraphical(h)
    again = parse_model(doc)
    assert entropy_profile(again).matches(entropy_profile(h))
    # convert emits uniform edges only; exact non-uniform and float edges take the pmf form
    mixed = HypergraphicalSource(3, (
        Edge("exact", {1, 2}, (Fraction(1, 3), Fraction(2, 3))),
        Edge("float", {2, 3}, (0.25, 0.75)),
        Edge.uniform("uniform", {1, 2, 3}, 4),
    ))
    doc = render_hypergraphical(mixed)
    assert [sorted(e) for e in doc["edges"]] == [["name", "pmf", "subset"]] * 2 + [["name", "subset", "uniform"]]
    assert parse_model(doc) == mixed
    # an explicit exact 1/n pmf is the uniform edge; a float 1/n pmf stays
    # float in its model but is written as uniform too
    third = Edge("third", {1, 3}, (Fraction(1, 3),) * 3)
    half = Edge("half", {1, 2}, (0.5, 0.5))
    doc = render_hypergraphical(HypergraphicalSource(3, (third, half)))
    assert doc["edges"] == [{"name": "third", "subset": [1, 3], "uniform": 3},
                            {"name": "half", "subset": [1, 2], "uniform": 2}]
    assert parse_model(doc).edges == (third, Edge.uniform("half", {1, 2}, 2))
    assert half.pmf == (0.5, 0.5)


# --- subcommand behavior ---


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_jgk_human_output(capsys):
    code, out, _ = run_cli(capsys, "jgk", SHARED_BIT)
    assert code == 0
    assert "J_GK = 1.000000 bits" in out
    assert "witness edges: {c}" in out


def test_jgk_json_output(capsys):
    code, out, _ = run_cli(capsys, "jgk", OVERLAP_PAIR, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["jgk_bits"] == 1.0
    assert doc["witness"]["basis_columns"] == [[1, 1, 0]]


def test_bound_default_and_rate(capsys):
    code, out, _ = run_cli(capsys, "bound", SHARED_BIT, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficient"] == "1/2"
    assert doc["bound_bits"] == 1.0
    code, out, _ = run_cli(capsys, "bound", SHARED_BIT, "--rate", "1.0", "--json")
    assert json.loads(out)["bound_bits"] == 2.0


def test_bound_explicit_partition_vacuous(capsys):
    code, out, _ = run_cli(
        capsys, "bound", SHARED_BIT, "--partition", "1/2,3", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["vacuous"] is True
    assert doc["bound_bits"] is None
    assert run_cli(capsys, "bound", SHARED_BIT, "--partition", "1/2,3") == (
        EXIT_OK, "partition: 1/2,3\nspread coefficient: 1\nbound: vacuous (coefficient is 1)\n", "")


def test_bound_search(capsys):
    code, out, _ = run_cli(capsys, "bound", SHARED_BIT, "--search", "--json")
    assert code == 0
    assert json.loads(out)["coefficient"] == "1/2"


@pytest.mark.parametrize("users, pair", [(16, False), (18, False), (20, False), (40, False), (20, True)],
                         ids=["16", "18", "20", "40", "20-and-a-pair"])
def test_bound_search_on_one_global_edge(tmp_path, capsys, monkeypatch, users, pair):
    # every partition ties at coefficient 0, and the first block the answer needs is {1} (or the
    # pair {1, 2}); cutting the ties that cannot win keeps 40 users to 45643 search steps, where
    # 18 users went past the default limit of 10**6
    monkeypatch.delenv("ZEROTALK_EXPANSION_LIMIT", raising=False)
    model = tmp_path / "global.json"
    edges = [{"name": "g", "subset": list(range(1, users + 1)), "uniform": 2}]
    edges += [{"name": "p", "subset": [1, 2], "uniform": 2}] if pair else []
    model.write_text(json.dumps({"model": "hypergraphical", "users": users, "edges": edges}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "bound", str(model), "--search")
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (EXIT_OK, "")
    first = "1,2/" if pair else "1/"
    rest = ",".join(map(str, range(3 if pair else 2, users + 1)))
    assert out.startswith(f"partition: {first}{rest}\nspread coefficient: 0\n")


@pytest.mark.parametrize("text", ["1,1/2/3", "1/1,2/3"], ids=["one-block", "two-blocks"])
def test_bound_partition_with_a_repeated_user_exits_3(capsys, text):
    code, out, err = run_cli(capsys, "bound", SHARED_BIT, "--partition", text)
    assert (code, out, err) == (EXIT_MODEL, "", "error: user 1 appears more than once\n")


def test_bound_partition_errors(capsys):
    code, _, err = run_cli(capsys, "bound", SHARED_BIT, "--partition", "1&2")
    assert code == EXIT_PARSE
    code, _, err = run_cli(capsys, "bound", SHARED_BIT, "--partition", "1,2/3,4")
    assert code == EXIT_MODEL


def test_bound_converts_two_user_linear(capsys):
    code, out, _ = run_cli(capsys, "bound", OVERLAP_PAIR, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["converted_from_finite_linear"] is True
    assert doc["bound_bits"] == 1.0


def test_bound_unsupported_models(capsys):
    assert run_cli(capsys, "bound", TWO_COINS)[0] == EXIT_UNSUPPORTED
    assert run_cli(capsys, "bound", PAIRWISE_XOR)[0] == EXIT_UNSUPPORTED


def test_oracle_output(capsys):
    code, out, _ = run_cli(capsys, "oracle", PAIRWISE_XOR, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["support"] == 4
    assert doc["components"] == 1
    assert doc["jgk_bits"] == 0.0


def test_convert_stdout_reparses(capsys):
    code, out, _ = run_cli(capsys, "convert", OVERLAP_PAIR, "--to", "hypergraphical")
    assert code == 0
    doc = json.loads(out)
    s = parse_model(doc)
    assert [sorted(e.subset) for e in s.edges] == [[1, 2], [1], [2]]


def test_convert_out_file(tmp_path, capsys):
    target = tmp_path / "converted.json"
    code, out, _ = run_cli(
        capsys, "convert", OVERLAP_PAIR, "--to", "hypergraphical", "--out", str(target)
    )
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["model"] == "hypergraphical"


@pytest.mark.parametrize("flags, printed", [([], "wrote {}\n"), (["--json"], "")], ids=["text", "json"])
def test_convert_out_says_where_it_wrote_in_text_mode_only(tmp_path, capsys, flags, printed):
    target = tmp_path / "converted.json"
    code, out, _ = run_cli(capsys, "convert", OVERLAP_PAIR, "--to", "hypergraphical", "--out", str(target), *flags)
    assert (code, out) == (EXIT_OK, printed.format(target))
    assert target.read_text() == run_cli(capsys, "convert", OVERLAP_PAIR, "--to", "hypergraphical")[1]


@pytest.mark.parametrize("where", ["missing/x.json", "."], ids=["no-such-directory", "a-directory"])
def test_convert_out_path_that_cannot_be_written_exits_2(tmp_path, capsys, where):
    target = tmp_path / where
    code, out, err = run_cli(capsys, "convert", OVERLAP_PAIR, "--to", "hypergraphical", "--out", str(target))
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith(f"error: cannot write {target}: [Errno ")


def test_convert_requires_two_user_linear(capsys):
    assert run_cli(capsys, "convert", PAIRWISE_XOR, "--to", "hypergraphical")[0] == EXIT_UNSUPPORTED
    assert run_cli(capsys, "convert", SHARED_BIT, "--to", "hypergraphical")[0] == EXIT_UNSUPPORTED


def test_verify_model_file(capsys):
    for path in (SHARED_BIT, PAIRWISE_XOR, OVERLAP_PAIR, TWO_COINS):
        code, out, _ = run_cli(capsys, "verify", path, "--json")
        assert code == 0, path
        assert json.loads(out)["all_ok"] is True


def test_verify_random_models(capsys):
    code, out, _ = run_cli(capsys, "verify", "--random", "10", "--seed", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_ok"] is True
    assert doc["total"] > 0


# sha256 of the stdout of `verify --random 40 --seed 1`: it pins the models
# drawn and, in text mode, the "[index] " prefix of every row
@pytest.mark.parametrize("flags, digest", [
    ([], "a39c9003b28952763e0275663dc7866e14ac7e1666dc78735b8a3176938da1b7"),
    (["--json"], "9808846145ecb5d1f77ae3a9bdd103ff64375298e97eb664f7a2656973b8495f"),
], ids=["text", "json"])
def test_verify_random_output_is_pinned(capsys, flags, digest):
    code, out, _ = run_cli(capsys, "verify", "--random", "40", "--seed", "1", *flags)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_argument_validation(capsys):
    assert run_cli(capsys, "verify")[0] == EXIT_PARSE
    assert run_cli(capsys, "verify", SHARED_BIT, "--random", "3")[0] == EXIT_PARSE


@pytest.mark.parametrize("n", ["0", "-3"])
def test_verify_random_needs_at_least_one_model(capsys, n):
    code, out, err = run_cli(capsys, "verify", "--random", n)
    assert code == EXIT_PARSE
    assert out == ""
    assert "--random needs N >= 1" in err


@pytest.mark.parametrize("rate", ["nan", "inf", "-1"])
def test_bound_rejects_bad_rates(capsys, rate):
    code, out, err = run_cli(capsys, "bound", SHARED_BIT, "--rate", rate, "--json")
    assert code == EXIT_PARSE
    assert out == ""
    assert "--rate must be a finite nonnegative number" in err


def test_bound_past_the_largest_float_exits_2(tmp_path, capsys):
    # coefficient 2/3, slope 2: a rate of 1e308 puts the bound at inf, which is not JSON
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"model": "hypergraphical", "users": 4,
                                 "edges": [{"name": "a", "subset": [1, 2, 3], "uniform": 2}]}))
    code, out, err = run_cli(capsys, "bound", str(model), "--rate", "1e308", "--json")
    assert (code, out) == (EXIT_PARSE, "")
    assert err == "error: --rate 1e+308 puts the bound past the largest float\n"
    code, out, _ = run_cli(capsys, "bound", str(model), "--rate", "8e307", "--json")
    assert code == EXIT_OK
    assert json.loads(out, parse_constant=_reject_constant)["bound_bits"] == 1.6e308


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_jsonable_spells_fractions_and_rounds_floats_inside_lists_and_dicts():
    doc = {"a": [Fraction(1, 3), (-1e-9, 0.1234567)], "b": True, "c": None, "d": 7}
    assert _jsonable(doc) == {"a": ["1/3", [0.0, 0.123457]], "b": True, "c": None, "d": 7}
    # a float that rounds to zero is 0.0, never -0.0
    assert json.dumps(_jsonable([-1e-9])) == "[0.0]"


def test_bound_negative_zero_rate_prints_zero(capsys):
    code, out, _ = run_cli(capsys, "bound", SHARED_BIT, "--rate", "-0.0")
    assert code == 0
    assert out.splitlines()[-1] == "bound at rate 0.000000: 1.000000 bits (intercept 1.000000)"


def test_verify_reports_conversion_mismatch(capsys, monkeypatch):
    import zerotalk.cli as cli_module
    from zerotalk.sources import fls_to_hypergraphical

    def drop_own2(f):
        h = fls_to_hypergraphical(f)
        return HypergraphicalSource(2, tuple(e for e in h.edges if e.name != "own2"))

    monkeypatch.setattr(cli_module, "fls_to_hypergraphical", drop_own2)
    code, out, _ = run_cli(capsys, "verify", OVERLAP_PAIR)
    assert code == EXIT_MISMATCH
    assert "conversion_preserves_profile: mismatch (profile drift)" in out


def test_verify_reports_a_profile_drift_of_a_millionth_of_a_bit(capsys, monkeypatch):
    import zerotalk.cli as cli_module
    from zerotalk.sources import fls_to_hypergraphical

    def skew_own2(f):  # own2's entropy falls by about 1.04e-6 bits
        h = fls_to_hypergraphical(f)
        return HypergraphicalSource(2, tuple(Edge(e.name, e.subset, (0.5006, 0.4994)) if e.name == "own2" else e
                                             for e in h.edges))

    monkeypatch.setattr(cli_module, "fls_to_hypergraphical", skew_own2)
    code, out, _ = run_cli(capsys, "verify", OVERLAP_PAIR)
    assert code == EXIT_MISMATCH
    assert "conversion_preserves_profile: mismatch (profile drift)" in out


def test_verify_mismatch_shows_a_gap_past_the_sixth_decimal(capsys, monkeypatch):
    import zerotalk.mcf as mcf_module

    real = mcf_module.gk_hypergraphical

    def two_nanobits_over(h):
        w = real(h)
        return type(w)(w.payload, w.entropy_bits + 2e-9)

    monkeypatch.setattr(mcf_module, "gk_hypergraphical", two_nanobits_over)
    code, out, _ = run_cli(capsys, "verify", SHARED_BIT)
    assert code == EXIT_MISMATCH
    assert "closed_form_vs_oracle: mismatch (1.000000002 vs 1.0)\n" in out
    assert "chain_vs_closed_form: mismatch (1.0 vs 1.000000002)\n" in out


def test_verify_lamination_at_zero_is_checked_against_oracle(capsys, monkeypatch):
    # one bit too many in the edge engine reaches the bound's intercept but
    # not the oracle, so lamination_at_zero must catch it
    import zerotalk.bounds as bounds_module
    import zerotalk.mcf as mcf_module

    real = mcf_module.gk_hypergraphical

    def one_bit_over(h):
        w = real(h)
        return type(w)(w.payload, w.entropy_bits + 1.0)

    monkeypatch.setattr(mcf_module, "gk_hypergraphical", one_bit_over)
    monkeypatch.setattr(bounds_module, "gk_hypergraphical", one_bit_over)
    code, out, _ = run_cli(capsys, "verify", OVERLAP_PAIR)
    assert code == EXIT_MISMATCH
    assert "lamination_at_zero: mismatch (2.0 vs 1.0)" in out


def test_verify_runs_no_partition_search(tmp_path, capsys, monkeypatch):
    # lamination_at_zero reads the singleton line: at rate 0 every line that is
    # not vacuous reads J_GK, so the search would decide nothing
    import zerotalk.bounds as bounds_module

    def refuse(h):
        raise AssertionError("verify ran the partition search")

    monkeypatch.setattr(bounds_module, "best_partition", refuse)
    converted = str(tmp_path / "converted.json")
    assert run_cli(capsys, "convert", OVERLAP_PAIR, "--to", "hypergraphical", "--out", converted)[0] == EXIT_OK
    runs = [[str(p)] for p in sorted(SPECS.glob("*.json"))] + [[converted], ["--random", "200", "--seed", "1"]]
    for argv in runs:
        code, out, _ = run_cli(capsys, "verify", *argv, "--json")
        checks = json.loads(out)["checks"]
        assert code == EXIT_OK, argv
        assert checks and {c["status"] for c in checks} == {"ok"}, argv


def test_verify_reports_mismatch(capsys, monkeypatch):
    import zerotalk.mcf as mcf_module

    def broken_oracle(s):
        return LabelingWitness({}, 123.0)

    monkeypatch.setattr(mcf_module, "gk_oracle", broken_oracle)
    code, out, _ = run_cli(capsys, "verify", SHARED_BIT, "--json")
    assert code == EXIT_MISMATCH
    doc = json.loads(out)
    assert any(c["status"] == "mismatch" for c in doc["checks"])


def test_verify_text_of_models_that_mismatch(capsys, monkeypatch):
    import zerotalk.mcf as mcf_module

    monkeypatch.setattr(mcf_module, "gk_oracle", lambda s: LabelingWitness({}, 123.0))
    code, out, _ = run_cli(capsys, "verify", "--random", "2", "--seed", "1")
    assert code == EXIT_MISMATCH
    assert out == (
        "[0] closed_form_vs_oracle: mismatch (1.0 vs 123.0)\n"
        "[0] witness_entropy_brute_force: ok (1.000000 vs 1.000000)\n"
        "[0] expansion_preserves_profile: ok (all subset entropies within tolerance)\n"
        "[0] chain_vs_closed_form: ok (1.000000 vs 1.000000)\n"
        "[0] chain_ordering_invariance: ok (1 distinct value(s) over 2 orderings)\n"
        "[0] lamination_at_zero: mismatch (1.0 vs 123.0)\n"
        "[1] closed_form_vs_oracle: mismatch (1.584962500721156 vs 123.0)\n"
        "[1] witness_entropy_brute_force: ok (1.584963 vs 1.584963)\n"
        "[1] expansion_preserves_profile: ok (all subset entropies within tolerance)\n"
        "[1] chain_vs_closed_form: ok (1.584963 vs 1.584963)\n"
        "[1] chain_ordering_invariance: ok (1 distinct value(s) over 6 orderings)\n"
        "[1] lamination_at_zero: mismatch (1.584962500721156 vs 123.0)\n"
        "8/12 checks passed\n"
    )


def test_verify_over_expansion_limit_exits_5(tmp_path, capsys, monkeypatch):
    eye = [[int(i == j) for j in range(16)] for i in range(16)]
    model = tmp_path / "gf2_16.json"
    model.write_text(
        json.dumps({"model": "finite_linear", "q": 2, "dim": 16, "matrices": {"1": eye, "2": eye}})
    )
    monkeypatch.setenv("ZEROTALK_EXPANSION_LIMIT", "1000")
    assert run_cli(capsys, "verify", str(model))[0] == EXIT_RESOURCE


def test_verify_builds_each_entropy_profile_once(capsys, monkeypatch):
    calls = []

    def counting_profile(s):
        calls.append(type(s).__name__)
        return entropy_profile(s)

    # count builds made anywhere in the package, not only in the CLI
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "zerotalk" and hasattr(module, "entropy_profile"):
            monkeypatch.setattr(module, "entropy_profile", counting_profile)
    assert run_cli(capsys, "verify", OVERLAP_PAIR)[0] == 0
    # the linear model, its expansion, and the converted edge model
    assert calls == ["FiniteLinearSource", "DiscreteSource", "HypergraphicalSource"]


def test_verify_row_reduces_the_stacked_matrix_once(capsys, monkeypatch):
    # the early budget check and the expansion share one basis of [M_1 | M_2];
    # the witness check reduces [M_1 | M_2 | key basis], here a wider matrix
    import zerotalk.gf as gf_module

    stacked = hstack(*load_model(OVERLAP_PAIR).matrices)
    reduced = []

    def counting_rref(m):
        reduced.append(m == stacked)
        return rref(m)

    monkeypatch.setattr(gf_module, "rref", counting_rref)
    assert run_cli(capsys, "verify", OVERLAP_PAIR)[0] == 0
    assert reduced.count(True) == 1


def test_simulate_hashes_one_stream_when_the_users_agree(capsys, monkeypatch):
    import zerotalk.cli as cli_module

    hashed = []
    real = cli_module._key_digest
    monkeypatch.setattr(cli_module, "_key_digest", lambda *args: hashed.append(args) or real(*args))
    code, out, _ = run_cli(capsys, "simulate", SHARED_BIT, "--n", "1000", "--json")
    report = json.loads(out)
    assert code == 0 and report["agreement"]
    assert len(hashed) == 1
    assert report["key_digests"] == [real(*hashed[0])] * 3


def test_simulate_labels_a_radix_key_a_digit_column_at_a_time(monkeypatch):
    # no code of a radix key is split into its digits on its own
    import zerotalk.cli as cli_module
    import zerotalk.gf as gf_module
    import zerotalk.sim as sim_module

    h = HypergraphicalSource(2, tuple(Edge.uniform(name, {1, 2}, r) for name, r in (("a", 3), ("b", 4), ("c", 5))))
    radices = sim_module.build_extractor(h).radices
    codes = range(60)
    want = {code: repr(key_label(radices, code)).encode() for code in codes}
    splits = []
    monkeypatch.setattr(gf_module, "divmod", lambda a, b: splits.append(a) or divmod(a, b), raising=False)
    assert cli_module._label_reprs([codes], radices) == want
    assert splits == []


def test_ascii_ratio_masses_load_without_fraction_or_the_checked_constructor(monkeypatch):
    import zerotalk.cli as cli_module

    def refuse(*args):
        raise AssertionError(f"called with {args}")

    monkeypatch.setattr(cli_module, "Fraction", refuse)
    monkeypatch.setattr(DiscreteSource, "__init__", refuse)
    d = load_model(TWO_COINS)
    assert d.weights == {(0, 0): 1, (1, 1): 1} and d.total == 2


def test_a_list_of_plain_ints_passes_on_its_types_alone(monkeypatch):
    import zerotalk.cli as cli_module

    checked = []
    monkeypatch.setattr(cli_module, "isinstance", lambda v, t: checked.append(v) or isinstance(v, t), raising=False)
    assert cli_module._all_ints([3, 1, 2])
    assert checked == []
    assert not cli_module._all_ints([1, True])
    assert True in checked  # a bool is an int subclass: only the full test turns it away


def test_verify_on_a_discrete_model_runs_its_oracle_and_profile_once(capsys, monkeypatch):
    calls = []

    def counting(name, original):
        def wrapper(s):
            calls.append(name)
            return original(s)
        return wrapper

    for name, module in list(sys.modules.items()):
        for fn in ("gk_oracle", "entropy_profile"):
            if name.split(".")[0] == "zerotalk" and hasattr(module, fn):
                monkeypatch.setattr(module, fn, counting(fn, getattr(module, fn)))
    code, out, _ = run_cli(capsys, "verify", TWO_COINS)
    # the model is its own expansion: both rows are still checked and printed
    assert (code, calls) == (0, ["gk_oracle", "entropy_profile"])
    assert out.splitlines()[0] == "closed_form_vs_oracle: ok (1.000000 vs 1.000000)"
    assert out.splitlines()[2] == "expansion_preserves_profile: ok (all subset entropies within tolerance)"


def test_verify_profile_budget_exits_5_before_building(tmp_path, capsys, monkeypatch):
    import zerotalk.sources as sources_module

    def refuse(*args):
        raise AssertionError("a profile was built past its budget")

    model = tmp_path / "six.json"
    model.write_text(json.dumps({"model": "hypergraphical", "users": 6,
                                 "edges": [{"name": "g", "subset": [1, 2, 3, 4, 5, 6], "uniform": 2}]}))
    monkeypatch.setattr(sources_module, "EntropyProfile", refuse)
    monkeypatch.setenv("ZEROTALK_EXPANSION_LIMIT", "100")
    code, out, err = run_cli(capsys, "verify", str(model))
    assert code == EXIT_RESOURCE
    assert out == ""
    assert err == "error: entropy profile: 246 elemental inequalities exceed the limit of 100\n"


@pytest.mark.parametrize(
    "doc, code, err",
    [
        # 12 users: the profile is built
        ({"model": "hypergraphical", "users": 12,
          "edges": [{"name": "g", "subset": list(range(1, 13)), "uniform": 2}]}, EXIT_OK, ""),
        # 13 users, each seeing the one hidden GF(2) coordinate
        ({"model": "finite_linear", "q": 2, "dim": 1,
          "matrices": {str(u): [[1]] for u in range(1, 14)}}, EXIT_OK, ""),
        # 15 users on a ring of 19 binary edges, inside every size cap: the
        # discrete profile's 2**19 points times 2**15 subsets, about an hour
        ({"model": "hypergraphical", "users": 15,
          "edges": [{"name": f"e{i}", "subset": sorted({i % 15 + 1, (i + 1) % 15 + 1}), "uniform": 2}
                    for i in range(19)]}, EXIT_RESOURCE,
         "error: entropy profile: 17179869184 subset projections exceed the limit of 100000000\n"),
        # 13 users, each of 12 binary edges seen by all users but one: user 1
        # and any two users see every edge and keep the 4096 points apart, so
        # 79 of the 8191 subsets project them (5 s when every subset did)
        ({"model": "hypergraphical", "users": 13,
          "edges": [{"name": f"e{k}", "subset": [u for u in range(1, 14) if u != k + 2], "uniform": 2}
                    for k in range(12)]}, EXIT_OK, ""),
    ],
    ids=["hypergraphical-12", "gf2-13", "ring-15", "all-but-one-13"],
)
def test_verify_on_wide_models_finishes(tmp_path, doc, code, err):
    # a cold run takes well under a second: the ring's budgets are checked
    # before its expansion is built; the pairwise profile check and the
    # Bell(m) partition walk took more than a minute
    model = tmp_path / "wide.json"
    model.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    env.pop("ZEROTALK_EXPANSION_LIMIT", None)
    proc = subprocess.run([sys.executable, "-m", "zerotalk", "verify", str(model)],
                          capture_output=True, env=env, timeout=2)
    assert (proc.returncode, proc.stderr.decode()) == (code, err)


@pytest.mark.parametrize(
    "users, size, err",
    [
        (7, 400, "entropy profile: 102400 subset projections exceed the limit of 100000"),
        (7, 501, "hypergraphical expansion: 1002 edge assignments exceed the limit of 1000"),
        (8, 1, "entropy profile: 1800 elemental inequalities exceed the limit of 1000"),
        (8, 501, "hypergraphical expansion: 1002 edge assignments exceed the limit of 1000"),
    ],
    ids=["projections", "expansion", "inequalities", "expansion-and-inequalities"],
)
def test_verify_checks_every_budget_before_the_expansion(tmp_path, capsys, monkeypatch, users, size, err):
    # the first budget that the expansion and the two profiles would meet is
    # reported, and nothing is expanded
    import zerotalk.sources as sources_module

    def refuse(*args):
        raise AssertionError("the expansion was built past a budget")

    model = tmp_path / "model.json"
    model.write_text(json.dumps({"model": "hypergraphical", "users": users,
                                 "edges": [{"name": "e", "subset": [1, 2], "uniform": 2},
                                           {"name": "f", "subset": [1], "uniform": size}]}))
    monkeypatch.setattr(sources_module, "expand_hypergraphical", refuse)
    monkeypatch.setenv("ZEROTALK_EXPANSION_LIMIT", "1000")
    assert run_cli(capsys, "verify", str(model)) == (EXIT_RESOURCE, "", f"error: {err}\n")


_FOUR_USERS = {"model": "hypergraphical", "users": 4, "edges": [
    {"name": "g", "subset": [1, 2, 3, 4], "uniform": 2},
    {"name": "a", "subset": [1, 2], "uniform": 3},
    {"name": "b", "subset": [2, 3, 4], "pmf": ["1/4", "3/4"]},
    {"name": "c", "subset": [4], "uniform": 2}]}


def test_verify_pins_the_checks_of_a_four_user_model(tmp_path, capsys):
    # four users are the most whose chain bound verify compares over every ordering
    model = tmp_path / "four.json"
    model.write_text(json.dumps(_FOUR_USERS))
    code, out, _ = run_cli(capsys, "verify", str(model), "--json")
    doc = json.loads(out)
    assert code == EXIT_OK
    assert [(c["name"], c["status"], c["detail"]) for c in doc["checks"]] == [
        ("closed_form_vs_oracle", "ok", "1.000000 vs 1.000000"),
        ("witness_entropy_brute_force", "ok", "1.000000 vs 1.000000"),
        ("expansion_preserves_profile", "ok", "all subset entropies within tolerance"),
        ("chain_vs_closed_form", "ok", "1.000000 vs 1.000000"),
        ("chain_ordering_invariance", "ok", "1 distinct value(s) over 24 orderings"),
        ("lamination_at_zero", "ok", "1.000000 vs 1.000000"),
    ]
    assert (doc["passed"], doc["total"], doc["all_ok"]) == (6, 6, True)


def test_verify_pins_the_checks_of_a_five_user_model(tmp_path, capsys):
    # past four users verify compares the chain bound of the identity ordering only
    model = tmp_path / "five.json"
    model.write_text(json.dumps({"model": "hypergraphical", "users": 5, "edges": [
        {"name": "g", "subset": [1, 2, 3, 4, 5], "uniform": 2},
        {"name": "a", "subset": [1, 2], "uniform": 3},
        {"name": "b", "subset": [3, 4, 5], "pmf": ["1/4", "3/4"]},
        {"name": "c", "subset": [5], "uniform": 2}]}))
    code, out, _ = run_cli(capsys, "verify", str(model), "--json")
    doc = json.loads(out)
    assert code == EXIT_OK
    assert [(c["name"], c["status"], c["detail"]) for c in doc["checks"]] == [
        ("closed_form_vs_oracle", "ok", "1.000000 vs 1.000000"),
        ("witness_entropy_brute_force", "ok", "1.000000 vs 1.000000"),
        ("expansion_preserves_profile", "ok", "all subset entropies within tolerance"),
        ("chain_vs_closed_form", "ok", "1.000000 vs 1.000000"),
        ("lamination_at_zero", "ok", "1.000000 vs 1.000000"),
    ]


def test_verify_reports_a_chain_bound_that_depends_on_the_ordering(tmp_path, capsys, monkeypatch):
    import zerotalk.bounds as bounds_module

    model = tmp_path / "four.json"
    model.write_text(json.dumps(_FOUR_USERS))
    chain_bound = bounds_module.chain_bound
    # the identity ordering keeps the true bound; an ordering starting at user k adds k - 1
    monkeypatch.setattr(bounds_module, "chain_bound", lambda s, order: chain_bound(s, order) + order[0] - 1)
    code, out, _ = run_cli(capsys, "verify", str(model), "--json")
    checks = {c["name"]: (c["status"], c["detail"]) for c in json.loads(out)["checks"]}
    assert code == EXIT_MISMATCH
    assert checks["chain_vs_closed_form"][0] == "ok"
    assert checks["chain_ordering_invariance"] == ("mismatch", "4 distinct value(s) over 24 orderings")


def _one_global_edge(users: int) -> dict:
    return {"model": "hypergraphical", "users": users,
            "edges": [{"name": "g", "subset": list(range(1, users + 1)), "uniform": 2}]}


def _all_but_one(users: int) -> dict:
    """An edge seen by every user but k, for each user k."""
    return {"model": "hypergraphical", "users": users,
            "edges": [{"name": f"e{k}", "subset": [u for u in range(1, users + 1) if u != k], "uniform": 2}
                      for k in range(1, users + 1)]}


# Every past-the-cap case at the default limit.  The stages checked before
# their work starts get 1 s; the partition search counts its steps as it goes.
@pytest.mark.parametrize(
    "doc, argv, seconds, stage",
    [
        pytest.param({"model": "hypergraphical", "users": 10**9,
                      "edges": [{"name": "e", "subset": [1, 2], "uniform": 2}]}, ["jgk"], 1.0,
                     "hypergraphical model: 1000000000 users exceed the limit of 1000000", id="users"),
        pytest.param({"model": "hypergraphical", "users": 2,
                      "edges": [{"name": "e", "subset": [1, 2], "uniform": 10**9}]}, ["jgk"], 1.0,
                     "edge 'e': 1000000000 uniform values exceed the limit of 1000000", id="uniform"),
        pytest.param({"model": "finite_linear", "q": 2, "dim": 21,
                      "matrices": {"1": [[int(i == j) for j in range(21)] for i in range(21)], "2": [[1]] * 21}},
                     ["oracle"], 1.0, "linear expansion: 2097152 support points exceed the limit of 1000000",
                     id="linear-expansion"),
        # 16 + C(16, 2) * 2**14 elemental inequalities
        pytest.param(_one_global_edge(16), ["verify"], 1.0,
                     "entropy profile: 1966096 elemental inequalities exceed the limit of 1000000",
                     id="entropy-profile"),
        # 40000000 rounds of 3 edge columns and 3 users' key labels
        pytest.param(json.loads(Path(SHARED_BIT).read_text()), ["simulate", "--n", "40000000"], 1.0,
                     "simulation: 240000000 values exceed the limit of 100000000", id="simulation"),
        # 1000 rounds of 1 column and 100000 users' key labels
        pytest.param({"model": "hypergraphical", "users": 10**5, "edges": []}, ["simulate", "--n", "1000"],
                     1.0, "simulation: 100001000 values exceed the limit of 100000000",
                     id="simulation-key-streams"),
        # checked before the 10**6 users' decoders are built
        pytest.param({"model": "hypergraphical", "users": 10**6, "edges": []}, ["simulate", "--n", "1000"],
                     1.0, "simulation: 1000001000 values exceed the limit of 100000000",
                     id="simulation-before-extractor"),
        pytest.param(_all_but_one(12), ["bound", "--search"], 5.0,
                     "partition search: 1000008 search steps exceed the limit of 1000000", id="partition-search"),
    ],
)
def test_oversized_model_file_exits_5_fast(tmp_path, capsys, monkeypatch, doc, argv, seconds, stage):
    monkeypatch.delenv("ZEROTALK_EXPANSION_LIMIT", raising=False)
    model = tmp_path / "huge.json"
    model.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv[0], str(model), *argv[1:])
    assert time.perf_counter() - start < seconds
    assert (code, out, err) == (EXIT_RESOURCE, "", f"error: {stage}\n")


@pytest.mark.parametrize(
    "argv, code",
    [(["jgk"], EXIT_OK), (["bound", "--search"], EXIT_OK), (["verify"], EXIT_RESOURCE)],
    ids=["jgk", "bound-search", "verify"],
)
def test_wide_uniform_edges_load_in_constant_space(tmp_path, capsys, monkeypatch, argv, code):
    # 100 edges at the cap, 34 of them global; holding their 10**8 values
    # took minutes and GBs
    monkeypatch.delenv("ZEROTALK_EXPANSION_LIMIT", raising=False)
    model = tmp_path / "wide.json"
    edges = [{"name": f"e{k}", "subset": [1, 2, 3] if k % 3 == 0 else [k % 3, 3], "uniform": 10**6}
             for k in range(100)]
    model.write_text(json.dumps({"model": "hypergraphical", "users": 3, "edges": edges}))
    start = time.perf_counter()
    got, out, err = run_cli(capsys, argv[0], str(model), *argv[1:])
    assert time.perf_counter() - start < 1.0
    assert got == code, err
    if code == EXIT_OK:
        assert f"{34 * math.log2(10**6):.6f} bits" in out
    else:
        assert err.startswith("error: hypergraphical expansion: ")
        assert err.endswith(" edge assignments exceed the limit of 1000000\n")


def test_wide_edge_budget_error_is_one_short_line(tmp_path, capsys, monkeypatch):
    # 10**600 edge assignments: past 100 bits the count is shown as a power of two
    monkeypatch.delenv("ZEROTALK_EXPANSION_LIMIT", raising=False)
    model = tmp_path / "wide.json"
    edges = [{"name": f"e{k}", "subset": [1, 2, 3] if k % 3 == 0 else [k % 3, 3], "uniform": 10**6}
             for k in range(100)]
    model.write_text(json.dumps({"model": "hypergraphical", "users": 3, "edges": edges}))
    code, out, err = run_cli(capsys, "verify", str(model))
    assert (code, out) == (EXIT_RESOURCE, "")
    assert err.count("\n") == 1 and len(err.encode()) < 120
    assert err == ("error: hypergraphical expansion: more than 2**1993 edge assignments"
                   " exceed the limit of 1000000\n")


def test_simulate_output(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", SHARED_BIT, "--n", "500", "--seed", "9", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["agreement"] is True
    assert doc["discussion_bits"] == 0
    assert doc["rate_ok"] is True
    assert len(set(doc["key_digests"])) == 1
    assert len(doc["first_labels"]) == 16


# keys of more labels than a float holds: 52 global edges of 10**6 values
# (10**312 labels) and a 40-dim subspace of GF(2**31 - 1) that both users see
_EYE_40 = [[int(i == j) for j in range(40)] for i in range(40)]
_PAST_FLOAT_KEYS = [
    {"model": "hypergraphical", "users": 2,
     "edges": [{"name": f"g{k}", "subset": [1, 2], "uniform": 10**6} for k in range(52)]},
    {"model": "finite_linear", "q": 2147483647, "dim": 40, "matrices": {"1": _EYE_40, "2": _EYE_40}},
]


@pytest.mark.parametrize("doc", _PAST_FLOAT_KEYS, ids=["edges-10**312", "gf2147483647-dim40"])
def test_simulate_keys_past_the_float_range_are_within_tolerance(capsys, tmp_path, doc):
    # the label-count allowance is infinite there, not an OverflowError
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "simulate", str(model), "--n", "10", "--json")
    assert code == EXIT_OK
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["agreement"] and report["rate_ok"]


@pytest.mark.parametrize("model", [SHARED_BIT, OVERLAP_PAIR, TWO_COINS])
def test_simulate_digest_is_sha256_of_joined_labels(capsys, model):
    code, out, _ = run_cli(capsys, "simulate", model, "--n", "300", "--seed", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    stream = key_labels(run(load_model(model), n=300, seed=2))[0]
    joined = ",".join(map(repr, stream))
    assert doc["key_digests"][0] == hashlib.sha256(joined.encode()).hexdigest()
    assert doc["key_digests"] == [doc["key_digests"][0]] * doc["users"]


# the digest is hashed 2**16 rounds at a time and must still be the hash of the
# whole joined text: byte key streams on shared_bit, lists on two_coins
@pytest.mark.parametrize("model, n", [pytest.param(SHARED_BIT, (1 << 17) + 7, id="shared_bit-3-chunks"),
                                      pytest.param(TWO_COINS, (1 << 16) + 1, id="two_coins-2-chunks")])
def test_simulate_digest_past_one_chunk_is_sha256_of_joined_labels(capsys, model, n):
    code, out, _ = run_cli(capsys, "simulate", model, "--n", str(n), "--seed", "2", "--json")
    assert code == 0
    stream = key_labels(run(load_model(model), n=n, seed=2))[0]
    joined = ",".join(map(repr, stream))
    assert json.loads(out)["key_digests"][0] == hashlib.sha256(joined.encode()).hexdigest()


# Models whose keys take the simulator's less common paths: two global edges of
# 16 and 17 values (272 labels, past a byte), a GF(131) key (the q > 127
# column product), a GF(2**31 - 1) key (the largest field, 32 bits per packed
# entry) and a 40-point discrete model (39 cuts, past MAX_TABLE_CUTS).
# The digests are of `simulate --n 2000 --seed 5 --json` stdout, recorded
# before simulator keys became int codes; the CI workflow runs the same models.
_WIDE_KEY = {"model": "hypergraphical", "users": 3, "edges": [
    {"name": "a", "subset": [1, 2, 3], "uniform": 16},
    {"name": "b", "subset": [1, 2, 3], "uniform": 17},
    {"name": "c", "subset": [1, 2], "uniform": 2}]}
_GF131_KEY = {"model": "finite_linear", "q": 131, "dim": 3,
              "matrices": {"1": [[1, 0], [2, 0], [0, 1]], "2": [[1, 0], [2, 1], [0, 5]]}}
_GF_WIDEST_KEY = {"model": "finite_linear", "q": 2147483647, "dim": 2,
                  "matrices": {"1": [[1, 0], [3, 1]], "2": [[2], [6]]}}
_POINTS_40 = {"model": "discrete", "alphabets": [40, 8], "pmf": [
    {"symbols": [i, i % 8], "p": f"{i % 7 + 1}/155"} for i in range(40)]}


@pytest.mark.parametrize("doc, digest", [
    (_WIDE_KEY, "e202dd17973fd6f9e7e3b44fe370c4707be2cf188faf731a0f4d5c1919f039f4"),
    (_GF131_KEY, "87774af3dbe66c3f30e94c615dec281efccb4a9c922dfe5c4d35529559645594"),
    (_GF_WIDEST_KEY, "767e571291c70b513e071f09710fc75b453a2a61bed986760c77d2fab2455473"),
    (_POINTS_40, "6d2a4c168e58aec2de6d0e61c25eb65514c5e932ed74e7d2f537c033d42c38ed"),
], ids=["edges-16x17", "gf131", "gf2147483647", "discrete-40"])
def test_simulate_output_is_pinned_on_wide_keys_and_draws(capsys, tmp_path, doc, digest):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "simulate", str(model), "--n", "2000", "--seed", "5", "--json")
    assert code == 0 and json.loads(out)["agreement"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _reference_digest(stream, radices) -> str:
    return hashlib.sha256(",".join(repr(key_label(radices, code)) for code in stream).encode()).hexdigest()


# one repr per distinct code feeds the digest and the preview: each must read
# as sha256 of ",".join(repr(key_label(radices, code))) and those reprs themselves
_GF3_729 = {"model": "finite_linear", "q": 3, "dim": 6,
            "matrices": {"1": [[int(i == j) for j in range(6)] for i in range(6)],
                         "2": [[int(i == 5 - j) for j in range(6)] for i in range(6)]}}
_EDGE_12 = {"model": "hypergraphical", "users": 3, "edges": [
    {"name": "a", "subset": [1, 2, 3], "uniform": 4}, {"name": "b", "subset": [1, 2], "uniform": 2},
    {"name": "c", "subset": [1, 2, 3], "pmf": ["1/6", "1/3", "1/2"]}]}
_NO_KEY = {"model": "hypergraphical", "users": 3, "edges": [{"name": "a", "subset": [1, 2], "uniform": 4}]}
_SYMBOL_257 = {"model": "discrete", "alphabets": [2, 257], "pmf": [
    {"symbols": [0, 0], "p": "1/4"}, {"symbols": [0, 256], "p": "1/4"},
    {"symbols": [1, 9], "p": "1/4"}, {"symbols": [1, 255], "p": "1/4"}]}


@pytest.mark.parametrize("doc, kind", [(_EDGE_12, bytes), (_GF3_729, list), (_NO_KEY, bytes),
                                       (json.loads(Path(TWO_COINS).read_text()), bytes), (_SYMBOL_257, list)],
                         ids=["edges-12", "gf3-729", "no-key", "discrete-bytes", "discrete-list"])
def test_simulate_digest_and_preview_read_each_label_repr(capsys, tmp_path, doc, kind):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    result = run(load_model(str(model)), 20000, 4)
    assert result.agreement and type(result.codes[0]) is kind
    code, out, _ = run_cli(capsys, "simulate", str(model), "--n", "20000", "--seed", "4", "--json")
    assert code == 0
    got = json.loads(out)
    assert got["key_digests"] == [_reference_digest(result.codes[0], result.radices)] * len(result.codes)
    assert got["first_labels"] == [repr(key_label(result.radices, c)) for c in result.codes[0][:16]]
    if doc is _GF3_729:
        assert len(set(result.codes[0])) == 729
    if doc is _NO_KEY:
        assert got["first_labels"] == ["()"] * 16


def test_simulate_digests_of_disagreeing_radix_keys(capsys, monkeypatch):
    # user 2 decodes a different radix key: its digest reads labels user 1 never holds
    import zerotalk.sim as sim_module

    build = sim_module.build_extractor

    def disagreeing(s):
        ext = build(s)
        shifted = lambda obs, n: [code + ext.label_count for code in ext.decoders[1](obs, n)]
        return KeyExtractor((ext.decoders[0], shifted, *ext.decoders[2:]), ext.expected_bits,
                            ext.surprise_var, ext.label_count, ext.radices)

    monkeypatch.setattr(sim_module, "build_extractor", disagreeing)
    code, out, _ = run_cli(capsys, "simulate", OVERLAP_PAIR, "--n", "500", "--seed", "3", "--json")
    assert code == 0
    got = json.loads(out)
    result = sim_module.run(load_model(OVERLAP_PAIR), 500, 3)
    assert not result.agreement and got["agreement"] is False
    assert got["key_digests"] == [_reference_digest(stream, result.radices) for stream in result.codes]
    assert not set(result.codes[0]) & set(result.codes[1])
    assert got["first_labels"] == [repr(key_label(result.radices, c)) for c in result.codes[0][:16]]


@pytest.mark.parametrize("n", ["0", "-5"])
def test_simulate_rejects_nonpositive_rounds(capsys, n):
    code, _, err = run_cli(capsys, "simulate", SHARED_BIT, "--n", n)
    assert code == EXIT_MODEL
    assert "need at least one round" in err


def test_simulate_budget_exits_5_before_drawing(capsys, monkeypatch):
    import zerotalk.sim as sim_module

    def refuse(*args):
        raise AssertionError("rounds were drawn past the budget")

    monkeypatch.setattr(sim_module, "_observation_columns", refuse)
    code, out, err = run_cli(capsys, "simulate", SHARED_BIT, "--n", "100000000")
    assert code == EXIT_RESOURCE
    assert out == ""
    assert err == "error: simulation: 600000000 values exceed the limit of 100000000\n"


def test_simulate_reports_users_that_disagree(capsys, monkeypatch):
    import zerotalk.sim as sim_module

    def disagreeing(s):  # user i decodes every round as the label i
        decoders = [lambda obs, n, i=i: [i] * n for i in range(1, s.user_count + 1)]
        return KeyExtractor(tuple(decoders), 1.0, 0.0, 1, None)  # a rate of 0 is out of tolerance

    monkeypatch.setattr(sim_module, "build_extractor", disagreeing)
    digests = [hashlib.sha256(",".join(["1"] * 5).encode()).hexdigest(),
               hashlib.sha256(",".join(["2"] * 5).encode()).hexdigest()]
    code, out, _ = run_cli(capsys, "simulate", TWO_COINS, "--n", "5", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert (doc["agreement"], doc["key_digests"], doc["first_labels"]) == (False, digests, ["1"] * 5)
    code, out, _ = run_cli(capsys, "simulate", TWO_COINS, "--n", "5")
    assert code == EXIT_OK
    assert out == (
        "model: discrete (2 users)\n"
        "rounds: 5, seed: 0\n"
        "agreement: NO\n"
        "discussion bits: 0\n"
        "key rate: empirical 0.000000, expected 1.000000 bits/round (OUT OF TOLERANCE)\n"
        f"user 1 key digest: {digests[0]}\nuser 2 key digest: {digests[1]}\n"
        "first labels: 1 1 1 1 1\n"
    )


def test_simulate_human_output(capsys):
    code, out, _ = run_cli(capsys, "simulate", TWO_COINS, "--n", "100", "--seed", "1")
    assert code == 0
    assert "agreement: yes" in out
    assert "discussion bits: 0" in out


def test_expansion_limit_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("ZEROTALK_EXPANSION_LIMIT", "4")
    assert run_cli(capsys, "oracle", SHARED_BIT)[0] == EXIT_RESOURCE


def _discrete(*symbols, p=None) -> dict:
    """A two-user discrete model file: one entry per symbol list, masses "1/n"
    or p (None leaves out the entry's "p")."""
    masses = p or [f"1/{len(symbols)}"] * len(symbols)
    entries = [{"symbols": list(k)} if m is None else {"symbols": list(k), "p": m} for k, m in zip(symbols, masses)]
    return {"model": "discrete", "alphabets": [2, 2], "pmf": entries}


@pytest.mark.parametrize(
    "doc, code, message",
    [
        pytest.param({"model": "hypergraphical", "users": 1, "edges": []},
                     EXIT_MODEL, "need at least 2 users, got 1", id="one-user"),
        pytest.param({"model": "finite_linear", "q": 2, "dim": 0, "matrices": {"1": [], "2": []}},
                     EXIT_MODEL, "ambient dimension must be positive, got 0", id="dim-0"),
        pytest.param({"model": "hypergraphical", "users": 2, "edges": [{"name": "", "subset": [1], "uniform": 2}]},
                     EXIT_MODEL, "edge name must be nonempty", id="empty-edge-name"),
        pytest.param({"model": "hypergraphical", "users": 2, "edges": [{"name": "e", "subset": [1], "pmf": []}]},
                     EXIT_MODEL, "edge 'e': empty distribution", id="empty-pmf"),
        pytest.param({"model": "hypergraphical", "users": 2, "edges": [{"name": "e", "subset": [1]}]},
                     EXIT_PARSE, "edge #0: needs 'uniform' or 'pmf'", id="edge-without-values"),
        pytest.param({"model": "hypergraphical", "users": 2,
                      "edges": [{"name": "e", "subset": [1], "pmf": [-0.5, 1.5]}]},
                     EXIT_MODEL, "edge 'e': bad probability -0.5", id="negative-probability"),
        pytest.param({"model": "discrete", "alphabets": [2], "pmf": [{"symbols": [0], "p": 1}]},
                     EXIT_MODEL, "need at least 2 users, got 1", id="one-user-discrete"),
        pytest.param({"model": "discrete", "alphabets": [2, 2], "pmf": [{"symbols": [0, 0], "p": True}]},
                     EXIT_PARSE, "pmf entry #0: probability must be a number or 'a/b' string", id="bool-p"),
        # every parse error in the file comes before any model error
        pytest.param(_discrete([5, 0], [0, 1], [1, 0], [1, "1"]),
                     EXIT_PARSE, "pmf entry #3: symbols must be integers", id="range-then-symbol-type"),
        pytest.param(_discrete([5, 0], [0, 1], [0, 1]),
                     EXIT_PARSE, "pmf entry #2: duplicate realization (0, 1)", id="range-then-duplicate"),
        pytest.param(_discrete([0, 0], [1, 1], [1, 0], p=["-1/2", "3/2", None]),
                     EXIT_PARSE, "pmf entry #2: missing key 'p'", id="negative-then-missing-p"),
        pytest.param(_discrete([5, 0], [1, 1], p=["1/2", False]),
                     EXIT_PARSE, "pmf entry #1: probability must be a number or 'a/b' string",
                     id="range-then-bool-p"),
        pytest.param(_discrete([0, 0], [0, 1], [1, 1], p=["1/2", "1/2", "x"]),
                     EXIT_PARSE, "pmf entry #2: bad fraction string 'x'", id="sum-then-bad-string"),
        pytest.param(_discrete([0, 0], [1, 1], p=["-1/2", "3/2"]),
                     EXIT_MODEL, "joint pmf: negative probability -1/2", id="negative-probability-string"),
        # the first negative mass in sorted realization order, after every symbol check
        pytest.param(_discrete([1, 1], [0, 1], [0, 0], p=["-1/4", "-1/3", "19/12"]),
                     EXIT_MODEL, "joint pmf: negative probability -1/3", id="first-negative-in-sorted-order"),
        pytest.param(_discrete([0, 0], [1, 1], [1, 2], p=["-1/2", "3/2", "0/1"]),
                     EXIT_MODEL, "realization (1, 2): symbol 2 outside alphabet of user 2", id="range-then-negative"),
        pytest.param({"model": "discrete", "alphabets": [2], "pmf": [{"symbols": [5], "p": "-1"}]},
                     EXIT_MODEL, "need at least 2 users, got 1", id="one-user-then-range"),
        pytest.param(_discrete([0, 0], [1, 1], p=["1/2", "1/4"]),
                     EXIT_MODEL, "joint pmf: exact probabilities sum to 3/4, not 1", id="sum-not-1"),
        pytest.param(_discrete([0, 0], [1, 1], p=["1/2", 0.25]),
                     EXIT_MODEL, "joint pmf: probabilities sum to 0.75, not 1", id="float-sum-not-1"),
        pytest.param(_discrete([0, 0], p=["0/1"]),
                     EXIT_MODEL, "joint pmf: empty distribution", id="only-zero-mass"),
    ],
)
def test_invalid_model_file_exits_with_its_message(tmp_path, capsys, doc, code, message):
    model = tmp_path / "bad.json"
    model.write_text(json.dumps(doc))
    assert run_cli(capsys, "jgk", str(model)) == (code, "", f"error: {message}\n")


def test_zero_mass_entries_leave_the_support(tmp_path, capsys):
    model = tmp_path / "zero.json"
    model.write_text(json.dumps(_discrete([0, 0], [0, 1], [1, 1], p=["1/2", "0/1", "1/2"])))
    assert load_model(str(model)).support() == ((0, 0), (1, 1))
    code, out, _ = run_cli(capsys, "oracle", str(model), "--json")
    assert code == 0 and json.loads(out)["support"] == 2


def test_model_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "model": "hypergraphical",
                "users": 2,
                "edges": [{"name": "e", "subset": [1, 2], "pmf": ["1/2", "1/3"]}],
            }
        )
    )
    assert run_cli(capsys, "jgk", str(bad))[0] == EXIT_MODEL


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(capsys, "jgk", str(bad))[0] == EXIT_PARSE
    assert run_cli(capsys, "jgk", str(tmp_path / "absent.json"))[0] == EXIT_PARSE


@pytest.mark.parametrize(
    "argv",
    [
        ("jgk", SHARED_BIT, "--json"),
        ("bound", SHARED_BIT, "--search", "--rate", "0.5", "--json"),
        ("oracle", OVERLAP_PAIR, "--json"),
        ("convert", OVERLAP_PAIR, "--to", "hypergraphical"),
        ("verify", PAIRWISE_XOR, "--json"),
        ("verify", "--random", "5", "--seed", "11", "--json"),
        ("simulate", OVERLAP_PAIR, "--n", "300", "--seed", "4", "--json"),
    ],
)
def test_output_is_deterministic(capsys, argv):
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second


def test_parser_is_built_once_and_reused(capsys, monkeypatch):
    assert build_parser() is build_parser()
    # the plain-command-line table is built with the shared parser, once
    assert build_parser().plain is build_parser().plain
    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit):
            main(["bound", "--help"])
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1]
    assert "--search" in helps[0]
    # a usage error leaves the shared parser as it was
    with pytest.raises(SystemExit):
        main(["bound", SHARED_BIT, "--search", "--partition", "1/2,3"])
    capsys.readouterr()
    assert run_cli(capsys, "bound", SHARED_BIT, "--search")[0] == 0

    # a plain command line skips argparse's parse pass; a declined one still reaches it
    def parse_args(self, args=None, namespace=None):
        raise AssertionError(f"parse_args {args}")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", parse_args)
    assert run_cli(capsys, "bound", SHARED_BIT, "--search", "--json")[0] == 0
    for argv in (["jgk", SHARED_BIT, "--js"], ["jgk", "-h"]):
        with pytest.raises(AssertionError, match="parse_args"):
            main(argv)


# --- plain command lines ---

SUBCOMMANDS = ("jgk", "bound", "oracle", "convert", "verify", "simulate")
# the subcommands, every option string, and tokens that argparse reads in ways
# the plain path leaves to it: abbreviations, "=", "--", "-", help, version,
# negative numbers, values that fail their type or choices
PLAIN_VOCABULARY = SUBCOMMANDS + (
    "--json", "--partition", "--search", "--rate", "--to", "--out", "--random", "--seed", "--n",
    "-h", "--help", "--version", "--js", "--n=5", "--", "-", "", "-1", "nan", "1e3", "x",
    "hypergraphical", "graph", "5", "1/2", SHARED_BIT,
)


def _argparse_args(argv):
    """argparse's Namespace for argv, or None where it exits (help, version, a usage error)."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return build_parser().parse_args(argv)
        except SystemExit:
            return None


def _namespace_key(args) -> str:
    """Equal for equal Namespaces, NaN values included."""
    return repr(sorted(vars(args).items()))


def plain_command_lines() -> list:
    """Every subcommand on every spec, the benchmark's op shapes and the README's commands."""
    argvs = []
    for spec in sorted(str(f) for f in SPECS.glob("*.json")):
        argvs += [
            ["jgk", spec], ["jgk", spec, "--json"],
            ["bound", spec], ["bound", spec, "--search", "--json"],
            ["bound", spec, "--partition", "1,2/3", "--rate", "1.5", "--json"],
            ["oracle", spec, "--json"],
            ["convert", spec, "--to", "hypergraphical"],
            ["convert", spec, "--to", "hypergraphical", "--out", "converted.json", "--json"],
            ["verify", spec], ["verify", spec, "--json"],
            ["simulate", spec, "--n", "1000", "--seed", "271828", "--json"],
        ]
    argvs += [["verify", "--random", "5", "--seed", "11", "--json"], ["verify", "--json", "--random", "3"]]
    readme = [shlex.split(line, comments=True)[1:] for line in readme_command_block()
              if line.startswith("zerotalk ")]
    assert len(readme) >= 9
    return argvs + readme


def test_plain_command_lines_skip_argparse_with_its_namespace():
    for argv in plain_command_lines():
        args = _plain_args(argv)
        assert args is not None, argv
        assert _namespace_key(args) == _namespace_key(_argparse_args(argv)), argv


@pytest.mark.parametrize("argv", [
    [], ["--version"], ["-h"], ["graph", SHARED_BIT],
    ["jgk"], ["jgk", "-h"], ["jgk", "--", SHARED_BIT], ["jgk", SHARED_BIT, "x"],
    ["jgk", SHARED_BIT, "--js"], ["jgk", SHARED_BIT, "--json=1"], ["jgk", SHARED_BIT, "--version"],
    ["bound", SHARED_BIT, "--rate", "-1"], ["bound", SHARED_BIT, "--rate", "x"], ["bound", SHARED_BIT, "--rate"],
    ["bound", SHARED_BIT, "--search", "--partition", "1/2"],
    ["convert", SHARED_BIT], ["convert", SHARED_BIT, "--to", "graph"],
    ["convert", SHARED_BIT, "--to", "hypergraphical", "--out", "--json"],
    ["verify", "--json", SHARED_BIT], ["simulate", SHARED_BIT, "--n=5"], ["simulate", SHARED_BIT, "--n", "1e3"],
], ids=" ".join)
def test_plain_path_leaves_other_command_lines_to_argparse(argv):
    assert _plain_args(argv) is None


def test_plain_path_agrees_with_argparse_on_drawn_command_lines():
    """Whatever the plain path reads, argparse reads the same; what argparse
    refuses, the plain path declines."""
    rng = random.Random(0)
    accepted = 0
    for _ in range(12000):
        head = [rng.choice(SUBCOMMANDS if rng.random() < 0.9 else PLAIN_VOCABULARY)]
        argv = head + [rng.choice(PLAIN_VOCABULARY) for _ in range(rng.randrange(7))]
        args = _plain_args(argv)
        if args is None:
            continue
        accepted += 1
        expected = _argparse_args(argv)
        assert expected is not None, argv
        assert _namespace_key(args) == _namespace_key(expected), argv
    assert accepted >= 500


# --- README examples ---


def readme_command_block() -> list:
    """The lines of the README's command-line block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0].splitlines()


def readme_examples():
    """(argv, expected stdout) for each command in the README's command-line
    block that is followed by its output as '# ' lines."""
    lines = readme_command_block()
    examples = []
    for i, line in enumerate(lines):
        if not line.startswith("zerotalk "):
            continue
        output = []
        for follow in lines[i + 1:]:
            if not follow.startswith("# "):
                break
            output.append(follow[2:])
        if output:
            examples.append((shlex.split(line, comments=True)[1:], output))
    return examples


def test_readme_has_worked_examples():
    assert len(readme_examples()) >= 3


@pytest.mark.parametrize(
    "argv, output", [pytest.param(a, o, id=" ".join(a)) for a, o in readme_examples()]
)
def test_readme_example_output(capsys, monkeypatch, argv, output):
    monkeypatch.chdir(ROOT)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == "\n".join(output) + "\n"


def test_readme_library_block_holds():
    """Run the README's Library block and check the value each comment states."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    values = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    jgk_bits, summary, best, chain, column, converted, agreement = values
    assert jgk_bits == 1.0
    assert repr(namespace["w"]) == "EdgeSubsetWitness(payload=('c',), entropy_bits=1.0)"
    assert summary == {"kind": "edge-subset", "edges": ["c"]}
    assert (best.partition.blocks, best.coefficient) == (((1,), (2,), (3,)), Fraction(1, 2))
    assert chain == 1.0
    assert column == (1, 1, 0)
    assert len(converted.edges) == 3
    assert agreement is True
