"""CLI behavior: parsing, subcommands, exit codes, deterministic output."""

from __future__ import annotations

import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
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
    render_hypergraphical,
)
from zerotalk.errors import ParseError
from zerotalk.mcf import CommonFunctionWitness, LabelingWitness
from zerotalk.sim import run
from zerotalk.sources import (
    DiscreteSource,
    FiniteLinearSource,
    HypergraphicalSource,
    entropy_profile,
)

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


def test_bound_search(capsys):
    code, out, _ = run_cli(capsys, "bound", SHARED_BIT, "--search", "--json")
    assert code == 0
    assert json.loads(out)["coefficient"] == "1/2"


@pytest.mark.parametrize("users", [16, 20])
def test_bound_search_on_one_global_edge(tmp_path, capsys, monkeypatch, users):
    # every partition ties at coefficient 0; the search is capped by its steps, not by users
    monkeypatch.delenv("ZEROTALK_EXPANSION_LIMIT", raising=False)
    model = tmp_path / "global.json"
    model.write_text(json.dumps({"model": "hypergraphical", "users": users,
                                 "edges": [{"name": "g", "subset": list(range(1, users + 1)), "uniform": 2}]}))
    code, out, err = run_cli(capsys, "bound", str(model), "--search")
    if users == 16:
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith("partition: 1/2,3,4,5,6,7,8,9,10,11,12,13,14,15,16\nspread coefficient: 0\n")
    else:
        assert (code, out) == (EXIT_RESOURCE, "")
        assert err == "error: partition search: 1000002 search steps exceed the limit of 1000000\n"


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
    assert "lamination_at_zero: mismatch (2.000000 vs 1.000000)" in out


def test_verify_reports_mismatch(capsys, monkeypatch):
    import zerotalk.cli as cli_module

    def broken_oracle(s):
        return LabelingWitness({}, 123.0)

    monkeypatch.setattr(cli_module, "gk_oracle", broken_oracle)
    code, out, _ = run_cli(capsys, "verify", SHARED_BIT, "--json")
    assert code == EXIT_MISMATCH
    doc = json.loads(out)
    assert any(c["status"] == "mismatch" for c in doc["checks"])


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
    "doc, code",
    [
        # 12 users: the profile is built and the best-partition search finishes
        ({"model": "hypergraphical", "users": 12,
          "edges": [{"name": "g", "subset": list(range(1, 13)), "uniform": 2}]}, EXIT_OK),
        # 13 users, each seeing the one hidden GF(2) coordinate
        ({"model": "finite_linear", "q": 2, "dim": 1,
          "matrices": {str(u): [[1]] for u in range(1, 14)}}, EXIT_OK),
    ],
    ids=["hypergraphical-12", "gf2-13"],
)
def test_verify_on_wide_models_finishes(tmp_path, doc, code):
    # a cold run takes well under a second; the pairwise profile check and
    # the Bell(m) partition walk took more than the 60 s timeout
    model = tmp_path / "wide.json"
    model.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    env.pop("ZEROTALK_EXPANSION_LIMIT", None)
    proc = subprocess.run([sys.executable, "-m", "zerotalk", "verify", str(model)],
                          capture_output=True, env=env, timeout=60)
    assert proc.returncode == code, proc.stderr


def _one_global_edge(users: int) -> dict:
    return {"model": "hypergraphical", "users": users,
            "edges": [{"name": "g", "subset": list(range(1, users + 1)), "uniform": 2}]}


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
        # 40000000 rounds of 3 edge columns
        pytest.param(json.loads(Path(SHARED_BIT).read_text()), ["simulate", "--n", "40000000"], 1.0,
                     "simulation: 120000000 values exceed the limit of 100000000", id="simulation"),
        pytest.param(_one_global_edge(20), ["bound", "--search"], 5.0,
                     "partition search: 1000002 search steps exceed the limit of 1000000", id="partition-search"),
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


@pytest.mark.parametrize("model", [SHARED_BIT, OVERLAP_PAIR, TWO_COINS])
def test_simulate_digest_is_sha256_of_joined_labels(capsys, model):
    code, out, _ = run_cli(capsys, "simulate", model, "--n", "300", "--seed", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    stream = run(load_model(model), n=300, seed=2).per_user_keys[0]
    joined = ",".join(map(repr, stream))
    assert doc["key_digests"][0] == hashlib.sha256(joined.encode()).hexdigest()
    assert doc["key_digests"] == [doc["key_digests"][0]] * doc["users"]


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
    assert err == "error: simulation: 300000000 values exceed the limit of 100000000\n"


class _DisagreeingWitness(CommonFunctionWitness):
    """A test witness whose user i decodes every round as the label i."""

    kind = "disagreeing"

    def key_map(self, s):
        decoders = [lambda obs, n, i=i: [i] * n for i in range(1, s.user_count + 1)]
        return s, decoders, 0.0, 1


def test_simulate_reports_users_that_disagree(capsys, monkeypatch):
    import zerotalk.sim as sim_module

    monkeypatch.setattr(sim_module, "common_function", lambda s: _DisagreeingWitness(None, 0.0))
    digests = [hashlib.sha256(",".join(["1"] * 5).encode()).hexdigest(),
               hashlib.sha256(",".join(["2"] * 5).encode()).hexdigest()]
    code, out, _ = run_cli(capsys, "simulate", TWO_COINS, "--n", "5", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert (doc["agreement"], doc["key_digests"], doc["first_labels"]) == (False, digests, ["1"] * 5)
    code, out, _ = run_cli(capsys, "simulate", TWO_COINS, "--n", "5")
    assert code == EXIT_OK
    assert "agreement: NO\n" in out
    assert f"user 1 key digest: {digests[0]}\nuser 2 key digest: {digests[1]}\n" in out
    assert not any(line.startswith("key digest: ") for line in out.splitlines())


def test_simulate_human_output(capsys):
    code, out, _ = run_cli(capsys, "simulate", TWO_COINS, "--n", "100", "--seed", "1")
    assert code == 0
    assert "agreement: yes" in out
    assert "discussion bits: 0" in out


def test_expansion_limit_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("ZEROTALK_EXPANSION_LIMIT", "4")
    assert run_cli(capsys, "oracle", SHARED_BIT)[0] == EXIT_RESOURCE


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
        pytest.param({"model": "hypergraphical", "users": 2,
                      "edges": [{"name": "e", "subset": [1], "pmf": [-0.5, 1.5]}]},
                     EXIT_MODEL, "edge 'e': bad probability -0.5", id="negative-probability"),
        pytest.param({"model": "discrete", "alphabets": [2], "pmf": [{"symbols": [0], "p": 1}]},
                     EXIT_MODEL, "need at least 2 users, got 1", id="one-user-discrete"),
        pytest.param({"model": "discrete", "alphabets": [2, 2], "pmf": [{"symbols": [0, 0], "p": True}]},
                     EXIT_PARSE, "pmf entry #0: probability must be a number or 'a/b' string", id="bool-p"),
    ],
)
def test_invalid_model_file_exits_with_its_message(tmp_path, capsys, doc, code, message):
    model = tmp_path / "bad.json"
    model.write_text(json.dumps(doc))
    assert run_cli(capsys, "jgk", str(model)) == (code, "", f"error: {message}\n")


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


def test_parser_is_built_once_and_reused(capsys):
    assert build_parser() is build_parser()
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


# --- README examples ---


def readme_examples():
    """(argv, expected stdout) for each command in the README's command-line
    block that is followed by its output as '# ' lines."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
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
