"""Command-line front end.

Subcommands:

* jgk       compute the common-function entropy and its witness
* bound     evaluate the partition bound at a discussion rate
* oracle    brute-force the common function on the expanded support
* convert   rewrite a two-user linear model as an equivalent edge model
* verify    cross-check closed forms, chain bound, and brute force
* simulate  run the zero-discussion key agreement simulator

Model files are JSON documents with a "model" discriminator:

  {"model": "hypergraphical", "users": 3,
   "edges": [{"name": "c", "subset": [1, 2, 3], "uniform": 2},
             {"name": "a", "subset": [1, 3], "pmf": ["1/2", "1/2"]}]}

  {"model": "finite_linear", "q": 2, "dim": 3,
   "matrices": {"1": [[1, 0], [1, 1], [0, 0]], "2": [[0], [1], [1]]}}

  {"model": "discrete", "alphabets": [2, 2],
   "pmf": [{"symbols": [0, 0], "p": "1/2"}, {"symbols": [1, 1], "p": "1/2"}]}

Probabilities are JSON numbers or exact fraction strings "a/b".  User ids are
1-based; discrete symbols 0-based.  Exit codes: 0 success, 1 verification
mismatch, 2 malformed input file, 3 invalid model, 4 unsupported model for
the operation, 5 resource limit hit (see ZEROTALK_EXPANSION_LIMIT).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from fractions import Fraction

# mcf, bounds, sim and random are imported by the commands that run them, and gf
# (through load_gf) by the first finite linear model or simulate, so a command
# loads only the modules it needs
from . import __version__
from .errors import ExpansionTooLarge, ParseError, UnsupportedModel, ZerotalkError
from .sources import (
    ENTROPY_TOLERANCE,
    DiscreteSource,
    Edge,
    FiniteLinearSource,
    HypergraphicalSource,
    check_projections,
    entropy_profile,
    fls_to_hypergraphical,
    load_gf,
    support_size,
    to_discrete,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_MODEL = 3
EXIT_UNSUPPORTED = 4
EXIT_RESOURCE = 5
# the exit code of each error family (see errors.py); the nearest class in an error's MRO wins
_EXIT_CODES = {ParseError: EXIT_PARSE, UnsupportedModel: EXIT_UNSUPPORTED,
               ExpansionTooLarge: EXIT_RESOURCE, ZerotalkError: EXIT_MODEL}


# --- model file parsing ---

_INT = frozenset({int})


def _all_ints(values) -> bool:
    """Every value an int and none a bool; a list of plain ints passes on its types alone."""
    return _INT.issuperset(map(type, values)) or all(
        isinstance(v, int) and not isinstance(v, bool) for v in values)


def _require(doc: dict, key: str, kind, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError(f"{where}: missing key {key!r}")
    value = doc[key]
    if kind is int and isinstance(value, bool):
        raise ParseError(f"{where}: {key!r} must be an integer")
    if not isinstance(value, kind):
        raise ParseError(f"{where}: {key!r} has the wrong type")
    return value


def _parse_probability(value, where: str):
    """A probability as a reduced (numerator, denominator) int pair, or a float.  An
    "a/b" string of ASCII digits is read by int, any other by Fraction: both accept it
    exactly when Fraction(str) does."""
    if isinstance(value, str):
        num, _, den = value.partition("/")
        ascii_ratio = value.isascii() and num.isdigit() and den.isdigit()
        try:
            n, d = (int(num), int(den)) if ascii_ratio else Fraction(value).as_integer_ratio()
            g = math.gcd(n, d) if d else 0  # "a/0" divides by zero, as in Fraction
            return n // g, d // g
        except (ValueError, ZeroDivisionError) as exc:  # int's digit limit is a ValueError in both
            raise ParseError(f"{where}: bad fraction string {value!r}") from exc
    if isinstance(value, bool):
        raise ParseError(f"{where}: probability must be a number or 'a/b' string")
    if isinstance(value, int):
        return value, 1
    if isinstance(value, float):
        return value
    raise ParseError(f"{where}: probability must be a number or 'a/b' string")


def _parse_hypergraphical(doc: dict) -> HypergraphicalSource:
    users = _require(doc, "users", int, "hypergraphical model")
    raw_edges = _require(doc, "edges", list, "hypergraphical model")
    edges = []
    for i, item in enumerate(raw_edges):
        where = f"edge #{i}"
        name = _require(item, "name", str, where)
        subset = _require(item, "subset", list, where)
        if not _all_ints(subset):
            raise ParseError(f"{where}: subset must be a list of integers")
        if "uniform" in item and "pmf" in item:
            raise ParseError(f"{where}: give either 'uniform' or 'pmf', not both")
        if "uniform" in item:
            size = _require(item, "uniform", int, where)
            if size < 1:
                raise ParseError(f"{where}: uniform alphabet size must be positive")
            edges.append(Edge.uniform(name, subset, size))
        elif "pmf" in item:
            pmf = _require(item, "pmf", list, where)
            probs = [_parse_probability(p, where) for p in pmf]
            edges.append(Edge(name, subset, [p if isinstance(p, float) else Fraction(*p) for p in probs]))
        else:
            raise ParseError(f"{where}: needs 'uniform' or 'pmf'")
    return HypergraphicalSource(users, tuple(edges))


def _parse_finite_linear(doc: dict) -> FiniteLinearSource:
    q = _require(doc, "q", int, "finite_linear model")
    dim = _require(doc, "dim", int, "finite_linear model")
    raw = _require(doc, "matrices", dict, "finite_linear model")
    try:
        keys = sorted(raw, key=int)
    except ValueError as exc:
        raise ParseError("finite_linear model: matrix keys must be user ids") from exc
    if keys != [str(u) for u in range(1, len(keys) + 1)]:  # "01", " 1" and "+1" are not ids
        raise ParseError(f"finite_linear model: matrix keys must be the user ids 1..{len(keys)}, got {keys}")
    gf, matrices = load_gf(), []
    for uid, key in enumerate(keys, start=1):
        rows = raw[key]
        where = f"matrix for user {uid}"
        if not isinstance(rows, list):
            raise ParseError(f"{where}: must be a list of rows")
        for row in rows:
            if not isinstance(row, list) or not _all_ints(row):
                raise ParseError(f"{where}: rows must be lists of integers")
        widths = {len(row) for row in rows}
        if len(widths) > 1:
            raise ParseError(f"{where}: ragged rows")
        cols = widths.pop() if widths else 0
        # q is checked once this matrix's rows parse; the entries passed _all_ints
        # above, so the matrix is built without FiniteMatrix's second check
        field = gf.FieldOrder(q)
        entries = tuple(x % field for row in rows for x in row)
        matrices.append(gf.FiniteMatrix._of(field, len(rows), cols, entries))
    return FiniteLinearSource(q, dim, tuple(matrices))


def _parse_discrete(doc: dict) -> DiscreteSource:
    """One pass over the entries, each checked once: every parse error (exit
    2) in the file comes before any model error (exit 3)."""
    alphabets = _require(doc, "alphabets", list, "discrete model")
    if not _all_ints(alphabets):
        raise ParseError("discrete model: alphabets must be a list of integers")
    raw = _require(doc, "pmf", list, "discrete model")
    m = len(alphabets)
    masses = {}  # realization -> (numerator, denominator) or float
    for i, item in enumerate(raw):
        if not isinstance(item, dict) or "symbols" not in item:
            raise ParseError(f"pmf entry #{i}: missing key 'symbols'")
        key = item["symbols"]
        if not isinstance(key, list):
            raise ParseError(f"pmf entry #{i}: 'symbols' has the wrong type")
        key = tuple(key)
        if not _all_ints(key):
            raise ParseError(f"pmf entry #{i}: symbols must be integers")
        if len(key) != m:
            raise ParseError(f"pmf entry #{i}: {len(key)} symbols for {m} users")
        if key in masses:
            raise ParseError(f"pmf entry #{i}: duplicate realization {key}")
        if "p" not in item:
            raise ParseError(f"pmf entry #{i}: missing key 'p'")
        masses[key] = _parse_probability(item["p"], f"pmf entry #{i}")
    if any(isinstance(p, float) for p in masses.values()):  # masses over 1, as pmf_weights keeps them
        return DiscreteSource(alphabets, {k: p if isinstance(p, float) else Fraction(*p)
                                          for k, p in masses.items()})
    return DiscreteSource._from_ratios(alphabets, masses)


_PARSERS = {
    "hypergraphical": _parse_hypergraphical,
    "finite_linear": _parse_finite_linear,
    "discrete": _parse_discrete,
}


def parse_model(doc) -> object:
    if not isinstance(doc, dict):
        raise ParseError("model file must be a JSON object")
    kind = _require(doc, "model", str, "model file")
    if kind not in _PARSERS:
        raise ParseError(
            f"unknown model {kind!r}; expected one of {sorted(_PARSERS)}"
        )
    return _PARSERS[kind](doc)


def load_model(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, nested too deep, an int too long
        raise ParseError(f"cannot parse {path}: {exc}") from exc
    return parse_model(doc)


# --- model file writing (convert) ---


def render_hypergraphical(h: HypergraphicalSource) -> dict:
    edges = []
    for e in h.edges:
        item: dict = {"name": e.name, "subset": sorted(e.subset)}
        uniform = Fraction(1, e.alphabet_size)
        if e.probs is None or all(p == uniform for p in e.probs):  # a float 1/n too
            item["uniform"] = e.alphabet_size
        else:
            item["pmf"] = [
                f"{p.numerator}/{p.denominator}" if isinstance(p, Fraction) else p
                for p in e.probs
            ]
        edges.append(item)
    return {"model": "hypergraphical", "users": h.user_count, "edges": edges}


# --- reporting helpers ---


def _round6(x: float) -> float:
    r = round(float(x), 6)
    return 0.0 if r == 0 else r


def _jsonable(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return _round6(x)
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _emit(report: dict, lines, as_json: bool) -> None:
    if as_json:
        print(json.dumps(_jsonable(report), indent=2, allow_nan=False))
    else:
        for line in lines:
            print(line)


def _bits(x: float) -> str:
    return f"{x:.6f}"


# --- subcommands ---


def cmd_jgk(args) -> int:
    from .mcf import common_function

    s = load_model(args.model)
    w = common_function(s)
    report = {
        "command": "jgk",
        "model": s.model,
        "users": s.user_count,
        "jgk_bits": w.entropy_bits,
        "witness": w.summary(),
    }
    lines = [
        f"model: {s.model} ({s.user_count} users)",
        f"J_GK = {_bits(w.entropy_bits)} bits",
        str(w),
    ]
    _emit(report, lines, args.json)
    return EXIT_OK


def parse_partition_text(text: str, users: int) -> Partition:
    from .bounds import Partition, singleton_partition

    if text == "singletons":
        return singleton_partition(users)
    blocks = []
    for chunk in text.split("/"):
        members = []
        for token in chunk.split(","):
            token = token.strip()
            if not token:
                raise ParseError(f"bad partition syntax: {text!r}")
            try:
                members.append(int(token))
            except ValueError as exc:
                raise ParseError(f"bad partition syntax: {text!r}") from exc
        blocks.append(members)
    return Partition(users, blocks)


def cmd_bound(args) -> int:
    from .bounds import best_partition, lamination_bound

    if not math.isfinite(args.rate) or args.rate < 0:
        raise ParseError(f"--rate must be a finite nonnegative number, got {args.rate!r}")
    rate = args.rate + 0.0  # -0.0 reads as 0.0
    s = load_model(args.model)
    converted = False
    if isinstance(s, FiniteLinearSource):
        s = fls_to_hypergraphical(s)  # NotTwoUsers -> exit 4
        converted = True
    if not isinstance(s, HypergraphicalSource):
        raise UnsupportedModel(
            "the partition bound needs edge structure; "
            "give a hypergraphical model or a two-user finite_linear model"
        )
    if args.search:
        b = best_partition(s)
    else:
        b = lamination_bound(s, parse_partition_text(args.partition, s.user_count))
    value = b.bound_at(rate)
    if not (b.vacuous or math.isfinite(value)):
        raise ParseError(f"--rate {rate!r} puts the bound past the largest float")
    report = {
        "command": "bound",
        "model": "hypergraphical",
        "converted_from_finite_linear": converted,
        "partition": [list(block) for block in b.partition.blocks],
        "coefficient": b.coefficient,
        "vacuous": b.vacuous,
        "intercept_bits": b.intercept_bits,
        "rate_bits": rate,
        "bound_bits": None if b.vacuous else value,
    }
    lines = [
        f"partition: {'/'.join(','.join(map(str, blk)) for blk in b.partition.blocks)}",
        f"spread coefficient: {b.coefficient}",
    ]
    if b.vacuous:
        lines.append("bound: vacuous (coefficient is 1)")
    else:
        lines.append(
            f"bound at rate {_bits(rate)}: {_bits(value)} bits "
            f"(intercept {_bits(b.intercept_bits)})"
        )
    _emit(report, lines, args.json)
    return EXIT_OK


def cmd_oracle(args) -> int:
    from .mcf import gk_oracle

    s = load_model(args.model)
    d = to_discrete(s)
    w = gk_oracle(d)
    labels = len(set(w.payload.values()))
    report = {
        "command": "oracle",
        "model": s.model,
        "users": s.user_count,
        "support": len(d.weights),
        "components": labels,
        "jgk_bits": w.entropy_bits,
    }
    lines = [
        f"model: {s.model} ({s.user_count} users)",
        f"support size: {len(d.weights)}",
        f"connected components: {labels}",
        f"J_GK = {_bits(w.entropy_bits)} bits",
    ]
    _emit(report, lines, args.json)
    return EXIT_OK


def cmd_convert(args) -> int:
    s = load_model(args.model)
    if not isinstance(s, FiniteLinearSource):
        raise UnsupportedModel("convert expects a finite_linear model")
    h = fls_to_hypergraphical(s)  # NotTwoUsers -> exit 4
    doc = json.dumps(render_hypergraphical(h), indent=2)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(doc + "\n")
        except OSError as exc:
            raise ParseError(f"cannot write {args.out}: {exc}") from exc
        if not args.json:
            print(f"wrote {args.out}")
    else:
        print(doc)
    return EXIT_OK


def _random_model(rng):
    if rng.random() < 0.5:
        users = rng.randrange(2, 5)
        edges = []
        for i in range(rng.randrange(0, 5)):
            k = rng.randrange(1, users + 1)
            subset = frozenset(rng.sample(range(1, users + 1), k))
            edges.append(Edge.uniform(f"e{i}", subset, rng.choice([2, 2, 3])))
        return HypergraphicalSource(users, tuple(edges))
    users = rng.randrange(2, 4)
    q = rng.choice([2, 3, 5])
    dim = rng.randrange(1, 4)
    mats = tuple(
        load_gf().FiniteMatrix(
            q, dim, cols, tuple(rng.randrange(q) for _ in range(dim * cols))
        )
        for cols in (rng.randrange(0, 3) for _ in range(users))
    )
    return FiniteLinearSource(q, dim, mats)


def _agree(name: str, a: float, b: float) -> tuple:
    """Check that two entropies agree within ENTROPY_TOLERANCE; a mismatch shows both in full."""
    ok = abs(a - b) <= ENTROPY_TOLERANCE
    return (name, ok, f"{_bits(a)} vs {_bits(b)}" if ok else f"{a!r} vs {b!r}")


def _profiles_agree(name: str, a, b, detail: str) -> tuple:
    """Check that two entropy profiles agree within ENTROPY_TOLERANCE."""
    ok = a.matches(b)
    return (name, ok, detail if ok else "profile drift")


def _verify_one(s) -> list:
    """Cross-checks for one model; returns (name, ok, detail) triples."""
    from .mcf import common_function, evaluate_witness, gk_oracle

    w = common_function(s)
    closed = w.entropy_bits
    # every budget of the expansion and both profiles, in the order they would
    # meet them, before the expansion is built
    points = support_size(s)
    profile = entropy_profile(s)
    check_projections(s.user_count, points)
    d = to_discrete(s)  # a discrete model is its own expansion: reuse its oracle and profile
    oracle = closed if d is s else gk_oracle(d).entropy_bits
    checks = [_agree("closed_form_vs_oracle", closed, oracle),
              _agree("witness_entropy_brute_force", closed, evaluate_witness(s, w))]
    checks.append(_profiles_agree("expansion_preserves_profile", profile,
                                  profile if d is s else entropy_profile(d),
                                  "all subset entropies within tolerance"))
    if isinstance(s, DiscreteSource):
        return checks
    from .bounds import chain_bound, lamination_bound, singleton_partition

    m = s.user_count
    identity = tuple(range(1, m + 1))
    # permutations yields the identity ordering first
    orders = list(itertools.permutations(identity)) if m <= 4 else [identity]
    chains = [chain_bound(s, order) for order in orders]
    checks.append(_agree("chain_vs_closed_form", chains[0], closed))
    if m <= 4:
        values = {round(c, 12) for c in chains}
        checks.append(("chain_ordering_invariance", len(values) == 1,
                       f"{len(values)} distinct value(s) over {math.factorial(m)} orderings"))

    if isinstance(s, FiniteLinearSource) and m > 2:  # only a two-user linear model converts
        return checks
    target = s if isinstance(s, HypergraphicalSource) else fls_to_hypergraphical(s)
    if target is not s:
        checks.append(_profiles_agree("conversion_preserves_profile", profile,
                                      entropy_profile(target), "converted model matches"))
    # at rate 0 a line that is not vacuous reads its intercept, J_GK, whatever the
    # partition; the singleton line never is: its coefficient is at most (m-2)/(m-1)
    at_zero = lamination_bound(target, singleton_partition(m)).bound_at(0.0)
    checks.append(_agree("lamination_at_zero", at_zero, oracle))
    return checks


def cmd_verify(args) -> int:
    if args.random is not None:
        if args.model is not None:
            raise ParseError("give a model file or --random, not both")
        if args.random < 1:
            raise ParseError(f"--random needs N >= 1, got {args.random}")
        import random

        rng = random.Random(args.seed)
        models = [_random_model(rng) for _ in range(args.random)]
        scope = f"{args.random} random models (seed {args.seed})"
    else:
        if args.model is None:
            raise ParseError("give a model file or --random N")
        models = [load_model(args.model)]
        scope = args.model

    all_checks = []
    for idx, s in enumerate(models):
        for name, ok, detail in _verify_one(s):
            all_checks.append(
                {
                    "model_index": idx,
                    "name": name,
                    "status": "ok" if ok else "mismatch",
                    "detail": detail,
                }
            )
    ok_count = sum(1 for c in all_checks if c["status"] == "ok")
    all_ok = ok_count == len(all_checks)
    report = {
        "command": "verify",
        "scope": scope,
        "checks": all_checks,
        "passed": ok_count,
        "total": len(all_checks),
        "all_ok": all_ok,
    }
    lines = []
    for c in all_checks:
        prefix = f"[{c['model_index']}] " if len(models) > 1 else ""
        lines.append(f"{prefix}{c['name']}: {c['status']} ({c['detail']})")
    lines.append(f"{ok_count}/{len(all_checks)} checks passed")
    _emit(report, lines, args.json)
    return EXIT_OK if all_ok else EXIT_MISMATCH


def _label_reprs(streams, radices) -> dict:
    """Each distinct code of the streams -> the repr of its label, as ASCII
    bytes: its gf.digits, or the code itself when radices is None."""
    distinct = list(set().union(*streams))
    labels = distinct if radices is None else load_gf().digits(distinct, radices)
    return dict(zip(distinct, map(str.encode, map(repr, labels))))


def _key_digest(stream, reprs: dict) -> str:
    """sha256 of the stream's label reprs joined by commas, hashed 2**16 rounds
    at a time so the text is never held whole."""
    import hashlib  # here, not at the top: only simulate pays for loading it
    digest, step = hashlib.sha256(), 1 << 16
    for i in range(0, len(stream), step):
        if i:
            digest.update(b",")
        digest.update(b",".join(map(reprs.__getitem__, stream[i:i + step])))
    return digest.hexdigest()


def cmd_simulate(args) -> int:
    from .sim import run as run_simulation

    s = load_model(args.model)
    result = run_simulation(s, n=args.n, seed=args.seed)
    # agreeing users hold equal streams: hash one and repeat its digest
    streams = result.codes[:1] if result.agreement else result.codes
    reprs = _label_reprs(streams, result.radices)
    digests = [_key_digest(stream, reprs) for stream in streams]
    if result.agreement:
        digests *= len(result.codes)
    preview = [reprs[code].decode() for code in result.codes[0][:16]]
    report = {
        "command": "simulate",
        "model": s.model,
        "users": s.user_count,
        "n": result.n,
        "seed": result.seed,
        "agreement": result.agreement,
        "discussion_bits": result.discussion_bits,
        "empirical_rate_bits": result.empirical_rate_bits,
        "expected_rate_bits": result.expected_rate_bits,
        "rate_ok": result.rate_ok,
        "key_digests": digests,
        "first_labels": preview,
    }
    lines = [
        f"model: {s.model} ({s.user_count} users)",
        f"rounds: {result.n}, seed: {result.seed}",
        f"agreement: {'yes' if result.agreement else 'NO'}",
        f"discussion bits: {result.discussion_bits}",
        (
            f"key rate: empirical {_bits(result.empirical_rate_bits)}, "
            f"expected {_bits(result.expected_rate_bits)} bits/round "
            f"({'ok' if result.rate_ok else 'OUT OF TOLERANCE'})"
        ),
    ]
    if result.agreement:
        lines.append(f"key digest: {digests[0]}")
    else:
        for i, digest in enumerate(digests, start=1):
            lines.append(f"user {i} key digest: {digest}")
    lines.append(f"first labels: {' '.join(preview)}")
    _emit(report, lines, args.json)
    return EXIT_OK


# --- entry point ---


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls.  Its
    `plain` table, which main() reads plain command lines from, is built from
    the actions that the add_argument calls below return."""
    parser = argparse.ArgumentParser(
        prog="zerotalk",
        description="Secrecy capacity at zero discussion rate for "
        "multiterminal source models.",
    )
    # parser or subparser -> the actions its add_argument calls returned; a
    # tuple holds the actions of one mutually exclusive group
    declared = {parser: [parser.add_argument("--version", action="version", version=__version__)]}
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("jgk", help="common-function entropy and witness")
    declared[p] = [
        p.add_argument("model", help="model file (JSON)"),
        p.add_argument("--json", action="store_true", help="machine-readable output"),
    ]
    p.set_defaults(func=cmd_jgk)

    p = sub.add_parser("bound", help="partition bound at a discussion rate")
    group = p.add_mutually_exclusive_group()
    declared[p] = [
        p.add_argument("model", help="model file (JSON)"),
        (
            group.add_argument(
                "--partition",
                default="singletons",
                help="blocks as '1,2/3' or 'singletons' (default)",
            ),
            group.add_argument(
                "--search", action="store_true", help="exhaustive best-partition search"
            ),
        ),
        p.add_argument("--rate", type=float, default=0.0, help="discussion rate in bits"),
        p.add_argument("--json", action="store_true"),
    ]
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("oracle", help="brute-force common function")
    declared[p] = [
        p.add_argument("model", help="model file (JSON)"),
        p.add_argument("--json", action="store_true"),
    ]
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("convert", help="two-user linear model to edge model")
    declared[p] = [
        p.add_argument("model", help="model file (JSON)"),
        p.add_argument(
            "--to",
            choices=["hypergraphical"],
            required=True,
            help="target model family",
        ),
        p.add_argument("--out", help="write the converted model here instead of stdout"),
        p.add_argument("--json", action="store_true"),
    ]
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("verify", help="cross-check engines against brute force")
    declared[p] = [
        p.add_argument("model", nargs="?", help="model file (JSON)"),
        p.add_argument("--random", type=int, help="verify N random models instead"),
        p.add_argument("--seed", type=int, default=0, help="seed for --random"),
        p.add_argument("--json", action="store_true"),
    ]
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="zero-discussion key agreement run")
    declared[p] = [
        p.add_argument("model", help="model file (JSON)"),
        p.add_argument("--n", type=int, default=1000, help="number of rounds"),
        p.add_argument("--seed", type=int, default=0, help="sampling seed"),
        p.add_argument("--json", action="store_true"),
    ]
    p.set_defaults(func=cmd_simulate)

    parser.plain = _plain_table(parser, sub, declared)
    return parser


def _plain_table(parser, sub, declared: dict) -> dict:
    """Subcommand -> (its positionals, how many of them are required, its
    options by spelling with each one's exclusive group, its required options,
    the Namespace defaults), read from the declared actions.  An option stores
    one value, or its const when it takes none (nargs 0)."""
    table = {}
    for name, p in sub.choices.items():
        positionals, options = [], {}
        for item in declared[p]:
            # an option outside a group is its own group: only it can fill it
            for action in item if isinstance(item, tuple) else (item,):
                if action.option_strings:
                    options.update(dict.fromkeys(action.option_strings, (action, item)))
                else:
                    positionals.append(action)
        actions = positionals + [action for action, _ in options.values()]
        defaults = {a.dest: a.default for a in declared[parser] + actions
                    if a.default is not argparse.SUPPRESS}
        defaults[sub.dest] = name
        defaults["func"] = p.get_default("func")
        least = max((i + 1 for i, a in enumerate(positionals) if a.required), default=0)
        required = frozenset(a for a in actions if a.option_strings and a.required)
        table[name] = tuple(positionals), least, options, required, defaults
    return table


def _value(action, token: str):
    """The token converted by the action's type and checked against its choices."""
    value = token if action.type is None else action.type(token)
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"{value!r} is not a choice")
    return value


def _plain_args(argv):
    """The Namespace that argparse returns for a plain command line, or None
    to send argv to argparse.  Plain is the subcommand's name, then at most its
    positionals, none starting with "-", then options spelled exactly as
    declared.  An option's value is the next token: it does not start with "-",
    converts by the option's type and lies in its choices.  At most one option
    of each exclusive group is given, and every required one.  Help,
    abbreviations, "--opt=value", "--", negative numbers and every usage error
    are left to argparse."""
    command = build_parser().plain.get(argv[0]) if argv else None
    if command is None:
        return None
    positionals, least, options, required, defaults = command
    values = dict(defaults)
    i, n = 1, len(argv)
    given = {}  # exclusive group -> the option given from it
    try:
        for action in positionals:
            if i == n or argv[i].startswith("-"):
                break
            values[action.dest] = _value(action, argv[i])
            i += 1
        if i - 1 < least:
            return None
        while i < n:
            action, group = options.get(argv[i], (None, None))
            if action is None:
                return None
            if action.nargs == 0:
                values[action.dest] = action.const
                i += 1
            elif i + 1 < n and not argv[i + 1].startswith("-"):
                values[action.dest] = _value(action, argv[i + 1])
                i += 2
            else:
                return None
            if given.setdefault(group, action) is not action:
                return None
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    if not required.issubset(given.values()):
        return None
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ZerotalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[c] for c in type(exc).__mro__ if c in _EXIT_CODES)
