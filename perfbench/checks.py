"""Output checks that decide which ops failed.

An op fails if it exits nonzero, raises, or prints an output that fails a
check.  Checks that hold on any seed look at the output's properties and at
the outputs of other ops on the same model (``jgk`` is the reference value).
At the default seed the ``--json`` stdout of every op except ``simulate`` must
also match the recorded golden byte for byte.  Key digests are never checked:
the key stream for a given seed is allowed to change.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 0
GOLDENS = Path(__file__).resolve().parent / "goldens.json"
TOL = 2e-6  # outputs are rounded to 6 decimals


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


def _close(a, b) -> bool:
    return isinstance(a, (int, float)) and isinstance(b, (int, float)) and abs(a - b) <= TOL


def _edge_bits(edge: dict) -> float:
    if "uniform" in edge:
        return math.log2(edge["uniform"])
    probs = [float(Fraction(p)) for p in edge["pmf"]]
    return -math.fsum(p * math.log2(p) for p in probs if p > 0)


def _check_jgk(out: dict, doc: dict, ref) -> str | None:
    if doc["model"] == "hypergraphical":
        everyone = list(range(1, doc["users"] + 1))
        shared = [e for e in doc["edges"] if e["subset"] == everyone]
        if out["witness"] != {"kind": "edge-subset", "edges": [e["name"] for e in shared]}:
            return "witness is not the set of globally seen edges"
        if not _close(out["jgk_bits"], math.fsum(_edge_bits(e) for e in shared)):
            return "jgk_bits is not the entropy of the globally seen edges"
    elif doc["model"] == "finite_linear":
        w = out["witness"]
        if w["kind"] != "subspace-basis" or not _close(
                out["jgk_bits"], len(w["basis_columns"]) * math.log2(doc["q"])):
            return "jgk_bits is not the witness dimension times log2 q"
    else:
        labels = out["witness"]["labels"]
        if labels < 1 or not -TOL <= out["jgk_bits"] <= math.log2(labels) + TOL:
            return "jgk_bits outside [0, log2 of the label count]"
    return None


def _check_oracle(out: dict, doc: dict, ref) -> str | None:
    if ref is None or not _close(out["jgk_bits"], ref):
        return f"oracle {out['jgk_bits']} differs from jgk {ref}"
    if out["components"] < 1 or out["support"] < out["components"]:
        return "component count outside 1..support"
    return None


def _check_verify(out: dict, doc: dict, ref) -> str | None:
    if out["all_ok"] is not True or out["passed"] != out["total"] or out["total"] < 1:
        return "verify reports a mismatch"
    return None


def _check_bound(out: dict, doc: dict, ref) -> str | None:
    users = sorted(u for block in out["partition"] for u in block)
    if users != list(range(1, doc["users"] + 1)) or len(out["partition"]) < 2:
        return "partition does not split the users into two or more blocks"
    coefficient = Fraction(out["coefficient"])
    if not 0 <= coefficient <= 1 or out["vacuous"] != (coefficient == 1):
        return "spread coefficient outside [0, 1]"
    if ref is None or not _close(out["intercept_bits"], ref):
        return "intercept is not the jgk of the model"
    if not out["vacuous"] and not _close(out["bound_bits"], out["intercept_bits"]):
        return "bound at rate 0 is not the intercept"
    return None


def _check_convert(out: dict, doc: dict, ref) -> str | None:
    if out.get("model") != "hypergraphical" or out.get("users") != 2:
        return "convert did not emit a two-user hypergraphical model"
    subsets = {e["name"]: e["subset"] for e in out["edges"]}
    if any(subsets[n] != s for n, s in (("shared", [1, 2]), ("own1", [1]), ("own2", [2]))
           if n in subsets) or set(subsets) - {"shared", "own1", "own2"}:
        return "converted edges are not shared/own1/own2"
    shared = [e for e in out["edges"] if e["name"] == "shared"]
    bits = math.log2(shared[0]["uniform"]) if shared else 0.0
    if ref is None or not _close(bits, ref):
        return "shared edge entropy is not the jgk of the model"
    return None


def _check_simulate(out: dict, doc: dict, ref) -> str | None:
    if out["agreement"] is not True:
        return "users disagree on the key"
    if out["discussion_bits"] != 0:
        return "simulation used discussion"
    if out["rate_ok"] is not True:
        return "empirical key rate out of tolerance"
    if ref is None or not _close(out["expected_rate_bits"], ref):
        return "expected rate is not the jgk of the model"
    return None


CHECKS = {
    "jgk": _check_jgk,
    "oracle": _check_oracle,
    "verify": _check_verify,
    "bound": _check_bound,
    "convert": _check_convert,
    "simulate": _check_simulate,
}


def check_output(command: str, stdout: str, doc: dict, ref_bits) -> str | None:
    """None when the output passes; otherwise why it fails.

    ``ref_bits`` is the jgk_bits that ``jgk`` printed for the same model.
    """
    try:
        out = json.loads(stdout)
        return CHECKS[command](out, doc, ref_bits)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def check_golden(goldens: dict, key: str, command: str, stdout: str) -> str | None:
    if command == "simulate":
        return None
    expected = goldens.get(key)
    if expected is None:
        return "no golden recorded"
    if digest(stdout) != expected:
        return "output differs from the golden"
    return None
