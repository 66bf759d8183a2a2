"""Spans and counters around the zerotalk layers, recorded from outside.

The package is not changed: ``instrument`` swaps each wrapped public function
for a recording wrapper in every zerotalk namespace that holds it, then puts
the originals back.  Replacing by identity matters because several names are
imported into other modules (``vec_mat`` lives in gf, mcf and sim), while
other calls go through the module (``sources`` calls ``gf.vec_mat``).

A span records name, start, end, parent and op id, and stays in memory until
the run ends.  Hot leaves (``gf.vec_mat``, ``DiscreteSource.marginal``,
``bounds.alpha``, ``Edge.uniform``) are aggregated as a count and a time
instead.  Counters computed from call arguments or results are updated after
the span closes; that bookkeeping time is charged to no layer.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "gf", "sources", "mcf", "bounds", "sim")


class Tracer:
    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.ops: list = []
        self.excluded: list = []  # per span: leaf and bookkeeping time inside it
        self.stack: list = []
        self.leaf_calls: Counter = Counter()
        self.leaf_seconds: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = None

    # --- recording ---

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.excluded.append(0.0)
        self.ends.append(None)
        self.stack.append(i)
        self.starts.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self.stack.pop()

    def charge(self, seconds: float, leaf: str | None = None) -> None:
        """Time spent inside the innermost open span that is not its own."""
        if self.stack:
            self.excluded[self.stack[-1]] += seconds
        if leaf is not None:
            self.leaf_calls[leaf] += 1
            self.leaf_seconds[leaf] += seconds

    # --- reading ---

    def spans(self) -> list:
        """(name, start, end, parent, op, self_s) for every recorded span."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        return [
            (self.names[i], self.starts[i], self.ends[i], self.parents[i], self.ops[i],
             self.ends[i] - self.starts[i] - child[i] - self.excluded[i])
            for i in range(len(self.names))
        ]

    def totals(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        out: dict = {}
        for name, start, end, _, _, self_s in self.spans():
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, own + self_s)
        return out

    def layer_self_seconds(self) -> dict:
        """Self time summed per layer (the part of a name before the dot)."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, *_, self_s in self.spans():
            out[name.split(".")[0]] += self_s
        for leaf, seconds in self.leaf_seconds.items():
            out[leaf.split(".")[0]] += seconds
        return out


# --- wrappers ---


def span(tracer: Tracer, name: str, fn, after=None):
    """Record one span per call; ``after(result, *args)`` updates counters."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if after is not None:
            t0 = perf_counter()
            after(result, *args, **kwargs)
            tracer.charge(perf_counter() - t0)
        return result

    return wrapper


def leaf(tracer: Tracer, name: str, fn, count=None):
    """Aggregate calls as count plus time; ``count(*args)`` adds to counters."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.charge(perf_counter() - t0, name)
            if count is not None:
                count(*args, **kwargs)

    return wrapper


def counted_generator(tracer: Tracer, key: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        for item in fn(*args, **kwargs):
            tracer.counts[key] += 1
            yield item

    return wrapper


def inside(tracer: Tracer, name: str) -> bool:
    return bool(tracer.stack) and tracer.names[tracer.stack[-1]] == name


# --- the wrapped layer boundaries ---


def _wrappers(tracer: Tracer):
    """(owner, attribute, replacement) for every function the trace wraps.

    ``owner`` is the module or class that defines it; functions are also
    replaced wherever else they have been imported.
    """
    from zerotalk import bounds, cli, gf, mcf, sim, sources

    c = tracer.counts

    def rref_cells(result, m):
        c["gf.rref.cells"] += m.rows * m.cols

    def rank_call(m):
        if inside(tracer, "gf.extend_basis"):
            c["gf.extend_basis.rank_calls"] += 1

    def vec_mat_mults(x, a):
        c["gf.vec_mat.mults"] += len(x) * a.cols

    def expanded(walked):
        def after(result, s, limit=None):
            c["sources.expand.points_walked"] += walked(s)
            c["sources.expand.support_points"] += len(result.pmf)
        return after

    def profile_pairs(result, s, limit=None):
        c["sources.profile.pairs"] += (2**s.user_count - 1) ** 2

    def uniform_entries(cls, name, subset, size):
        c["sources.uniform_entries"] += size

    def oracle_unions(result, s, limit=None):
        support = result.payload
        if support:
            width = len(next(iter(support)))
            c["mcf.oracle.unions"] += sum(
                len(support) - len({r[k] for r in support}) for k in range(width))

    def witness_walk(result, s, w, limit=None):
        if w.kind == "subspace-basis":
            c["mcf.evaluate_witness.vectors_walked"] += int(s.q) ** s.dim
        elif w.kind == "support-labeling":
            c["mcf.evaluate_witness.vectors_walked"] += len(w.payload)

    def rounds(result, *args, **kwargs):
        c["sim.rounds"] += result.n

    def passthrough(fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count(*args, **kwargs)
            return fn(*args, **kwargs)
        return wrapper

    uniform = sources.Edge.__dict__["uniform"].__func__
    return [
        (cli, "main", span(tracer, "cli.main", cli.main)),
        (cli, "load_model", span(tracer, "cli.load_model", cli.load_model)),
        (gf, "vec_mat", leaf(tracer, "gf.vec_mat", gf.vec_mat, vec_mat_mults)),
        (gf, "rref", span(tracer, "gf.rref", gf.rref, rref_cells)),
        (gf, "rank", passthrough(gf.rank, rank_call)),
        (gf, "column_space_intersection",
         span(tracer, "gf.intersect", gf.column_space_intersection)),
        (gf, "extend_basis", span(tracer, "gf.extend_basis", gf.extend_basis)),
        (sources, "expand_finite_linear",
         span(tracer, "sources.expand", sources.expand_finite_linear,
              expanded(lambda f: int(f.q) ** f.dim))),
        (sources, "expand_hypergraphical",
         span(tracer, "sources.expand", sources.expand_hypergraphical,
              expanded(lambda h: math.prod(e.alphabet_size for e in h.edges)))),
        (sources.DiscreteSource, "marginal",
         leaf(tracer, "sources.marginal", sources.DiscreteSource.marginal)),
        (sources, "entropy_profile",
         span(tracer, "sources.profile", sources.entropy_profile, profile_pairs)),
        (sources.Edge, "uniform",
         classmethod(leaf(tracer, "sources.edge_uniform", uniform, uniform_entries))),
        (bounds, "best_partition",
         span(tracer, "bounds.best_partition", bounds.best_partition)),
        (bounds, "all_partitions",
         counted_generator(tracer, "bounds.partitions_scanned", bounds.all_partitions)),
        (bounds, "alpha", leaf(tracer, "bounds.alpha", bounds.alpha)),
        (bounds, "chain_bound", span(tracer, "bounds.chain", bounds.chain_bound)),
        (mcf, "common_function",
         span(tracer, "mcf.common_function", mcf.common_function)),
        (mcf, "gk_oracle", span(tracer, "mcf.oracle", mcf.gk_oracle, oracle_unions)),
        (mcf, "evaluate_witness",
         span(tracer, "mcf.evaluate_witness", mcf.evaluate_witness, witness_walk)),
        (sim, "build_extractor",
         span(tracer, "sim.build_extractor", sim.build_extractor)),
        (sim, "run", span(tracer, "sim.run", sim.run, rounds)),
    ]


def _namespaces():
    return [m for name, m in sorted(sys.modules.items())
            if name == "zerotalk" or name.startswith("zerotalk.")]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Swap in the recording wrappers for the duration of the block."""
    undo = []
    try:
        for owner, attr, replacement in _wrappers(tracer):
            original = owner.__dict__[attr]
            undo.append((owner, attr, original))
            setattr(owner, attr, replacement)
            if isinstance(owner, type):  # methods are only reached through the class
                continue
            for module in _namespaces():
                for name, value in list(vars(module).items()):
                    if value is original and module is not owner:
                        undo.append((module, name, value))
                        setattr(module, name, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
