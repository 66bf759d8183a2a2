"""Exact dense linear algebra over prime fields GF(q).

Matrices are immutable, stored row-major with plain Python integers reduced
mod q, so all arithmetic is exact regardless of field size (q is capped at
2**31 only to keep single products cheap).  Subspaces are handled through
their spanning column sets; every routine that returns a basis returns the
canonical one, the RREF basis of the span read as columns, so span-equal
inputs produce identical output matrices and golden tests stay stable.

Intended for the small dimensions that arise in source models (tens, not
thousands); no attempt is made at sparse or blocked elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add
from typing import Iterable, Iterator, Sequence

from .errors import ModelError, SubspaceNotContained

MAX_FIELD_ORDER = 2**31


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class FieldOrder(int):
    """A prime field order q.  Primality is verified at construction."""

    def __new__(cls, q) -> "FieldOrder":
        if isinstance(q, FieldOrder):
            return q
        try:
            value = int(q)
        except (TypeError, ValueError):
            raise ModelError(f"field order must be an integer, got {q!r}") from None
        if value != q or not 2 <= value < MAX_FIELD_ORDER:
            raise ModelError(f"field order must be an integer in [2, 2**31), got {q!r}")
        if not _is_prime(value):
            raise ModelError(f"field order must be prime, got {value}")
        return super().__new__(cls, value)


@dataclass(frozen=True)
class FiniteMatrix:
    """Dense matrix over GF(q), row-major, entries reduced into [0, q)."""

    q: FieldOrder
    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "q", FieldOrder(self.q))
        if self.rows < 0 or self.cols < 0:
            raise ModelError(f"matrix shape must be nonnegative, got {self.rows}x{self.cols}")
        if len(self.entries) != self.rows * self.cols:
            raise ModelError(
                f"expected {self.rows * self.cols} entries for a "
                f"{self.rows}x{self.cols} matrix, got {len(self.entries)}"
            )
        object.__setattr__(self, "entries", tuple(int(e) % self.q for e in self.entries))

    @classmethod
    def from_rows(cls, q, rows: Sequence[Sequence[int]], cols: int | None = None) -> "FiniteMatrix":
        rows = [list(r) for r in rows]
        if cols is None:
            cols = len(rows[0]) if rows else 0
        if any(len(r) != cols for r in rows):
            raise ModelError("all matrix rows must have the same length")
        flat = tuple(x for r in rows for x in r)
        return cls(FieldOrder(q), len(rows), cols, flat)

    @classmethod
    def from_cols(cls, q, cols: Sequence[Sequence[int]], rows: int | None = None) -> "FiniteMatrix":
        cols = [list(c) for c in cols]
        if rows is None:
            rows = len(cols[0]) if cols else 0
        if any(len(c) != rows for c in cols):
            raise ModelError("all matrix columns must have the same length")
        flat = tuple(cols[j][i] for i in range(rows) for j in range(len(cols)))
        return cls(FieldOrder(q), rows, len(cols), flat)

    @classmethod
    def identity(cls, q, n: int) -> "FiniteMatrix":
        return cls(FieldOrder(q), n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, q, rows: int, cols: int) -> "FiniteMatrix":
        return cls(FieldOrder(q), rows, cols, (0,) * (rows * cols))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_list(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "FiniteMatrix":
        return FiniteMatrix.from_cols(self.q, self.row_list(), rows=self.cols)

    def __str__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"GF({int(self.q)})[{body}]"


def matmul(a: FiniteMatrix, b: FiniteMatrix) -> FiniteMatrix:
    """Matrix product over the common field."""
    if a.q != b.q:
        raise ValueError(f"field mismatch: GF({int(a.q)}) vs GF({int(b.q)})")
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    q = a.q
    out = []
    for i in range(a.rows):
        ra = a.row(i)
        for j in range(b.cols):
            out.append(sum(ra[k] * b.at(k, j) for k in range(a.cols)) % q)
    return FiniteMatrix(q, a.rows, b.cols, tuple(out))


def vec_mat(x: Sequence[int], a: FiniteMatrix) -> tuple[int, ...]:
    """Product x @ a for a row vector given as a flat sequence."""
    if len(x) != a.rows:
        raise ValueError(f"vector length {len(x)} does not match {a.rows} rows")
    q = a.q
    return tuple(sum((x[k] % q) * a.at(k, j) for k in range(a.rows)) % q for j in range(a.cols))


@lru_cache(maxsize=None)  # called only for the 31 primes below 128
def _byte_tables(q: int) -> tuple[bytes, tuple[bytes, ...]]:
    """Translate tables for bytes holding one value each: b -> b % q, and
    b -> c*b % q for every c in [0, q)."""
    reduce = bytes(b % q for b in range(256))
    return reduce, tuple(bytes(c * b % q for b in range(256)) for c in range(q))


def cols_mat(x_cols: Sequence[Sequence[int]], a: FiniteMatrix, n: int) -> list[list[int]]:
    """Products x @ a for n row vectors x at once, given and returned by column.

    x_cols holds a.rows columns of n values in [0, q) each: column k lists
    coordinate k of every x.  Returns the a.cols columns of the products,
    each a list of n values.  For q < 128 a column is one big integer with a
    byte per value, so each term of a product column is a handful of
    whole-column byte and integer operations rather than n Python steps.
    (A byte must hold a reduced value plus one more term, 2(q-1) < 256.)
    """
    if len(x_cols) != a.rows:
        raise ValueError(f"{len(x_cols)} columns do not match {a.rows} rows")
    q = int(a.q)
    if q > 127:
        out = []
        for j in range(a.cols):
            acc = [0] * n
            for k, col in enumerate(x_cols):
                c = a.at(k, j)
                if c:
                    acc = [s + c * v for s, v in zip(acc, col)]
            out.append([s % q for s in acc])
        return out
    reduce, scale = _byte_tables(q)
    packed = [bytes(col) for col in x_cols]
    batch = 255 // (q - 1)  # terms a byte can sum before it must be reduced
    out = []
    for j in range(a.cols):
        acc, terms = 0, 0
        for k, col in enumerate(packed):
            c = a.at(k, j)
            if not c:
                continue
            if terms == batch:
                acc = int.from_bytes(acc.to_bytes(n, "little").translate(reduce), "little")
                terms = 1
            acc += int.from_bytes(col if c == 1 else col.translate(scale[c]), "little")
            terms += 1
        out.append(list(acc.to_bytes(n, "little").translate(reduce)))
    return out


def hstack(*mats: FiniteMatrix) -> FiniteMatrix:
    """Concatenate matrices side by side: [a | b | ...]."""
    if not mats:
        raise ValueError("hstack needs at least one matrix")
    first = mats[0]
    if any(m.rows != first.rows or m.q != first.q for m in mats):
        raise ValueError("hstack requires equal row counts and a common field")
    cols: list[tuple[int, ...]] = []
    for m in mats:
        cols.extend(m.col(j) for j in range(m.cols))
    return FiniteMatrix.from_cols(first.q, cols, rows=first.rows)


def columns_subset(m: FiniteMatrix, indices: Iterable[int]) -> FiniteMatrix:
    """New matrix made of the selected columns of m, in the given order."""
    return FiniteMatrix.from_cols(m.q, [m.col(j) for j in indices], rows=m.rows)


def rref(m: FiniteMatrix) -> tuple[FiniteMatrix, tuple[int, ...]]:
    """Reduced row echelon form via Gauss-Jordan elimination mod q.

    Returns:
        (R, pivot_cols): R is the RREF of m (same shape, row space
        preserved) and pivot_cols lists the pivot column indices in
        increasing order; their count is the rank.
    """
    q = m.q
    work = m.row_list()
    pivots: list[int] = []
    pr = 0
    for col in range(m.cols):
        sel = next((r for r in range(pr, m.rows) if work[r][col]), None)
        if sel is None:
            continue
        work[pr], work[sel] = work[sel], work[pr]
        inv = pow(work[pr][col], -1, q)
        work[pr] = [(x * inv) % q for x in work[pr]]
        for r in range(m.rows):
            if r != pr and work[r][col]:
                f = work[r][col]
                work[r] = [(a - f * b) % q for a, b in zip(work[r], work[pr])]
        pivots.append(col)
        pr += 1
        if pr == m.rows:
            break
    return FiniteMatrix.from_rows(q, work, cols=m.cols), tuple(pivots)


def row_space_basis(m: FiniteMatrix) -> FiniteMatrix:
    """The nonzero rows of rref(m): a canonical basis of the row space of m.

    Its row count is the rank of m.
    """
    reduced, pivots = rref(m)
    return FiniteMatrix(m.q, len(pivots), m.cols, reduced.entries[: len(pivots) * m.cols])


def row_space(basis: FiniteMatrix) -> Iterator[tuple[int, ...]]:
    """Stream every GF(q) combination of the rows of basis, each exactly once.

    With linearly independent rows (as from row_space_basis) these are the
    q**rows distinct points of the row space; zero rows yield the single
    zero vector.  The walk is an odometer over the coefficients with the
    first row's turning fastest.  Stepping a coefficient adds its row once,
    and a wrap from q-1 back to 0 adds the q-th copy, which is zero mod q,
    so a point costs one vector addition plus amortized carries.  Nothing
    is materialized.
    """
    q = int(basis.q)
    reduce = q.__rmod__

    def plus(u, v):
        return tuple(map(reduce, map(add, u, v)))

    rows = [basis.row(i) for i in range(basis.rows)]
    start = (0,) * basis.cols
    if not rows:
        yield start
        return
    first, rest = rows[0], rows[1:]
    digits = [0] * len(rest)
    while True:
        point = start
        yield point
        for _ in range(q - 1):
            point = plus(point, first)
            yield point
        for k, row in enumerate(rest):
            start = plus(start, row)
            if digits[k] < q - 1:
                digits[k] += 1
                break
            digits[k] = 0
        else:
            return


def rank(m: FiniteMatrix) -> int:
    """Rank of m over GF(q)."""
    return len(rref(m)[1])


def column_space_basis(m: FiniteMatrix) -> FiniteMatrix:
    """Canonical full-column-rank matrix spanning the column space of m.

    The canonical form is the RREF of the transpose read back as columns,
    so any two matrices with equal column spans map to the same output.
    """
    reduced, pivots = rref(m.transpose())
    return FiniteMatrix.from_cols(m.q, [reduced.row(i) for i in range(len(pivots))], rows=m.rows)


def column_space_intersection(a: FiniteMatrix, b: FiniteMatrix) -> FiniteMatrix:
    """Canonical basis of the intersection of two column spaces.

    Zassenhaus's algorithm, one RREF: row-reduce the block whose rows are
    [a_j | a_j] for each column a_j of a and [b_j | 0] for each column b_j
    of b.  The rows whose pivot falls in the right half are [0 | w], and
    their right halves w are the RREF basis of span(a) & span(b), the same
    canonical form column_space_basis returns.

    Args:
        a, b: matrices with the same row count over the same field.

    Returns:
        Full-column-rank matrix whose columns span span(a) & span(b);
        zero columns when the intersection is the trivial space.
    """
    if a.q != b.q:
        raise ValueError(f"field mismatch: GF({int(a.q)}) vs GF({int(b.q)})")
    if a.rows != b.rows:
        raise ValueError(f"row-count mismatch: {a.rows} vs {b.rows}")
    n = a.rows
    block = [a.col(j) * 2 for j in range(a.cols)] + [b.col(j) + (0,) * n for j in range(b.cols)]
    reduced, pivots = rref(FiniteMatrix.from_rows(a.q, block, cols=2 * n))
    meet = [reduced.row(i)[n:] for i, p in enumerate(pivots) if p >= n]
    return FiniteMatrix.from_cols(a.q, meet, rows=n)


def intersect_all(mats: Sequence[FiniteMatrix]) -> FiniteMatrix:
    """Left fold of the pairwise column-space intersection.

    The result is order-invariant up to the canonical form, which makes it
    literally order-invariant here.
    """
    if not mats:
        raise ValueError("need at least one matrix to intersect")
    acc = column_space_basis(mats[0])
    for m in mats[1:]:
        acc = column_space_intersection(acc, m)
    return acc


def reduce_to_full_column_rank(m: FiniteMatrix) -> FiniteMatrix:
    """Subset of the columns of m forming a basis of its column space.

    Keeps the leftmost maximal independent set (the pivot columns), so a
    full-rank input is returned unchanged.
    """
    _, pivots = rref(m)
    return columns_subset(m, pivots)


def extend_basis(base: FiniteMatrix, target: FiniteMatrix) -> FiniteMatrix:
    """Columns of target that extend base to a basis of span(target).

    Args:
        base: full-column-rank matrix with span(base) contained in
            span(target).
        target: matrix whose column space is to be reached.

    Returns:
        Matrix N, drawn from the columns of target, such that [base | N]
        has full column rank and spans span(target).  Empty when base
        already spans the target.

    Raises:
        SubspaceNotContained: if span(base) is not inside span(target).
        ModelError: if base does not have full column rank.
    """
    if base.q != target.q or base.rows != target.rows:
        raise ValueError("base and target must share field and row count")
    # A column of target is picked exactly when it lies outside the span of
    # base and the target columns before it: the pivots of [base | target].
    _, pivots = rref(hstack(base, target))
    if pivots[: base.cols] != tuple(range(base.cols)):
        raise ModelError("base must have full column rank")
    if len(pivots) != rank(target):
        raise SubspaceNotContained("base spans vectors outside the target space")
    return columns_subset(target, [p - base.cols for p in pivots[base.cols :]])


def solve(a: FiniteMatrix, b: FiniteMatrix) -> FiniteMatrix:
    """Some X with a @ X = b, taking free variables as zero.

    Raises:
        SubspaceNotContained: if a column of b is outside span(a).
    """
    if a.q != b.q or a.rows != b.rows:
        raise ValueError("a and b must share field and row count")
    reduced, pivots = rref(hstack(a, b))
    if any(p >= a.cols for p in pivots):
        raise SubspaceNotContained("right-hand side is not in the column space")
    out = [[0] * b.cols for _ in range(a.cols)]
    for r, p in enumerate(pivots):
        for j in range(b.cols):
            out[p][j] = reduced.at(r, a.cols + j)
    return FiniteMatrix.from_rows(a.q, out, cols=b.cols)
