"""Exact dense linear algebra over prime fields GF(q).

A matrix is immutable: a row-major tuple of Python ints reduced into
[0, q), so all arithmetic is exact regardless of field size (q is capped at
2**31 only to keep single products cheap).  Entries are validated once, where
they come from outside: the public constructor, ``from_rows`` and
``from_cols`` check the field, the shape and that every entry is an int.
Every matrix this module builds from entries it has already reduced goes
through ``FiniteMatrix._of``, which checks nothing.

For q < 128, elimination packs each vector into one int, coordinate 0 the
most significant field (M4RI's packing: Albrecht, Bard and Hart, "Algorithm
898", ACM TOMS 37(1), 2010): a bit over GF(2), where a row operation is one
XOR, and a byte for odd q, where it is an int add between byte translates.
Only q >= 128 keeps one list per row.  ``row_space_keys`` walks GF(2) row
spaces as packed ints too.  ``codes`` is the one mixed-radix encoder: it
folds value columns into keys for that walk and for the simulator's
decoders.  Subspaces are handled through their spanning column sets; every
routine that returns a basis returns the canonical one, the RREF basis of
the span read as columns, so span-equal inputs produce identical output
matrices and golden tests stay stable.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate, chain
from operator import xor
from typing import Iterable, Iterator, Sequence

from .errors import ModelError, SubspaceNotContained, Value

MAX_FIELD_ORDER = 2**31
_CHUNK = 1024  # most points row_space_keys holds at once


def is_int(x) -> bool:
    """An int and not a bool: the test of every matrix entry, shape and size."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_prime(n: int) -> bool:
    """Primality of an n >= 2 by trial division."""
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


class FiniteMatrix(Value):
    """Dense matrix over GF(q), row-major, entries reduced into [0, q)."""

    q: FieldOrder
    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "q", FieldOrder(self.q))
        if not (is_int(self.rows) and is_int(self.cols)):
            raise ModelError(f"matrix shape must be integers, got {self.rows!r}x{self.cols!r}")
        if self.rows < 0 or self.cols < 0:
            raise ModelError(f"matrix shape must be nonnegative, got {self.rows}x{self.cols}")
        if len(self.entries) != self.rows * self.cols:
            raise ModelError(
                f"expected {self.rows * self.cols} entries for a "
                f"{self.rows}x{self.cols} matrix, got {len(self.entries)}"
            )
        for e in self.entries:
            if not isinstance(e, int) or isinstance(e, bool):  # is_int, inline in this loop
                raise ModelError(f"matrix entries must be integers, got {e!r}")
        object.__setattr__(self, "entries", tuple(e % self.q for e in self.entries))

    @classmethod
    def _of(cls, q: FieldOrder, rows: int, cols: int, entries: tuple[int, ...]) -> "FiniteMatrix":
        """A rows x cols matrix from entries already reduced mod q: no checks."""
        m = object.__new__(cls)
        m.__dict__.update(q=q, rows=rows, cols=cols, entries=entries)
        return m

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

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[int, ...]:
        return self.entries[j :: self.cols]

    def row_list(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "FiniteMatrix":
        cols = chain.from_iterable(self.col(j) for j in range(self.cols))
        return FiniteMatrix._of(self.q, self.cols, self.rows, tuple(cols))


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


def codes(cols: Sequence[Sequence[int]], radices: Sequence[int], n: int) -> list[int]:
    """The n mixed-radix codes of the columns, the first most significant.

    Column k holds n values in [0, radices[k]).  While every code fits in a
    byte, a column is a big int of bytes and acc * r + col carries nothing
    from byte to byte, as in cols_mat.  No columns give n zeros.
    """
    if math.prod(radices) <= 256:
        acc = 0
        for col, r in zip(cols, radices):
            acc = acc * r + int.from_bytes(bytes(col), "little")
        return list(acc.to_bytes(n, "little"))
    out = [0] * n
    for col, r in zip(cols, radices):
        out = [c * r + v for c, v in zip(out, col)]
    return out


def hstack(*mats: FiniteMatrix) -> FiniteMatrix:
    """Concatenate matrices side by side: [a | b | ...]."""
    if not mats:
        raise ValueError("hstack needs at least one matrix")
    first = mats[0]
    if any(m.rows != first.rows or m.q != first.q for m in mats):
        raise ValueError("hstack requires equal row counts and a common field")
    rows = chain.from_iterable(m.row(i) for i in range(first.rows) for m in mats)
    return FiniteMatrix._of(first.q, first.rows, sum(m.cols for m in mats), tuple(rows))


def columns_subset(m: FiniteMatrix, indices: Iterable[int]) -> FiniteMatrix:
    """New matrix made of the selected columns of m, in the given order."""
    return FiniteMatrix.from_cols(m.q, [m.col(j) for j in indices], rows=m.rows)


# bytes holding one 0/1 value each <-> the ASCII digits int(..., 2) reads
_BITS = bytes.maketrans(b"\x00\x01", b"01")
_UNBITS = bytes.maketrans(b"01", b"\x00\x01")


def _pack(q: int, values: bytes) -> int:
    """Values in [0, q), q < 128, as one int of fields, the first most significant."""
    return int(values.translate(_BITS) or b"0", 2) if q == 2 else int.from_bytes(values, "big")


def _unpack(q: int, vecs: Iterable[int], size: int) -> bytes:
    """The values of _pack'ed vectors of size > 0 coordinates, one per byte."""
    if q == 2:
        return "".join([format(v, f"0{size}b") for v in vecs]).encode().translate(_UNBITS)
    return b"".join([v.to_bytes(size, "big") for v in vecs])


def _packed_rows(m: FiniteMatrix) -> list[int]:
    """The rows of a matrix over GF(q), q < 128, each packed by _pack."""
    width = m.cols if m.q == 2 else 8 * m.cols
    whole, mask = _pack(m.q, bytes(m.entries)), (1 << width) - 1
    return [whole >> (width * i) & mask for i in range(m.rows - 1, -1, -1)]


def _eliminate(q: int, vecs: Iterable[int], size: int, start: int) -> list[tuple[int, int]]:
    """Row-reduce _pack'ed vectors of size coordinates over GF(q), q < 128.

    A vector takes one row operation per leading field (from bit_length())
    until it is zero or leads where no pivot does; then it is scaled to a
    leading 1 and becomes a pivot.  A row operation is one XOR over GF(2),
    and over odd q one int add of the pivot scaled by a translate (no byte
    passes 2q - 2 < 256, so nothing carries) and one reducing translate.
    Pivots leading at coordinate start or later are then back-substituted.
    Returns the (lead, pivot) pairs by increasing lead: an echelon form,
    reduced from start on (with start 0, the RREF's nonzero rows).
    """
    two, (reduce, scale) = q == 2, _byte_tables(q)
    shift, mask = (0, 1) if two else (3, 255)

    def minus(v: int, p: int, f: int) -> int:  # v - f * p over odd q
        v += int.from_bytes(p.to_bytes(size, "big").translate(scale[q - f]), "big")
        return int.from_bytes(v.to_bytes(size, "big").translate(reduce), "big")

    pivots: dict[int, int] = {}  # by the place of the leading field, counted from the last
    for v in vecs:
        while v:
            k = (v.bit_length() - 1) >> shift
            p = pivots.get(k)
            f = v >> (k << shift)
            if p is None:  # scaled to a leading 1 (over GF(2), f is 1)
                pivots[k] = v if f == 1 else minus(0, v, q - pow(f, -1, q))
                break
            v = v ^ p if two else minus(v, p, f)
    done: list[tuple[int, int]] = []  # (shift to the leading field, back-substituted pivot)
    for k in sorted(k for k in pivots if k < size - start):
        v = pivots[k]
        for s, p in done:
            f = v >> s & mask
            if f:
                v = v ^ p if two else minus(v, p, f)
        pivots[k] = v
        done.append((k << shift, v))
    return [(size - 1 - k, pivots[k]) for k in sorted(pivots, reverse=True)]


def rref(m: FiniteMatrix) -> tuple[FiniteMatrix, tuple[int, ...]]:
    """Reduced row echelon form via Gauss-Jordan elimination mod q.

    For q < 128 the rows are packed into ints and reduced by ``_eliminate``
    with full back-substitution; for larger q each row is a list.

    Returns:
        (R, pivot_cols): R is the RREF of m (same shape, row space
        preserved) and pivot_cols lists the pivot column indices in
        increasing order; their count is the rank.
    """
    if not m.rows or not m.cols:
        return m, ()
    q, n, c = m.q, m.rows, m.cols
    if q < 128:
        rows = _eliminate(q, _packed_rows(m), c, 0)
        body = _unpack(q, (v for _, v in rows), c) + bytes((n - len(rows)) * c)
        return FiniteMatrix._of(q, n, c, tuple(body)), tuple(p for p, _ in rows)
    work, pivots = m.row_list(), []
    for col in range(c):
        pr = len(pivots)
        sel = next((r for r in range(pr, n) if work[r][col]), None)
        if sel is None:
            continue
        inv = pow(work[sel][col], -1, q)
        work[sel], work[pr] = work[pr], [x * inv % q for x in work[sel]]
        for r in range(n):
            f = work[r][col]
            if f and r != pr:
                work[r] = [(a - f * b) % q for a, b in zip(work[r], work[pr])]
        pivots.append(col)
        if pr + 1 == n:
            break
    return FiniteMatrix._of(q, n, c, tuple(chain.from_iterable(work))), tuple(pivots)


def row_space_basis(m: FiniteMatrix) -> FiniteMatrix:
    """The nonzero rows of rref(m): a canonical basis of the row space of m.

    Its row count is the rank of m.
    """
    reduced, pivots = rref(m)
    return FiniteMatrix._of(m.q, len(pivots), m.cols, reduced.entries[: len(pivots) * m.cols])


def row_space_keys(basis: FiniteMatrix, widths: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Stream every GF(q) combination of the rows of basis, each exactly once,
    as a tuple of keys.

    With linearly independent rows (as from row_space_basis) these are the
    q**rows distinct points of the row space; zero rows yield the single
    zero vector.  The order is an odometer over the coefficients with the
    first row's turning fastest.  Each point is cut into consecutive slices
    of the given widths (at least one, summing to basis.cols), and each
    slice is read as a base-q integer, most significant digit first.

    The walk runs in chunks of the q**low points (at most _CHUNK) spanned by
    the first low rows, one chunk per combination of the other rows.  Over
    GF(2) a point is one int with column 0 as its most significant bit, so
    a point is one XOR and a key a shift and a mask.  Over odd q, cols_mat
    computes a chunk a column at a time and ``codes`` reads the keys off
    those columns.
    """
    if not widths or sum(widths) != basis.cols:
        raise ValueError(f"widths {list(widths)} do not cover {basis.cols} columns")
    q, r = int(basis.q), basis.rows
    low = r
    while q**low > _CHUNK:
        low -= 1
    ends = list(accumulate(widths))
    if q == 2:
        cuts = [(basis.cols - end, (1 << w) - 1) for end, w in zip(ends, widths)]
        rows = _packed_rows(basis)
        chunk = [0]
        for row in rows[:low]:
            chunk += [p ^ row for p in chunk]
        # combination h of the other rows differs from h - 1 in the rows of
        # h's lowest set bit and below: flip their XOR, carry[t]
        carry = list(accumulate(rows[low:], xor))
        start = 0
        for h in range(1 << len(carry)):
            if h:
                start ^= carry[(h & -h).bit_length() - 1]
            for p in chunk:
                p ^= start
                yield tuple([(p >> shift) & mask for shift, mask in cuts])
        return
    size = q**low
    digits = [[d for d in range(q) for _ in range(q**k)] * q ** (low - 1 - k) for k in range(low)]
    for h in range(q ** (r - low)):
        cols = cols_mat(digits + [[h // q**k % q] * size for k in range(r - low)], basis, size)
        yield from zip(*(codes(cols[end - w : end], (q,) * w, size) for end, w in zip(ends, widths)))


def rank(m: FiniteMatrix) -> int:
    """Rank of m over GF(q); for q < 128, _eliminate's pivots with no back-substitution."""
    return len(_eliminate(m.q, _packed_rows(m), m.cols, m.cols) if m.q < 128 else rref(m)[1])


def column_space_intersection(a: FiniteMatrix, b: FiniteMatrix) -> FiniteMatrix:
    """Canonical basis of the intersection of two column spaces.

    Zassenhaus's algorithm, one elimination: row-reduce the block whose
    rows are [a_j | a_j] for each column a_j of a and [b_j | 0] for each
    column b_j of b, packed from the entries (for q >= 128, through rref).
    The block's row space is {[u + v | u] : u in span(a), v in span(b)}.  In
    any echelon form of it the rows that lead in the right half are [0 | w],
    and their w span span(a) & span(b).  Only they are back-substituted, to
    the RREF basis of the meet, read as columns: span-equal inputs give the
    identical matrix.

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
    q, n = a.q, a.rows
    if q < 128:
        ea, eb, w = bytes(a.entries), bytes(b.entries), n if q == 2 else 8 * n
        vecs = [v << w | v for v in (_pack(q, ea[j :: a.cols]) for j in range(a.cols))]
        vecs += [_pack(q, eb[j :: b.cols]) << w for j in range(b.cols)]
        meet = [v for p, v in _eliminate(q, vecs, 2 * n, n) if p >= n]
        body = _unpack(q, meet, n)  # column after column
        return FiniteMatrix._of(q, n, len(meet), tuple(b"".join([body[i::n] for i in range(n)])))
    block = [a.col(j) * 2 for j in range(a.cols)] + [b.col(j) + (0,) * n for j in range(b.cols)]
    reduced, pivots = rref(FiniteMatrix._of(q, len(block), 2 * n, tuple(chain.from_iterable(block))))
    meet = [reduced.row(i)[n:] for i, p in enumerate(pivots) if p >= n]
    return FiniteMatrix._of(q, len(meet), n, tuple(chain.from_iterable(meet))).transpose()


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
    out = [(0,) * b.cols] * a.cols
    for r, p in enumerate(pivots):
        out[p] = reduced.row(r)[a.cols :]
    return FiniteMatrix._of(a.q, a.cols, b.cols, tuple(chain.from_iterable(out)))
