"""Exact dense linear algebra over prime fields GF(q).

A matrix is immutable: a row-major tuple of Python ints reduced into
[0, q), so all arithmetic is exact regardless of field size (q is capped at
2**31 only to keep single products cheap).  Entries are validated once, where
they come from outside: the public constructor, ``from_rows`` and
``from_cols`` check the field, the shape and that every entry is an int.
Every matrix this module builds from entries it has already reduced goes
through ``FiniteMatrix._of``, which checks nothing.

Elimination packs each vector into one int, coordinate 0 the most
significant field (M4RI's packing: Albrecht, Bard and Hart, "Algorithm
898", ACM TOMS 37(1), 2010): a bit over GF(2), where a row operation is one
XOR, a byte for odd q < 128, where it is an int add between byte
translates, and 32 bits for larger q, where it is one pass over the
struct-unpacked fields.  ``row_space_keys`` walks the row space over every
field alike, a chunk at a time through ``cols_mat`` and ``codes``, the one
mixed-radix encoder: it folds value columns into keys for that walk and for
the simulator's decoders, and ``digits`` is its inverse.  Subspaces are
handled through their spanning column sets; every routine that returns a
basis returns the canonical one, the RREF basis of the span read as columns,
so span-equal inputs produce identical output matrices and golden tests stay
stable.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache
from itertools import accumulate, chain

from .errors import ModelError, SubspaceNotContained, Value, is_int

MAX_FIELD_ORDER = 2**31
_CHUNK = 1024  # most points row_space_keys holds at once


@lru_cache(maxsize=64)  # a model file names its field once per matrix
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


def cols_mat(x_cols: Sequence[Sequence[int]], a: FiniteMatrix, n: int) -> list[Sequence[int]]:
    """Products x @ a for n row vectors x at once, given and returned by column.

    x_cols holds a.rows columns of n values in [0, q) each, lists or bytes:
    column k lists coordinate k of every x.  Returns the a.cols product
    columns, bytes for q < 128 and lists above.  There a column is one big
    integer with a byte per value, so each term of a product column is a few
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
                acc = [s + c * v for s, v in zip(acc, col)]
            out.append([s % q for s in acc])
        return out
    reduce, scale = _byte_tables(q)
    packed = [bytes(col) for col in x_cols]
    batch = 255 // (q - 1)  # terms a byte can sum before it must be reduced
    ints = {}  # (k, c) -> column k times c as an int, built once per call
    out = []
    for j in range(a.cols):
        acc, terms = 0, 0
        for k, (col, c) in enumerate(zip(packed, a.col(j))):
            if not c:
                continue
            if terms == batch:
                acc = int.from_bytes(acc.to_bytes(n, "little").translate(reduce), "little")
                terms = 1
            term = ints.get((k, c))
            if term is None:
                term = ints[k, c] = int.from_bytes(col if c == 1 else col.translate(scale[c]), "little")
            acc += term
            terms += 1
        out.append(acc.to_bytes(n, "little").translate(reduce))
    return out


def codes(cols: Sequence[Sequence[int]], radices: Sequence[int], n: int) -> Sequence[int]:
    """The n mixed-radix codes of the columns, the first most significant.

    Column k holds n values in [0, radices[k]) (a list or bytes).  A column
    is a big int of fields and acc * r + col carries nothing from field to
    field, as in cols_mat: codes below 256 take a byte each and are returned
    as bytes; codes below 2**64 from radices up to 256 take fields of 2, 4
    or 8 bytes (each column spread a byte per field) and are returned as a
    list.  Wider codes from radices up to 256 join runs of columns whose
    codes fit 8 bytes, one list step per value and run; larger radices take
    one list step per value and column.  No columns give n zeros.
    """
    span = math.prod(radices)
    if span <= 256:
        acc = 0
        for col, r in zip(cols, radices):
            acc = acc * r + int.from_bytes(bytes(col), "little")
        return acc.to_bytes(n, "little")
    if span <= 2**64 and max(radices) <= 256:
        width = 2 if span <= 2**16 else 4 if span <= 2**32 else 8
        spread, acc = bytearray(width * n), 0
        for col, r in zip(cols, radices):
            spread[::width] = bytes(col)
            acc = acc * r + int.from_bytes(spread, "little")
        return list(struct.unpack(f"<{n}{'HIQ'[width // 4]}", acc.to_bytes(width * n, "little")))
    if max(radices) <= 256:  # the last columns whose codes fit 8 bytes, joined to the codes of the rest
        k, run = len(radices), 1
        while run * radices[k - 1] <= 2**64:
            k -= 1
            run *= radices[k]
        head = codes(cols[:k], radices[:k], n)
        return [c * run + v for c, v in zip(head, codes(cols[k:], radices[k:], n))]
    out = [0] * n
    for col, r in zip(cols, radices):
        out = [c * r + v for c, v in zip(out, col)]
    return out


def digits(codes: Sequence[int], radices: Sequence[int]) -> list[tuple[int, ...]]:
    """The digit tuple of each code of codes(cols, radices, n), the first most
    significant, taken a digit column at a time.  No radices give ()."""
    if not radices:
        return [()] * len(codes)
    columns = []
    for r in reversed(radices[1:]):
        columns.append([c % r for c in codes])
        codes = [c // r for c in codes]
    columns.append(codes)
    return list(zip(*reversed(columns)))


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


def _field_bits(q: int) -> int:
    """Bits per coordinate of a _pack'ed vector over GF(q): one over GF(2), a
    byte for odd q < 128 (see _eliminate), and for larger q the whole bytes
    that hold every value below MAX_FIELD_ORDER, 32 bits."""
    if q == 2:
        return 1
    return 8 if q < 128 else -(-(MAX_FIELD_ORDER - 1).bit_length() // 8) * 8


def _pack(q: int, values: Sequence[int]) -> int:
    """Values in [0, q) as one int of _field_bits(q) fields, the first most significant."""
    if q == 2:
        return int(bytes(values).translate(_BITS) or b"0", 2)
    if q < 128:
        return int.from_bytes(bytes(values), "big")
    return int.from_bytes(struct.pack(f">{len(values)}I", *values), "big")


def _unpack(q: int, vecs: Iterable[int], size: int) -> Sequence[int]:
    """The values of _pack'ed vectors of size > 0 coordinates, in order."""
    if q == 2:
        return "".join([format(v, f"0{size}b") for v in vecs]).encode().translate(_UNBITS)
    width = _field_bits(q) // 8 * size
    data = b"".join([v.to_bytes(width, "big") for v in vecs])
    return data if q < 128 else struct.unpack(f">{len(data) // 4}I", data)


def _packed_rows(m: FiniteMatrix) -> list[int]:
    """The rows of a matrix over GF(q), each packed by _pack."""
    width = _field_bits(m.q) * m.cols
    whole, mask = _pack(m.q, m.entries), (1 << width) - 1
    return [whole >> (width * i) & mask for i in range(m.rows - 1, -1, -1)]


def _eliminate(q: int, vecs: Iterable[int], size: int, start: int) -> list[tuple[int, int]]:
    """Row-reduce _pack'ed vectors of size coordinates over GF(q).

    A vector takes one row operation per leading field (from bit_length())
    until it is zero or leads where no pivot does; then it is scaled to a
    leading 1 and becomes a pivot.  A row operation is one XOR over GF(2).
    For odd q < 128 it is one int add of the pivot scaled by a translate (no
    byte passes 2q - 2 < 256, so nothing carries) and one reducing
    translate; for larger q, one pass over both vectors' 32-bit fields.
    Pivots leading at coordinate start or later are then back-substituted.
    Returns the (lead, pivot) pairs by increasing lead: an echelon form,
    reduced from start on (with start 0, the RREF's nonzero rows).
    """
    bits = _field_bits(q)
    two, shift, mask = q == 2, bits.bit_length() - 1, (1 << bits) - 1
    if bits == 8:
        reduce, scale = _byte_tables(q)

        def minus(v: int, p: int, f: int) -> int:  # v - f * p
            v += int.from_bytes(p.to_bytes(size, "big").translate(scale[q - f]), "big")
            return int.from_bytes(v.to_bytes(size, "big").translate(reduce), "big")

    elif bits == 32:
        fields = struct.Struct(f">{size}I")
        pack, unpack, width = fields.pack, fields.unpack, fields.size

        def minus(v: int, p: int, f: int) -> int:  # v - f * p
            x, y = unpack(v.to_bytes(width, "big")), unpack(p.to_bytes(width, "big"))
            return int.from_bytes(pack(*[(a - f * b) % q for a, b in zip(x, y)]), "big")

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
    """Reduced row echelon form: the rows packed and reduced by ``_eliminate``
    with full back-substitution.

    Returns:
        (R, pivot_cols): R is the RREF of m (same shape, row space
        preserved) and pivot_cols lists the pivot column indices in
        increasing order; their count is the rank.
    """
    q, n, c = m.q, m.rows, m.cols
    rows = _eliminate(q, _packed_rows(m), c, 0)
    body = tuple(_unpack(q, (v for _, v in rows), c)) + (0,) * ((n - len(rows)) * c)
    return FiniteMatrix._of(q, n, c, body), tuple(p for p, _ in rows)


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
    the first low rows, one chunk per combination of the other rows, for
    every q alike: cols_mat computes a chunk a column at a time and
    ``codes`` reads the keys off those columns, a few whole-column int
    operations per column while q < 256 and a key fits in 8 bytes.
    """
    if not widths or sum(widths) != basis.cols:
        raise ValueError(f"widths {list(widths)} do not cover {basis.cols} columns")
    q, r = int(basis.q), basis.rows
    low = r
    while q**low > _CHUNK:
        low -= 1
    ends = list(accumulate(widths))
    size = q**low
    digits = [[d for d in range(q) for _ in range(q**k)] * q ** (low - 1 - k) for k in range(low)]
    for h in range(q ** (r - low)):
        cols = cols_mat(digits + [[h // q**k % q] * size for k in range(r - low)], basis, size)
        yield from zip(*(codes(cols[end - w : end], (q,) * w, size) for end, w in zip(ends, widths)))


def rank(m: FiniteMatrix) -> int:
    """Rank of m over GF(q): _eliminate's pivots with no back-substitution."""
    return len(_eliminate(m.q, _packed_rows(m), m.cols, m.cols))


def column_space_intersection(a: FiniteMatrix, b: FiniteMatrix) -> FiniteMatrix:
    """Canonical basis of the intersection of two column spaces.

    Zassenhaus's algorithm, one elimination: row-reduce the block whose
    rows are [a_j | a_j] for each column a_j of a and [b_j | 0] for each
    column b_j of b, packed from the entries.
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
    w = _field_bits(q) * n
    vecs = [v << w | v for v in (_pack(q, a.col(j)) for j in range(a.cols))]
    vecs += [_pack(q, b.col(j)) << w for j in range(b.cols)]
    meet = [v for p, v in _eliminate(q, vecs, 2 * n, n) if p >= n]
    body = _unpack(q, meet, n)  # column after column
    return FiniteMatrix._of(q, n, len(meet), tuple(chain.from_iterable(body[i::n] for i in range(n))))


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
