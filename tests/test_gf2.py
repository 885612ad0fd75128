from __future__ import annotations

import random
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _fixtures import apply
from simpsurf.gf2 import Gf2Matrix, Gf2Span, Gf2Vector, _bits_up, _span


def _random_matrix(rng: random.Random, n_rows: int, n_cols: int) -> Gf2Matrix:
    return Gf2Matrix(n_rows, n_cols, [rng.getrandbits(n_cols) for _ in range(n_rows)])


# Oracles: a column sweep (pivot on the first nonzero column, clear it from
# every other row), an independent route to the pivot-map elimination's answers.

def _rref_sweep(m: Gf2Matrix) -> tuple[list[int], list[int]]:
    rows = [r.bits for r in m.rows()]
    pivots: list[int] = []
    r = 0
    for c in range(m.n_cols):
        pr = next((i for i in range(r, len(rows)) if rows[i] >> c & 1), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i] >> c & 1:
                rows[i] ^= rows[r]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _kernel_sweep(m: Gf2Matrix) -> list[Gf2Vector]:
    rows, pivots = _rref_sweep(m)
    basis = []
    for f in range(m.n_cols):
        if f in pivots:
            continue
        bits = 1 << f
        for r, p in enumerate(pivots):
            if rows[r] >> f & 1:
                bits |= 1 << p
        basis.append(Gf2Vector(m.n_cols, bits))
    return basis


def _solve_sweep(m: Gf2Matrix, b: Gf2Vector) -> Optional[Gf2Vector]:
    rows = [r.bits for r in m.rows()]
    rhs = b.to_coeffs()
    pivots: list[int] = []
    r = 0
    for c in range(m.n_cols):
        pr = next((i for i in range(r, len(rows)) if rows[i] >> c & 1), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rhs[r], rhs[pr] = rhs[pr], rhs[r]
        for i in range(len(rows)):
            if i != r and rows[i] >> c & 1:
                rows[i] ^= rows[r]
                rhs[i] ^= rhs[r]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    if any(rhs[i] and not rows[i] for i in range(len(rows))):
        return None
    return Gf2Vector(m.n_cols, sum(1 << p for i, p in enumerate(pivots) if rhs[i]))


@st.composite
def _matrices(draw) -> Gf2Matrix:
    n_rows, n_cols = draw(st.integers(0, 40)), draw(st.integers(0, 40))
    density = draw(st.sampled_from((0.03, 0.1, 0.3, 0.5, 0.9)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return Gf2Matrix(n_rows, n_cols, [
        sum(1 << j for j in range(n_cols) if rng.random() < density)
        for _ in range(n_rows)])


def test_vector_basics():
    v = Gf2Vector.from_support(5, [0, 3])
    assert v.support() == (0, 3)
    assert len(v.support()) == 2
    assert v.get(3) == 1 and v.get(1) == 0
    w = Gf2Vector.from_coeffs([1, 1, 0, 0, 0])
    assert (v ^ w).support() == (1, 3)
    assert v.dot(w) == 1
    assert Gf2Vector(5).is_zero()
    # _bits_up against support() on zero, a dense wide int (quadratic if
    # each bit were cleared by its own copy) and sparse wide ints
    n = 100_000
    rng = random.Random(20261020)
    cases = [(), tuple(range(n)), (0, n - 1), (n - 1,)]
    cases += [tuple(sorted(rng.sample(range(n), m))) for m in (1, 7, 300)]
    for support in cases:
        v = Gf2Vector.from_support(n, support)
        assert tuple(_bits_up(v.bits)) == v.support() == support


def _digits_up(bits: int, n: int) -> str:
    """The n lowest binary digits of bits, lowest first."""
    return bin(bits)[2:].zfill(n)[::-1][:n]


def test_wide_vectors_and_transposes_match_the_reference():
    # a repeated index cancels
    assert Gf2Vector.from_support(4, [1, 1, 2]) == Gf2Vector(4, 0b0100)
    assert repr(Gf2Vector.from_support(4, [1, 1, 2])) == "Gf2Vector('0010')"
    # 200,000 indices, about a quarter repeated, against their parities
    n = 300_000
    rng = random.Random(20261021)
    indices = [rng.randrange(n) for _ in range(200_000)]
    odd = [0] * n
    for i in indices:
        odd[i] ^= 1
    v = Gf2Vector.from_support(n, indices)
    assert _digits_up(v.bits, n) == "".join(map(str, odd))
    assert Gf2Vector.from_coeffs([c + 2 * rng.randrange(2) for c in odd]) == v
    assert Gf2Vector.from_coeffs([]) == Gf2Vector(0) == Gf2Vector.from_support(0, [])
    # an all-ones row of 80,000 columns among sparse and random rows
    n = 80_000
    rows = [(1 << n) - 1, 0, 1 << n - 1, rng.getrandbits(n), 0b101]
    transposed = Gf2Matrix(len(rows), n, rows).transpose()
    digits = [_digits_up(r, n) for r in rows]
    assert transposed == Gf2Matrix(n, len(rows), [
        sum(int(d[j]) << i for i, d in enumerate(digits)) for j in range(n)])


def test_vector_validation():
    with pytest.raises(ValueError):
        Gf2Vector(2, 0b100)
    with pytest.raises(IndexError):
        Gf2Vector.from_support(3, [3])
    with pytest.raises(ValueError):
        Gf2Vector(3).dot(Gf2Vector(4))


def test_rank_small():
    assert Gf2Matrix(4, 4, [0b0001, 0b0010, 0b0100, 0b1000]).rank() == 4
    assert Gf2Matrix(3, 5, [0] * 3).rank() == 0
    assert Gf2Matrix(2, 2, [0b11, 0b11]).rank() == 1
    assert Gf2Matrix(3, 3, [0b101, 0b110, 0b011]).rank() == 2


def test_rank_equals_transpose_rank():
    rng = random.Random(7)
    for _ in range(25):
        m = _random_matrix(rng, rng.randrange(0, 9), rng.randrange(0, 9))
        assert m.rank() == m.transpose().rank()


def test_kernel_of_single_row():
    basis = Gf2Matrix(1, 2, [0b11]).kernel_basis()
    assert basis == [Gf2Vector.from_coeffs([1, 1])]


def test_kernel_dimension_and_membership():
    rng = random.Random(11)
    for _ in range(30):
        m = _random_matrix(rng, rng.randrange(0, 8), rng.randrange(1, 8))
        basis = m.kernel_basis()
        assert len(basis) == m.n_cols - m.rank()
        for v in basis:
            assert apply(m, v).is_zero()
        span = Gf2Span(m.n_cols)
        for v in basis:
            assert span.add(v)


def test_kernel_degenerate_shapes():
    assert Gf2Matrix(0, 3, []).kernel_basis() == [Gf2Vector(3, 1), Gf2Vector(3, 2), Gf2Vector(3, 4)]
    assert Gf2Matrix(3, 0, [0] * 3).kernel_basis() == []
    assert Gf2Matrix(0, 0, []).rank() == 0


def test_solve_consistent_and_not():
    m = Gf2Matrix(2, 3, [0b101, 0b110])  # rows (1, 0, 1) and (0, 1, 1)
    x = m.solve(Gf2Vector.from_coeffs([1, 1]))
    assert x is not None and apply(m, x) == Gf2Vector.from_coeffs([1, 1])
    # free variables stay zero, so the answer is pinned
    assert x == Gf2Vector.from_coeffs([1, 1, 0])
    bad = Gf2Matrix(2, 2, [0b11, 0b11]).solve(Gf2Vector.from_coeffs([1, 0]))
    assert bad is None


def test_solve_random_consistent():
    rng = random.Random(13)
    for _ in range(40):
        m = _random_matrix(rng, rng.randrange(1, 9), rng.randrange(1, 9))
        b = apply(m, Gf2Vector(m.n_cols, rng.getrandbits(m.n_cols)))
        x = m.solve(b)
        assert x is not None and apply(m, x) == b


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        Gf2Matrix(3, 3, [0b001, 0b010, 0b100]).solve(Gf2Vector(2))


def test_span_reduce_is_canonical():
    span = Gf2Span(4)
    span.add(Gf2Vector.from_coeffs([1, 1, 0, 0]))
    span.add(Gf2Vector.from_coeffs([0, 1, 1, 0]))
    v = Gf2Vector.from_coeffs([1, 0, 1, 1])
    assert span.contains(v ^ span.reduce(v))
    assert span.reduce(span.reduce(v)) == span.reduce(v)
    assert not span.add(Gf2Vector.from_coeffs([1, 0, 1, 0]))
    for bad in (span.add, span.reduce):
        with pytest.raises(ValueError, match="length mismatch"):
            bad(Gf2Vector(3))


def test_determinism():
    rng = random.Random(3)
    m = _random_matrix(rng, 6, 9)
    assert m.kernel_basis() == m.kernel_basis()
    b = Gf2Vector(6, 0)
    assert m.solve(b) == m.solve(b)


@settings(max_examples=300, deadline=None, database=None)
@given(m=_matrices(), data=st.data())
def test_elimination_matches_the_column_sweep(m, data):
    rows, pivots = _rref_sweep(m)
    assert m._rref() == (rows, pivots)
    assert m.rank() == len(pivots)
    assert m.kernel_basis() == _kernel_sweep(m)
    # a consistent right-hand side and an arbitrary one
    x = Gf2Vector(m.n_cols, data.draw(st.integers(0, 2**m.n_cols - 1)))
    for b in (apply(m, x), Gf2Vector(m.n_rows, data.draw(st.integers(0, 2**m.n_rows - 1)))):
        assert m.solve(b) == _solve_sweep(m, b)


@settings(max_examples=200, deadline=None, database=None)
@given(m=_matrices(), data=st.data())
def test_span_is_independent_of_insertion_order(m, data):
    vectors = list(m.rows())
    shuffled = data.draw(st.permutations(vectors))
    spans = []
    for order in (vectors, shuffled):
        span = Gf2Span(m.n_cols)
        for v in order:
            span.add(v)
        spans.append(span)
    first, second = spans
    rows, pivots = _rref_sweep(m)
    assert first._reduced_rows() == second._reduced_rows() == rows[:len(pivots)]
    assert first.dim == second.dim == len(pivots)
    for _ in range(5):
        v = Gf2Vector(m.n_cols, data.draw(st.integers(0, 2**m.n_cols - 1)))
        residue = first.reduce(v)
        assert residue == second.reduce(v)
        assert first.contains(v ^ residue)
        assert not any(residue.get(p) for p in pivots)


@settings(max_examples=300, deadline=None, database=None)
@given(m=_matrices(), data=st.data())
def test_partial_back_substitution_matches_the_column_sweep(m, data):
    rows, pivots = _rref_sweep(m)
    kernel = _kernel_sweep(m)
    free = [f for f in range(m.n_cols) if f not in pivots]
    span = Gf2Span(m.n_cols)
    for r in m.rows():
        span.add(r)
    assert span._pivots() == pivots and span._free(m.n_cols) == free
    # kernel vectors at a subset of the free columns, from the echelon rows
    chosen = sorted(data.draw(st.sets(st.sampled_from(free))) if free else [])
    assert span._kernel_at(chosen) == [kernel[free.index(f)].bits for f in chosen]
    assert span.dim == len(pivots) and span._reduced_rows() == rows[:len(pivots)]


def test_kernel_at_rejects_repeated_and_pivot_columns():
    span = _span([0b011, 0b110], 4)
    assert span._pivots() == [0, 1] and span._kernel_at([2]) == [0b111]
    for columns in ([2, 2], [3, 2, 3], [1], [2, 0]):
        with pytest.raises(ValueError):
            span._kernel_at(columns)


def _wide_matrices() -> list[Gf2Matrix]:
    """Seeded matrices with 1000-2000 columns and ranks in the hundreds,
    whose pivots spread far above one machine word."""
    rng = random.Random(2017)

    def tail(n_cols: int, low: int) -> int:
        # random bits from column s up, bit s set, s at least low
        s = rng.randrange(low, n_cols)
        return (rng.getrandbits(n_cols - s) | 1) << s

    spread = [tail(1500, 0) for _ in range(300)]
    # a third of the rows are sums of earlier ones: relations among rows
    dependent = [tail(1200, 0) for _ in range(250)]
    for _ in range(120):
        a, b, c = rng.sample(dependent, 3)
        dependent.append(a ^ b ^ c)
    # three entries a row, as in a triangle boundary
    sparse = [sum(1 << c for c in rng.sample(range(1000), 3)) for _ in range(500)]
    high = [tail(2000, 1200) for _ in range(200)]
    return [Gf2Matrix(len(rows), n_cols, rows) for rows, n_cols in
            ((spread, 1500), (dependent, 1200), (sparse, 1000), (high, 2000))]


def test_wide_matrices_match_the_column_sweep():
    rng = random.Random(5)
    for m in _wide_matrices():
        rows, pivots = _rref_sweep(m)
        free = sorted(set(range(m.n_cols)) - set(pivots))
        assert 100 <= len(pivots) < m.n_cols and pivots[-1] > 900
        assert m._rref() == (rows, pivots)
        assert m.rank() == len(pivots)
        span = Gf2Span(m.n_cols)
        for r in m.rows():
            span.add(r)
        assert span._pivots() == pivots
        assert span._free(m.n_cols) == free
        assert span._free(pivots[-1]) == [f for f in free if f < pivots[-1]]
        kernel = _kernel_sweep(m)
        chosen = sorted({*rng.sample(free, 30), free[-1]})
        assert span._kernel_at(chosen) == [kernel[free.index(f)].bits for f in chosen]
        assert span._reduced_rows() == rows[:len(pivots)]
        assert span._pivots() == pivots


def test_rank_skips_back_substitution(monkeypatch):
    calls = []
    monkeypatch.setattr(Gf2Span, "_reduced_rows", lambda *args: calls.append(args))
    rng = random.Random(17)
    m = _random_matrix(rng, 12, 10)
    assert m.rank() == len(_rref_sweep(m)[1])
    assert calls == []
