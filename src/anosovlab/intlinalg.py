"""Exact integer linear algebra on small square matrices.

Everything here runs on Python ints, so nothing overflows: matrix powers such
as A^8 for lattice work, adjugates, characteristic polynomials, and monic
factor searches are all exact. Matrices are tuples of tuples of ints.
"""

from __future__ import annotations

from numbers import Integral

IMatrix = tuple[tuple[int, ...], ...]


def as_imatrix(rows) -> IMatrix:
    """Nested integers in the canonical tuple-of-tuples form; ValueError unless `rows`
    is a nonempty square array of integers, naming the first entry that is not one
    (a bool or a float is refused, not truncated)."""
    try:
        mat = tuple(tuple(row) for row in rows)
    except TypeError:
        raise ValueError(f"matrix must be a list of rows, got {rows!r}") from None
    if not mat or any(len(row) != len(mat) for row in mat):
        raise ValueError(f"matrix must be square, got {len(mat)} rows of lengths {[len(r) for r in mat]}")
    for i, row in enumerate(mat):
        for j, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, Integral):
                raise ValueError(f"matrix entry [{i}][{j}] = {v!r} is not an integer")
    return tuple(tuple(int(v) for v in row) for row in mat)


def identity(d: int) -> IMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def int_matmul(a: IMatrix, b: IMatrix) -> IMatrix:
    d = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d))
        for i in range(d)
    )


def int_matvec(a: IMatrix, v) -> tuple[int, ...]:
    return tuple(sum(a[i][k] * int(v[k]) for k in range(len(a))) for i in range(len(a)))


def int_scale(a: IMatrix, c: int) -> IMatrix:
    return tuple(tuple(c * x for x in row) for row in a)


def int_add(a: IMatrix, b: IMatrix) -> IMatrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def int_pow(a: IMatrix, m: int) -> IMatrix:
    """Exact A^m by exponentiation-by-squaring, m >= 0."""
    if m < 0:
        raise ValueError(f"negative power {m} not representable over the integers")
    result = identity(len(a))
    base = a
    while m:
        if m & 1:
            result = int_matmul(result, base)
        base = int_matmul(base, base)
        m >>= 1
    return result


def int_det(a: IMatrix) -> int:
    """Fraction-free Bareiss elimination; exact for any dimension."""
    d = len(a)
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(d - 1):
        if m[k][k] == 0:
            for r in range(k + 1, d):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, d):
            for j in range(k + 1, d):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[d - 1][d - 1]


def int_minor(a: IMatrix, i: int, j: int) -> int:
    sub = tuple(
        tuple(a[r][c] for c in range(len(a)) if c != j)
        for r in range(len(a))
        if r != i
    )
    return int_det(sub)


def int_adjugate(a: IMatrix) -> IMatrix:
    """adj(A) with adj(A) A = det(A) I; cofactor expansion, fine for small d."""
    d = len(a)
    return tuple(
        tuple((-1) ** (i + j) * int_minor(a, j, i) for j in range(d))
        for i in range(d)
    )


def char_poly(a: IMatrix) -> tuple[int, ...]:
    """Coefficients of det(xI - A), ascending, leading coefficient 1.

    Faddeev-LeVerrier recursion: M_1 = A, c_k = -tr(A M_k)/k applied to
    M_{k+1} = A(M_k + c_k I). Each division is exact over Z; asserted.
    """
    d = len(a)
    coeffs = [0] * (d + 1)
    coeffs[d] = 1
    m = identity(d)
    for k in range(1, d + 1):
        m = int_matmul(a, m)
        tr = sum(m[i][i] for i in range(d))
        if tr % k != 0:
            raise ArithmeticError(f"Faddeev-LeVerrier trace {tr} not divisible by {k}")
        c = -(tr // k)
        coeffs[d - k] = c
        m = int_add(m, int_scale(identity(d), c))
    return tuple(coeffs)


def poly_eval(coeffs, x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _divisors_with_sign(n: int) -> list[int]:
    n = abs(n)
    out = []
    for t in range(1, n + 1):
        if n % t == 0:
            out.extend((t, -t))
    return out


def _integer_roots(coeffs) -> list[int]:
    """Integer roots of a monic integer polynomial (rational root theorem)."""
    c0 = coeffs[0]
    if c0 == 0:
        return [0] + _integer_roots(tuple(coeffs[1:]))
    return [t for t in _divisors_with_sign(c0) if poly_eval(coeffs, t) == 0]


def is_irreducible_over_q(coeffs) -> bool:
    """Exact irreducibility over Q of a monic integer polynomial of degree 2 or 3.

    Gauss: reducible over Q iff it factors into monic integer polynomials, and
    below degree 4 any such factorization has a linear factor, an integer root.
    """
    if coeffs[-1] != 1:
        raise ValueError(f"expected a monic polynomial, leading coefficient {coeffs[-1]}")
    return not _integer_roots(coeffs)


def lattice_key(adj: IMatrix, absdet: int, v) -> tuple[int, ...]:
    """Canonical coset label of v modulo A Z^d.

    adj(A) v mod |det A| has kernel exactly A Z^d, so equal keys mean equal
    cosets. adj and absdet must belong to the same matrix.
    """
    return tuple(x % absdet for x in int_matvec(adj, v))


def membership_in_image(adj: IMatrix, absdet: int, v) -> bool:
    """Exact test for v in A Z^d via the adjugate congruence."""
    return all(x % absdet == 0 for x in int_matvec(adj, v))
