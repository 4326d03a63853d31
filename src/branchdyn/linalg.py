"""Dense exact linear algebra over the rationals.

These kernels serve ``make_subspace``'s dense input, the tests'
brute-force oracles and the benchmark's kernel probes; the rest of
``operators``, the commutant included, works on sparse vectors and
builds no matrix.  Matrices are lists of rows of Fractions or ints; the
products keep ints as ints.  Everything here is textbook elimination;
no pivot-size cleverness is needed at the dimensions the oracles use.

The spectral kernels work in integers.  ``char_poly`` clears
denominators and runs Faddeev-LeVerrier on the integer matrix, where
every division by k is exact.  ``rational_eigenvalues`` tries only the
divisors of the constant term up to the Gershgorin bound (the largest
absolute row sum bounds every eigenvalue), so its cost grows with the
size of the entries, not with the bit length of the coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

F0 = Fraction(0)
F1 = Fraction(1)


def zeros(n: int, m: int) -> list:
    return [[F0] * m for _ in range(n)]


def identity(n: int, one=F1) -> list:
    zero = one * 0
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def transpose(a: list) -> list:
    return [list(col) for col in zip(*a)] if a else []


def mat_mul(a: list, b: list) -> list:
    p = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * p
        for v, brow in zip(row, b):
            if v:
                acc = [x + v * y if y else x for x, y in zip(acc, brow)]
        out.append(acc)
    return out


def mat_vec(a: list, v: list) -> list:
    return [sum((x * y for x, y in zip(row, v) if x and y), F0) for row in a]


def mat_pow(a: list, e: int) -> list:
    out = identity(len(a), 1)
    base = a
    while e:
        if e & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base) if e > 1 else base
        e >>= 1
    return out


def rref(a: list) -> tuple:
    """Reduced row echelon form; returns (rref matrix, pivot columns)."""
    a = [list(map(Fraction, row)) for row in a]
    if not a:
        return a, []
    rows, cols = len(a), len(a[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = F1 / a[r][c]
        a[r] = [v * inv for v in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [vi - f * vr for vi, vr in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def nullspace(a: list) -> list:
    """A basis of {v : a v = 0}, one vector per free column."""
    if not a:
        return []
    cols = len(a[0])
    red, pivots = rref(a)
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = [F0] * cols
        v[free] = F1
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][free]
        basis.append(v)
    return basis


def char_poly(a: list) -> list:
    """Coefficients [c_0, ..., c_n] of det(xI - A), c_n = 1 (monic).

    Faddeev-LeVerrier in integers: with A = B / D for an integer matrix
    B, the recursion on B divides exactly at every step, and the
    coefficients of A are those of B scaled by c_j / D^(n-j).
    """
    n = len(a)
    den = 1
    for row in a:
        for x in row:
            den = lcm(den, x.denominator)
    b = [[int(x * den) for x in row] for row in a]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = identity(n, 1)
    for k in range(1, n + 1):
        bm = mat_mul(b, m)
        ck, r = divmod(-sum(bm[i][i] for i in range(n)), k)
        if r:
            raise AssertionError("Faddeev-LeVerrier division is not exact")
        coeffs[n - k] = ck
        for i in range(n):
            bm[i][i] += ck
        m = bm
    return [Fraction(c, den ** (n - j)) for j, c in enumerate(coeffs)]


def poly_eval(coeffs: list, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def rational_eigenvalues(a: list) -> list:
    """All rational eigenvalues of an integer matrix, sorted.

    The characteristic polynomial is monic with integer coefficients,
    so every rational root is an integer dividing the lowest nonzero
    coefficient (after stripping factors of x, which contribute the
    root 0).  By Gershgorin's disc theorem no eigenvalue exceeds the
    largest absolute row sum, so only divisors up to that bound are
    tried.
    """
    ints = []
    for c in char_poly(a):
        if c.denominator != 1:
            raise ValueError("matrix is not integral")
        ints.append(c.numerator)
    low = next(i for i, c in enumerate(ints) if c != 0)
    roots = {0} if low else set()
    const = ints[low]
    bound = max((sum(abs(x) for x in row) for row in a), default=0)
    for d in range(1, min(abs(const), int(bound)) + 1):
        if const % d == 0:
            roots.update(r for r in (d, -d) if poly_eval(ints, r) == 0)
    return sorted(roots)


def dot(u: list, v: list) -> Fraction:
    return sum((a * b for a, b in zip(u, v) if a and b), F0)


def gram_schmidt_orthogonal(vectors: list) -> list:
    """Pairwise-orthogonal spanning set, rational entries, no normalizing.

    Unit lengths would force square roots out of the rationals, so the
    output is orthogonal only; callers track squared norms.
    """
    basis = []
    for v in vectors:
        w = list(map(Fraction, v))
        for b in basis:
            coeff = dot(w, b) / dot(b, b)
            if coeff:
                w = [wi - coeff * bi for wi, bi in zip(w, b)]
        if any(w):
            basis.append(w)
    return basis
