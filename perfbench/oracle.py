"""Expected verdicts for the seeded jobs, computed without branchdyn.

The replay oracle iterates the Collatz map with plain integers.  The
commutant oracle solves A M = M A and A M^T = M^T A for every branch
matrix M as one dense linear system over the n^2 entries of A, exactly
over the rationals, and multiplies the basis matrices pairwise to decide
``abelian``.  Neither shares code or method with the program's
union-find route.
"""

from __future__ import annotations

from fractions import Fraction

import jobs as jobs_mod


def collatz_rows(starts, cap: int) -> list:
    rows = []
    for x in starts:
        seen = {x: 0}
        traj = [x]
        cur = x
        row = (x, -1, 0, 0)
        for _ in range(cap):
            cur = 3 * cur + 1 if cur & 1 else cur >> 1
            if cur in seen:
                i = seen[cur]
                row = (x, i, min(traj[i:]), len(traj) - i)
                break
            seen[cur] = len(traj)
            traj.append(cur)
        rows.append(row)
    return rows


def _nullspace(rows: list, ncols: int) -> list:
    """Basis of {v : r . v = 0 for every row r}, by exact Gauss-Jordan."""
    mat = [[Fraction(v) for v in r] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, pc in enumerate(pivots):
            v[pc] = -mat[row][free]
        basis.append(v)
    return basis


def commutant(spec: dict) -> dict:
    """Dimension and commutativity of the commutant of a closed table."""
    states = sorted(spec["branch"])
    n = len(states)
    pos = {x: i for i, x in enumerate(states)}
    var = lambda r, c: r * n + c
    rows = []
    for b in range(1, spec["k"] + 1):
        fwd = {pos[x]: pos[spec["image"][x]] for x in states if spec["branch"][x] == b}
        inv = {r: c for c, r in fwd.items()}
        for w in range(n):
            for x in range(n):
                # (A M)[w][x] = (M A)[w][x]
                row = [0] * (n * n)
                if x in fwd:
                    row[var(w, fwd[x])] += 1
                if w in inv:
                    row[var(inv[w], x)] -= 1
                rows.append(row)
                # (A M^T)[w][x] = (M^T A)[w][x]
                row = [0] * (n * n)
                if x in inv:
                    row[var(w, inv[x])] += 1
                if w in fwd:
                    row[var(fwd[w], x)] -= 1
                rows.append(row)
    basis = _nullspace([r for r in rows if any(r)], n * n)
    mats = [[v[r * n:(r + 1) * n] for r in range(n)] for v in basis]

    def mul(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)] for i in range(n)]

    abelian = all(mul(a, b) == mul(b, a)
                  for i, a in enumerate(mats) for b in mats[i + 1:])
    return {"dimension": len(basis), "abelian": abelian}


def expected_verdict(job) -> dict:
    if job.expect is not None:
        return job.expect
    if job.kind == "replay":
        rows = collatz_rows(job.args, jobs_mod.REPLAY_CAP)
        return {"orbits": len(rows), "digest": jobs_mod.orbit_digest(rows)}
    if job.kind == "commutant":
        return commutant(job.args)
    raise ValueError(f"no oracle for job {job.id!r}")
