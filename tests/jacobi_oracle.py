"""Test oracle: singular values by one-sided Jacobi SVD.

Independent of ``spdcl.nucnorm``: it never forms a Gram matrix and uses no
LAPACK eigensolver, so the library's Gram-eigenvalue route is checked
against it.  Intended for small test instances only.

Matrices are orthogonalized as a stack: each is made tall (the transpose of
a wide one has the same singular values), the stack groups them by column
count, and zero rows pad each group to its tallest matrix, which changes no
singular value.  Every rotation round then runs once for the whole group.
One matrix is a stack of one.
"""

import numpy as np

# Stop once every column pair is orthogonal to this relative level, never
# exceeding the sweep cap.
JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100
_EPS2 = np.finfo(np.float64).eps ** 2

ORACLE_MAX_ELEMENTS = 10_000


def _disjoint_rotation_rounds(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    # Round-robin schedule: n-1 rounds, each pairing the columns into
    # disjoint couples so a whole round can be rotated in one vector op.
    slots = list(range(n)) + ([-1] if n % 2 else [])
    m = len(slots)
    rounds = []
    for _ in range(m - 1):
        left = [slots[i] for i in range(m // 2)]
        right = [slots[m - 1 - i] for i in range(m // 2)]
        pairs = [(min(a, b), max(a, b)) for a, b in zip(left, right) if a != -1 and b != -1]
        if pairs:
            p, q = zip(*pairs)
            rounds.append((np.array(p), np.array(q)))
        slots = [slots[0], slots[-1]] + slots[1:-1]
    return rounds


def _sweep(work: np.ndarray, rounds) -> np.ndarray:
    """One sweep over a (matrices, rows, cols) stack, in place; each matrix's largest relative pair product."""
    floor = _EPS2 * np.einsum("bij,bij->bj", work, work).max(axis=1, initial=0.0)[:, None]
    off = np.zeros(work.shape[0])
    for p_idx, q_idx in rounds:
        cols_p = work[:, :, p_idx]
        cols_q = work[:, :, q_idx]
        a = np.einsum("bij,bij->bj", cols_p, cols_p)
        b = np.einsum("bij,bij->bj", cols_q, cols_q)
        c = np.einsum("bij,bij->bj", cols_p, cols_q)
        # A rank-deficient matrix leaves columns of rounding size: a * b
        # can underflow to zero and zeta * zeta overflow, so the roots are
        # taken first and the rotation uses hypot.  A pair with a column
        # at or below its matrix's floor (a zero column too) is left alone.
        live = np.minimum(a, b) > floor
        scale = np.sqrt(a) * np.sqrt(b)
        if live.all():
            rel = np.abs(c) / scale
        else:
            rel = np.divide(np.abs(c), scale, out=np.zeros_like(c), where=live)
        np.maximum(off, rel.max(axis=1), out=off)
        mat, pair = np.nonzero(rel > JACOBI_TOL)
        if not mat.size:
            continue
        a, b, c = a[mat, pair], b[mat, pair], c[mat, pair]
        zeta = (b - a) / (2.0 * c)
        t = np.where(
            zeta == 0.0,
            1.0,
            np.sign(zeta) / (np.abs(zeta) + np.hypot(1.0, zeta)),
        )
        cs = (1.0 / np.sqrt(1.0 + t * t))[:, None]
        sn = cs * t[:, None]
        p_col, q_col = p_idx[pair], q_idx[pair]
        # Pairs within a round are disjoint, so no column is written twice.
        col_p = cols_p[mat, :, pair]
        col_q = cols_q[mat, :, pair]
        work[mat, :, p_col] = cs * col_p - sn * col_q
        work[mat, :, q_col] = sn * col_p + cs * col_q
    return off


def stacked_singular_values(matrices) -> list[np.ndarray]:
    """Each matrix's singular values, non-increasing, by one-sided Jacobi orthogonalization of the columns.

    A matrix's sweeps run until the largest relative column-pair inner
    product drops below ``JACOBI_TOL`` (at most ``JACOBI_MAX_SWEEPS``
    sweeps); a converged matrix leaves the stack.  A pair in which either
    column's squared norm is at most eps**2 times the sweep's largest in
    that matrix counts as converged: a rank-deficient matrix leaves columns
    of rounding size, whose direction no rotation settles.
    """
    talls = []
    for matrix in matrices:
        arr = np.asarray(matrix, dtype=np.float64)
        if arr.ndim != 2 or arr.size > ORACLE_MAX_ELEMENTS:
            raise ValueError(
                f"oracle needs a 2-D matrix with rows*cols <= {ORACLE_MAX_ELEMENTS}, got {arr.shape}"
            )
        talls.append(arr if arr.shape[0] >= arr.shape[1] else arr.T)
    out: list[np.ndarray] = [None] * len(talls)
    for n in sorted({tall.shape[1] for tall in talls}):
        members = [i for i, tall in enumerate(talls) if tall.shape[1] == n]
        work = np.zeros((len(members), max(talls[i].shape[0] for i in members), n))
        for slot, i in enumerate(members):
            work[slot, : talls[i].shape[0]] = talls[i]
        rounds = _disjoint_rotation_rounds(n)
        active = np.arange(len(members))
        for _ in range(JACOBI_MAX_SWEEPS):
            stack = work[active]
            off = _sweep(stack, rounds)
            work[active] = stack
            active = active[off > JACOBI_TOL]
            if not active.size:
                break
        sv = np.sqrt(np.einsum("bij,bij->bj", work, work))
        sv.sort(axis=1)
        for slot, i in enumerate(members):
            out[i] = sv[slot, ::-1]
    return out


def jacobi_singular_values(matrix) -> np.ndarray:
    """Singular values of one matrix, non-increasing: its stack of one."""
    return stacked_singular_values([matrix])[0]


def nuclear_norm_oracle(matrix) -> float:
    """Nuclear norm by the one-sided Jacobi route."""
    return float(jacobi_singular_values(matrix).sum())
