"""Test oracle: singular values by one-sided Jacobi SVD.

Independent of ``spdcl.nucnorm``: it never forms a Gram matrix and uses no
LAPACK eigensolver, so the library's Gram-eigenvalue route is checked
against it.  Intended for small test instances only.
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


def jacobi_singular_values(matrix) -> np.ndarray:
    """Singular values, non-increasing, by one-sided Jacobi orthogonalization of the columns.

    Sweeps run until the largest relative column-pair inner product drops
    below ``JACOBI_TOL`` (at most ``JACOBI_MAX_SWEEPS`` sweeps).  A pair in
    which either column's squared norm is at most eps**2 times the sweep's
    largest counts as converged: a rank-deficient matrix leaves columns of
    rounding size, whose direction no rotation settles.
    """
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.size > ORACLE_MAX_ELEMENTS:
        raise ValueError(
            f"oracle needs a 2-D matrix with rows*cols <= {ORACLE_MAX_ELEMENTS}, got {arr.shape}"
        )
    work = arr.copy() if arr.shape[0] >= arr.shape[1] else arr.T.copy()
    rounds = _disjoint_rotation_rounds(work.shape[1])
    for _ in range(JACOBI_MAX_SWEEPS):
        floor = _EPS2 * np.einsum("ij,ij->j", work, work).max(initial=0.0)
        off = 0.0
        for p_idx, q_idx in rounds:
            cols_p = work[:, p_idx]
            cols_q = work[:, q_idx]
            a = np.einsum("ij,ij->j", cols_p, cols_p)
            b = np.einsum("ij,ij->j", cols_q, cols_q)
            c = np.einsum("ij,ij->j", cols_p, cols_q)
            # A rank-deficient matrix leaves columns of rounding size: a * b
            # can underflow to zero and zeta * zeta overflow, so the roots are
            # taken first and the rotation uses hypot.  A pair with a column
            # at or below the floor (a zero column too) is left alone.
            live = np.minimum(a, b) > floor
            scale = np.sqrt(a) * np.sqrt(b)
            if live.all():
                rel = np.abs(c) / scale
            else:
                rel = np.divide(np.abs(c), scale, out=np.zeros_like(c), where=live)
            off = max(off, float(rel.max()))
            spin = rel > JACOBI_TOL
            if not spin.all():
                if not spin.any():
                    continue
                p_idx, q_idx, a, b, c = p_idx[spin], q_idx[spin], a[spin], b[spin], c[spin]
                cols_p, cols_q = cols_p[:, spin], cols_q[:, spin]
            zeta = (b - a) / (2.0 * c)
            t = np.where(
                zeta == 0.0,
                1.0,
                np.sign(zeta) / (np.abs(zeta) + np.hypot(1.0, zeta)),
            )
            cs = 1.0 / np.sqrt(1.0 + t * t)
            sn = cs * t
            work[:, p_idx] = cs * cols_p - sn * cols_q
            work[:, q_idx] = sn * cols_p + cs * cols_q
        if off <= JACOBI_TOL:
            break
    sv = np.sqrt(np.einsum("ij,ij->j", work, work))
    sv.sort()
    return sv[::-1]


def nuclear_norm_oracle(matrix) -> float:
    """Nuclear norm by the one-sided Jacobi route."""
    return float(jacobi_singular_values(matrix).sum())
