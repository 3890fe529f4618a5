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
    below ``JACOBI_TOL`` (at most ``JACOBI_MAX_SWEEPS`` sweeps).
    """
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.size > ORACLE_MAX_ELEMENTS:
        raise ValueError(
            f"oracle needs a 2-D matrix with rows*cols <= {ORACLE_MAX_ELEMENTS}, got {arr.shape}"
        )
    work = arr.copy() if arr.shape[0] >= arr.shape[1] else arr.T.copy()
    rounds = _disjoint_rotation_rounds(work.shape[1])
    for _ in range(JACOBI_MAX_SWEEPS):
        off = 0.0
        for p_idx, q_idx in rounds:
            cols_p = work[:, p_idx]
            cols_q = work[:, q_idx]
            a = np.einsum("ij,ij->j", cols_p, cols_p)
            b = np.einsum("ij,ij->j", cols_q, cols_q)
            c = np.einsum("ij,ij->j", cols_p, cols_q)
            live = (a > 0.0) & (b > 0.0)
            rel = np.zeros_like(c)
            rel[live] = np.abs(c[live]) / np.sqrt(a[live] * b[live])
            if rel.size:
                off = max(off, float(rel.max()))
            spin = rel > JACOBI_TOL
            if not spin.any():
                continue
            zeta = (b[spin] - a[spin]) / (2.0 * c[spin])
            t = np.where(
                zeta == 0.0,
                1.0,
                np.sign(zeta) / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta)),
            )
            cs = 1.0 / np.sqrt(1.0 + t * t)
            sn = cs * t
            rot_p = cols_p[:, spin]
            rot_q = cols_q[:, spin]
            work[:, p_idx[spin]] = cs * rot_p - sn * rot_q
            work[:, q_idx[spin]] = sn * rot_p + cs * rot_q
        if off <= JACOBI_TOL:
            break
    sv = np.sqrt(np.einsum("ij,ij->j", work, work))
    sv.sort()
    return sv[::-1]


def nuclear_norm_oracle(matrix) -> float:
    """Nuclear norm by the one-sided Jacobi route."""
    return float(jacobi_singular_values(matrix).sum())
