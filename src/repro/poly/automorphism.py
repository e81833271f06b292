"""Automorphisms of R_Q = Z_Q[x]/(x^N + 1) (Sec. 2.2.1, Sec. 5.1).

For odd k, the ring automorphism sigma_k maps x -> x^k:

    sigma_k(a): a_i  ->  (-1)^s * a_i at position (i*k mod N),
    s = 0 if i*k mod 2N < N else 1.

There are N automorphisms (sigma_k and sigma_{-k} for each positive odd
k < N; -k is represented as 2N - k).

Two views are provided:

- ``automorphism_coeff``: the exact coefficient-domain permutation+sign;
- ``automorphism_ntt_permutation``: in the (natural-order) NTT domain the
  automorphism is a pure index permutation j -> j' with
  ``2j'+1 = k*(2j+1) mod 2N`` — this is what the hardware applies.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def valid_automorphism_exponents(n: int) -> list[int]:
    """All odd exponents k in [1, 2N) — the N members of the Galois group."""
    return [k for k in range(1, 2 * n) if k % 2 == 1]


def _check_exponent(n: int, k: int) -> int:
    k %= 2 * n
    if k % 2 == 0:
        raise ValueError(f"automorphism exponent must be odd, got {k}")
    return k


@lru_cache(maxsize=None)
def _coeff_permutation(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(destination index, sign) arrays for sigma_k in coefficient form."""
    dest = np.empty(n, dtype=np.int64)
    negate = np.empty(n, dtype=bool)
    for i in range(n):
        ik = i * k
        dest[i] = ik % n
        negate[i] = (ik % (2 * n)) >= n
    return dest, negate


def automorphism_coeff(coeffs: np.ndarray, k: int, q: int) -> np.ndarray:
    """Apply sigma_k to a coefficient-domain residue polynomial mod q."""
    coeffs = np.asarray(coeffs, dtype=np.uint64)
    n = coeffs.shape[0]
    k = _check_exponent(n, k)
    dest, negate = _coeff_permutation(n, k)
    out = np.empty_like(coeffs)
    values = coeffs.copy()
    values[negate] = (np.uint64(q) - values[negate]) % np.uint64(q)
    out[dest] = values
    return out


def automorphism_coeff_rows(matrix: np.ndarray, k: int, q_col: np.ndarray) -> np.ndarray:
    """Batched :func:`automorphism_coeff`: sigma_k on every row of an (L, N)
    residue matrix at once, with ``q_col`` the (L, 1) per-row modulus column."""
    matrix = np.asarray(matrix, dtype=np.uint64)
    n = matrix.shape[1]
    k = _check_exponent(n, k)
    dest, negate = _coeff_permutation(n, k)
    values = matrix.copy()
    values[:, negate] = (q_col - values[:, negate]) % q_col
    out = np.empty_like(values)
    out[:, dest] = values
    return out


@lru_cache(maxsize=None)
def automorphism_ntt_permutation(n: int, k: int) -> np.ndarray:
    """Index permutation ``perm`` s.t. ``NTT(sigma_k(a)) = NTT(a)[perm]``.

    Slot j of a natural-order negacyclic NTT holds the evaluation at
    psi^(2j+1).  sigma_k(a)(psi^(2j+1)) = a(psi^(k*(2j+1))), so slot j reads
    from slot j' with 2j'+1 = k*(2j+1) mod 2N.
    """
    k = _check_exponent(n, k)
    perm = np.empty(n, dtype=np.int64)
    for j in range(n):
        perm[j] = ((k * (2 * j + 1)) % (2 * n) - 1) // 2
    return perm


def automorphism_ntt(evals: np.ndarray, k: int) -> np.ndarray:
    """Apply sigma_k to an NTT-domain residue polynomial (a pure gather)."""
    evals = np.asarray(evals)
    perm = automorphism_ntt_permutation(evals.shape[0], k)
    return evals[perm]

