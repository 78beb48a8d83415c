"""Multi-index bookkeeping for bigraded form coefficients.

A (p,q)-form on a complex n-fold with a fixed (1,0)-coframe phi^1..phi^n is
stored as one coefficient channel per pair (I, J) of strictly increasing
multi-indices, I of length p over the holomorphic generators and J of length
q over the conjugate ones.  The represented form is

    sum_{I,J} c[(I,J)] * phi^I ^ phibar^J,

with phi^I = phi^{i_1} ^ ... ^ phi^{i_p} in increasing order.  Channels are
ordered lexicographically, holomorphic index first.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

DIM = 3    # the complex dimension n of every model; the tables take any n


def degree_dims(n: int, p: int, q: int) -> int:
    """Number of coefficient channels of a (p,q)-form."""
    if not (0 <= p <= n and 0 <= q <= n):
        return 0
    return comb(n, p) * comb(n, q)


@lru_cache(maxsize=None)
def basis(n: int, p: int, q: int):
    """Ordered tuple of (I, J) channel labels for bidegree (p, q)."""
    if not (0 <= p <= n and 0 <= q <= n):
        return ()
    return tuple(
        (I, J)
        for I in combinations(range(1, n + 1), p)
        for J in combinations(range(1, n + 1), q)
    )


@lru_cache(maxsize=None)
def channel_index(n: int, p: int, q: int):
    """Mapping (I, J) -> channel position for bidegree (p, q)."""
    return {key: i for i, key in enumerate(basis(n, p, q))}


@lru_cache(maxsize=None)
def subsets(n: int, p: int):
    """(C(n,p), p) array of the 0-based p-subsets of range(n), in
    `combinations` order, for 0 <= p <= n."""
    S = np.array(list(combinations(range(n), p)), dtype=np.intp)
    S.flags.writeable = False
    return S


def merge_sign(a, b):
    """Sign of sorting the concatenation of two increasing multi-indices.

    Returns (sign, merged) with sign = 0 when the indices overlap.
    """
    if set(a) & set(b):
        return 0, None
    merged = tuple(sorted(a + b))
    # count inversions of the concatenation a + b
    inv = 0
    for x in a:
        inv += sum(1 for y in b if y < x)
    return (-1) ** inv, merged


@lru_cache(maxsize=None)
def wedge_table(n, p1, q1, p2, q2):
    """Sparse multiplication table for (p1,q1) ^ (p2,q2).

    Entries are (ch1, ch2, ch_out, sign); the sign already includes the
    factor (-1)**(q1*p2) from moving the conjugate block of the first factor
    past the holomorphic block of the second.
    """
    out = []
    idx_out = channel_index(n, p1 + p2, q1 + q2)
    cross = (-1) ** (q1 * p2)
    for c1, (I1, J1) in enumerate(basis(n, p1, q1)):
        for c2, (I2, J2) in enumerate(basis(n, p2, q2)):
            s_i, I = merge_sign(I1, I2)
            if s_i == 0:
                continue
            s_j, J = merge_sign(J1, J2)
            if s_j == 0:
                continue
            out.append((c1, c2, idx_out[(I, J)], cross * s_i * s_j))
    return tuple(out)


@lru_cache(maxsize=None)
def conjugation(n, p, q):
    """Channel permutation and sign realizing complex conjugation.

    conj(phi^I ^ phibar^J) = (-1)**(p*q) phi^J ^ phibar^I, so the conjugate of
    a (p,q)-form lives in bidegree (q,p); perm[c] is the source channel of
    target channel c.
    """
    src = channel_index(n, p, q)
    perm = np.empty(degree_dims(n, q, p), dtype=np.intp)
    for c_t, (I, J) in enumerate(basis(n, q, p)):
        perm[c_t] = src[(J, I)]
    return perm, (-1) ** (p * q)


@lru_cache(maxsize=None)
def wedge_pairing(n, p, q):
    """Matrix W with W[u, w] = top-channel coefficient of e_u ^ e_w.

    Here e_u runs over the (p,q) basis and e_w over the complementary
    (n-p, n-q) basis; W is square and invertible (a signed permutation).
    """
    d1 = degree_dims(n, p, q)
    d2 = degree_dims(n, n - p, n - q)
    W = np.zeros((d1, d2), dtype=np.complex128)
    for c1, c2, c_out, sign in wedge_table(n, p, q, n - p, n - q):
        assert c_out == 0
        W[c1, c2] = sign
    return W


def top_channel_integral(n: int) -> complex:
    """Integral of the top basis element phi^{1..n} ^ phibar^{1..n}.

    Normalization: the reference volume form (i/2)^n phi^1^phibar^1^...^
    phi^n^phibar^n has total mass 1.  Reordering the product into the basis
    element costs (-1)**(n(n-1)/2).
    """
    sigma = (-1) ** (n * (n - 1) // 2)
    return 1.0 / ((0.5j) ** n * sigma)
