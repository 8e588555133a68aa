"""Scrambled Sobol' points, bit-identical to ``scipy.stats.qmc.Sobol``.

The sequence uses the Joe & Kuo (2008) direction numbers (30 bits) and
Matousek's linear matrix scramble plus digital shift (LMS+shift), drawn
exactly as SciPy draws them, so ``scrambled_sobol(d, n, entropy)`` equals
``qmc.Sobol(d, scramble=True, rng=np.random.default_rng(entropy)).random(n)``
bit for bit without importing SciPy.  The direction-number table is the
file SciPy ships; see ``_sobol_direction_numbers.LICENSE`` for its origin
and licence.  It is loaded once, at import, so that its cost is part of
start-up rather than of the first analysis.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

__all__ = ["MAXDIM", "MAXPOINTS", "scrambled_sobol"]

_BITS = 30
MAXPOINTS = 1 << _BITS  # distinct points a 30-bit sequence holds
with np.load(Path(__file__).with_name("_sobol_direction_numbers.npz")) as _table:
    _POLY = _table["poly"]
    _VINIT = _table["vinit"]
MAXDIM = _POLY.size
_DEGREE = np.frexp(_POLY)[1] - 1  # degree of each primitive polynomial


def _direction_numbers(d: int, m: int) -> np.ndarray:
    """First m columns of the ``(d, 30)`` direction numbers.

    Row 0 is all ones.  Row i starts from the ``s = deg(P_i)`` initial
    values in the table and continues by the Bratley-Fox recurrence
    ``v_j = v_{j-s} ^ XOR_k a_k 2^(k+1) v_{j-1-k}`` (k < s), where ``a_k``
    is bit ``s-1-k`` of the polynomial, so ``a_{s-1} = 1``.  Every term is
    below ``2^30``, so the int64 arithmetic never wraps.  Column j is
    finally scaled by ``2^(29 - j)``.
    """
    poly, deg = _POLY[:d], _DEGREE[:d]
    w = int(deg.max(initial=0))
    # window column c holds lag k + 1 = w - c; ``mult`` is a_k 2^(k+1)
    k = np.arange(w)[::-1]
    bit_k = (poly[:, None] >> np.maximum(deg[:, None] - 1 - k, 0)) & 1
    mult = np.where(k < deg[:, None], bit_k, 0) << (k + 1)
    # w zero columns in front, so every window is a plain slice
    v = np.zeros((d, w + m), dtype=np.int64)
    init = np.arange(m) < deg[:, None]
    cols = min(m, _VINIT.shape[1])
    v[:, w : w + cols] = np.where(init[:, :cols], _VINIT[:d, :cols], 0)
    rows, lag_s = np.arange(d), w - deg
    for j in range(1, m):
        new = np.bitwise_xor.reduce(v[:, j : j + w] * mult, axis=1) ^ v[rows, lag_s + j]
        v[:, w + j] = np.where(init[:, j], v[:, w + j], new)
    v = v[:, w:]
    v[:1] = 1
    return v << (_BITS - 1 - np.arange(m))


def scrambled_sobol(d: int, n: int, entropy) -> np.ndarray:
    """First ``n`` LMS+shift scrambled Sobol' points in ``[0, 1)^d``.

    ``entropy`` seeds the scramble as ``np.random.default_rng(entropy)``
    would seed SciPy's engine.  SciPy spawns a child of the generator it is
    given, so the draws come from that child.
    """
    if d > MAXDIM:
        raise ValueError(f"Maximum supported dimensionality is {MAXDIM}.")
    if n > MAXPOINTS:
        raise ValueError(f"At most 2**{_BITS} distinct points can be generated.")
    # n points in Gray-code order use only the first m direction numbers
    m = max(n - 1, 0).bit_length()
    rng = np.random.default_rng(np.random.SeedSequence(entropy).spawn(1)[0])
    bit = 1 << np.arange(_BITS, dtype=np.int64)
    shift = rng.integers(0, 2, size=(d, _BITS), dtype=np.uint32) @ bit
    ltm = np.tril(rng.integers(0, 2, size=(d, _BITS, _BITS), dtype=np.uint32))
    ltm[:, np.arange(_BITS), np.arange(_BITS)] = 1
    # bits of each direction number, most significant first, as columns
    msb_first = bit[::-1]
    v_bits = (_direction_numbers(d, m)[:, None, :] & msb_first[:, None]) != 0
    # exact mod-2 product: 0/1 entries, so every float sum is an integer <= 30
    scrambled = (ltm.astype(np.float64) @ v_bits).astype(np.int64) & 1
    sv = np.einsum("dpj,p->dj", scrambled, msb_first)
    # the second half of each power-of-two prefix mirrors the first half
    # with the next direction number XORed in
    x = np.empty((1 << m, d), dtype=np.int64)
    x[0] = shift
    for j in range(m):
        x[1 << j : 2 << j] = x[(1 << j) - 1 :: -1] ^ sv[:, j]
    return x[:n] * 2.0**-_BITS
