"""Scrambled Sobol' points, bit-identical to ``scipy.stats.qmc.Sobol``.

The sequence uses the Joe & Kuo (2008) direction numbers (30 bits) and
Matousek's linear matrix scramble plus digital shift (LMS+shift), drawn
exactly as SciPy draws them, so ``scrambled_sobol(d, n, entropy)`` equals
``qmc.Sobol(d, scramble=True, rng=np.random.default_rng(entropy)).random(n)``
bit for bit without importing SciPy.  The direction-number table is the
file SciPy ships; see ``_sobol_direction_numbers.LICENSE`` for its origin
and licence.

The table has 21201 rows, but only its leading rows are read, and of
those only the columns below the rows' largest polynomial degree (9 for
the first 64 rows).  Import reads no table data: ``MAXDIM`` comes from the
header of the ``poly`` member.  The first call reads at least 64 rows and
keeps the bits of their direction numbers, all 30 of each, for the rest of
the process; a call in more dimensions reads the table again, with the
rows at least doubled.
"""

from __future__ import annotations

import zipfile
from pathlib import Path

import numpy as np

__all__ = ["MAXDIM", "MAXPOINTS", "scrambled_sobol"]

_BITS = 30
MAXPOINTS = 1 << _BITS  # distinct points a 30-bit sequence holds
_TABLE = Path(__file__).with_name("_sobol_direction_numbers.npz")
_SKIP = 1 << 16  # bytes a forward skip decompresses at a time
_MIN_ROWS = 64


def _read_header(stream) -> tuple[tuple[int, ...], bool, np.dtype]:
    """``(shape, fortran_order, dtype)`` from the header of an ``.npy``
    stream, which is left at the start of the data."""
    if np.lib.format.read_magic(stream) == (1, 0):
        return np.lib.format.read_array_header_1_0(stream)
    return np.lib.format.read_array_header_2_0(stream)


def _skip(stream, size: int) -> None:
    """Decompress and drop ``size`` bytes, a bounded piece at a time (a
    forward ``seek`` decompresses the whole gap in one read)."""
    while size > 0:
        size -= len(stream.read(min(size, _SKIP)))


def _read_leading(name: str, rows: int, cols: int = 1) -> np.ndarray:
    """``[:rows, :cols]`` of the table's member ``name`` (``[:rows]`` of a
    vector), decompressing no more of it than that block's last entry.

    A matrix is read as stored in Fortran order, as ``vinit`` is: the first
    ``rows`` entries of column j start ``j * shape[0]`` entries into the
    data, so each column's prefix is read and the rest of it skipped.
    """
    with zipfile.ZipFile(_TABLE) as archive, archive.open(name + ".npy") as stream:
        shape, _, dtype = _read_header(stream)
        block = np.empty((cols, rows), dtype=dtype)
        for j in range(cols):
            if j:
                _skip(stream, (shape[0] - rows) * dtype.itemsize)
            block[j] = np.frombuffer(stream.read(rows * dtype.itemsize), dtype=dtype, count=rows)
    return block.T if len(shape) > 1 else block[0]


with zipfile.ZipFile(_TABLE) as _archive, _archive.open("poly.npy") as _stream:
    (MAXDIM,), _, _ = _read_header(_stream)
del _archive, _stream

def _direction_numbers(d: int) -> np.ndarray:
    """The ``(d, 30)`` direction numbers of the first ``d`` dimensions.

    Row 0 is all ones.  Row i starts from the ``s = deg(P_i)`` initial
    values in the table and continues by the Bratley-Fox recurrence
    ``v_j = v_{j-s} ^ XOR_k a_k 2^(k+1) v_{j-1-k}`` (k < s), where ``a_k``
    is bit ``s-1-k`` of the polynomial, so ``a_{s-1} = 1``.  Every term is
    below ``2^30``, so the int64 arithmetic never wraps.  Column j is
    finally scaled by ``2^(29 - j)``.  Only the table's first ``d`` rows,
    and of those only the columns below their largest degree, are read.
    """
    poly = _read_leading("poly", d)
    deg = np.frexp(poly)[1] - 1  # degree of each primitive polynomial
    w = int(deg.max(initial=0))
    # row i has deg(P_i) initial values, the rest come from the recurrence
    vinit = _read_leading("vinit", d, w)
    # window column c holds lag k + 1 = w - c; ``mult`` is a_k 2^(k+1)
    k = np.arange(w)[::-1]
    bit_k = (poly[:, None] >> np.maximum(deg[:, None] - 1 - k, 0)) & 1
    mult = np.where(k < deg[:, None], bit_k, 0) << (k + 1)
    # w zero columns in front, so every window is a plain slice
    v = np.zeros((d, w + _BITS), dtype=np.int64)
    init = np.arange(_BITS) < deg[:, None]
    cols = vinit.shape[1]
    v[:, w : w + cols] = np.where(init[:, :cols], vinit, 0)
    rows, lag_s = np.arange(d), w - deg
    for j in range(1, _BITS):
        new = np.bitwise_xor.reduce(v[:, j : j + w] * mult, axis=1) ^ v[rows, lag_s + j]
        v[:, w + j] = np.where(init[:, j], v[:, w + j], new)
    v = v[:, w:]
    v[:1] = 1
    return v << (_BITS - 1 - np.arange(_BITS))


# the bits of the direction numbers of the first D dimensions, shape
# (D, 30 bits, 30 columns), most significant bit first; read-only, and
# replaced, never mutated, so that concurrent callers each see a whole table
_bits = np.zeros((0, _BITS, _BITS), dtype=bool)


def _direction_bits(d: int, m: int) -> np.ndarray:
    """The bits of the first m direction numbers of each of d dimensions,
    shape (d, 30, m), most significant first.

    A slice of ``_bits``, which holds at least 64 dimensions; a call that
    needs more reads the table and computes the bits once, for at least
    twice as many.  The direction numbers of fewer dimensions, or of fewer
    columns, are a prefix of them, so no later call that needs less reads
    the table again.
    """
    global _bits
    bits = _bits
    if d > bits.shape[0]:
        rows = min(max(d, _MIN_ROWS, 2 * bits.shape[0]), MAXDIM)
        # each number as 4 big-endian bytes, of which the low 30 bits count
        octets = _direction_numbers(rows).astype(">u4").view(np.uint8).reshape(rows, _BITS, 4)
        bits = np.unpackbits(octets, axis=2)[:, :, 32 - _BITS :].transpose(0, 2, 1).view(bool)
        bits.flags.writeable = False
        _bits = bits
    return bits[:d, :, :m]


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
    # exact mod-2 product: 0/1 entries, so every float sum is an integer <= 30
    scrambled = (ltm.astype(np.float64) @ _direction_bits(d, m)).astype(np.int64) & 1
    sv = np.einsum("dpj,p->dj", scrambled, bit[::-1])
    # the second half of each power-of-two prefix mirrors the first half
    # with the next direction number XORed in
    x = np.empty((1 << m, d), dtype=np.int64)
    x[0] = shift
    for j in range(m):
        x[1 << j : 2 << j] = x[(1 << j) - 1 :: -1] ^ sv[:, j]
    return x[:n] * 2.0**-_BITS
