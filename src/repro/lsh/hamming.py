"""Hamming-distance utilities over bit matrices.

These are the software counterparts of the TCAM match operation: packed
XOR + popcount for speed on the GPU-baseline side, and plain bit-matrix
distances for cross-checking the CMA search results.

The multi-query serving kernel works in the TCAM's own layout.  A TCAM
compares one query against every stored row in one threshold match, a
bit column at a time across all rows; :func:`hamming_matrix_packed`
does the same over ``uint64`` words (:func:`pack_bits_u64`): each query
word XORs against that word column of every item and the popcounts
accumulate into one (Q, N) ``uint16`` distance array.  An item block
stored column-major (``np.asfortranarray``, as the LSH index keeps it)
makes every column one contiguous scan.  Distances are exact integer
counts, so the packed kernel agrees with the byte-table reference
:func:`pairwise_hamming` bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pack_bits",
    "pack_bits_u64",
    "unpack_bits",
    "hamming_distance",
    "pairwise_hamming",
    "hamming_matrix",
    "hamming_matrix_packed",
]


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a (n, b) 0/1 matrix into (n, ceil(b/8)) uint8 rows.

    Any value other than 0 or 1 raises ``ValueError``.  The check reads
    the input itself, before the ``uint8`` cast that would wrap 256 to 0
    or truncate 0.5 to 0 (NaN fails the min/max test too).
    """
    matrix = np.atleast_2d(np.asarray(bits))
    if matrix.size and not (matrix.min() >= 0 and matrix.max() <= 1):
        raise ValueError("bit matrix must contain only 0/1")
    as_bytes = matrix.astype(np.uint8, copy=False)
    if matrix.dtype.kind not in "biu" and (as_bytes != matrix).any():
        raise ValueError("bit matrix must contain only 0/1")
    return np.packbits(as_bytes, axis=1)


def unpack_bits(packed: np.ndarray, num_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`, trimming pad bits to *num_bits*."""
    matrix = np.atleast_2d(np.asarray(packed, dtype=np.uint8))
    unpacked = np.unpackbits(matrix, axis=1)
    if num_bits > unpacked.shape[1]:
        raise ValueError(f"cannot recover {num_bits} bits from {unpacked.shape[1]}")
    return unpacked[:, :num_bits]


def pack_bits_u64(bits: np.ndarray) -> np.ndarray:
    """Pack a (n, b) 0/1 matrix into (n, ceil(b/64)) uint64 words.

    The word layout is byte-compatible with :func:`pack_bits` (big-endian
    bit order within each byte) widened to 64-bit lanes, so XOR+popcount
    over these words counts exactly the same mismatching bits.
    """
    packed8 = pack_bits(bits)
    num_rows, num_bytes = packed8.shape
    pad = (-num_bytes) % 8
    if pad:
        packed8 = np.concatenate(
            [packed8, np.zeros((num_rows, pad), dtype=np.uint8)], axis=1
        )
    return packed8.view(np.uint64)


_POPCOUNT_TABLE = np.array([bin(value).count("1") for value in range(256)], dtype=np.uint8)

#: Widest word block whose distances still fit ``uint16`` (65,472 bits).
_MAX_PACKED_WORDS = np.iinfo(np.uint16).max // 64


def hamming_matrix_packed(
    query_words: np.ndarray, item_words: np.ndarray
) -> np.ndarray:
    """(Q, N) ``uint16`` Hamming distances between two :func:`pack_bits_u64` blocks.

    One word column at a time, as the TCAM matches a bit column across
    every row: each query's word XORs against that word of every item,
    and ``np.bitwise_count`` adds the mismatches into one (Q, N) array.
    No (Q, N, words) temporary is built.  ``item_words`` may be C- or
    Fortran-ordered; column-major (what the LSH index stores) makes each
    column a contiguous scan.  Distances are exact integers.
    """
    queries = np.atleast_2d(np.asarray(query_words, dtype=np.uint64))
    items = np.atleast_2d(np.asarray(item_words, dtype=np.uint64))
    if queries.shape[1] != items.shape[1]:
        raise ValueError(
            f"word widths differ: {queries.shape[1]} vs {items.shape[1]}"
        )
    if queries.shape[1] > _MAX_PACKED_WORDS:
        raise ValueError(
            f"{queries.shape[1]} words overflow uint16 distances "
            f"(at most {_MAX_PACKED_WORDS})"
        )
    out = np.zeros((queries.shape[0], items.shape[0]), dtype=np.uint16)
    for query_word, item_column in zip(queries.T[:, :, None], items.T):
        out += np.bitwise_count(query_word ^ item_column)
    return out


def hamming_distance(bits_a: np.ndarray, bits_b: np.ndarray) -> int:
    """Hamming distance between two equal-length 0/1 vectors."""
    first = np.asarray(bits_a, dtype=np.uint8)
    second = np.asarray(bits_b, dtype=np.uint8)
    if first.shape != second.shape:
        raise ValueError(f"shape mismatch: {first.shape} vs {second.shape}")
    return int((first != second).sum())


def pairwise_hamming(query_bits: np.ndarray, item_bits: np.ndarray) -> np.ndarray:
    """Distances from one query to each row of a bit matrix (XOR+popcount)."""
    query_packed = pack_bits(np.asarray(query_bits).reshape(1, -1))
    items_packed = pack_bits(item_bits)
    xored = np.bitwise_xor(items_packed, query_packed)
    return _POPCOUNT_TABLE[xored].sum(axis=1).astype(np.int64)


def hamming_matrix(bits_a: np.ndarray, bits_b: np.ndarray) -> np.ndarray:
    """Full (n, m) distance matrix between two bit matrices."""
    first = np.atleast_2d(np.asarray(bits_a, dtype=np.uint8))
    second = np.atleast_2d(np.asarray(bits_b, dtype=np.uint8))
    if first.shape[1] != second.shape[1]:
        raise ValueError("bit widths differ")
    # (n, 1, b) != (1, m, b) -> (n, m, b); fine for the table sizes used here.
    return (first[:, None, :] != second[None, :, :]).sum(axis=2).astype(np.int64)
