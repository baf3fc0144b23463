"""Packed shape keys: a triangle's sorted squared sides a <= b <= c, or their
ranks, as one int64 of three equal-width fields with a highest, so keys of
one width sort and deduplicate like their triples."""

import numpy as np

from .errors import CostGuardExceeded

# The fewest pending keys `sorted_unique` merges at once, so its memory stays
# a small multiple of the result.
_MERGE_KEYS = 10_000_000
# (row, pair) entries `rank_keys` evaluates per block, masked ones included
# (at least one row against all pairs); it bounds the temporaries.
_BLOCK = 1 << 16


def key_width(top: int) -> int:
    """Bits per field for fields up to `top`. Raises CostGuardExceeded when
    three fields would not fit in an int64."""
    w = max(top.bit_length(), 1)
    if 3 * w > 63:
        raise CostGuardExceeded(f"squared distances up to {top} overflow the packed key")
    return w


def pack_sorted(x, y, z, width: int):
    """The keys of the triples (x, y, z), each sorted before packing."""
    lo = np.minimum(np.minimum(x, y), z)
    hi = np.maximum(np.maximum(x, y), z)
    mid = x + y + z - lo - hi
    return (lo << (2 * width)) | (mid << width) | hi


def unpack(keys: np.ndarray, width: int):
    """The fields (a, b, c) of the keys, a <= b <= c, as new arrays."""
    mask = (1 << width) - 1
    return keys >> (2 * width), (keys >> width) & mask, keys & mask


def nonzero_area(keys: np.ndarray, width: int) -> np.ndarray:
    """Whether each key's squared sides a, b, c bound nonzero area:
    16 area^2 = 4ab - (a + b - c)^2."""
    a, b, c = unpack(keys, width)
    c -= a + b
    return 4 * a * b != c * c


def sorted_unique(arrays) -> np.ndarray:
    """Sorted distinct keys over an iterable of int64 key arrays. Pending
    arrays merge into the result, pending[0], once they hold as many keys as
    it and at least _MERGE_KEYS, so memory stays a small multiple of it."""
    pending, size = [np.empty(0, dtype=np.int64)], 0
    for arr in arrays:
        pending.append(arr)
        size += arr.size
        if size >= max(pending[0].size, _MERGE_KEYS):
            pending, size = [_merge(pending)], 0
    return _merge(pending)


def _merge(arrays: list) -> np.ndarray:
    """Sorted distinct keys of the arrays, which it releases before sorting."""
    arr = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
    arrays.clear()
    arr.sort()
    keep = np.empty(arr.size, dtype=bool)
    keep[:1] = True
    np.not_equal(arr[1:], arr[:-1], out=keep[1:])
    return arr[keep]


def rank_keys(rank: tuple, width: int) -> np.ndarray:
    """Sorted distinct shape keys of all triples i < j < k of a rank table,
    each sorted rank triple packed `width` bits a rank. Rows i are keyed a
    block at a time against the pairs j < k with j past the block's first
    row (those with j <= i masked out), so the temporaries stay at about
    _BLOCK entries, or one row against all pairs."""
    n = len(rank)
    r = np.array(rank, dtype=np.int64).reshape(n, n)
    j, k = np.triu_indices(n, 1)  # all pairs, ordered by j
    jk = r[j, k]
    step = max(1, _BLOCK // max(j.size, 1))
    blocks = []
    for i0 in range(0, n - 2, step):
        i = np.arange(i0, min(i0 + step, n - 2))[:, None]
        s = np.searchsorted(j, i0, side="right")
        rows = r[i0 : i0 + i.size]
        keys = pack_sorted(rows[:, j[s:]], rows[:, k[s:]], jk[s:], width)
        blocks.append(keys[j[s:] > i])
    return sorted_unique(blocks)
