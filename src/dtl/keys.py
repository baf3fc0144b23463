"""Packed shape keys: a triangle's sorted squared sides a <= b <= c, or their
ranks, as one int64 of three equal-width fields with a highest, so keys of
one width sort and deduplicate like their triples. `rank_keys` keys a point
set's rank table one row at a time and merges the rows once."""

import numpy as np

from .errors import CostGuardExceeded


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


def merge(arrays: list) -> np.ndarray:
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
    each sorted rank triple packed `width` bits a rank. Row i is keyed
    against the pairs j < k with j > i, a suffix of the pairs ordered by j,
    and the rows merge once."""
    n = len(rank)
    r = np.array(rank, dtype=np.int64).reshape(n, n)
    j, k = np.triu_indices(n, 1)  # all pairs, ordered by j
    jk = r[j, k]
    rows = [np.empty(0, dtype=np.int64)]
    for i, s in enumerate(np.searchsorted(j, np.arange(n - 2), side="right")):
        rows.append(pack_sorted(r[i, j[s:]], r[i, k[s:]], jk[s:], width))
    return merge(rows)
