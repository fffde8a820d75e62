"""Space-filling-curve lake layout: Z-order (Morton) clustering.

Sorting a lake by the Morton interleave of several key columns gives
every one of them partial locality, so per-file min/max ranges stay
narrow on ALL dimensions and multi-predicate scans can prune files —
the standard layout optimization for multi-key workloads (a single-key
sort gives perfect pruning on one column and none on the others).
Reference surface: absent (the reference has no sink at all); this
extends the exactly-once-lake layout family (SURVEY.md §2.7 M7).

The interleave is plain integer bit arithmetic, so the SQL oracle is
the same expression generated term-by-term — exact by construction.

Scale shape: the z-value is a vectorized map stage; the clustering
itself is ONE ``Dataset.sort`` (a range-partitioning all-to-all — the
same cost class as any layout rewrite, run once per compaction, not
per query).  ``compact_lake`` instead orders each partition file on its
own (:func:`zorder_sort_indices`) inside the lake's per-partition merge.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd


def zorder_values(cols: list[np.ndarray], bits: int = 16) -> np.ndarray:
    """Morton interleave of ``len(cols)`` integer arrays, ``bits`` low
    bits each (values are masked to ``bits`` — negative inputs take
    their two's-complement low bits, matching SQL ``x & mask``).
    Bit layout: output bit ``k * ncols + c`` = bit ``k`` of column
    ``c`` — column 0 owns the lowest bit."""
    n = len(cols)
    if not n:
        raise ValueError("zorder_values needs at least one column")
    if n * bits > 63:
        raise ValueError(f"{n} cols x {bits} bits exceeds the int64 z-value")
    mask = np.uint64((1 << bits) - 1)
    z = np.zeros(len(cols[0]), np.uint64)
    one = np.uint64(1)
    for c, x in enumerate(cols):
        if not np.issubdtype(np.asarray(x).dtype, np.integer):
            # a float column (NaN from nullable ints!) would astype to
            # an arbitrary bit pattern — quantize to ints first
            raise ValueError(
                f"zorder_values: column {c} has non-integer dtype "
                f"{np.asarray(x).dtype}; quantize it before interleaving"
            )
        xm = x.astype(np.int64).view(np.uint64) & mask
        for k in range(bits):
            z |= ((xm >> np.uint64(k)) & one) << np.uint64(k * n + c)
    return z.view(np.int64)


def zorder_sort_indices(
    tab: pa.Table, cols: list[str], bits: int, tie_cols: Sequence[str]
) -> pa.Array:
    """Row order of ``tab`` along the Morton curve over ``cols``, equal
    z-values in ``tie_cols`` order (the lake key: unique per file, so
    the order is total and a rerun writes identical bytes)."""
    # Each column is MIN-MAX NORMALIZED into the bits budget per file
    # before interleaving — without this, any column whose range
    # exceeds 2^bits aliases (x & 0xFFFF) and the curve degenerates to
    # ordering by the low bits, destroying the promised min/max
    # pruning.  NULL/NaN map to the column min (sort first,
    # deterministic).  All of this is a PHYSICAL row-order choice only;
    # values are untouched, so no oracle/SQL parity is at stake (unlike
    # add_zorder_key, which refuses NULLs and keeps mask semantics for
    # its SQL twin).
    top = float((1 << bits) - 1)
    quantized = []
    for c in cols:
        x = tab[c].to_numpy(zero_copy_only=False).astype(np.float64)
        finite = np.isfinite(x)
        lo = float(x[finite].min()) if finite.any() else 0.0
        hi = float(x[finite].max()) if finite.any() else 0.0
        x = np.where(finite, x, lo)
        span = hi - lo
        q = (
            ((x - lo) * (top / span)).astype(np.int64)
            if span > 0
            else np.zeros(len(x), np.int64)
        )
        quantized.append(q)
    z = zorder_values(quantized, bits)
    names = ["z", *(f"k{i}" for i in range(len(tie_cols)))]
    keyed = pa.Table.from_arrays([pa.array(z), *(tab[k] for k in tie_cols)], names=names)
    return pc.sort_indices(keyed, sort_keys=[(n, "ascending") for n in names])


def zorder_sql_expr(col_exprs: list[str], bits: int = 16) -> str:
    """The identical interleave as a SQL expression over pre-masked
    integer expressions (generate with the SAME bits/column order)."""
    n = len(col_exprs)
    if n * bits > 63:  # same guard as zorder_values — the twins must
        raise ValueError(  # refuse the same inputs, not silently overflow
            f"{n} cols x {bits} bits exceeds the int64 z-value"
        )
    terms = []
    for c, e in enumerate(col_exprs):
        masked = f"(({e}) & {(1 << bits) - 1})"
        for k in range(bits):
            terms.append(f"((({masked} >> {k}) & 1) << {k * n + c})")
    return " | ".join(terms)


def add_zorder_key(
    ds: rd.Dataset,
    cols: list[str],
    bits: int = 16,
    out_col: str = "zval",
) -> rd.Dataset:
    """Append the Morton key of integer columns ``cols`` (vectorized
    map stage; caller quantizes non-integer dimensions first)."""

    def add_z(tab: pa.Table) -> pa.Table:
        for c in cols:
            if tab[c].null_count:
                # a NULL key would decode to NaN and take an arbitrary
                # int64 bit pattern (the SQL twin yields NULL z) —
                # refuse instead of silently clustering garbage
                raise ValueError(
                    f"add_zorder_key: column {c!r} has NULLs — COALESCE/"
                    "quantize it first (the SQL twin's `x & mask` is NULL)"
                )
        arrs = [tab[c].to_numpy(zero_copy_only=False) for c in cols]
        return tab.append_column(out_col, pa.array(zorder_values(arrs, bits)))

    return ds.map_batches(add_z, batch_format="pyarrow")


def zorder_sort(
    ds: rd.Dataset,
    cols: list[str],
    bits: int = 16,
    keep_key: bool = False,
) -> rd.Dataset:
    """Cluster a dataset by the Z-order curve over ``cols``: after this
    sort, consecutive blocks cover narrow ranges of EVERY column, so a
    partitioned write yields min/max pruning on all of them."""
    out = add_zorder_key(ds, cols, bits).sort("zval")
    if keep_key:
        return out

    def drop(tab: pa.Table) -> pa.Table:
        return tab.drop_columns(["zval"])

    return out.map_batches(drop, batch_format="pyarrow")
