"""Per-table code-generated row decoders (M2 hot path).

A generic decode walks a per-cell closure list; at millions of rows the
Python call/loop overhead dominates actual byte work (~2.7 us/cell
measured).  This module emits a specialized Python function per
(TableMapDef, op) with the column loop fully unrolled and the common
column types inlined; rare types call their compiled closure from the
generated code, so semantics are identical by construction.  It is the
one row kernel of ``BinlogDecoder``'s typed modes, and
``tests/test_protocol.py`` checks it against ``parse_rows_event``.

Generated function shape (op="update"):

    def decode_rows(data, off, end, cols, bcols, readers):
        out_0, ..., out_{n-1} = cols        # one list per source column
        bout_k, ... = (bcols[k], ...)       # before-image key columns
        n_rows = 0
        while off < end:
            nb0 = data[off+0]; ...          # null bitmap bytes
            off += nbl
            # key column: inline read or readers[i] call; else skip
            ...                             # after image: read all
            n_rows += 1
        return n_rows, off                  # callers raise unless off == end

Skips are inline, their widths :func:`decode.cell_layout`'s.  The
lake's fused decode (``BinlogDecoder.flat_combined``) does not run these
kernels: it locates cells with numpy over every event at once.
"""

from __future__ import annotations

from typing import Callable

from .constants import INTEGER_TYPES, ColumnType, collation_codec
from .decode import DecodePlan, cell_layout
from .model import ColumnDef


def _inline_read(col: ColumnDef, idx: int) -> str | None:
    """Inline source for one cell read appending to ``out_{idx}``;
    None -> use the closure fallback."""
    t = col.type
    if t in INTEGER_TYPES and not (t is ColumnType.LONGLONG and not col.signed):
        w = cell_layout(col)[0]
        sign = "True" if col.signed else "False"
        return (
            f"out_{idx}.append(int.from_bytes(data[off:off+{w}], 'little', signed={sign})); "
            f"off += {w}"
        )
    if t in (ColumnType.VARCHAR, ColumnType.STRING) and collation_codec(col.charset):
        codec = collation_codec(col.charset)
        # utf-8 text: append RAW BYTES — the Arrow build casts binary ->
        # string, validating utf-8 once in C instead of a per-cell
        # Python decode + re-encode round-trip (the decode hot path's
        # single largest cost, measured)
        cell = f"bytes(data[off:off+_l])" if codec == "utf-8" else f"str(data[off:off+_l], '{codec}')"
        if col.max_length > 255:
            return (
                f"_l = data[off] | (data[off+1] << 8); off += 2; "
                f"out_{idx}.append({cell}); off += _l"
            )
        return (
            f"_l = data[off]; off += 1; "
            f"out_{idx}.append({cell}); off += _l"
        )
    if t is ColumnType.BLOB and collation_codec(col.charset):
        codec = collation_codec(col.charset)
        cell = f"bytes(data[off:off+_l])" if codec == "utf-8" else f"str(data[off:off+_l], '{codec}')"
        lb = col.length_bytes
        return (
            f"_l = int.from_bytes(data[off:off+{lb}], 'little'); off += {lb}; "
            f"out_{idx}.append({cell}); off += _l"
        )
    if t is ColumnType.DOUBLE:
        return f"out_{idx}.append(_unpack_d(data, off)[0]); off += 8"
    return None


def _inline_skip(col: ColumnDef) -> str:
    w, lb = cell_layout(col)
    if not lb:
        return f"off += {w}"
    if lb == 1:
        return "off += 1 + data[off]"
    if lb == 2:
        return "off += 2 + (data[off] | (data[off+1] << 8))"
    return f"off += {lb} + int.from_bytes(data[off:off+{lb}], 'little')"


def compile_flat_decoder(plan: DecodePlan, op: str, key_src: frozenset[int]) -> Callable:
    """Build decode_rows(data, off, end, cols, bcols, readers) ->
    (n_rows, off) for one (table, op) pair (one list per
    source column in ``cols``/``bcols``), serving both typed decode modes:
    ``key_src`` is flat mode's merge key, changefeed mode's every column.

    - insert: decode the full after image into ``cols``
    - update: decode ``key_src`` columns of the before image into
      ``bcols``, byte-skip the rest, then the after image into ``cols``
    - delete: decode ``key_src`` columns of the before image into
      ``cols``, skip the rest (appending None)
    """
    cols = plan.table_map.columns
    n = len(cols)
    nbl = (n + 7) >> 3

    def null_test(i: int) -> str:
        return f"(nb{i >> 3} & {1 << (i & 7)})"

    def unpack(prefix: str, src: str, idx: list[int]) -> str:
        names = ", ".join(f"{prefix}_{i}" for i in idx) + ("," if len(idx) == 1 else "")
        return f" {names} = (" + ", ".join(f"{src}[{i}]" for i in idx) + ("," if len(idx) == 1 else "") + ")"

    lines = [
        "def decode_rows(data, off, end, cols, bcols, readers):",
        " import struct",
        " _unpack_d = struct.Struct('<d').unpack_from",
    ]
    lines.append(" " + ", ".join(f"out_{i}" for i in range(n)) + ("," if n == 1 else "") + " = cols")
    if op == "update" and key_src:
        lines.append(unpack("bout", "bcols", sorted(key_src)))
    lines.append(" n_rows = 0")
    lines.append(" while off < end:")

    def emit_bitmap(indent: str) -> None:
        for b in range(nbl):
            lines.append(f"{indent}nb{b} = data[off+{b}]")
        lines.append(f"{indent}off += {nbl}")

    def emit_read(indent: str, i: int, c: ColumnDef, out: str) -> None:
        read = _inline_read(c, i)
        if read is None:
            lines.append(
                f"{indent}if {null_test(i)}: {out}_{i}.append(None)\n"
                f"{indent}else:\n"
                f"{indent} _v, off = readers[{i}](data, off)\n"
                f"{indent} {out}_{i}.append(_v)"
            )
        else:
            lines.append(
                f"{indent}if {null_test(i)}: {out}_{i}.append(None)\n"
                f"{indent}else: {read.replace(f'out_{i}.append', f'{out}_{i}.append')}"
            )

    def emit_skip(indent: str, i: int, c: ColumnDef) -> None:
        lines.append(f"{indent}if not {null_test(i)}: {_inline_skip(c)}")

    indent = "  "
    if op == "update":
        # before image: decode merge-key columns, skip everything else
        emit_bitmap(indent)
        for i, c in enumerate(cols):
            if i in key_src:
                emit_read(indent, i, c, "bout")
            else:
                emit_skip(indent, i, c)
    emit_bitmap(indent)
    for i, c in enumerate(cols):
        if op == "delete" and i not in key_src:
            emit_skip(indent, i, c)
            lines.append(f"{indent}out_{i}.append(None)")
            continue
        emit_read(indent, i, c, "out")
    lines.append(f"{indent}n_rows += 1")
    lines.append(" return n_rows, off")

    src = "\n".join(lines)
    ns: dict = {}
    exec(compile(src, f"<codegen:{plan.table_map.table_name}:{op}>", "exec"), ns)
    fn = ns["decode_rows"]
    fn.__codegen_source__ = src  # for debugging/inspection
    return fn


def compile_flat_decoders(plan: DecodePlan, key_src: frozenset[int]) -> dict[str, Callable]:
    """The layout's kernels, op -> kernel for op in insert/update/delete."""
    return {op: compile_flat_decoder(plan, op, key_src) for op in ("insert", "update", "delete")}
