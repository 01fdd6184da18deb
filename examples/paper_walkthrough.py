"""Figure 3 walkthrough: the two-level storage, array by array.

Rebuilds the paper's illustrative setting — a 16x16 matrix divided into
4x4 tiles, ten of them occupied, one showcase tile per format — assigns
the figure's formats explicitly, and prints every storage array the
paper draws: the level-1 ``tilePtr`` / ``tileColIdx`` / ``tileNnz`` and
each format's level-2 payload (packed nibbles shown as hex).

Run:  python examples/paper_walkthrough.py
"""

import numpy as np
import scipy.sparse as sp

from repro.core.storage import TileMatrix
from repro.core.tiling import tile_decompose
from repro.formats import FormatID
from repro.reliability.validation import canonicalize_csr


def build_figure_matrix() -> tuple[sp.csr_matrix, dict]:
    """A 16x16 matrix whose 4x4 tiles each showcase one format."""
    tiles = {
        # (tile_row, tile_col): (local entries, figure format)
        (0, 0): ([(0, 0), (1, 1), (1, 3), (2, 2), (3, 0), (3, 1), (3, 2)], FormatID.CSR),
        (0, 1): ([(1, 0), (2, 2)], FormatID.COO),  # the green tile
        (0, 3): ([(0, 0), (1, 1), (2, 2), (3, 3)], FormatID.ELL),  # yellow
        (1, 1): ([(0, 0), (1, 0), (2, 0), (3, 0), (1, 2), (1, 3)], FormatID.HYB),  # purple
        (1, 2): ([(r, c) for r in range(4) for c in range(4)], FormatID.DNS),  # gray
        (2, 0): ([(2, 0), (2, 1), (2, 2), (2, 3)], FormatID.DNSROW),  # red: row 2 full
        (2, 2): ([(0, 1), (1, 1), (2, 1), (3, 1)], FormatID.DNSCOL),  # pink: col 1 full
        (2, 3): ([(0, 0), (3, 3)], FormatID.COO),
        (3, 1): ([(0, 2), (1, 2), (2, 1), (3, 0)], FormatID.CSR),
        (3, 3): ([(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)], FormatID.CSR),
    }
    rows, cols, vals = [], [], []
    v = 1.0
    for (tr, tc), (entries, _) in sorted(tiles.items()):
        for lr, lc in entries:
            rows.append(tr * 4 + lr)
            cols.append(tc * 4 + lc)
            vals.append(v)
            v += 1.0
    return sp.csr_matrix((vals, (rows, cols)), shape=(16, 16)), tiles


def hexes(arr) -> str:
    return " ".join(f"{b:02x}" for b in np.asarray(arr, dtype=np.uint8))


def main() -> None:
    matrix, tiles = build_figure_matrix()
    ts = tile_decompose(matrix, tile=4)
    # Force the figure's formats (the real selection is calibrated for
    # 16x16 tiles; the 4x4 figure is illustrative).
    key_to_fmt = {k: f for k, (_, f) in tiles.items()}
    formats = np.array(
        [key_to_fmt[(int(r), int(c))] for r, c in zip(ts.tile_rowidx, ts.tile_colidx)],
        dtype=np.uint8,
    )
    tm = TileMatrix.build(ts, formats)
    # The tile matrix is structure; the values are the canonical CSR's.
    operand = canonicalize_csr(matrix)[0]
    tm.validate(operand)
    payloads = tm.payloads(operand.data)
    x = np.ones(16)
    assert np.allclose(tm.to_csr(operand.data) @ x, matrix @ x)

    print("level-1 structure (paper Fig 3, top):")
    print(f"  tilePtr     {ts.tile_ptr.tolist()}")
    print(f"  tileColIdx  {ts.tile_colidx.tolist()}")
    print(f"  tileNnz     {ts.tile_nnz.tolist()}")
    print(f"  formats     {[FormatID(f).name for f in formats]}")

    csr = payloads[FormatID.CSR]
    print("\nCSR tiles:")
    print(f"  csrRowPtr (u8/tile)  {csr.rowptr.tolist()}")
    print(f"  csrColIdx (packed)   {hexes(csr.colidx)}")
    print(f"  csrVal               {csr.val.tolist()}")

    coo = payloads[FormatID.COO]
    print("\nCOO tiles (row nibble | col nibble):")
    print(f"  cooRowCol  {hexes(coo.rowcol)}")
    print(f"  cooVal     {coo.val.tolist()}")

    ell = payloads[FormatID.ELL]
    print("\nELL tile (column-major slots):")
    print(f"  tilewidth  {ell.width.tolist()}")
    print(f"  ellColIdx  {hexes(ell.colidx)}")
    print(f"  ellVal     {ell.val.tolist()}")

    hyb = payloads[FormatID.HYB]
    print("\nHYB tile (ELL width + COO overflow):")
    print(f"  ell width  {hyb.ell.width.tolist()}")
    print(f"  ellVal     {hyb.ell.val.tolist()}")
    print(f"  cooRowCol  {hexes(hyb.coo.rowcol)}")
    print(f"  cooVal     {hyb.coo.val.tolist()}")

    dns = payloads[FormatID.DNS]
    print("\nDns tile (all values, column-major):")
    print(f"  dnsVal  {dns.val.tolist()}")

    dnsrow = payloads[FormatID.DNSROW]
    print("\nDnsRow tile:")
    print(f"  rowid      {dnsrow.rowidx.tolist()}   (paper: 'row index 3 is recorded' style)")
    print(f"  dnsRowVal  {dnsrow.val.tolist()}")

    dnscol = payloads[FormatID.DNSCOL]
    print("\nDnsCol tile:")
    print(f"  colid      {dnscol.colidx.tolist()}")
    print(f"  dnsColVal  {dnscol.val.tolist()}")

    print("\nspmv through the forced-format storage matches scipy: True")


if __name__ == "__main__":
    main()
