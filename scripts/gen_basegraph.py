"""Generate the QC-LDPC base graph shipped in pam6link/fec/data/.

Construction: 10 systematic block-columns, 12 check rows, accumulator-chain
parity (row r connects p_{r-1} and p_r, both with shift 0, so encoding is
forward substitution). The top three rows touch every systematic column, so
any rate matching that keeps >= 3 rows gives every systematic variable
degree >= 3. Extension rows from row 3 on contain exactly one of columns
0 and 1, alternating; this is a design property of the committed graph,
and rate matching transmits every systematic bit. Shifts are drawn from a
bounded range and chosen greedily so that no quad of entries closes a
length-4 cycle for any lift size Z >= ZMIN: the alternating shift sum of
every candidate cycle is nonzero with magnitude < ZMIN.

Deterministic; rerunning reproduces the committed file byte for byte.
The final check shares selfcheck's 4-cycle test, so pam6link must be
importable (installed, or src/ on PYTHONPATH).
"""
import argparse
import pathlib

import numpy as np

from pam6link.selfcheck import first_four_cycle

KB = 10
MB = 12
ZMIN = 150
SHIFT_RANGE = 75  # |cycle sum| <= 2*(SHIFT_RANGE-1) < ZMIN
VERSION = 1

# systematic support per row; rows 0..2 full, rows 3..4 jointly cover all
# columns once more, extension rows alternate between columns 0 and 1
ROW_COLS = [
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
    [0, 2, 4, 6, 8],
    [1, 3, 5, 7, 9],
    [0, 3, 6, 9],
    [1, 2, 5, 8],
    [0, 4, 7, 9],
    [1, 3, 6, 8],
    [0, 2, 5, 7],
    [1, 4, 6, 9],
    [0, 2, 3, 8],
]


def four_cycle_free(shifts, r, c, s):
    """True if setting shifts[r][c] = s closes no 4-cycle for any Z >= ZMIN."""
    row = list(shifts[r])
    row[c] = s
    return all(first_four_cycle([row, other], ZMIN) is None
               for r2, other in enumerate(shifts) if r2 != r)


def build():
    rng = np.random.default_rng(20230817)
    shifts = [[-1] * (KB + MB) for _ in range(MB)]
    # parity chain: all shift 0 (identity blocks)
    for r in range(MB):
        shifts[r][KB + r] = 0
        if r > 0:
            shifts[r][KB + r - 1] = 0
    for c in range(KB):
        for r in range(MB):
            if c not in ROW_COLS[r]:
                continue
            cands = rng.permutation(SHIFT_RANGE)
            for s in cands:
                if four_cycle_free(shifts, r, c, int(s)):
                    shifts[r][c] = int(s)
                    break
            else:
                raise RuntimeError(f"no 4-cycle-free shift at row {r} col {c}")
    return shifts


def verify(shifts):
    cycle = first_four_cycle(shifts, ZMIN)
    assert cycle is None, cycle
    # coverage: any >= 3-row prefix keeps every systematic column degree >= 3,
    # and from 5 rows on degree >= 4
    for m in range(3, MB + 1):
        deg = [sum(1 for r in range(m) if shifts[r][c] >= 0) for c in range(KB)]
        assert min(deg) >= 3, f"column degree < 3 with {m} rows"
        if m >= 5:
            assert min(deg) >= 4, f"column degree < 4 with {m} rows"
    # extension rows hit exactly one of columns 0..1, alternating: a design
    # property of the committed graph
    for r in range(3, MB):
        has0 = shifts[r][0] >= 0
        has1 = shifts[r][1] >= 0
        assert has0 != has1, f"row {r} must hit exactly one of columns 0..1"
        assert has0 == (r % 2 == 1), f"row {r} breaks the 0/1 alternation"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    default_out = (
        pathlib.Path(__file__).resolve().parents[1]
        / "src/pam6link/fec/data/basegraph_v1.txt"
    )
    ap.add_argument("--out", type=pathlib.Path, default=default_out)
    args = ap.parse_args()
    shifts = build()
    verify(shifts)
    lines = [
        "# QC-LDPC base graph, accumulator-chain parity.",
        "# header: kb mb zmin version; then mb rows of kb+mb entries,",
        "# -1 = no edge, otherwise the cyclic shift of the Z x Z identity:",
        "# check r*Z+t involves variable c*Z+((t+shift) mod Z).",
        "# Columns 0..kb-1 are systematic, kb..kb+mb-1 the parity chain",
        "# (row r connects p_(r-1) and p_r with shift 0).",
        "# Shift sums around every quad are nonzero with magnitude < zmin,",
        "# so any lift Z >= zmin is free of length-4 cycles.",
        "# Rate matching shortens the tail of the systematic block and",
        "# keeps a prefix of the rows; every systematic bit is transmitted.",
        f"{KB} {MB} {ZMIN} {VERSION}",
    ]
    for row in shifts:
        lines.append(" ".join(f"{s}" for s in row))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text("\n".join(lines) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
