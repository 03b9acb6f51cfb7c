"""CSV body text of numeric columns, formatted a whole column at a time.

``csv_body(columns)`` returns the bytes that ``"%d"`` (integers, booleans)
and ``"%.17g"`` (floats), cell by cell, joined with ``,`` and ``\\n``, give,
byte for byte.  Floats are formatted with exact integer and double-double
arithmetic in numpy instead of one dtoa call per cell.

A float ``x`` with decimal exponent ``E`` (``10^E <= |x| < 10^(E+1)``) is
written from its 17 significant digits ``q = round(|x| 10^(16-E))``, with the
rules of ``%.17g``: fixed notation for ``-4 <= E <= 16`` (a ``0.``, ``0.0``,
... prefix below 1), scientific notation with a two- or three-digit exponent
elsewhere, and no trailing zeros after the point.

``q`` is the product of ``|x|`` and the double-double ``10^(16-E)``, taken
with Dekker's two-product (numpy has no FMA): its integer part is exact and
its fraction good to about 1e-14.  Every value that this cannot prove goes
to ``%`` instead: zero, non-finite values, ``|x|`` outside (1e-280, 1e280),
a ``log10`` estimate of ``E`` that the exact integer part contradicts (next
to powers of ten), and a fraction within 1e-6 of one half, where rounding
could depend on the last bits (exact ties among them: 74043568487764.5625
has 18 significant digits, the last a 5).

Text is laid out in 8-byte little-endian lanes (uint64) of a byte matrix,
one row per table row, in which every byte the text does not use is NUL:

    float cell: [sign, "0.000" prefix] [17 digits and "."] [.., exponent, separator]
    int cell:   [digits ... separator]

The point goes in by shifting the digits after it one byte up; trailing
zeros and unused slots are cleared by masks looked up per value, and the
first lane is left out of a column block that uses it nowhere.  Dropping
the NULs of the matrix leaves the CSV text.
"""

import functools
import types

import numpy as np

#: Cells formatted per block of rows.  A block's temporaries, some thirty
#: arrays of 8 bytes per cell, stay in cache and add little to peak memory:
#: on a 30,000-cell table 65536-cell blocks raised the peak resident size by
#: 3.6 MB over ``%`` row by row, 8192-cell ones by 0.4 MB, and ran as fast.
_BLOCK_CELLS = 8192
#: |x| range of the fast path: inside it neither the scaled product nor its
#: error terms leave the normal float range.
_FAST_RANGE = (1e-280, 1e280)
#: A fraction this close to 1/2 goes to ``%``: the product's error is far
#: smaller, so every fraction outside the band rounds the right way.
_TIE_MARGIN = 1e-6
_K0 = 270  # powers of ten 10^-_K0 ... 10^(_K1 - 1) are tabulated
_K1 = 300
_E0 = 400  # offset of the exponent table

_TEN16 = 10**16
_TEN17 = 10**17
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for float64
_NUL = b"\0"
_U8, _U24, _U40, _U56 = (np.uint64(s) for s in (8, 24, 40, 56))
#: Lanes are little-endian on every host: byte i of a lane is bits 8i..8i+7.
_LANE = np.dtype("<u8")


def _lanes(chunks, width):
    """Byte strings, each NUL-padded to ``width``, as rows of uint64 lanes."""
    raw = b"".join(c.ljust(width, _NUL) for c in chunks)
    return np.frombuffer(raw, dtype=_LANE).reshape(-1, width // 8)


@functools.cache
def _tables():
    """Lookup tables, built on first use so that importing costs nothing.

    ``hh, hl, lo``: 10^k, k = -_K0 ... _K1 - 1, as hi split by Veltkamp into
    halves of 26 bits (hi = hh + hl is 10^k correctly rounded) and lo, the
    correctly rounded residual 10^k - hi.  ``digits4``: 0..9999 as 4-byte
    ASCII; ``trailing4``: their trailing zeros (4 for 0).  ``heads``: the
    right-aligned sign and "0." prefix by 5 * negative + zeros after the
    point.  Body lanes hold digit i at byte i: ``before_point`` keeps the
    bytes up to the digit the point follows (by point index), ``body_mask``
    keeps the first ``size`` bytes but the point's, ``body_point`` puts the
    point in (both by 19 * point + size), and ``exponents`` fills bytes
    18-22 with "e+XX" (by E + _E0; entry 0 is empty).
    """
    hi, lo = [], []
    for k in range(-_K0, _K1):
        if k >= 0:
            h = float(10**k)  # int to float rounds correctly
            lo.append(float(10**k - int(h)))
        else:
            m = 10**-k
            h = 1 / m  # int true division rounds correctly
            num, den = h.as_integer_ratio()
            lo.append((den - num * m) / (den * m))
        hi.append(h)
    hi = np.array(hi)
    c = _SPLIT * hi
    hh = c - (c - hi)

    i = np.arange(10_000)
    digits = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1) + ord("0")
    byte = np.arange(24)
    point = np.arange(17).repeat(19)[:, None]  # rows: 19 * point + size
    size = np.tile(np.arange(19), 17)[:, None]
    keep = (byte < size) & (byte != point + 1)

    def body(mask):
        return np.ascontiguousarray(mask.astype(np.uint8).view(_LANE).T)

    return types.SimpleNamespace(
        hh=hh, hl=hi - hh, lo=np.array(lo),
        digits4=digits.astype(np.uint8).view("<u4")[:, 0].astype(np.uint64),
        trailing4=sum((i % 10**j == 0).astype(np.int64) for j in range(1, 4)) + (i == 0),
        heads=_lanes([(b"-" * neg + (b"0." + b"0" * (z - 1) if z else b"")).rjust(8, _NUL)
                      for neg in (0, 1) for z in range(5)], 8)[:, 0],
        before_point=body(0xFF * (byte <= np.arange(17)[:, None])),
        body_mask=body(0xFF * keep),
        body_point=body(ord(".") * ((byte == point + 1) & (byte < size))),
        exponents=_lanes([_NUL * 2 + b"e%+03d" % (e - _E0) if e else b""
                          for e in range(2 * _E0)], 8)[:, 0],
    )


def _digits17(x, tab):
    """17 significant digits ``q`` and decimal exponent ``E`` of each |x|,
    and the mask of values for which they are proven."""
    a = np.abs(x)
    ok = (a > _FAST_RANGE[0]) & (a < _FAST_RANGE[1])
    a = np.where(ok, a, 1.0)
    E = np.floor(np.log10(a)).astype(np.int64)
    k = _K0 + 16 - E
    bh, bl = tab.hh[k], tab.hl[k]
    # Dekker's two-product: p + e == a * (bh + bl) exactly
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    p = a * (bh + bl)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    t = e + a * tab.lo[k]
    fl = np.floor(t)
    frac = t - fl
    whole = p.astype(np.int64) + fl.astype(np.int64)  # floor(|x| 10^(16-E)), in int64
    ok &= (whole >= _TEN16) & (whole < _TEN17) & (np.abs(frac - 0.5) >= _TIE_MARGIN)
    q = np.where(ok, whole + (frac > 0.5), _TEN16)
    carry = q == _TEN17  # rounded up to 10^17: one more digit before the point
    q[carry] = _TEN16
    E += carry
    return q, E, ok


def _float_cells(x, tab):
    """The %.17g text of the floats ``x`` as (n, 4) lanes, one row each, and
    the mask of rows whose first lane (sign, "0." prefix or ``%`` fallback)
    is used; the last byte is left for the separator."""
    q, E, ok = _digits17(x, tab)
    lead = q // _TEN16
    rest = q - lead * _TEN16
    groups = []
    for scale in (10**12, 10**8, 10**4):
        g = rest // scale
        groups.append(g)
        rest -= g * scale
    groups.append(rest)
    g1, g2, g3, g4 = groups
    d1, d2, d3, d4 = (tab.digits4[g] for g in groups)
    lanes = [(lead + ord("0")).astype(np.uint64) | (d1 << _U8) | (d2 << _U40),
             (d2 >> _U24) | (d3 << _U8) | (d4 << _U40),
             d4 >> _U24]
    zeros = tab.trailing4
    last = 16 - zeros[g4] - (g4 == 0) * (  # index of the last nonzero digit
        zeros[g3] + (g3 == 0) * (zeros[g2] + (g2 == 0) * zeros[g1]))

    fixed = (E >= 0) & (E <= 16)
    small = (E >= -4) & (E < 0)
    point = np.where(fixed, E, np.where(small, 16, 0))  # digit the point follows
    size = np.where(last > point, last + 2, np.where(small, last, point) + 1)
    layout = 19 * point + size
    negative = x < 0
    cells = np.empty((len(x), 4), dtype=_LANE)
    cells[:, 0] = tab.heads[np.where(small, -E, 0) + 5 * negative]
    carry = np.uint64(0)
    for i, body in enumerate(lanes):
        shifted = (body << _U8) | carry
        carry = body >> _U56
        cells[:, 1 + i] = ((((body ^ shifted) & tab.before_point[i][point]) ^ shifted)
                           & tab.body_mask[i][layout]) | tab.body_point[i][layout]
    cells[:, 3] |= tab.exponents[np.where(fixed | small, 0, E + _E0)]
    slow = np.flatnonzero(~ok)
    if len(slow):
        cells[slow] = _lanes([b"%.17g" % v for v in x[slow].tolist()], 32)
    return cells, small | negative | ~ok


def _int_cells(v):
    """The %d text of integer or boolean column ``v`` as lanes, the last
    byte left for the separator: each distinct value is formatted once."""
    values, index = np.unique(v, return_inverse=True)
    text = [b"%d" % value for value in values.tolist()]
    return _lanes(text, max(map(len, text)) // 8 * 8 + 8)[index]


def csv_body(columns) -> bytes:
    """The rows of ``columns`` (equal-length 1-D arrays) as CSV text."""
    tab = _tables()
    n = len(columns[0])
    floats = [i for i, c in enumerate(columns) if c.dtype.kind not in "biu"]
    seps = [np.uint64(ord(",")) << _U56] * (len(columns) - 1) + [np.uint64(ord("\n")) << _U56]
    step = max(1, _BLOCK_CELLS // len(columns))
    parts = []
    for start in range(0, n, step):
        rows = slice(start, start + step)
        cells = [None] * len(columns)
        if floats:
            x = np.concatenate([columns[i][rows] for i in floats], dtype=np.float64)
            lanes, head = _float_cells(x, tab)
            m = len(x) // len(floats)
            for j, i in enumerate(floats):
                part = slice(j * m, (j + 1) * m)
                cells[i] = lanes[part] if head[part].any() else lanes[part, 1:]
        for i, c in enumerate(columns):
            if cells[i] is None:
                cells[i] = _int_cells(c[rows])
            cells[i][:, -1] |= seps[i]
        parts.append(np.hstack(cells).tobytes().translate(None, _NUL))
    return b"".join(parts)
