"""CSV export from whole columns, and the package's one JSON writer.

Every JSON file (manifests and validation reports) goes through
:func:`write_json`: two-space indent, sorted keys and a final newline, so a
rerun rewrites it byte for byte.

Every CSV writer in the package formats its rows through :func:`write_csv`,
``BLOCK`` rows at a time, so memory stays bounded by one chunk of text
whatever the column length.  A field's format comes from its column's dtype:
an integer column is written with ``str`` and any other with ``.17g``, which
round-trips a double exactly; fields are joined by ``,``.  The bytes always
equal those of ``str.format`` over each row's Python scalars
(``ndarray.tolist``) with ``{}`` and ``{:.17g}`` fields.

Two code paths produce those bytes:

* ``str.format`` on the ``tolist`` scalars.  It formats every column dtype
  and every chunk of fewer than ``KERNEL_ROWS`` rows, and it is the tests'
  reference.
* A numpy kernel for each chunk of at least ``KERNEL_ROWS`` rows, when
  every column is float64 or of an integer dtype that fits int64.  Its
  fixed cost per call loses to ``str.format`` below a few hundred rows, so
  short files (histograms, the 65-row density grid) never reach it; the
  validation's samples, the default 513-row density grid, solution fields
  and ``path.csv`` take it for every chunk but a short last one.

The kernel follows correctly rounded binary-to-decimal conversion (Gay,
1990).  For ``|x|`` in ``[1e-200, 1e200]`` it takes ``E = floor(log10|x|)``
and forms ``|x|·10^(16-E)`` as a double-double product (Dekker, 1971) with
an exact ``(hi, lo)`` table of powers of ten.  The integer part ``N`` of
that product fixes the decade: when ``N`` is not in ``[10^16, 10^17)``, the
product is redone with ``E ± 1``.  The 17 significant digits are ``N``
rounded half to even by the fraction.  The product's error is below about
``2^-47`` of a unit, so a fraction within ``2^-30`` of ½ cannot be rounded
safely here; such a value goes through ``format(v, ".17g")`` on its own.
So do non-finite values, subnormals and values outside the range above;
``±0.0``, common in density and error columns, is copied from a table row
of ``0`` or ``-0``.  Digits come from a 10 000-entry table of four-digit
groups.  Each row is laid out in byte slots with NUL in the unused ones,
which ``bytes.translate`` removes.  The tables are built on first use.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

__all__ = ["write_csv", "write_json"]

#: rows formatted per chunk
BLOCK = 4096

#: fewest rows of a chunk that the kernel formats: below about 200 rows
#: with warm caches, and 400-700 with cold ones, as when a run writes each
#: file once after its computation, ``str.format`` is faster
KERNEL_ROWS = 512

_RANGE = 200  # the kernel formats |x| in [1e-200, 1e200]
_E_MIN = -_RANGE - 2  # lowest decade of a table row, with room for E ± 1
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into halves
_TIE_MARGIN = 2.0**-30  # fractions this close to 1/2 are formatted one by one

# A float field is six little-endian uint64 words, 45 byte slots: the sign,
# the "0.000" of 0.000ddd, then 17 digit slots with a dot slot after each,
# then "e", the exponent's sign and three exponent digits.  An integer field
# is five uint32 words, 20 digit slots, with the sign in the slot before the
# first digit.  A field's last word has spare slots for the separator after
# it.
_F_WORDS, _F_USED = 6, 45
_I_WORDS, _I_USED = 5, 20
# fixed notation for decimal exponents -4..16, else scientific: a float's
# layout depends on its exponent only through one of 23 classes
_E_CLASSES = 23
# the first word of a float field before masking: "\0" "0.000", then the
# leading digit's slot and a dot
_HEAD = int.from_bytes(b"\0" b"0.000" b"\0.", "little")


def _byte_words(rows: list[bytes], dtype) -> np.ndarray:
    return np.frombuffer(b"".join(rows), dtype).reshape(len(rows), -1)


@functools.cache
def _tables():
    """The kernel's constant tables, built on first use (a few ms)."""
    g = np.arange(10_000, dtype=np.uint64)
    digit = [(g // 10 ** (3 - i) % 10) + ord("0") for i in range(4)]
    # four digits "dddd" packed into a uint32, and "d.d.d.d." into a uint64
    int_groups = sum(d << 8 * i for i, d in enumerate(digit)).astype(np.uint32)
    float_groups = sum((d | ord(".") << 8) << 16 * i for i, d in enumerate(digit))
    # significant length of a group: up to its last nonzero digit for the
    # fraction of a float, from its first for an integer; -64 for 0000
    trailing = sum((g % 10**i == 0).astype(np.int64) for i in range(1, 5))
    float_sig = np.where(g == 0, -64, 4 - trailing)
    int_len = np.where(g == 0, -64, 1 + (g >= 10) + (g >= 100) + (g >= 1000))

    # float slot masks by (exponent class, number of significant digits)
    float_masks = []
    for c in range(_E_CLASSES):
        e = c - 5  # a representative decimal exponent of the class
        for nd in range(18):
            m = bytearray(8 * _F_WORDS)
            if -4 <= e < 0:  # 0.ddd, 0.0ddd, ...
                m[1 : 2 - e] = b"\xff" * (1 - e)
            shown = nd if e < 0 or e > 16 else max(nd, e + 1)
            for i in range(shown):
                m[6 + 2 * i] = 0xFF
            dot = 0 if e < -4 or e > 16 else e
            if e >= 0 and nd > dot + 1 or e < -4 and nd > 1:
                m[7 + 2 * dot] = 0xFF
            float_masks.append(bytes(m))
    float_masks = _byte_words(float_masks, np.uint64)[:, :5].T.copy()
    zeros = _byte_words([z.ljust(8 * _F_WORDS, b"\0") for z in (b"0", b"-0")], np.uint64)

    exp_words = []
    for e in range(_E_MIN, -_E_MIN + 1):
        text = b"" if -4 <= e <= 16 else b"e%c%03d" % (b"-+"[e >= 0], abs(e))
        if len(text) == 5 and text[2:3] == b"0":
            text = text[:2] + b"\0" + text[3:]
        exp_words.append(text.ljust(8, b"\0"))
    exp_words = _byte_words(exp_words, np.uint64)[:, 0].copy()

    # integer slot masks and "-" signs, by number of digits and sign
    int_masks, int_signs = [], []
    for neg in (False, True):
        for nd in range(_I_USED + 1):
            m, s = bytearray(_I_USED), bytearray(_I_USED)
            m[_I_USED - nd :] = b"\xff" * nd
            if neg and nd < _I_USED:
                s[_I_USED - nd - 1] = ord("-")
            int_masks.append(bytes(m))
            int_signs.append(bytes(s))
    int_masks = _byte_words(int_masks, np.uint32).T.copy()
    int_signs = _byte_words(int_signs, np.uint32).T.copy()

    # 10^(16-e) = p / q, and its rounding error p/q - hn/hd, are exact
    # integer ratios, which int / int true division rounds correctly
    pow10 = np.empty((4, -2 * _E_MIN + 1))
    for i, e in enumerate(range(_E_MIN, -_E_MIN + 1)):
        p, q = 10 ** max(16 - e, 0), 10 ** max(e - 16, 0)
        hi = p / q
        hn, hd = hi.as_integer_ratio()
        c = _SPLIT * hi
        hi_hi = c - (c - hi)
        pow10[:, i] = hi, hi_hi, hi - hi_hi, (p * hd - hn * q) / (q * hd)
    return SimpleNamespace(
        int_groups=int_groups, float_groups=float_groups, float_sig=float_sig,
        int_len=int_len, float_masks=float_masks, zeros=zeros, exp_words=exp_words,
        int_masks=int_masks, int_signs=int_signs, pow10=pow10,
    )


def _scaled(a: np.ndarray, e: np.ndarray, pow10: np.ndarray):
    """Integer part and fraction of ``a·10^(16-e)``, both from the
    double-double product; their error is below ``2^-47``."""
    i = e - _E_MIN
    hi, hi_hi, hi_lo, lo = (row[i] for row in pow10)
    p = a * hi
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    s = (((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo) + a * lo
    whole = np.floor(s)
    # p >= 2^53 is a whole number whenever the decade is right; below it,
    # truncation only has to leave the sum under 10^16
    return p.astype(np.int64) + whole.astype(np.int64), s - whole


def _groups(n: np.ndarray):
    """The four-digit groups of ``n < 10^20``, most significant first."""
    out = []
    for div in (10**16, 10**12, 10**8, 10**4):
        q = n // div
        out.append(q)
        n = n - q * div
    return out + [n]


def _float_field(x: np.ndarray, words: np.ndarray) -> None:
    """Write ``format(v, ".17g")`` of each float64 ``v`` into the
    ``(rows, _F_WORDS)`` uint64 slot rows ``words``, NUL-padded."""
    tab = _tables()
    a = np.abs(x)
    fast = (a >= 10.0**-_RANGE) & (a <= 10.0**_RANGE)  # False on 0, nan, inf
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    n, frac = _scaled(a, e, tab.pow10)
    off = (n < 10**16).astype(np.int64) - (n >= 10**17)
    redo = np.flatnonzero(off)
    if redo.size:
        e[redo] -= off[redo]
        n[redo], frac[redo] = _scaled(a[redo], e[redo], tab.pow10)
        fast[redo[(n[redo] < 10**16) | (n[redo] >= 10**17)]] = False
    fast &= np.abs(frac - 0.5) >= _TIE_MARGIN
    n += frac > 0.5
    carry = n == 10**17  # rounded up into the next decade
    n[carry] = 10**16
    e += carry

    lead, *rest = _groups(n)
    nd = 1
    for j, g in enumerate(rest):
        nd = np.maximum(nd, 1 + 4 * j + tab.float_sig[g])
    form = (np.clip(e, -5, 17) + 5) * 18 + nd  # exponent class and digit count
    lead = lead.view(np.uint64) + ord("0") << 48 | _HEAD
    words[:, 0] = lead & tab.float_masks[0][form] | (x < 0) * np.uint64(ord("-"))
    for j, g in enumerate(rest, 1):
        words[:, j] = tab.float_groups[g] & tab.float_masks[j][form]
    words[:, 5] = tab.exp_words[e - _E_MIN]

    zero = np.flatnonzero(x == 0.0)
    words[zero] = tab.zeros[np.signbit(x[zero]).astype(np.intp)]
    slow = np.flatnonzero(~fast & (x != 0.0))
    if slow.size:
        text = b"".join(
            format(v, ".17g").encode().ljust(8 * _F_WORDS, b"\0") for v in x[slow].tolist()
        )
        words[slow] = np.frombuffer(text, np.uint64).reshape(-1, _F_WORDS)


def _int_field(k: np.ndarray, words: np.ndarray) -> None:
    """Write ``str(v)`` of each integer ``v`` into the ``(rows, _I_WORDS)``
    uint32 slot rows ``words``, NUL-padded."""
    tab = _tables()
    k = k.astype(np.int64)  # a copy, turned into magnitudes in place
    neg = k < 0
    mag = k.view(np.uint64)
    np.negative(mag, out=mag, where=neg)  # two's complement: |int64 min| fits
    groups = [g.view(np.int64) for g in _groups(mag)]
    nd = 1
    for j, g in enumerate(groups):
        nd = np.maximum(nd, tab.int_len[g] + 4 * (4 - j))
    row = neg * (_I_USED + 1) + nd
    for j, g in enumerate(groups):
        words[:, j] = tab.int_groups[g] & tab.int_masks[j][row] | tab.int_signs[j][row]


def _kernel_layout(cols: list[np.ndarray]):
    """Where the kernel puts each column's field and the ``,`` or ``\\n``
    after it: ``(width, fields, separators, text)`` in bytes of one slot
    row, or None when a column is neither float64 nor an integer dtype that
    fits int64, or the words are not little-endian."""
    if sys.byteorder != "little":
        return None
    fields, separators, at = [], [], 0
    for col in cols:
        if col.dtype == np.float64:
            writer, word, size, used = _float_field, np.uint64, 8 * _F_WORDS, _F_USED
        elif col.dtype.kind in "iu" and np.can_cast(col.dtype, np.int64):
            writer, word, size, used = _int_field, np.uint32, 4 * _I_WORDS, _I_USED
        else:
            return None
        at = -(-at // 8) * 8  # fields start on a word boundary
        fields.append((writer, at, size, word))
        separators.append(at + used)  # the slot after the field's used ones
        at += used + 1
    width = -(-max(at, *(f[1] + f[2] for f in fields)) // 8) * 8
    text = np.frombuffer(b"," * (len(cols) - 1) + b"\n", np.uint8)
    return width, fields, np.array(separators), text


def _kernel_rows(layout, chunk: list[np.ndarray], buf: bytearray) -> bytes:
    """The text of the rows of ``chunk``, one slot row each in ``buf``.

    Fields and separators rewrite the same slots of every chunk, so the
    slots between them stay as zeroed when ``buf`` was made."""
    width, fields, at, text = layout
    slots = np.frombuffer(buf, np.uint8).reshape(-1, width)
    for (writer, lo, size, word), col in zip(fields, chunk):
        writer(col, slots[:, lo : lo + size].view(word))
    slots[:, at] = text  # after the fields: a separator may share their last word
    return buf.translate(None, b"\0")


def write_csv(out: Path | str, header: str, *columns) -> None:
    """Write ``header`` and then one line for each index of the
    equal-length ``columns``: the fields joined by ``,``, an integer
    column's as ``str`` and any other column's as ``.17g``."""
    cols = [np.asarray(c) for c in columns]
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise ValueError(f"column lengths differ: {[len(c) for c in cols]}")
    row = ",".join("{}" if c.dtype.kind in "iu" else "{:.17g}" for c in cols)
    fmt = (row + "\n").format
    layout = _kernel_layout(cols) if n >= KERNEL_ROWS else None
    buf = bytearray()
    with open(out, "wb") as fh:
        fh.write((header + "\n").encode())
        for lo in range(0, n, BLOCK):
            chunk = [c[lo : lo + BLOCK] for c in cols]
            rows = len(chunk[0])
            if layout is not None and rows >= KERNEL_ROWS:
                if len(buf) != rows * layout[0]:  # the first chunk, or a shorter last one
                    buf = bytearray(rows * layout[0])
                fh.write(_kernel_rows(layout, chunk, buf))
            else:
                fh.write("".join(map(fmt, *(c.tolist() for c in chunk))).encode())


def write_json(out: Path | str, payload: dict) -> None:
    """Write ``payload`` with a two-space indent and sorted keys, then a newline."""
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
