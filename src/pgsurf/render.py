"""Text built by numpy: float64 arrays as `format(x, ".17g")` prints
them, and a mesh's OBJ face lines.

A float x with 1e-4 <= |x| < 1e17 prints in fixed notation, from the 17
digits N = round(|x| * 10**(16 - E)), E the decade of |x|.  `_DECADES`
holds the smallest double at or above 10**E for E = -4 ... 16 (each
literal rounds up where E < 0), so E is exact: the count of them at or
below |x|, minus 5.  10**k is an exact double for k <= 22, so Dekker's
product of Veltkamp halves gives |x| * 10**k exactly as p + error
(T. J. Dekker, Numer. Math. 18, 1971).  The largest double below each
power of ten is more than 8 units of the 17th digit below it, so N never
carries into an 18th digit.  Only IEEE basic operations and comparisons
decide the digits, so they do not depend on the SIMD loops numpy
dispatches.  Every other float goes to the caller's formatter.

The renderer is a module of its own, not part of `cli`: a process that
finds no compiled bytecode compiles each module from its source and keeps
the compiler's memory, which grows with the module.  With these lines
inside `cli`, a fresh `import pgsurf.cli` kept 0.45 MB more resident
memory (3.40 against 2.95 MB over numpy's, CPython 3.11 on x86-64 Linux).

The renderer pads its cells with 1.0 to a multiple of `_GRAIN`.  Its
temporaries then come in a few sizes (`cli` renders at most 4096 cells
at once), none under 1 KB, so none is one of the small blocks that numpy
and glibc keep cached wherever they were carved: carved from the space a
sweep block had just freed, such a block kept that space apart from the
top of the heap, and a process that wrote many tables (`bench/run.py
--workload export`) grew its heap by up to 6 MB.  It also runs, where it
can, numpy loops that a sweep runs anyway (float64 and int64 arithmetic
and comparisons, `where`, `take`): int64 subtraction and addition rather
than bitwise masks, the decade by counting bounds rather than by
`searchsorted`, int64 counts of trailing zeros.  That process then held
64 KB more of numpy's code resident where the first layout held 256 KB
more.

`face_text` prints a block of a mesh's face lines "f a b c d" with no
Python formatting per face.  A vertex number below 10**7 (`cli` allows
at most 4 * 10**6) is one 64-bit word, its digits and a space, from
tables of 4-digit groups taken from `_GROUP_TEXT`; each vertex number
of a block is rendered once, each line gathers its corners' words, and
one `bytes.translate` drops the NULs.  `numbered` prints the mesh
sidecar's vertex numbers from the same words.  The tables are built at import,
with the renderer's tables: built on the first face instead, they were
long-lived blocks carved from the middle of a long-lived process's heap,
and `bench/run.py --workload export` read a `peak_rss_mb` of 64.6 MB
against 61.3 MB with `%d` fields (medians of six seeds).  `cli` hands it
4096 cells at a time: blocks of 2**15 cells read 61.7 MB there, and a
fresh 2 x 200 000 `mesh` run peaked at 42.1 MB against 41.6 MB.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["face_text", "numbered", "rendered"]

_DECADES = np.array([float(f"1e{e}") for e in range(-4, 17)])
_TENS = np.array([float(10 ** k) for k in range(21)])


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of doubles into halves of 26 bits: `a` = high + low
    exactly, and the product of two halves is exact."""
    t = a * 134217729.0  # 2**27 + 1
    high = t - (t - a)
    return high, a - high


_TENS_HIGH, _TENS_LOW = _halves(_TENS)


def _tables() -> tuple[np.ndarray, ...]:
    """The text tables, read-only, built from bytes: no numpy code runs to
    build them.

    A cell's text is laid out in 40 bytes, five 64-bit words, and printed
    without its zero bytes: the sign, then "0." and up to three zeros where
    E < 0, then the 17 digits, each followed by a slot for the point; the
    last slot holds the separator.  The first word is `prefix[sign, E,
    leading digit]`, each other one `group[g]` of a group g of 4 digits
    (`zeros[g]` its trailing zero digits, g > 0).  Subtracting `drop[c]`
    clears the digits after digit c, each a trailing "0"; adding
    `point[E + 4]` sets the point in the empty slot after digit E.  No
    byte borrows or carries, so the words' arithmetic acts byte by byte."""
    decimals = b"0123456789"
    pairs = [bytes([a, 0, b, 0]) for a in decimals for b in decimals]
    # the trailing zero digits of each pair, 2 for "00"
    trailing = bytes([2] + [int(j % 10 == 0) for j in range(1, 100)])
    # x + x.join(pairs) is x before each pair: the groups of x's hundreds
    group = b"".join([x + x.join(pairs) for x in pairs])
    zeros = b"".join([bytes([2 + t]) + trailing[1:] for t in trailing])
    prefix = b"".join(sign + (b"0." + b"0" * (-1 - e) if e < 0 else b"").ljust(5, b"\0")
                      + bytes([digit, 0])
                      for sign in (b"\0", b"-") for e in range(-4, 17) for digit in decimals)
    drop = b"".join(b"\0" * (7 + 2 * c) + b"\0" + b"0\0" * (16 - c) for c in range(17))
    point = b"".join((b"\0" * (7 + 2 * e) + b"." if 0 <= e < 16 else b"").ljust(40, b"\0")
                     for e in range(-4, 17))
    return (np.frombuffer(group, np.int64), np.frombuffer(zeros, np.uint8),
            np.frombuffer(prefix, np.int64), np.frombuffer(drop, np.int64).reshape(17, 5),
            np.frombuffer(point, np.int64).reshape(21, 5))


_GROUP_TEXT, _GROUP_ZEROS, _PREFIX, _DROP, _POINT = _tables()

# the renderer pads its cells with 1.0 to a multiple of this many (see above)
_GRAIN = 1024


def _digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The decade E and the 17 digits N, as an integer, of each float of
    `a`, 1e-4 <= a < 1e17 (a function of its own, so that its float
    temporaries are freed before the text is built)."""
    # the count of decade bounds at or below a, not `searchsorted`: see above
    e = (a >= _DECADES[:, None]).sum(axis=0) - 5
    k = 16 - e
    high, low = _halves(a)
    p = a * _TENS[k]
    error = (low * _TENS_LOW[k]
             - (((p - high * _TENS_HIGH[k]) - low * _TENS_HIGH[k]) - high * _TENS_LOW[k]))
    # p >= 10**16 > 2**53 is an even integer, so rounding the error half to
    # even rounds p + error half to even, as `format` does
    return e, p.astype(np.int64) + np.rint(error).astype(np.int64)


def rendered(values: np.ndarray, m: int, fallback: Callable[[float], str]) -> str:
    """`format(x, ".17g")` of each float of the 1-d `values`, the strings
    joined by "," and, after every m-th, by a newline.

    A float that does not print in fixed notation (zero, subnormal, NaN,
    infinite, or with an exponent) is printed by `fallback`, which must
    give `format(x, ".17g")` too."""
    count = values.size
    padded = np.ones(count + -count % _GRAIN)
    padded[:count] = values
    values = padded
    a = np.abs(values)
    fixed = (a >= 1e-4) & (a < 1e17)
    e, n = _digits(np.where(fixed, a, 1.0))
    lead, rest = np.divmod(n, 10 ** 16)
    first, second = np.divmod(rest, 10 ** 8)
    text = np.empty((values.size, 5), np.int64)
    text[:, 0] = _PREFIX[(e + 4 + 21 * np.signbit(values)) * 10 + lead]
    zeros = np.int64(0)  # int64 counts, not uint8 ones: see above
    for j, group in enumerate((*np.divmod(first, 10 ** 4), *np.divmod(second, 10 ** 4)), 1):
        text[:, j] = _GROUP_TEXT[group]
        zeros = np.where(group, _GROUP_ZEROS[group], zeros + 4)
    last = 16 - zeros  # the last digit that is not 0
    later = last > e
    text -= np.take(_DROP, np.where(later, last, e), axis=0)
    # the point where digits follow digit E >= 0 (row 0, E = -4, sets none)
    text += np.take(_POINT, np.where(later, e + 4, 0), axis=0)
    cells = text.view(np.uint8)
    slow = np.flatnonzero(~fixed)
    if slow.size:
        strings = "".join([fallback(x).ljust(40, "\0") for x in values[slow].tolist()])
        cells[slow] = np.frombuffer(strings.encode(), np.uint8).reshape(-1, 40)
    cells[:, 39] = ord(",")
    cells[m - 1::m, 39] = ord("\n")
    cells[count - 1, 39] = 0
    text[count:] = 0
    return text.tobytes().translate(None, b"\0").decode()


def _vertex_tables() -> tuple[np.ndarray, np.ndarray]:
    """The tables of vertex-number words, read-only, from the digits of
    `_GROUP_TEXT`.

    A vertex number n < 10**7 prints as one 64-bit word: its digits in
    bytes 0-6, right-aligned, NULs in place of its leading zeros, and a
    space in byte 7.  With n = 10**4 * h + l, the word is `low[n]` where
    n < 1000 and `high[h] + low[1000 + l]` otherwise: `high[h]` holds the
    digits of h < 1000 in bytes 0-2 (none for h = 0), `low` the digits of
    n < 1000 and then all 4 digits of each l, in bytes 3-6, and the space."""
    digits = _GROUP_TEXT.tobytes()[::2]  # the 4 digits of each group
    bare = np.frombuffer(b"".join([digits[i:i + 4].lstrip(b"0").rjust(4, b"\0")
                                   for i in range(0, 4000, 4)]), np.uint8).reshape(-1, 4)
    high = np.zeros((1000, 8), np.uint8)
    high[:, :3] = bare[:, 1:]
    low = np.zeros((11000, 8), np.uint8)
    low[:1000, 3:7] = bare
    low[1000:, 3:7] = np.frombuffer(digits, np.uint8).reshape(-1, 4)
    low[:, 7] = ord(" ")
    high, low = high.view(np.int64).ravel(), low.view(np.int64).ravel()
    high.flags.writeable = low.flags.writeable = False
    return high, low


_HIGH, _LOW = _vertex_tables()


def _vertex_words(numbers: np.ndarray) -> np.ndarray:
    """The word of each vertex number of `numbers`, 1 <= n < 10**7."""
    high, low = np.divmod(numbers, 10 ** 4)
    return _HIGH[high] + _LOW[np.where(numbers < 1000, numbers, low + 1000)]


def _after(char: str) -> int:
    """What, added to a vertex word, turns its space into `char`."""
    return (ord(char) - ord(" ")) << 56


def numbered(numbers: np.ndarray, m: int) -> str:
    """The decimal text of each vertex number of the 1-d `numbers`, 1 <= n
    < 10**7, joined as `rendered` joins its strings: by "," and, after
    every m-th, by a newline."""
    ends = np.full(numbers.size, _after(","))
    ends[m - 1::m] = _after("\n")
    ends[-1] = _after("\0")
    return (_vertex_words(numbers) + ends).tobytes().translate(None, b"\0").decode()


# the word "f" + NULs + " " that opens a face line
_F = np.frombuffer(b"f" + b"\0" * 6 + b" ", np.int64)[0]


def face_text(kept: np.ndarray, first: int, n2: int) -> str:
    """The OBJ face lines of a block of mesh cells on a grid of rows of n2
    vertices: "f a a+n2 a+n2+1 a+1", a the 1-based number of the cell's
    first corner, for each cell that `kept` keeps, in C order.  `first`
    is a of the block's first cell; a vertex number is below 10**7.

    Each vertex number of the block's corners becomes one word, once.  A
    line is five words, the "f" word and its four corners', the last
    one's space a newline; the kept lines are chosen by a boolean index
    and one `bytes.translate` drops the NULs.  The arithmetic is int64,
    as in `rendered`."""
    rows, cols = kept.shape
    words = _vertex_words(first + np.arange(rows + 1)[:, None] * n2 + np.arange(cols + 1))
    text = np.empty((rows, cols, 5), np.int64)
    text[..., 0] = _F
    text[..., 1] = words[:-1, :-1]
    text[..., 2] = words[1:, :-1]
    text[..., 3] = words[1:, 1:]
    np.add(words[:-1, 1:], _after("\n"), out=text[..., 4])
    if not kept.all():
        text = text[kept]
    return text.tobytes().translate(None, b"\0").decode()
