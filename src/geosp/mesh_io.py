"""Mesh, label, and parcellation file I/O (ASCII OFF, ASCII PLY, plain-text labels).

Only the ASCII variants of OFF and PLY are accepted; binary files are rejected.
Coordinates are serialized with 6 decimal places, label files are one base-10
integer per line with LF terminators. Numeric blocks are read by `_read_rows`
from the file's bytes, with an exact float parse, and written by `_write_rows`,
which formats whole blocks in numpy with the bytes of per-number '%d' and
'%.6f'.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .util import splitmix64

COORD_FORMAT = "%.6f"
PALETTE_SIZE = 512


class FormatError(ValueError):
    """Malformed input file; carries the offending 1-based line number."""

    def __init__(self, path, line_no: int, message: str):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


@dataclass
class TriangleMesh:
    """Triangle mesh: (n, 3) vertex positions in mm and (m, 3) vertex-index triples."""

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        if len(self.vertices) == 0:
            raise ValueError("mesh must have at least one vertex")
        if not np.isfinite(self.vertices).all():
            raise ValueError("vertex coordinates must be finite")
        if self.triangles.size:
            if self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices):
                raise ValueError("triangle vertex index out of range")
            t = self.triangles
            if np.any((t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 0] == t[:, 2])):
                raise ValueError("triangle repeats a vertex index")

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def triangle_count(self) -> int:
        return len(self.triangles)


# -- reading numeric rows -----------------------------------------------------------
#
# Every loader reads its file once as bytes. `_Lines` cuts them at LF into
# lines, finds each line's first byte that is not a space, tab or CR, and
# leaves out the lines the format skips (blank lines, # comments), about
# READ_BLOCK_BYTES at a time. A file whose lines would split or strip
# differently under str.splitlines() and str.strip() (any non-ASCII byte, a
# lone CR, VT, FF or \x1c-\x1f) is first rewritten as those stripped lines,
# one per LF, so that line numbers and contents stay Python's.
#
# `_read_rows` reads a run of lines in two steps: the numbers, by the bulk pass
# when a block of lines is plain and else by one per-line loop; then the
# format's rules, once, vectorised, on the rows read. The bulk pass takes a
# block of about READ_BLOCK_BYTES only where it gives exactly what int()/float()
# would: ASCII digits, signs, separators and (for floats) '.', 'e', 'E'; the
# expected token count on every line; every sign at the start of a token (or,
# in floats, after the exponent's 'e'); no integer saturated at the int64
# limits; every float finite. Integers are read by one np.fromstring per
# block. Floats take the exact path of `_floats`. The per-line loop also reads
# what only int()/float() take (`1_000`, `nan`) and stops at the first line
# with the wrong token count or an unreadable token; the rules run on the rows
# before it, so the error names the first bad line, whether a rule or a token
# made it bad. Python strings are made only for the lines of a block that the
# bulk pass refuses and for error messages. Neither pass allocates rows before
# it has seen text that can hold them: `width` tokens and their LF take at
# least 2 * width bytes. Blocks hold 256 KB: token offsets are int64, over
# four bytes of them per byte of face rows, and 1 MB blocks raised the peak
# RSS of a read.
#
# `_floats` reads a token [+-]digits[.digits] as m / 10**k, where m is its
# digits read as one int64 and k the number of digits after the point (Clinger,
# "How to read floating point numbers accurately", PLDI 1990). When m and 10**k
# are exact in a binary type of p >= 53 bits, one IEEE division in it rounds
# m / 10**k correctly to p bits, and the cast to float64 rounds again. With
# p = 53 that is all. With p > 53 the second rounding gives float(token)
# unless the quotient lies exactly halfway between two adjacent float64
# values; there the sign of m - q * 10**k, from Dekker's exact product,
# decides which neighbour float(token) is (a tie goes to the even one, as the
# cast rounds). Tokens with an exponent, a mantissa that saturates int64, a k
# beyond the table of exact powers, or (p = 53) m > 2**53 are parsed by
# np.fromstring, which rounds correctly with Python's own parser.

READ_BLOCK_BYTES = 1 << 18  # bytes per bulk step: keeps its temporaries near 1 MB
_SPACES = b" \t\r"
_INT_CHARS = b"0123456789+-"
_FLOAT_CHARS = _INT_CHARS + b".eE"
_INT64_LIMITS = (np.iinfo(np.int64).min, np.iinfo(np.int64).max)
_SPLIT_LINES = b"\x0b\x0c\x1c\x1d\x1e\x1f"  # ASCII bytes that splitlines() or strip() treat apart
_NO_SIGNS = bytes.maketrans(b"+-", b"  ")


def _byte_set(chars: bytes) -> np.ndarray:
    table = np.zeros(256, dtype=bool)
    table[list(chars)] = True
    return table


_IS_SPACE = _byte_set(_SPACES)


def _exact_quotients(dtype) -> tuple[np.ndarray, int, int]:
    """(10**k in `dtype` for k = 0, 1, ... while exact, the largest mantissa m
    that is exact in it, Dekker's splitter 2**ceil(p/2) + 1) for a binary
    type of p bits."""
    powers = [dtype(1)]
    while int(powers[-1] * 10) == 10 ** len(powers):  # checked, not assumed
        powers.append(powers[-1] * 10)
    bits = np.finfo(dtype).nmant + 1
    split = 2 ** (-(-bits // 2)) + 1
    return np.array(powers, dtype=dtype), min(2 ** bits, _INT64_LIMITS[1]), split


# x87 extended (64 bits) and IEEE quad (113 bits) divide with one correct
# rounding; any other long double (53 bits, or double-double) takes float64.
_QUOTIENTS = _exact_quotients(np.longdouble if np.finfo(np.longdouble).nmant in (63, 112)
                              else np.float64)


def _file_bytes(path) -> bytes:
    """The bytes of the file at `path`, ending in LF, cut at LF into the lines
    of str.splitlines() (see above). A byte that is not UTF-8 is a
    FormatError at the line splitlines() puts it on."""
    data = Path(path).read_bytes()
    if (not data.isascii() or (b"\r" in data and data.count(b"\r") != data.count(b"\r\n"))
            or any(c in data for c in _SPLIT_LINES)):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as e:
            line = len((data[:e.start].decode("utf-8") + "x").splitlines())
            raise FormatError(path, line, f"not UTF-8 text: byte {data[e.start]:#04x}") from None
        return "".join(line.strip() + "\n" for line in text.splitlines()).encode()
    return data if data.endswith(b"\n") or not data else data + b"\n"


def _spread(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Offsets of every byte in the ranges [starts[i], stops[i]), in order."""
    lengths = stops - starts
    return np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())


class _Lines:
    """The lines of a file that a format reads, cut at LF.

    `ends` holds the offset of the LF of every line from `start` on, the
    first being line `number`. Lines whose first byte that is not a space,
    tab or CR is in `skip` are left out: b"\\n" drops blank lines, b"\\n#"
    also # comments. `kept` holds the indices of the lines read when any was
    left out, else None.
    """

    def __init__(self, path, skip: bytes = b"", data: bytes | None = None, start: int = 0,
                 number: int = 1):
        self.path, self.start, self.first_number = path, start, number
        self.data = _file_bytes(path) if data is None else data
        u = np.frombuffer(self.data, dtype=np.uint8)
        skipped = _byte_set(skip)
        ends, kept, lines = [np.empty(0, dtype=np.int64)], [], 0
        while start < len(u):
            stop = self.data.index(b"\n", min(start + READ_BLOCK_BYTES, len(u)) - 1) + 1
            end = np.flatnonzero(u[start:stop] == ord("\n")) + start
            ends.append(end)
            if skip:
                first = np.concatenate([[start], end[:-1] + 1])
                indented = np.flatnonzero(_IS_SPACE[u[first]])
                for _ in range(8):  # shallow indents: step over them together
                    if not len(indented):
                        break
                    first[indented] += 1
                    indented = indented[_IS_SPACE[u[first[indented]]]]
                for i in indented.tolist():  # deeper ones one by one
                    line = self.data[first[i]:end[i]]
                    first[i] += len(line) - len(line.lstrip(_SPACES))
                kept.append(np.flatnonzero(~skipped[u[first]]) + lines)
            lines += len(end)
            start = stop
        self.ends = np.concatenate(ends)
        self.kept = np.concatenate(kept) if skip and sum(map(len, kept)) < lines else None

    def __len__(self) -> int:
        return len(self.ends) if self.kept is None else len(self.kept)

    def _index(self, i: int) -> int:
        return i if self.kept is None else int(self.kept[i])

    def _line_start(self, index: int) -> int:
        return int(self.ends[index - 1]) + 1 if index else self.start

    def number(self, i: int) -> int:
        """The 1-based line number of line i."""
        return self.first_number + self._index(i)

    def numbers(self):
        """The 1-based line numbers of all lines read."""
        if self.kept is None:
            return range(self.first_number, self.first_number + len(self.ends))
        return self.kept + self.first_number

    def line(self, i: int) -> str:
        """Line i, stripped."""
        index = self._index(i)
        return self.data[self._line_start(index):self.ends[index]].decode("utf-8").strip()

    def span(self, i: int, j: int) -> int:
        """Bytes from the start of line i through the LF of line j - 1."""
        if j <= i:
            return 0
        return int(self.ends[self._index(j - 1)]) + 1 - self._line_start(self._index(i))

    def first_text(self, i: int) -> int | None:
        """The first of lines i, i + 1, ... that is not blank, or None."""
        lo = self._line_start(self._index(i)) if i < len(self) else len(self.data)
        text = self.data[lo:].lstrip(_SPACES + b"\n")
        if not text:
            return None
        index = int(np.searchsorted(self.ends, len(self.data) - len(text)))
        return index if self.kept is None else int(np.searchsorted(self.kept, index))

    def blocks(self, i: int, j: int):
        """(a, b, block, line_ends) for lines [a, b) of [i, j), in steps of
        about READ_BLOCK_BYTES: `block` is their bytes from the start of line a
        through the LF of line b - 1, with the lines left out between them
        blanked, and `line_ends` the offsets of their LFs in it."""
        while i < j:
            lo = self._line_start(self._index(i))
            b = int(np.searchsorted(self.ends, lo + READ_BLOCK_BYTES))  # lines that fit
            if self.kept is not None:
                b = int(np.searchsorted(self.kept, b))
            b = min(j, max(b, i + 1))
            hi = int(self.ends[self._index(b - 1)]) + 1
            block = self.data[lo:hi]
            if self.kept is not None and self.kept[b - 1] - self.kept[i] != b - 1 - i:
                u = np.frombuffer(block, dtype=np.uint8).copy()
                u[_spread(self.ends[self.kept[i:b - 1]] + 1, self.ends[self.kept[i + 1:b] - 1] + 1)
                  - lo] = ord(" ")
                block = u.tobytes()
            ends = self.ends[i:b] if self.kept is None else self.ends[self.kept[i:b]]
            yield i, b, block, ends - lo
            i = b


def _tokens(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Offsets of the first byte and one past the last of each token of the
    uint8 text `u`, which ends in LF; a token is a run of bytes above b' '."""
    word = u > 32
    edges = np.flatnonzero(word[1:] != word[:-1]) + 1
    if word[0]:
        edges = np.concatenate([[0], edges])
    return edges[0::2], edges[1::2]


def _width_per_line(starts: np.ndarray, stops: np.ndarray, line_ends: np.ndarray,
                    width: int) -> bool:
    """Whether each line, ending at `line_ends`, holds exactly `width` of the
    tokens [starts, stops) (a total alone would let a short line and a long
    one balance)."""
    return (len(starts) == len(line_ends) * width
            and bool(np.all(stops[width - 1::width] <= line_ends))
            and bool(np.all(line_ends[:-1] < starts[width::width])))


def _fromstring(text: bytes, dtype) -> np.ndarray | None:
    if text.isspace():
        return np.empty(0, dtype=dtype)  # np.fromstring reads blank text as one number
    try:
        return np.fromstring(text, dtype=dtype, sep=" ")
    except ValueError:  # a token np.fromstring cannot read
        return None


def _ints(text: bytes, count: int) -> np.ndarray | None:
    """The `count` int64 tokens of `text` (int characters and separators) in
    one np.fromstring pass, or None (see above)."""
    if b"+" in text or b"-" in text:
        u = np.frombuffer(text, dtype=np.uint8)
        signs = np.flatnonzero((u == ord("+")) | (u == ord("-")))
        if np.any(u[signs - 1] > 32) or np.any(u[signs + 1] - np.uint8(ord("0")) > 9):
            return None  # strtoll reads '1-2' as two numbers and a lone sign as 0
    values = _fromstring(text, np.int64)
    if values is None or len(values) != count or np.isin(values, _INT64_LIMITS).any():
        return None  # strtoll saturates
    return values


def _floats(text: bytes, starts: np.ndarray, stops: np.ndarray) -> np.ndarray | None:
    """float64 of the tokens text[starts[i]:stops[i]], the only tokens of
    `text` (float characters and separators), with the bits of float(token);
    None if one is not a float literal or not finite (see above)."""
    u = np.frombuffer(text, dtype=np.uint8)
    negative = u[starts] == ord("-")
    signed = negative | (u[starts] == ord("+"))
    exponent = np.zeros(len(starts), dtype=bool)
    if b"e" in text or b"E" in text:
        e = np.flatnonzero((u | 32) == ord("e"))
        exponent[np.searchsorted(starts, e, side="right") - 1] = True
    sign = (u == ord("+")) | (u == ord("-"))
    if np.count_nonzero(sign) != np.count_nonzero(signed):  # a sign past a token's start
        before = u[np.flatnonzero(sign) - 1]
        if np.any((before > 32) & ((before | 32) != ord("e"))):  # and not an exponent's
            return None
    points = np.flatnonzero(u == ord("."))
    owner = np.searchsorted(starts, points, side="right") - 1
    if np.any(owner[1:] == owner[:-1]):
        return None
    point = stops.copy()
    point[owner] = points
    if np.any(~exponent & (stops - starts - signed - (point < stops) == 0)):
        return None  # no digit

    # Each plain token's digits as one int64 run: signs blanked, points dropped.
    if exponent.any():
        blanked = u.copy()
        blanked[_spread(starts[exponent], stops[exponent])] = ord(" ")
        text = blanked.tobytes()
    runs = _fromstring(text.translate(_NO_SIGNS, b"."), np.int64)
    if runs is None or len(runs) != len(starts) - np.count_nonzero(exponent):
        return None
    m = np.zeros(len(starts), dtype=np.int64)
    m[~exponent] = runs
    k = np.maximum(stops - point - 1, 0)  # digits after the point
    table, limit, split = _QUOTIENTS
    # strtoll saturates at the int64 limit: such a mantissa is not exact.
    fast = ~exponent & (m < _INT64_LIMITS[1]) & (k < len(table)) & (m <= limit)
    values = np.empty(len(starts))
    values[fast] = _nearest_double(m[fast].astype(table.dtype), table[k[fast]], split)
    np.negative(values, out=values, where=fast & negative)
    if not fast.all():  # each slow token with the separator after it
        slow = _fromstring(u[_spread(starts[~fast], stops[~fast] + 1)].tobytes(), np.float64)
        if slow is None or len(slow) != np.count_nonzero(~fast) or not np.isfinite(slow).all():
            return None
        values[~fast] = slow
    return values


def _nearest_double(m: np.ndarray, scale: np.ndarray, split: int) -> np.ndarray:
    """float64 nearest to m / scale (ties to even), for m and scale exact in
    their binary type (see above)."""
    q = m / scale
    r = q.astype(np.float64)
    d = (q - r).astype(np.float64)  # exact: q and r are within half a float64 ulp
    # q is halfway between r and its neighbour r + 2d exactly when r + 2d is a float64.
    mid = (d != 0) & ((r + 2 * d) - r == 2 * d)
    if mid.any():
        q, m, s, rm = q[mid], m[mid], scale[mid], r[mid]
        hi = q * s
        q1 = q * split
        q1 -= q1 - q
        s1 = s * split
        s1 -= s1 - s
        q2, s2 = q - q1, s - s1
        lo = q2 * s2 - (((hi - q1 * s1) - q2 * s1) - q1 * s2)  # q * s = hi + lo exactly
        above = (m - hi) - lo  # has the sign of m / s - q
        away = (above != 0) & ((rm > q) != (above > 0))
        rm[away] = np.nextafter(rm[away], np.where(above[away] > 0, np.inf, -np.inf))
        r[mid] = rm
    return r


def _bulk_rows(text: bytes, line_ends: np.ndarray, width: int, dtype) -> np.ndarray | None:
    """(lines, width) int64 (dtype int) or float64 (dtype float) array of the
    numbers of `text`, lines that end at `line_ends`, in one bulk pass; None
    when the caller must read them line by line (see above)."""
    if text.translate(None, (_INT_CHARS if dtype is int else _FLOAT_CHARS) + _SPACES + b"\n"):
        return None
    starts, stops = _tokens(np.frombuffer(text, dtype=np.uint8))
    if not _width_per_line(starts, stops, line_ends, width):
        return None
    values = _ints(text, len(starts)) if dtype is int else _floats(text, starts, stops)
    return None if values is None else values.reshape(-1, width)


def _read_rows(text: _Lines, i: int, j: int, width: int, dtype, expected: str, check=None,
               cols=None) -> np.ndarray:
    """int64 (dtype int) or float64 (dtype float) rows of the `width` numbers
    on each of lines [i, j) of `text`; `cols` picks the columns to keep.
    `check(rows, line)` returns (row, message) for the first row that breaks
    the format's rules, or None; line(row) is that row's stripped text.

    Raises FormatError at the first bad line: a rule's message, or "expected
    <expected>, got '<line>'" for a line that cannot be read (see above).
    """
    picked = list(range(width) if cols is None else cols)
    rows = np.empty((min(j - i, text.span(i, j) // max(1, 2 * width)), len(picked)),
                    dtype=np.int64 if dtype is int else np.float64)
    stop = j - i
    for a, b, block, line_ends in text.blocks(i, j):
        values = _bulk_rows(block, line_ends, width, dtype)
        if values is not None:
            rows[a - i:b - i] = values if cols is None else values[:, picked]
            continue
        for row in range(a - i, b - i):
            parts = text.line(i + row).split()
            try:
                if len(parts) != width:
                    raise ValueError
                rows[row] = [dtype(parts[c]) for c in picked]
            except (ValueError, OverflowError):  # OverflowError: an int beyond int64
                stop = row
                break
        if stop < j - i:
            break
    rows = rows[:stop]
    found = check(rows, lambda row: text.line(i + row)) if check is not None else None
    if found is not None:
        raise FormatError(text.path, text.number(i + found[0]), found[1])
    if stop < j - i:
        raise FormatError(text.path, text.number(i + stop),
                          f"expected {expected}, got {text.line(i + stop)!r}")
    return rows


def _first(bad: np.ndarray) -> int | None:
    """Index of the first True in `bad`, or None."""
    hits = np.flatnonzero(bad)
    return int(hits[0]) if len(hits) else None


def _finite(rows, line):
    """Rule of vertex rows: every coordinate is finite."""
    row = _first(~np.isfinite(rows).all(axis=1))
    return None if row is None else (row, f"non-finite vertex coordinates: {line(row)!r}")


def _face_rules(vertex_count, rows, line):
    """Rules of face rows '3 i j k': the leading 3, indices in range, no repeated index."""
    t = rows[:, 1:]
    not_three = rows[:, 0] != 3
    outside = (t < 0) | (t >= vertex_count)
    repeats = (t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 0] == t[:, 2])
    row = _first(not_three | outside.any(axis=1) | repeats)
    if row is None:
        return None
    if not_three[row]:
        return row, f"expected triangle face '3 i j k', got {' '.join(line(row).split())!r}"
    if outside[row].any():
        return row, f"vertex index {t[row][outside[row]][0]} out of range [0, {vertex_count})"
    return row, "face repeats a vertex index"


def _faces(text: _Lines, i: int, j: int, vertex_count: int) -> np.ndarray:
    """(m, 3) triangles of the face lines '3 i j k' [i, j) of `text`."""
    rows = _read_rows(text, i, j, 4, int, "triangle face '3 i j k'",
                      partial(_face_rules, vertex_count))
    return rows[:, 1:].copy()


def _load_off(path: Path) -> TriangleMesh:
    text = _Lines(path, skip=b"\n#")
    n = len(text)
    if not n:
        raise FormatError(path, 1, "empty file")
    if text.line(0) != "OFF":
        raise FormatError(path, text.number(0), f"expected 'OFF' header, got {text.line(0)!r}")
    if n < 2:
        raise FormatError(path, text.number(0) + 1, "missing counts line 'nv nf ne'")
    counts = text.line(1)
    try:
        nv, nf, _ne = (int(t) for t in counts.split())
    except ValueError:
        raise FormatError(path, text.number(1),
                          "counts line must be three integers 'nv nf ne'") from None
    if nv == 0:
        raise FormatError(path, text.number(1), "empty vertex list")
    if nv < 0 or nf < 0:
        raise FormatError(path, text.number(1), f"negative vertex or face count: {counts!r}")

    # Line ranges stop at the lines present, so counts larger than the file
    # allocate nothing before the shortfall is reported.
    end = 2 + nv
    vertices = _read_rows(text, 2, min(end, n), 3, float, "'x y z' coordinates", _finite)
    if len(vertices) < nv:
        raise FormatError(path, text.number(n - 1) + 1,
                          f"expected {nv} vertex lines, got {len(vertices)}")

    if n < end + nf:
        _faces(text, end, n, nv)  # raises at a bad face line, if any
        raise FormatError(path, text.number(n - 1) + 1, f"expected {nf} face lines, got {n - end}")
    triangles = _faces(text, end, end + nf, nv)
    if n > end + nf:
        raise FormatError(path, text.number(end + nf),
                          f"unexpected trailing content: {text.line(end + nf)!r}")
    return TriangleMesh(vertices, triangles)


def _load_ply(path: Path) -> TriangleMesh:
    data = _file_bytes(path)
    lines = _header_lines(data)
    if next(lines, (0, ""))[1] != "ply":
        raise FormatError(path, 1, "expected 'ply' magic line")

    # -- header ---------------------------------------------------------
    nv = nf = None
    vertex_props: list[str] = []
    current = None
    saw_format = False
    body_start = None
    for lineno, (body, line) in enumerate(lines, start=2):
        if not line or line.startswith("comment"):
            continue
        tokens = line.split()
        if tokens[0] == "format":
            if len(tokens) < 2 or tokens[1] != "ascii":
                raise FormatError(path, lineno, f"only ASCII PLY is supported, got {line!r}")
            saw_format = True
        elif tokens[0] == "element":
            if len(tokens) != 3:
                raise FormatError(path, lineno, f"malformed element line: {line!r}")
            if tokens[1] not in ("vertex", "face"):
                raise FormatError(path, lineno, f"unsupported element {tokens[1]!r}")
            try:
                count = int(tokens[2])
            except ValueError:
                count = -1
            if count < 0:
                raise FormatError(path, lineno,
                                  f"element count must be a non-negative integer: {line!r}")
            if (nv if tokens[1] == "vertex" else nf) is not None:
                raise FormatError(path, lineno, f"duplicate element {tokens[1]!r}")
            current = tokens[1]
            if current == "vertex":
                nv = count
            else:
                nf = count
        elif tokens[0] == "property":
            if len(tokens) < 3:
                raise FormatError(path, lineno, f"malformed property line: {line!r}")
            if current == "vertex":
                if tokens[1] == "list":
                    raise FormatError(path, lineno, "list property not allowed on vertices")
                vertex_props.append(tokens[-1])
        elif tokens[0] == "end_header":
            body_start = lineno
            break
        else:
            raise FormatError(path, lineno, f"unexpected header line: {line!r}")
    if body_start is None:
        raise FormatError(path, data.count(b"\n"), "missing end_header")
    if not saw_format:
        raise FormatError(path, 1, "missing 'format ascii 1.0' line")
    if nv is None:
        raise FormatError(path, body_start, "missing 'element vertex' declaration")
    if nv == 0:
        raise FormatError(path, body_start, "empty vertex list")
    nf = nf or 0
    try:
        coord_cols = [vertex_props.index(name) for name in ("x", "y", "z")]
    except ValueError:
        raise FormatError(path, body_start, "vertex element must declare x, y, z properties") from None

    # -- body: every non-blank line after the header ---------------------
    text = _Lines(path, skip=b"\n", data=data, start=body, number=body_start + 1)
    if len(text) < nv + nf:
        raise FormatError(path, data.count(b"\n") + 1,
                          f"expected {nv} vertex and {nf} face lines, got {len(text)}")
    if len(text) > nv + nf:
        raise FormatError(path, text.number(nv + nf),
                          f"unexpected trailing content: {text.line(nv + nf)!r}")

    vertices = _read_rows(text, 0, nv, len(vertex_props), float,
                          f"{len(vertex_props)} numeric vertex properties", _finite, coord_cols)
    return TriangleMesh(vertices, _faces(text, nv, nv + nf, nv))


def _header_lines(data: bytes):
    """(offset past its LF, stripped text) of each line of `data`, in order."""
    start = 0
    while start < len(data):
        stop = data.index(b"\n", start) + 1
        yield stop, data[start:stop].decode("utf-8").strip()
        start = stop


def load_mesh(path, fmt: str | None = None) -> TriangleMesh:
    """Load a triangle mesh from an ASCII OFF or ASCII PLY file.

    fmt is "off" or "ply"; when None it is inferred from the file suffix.
    """
    path = Path(path)
    if fmt is None:
        fmt = path.suffix.lstrip(".").lower()
    if fmt not in ("off", "ply"):
        raise ValueError(f"unknown mesh format {fmt!r} (expected 'off' or 'ply')")
    return _load_off(path) if fmt == "off" else _load_ply(path)


def write_mesh(path, mesh: TriangleMesh, fmt: str | None = None,
               colors: np.ndarray | None = None) -> None:
    """Write a mesh as ASCII OFF or PLY; optional (n, 3) uint8 colors, PLY only."""
    path = Path(path)
    if fmt is None:
        fmt = path.suffix.lstrip(".").lower()
    if fmt == "off":
        if colors is not None:
            raise ValueError("per-vertex colors are only supported for PLY output")
        _write_off(path, mesh)
    elif fmt == "ply":
        _write_ply(path, mesh, colors)
    else:
        raise ValueError(f"unknown mesh format {fmt!r} (expected 'off' or 'ply')")


# -- writing numeric rows -----------------------------------------------------------
#
# `_write_rows` writes every numeric block (vertex, colour and face rows, labels,
# matrix rows) a block of rows at a time, with numpy only: each field becomes a
# right-aligned row of ASCII bytes with 0 bytes in front, separators and LFs are
# bytes of the same matrix, and one boolean mask drops the 0 bytes. The bytes
# are those of per-field '%d' and '%.6f'.
#
# '%.6f' prints N / 10**6, where N is the exact value t = |x| * 10**6 rounded
# to the nearest integer, ties to even. The product y = fl(t) is off by at most
# half an ulp: |y - t| <= 2**-53 * y, plus 2**-1075 if y is subnormal. For
# y < 2**52, y - floor(y) is exact, and so is its distance h from 1/2 wherever
# h is small (Sterbenz). Where h > y * 2**-49 + 2**-40, which exceeds
# |y - t| with room for its own rounding, t and y lie strictly between the
# same two half-way points, so rint(y) = N. The test fails for every
# y >= 2**48 (there the bound is at least 1/2) and for nan and inf, so N fits
# uint64. The sign is signbit(x), as '%.6f' prints '-0.000000' for -0.0 and
# -1e-9 too. Every other element (a near-tie, a large value, nan, inf) is
# printed by Python's own '%.6f', one by one.

WRITE_BLOCK_ROWS = 4096
WRITE_BLOCK_FIELDS = 1 << 15  # with WRITE_BLOCK_ROWS, keeps a block's temporaries under 2 MB
_POINT = 6  # digits after the point in COORD_FORMAT


def _fields(values: np.ndarray) -> np.ndarray:
    """(n, c, w + 1) uint8: each element of the (n, c) int64 or float64 array
    `values` as '%d' or COORD_FORMAT prints it, right-aligned after 0 bytes,
    then a space."""
    point = _POINT if values.dtype.kind == "f" else 0
    slow, texts = (), []  # elements that Python's own '%.6f' prints
    if point:
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan are not exact
            scaled = np.abs(values) * 10.0 ** point
            exact = np.abs(scaled - np.floor(scaled) - 0.5) > scaled * 2.0 ** -49 + 2.0 ** -40
        mag = np.rint(np.where(exact, scaled, 0.0)).astype(np.uint64)
        negative = np.signbit(values) & exact
        slow = np.flatnonzero(~exact)
        texts = [COORD_FORMAT % v for v in values.reshape(-1)[slow].tolist()]
    else:
        mag = values.astype(np.uint64)  # two's complement: -mag is exact for INT64_MIN too
        negative = values < 0
        np.negative(mag, out=mag, where=negative)
    digits = max(len(str(mag.max(initial=0))), point + 1)
    has_sign = bool(negative.any())
    width = max([has_sign + digits + (point > 0), *map(len, texts)])
    out = np.zeros(mag.shape + (width + 1,), dtype=np.uint8)
    out[..., width] = ord(" ")
    if point:
        out[..., width - 1 - point] = ord(".")
    q = mag
    for j in range(digits):
        column = out[..., width - 1 - j - (point > 0 and j >= point)]
        rest = q // 10
        np.subtract(q, rest * 10, out=column, casting="unsafe")
        column += ord("0")
        if j > point:  # the last point + 1 digits always print
            column *= q > 0
        q = rest
    flat = out.reshape(-1, width + 1)
    if has_sign:  # '-' on the last 0 byte before the digits
        at = np.flatnonzero(negative)
        flat[at, np.argmax(flat[at] != 0, axis=1) - 1] = ord("-")
    for at, text in zip(slow, texts):
        flat[at, :width] = 0
        flat[at, width - len(text):width] = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    return out


def _write_rows(file, *arrays: np.ndarray, prefix: bytes = b"") -> None:
    """Write one line per row of the 2-D int64 or float64 arrays laid side by
    side (one column at least) to the binary `file`: `prefix`, then every
    element as `_fields` prints it, space-separated, then LF. Blocks hold at
    most WRITE_BLOCK_ROWS rows and WRITE_BLOCK_FIELDS fields."""
    fields = max(1, sum(a.shape[1] for a in arrays))  # a P = 0 matrix has no column
    step = max(1, min(WRITE_BLOCK_ROWS, WRITE_BLOCK_FIELDS // fields))
    lead = np.frombuffer(prefix, dtype=np.uint8)
    for start in range(0, len(arrays[0]), step):
        parts = [_fields(a[start:start + step]) for a in arrays]
        rows = len(parts[0])
        parts = [p.reshape(rows, -1) for p in parts]
        parts[-1][:, -1] = ord("\n")
        if prefix:
            parts.insert(0, np.broadcast_to(lead, (rows, len(lead))))
        block = np.concatenate(parts, axis=1) if len(parts) > 1 else parts[0]
        file.write(block[block != 0])


def _write_off(path: Path, mesh: TriangleMesh) -> None:
    with open(path, "wb") as f:
        f.write(f"OFF\n{mesh.vertex_count} {mesh.triangle_count} 0\n".encode())
        _write_rows(f, mesh.vertices)
        _write_rows(f, mesh.triangles, prefix=b"3 ")


def _write_ply(path: Path, mesh: TriangleMesh, colors: np.ndarray | None) -> None:
    if colors is not None:
        colors = np.asarray(colors, dtype=np.int64).reshape(-1, 3)
        if len(colors) != mesh.vertex_count:
            raise ValueError("need one RGB triple per vertex")
    header = ["ply", "format ascii 1.0", f"element vertex {mesh.vertex_count}",
              "property float x", "property float y", "property float z"]
    if colors is not None:
        header += ["property uchar red", "property uchar green", "property uchar blue"]
    header += [f"element face {mesh.triangle_count}",
               "property list uchar int vertex_indices", "end_header"]
    with open(path, "wb") as f:
        f.write(("\n".join(header) + "\n").encode())
        _write_rows(f, mesh.vertices, *([] if colors is None else [colors]))
        _write_rows(f, mesh.triangles, prefix=b"3 ")


def _non_negative(rows, line):
    """Rule of label rows: no label is negative."""
    row = _first(rows[:, 0] < 0)
    return None if row is None else (row, f"labels must be non-negative, got {rows[row, 0]}")


def load_labels(path, expected_count: int | None = None) -> np.ndarray:
    """Load per-vertex integer labels, one per line; optionally check the count."""
    path = Path(path)
    text = _Lines(path)
    labels = _read_rows(text, 0, len(text), 1, int, "an integer label", _non_negative)
    if expected_count is not None and len(labels) != expected_count:
        raise ValueError(f"{path}: {len(labels)} labels but expected {expected_count} vertices")
    return labels.reshape(-1)


def write_labels(path, labels) -> None:
    """Write one label per line; raises ValueError on a negative label, which
    `load_labels` would reject."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1, 1)
    if labels.size and labels.min() < 0:
        raise ValueError(f"labels must be non-negative, got {labels.min()}")
    with open(path, "wb") as f:
        _write_rows(f, labels)


def _build_palette() -> np.ndarray:
    """Fixed table of PALETTE_SIZE distinct RGB triples from a hash stream."""
    colors, seen, x = [], set(), 0
    while len(colors) < PALETTE_SIZE:
        h = splitmix64(x)
        x += 1
        rgb = ((h >> 40) & 255, (h >> 24) & 255, (h >> 8) & 255)
        if rgb not in seen:
            seen.add(rgb)
            colors.append(rgb)
    return np.asarray(colors, dtype=np.int64)


_PALETTE = _build_palette()


def color_for_id(sub_parcel_id: int) -> tuple[int, int, int]:
    """Deterministic RGB for a sub-parcel id; injective on ids 0..PALETTE_SIZE-1."""
    r, g, b = _PALETTE[int(sub_parcel_id) % PALETTE_SIZE]
    return int(r), int(g), int(b)


def write_parcellation(prefix, parcellation, mesh: TriangleMesh) -> tuple[Path, Path]:
    """Write <prefix>.txt (one sub-parcel id per vertex) and <prefix>.ply (colored mesh).

    Vertex colors come from the fixed hash palette, so equal ids always get
    equal colors and output bytes are identical across runs. A negative id
    raises ValueError before any file is written.
    """
    sub = np.asarray(getattr(parcellation, "sub_parcel", parcellation), dtype=np.int64)
    if len(sub) != mesh.vertex_count:
        raise ValueError(f"parcellation length {len(sub)} != vertex count {mesh.vertex_count}")
    prefix = Path(prefix)
    txt_path = prefix.parent / (prefix.name + ".txt")
    ply_path = prefix.parent / (prefix.name + ".ply")
    write_labels(txt_path, sub)
    _write_ply(ply_path, mesh, _PALETTE[sub % PALETTE_SIZE])
    return txt_path, ply_path


def concat_meshes(a: TriangleMesh, b: TriangleMesh) -> tuple[TriangleMesh, np.ndarray]:
    """Concatenate two meshes into one; returns (mesh, 0/1 per-vertex origin labels)."""
    vertices = np.vstack([a.vertices, b.vertices])
    triangles = np.vstack([a.triangles, b.triangles + a.vertex_count])
    labels = np.concatenate([np.zeros(a.vertex_count, dtype=np.int64),
                             np.ones(b.vertex_count, dtype=np.int64)])
    return TriangleMesh(vertices, triangles), labels
