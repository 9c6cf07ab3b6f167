"""Command-line front end: detection reports and simulation reproduction.

Two subcommands:

``hdcp detect``    reads a delimited matrix (rows = time points), picks or
                   accepts a dependence order, runs the global test and
                   binary segmentation, and writes a JSON report plus
                   optional flat plot-data files.

``hdcp simulate``  runs a declarative experiment config (size/power,
                   multiple change points, boundary detection curves, or
                   elbow curves) and writes the results table.

``detect`` hashes the input once, in 64 KiB blocks, and parses the bytes
it hashed: a regular file that changes in between is a data error. Input
made only of printable ASCII, tabs and line ends, with a one-character or
whitespace delimiter, is parsed by numpy's C reader, which never holds a
regular file whole: it reads each block again and checks it against the
first read. A pipe or FIFO cannot be read twice, so it is read into
memory once. Any other input, and any the C reader rejects (a line of
only spaces and tabs after the first data row among them), goes to a
Python row loop that holds the decoded text and its lines and reports the
offending row and column. Both give bitwise-equal arrays. A leading UTF-8
byte order mark is ignored. On POSIX hosts with two or more usable CPUs,
the C reader parses inputs of at least 3 MB (``_SPLIT_FROM_BYTES``) in
two processes, each taking about half of the rows, or in one where no
pipe or process can be made; there is no setting for this, and the array
is the same either way. The series adopts the parsed array, so the
statistics run beside one copy of the input.

Exit codes: 0 ran to completion (whatever the test decided), 1 usage
error, 3 numerical failure (``SingularDesign``), 2 data error: any other
``HdcpError``, including this module's ``DataError``, and any input that
cannot be read. A simulate config with a missing key or an invalid value
(out of range, or inconsistent with n) is a data error, reported before
any replication runs. ``HDCP_WORKERS`` sets the worker processes of
``simulate`` (default 1); any value but a positive integer is a usage
error, also reported before any replication runs. Reports are
self-describing and byte-identical across repeated runs with the same
inputs, seed, and any worker count.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import os
import re
import signal
import stat
import sys
import warnings
from pathlib import Path
from typing import Literal, NoReturn, Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .core import DependenceWindow, HdcpError, SeriesMatrix, SingularDesign, validate_input
from .engine import compute_gram, l_trace
from .inference import InferenceConfig, binary_segmentation, test_global
from .selector import default_h_max, lag_energy_curve, select_m
from .simulator import DESIGNS, worker_count

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    pass


class DataError(HdcpError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems; this tool reserves 2 for
    # data errors, so route usage failures through UsageError instead.
    def error(self, message):
        raise UsageError(message)


def _detect_delimiter(line: str) -> Optional[str]:
    counts = {d: line.count(d) for d in (",", "\t", ";")}
    best = max(counts, key=counts.get)
    return best if counts[best] > 0 else None


def _split(line: str, delim: Optional[str]) -> list[str]:
    return [t.strip() for t in (line.split(delim) if delim else line.split())]


def _is_header(tokens: list[str]) -> bool:
    for tok in tokens:
        try:
            float(tok)
        except ValueError:
            return True
    return False


def _layout(first: str, delimiter: Optional[str]) -> tuple[Optional[str], bool]:
    """Delimiter, and whether ``first`` (the first non-blank line) is a header."""
    delim = delimiter if delimiter is not None else _detect_delimiter(first)
    return delim, _is_header(_split(first, delim))


_BOM = b"\xef\xbb\xbf"
# Input made only of these bytes has the same lines, blank lines and
# whitespace for str.splitlines()/str.split() as for numpy's C reader.
# Outside them the two can disagree silently: "\x0b", "\x0c" and
# "\x1c".."\x1e" end a line for Python but are whitespace within a line
# for numpy. Other control bytes and non-ASCII text go to the row loop too.
_C_READER_BYTES = bytes(range(0x20, 0x7F)) + b"\t\n\r"
# blank lines, then the next line (leading whitespace included) and its end
_NEXT_LINE = rb"(?:[ \t]*(?:\r\n?|\n))*([^\r\n]*)(?:\r\n?|\n)?"
# a byte order mark if there is one, then the first two lines not blank
_HEAD = re.compile(b"(?:" + _BOM + b")?" + _NEXT_LINE + _NEXT_LINE)
# the rest of a line, then the next line not blank
_AFTER_LINE = re.compile(rb"[^\n]*\n" + _NEXT_LINE)
# An input is read, hashed and checked in blocks of this many bytes.
_BLOCK = 1 << 16
# Inputs of at least this many bytes are parsed in two processes. On a
# 2-vCPU Linux host with 100 MB resident, 800-row comma files, medians of
# 21 alternated parses, one process -> two: 1.6 MB 41 -> 37 ms (two
# faster in 11/21, a tie), 2.4 MB 60 -> 46 ms (16/21), 3.2 MB 82 -> 56 ms
# (18/21), 6.5 MB 143 -> 100 ms (17/21), 9.7 MB 230 -> 152 ms (18/21).
_SPLIT_FROM_BYTES = 3_000_000


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# an input from _SPLIT_FROM_BYTES on is parsed in this many processes;
# read at call time
_WORKERS = min(2, _usable_cpus())


class _Bytes:
    """An input held in memory: a pipe's or a FIFO's bytes."""

    def __init__(self, data: bytes):
        self._view = memoryview(data)
        self.size = len(data)

    def block(self, k: int, buf: bytearray) -> memoryview:
        """Block ``k`` of the input, without a copy (``buf`` is not used)."""
        return self._view[k * _BLOCK : (k + 1) * _BLOCK]


class _File:
    """A regular file, read in place by ``os.preadv``.

    Making one is the hash pass: the whole file is read once, block by
    block, into ``hasher``, and the hasher's state is kept at every block
    boundary. Every later read of a block hashes it on from the state
    before it and must reach the state after it, so each byte parsed is
    the byte hashed. Positioned reads share no file offset, so a forked
    child reads the same descriptor.
    """

    def __init__(self, path: str, fd: int, hasher):
        self._path, self._fd = path, fd
        self._states = [hasher.copy()]
        buf = bytearray(_BLOCK)
        self.size = 0
        while True:
            got = self._fill(len(self._states) - 1, buf)
            hasher.update(memoryview(buf)[:got])
            self._states.append(hasher.copy())
            self.size += got
            if got < _BLOCK:
                break

    def _fill(self, k: int, buf: bytearray) -> int:
        """Read block ``k`` into ``buf``; fewer bytes than a block only at the end."""
        view, got = memoryview(buf), 0
        while got < _BLOCK:
            read = os.preadv(self._fd, [view[got:]], k * _BLOCK + got)
            if not read:
                break
            got += read
        return got

    def block(self, k: int, buf: bytearray) -> memoryview:
        """Block ``k`` of the file, read into ``buf``; DataError if it changed."""
        view = memoryview(buf)[: self._fill(k, buf)]
        hasher = self._states[k].copy()
        hasher.update(view)
        if hasher.digest() != self._states[k + 1].digest():
            raise DataError(f"{self._path}: input changed while it was read")
        return view


_Source = Union[_Bytes, _File]


def _read(source: _Source, start: int, end: int) -> bytearray:
    """The bytes ``[start, end)`` of an input."""
    buf, out = bytearray(_BLOCK), bytearray()
    for k in range(start // _BLOCK, -(-end // _BLOCK)):
        out += source.block(k, buf)[max(start - k * _BLOCK, 0) : end - k * _BLOCK]
    return out


def _settled(source: _Source, start: int, pattern: re.Pattern) -> Optional[re.Match]:
    """``pattern.match`` on the input from ``start``, read until more bytes cannot change it."""
    size = _BLOCK
    while True:
        data = _read(source, start, min(start + size, source.size))
        found = pattern.match(data)
        if start + len(data) == source.size or (found and found.end() < len(data)):
            return found
        size *= 2


def _read_fast(source: _Source, delimiter: Optional[str]) -> Optional[np.ndarray]:
    """The matrix by numpy's C reader, or None where only the row loop applies."""
    head = _settled(source, 0, _HEAD)
    first = head.group(1)
    # each part's reads check its own bytes, from the first data row on;
    # this checks the bytes read here, a header among them
    if head.string[head.start(1) :].translate(None, _C_READER_BYTES):
        return None
    if not first.strip():
        return None  # no data rows: the row loop reports it
    delim, header = _layout(first.decode("ascii"), delimiter)
    if delim is not None and (len(delim) != 1 or delim in "\r\n"):
        return None
    row = 2 if header else 1
    if not head.group(row).strip():
        return None
    start = head.start(row)  # the first data row, blank lines before it skipped
    del head  # and the bytes it matched
    cut = _split_point(source, start)
    try:
        if cut is None:
            return _loadtxt(source, start, source.size, delim)
        return _read_split(source, start, cut, delim)
    except ValueError:
        return None


def _split_point(source: _Source, start: int) -> Optional[int]:
    """The first data row after the middle of a large input, or None.

    None keeps the parse in one process: the input is below
    ``_SPLIT_FROM_BYTES``, ``_WORKERS`` is 1, there is no
    ``os.fork``, or no data row follows the middle.
    """
    if source.size < _SPLIT_FROM_BYTES or _WORKERS < 2 or not hasattr(os, "fork"):
        return None
    middle = start + (source.size - start) // 2
    rest = _settled(source, middle, _AFTER_LINE)
    return middle + rest.start(1) if rest and rest.group(1).strip() else None


class _Window(io.RawIOBase):
    """The bytes ``[start, end)`` of an input as a read-only file.

    It reads the input a block at a time, and raises ValueError at a block
    holding a byte outside ``_C_READER_BYTES``, where numpy's C reader and
    the row loop could disagree.
    """

    def __init__(self, source: _Source, start: int, end: int):
        self._source, self._next, self._end = source, start, end
        self._buf = bytearray(_BLOCK)
        self._view = memoryview(b"")  # what is left of the block last read

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        if not self._view and self._next < self._end:
            k, offset = divmod(self._next, _BLOCK)
            self._view = self._source.block(k, self._buf)[offset : self._end - k * _BLOCK]
            if bytes(self._view).translate(None, _C_READER_BYTES):
                raise ValueError("a byte outside printable ASCII, tab and line ends")
            self._next += len(self._view)
        got = min(len(buf), len(self._view))
        buf[:got] = self._view[:got]
        self._view = self._view[got:]
        return got


def _loadtxt(source: _Source, start: int, end: int, delim: Optional[str]) -> np.ndarray:
    stream = io.BufferedReader(_Window(source, start, end))
    return np.loadtxt(stream, delimiter=delim, comments=None, ndmin=2)


def _read_split(source: _Source, start: int, cut: int, delim: Optional[str]) -> np.ndarray:
    """``_loadtxt`` of ``[start, cut)`` here and of ``[cut, end)`` in a child.

    Both parts go through the same C reader, so the stacked rows are
    bitwise those of one pass. This process's part becomes the result:
    once the forked child has sent its part's shape through a pipe, the
    part grows in place to the full row count, and the child's float64
    bytes are read straight into its new lower rows. Raises ValueError
    when either part is rejected or the parts differ in columns; a
    DataError of this process's part propagates, while the child's only
    fails its part, so that the row loop's read reports it. The child is
    reaped before this returns; on an error here it is killed first, so
    the row loop does not wait for a part it will not read. Where the
    pipe or the child cannot be made
    (EMFILE, EAGAIN, ENOMEM), the whole input is parsed here.
    """
    fds = ()
    try:
        fds = read_end, write_end = os.pipe()
        with warnings.catch_warnings():
            # From Python 3.12, fork() warns in a process with threads, and
            # OpenBLAS starts them. The child is safe: it imports nothing,
            # calls no BLAS routine, starts no thread, writes nothing but the
            # pipe, and leaves by os._exit.
            warnings.filterwarnings(
                "ignore", r"This process .* is multi-threaded, use of fork\(\)", DeprecationWarning
            )
            pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return _loadtxt(source, start, source.size, delim)
    if pid == 0:
        os.close(read_end)
        _send_part(write_end, source, cut, delim)
    os.close(write_end)
    try:
        # the reader returns a view for a one-column part; the growth
        # below needs a C-ordered array that owns its buffer
        matrix = np.require(_loadtxt(source, start, cut, delim), np.float64, "CO")
        shape = np.zeros(2, dtype=np.int64)
        _receive(read_end, shape)
        if shape[1] != matrix.shape[1]:
            raise ValueError("the two parts differ in columns")
        top = len(matrix)
        # realloc, no second buffer; nothing else refers to this array
        matrix.resize((top + shape[0], shape[1]), refcheck=False)
        _receive(read_end, matrix[top:])
    except BaseException:
        os.kill(pid, signal.SIGKILL)  # its part is not wanted; do not wait for it
        raise
    finally:
        os.close(read_end)
        _, status = os.waitpid(pid, 0)
    if status:
        raise ValueError("the child's part was rejected")
    return matrix


def _send_part(fd: int, source: _Source, start: int, delim: Optional[str]) -> NoReturn:
    """In the forked child: parse the input from ``start`` on, send it to ``fd``, exit."""
    code = 1
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning fails the part, unprinted
            part = np.ascontiguousarray(_loadtxt(source, start, source.size, delim))
        for buf in (np.array(part.shape, dtype=np.int64), part):
            view = memoryview(buf).cast("B")
            while view:
                view = view[os.write(fd, view) :]
        code = 0
    finally:
        os._exit(code)


def _receive(fd: int, buf: np.ndarray) -> None:
    view = memoryview(buf).cast("B")
    while view:
        got = os.readv(fd, [view])
        if not got:
            raise ValueError("the child's part ended early")
        view = view[got:]


def _read_rows(path: str, text: str, delimiter: Optional[str]) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DataError(f"{path}: file contains no data rows")
    delim, header = _layout(lines[0], delimiter)
    start = 1 if header else 0
    if start == len(lines):
        raise DataError(f"{path}: file contains no data rows")
    width = len(_split(lines[start], delim))
    matrix = np.empty((len(lines) - start, width))
    for i, line in enumerate(lines[start:], start=start + 1):
        tokens = _split(line, delim)
        if len(tokens) != width:
            raise DataError(
                f"{path}: row {i} has {len(tokens)} columns, expected {width}"
            )
        try:
            matrix[i - start - 1] = list(map(float, tokens))
        except ValueError:
            for j, tok in enumerate(tokens, start=1):
                try:
                    float(tok)
                except ValueError:
                    raise DataError(
                        f"{path}: cannot parse value {tok!r} at row {i}, column {j}"
                    ) from None
    return matrix


def load_matrix(path: str, delimiter: Optional[str] = None, hasher=None) -> np.ndarray:
    """Parse a delimited text matrix, one time point per row.

    The bytes parsed are exactly those hashed into ``hasher`` (a
    ``hashlib`` object) when one is given. A regular file is read once,
    in 64 KiB blocks, to be hashed, and then again, block by block, as it
    is parsed; a block that reads differently the second time is a
    DataError ("input changed while it was read"). Any other input, such
    as a pipe, is read into memory once. The text is UTF-8, and one
    leading byte order mark is ignored. The delimiter is auto-detected
    among comma, tab, and semicolon (falling back to whitespace) on the
    first non-blank line unless overridden, and that line is skipped when
    it is a non-numeric header. Blank lines are skipped.

    Two readers give bitwise-equal arrays. numpy's C reader
    (``np.loadtxt``) parses input made only of printable ASCII, tabs and
    line ends, with a one-character delimiter or whitespace, without
    holding a regular file whole. Everything else, and any input the C
    reader rejects with ``ValueError`` (with a delimiter, a line of only
    spaces and tabs after the first data row), goes through a Python row
    loop, which holds the decoded text and its lines, produces every
    parse error and reports the offending row and column.

    On POSIX hosts with two or more usable CPUs, inputs of at least
    ``_SPLIT_FROM_BYTES`` (3 MB) go to the C reader in two parts at once:
    the rows up to the first data row after the middle in this process,
    the rest in a forked child. There is no setting for this, and the
    array is the same either way.
    """
    if hasher is None:
        hasher = hashlib.sha256()
    with open(path, "rb", buffering=0) as file:
        if stat.S_ISREG(os.fstat(file.fileno()).st_mode) and hasattr(os, "preadv"):
            source = _File(path, file.fileno(), hasher)
        else:  # a pipe cannot be read twice
            data = file.read()
            hasher.update(data)
            source = _Bytes(data)
        matrix = _read_fast(source, delimiter)
        if matrix is None:
            text = _read(source, 0, source.size).decode("utf-8-sig")
            matrix = _read_rows(path, text, delimiter)
    return matrix


def _json_dump(obj, path: Optional[str]) -> str:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path:
        Path(path).write_text(text)
    return text


def _write_plot_data(path: Path, header: tuple[str, str], cols) -> None:
    lines = ["\t".join(header)]
    for a, b in cols:
        lines.append(f"{a}\t{float(b)!r}")
    path.write_text("\n".join(lines) + "\n")


def cmd_detect(args) -> int:
    hasher = hashlib.sha256()
    # the series holds the parsed array itself: the input is held once
    series = SeriesMatrix._adopt(load_matrix(args.input, args.delimiter, hasher))

    warnings: list[str] = []
    elbow_report = None
    if args.m == "auto":
        h_max = args.h_max if args.h_max is not None else default_h_max(series.n)
        curve = lag_energy_curve(series, h_max)
        chosen = select_m(curve, args.drop_ratio)
        m_used = chosen.value
        if chosen.saturated:
            warnings.append(
                f"elbow saturated: no collapse up to h_max={h_max}; using M={m_used}"
            )
        elbow_report = {
            "h": list(range(h_max + 1)),
            "w_hat": [float(v) for v in curve.w_hat],
            "selected_m": m_used,
            "saturated": chosen.saturated,
            "drop_ratio": args.drop_ratio,
        }
    else:
        try:
            m_used = int(args.m)
        except ValueError:
            raise UsageError(f"--m must be an integer or 'auto', got {args.m!r}") from None
        if m_used < 0:
            raise UsageError("--m must be nonnegative")

    window = DependenceWindow(m_used)
    validate_input(series, window)
    cfg = InferenceConfig(
        alpha=args.alpha,
        fwer_mode=args.fwer,
        min_segment_len=args.min_seg,
    )
    # a --min-seg below the floor fails here, before the Gram is built
    min_segment_len = cfg.segment_min_length(window)

    gram = compute_gram(series)
    curve_l = l_trace(gram, window)
    outcome = test_global(series, window, cfg)
    if outcome.degenerate:
        warnings.append("global test variance degenerate; decision forced to non-rejection")
    result = binary_segmentation(series, window, cfg)
    if any(rec.status == "degenerate" for rec in result.trace):
        warnings.append("one or more segments had degenerate variance")
    if any(rec.status == "skipped_infeasible" for rec in result.trace):
        warnings.append("one or more segments were too short for variance estimation")

    report = {
        "tool": {"name": "hdcp", "version": __version__, "command": "detect"},
        "input": {"path": args.input, "sha256": hasher.hexdigest(), "n": series.n, "p": series.p},
        "settings": {
            "m_mode": "auto" if args.m == "auto" else "fixed",
            "m_used": m_used,
            "alpha": args.alpha,
            "fwer_mode": args.fwer,
            "alpha_seg": cfg.segment_alpha(series.n),
            "min_segment_len": min_segment_len,
            "drop_ratio": args.drop_ratio,
            "seed": args.seed,
            "delimiter": args.delimiter,
        },
        "elbow": elbow_report,
        "global_test": outcome.to_dict(),
        "change_points": list(result.points),
        "segments": [rec.to_dict() for rec in result.trace],
        "l_trace": [float(v) for v in curve_l],
        "warnings": warnings,
    }
    text = _json_dump(report, args.output)
    if args.output:
        print(f"report written to {args.output}")
    else:
        sys.stdout.write(text)

    if args.trace:
        base = Path(args.output) if args.output else Path("hdcp_report.json")
        lt = base.with_suffix(".ltrace.tsv")
        _write_plot_data(lt, ("t", "l_trace"), list(enumerate(curve_l, start=1)))
        if elbow_report is not None:
            el = base.with_suffix(".elbow.tsv")
            _write_plot_data(
                el, ("h", "w_hat"), list(zip(elbow_report["h"], elbow_report["w_hat"]))
            )
    return EXIT_OK


_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False,
                "yes": True, "no": False}


def parse_config(path: str) -> dict:
    """Read a flat declarative config: one 'key = value' per line.

    Comments start with '#'. Values may be scalars or comma-separated
    lists; :func:`build_design` converts them. The keys of each design are
    the fields of its dataclass in ``hdcp.simulator.DESIGNS``, renamed
    where a field sets ``metadata["key"]``; a field without a default is a
    required key (see :class:`hdcp.simulator.ProcessParams`).
    """
    out: dict[str, str] = {}
    for i, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise DataError(f"{path}: line {i}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip().lower()
        if key in out:
            raise DataError(f"{path}: line {i}: duplicate key {key!r}")
        out[key] = value.strip()
    if "design" not in out:
        raise DataError(f"{path}: missing required key 'design'")
    return out


def _take(cfg: dict, key: str, conv):
    if key not in cfg:
        raise DataError(f"config is missing required key {key!r}")
    try:
        return conv(cfg.pop(key))
    except (TypeError, ValueError) as exc:
        raise DataError(f"config key {key!r}: {exc}") from None


def _as_bool(raw: str) -> bool:
    try:
        return _BOOL_VALUES[raw.lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {raw!r}") from None


def _list_of(conv):
    return lambda raw: tuple(conv(v.strip()) for v in raw.split(",") if v.strip())


def _converter(hint):
    """Parser of a config value for a field of type ``hint``."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:  # Optional[X]
        (inner,) = [a for a in args if a is not type(None)]
        return _converter(inner)
    if origin is Literal:
        return str
    if origin is tuple:  # tuple[X, ...]: a comma list
        return _list_of(_converter(args[0]))
    return _as_bool if hint is bool else hint


def build_design(cfg: dict):
    """Turn a parsed config into ``(design name, validated design)``.

    The design's config keys are the fields of its dataclass in
    ``hdcp.simulator.DESIGNS``: a field is read from ``metadata["key"]``
    when set, else from its name; a field without a default is required,
    and an absent optional key keeps the default. Each value is parsed by
    the field's type.
    """
    cfg = dict(cfg)
    name = cfg.pop("design").lower()
    if name not in DESIGNS:
        raise DataError(f"unknown design {name!r}")
    design_type, _ = DESIGNS[name]
    hints = get_type_hints(design_type)
    values = {}
    for f in dataclasses.fields(design_type):
        key = f.metadata.get("key", f.name)
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if key in cfg or required:
            values[f.name] = _take(cfg, key, _converter(hints[f.name]))
    try:
        design = design_type(**values)
    except (TypeError, ValueError, HdcpError) as exc:
        raise DataError(f"invalid config: {exc}") from None
    if cfg:
        raise DataError(f"unknown config keys: {sorted(cfg)}")
    return name, design


def cmd_simulate(args) -> int:
    try:
        worker_count()
    except ValueError as exc:
        raise UsageError(exc) from None
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg["seed"] = str(args.seed)
    name, design = build_design(cfg)
    result = DESIGNS[name][1](design)
    report = {
        "tool": {"name": "hdcp", "version": __version__, "command": "simulate"},
        "design_name": name,
        "master_seed": design.seed,
        "results": result.to_dict(),
    }
    text = _json_dump(report, args.output)
    if args.output:
        print(f"design {name}, master seed {design.seed}")
        for line in result.summary_lines():
            print("  " + line)
        print(f"results written to {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _open_unit(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hdcp", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"hdcp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    det = sub.add_parser("detect", help="detect mean change points in a matrix file")
    det.add_argument("--input", required=True, help="delimited matrix, rows = time points")
    det.add_argument("--m", default="auto",
                     help="dependence order: integer, or 'auto' for the elbow rule")
    det.add_argument("--alpha", type=_open_unit, default=0.05, help="test level")
    det.add_argument("--fwer", action="store_true",
                     help="per-segment level 1/(n log n) for family-wise error control")
    det.add_argument("--min-seg", type=int, default=None, help="minimum segment length")
    det.add_argument("--drop-ratio", type=_open_unit, default=0.02,
                     help="elbow collapse threshold relative to lag-zero energy")
    det.add_argument("--h-max", type=_nonnegative_int, default=None,
                     help="largest lag probed by the elbow")
    det.add_argument("--seed", type=int, default=0, help="echoed into the report")
    det.add_argument("--output", default=None, help="report path (default: stdout)")
    det.add_argument("--trace", action="store_true",
                     help="also write flat plot data (t/l_trace, h/w_hat)")
    det.add_argument("--delimiter", default=None, help="override delimiter detection")
    det.set_defaults(func=cmd_detect)

    sim = sub.add_parser("simulate", help="run a declarative experiment config")
    sim.add_argument("--config", required=True, help="flat key = value design file")
    sim.add_argument("--seed", type=int, default=None, help="override the config master seed")
    sim.add_argument("--output", default=None, help="results path (default: stdout)")
    sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SingularDesign as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    # any other error of this package, or unreadable input: a missing
    # path, a directory, or bytes that are not text
    except (HdcpError, OSError, UnicodeDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
