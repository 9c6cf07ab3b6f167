"""The C reader in two processes for large ``hdcp detect`` inputs.

From ``cli._SPLIT_FROM_BYTES`` on, with ``cli._WORKERS`` at 2 and
``os.fork`` available, ``cli._read_fast`` parses the rows before the first
data row after the middle itself and the rest in a forked child. Most tests
set the threshold to 0, so that small inputs take that path. They pin that
the array is bitwise the row loop's, that errors still carry the row loop's
message, and that no child outlives the call.
"""

import errno
import json
import os
import signal
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import hdcp
from hdcp import cli, engine
from hdcp.cli import load_matrix, main

from test_cli import _LOADER_CORPUS


@pytest.fixture
def split(forks, monkeypatch):
    """``forks``, with every input at or above the byte threshold."""
    monkeypatch.setattr(cli, "_SPLIT_FROM_BYTES", 0)
    return forks


def _parse_both(tmp_path, data, delimiter=None):
    path = tmp_path / "m.txt"
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = cli._read_rows(str(path), data.decode("utf-8"), delimiter)
        fast = cli._read_fast(cli._Bytes(data), delimiter)
        loaded = load_matrix(str(path), delimiter)
    return rows, fast, loaded


def _assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _assert_readers(rows, fast, loaded, c_reader):
    """``load_matrix`` gives the row loop's array, ``_read_fast`` too where it applies."""
    assert (fast is not None) == c_reader
    for got in [loaded] + ([fast] if c_reader else []):
        _assert_bitwise(got, rows)


@pytest.mark.parametrize("case", _LOADER_CORPUS, ids=[case[0] for case in _LOADER_CORPUS])
def test_corpus_split_matches_row_loop(tmp_path, split, case):
    _, data, delimiter, c_reader = case
    _assert_readers(*_parse_both(tmp_path, data, delimiter), c_reader)


# (name, file bytes, whether the input is split, parsed by the C reader);
# the rows after the middle hold no data row in the cases that are not
# split. A line of only spaces and tabs after the first data row sends a
# split input to the row loop once the fork has been made.
_SPLIT_CASES = [
    ("second-part-blank", b"1,2\n3,4\n5,6\n" + b"\n" * 12 + b"  \n\t\n", False, False),
    ("header", b"a,b\n1,2\n3,4\n5,6\n7,8\n", True, True),
    ("crlf", b"1,2\r\n3,4\r\n5,6\r\n7,8\r\n", True, True),
    ("whitespace-only-line-first-part", b"1,2\n  \n3,4\n5,6\n7,8\n9,1\n", True, False),
    ("whitespace-only-line-second-part", b"1,2\n3,4\n5,6\n7,8\n \t\n9,1\n", True, False),
    ("whitespace-only-lines-both-parts", b"1,2\n \n3,4\n5,6\n7,8\n\t\r\n9,1\n  ", True, False),
    ("whitespace-only-line-at-the-cut", b"1,2\n3,4\n5,6\n  \n  \n7,8\n9,1\n", True, False),
    ("single-data-row", b"a,b\n1,2\n", False, True),
    ("no-trailing-newline", b"1,2\n3,4\n5,6\n7,8", True, True),
    ("second-part-one-row", b"1,2\n3,4\n5,6\n7,8\n\n", True, True),
    ("whitespace-delimited", b"1 2\n 3\t4\n5 6 \n7  8\n", True, True),
    ("one-column", b"1\n2\n3\n4\n5\n6\n", True, True),
    # lines longer than the first block read: the layout waits for them whole
    ("long-rows", b"".join(b",".join([b"%d.5" % i] * 30_000) + b"\n" for i in range(4)), True, True),
    ("long-header", b",".join([b"a"] * 40_000) + b"\n" + b"1.5e0," * 39_999 + b"2\n", False, True),
]


@pytest.mark.parametrize("case", _SPLIT_CASES, ids=[case[0] for case in _SPLIT_CASES])
def test_split_cases_match_row_loop(tmp_path, split, case):
    _, data, splits, c_reader = case
    _assert_readers(*_parse_both(tmp_path, data), c_reader)
    assert len(split) == 2 * splits  # _read_fast and load_matrix


_MARKED_CASES = [(f"corpus-{name}", data, delimiter, c_reader)
                 for name, data, delimiter, c_reader in _LOADER_CORPUS]
_MARKED_CASES += [(name, data, None, c_reader) for name, data, _, c_reader in _SPLIT_CASES]


@pytest.mark.parametrize("case", _MARKED_CASES, ids=[case[0] for case in _MARKED_CASES])
def test_byte_order_mark_leaves_the_array_bitwise(tmp_path, split, monkeypatch, case):
    # the parse windows start after the mark; nothing copies the input
    _, data, delimiter, c_reader = case
    rows, _, _ = _parse_both(tmp_path, data, delimiter)
    path = tmp_path / "bom.txt"
    path.write_bytes(cli._BOM + data)
    for workers in (2, 1):  # split where the input allows, then unsplit
        monkeypatch.setattr(cli, "_WORKERS", workers)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fast = cli._read_fast(cli._Bytes(cli._BOM + data), delimiter)
            loaded = load_matrix(str(path), delimiter)
        _assert_readers(rows, fast, loaded, c_reader)


def _large_input(tmp_path, n=200, p=400):
    path = tmp_path / "large.csv"
    np.savetxt(path, np.random.default_rng(5).standard_normal((n, p)), delimiter=",")
    return path, n * p * 8


@pytest.mark.parametrize("bom", [b"", cli._BOM], ids=["no-mark", "mark"])
def test_split_parse_memory_beyond_the_input(tmp_path, split, bom):
    # the result, n p float64, which this process's part grows into in
    # place, and a few 64 KiB blocks: no room for the part beside the
    # result, nor for the input's bytes (3.2 per float64 here), which the
    # parse reads in place, a block at a time
    path, unit = _large_input(tmp_path)
    path.write_bytes(bom + path.read_bytes())
    tracemalloc.start()
    try:
        load_matrix(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * unit, f"{peak / unit:.2f} x n p float64"
    assert len(split) == 1


@pytest.mark.parametrize("layout", [
    lambda m: m.T.copy().T,  # a Fortran-ordered view that owns no buffer
    np.asfortranarray,  # a Fortran-ordered array that owns its buffer
    lambda m: m[:, ::-1].copy()[:, ::-1],  # a view with negative column strides
], ids=["fortran-view", "fortran-owner", "reversed-view"])
def test_split_part_in_any_layout_grows_to_the_row_loops_array(tmp_path, split, monkeypatch,
                                                               layout):
    # numpy's reader returns a view of a 1-D result for one column (the
    # "one-column" case above); the part this process grows must own a
    # C-ordered buffer whatever it gets
    loadtxt = cli._loadtxt
    monkeypatch.setattr(cli, "_loadtxt", lambda *args: layout(loadtxt(*args)))
    _assert_readers(*_parse_both(tmp_path, b"1,2,3\n4,5,6\n7,8,9\n1,2,4\n"), True)
    assert len(split) == 2


def test_detect_holds_one_copy_of_the_input_at_the_gram(tmp_path, split, monkeypatch):
    # the file's bytes and the parsed array are gone once the series holds
    # its copy: 1.03 x n p float64 here, against 5.22 with the bytes (3.2
    # bytes of input per float64) and both arrays kept
    path, unit = _large_input(tmp_path)
    held = []
    product = engine._gram_product

    def recorded(x):
        held.append(tracemalloc.get_traced_memory()[0])
        return product(x)

    monkeypatch.setattr(engine, "_gram_product", recorded)
    main(["detect", "--input", str(path), "--m", "2", "--output", str(tmp_path / "warm.json")])
    tracemalloc.start()
    try:
        assert main(["detect", "--input", str(path), "--m", "2", "--output", str(tmp_path / "r.json")]) == 0
    finally:
        tracemalloc.stop()
    assert held[1] <= 1.1 * unit, f"{held[1] / unit:.2f} x n p float64"
    assert len(split) == 2


@pytest.mark.parametrize("data, parts", [
    (b"1,2\n3,4\n5,6\n7,8\n \t\n9,1\n", [b"1,2\n3,4\n5,6\n", b"7,8\n \t\n9,1\n"]),
    (b"1,2\n \t\n3,4\n5,6\n7,8\n9,1\n", [b"1,2\n \t\n3,4\n5,6\n", b"7,8\n9,1\n"]),
], ids=["whitespace-only-line-in-the-childs-part", "whitespace-only-line-in-this-part"])
def test_each_part_is_parsed_once(tmp_path, split, monkeypatch, data, parts):
    # a part the C reader rejects is not parsed again: the row loop reads
    # the input. The child appends its own record to the same file; when
    # this process's part is rejected, the child is killed, perhaps before
    # it has recorded its part.
    log = tmp_path / "parsed.txt"
    loadtxt = cli._loadtxt

    def recorded(source, start, end, delim):
        with open(log, "a") as out:
            out.write(bytes(cli._read(source, start, end)).hex() + "\n")
        return loadtxt(source, start, end, delim)

    monkeypatch.setattr(cli, "_loadtxt", recorded)
    _assert_readers(*_parse_both(tmp_path, data), False)
    records = list(map(bytes.fromhex, log.read_text().split()))
    here, childs = parts
    assert records.count(here) == 2  # _read_fast and load_matrix
    assert records.count(childs) in (range(3) if b" \t\n" in here else [2])
    assert len(records) == records.count(here) + records.count(childs)
    assert len(split) == 2


@pytest.mark.parametrize("line", [b"1\x0b2\n", b"1\x0c2\n"], ids=["vertical-tab", "form-feed"])
@pytest.mark.parametrize("row", [30_000, 90_000], ids=["first-part", "second-part"])
def test_a_byte_beyond_the_first_block_goes_to_the_row_loop(tmp_path, split, line, row):
    # numpy's C reader reads "\x0b" and "\x0c" as whitespace within a row,
    # the row loop as line ends, so this row is two rows of one column.
    # The first block read checks its own bytes, each part's window the
    # blocks it reads.
    data = b"1 2\n" * row + line + b"1 2\n" * (120_000 - row)
    assert data.index(line) > cli._BLOCK
    path = tmp_path / "m.txt"
    path.write_bytes(data)
    with pytest.raises(cli.DataError) as expected:
        cli._read_rows(str(path), data.decode("utf-8"), None)
    assert cli._read_fast(cli._Bytes(data), None) is None
    with pytest.raises(cli.DataError) as got:
        load_matrix(str(path))
    assert str(got.value) == str(expected.value)
    assert len(split) == 2


@pytest.mark.parametrize("data, delimiter", [
    (b"1,2\n3,4\n5,6\n7,8\n9,1,2\n", None),  # ragged row in the second part
    (b"1,2\n3,4\n5,6\n7,8\n9,x\n", None),  # bad token in the second part
    # each part parses alone, with different column counts
    (b"1,2\n3,4\n5,6,7\n8,9,1\n", None),
    (b"1\n2\n3\n4\n5\n6\n7,8\n9,1\n", ","),  # one column here would broadcast
    (b"1,2\n1,x\n1,2\n1,2\n", None),  # bad token in the first part
])
def test_split_errors_come_from_the_row_loop(tmp_path, split, data, delimiter):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with pytest.raises(cli.DataError) as expected:
        cli._read_rows(str(path), data.decode("utf-8"), delimiter)
    assert cli._read_fast(cli._Bytes(data), delimiter) is None
    with pytest.raises(cli.DataError) as got:
        load_matrix(str(path), delimiter)
    assert str(got.value) == str(expected.value)
    assert len(split) == 2


@pytest.mark.parametrize("call, code", [("fork", errno.EAGAIN), ("pipe", errno.EMFILE)],
                         ids=["fork-EAGAIN", "pipe-EMFILE"])
def test_no_pipe_or_child_parses_in_this_process(tmp_path, split, monkeypatch, call, code):
    # a process or descriptor limit is not a data error; the descriptors
    # already opened are closed
    data = b"1,2\n3,4\n5,6\n7,8\n"
    path = tmp_path / "m.csv"
    path.write_bytes(data)
    monkeypatch.setattr(cli, "_WORKERS", 1)
    whole = load_matrix(str(path))
    monkeypatch.setattr(cli, "_WORKERS", 2)
    opened = []
    pipe = os.pipe

    def recorded():
        fds = pipe()
        opened.extend(fds)
        return fds

    def refused():
        raise OSError(code, os.strerror(code))

    monkeypatch.setattr(os, "pipe", recorded)
    monkeypatch.setattr(os, call, refused)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_bitwise(cli._read_fast(cli._Bytes(data), None), whole)
        _assert_bitwise(load_matrix(str(path)), whole)
    assert len(opened) == (4 if call == "fork" else 0)
    for fd in opened:
        with pytest.raises(OSError) as closed:
            os.fstat(fd)
        assert closed.value.errno == errno.EBADF
    assert split == []


def test_a_failed_child_exit_fails_the_split(split, monkeypatch):
    waitpid = os.waitpid
    monkeypatch.setattr(os, "waitpid", lambda pid, options: (waitpid(pid, options)[0], 1 << 8))
    assert cli._read_fast(cli._Bytes(b"1,2\n3,4\n5,6\n7,8\n"), None) is None
    assert len(split) == 1


_REAP_PROBE = """
import os
from hdcp import cli
cli._SPLIT_FROM_BYTES = 0
cli._WORKERS = 2
for data in (
    b"1,2\\n3,4\\n5,6\\n7,8\\n",
    b"1,2\\n3,4\\n5,6\\n7,x\\n",  # rejected in the child's part
    b"1,2\\n1,x\\n" + b"1,2\\n" * 30000,  # rejected here, the child blocked on a full pipe
):
    print(cli._read_fast(cli._Bytes(data), None) is not None)
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print("no child")
"""


def test_no_child_outlives_a_parse():
    # a fresh interpreter, which has no other children to reap; a parse
    # that waits for a child still blocked on the pipe times out
    env = dict(os.environ, PYTHONPATH=str(Path(hdcp.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", _REAP_PROBE],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.splitlines() == ["True", "no child"] + ["False", "no child"] * 2
    assert out.stderr == ""


def test_a_rejected_part_here_kills_the_child_before_the_wait(tmp_path, forks, monkeypatch):
    # "  " after data row 5 fails this process's part; the child's part is
    # then not wanted, so the child is killed rather than waited for while
    # it parses its half, and the row loop reads the input
    path = tmp_path / "spaced.csv"
    np.savetxt(path, np.random.default_rng(5).standard_normal((800, 400)), delimiter=",")
    lines = path.read_bytes().splitlines(keepends=True)
    data = b"".join(lines[:5] + [b"  \n"] + lines[5:])
    path.write_bytes(data)
    assert len(data) >= cli._SPLIT_FROM_BYTES
    calls = []
    kill, waitpid = os.kill, os.waitpid

    def recorded_kill(pid, sig):
        calls.append(("kill", pid, sig))
        kill(pid, sig)

    def recorded_waitpid(pid, options):
        calls.append(("waitpid", pid))
        return waitpid(pid, options)

    monkeypatch.setattr(os, "kill", recorded_kill)
    monkeypatch.setattr(os, "waitpid", recorded_waitpid)
    _assert_bitwise(load_matrix(str(path)), cli._read_rows(str(path), data.decode(), None))
    [pid] = forks
    assert calls == [("kill", pid, signal.SIGKILL), ("waitpid", pid)]


def test_one_worker_never_forks(tmp_path, split, monkeypatch):
    monkeypatch.setattr(cli, "_WORKERS", 1)
    rows, fast, _ = _parse_both(tmp_path, b"1,2\n3,4\n5,6\n7,8\n")
    _assert_bitwise(fast, rows)
    assert split == []


def test_split_from_the_byte_threshold(monkeypatch):
    data = b"1,2\n3,4\n5,6\n7,8\n"
    monkeypatch.setattr(cli, "_WORKERS", 2)
    monkeypatch.setattr(cli, "_SPLIT_FROM_BYTES", len(data) + 1)
    assert cli._split_point(cli._Bytes(data), 0) is None
    monkeypatch.setattr(cli, "_SPLIT_FROM_BYTES", len(data))
    assert cli._split_point(cli._Bytes(data), 0) == data.index(b"7")


def test_detect_report_above_the_threshold_matches_one_process(tmp_path, forks, monkeypatch):
    path = tmp_path / "large.csv"
    values = np.random.default_rng(3).standard_normal((800, 400))
    values[500:, :40] += 0.5
    np.savetxt(path, values, delimiter=",")
    assert path.stat().st_size >= cli._SPLIT_FROM_BYTES
    reports = []
    for workers in (2, 1):
        monkeypatch.setattr(cli, "_WORKERS", workers)
        out = tmp_path / f"report_{workers}.json"
        assert main(["detect", "--input", str(path), "--m", "2", "--output", str(out)]) == 0
        reports.append(out.read_bytes())
    assert len(forks) == 1
    assert reports[0] == reports[1]


def test_detect_whitespace_only_lines_above_the_threshold(tmp_path, forks):
    # a line of only spaces in each part: both parts go to the row loop,
    # and the report is the clean input's apart from the input's path and hash
    clean = tmp_path / "clean.csv"
    np.savetxt(clean, np.random.default_rng(6).standard_normal((800, 400)), delimiter=",")
    lines = clean.read_bytes().splitlines(keepends=True)
    spaced = tmp_path / "spaced.csv"
    spaced.write_bytes(b"".join(lines[:200] + [b"  \n"] + lines[200:600] + [b"  \n"] + lines[600:]))
    assert spaced.stat().st_size >= cli._SPLIT_FROM_BYTES
    reports = []
    for path in (clean, spaced):
        out = tmp_path / f"{path.stem}.json"
        assert main(["detect", "--input", str(path), "--m", "2", "--output", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
    for report in reports:
        del report["input"]["path"], report["input"]["sha256"]
    assert reports[0] == reports[1]
    assert len(forks) == 2


@pytest.mark.parametrize("n, p, splits", [(60, 30, False), (800, 400, True)],
                         ids=["small", "above-the-threshold"])
def test_fifo_input_gives_the_files_report(tmp_path, forks, n, p, splits):
    # a FIFO cannot be read twice: it is read into memory once, and its
    # report is the regular file's apart from the input's path
    path = tmp_path / "series.csv"
    np.savetxt(path, np.random.default_rng(8).standard_normal((n, p)), delimiter=",")
    fifo = tmp_path / "series.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),), daemon=True)
    writer.start()
    reports = []
    for source in (fifo, path):
        out = tmp_path / f"{source.name}.json"
        assert main(["detect", "--input", str(source), "--m", "1", "--output", str(out)]) == 0
        writer.join(timeout=60)
        assert not writer.is_alive()
        reports.append(json.loads(out.read_text()))
    assert [r["input"].pop("path") for r in reports] == [str(fifo), str(path)]
    assert reports[0] == reports[1]
    assert len(forks) == 2 * splits


def test_fork_after_blas_threads_emits_no_warning(split):
    a = np.random.default_rng(4).standard_normal((400, 400))
    a @ a.T  # OpenBLAS starts its threads
    data = b"1,2\n3,4\n5,6\n7,8\n"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        matrix = cli._read_fast(cli._Bytes(data), None)
    assert caught == []
    assert matrix.tolist() == [[1, 2], [3, 4], [5, 6], [7, 8]]
    assert len(split) == 1
