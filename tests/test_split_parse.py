"""The C reader in two processes for large ``hdcp detect`` inputs.

From ``cli._SPLIT_FROM_BYTES`` on, with ``cli._WORKERS`` at 2 and
``os.fork`` available, ``cli._read_fast`` parses the rows before the first
data row after the middle itself and the rest in a forked child. Most tests
set the threshold to 0, so that small inputs take that path. They pin that
the array is bitwise the row loop's, that errors still carry the row loop's
message, and that no child outlives the call.
"""

import os
import subprocess
import sys
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
def forks(monkeypatch):
    """The pids of the children forked during the test, at two workers.

    After the test every one of them must have been reaped.
    """
    monkeypatch.setattr(cli, "_WORKERS", 2)
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    yield pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


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
        fast = cli._read_fast(data, delimiter)
        loaded = load_matrix(str(path), delimiter)
    return rows, fast, loaded


def _assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


_C_READER_CASES = [case for case in _LOADER_CORPUS if case[3]]


@pytest.mark.parametrize("case", _C_READER_CASES, ids=[case[0] for case in _C_READER_CASES])
def test_corpus_split_matches_row_loop(tmp_path, split, case):
    _, data, delimiter, _ = case
    rows, fast, loaded = _parse_both(tmp_path, data, delimiter)
    _assert_bitwise(fast, rows)
    _assert_bitwise(loaded, rows)


# (name, file bytes, whether the input is split); the rows after the
# middle hold no data row in the cases that are not split
_SPLIT_CASES = [
    ("second-part-blank", b"1,2\n3,4\n5,6\n" + b"\n" * 12 + b"  \n\t\n", False),
    ("header", b"a,b\n1,2\n3,4\n5,6\n7,8\n", True),
    ("crlf", b"1,2\r\n3,4\r\n5,6\r\n7,8\r\n", True),
    ("whitespace-only-line-first-part", b"1,2\n  \n3,4\n5,6\n7,8\n9,1\n", True),
    ("whitespace-only-line-second-part", b"1,2\n3,4\n5,6\n7,8\n \t\n9,1\n", True),
    ("whitespace-only-lines-both-parts", b"1,2\n \n3,4\n5,6\n7,8\n\t\r\n9,1\n  ", True),
    ("whitespace-only-line-at-the-cut", b"1,2\n3,4\n5,6\n  \n  \n7,8\n9,1\n", True),
    ("single-data-row", b"a,b\n1,2\n", False),
    ("no-trailing-newline", b"1,2\n3,4\n5,6\n7,8", True),
    ("second-part-one-row", b"1,2\n3,4\n5,6\n7,8\n\n", True),
    ("whitespace-delimited", b"1 2\n 3\t4\n5 6 \n7  8\n", True),
    ("one-column", b"1\n2\n3\n4\n5\n6\n", True),
]


@pytest.mark.parametrize("case", _SPLIT_CASES, ids=[case[0] for case in _SPLIT_CASES])
def test_split_cases_match_row_loop(tmp_path, split, case):
    _, data, splits = case
    rows, fast, loaded = _parse_both(tmp_path, data)
    _assert_bitwise(fast, rows)
    _assert_bitwise(loaded, rows)
    assert len(split) == 2 * splits  # _read_fast and load_matrix


_MARKED_CASES = [(f"corpus-{name}", data, delimiter) for name, data, delimiter, _ in _C_READER_CASES]
_MARKED_CASES += [(name, data, None) for name, data, _ in _SPLIT_CASES]


@pytest.mark.parametrize("case", _MARKED_CASES, ids=[case[0] for case in _MARKED_CASES])
def test_byte_order_mark_leaves_the_array_bitwise(tmp_path, split, case):
    # the parse windows start after the mark; nothing copies the input
    _, data, delimiter = case
    rows, _, _ = _parse_both(tmp_path, data, delimiter)
    path = tmp_path / "bom.txt"
    path.write_bytes(cli._BOM + data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = cli._read_fast(cli._BOM + data, delimiter)
        loaded = load_matrix(str(path), delimiter)
    _assert_bitwise(fast, rows)
    _assert_bitwise(loaded, rows)


def _large_input(tmp_path, n=200, p=400):
    path = tmp_path / "large.csv"
    np.savetxt(path, np.random.default_rng(5).standard_normal((n, p)), delimiter=",")
    return path, n * p * 8


@pytest.mark.parametrize("bom", [b"", cli._BOM], ids=["no-mark", "mark"])
def test_split_parse_memory_beyond_the_input(tmp_path, split, bom):
    # the result, this process's part of it, and 64 KiB pieces of the byte
    # check: 1.53 x n p float64 here. Whole-input translate, the slice of
    # this process's part and, with a mark, a copy of the input without it
    # made 3.19 (no mark) and 6.37 (mark) at 3.2 bytes of input per float64
    path, unit = _large_input(tmp_path)
    data = bom + path.read_bytes()
    tracemalloc.start()
    try:
        load_matrix(str(path), data=data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * unit, f"{peak / unit:.2f} x n p float64"
    assert len(split) == 1


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


@pytest.mark.parametrize("data, parses", [
    # in the child's part: this process parses its own part once
    (b"1,2\n3,4\n5,6\n7,8\n \t\n9,1\n", [b"1,2\n3,4\n5,6\n"]),
    # in this process's part: it alone is parsed again, blanked
    (b"1,2\n \t\n3,4\n5,6\n7,8\n9,1\n", [b"1,2\n \t\n3,4\n5,6\n", b"1,2\n\n3,4\n5,6\n"]),
])
def test_whitespace_only_line_is_blanked_in_its_own_part(tmp_path, split, monkeypatch, data, parses):
    parsed = []
    loadtxt = cli._loadtxt

    def recorded(data, start, end, delim):
        parsed.append(data[start:end])
        return loadtxt(data, start, end, delim)

    monkeypatch.setattr(cli, "_loadtxt", recorded)
    rows, fast, _ = _parse_both(tmp_path, data)
    _assert_bitwise(fast, rows)
    assert parsed == parses * 2  # _read_fast and load_matrix


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
    assert cli._read_fast(data, delimiter) is None
    with pytest.raises(cli.DataError) as got:
        load_matrix(str(path), delimiter)
    assert str(got.value) == str(expected.value)
    assert len(split) == 2


def test_a_failed_child_exit_fails_the_split(split, monkeypatch):
    waitpid = os.waitpid
    monkeypatch.setattr(os, "waitpid", lambda pid, options: (waitpid(pid, options)[0], 1 << 8))
    assert cli._read_fast(b"1,2\n3,4\n5,6\n7,8\n", None) is None
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
    print(cli._read_fast(data, None) is not None)
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


def test_one_worker_never_forks(tmp_path, split, monkeypatch):
    monkeypatch.setattr(cli, "_WORKERS", 1)
    rows, fast, _ = _parse_both(tmp_path, b"1,2\n3,4\n5,6\n7,8\n")
    _assert_bitwise(fast, rows)
    assert split == []


def test_split_from_the_byte_threshold(monkeypatch):
    data = b"1,2\n3,4\n5,6\n7,8\n"
    monkeypatch.setattr(cli, "_WORKERS", 2)
    monkeypatch.setattr(cli, "_SPLIT_FROM_BYTES", len(data) + 1)
    assert cli._split_point(data, 0) is None
    monkeypatch.setattr(cli, "_SPLIT_FROM_BYTES", len(data))
    assert cli._split_point(data, 0) == data.index(b"7")


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


def test_fork_after_blas_threads_emits_no_warning(split):
    a = np.random.default_rng(4).standard_normal((400, 400))
    a @ a.T  # OpenBLAS starts its threads
    data = b"1,2\n3,4\n5,6\n7,8\n"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        matrix = cli._read_fast(data, None)
    assert caught == []
    assert matrix.tolist() == [[1, 2], [3, 4], [5, 6], [7, 8]]
    assert len(split) == 1
