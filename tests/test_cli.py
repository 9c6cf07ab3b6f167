"""Command-line behavior: parsing, reports, exit codes, determinism."""

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hdcp.cli as cli
from hdcp import HdcpError, LinearProcessSpec, SingularDesign, generate_series, single_change_profile
from hdcp.cli import (
    EXIT_DATA,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    build_design,
    load_matrix,
    main,
    parse_config,
)
from hdcp.simulator import _CHUNK, DESIGNS

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture
def change_file(tmp_path):
    spec = LinearProcessSpec(n=60, p=30, m_true=0, seed=70)
    x = generate_series(spec, single_change_profile(30, 1.8, sign_seed=70)).values
    path = tmp_path / "series.csv"
    np.savetxt(path, x, delimiter=",")
    return path


def test_load_matrix_delimiters(tmp_path):
    for delim, name in ((",", "c.csv"), ("\t", "t.tsv"), (";", "s.txt")):
        path = tmp_path / name
        path.write_text(f"1{delim}2\n3{delim}4\n")
        np.testing.assert_array_equal(load_matrix(str(path)), [[1, 2], [3, 4]])
    ws = tmp_path / "w.txt"
    ws.write_text("1 2\n3 4\n")
    np.testing.assert_array_equal(load_matrix(str(ws)), [[1, 2], [3, 4]])


def test_load_matrix_header_and_override(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("a,b\n1,2\n3,4\n")
    np.testing.assert_array_equal(load_matrix(str(path)), [[1, 2], [3, 4]])
    semi = tmp_path / "o.txt"
    semi.write_text("1;2\n3;4\n")
    np.testing.assert_array_equal(load_matrix(str(semi), ";"), [[1, 2], [3, 4]])


def test_load_matrix_error_locations(tmp_path):
    ragged = tmp_path / "r.csv"
    ragged.write_text("1,2\n3,4,5\n")
    with pytest.raises(cli.DataError, match="row 2"):
        load_matrix(str(ragged))
    bad = tmp_path / "b.csv"
    bad.write_text("1,2\n3,oops\n")
    with pytest.raises(cli.DataError, match="row 2, column 2"):
        load_matrix(str(bad))


# (name, file bytes, --delimiter, parsed by the C reader); every case parses.
# With a delimiter, numpy's C reader rejects a line of only spaces and tabs
# after the first data row, which the row loop skips.
_LOADER_CORPUS = [
    ("comma", b"1,2,3\n4,5,6\n", None, True),
    ("tab", b"1\t2\n3\t4\n", None, True),
    ("semicolon", b"1;2\n3;4\n", None, True),
    ("whitespace", b"1 2  3\n 4\t5 6 \n", None, True),
    ("override-semicolon", b"1;2\n3;4\n", ";", True),
    ("override-empty", b"1 2\n3 4\n", "", False),
    ("override-multichar", b"1::2\n3::4\n", "::", False),
    ("header", b"a,b\n1,2\n3,4\n", None, True),
    ("header-whitespace", b"x y\n1 2\n3 4\n", None, True),
    ("blank-lines", b"\n\n1,2\n\n3,4\n\n", None, True),
    ("whitespace-only-lines", b"1,2\n  \n3,4\n", None, False),
    ("whitespace-only-line-crlf", b"1,2\r\n  \r\n3,4\r\n", None, False),
    ("tab-only-line", b"1,2\n\t\n3,4\n", None, False),
    ("whitespace-only-lines-whitespace-delimited", b"1 2\n  \n3 4\n \t\r\n5 6\n", None, True),
    ("whitespace-only-line-before-header", b" \t\na,b\n1,2\n  \n3,4\n  ", None, False),
    ("whitespace-only-line-and-underscore", b"1,2\n  \n1_0,4\n", None, False),
    ("blank-then-header", b"\r\n \na,b\r\n\r\n1,2\r\n", None, True),
    ("crlf", b"1,2\r\n3,4\r\n", None, True),
    ("cr", b"a,b\r1,2\r3,4", None, False),
    ("no-trailing-newline", b"1,2\n3,4", None, True),
    ("one-row", b"1,2,3\n", None, True),
    ("one-column", b"1\n2\n3\n", None, True),
    ("one-value", b"7", None, True),
    ("special-values", b"nan,-0.0,1e308\n-nan,0.0,-1e308\ninf,-inf,4.9e-324\n", None, True),
    ("underscore", b"1_0,2\n3,4\n", None, False),
    ("space-padded", b" 1 , 2 \n3\t,\t4\n", None, True),
    ("padded-override", b" 1 ; 2\n3 ;4 \n", ";", True),
    ("signs-and-exponents", b"+1.5,-.5,1E+05\n1.,2e-3,0.1\n", None, True),
    ("form-feed", b"1 2\x0c3 4\n", None, False),
    ("vertical-tab", b"1,2\x0b3,4\n", None, False),
    ("non-ascii", "1,2\n3,٤\n".encode(), None, False),
    ("non-ascii-header", "α,β\n1,2\n3,4\n".encode(), None, False),
]


@pytest.mark.parametrize("case", _LOADER_CORPUS, ids=[case[0] for case in _LOADER_CORPUS])
def test_loader_c_reader_matches_row_loop(tmp_path, case):
    _, data, delimiter, c_reader = case
    path = tmp_path / "m.txt"
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = cli._read_rows(str(path), data.decode("utf-8"), delimiter)
        fast = cli._read_fast(cli._Bytes(data), delimiter)
        loaded = load_matrix(str(path), delimiter)
    assert (fast is not None) == c_reader
    for got in [loaded] + ([fast] if c_reader else []):
        assert got.dtype == rows.dtype and got.shape == rows.shape
        assert got.tobytes() == rows.tobytes()


@pytest.mark.parametrize("data", [
    b"1,2\n3,4,5\n", b"1,2\n3,x\n", b"1,2,\n3,4,\n", b"1,,2\n", b"1 2\n3 4 # c\n",
    b"\t1 2\n3 4\n", b"1,2\n3;4\n", b'"1",2\n',
])
def test_loader_rejections_come_from_the_row_loop(tmp_path, data):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    with pytest.raises(cli.DataError) as expected:
        cli._read_rows(str(path), data.decode("utf-8"), None)
    assert cli._read_fast(cli._Bytes(data), None) is None
    with pytest.raises(cli.DataError) as got:
        load_matrix(str(path))
    assert str(got.value) == str(expected.value)


def test_loader_header_only_and_blank_files(tmp_path):
    for data in (b"a,b\n", b"a,b\n  \n", b"\xef\xbb\xbfx y", b"\n \n", b""):
        path = tmp_path / "h.csv"
        path.write_bytes(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(cli.DataError, match="file contains no data rows"):
                load_matrix(str(path))


# "٤" is an Arabic-Indic 4, which float() accepts: non-ASCII input takes the row loop
@pytest.mark.parametrize("text", ["1.0,2.0\n3.0,4.0\n", "a,b\n1.0,2.0\n3.0,4.0\n",
                                  "1.0,2.0\n3.0,٤\n", "a,b\n1,2\n3,٤\n"])
def test_load_matrix_ignores_byte_order_mark(tmp_path, text):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    np.testing.assert_array_equal(load_matrix(str(path)), [[1, 2], [3, 4]])


def test_detect_parses_the_bytes_it_hashes(tmp_path, forks, monkeypatch, capsys):
    # The file is hashed, then read again, a 64 KiB block at a time, as it
    # is parsed in two parts. A change in between, in this process's part
    # or in the forked child's part, is a data error: the report would
    # describe bytes that were not parsed. The child's failed part sends
    # the parse to the row loop, whose read sees the change too. The rows
    # edited lie in blocks that only their own part reads, and every edit
    # keeps the file's size.
    monkeypatch.setattr(cli, "_SPLIT_FROM_BYTES", 0)
    path = tmp_path / "series.csv"
    np.savetxt(path, np.random.default_rng(9).standard_normal((60, 400)), delimiter=",")
    original = path.read_bytes()
    lines = original.splitlines(keepends=True)
    edits = []
    read_fast = cli._read_fast

    def change_then_read(source, delimiter):
        path.write_bytes(edits.pop() if edits else original)
        return read_fast(source, delimiter)

    monkeypatch.setattr(cli, "_read_fast", change_then_read)
    assert main(["detect", "--input", str(path), "--m", "0"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["input"]["sha256"] == hashlib.sha256(original).hexdigest()
    assert report["input"]["n"] == 60
    for row in (10, 50):  # in this process's part, in the child's part
        path.write_bytes(original)
        edited = lines[row].replace(b"e-0", b"e+0", 1)
        assert len(edited) == len(lines[row]) and edited != lines[row]
        edits.append(b"".join(lines[:row] + [edited] + lines[row + 1 :]))
        assert main(["detect", "--input", str(path), "--m", "0"]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"data error: {path}: input changed while it was read\n"
    assert len(forks) == 3


def test_detect_constant_series(tmp_path, capsys):
    path = tmp_path / "const.csv"
    np.savetxt(path, np.full((20, 4), 3.0), delimiter=",")
    out = tmp_path / "rep.json"
    code = main(["detect", "--input", str(path), "--m", "0", "--output", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["change_points"] == []
    assert report["global_test"]["degenerate"] is True
    assert any("degenerate" in w for w in report["warnings"])


def test_detect_finds_change_and_roundtrips(change_file, tmp_path):
    out = tmp_path / "rep.json"
    code = main(["detect", "--input", str(change_file), "--m", "0",
                 "--output", str(out), "--trace"])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["change_points"] == [30]
    assert report["input"]["n"] == 60 and report["input"]["p"] == 30
    # lossless round trip through serialization
    again = json.loads(json.dumps(report))
    assert again == report
    ltrace = (tmp_path / "rep.ltrace.tsv").read_text().splitlines()
    assert ltrace[0] == "t\tl_trace"
    assert len(ltrace) == 60  # header + n - 1 rows


def test_detect_auto_records_elbow(change_file, tmp_path):
    out = tmp_path / "rep.json"
    code = main(["detect", "--input", str(change_file), "--m", "auto",
                 "--h-max", "3", "--output", str(out), "--trace"])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["settings"]["m_mode"] == "auto"
    assert len(report["elbow"]["w_hat"]) == 4
    assert (tmp_path / "rep.elbow.tsv").exists()


def test_detect_deterministic_bytes(change_file, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["detect", "--input", str(change_file), "--m", "0", "--output", str(out1)])
    main(["detect", "--input", str(change_file), "--m", "0", "--output", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_exit_codes(tmp_path):
    assert main(["detect", "--input", "/does/not/exist.csv"]) == EXIT_DATA
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,x\n")
    assert main(["detect", "--input", str(bad)]) == EXIT_DATA
    short = tmp_path / "short.csv"
    np.savetxt(short, np.ones((6, 2)), delimiter=",")
    assert main(["detect", "--input", str(short), "--m", "2"]) == EXIT_DATA
    assert main(["detect", "--input", str(short), "--m", "nope"]) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE


def _unreadable_input(tmp_path, kind):
    if kind == "directory":
        return tmp_path, "Is a directory"
    path = tmp_path / "input.txt"
    if kind == "not-utf8":
        path.write_bytes(b"\xff\xfe1,2\n3,4\n")
        return path, "can't decode"
    path.write_text("a,b\n")  # header row only
    return path, "file contains no data rows"


@pytest.mark.parametrize("kind", ["directory", "not-utf8", "header-only"])
def test_unreadable_detect_input_is_data_error(tmp_path, capsys, kind):
    path, message = _unreadable_input(tmp_path, kind)
    assert main(["detect", "--input", str(path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_simulate_config_is_data_error(tmp_path, capsys, kind):
    path, message = _unreadable_input(tmp_path, kind)
    assert main(["simulate", "--config", str(path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert message in err
    assert "Traceback" not in err


def test_singular_design_exit_code(change_file, monkeypatch):
    def boom(*args, **kwargs):
        raise SingularDesign("synthetic failure")

    monkeypatch.setattr(cli, "lag_energy_curve", boom)
    assert main(["detect", "--input", str(change_file), "--m", "auto"]) == EXIT_NUMERICAL


def test_parse_config_schema(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# comment\ndesign = size_power\nn = 40\n")
    assert parse_config(str(cfg))["design"] == "size_power"
    dup = tmp_path / "d.cfg"
    dup.write_text("design = x\ndesign = y\n")
    with pytest.raises(cli.DataError, match="duplicate"):
        parse_config(str(dup))
    missing = tmp_path / "m.cfg"
    missing.write_text("n = 40\n")
    with pytest.raises(cli.DataError, match="design"):
        parse_config(str(missing))


def test_simulate_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "design = size_power\nn = 40\np = 20\nm_true = 0\nm_used = 0\n"
        "reps = 4\nseed = 1\nbogus = 7\n"
    )
    assert main(["simulate", "--config", str(cfg)]) == EXIT_DATA


def test_simulate_runs_and_is_worker_invariant(tmp_path, monkeypatch):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "design = size_power\nn = 40\np = 20\nm_true = 0\nm_used = 0\n"
        "reps = 10\nseed = 5\n"
    )
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["simulate", "--config", str(cfg), "--output", str(out1)]) == EXIT_OK
    monkeypatch.setenv("HDCP_WORKERS", "2")
    assert main(["simulate", "--config", str(cfg), "--output", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["design_name"] == "size_power"
    assert report["master_seed"] == 5
    assert 0.0 <= report["results"]["rejection_rate"] <= 1.0


def test_simulate_seed_override(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "design = size_power\nn = 40\np = 20\nm_true = 0\nm_used = 0\n"
        "reps = 4\nseed = 5\n"
    )
    out = tmp_path / "r.json"
    main(["simulate", "--config", str(cfg), "--seed", "9", "--output", str(out)])
    assert json.loads(out.read_text())["master_seed"] == 9


def test_simulate_multi_cp_and_elbow_configs(tmp_path):
    multi = tmp_path / "multi.cfg"
    multi.write_text(
        "design = multi_cp\nn = 60\np = 20\nm_true = 0\nm_used = 0\n"
        "change_points = 30\ndeltas = 0, 2.0\nreps = 4\nseed = 2\nfwer = true\n"
    )
    out = tmp_path / "m.json"
    assert main(["simulate", "--config", str(multi), "--output", str(out)]) == EXIT_OK
    res = json.loads(out.read_text())["results"]
    assert set(res) >= {"design", "fp", "fn", "tp"}

    elbow = tmp_path / "elbow.cfg"
    elbow.write_text(
        "design = elbow_curve\nn = 40\np = 20\nm_true = 0\nh_max = 2\n"
        "reps = 3\nseed = 2\n"
    )
    out2 = tmp_path / "e.json"
    assert main(["simulate", "--config", str(elbow), "--output", str(out2)]) == EXIT_OK
    curves = json.loads(out2.read_text())["results"]["curves"]
    assert len(curves) == 1 and len(curves[0]["w_hat_mean"]) == 3


@pytest.mark.parametrize(
    "flags",
    [
        ["--m", "0", "--alpha", "2"],
        ["--m", "auto", "--drop-ratio", "5"],
        ["--m", "auto", "--h-max", "-1"],
    ],
    ids=["alpha", "drop-ratio", "h-max"],
)
def test_invalid_detect_flag_is_usage_error(change_file, capsys, flags):
    code = main(["detect", "--input", str(change_file), *flags])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert flags[-2] in err
    assert "Traceback" not in err


def test_detect_auto_short_series_clamps_h_max(tmp_path):
    path = tmp_path / "six.csv"
    np.savetxt(path, np.random.default_rng(3).standard_normal((6, 3)), delimiter=",")
    out = tmp_path / "rep.json"
    code = main(["detect", "--input", str(path), "--m", "auto", "--output", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["elbow"]["h"] == [0]
    assert report["settings"]["m_used"] == 0
    # an explicit order that the series cannot host is still a data error
    code = main(["detect", "--input", str(path), "--m", "auto", "--h-max", "1"])
    assert code == EXIT_DATA


def test_detect_over_deep_h_max_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "forty.csv"
    np.savetxt(path, np.random.default_rng(4).standard_normal((40, 3)), delimiter=",")
    code = main(["detect", "--input", str(path), "--m", "auto", "--h-max", "13"])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "h_max <= 12" in err


@pytest.mark.parametrize("scale,m", [
    # a finite Gram whose separated sums overflow, in the elbow or in the
    # trace table of the order given
    (1e80, "auto"),
    (1e100, "auto"),
    (1e140, "auto"),
    (1e80, "1"),
    (1e100, "1"),
    # a Gram that overflows, with the order given or chosen
    (1e200, "1"),
    (1e200, "auto"),
])
@pytest.mark.filterwarnings("error")
def test_detect_overflow_is_a_data_error(tmp_path, capsys, scale, m):
    path = tmp_path / "huge.csv"
    np.savetxt(path, np.random.default_rng(5).standard_normal((60, 5)) * scale, delimiter=",")
    out = tmp_path / "rep.json"
    assert main(["detect", "--input", str(path), "--m", m, "--output", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "overflow float64" in err
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("m", ["1", "auto"])
@pytest.mark.filterwarnings("error")
def test_detect_near_overflow_gram_is_a_data_error(tmp_path, capsys, m):
    # one entry 1.2e154: its row's inner product with itself, about
    # 1.44e308, is finite, but twice it is not; the run fails in whichever
    # stage first sums it twice
    values = np.random.default_rng(6).standard_normal((60, 3))
    values[29, 1] = 1.2e154
    path = tmp_path / "near.csv"
    np.savetxt(path, values, delimiter=",")
    out = tmp_path / "rep.json"
    assert main(["detect", "--input", str(path), "--m", m, "--output", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "overflow float64" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("delta", [
    1e80,   # the Gram is finite, the trace table's separated sums overflow
    1e200,  # the Gram overflows
])
def test_simulate_overflow_is_one_data_error_line(tmp_path, delta, workers):
    # every replication overflows, the first inside a whole chunk; a fresh
    # process, so that the forked workers' stderr is the one read here
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(
        "design = size_power\nn = 40\np = 10\nm_true = 0\nm_used = 0\n"
        f"reps = {2 * _CHUNK + 1}\ndelta = {delta}\ntau = 20\nseed = 1\n"
    )
    out = tmp_path / "rep.json"
    env = dict(os.environ, HDCP_WORKERS=workers, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-m", "hdcp", "simulate", "--config", str(cfg), "--output", str(out)],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == EXIT_DATA
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error:"), run.stderr
    assert "overflow float64" in lines[0]
    assert not out.exists()


def test_detect_min_seg_below_floor_fails_before_the_gram(change_file, capsys, monkeypatch):
    def no_gram(*args, **kwargs):
        raise AssertionError("Gram built for an infeasible --min-seg")

    monkeypatch.setattr("hdcp.engine.compute_gram", no_gram)
    code = main(["detect", "--input", str(change_file), "--m", "2", "--min-seg", "3"])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err == "data error: min_segment_len=3 below the feasibility floor 2(M+2)=8\n"


def test_detect_series_holds_the_parsed_array(change_file, tmp_path, monkeypatch):
    # the input is held once: the series is the parsed array, not a copy
    parsed, series = [], []
    compute_gram = cli.compute_gram

    def loaded(*args):
        parsed.append(load_matrix(*args))
        return parsed[-1]

    def gram_of(s):
        series.append(s)
        return compute_gram(s)

    monkeypatch.setattr(cli, "load_matrix", loaded)
    monkeypatch.setattr(cli, "compute_gram", gram_of)
    code = main(["detect", "--input", str(change_file), "--m", "1", "--output", str(tmp_path / "r.json")])
    assert code == EXIT_OK
    assert len(parsed) == len(series) == 1
    assert np.shares_memory(series[0].values, parsed[0])


_SIZE = "design = size_power\nn = 40\np = 20\nm_true = 0\nm_used = 0\nreps = 4\n"
_MULTI = "design = multi_cp\nn = 40\np = 20\nm_true = 0\nm_used = 0\nreps = 4\n"
_BOUNDARY = ("design = boundary_curve\nn = 40\np = 20\nm_true = 0\nm_used = 0\n"
             "deltas = 1.0\nreps = 4\n")
_ELBOW = "design = elbow_curve\nn = 40\np = 20\nm_true = 0\nreps = 4\n"
# the sparse perturbation is drawn only at m_true > 0
_PERTURBED = _SIZE.replace("m_true = 0", "m_true = 1") + "perturb_sparsity = 0.5\n"


@pytest.mark.parametrize(
    "text",
    [
        _SIZE + "rho = 1.5\n",
        _SIZE + "perturb_sparsity = 2\n",
        _SIZE + "innovation = cauchy\n",
        _SIZE + "alpha = 2\n",
        _MULTI + "alpha = 0\n",
        _SIZE + "delta = 0.5\n",
        _SIZE + "delta = 0.5\ntau = 90\n",
        _BOUNDARY + "tau = 60\n",
        _MULTI + "change_points = 20\n",
        _MULTI + "change_points = 20, 10\ndeltas = 0, 1, 0\n",
        _ELBOW + "h_max = -1\n",
        _ELBOW + "h_max = 2\ndrop_ratio = 5\n",
        _SIZE.replace("reps = 4", "reps = 0"),
        _ELBOW.replace("m_true = 0", "m_true = ") + "h_max = 2\n",
        _BOUNDARY.replace("deltas = 1.0", "deltas = ") + "tau = 20\n",
        _MULTI.replace("n = 40", "n = 60")
        + "change_points = 30\ndeltas = 0, 2.0\ntolerance_pts = -5\n",
        _MULTI + "min_seg = -3\n",
        _PERTURBED + "perturb_scale = -1\n",
        _PERTURBED + "perturb_scale = nan\n",
        _PERTURBED + "perturb_scale = inf\n",
        _SIZE + "innovation = student_t\nt_dof = nan\n",
        _SIZE + "innovation = student_t\nt_dof = inf\n",
        _SIZE + "delta = nan\ntau = 20\n",
        _BOUNDARY.replace("deltas = 1.0", "deltas = 1, inf") + "tau = 20\n",
    ],
    ids=["rho", "perturb_sparsity", "innovation", "alpha-size", "alpha-multi",
         "delta-without-tau", "tau-size", "tau-boundary", "deltas-missing",
         "change-points-order", "h-max", "drop-ratio", "reps", "no-orders",
         "no-deltas", "tolerance-pts", "min-seg-floor", "perturb-scale-negative",
         "perturb-scale-nan", "perturb-scale-inf", "t-dof-nan", "t-dof-inf",
         "delta-nan", "deltas-inf"],
)
def test_invalid_simulate_config_is_data_error(tmp_path, capsys, monkeypatch, text):
    def no_replications(*args, **kwargs):
        raise AssertionError("replications started for an invalid design")

    monkeypatch.setattr("hdcp.simulator._map_replications", no_replications)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["simulate", "--config", str(cfg)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: invalid config:")
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", ""])
def test_malformed_worker_count_is_usage_error(tmp_path, capsys, monkeypatch, value):
    def no_replications(*args, **kwargs):
        raise AssertionError("replications started with a malformed HDCP_WORKERS")

    monkeypatch.setattr("hdcp.simulator._map_replications", no_replications)
    monkeypatch.setenv("HDCP_WORKERS", value)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(_SIZE)
    assert main(["simulate", "--config", str(cfg)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: HDCP_WORKERS")
    assert repr(value) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("error", HdcpError.__subclasses__(), ids=lambda e: e.__name__)
def test_every_package_error_has_its_exit_code(monkeypatch, capsys, error):
    def boom(args):
        raise error("synthetic failure")

    monkeypatch.setattr(cli, "cmd_detect", boom)
    code = main(["detect", "--input", "unused.csv"])
    err = capsys.readouterr().err
    if error is SingularDesign:
        assert code == EXIT_NUMERICAL
        assert err == "numerical failure: synthetic failure\n"
    else:
        assert code == EXIT_DATA
        assert err == "data error: synthetic failure\n"


# Config keys of each design as the per-design key lists of the CLI gave
# them: (required keys with valid values, optional keys with valid values).
_PROCESS_KEYS = (
    {"n": "40", "p": "20", "reps": "4"},
    {"seed": "3", "innovation": "student_t", "t_dof": "5", "rho": "0.4",
     "perturb_sparsity": "0.2", "perturb_scale": "0.1"},
)
_DESIGN_KEYS = {
    "size_power": ({"m_true": "0", "m_used": "0"},
                   {"alpha": "0.1", "delta": "1.5", "tau": "20"}),
    "multi_cp": ({"m_true": "0", "m_used": "0"},
                 {"change_points": "20", "deltas": "0, 2", "alpha": "0.1", "fwer": "yes",
                  "tolerance_pts": "2", "min_seg": "6"}),
    "boundary_curve": ({"m_true": "0", "m_used": "0", "tau": "20", "deltas": "1, 2"}, {}),
    "elbow_curve": ({"m_true": "0, 1", "h_max": "2"},
                    {"drop_ratio": "0.1", "change_points": "20", "deltas": "0, 1"}),
}


@pytest.mark.parametrize("name", sorted(_DESIGN_KEYS))
def test_simulate_config_schema(name):
    required = {**_PROCESS_KEYS[0], **_DESIGN_KEYS[name][0]}
    optional = {**_PROCESS_KEYS[1], **_DESIGN_KEYS[name][1]}
    accepted = set(required) | set(optional)
    design_type = DESIGNS[name][0]
    assert {f.metadata.get("key", f.name) for f in dataclasses.fields(design_type)} == accepted

    assert build_design({"design": name, **required, **optional})[0] == name
    assert build_design({"design": name, **required})[0] == name
    for key in required:
        cfg = {"design": name, **required}
        del cfg[key]
        with pytest.raises(cli.DataError) as exc:
            build_design(cfg)
        assert str(exc.value) == f"config is missing required key {key!r}"

    foreign = {key for req, opt in _DESIGN_KEYS.values() for key in (*req, *opt)}
    foreign |= {f.name for f in dataclasses.fields(design_type)}
    for key in sorted(foreign - accepted):
        with pytest.raises(cli.DataError, match=re.escape(f"unknown config keys: [{key!r}]")):
            build_design({"design": name, **required, key: "1"})


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
def test_shipped_config_builds(path):
    name, design = build_design(parse_config(str(path)))
    assert isinstance(design, DESIGNS[name][0])


_SUMMARY_CASES = {
    "size_power": (
        "n = 40\np = 20\nm_true = 0\nm_used = 0\nreps = 6\ndelta = 0.6\ntau = 20\nseed = 3\n",
        ["rejection rate 0.1667 (se 0.1521, reps 6)"],
    ),
    "multi_cp": (
        "n = 60\np = 20\nm_true = 0\nm_used = 0\nreps = 6\nchange_points = 30\n"
        "deltas = 0, 1.0\nseed = 2\n",
        ["FP 0.500 (sd 0.837)", "FN 0.500 (sd 0.548)", "TP 0.500 (sd 0.548)"],
    ),
    "boundary_curve": (
        "n = 40\np = 20\nm_true = 0\nm_used = 0\nreps = 6\ntau = 20\n"
        "deltas = 0.5, 1, 2\nseed = 4\n",
        ["delta 0.5: detection 0.000 (se 0.000)", "delta 1: detection 0.000 (se 0.000)",
         "delta 2: detection 1.000 (se 0.000)"],
    ),
    "elbow_curve": (
        "n = 40\np = 20\nm_true = 0, 1\nreps = 6\nh_max = 2\nseed = 2\n",
        ["m_true 0: recovery 0.50", "m_true 1: recovery 1.00"],
    ),
}


@pytest.mark.parametrize("name", sorted(_SUMMARY_CASES))
def test_simulate_summary_lines(tmp_path, capsys, name):
    text, lines = _SUMMARY_CASES[name]
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"design = {name}\n{text}")
    out = tmp_path / "r.json"
    assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == EXIT_OK
    seed = re.search(r"seed = (\d+)", text).group(1)
    assert capsys.readouterr().out.splitlines() == [
        f"design {name}, master seed {seed}",
        *("  " + line for line in lines),
        f"results written to {out}",
    ]
