import json
import re

import numpy as np
import pytest

from curveann import cli
from curveann.errors import ParseError


def write_curves(path, records):
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")


def curve_file(tmp_path, records, name="curves.jsonl"):
    path = tmp_path / name
    write_curves(path, records)
    return str(path)


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_read_curve_file_ok(tmp_path):
    path = curve_file(tmp_path, [
        {"id": "a", "points": [[0.0], [1.0]]},
        {"id": "b", "points": [[2.0], [3.0]]},
    ])
    curves = cli.read_curve_file(path)
    assert [c.id for c in curves] == ["a", "b"]


def test_read_curve_file_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    lines = [json.dumps({"id": f"c{i}", "points": [[0.0]]}) for i in range(6)]
    lines.append("{not json")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as exc:
        cli.read_curve_file(str(path))
    assert exc.value.line == 7
    assert ":7:" in str(exc.value)


def test_read_curve_file_mixed_dimension(tmp_path):
    path = curve_file(tmp_path, [
        {"id": "a", "points": [[0.0]]},
        {"id": "b", "points": [[0.0, 1.0]]},
    ])
    with pytest.raises(ParseError) as exc:
        cli.read_curve_file(path)
    assert exc.value.line == 2


def test_build_stats_report(tmp_path, capsys):
    inp = curve_file(tmp_path, [{"id": "only", "points": [[0.0]]}])
    out = str(tmp_path / "idx.annc")
    code, stdout, _ = run(
        ["build", "--input", inp, "--radius", "1", "--epsilon", "1", "--out", out], capsys
    )
    assert code == 0
    assert "candidates\tonly\t3" in stdout
    assert "dictionary\tL=1\t3" in stdout


def test_build_prints_stage_times_on_stderr_only(tmp_path, capsys):
    inp = curve_file(tmp_path, [{"id": "only", "points": [[0.0]]}])
    out = str(tmp_path / "idx.annc")
    code, stdout, stderr = run(["build", "--input", inp, "--radius", "1", "--out", out], capsys)
    assert code == 0
    lines = stderr.splitlines()
    assert [line.split(" seconds: ")[0] for line in lines[:3]] == ["build", "enumerate", "fold"]
    assert len(lines) == 4 and lines[3].startswith("capacity L=1: ")
    assert "seconds" not in stdout and "capacity" not in stdout


def _capacity_lines(argv, inp, capsys):
    """Run ``argv``, a build of the curves in ``inp``; its ``capacity``
    lines on stderr, parsed, and the same index fitted in process."""
    code, _, stderr = run(argv, capsys)
    assert code == 0
    pattern = (r"capacity L=(\d+): largest (\d+) keys \((?:curve (.+)|no curve)\) "
               r"of max_candidates (\d+)")
    lines = [line for line in stderr.splitlines() if line.startswith("capacity ")]
    parsed = []
    for line in lines:
        match = re.fullmatch(pattern, line)
        assert match, line
        L, most, cid, limit = match.groups()
        parsed.append((int(L), int(most), cid, int(limit)))
    idx = cli._index_from_args(cli.build_parser().parse_args(argv)).fit(cli.read_curve_file(inp))
    return parsed, idx


def test_build_prints_the_largest_key_count_per_length_on_stderr(tmp_path, capsys):
    """After the stage timers, one line per query length names the curve
    with the most keys, its count and ``max_candidates``: the figures of
    ``stats_["candidates"]``. A length no curve was built for (asym curves
    with no 1-vertex simplification within 2r) names no curve."""
    records = [
        {"id": "a", "points": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.5]]},
        {"id": "b", "points": [[0.0, 3.0], [0.3, 3.0]]},
        {"id": "c", "points": [[5.0, 5.0]]},
    ]
    inp = curve_file(tmp_path, records)
    argv = ["build", "--input", inp, "--radius", "1", "--epsilon", "0.5", "--lengths", "1", "2",
            "--max-candidates", "5000", "--out", str(tmp_path / "idx.annc")]
    lines, idx = _capacity_lines(argv, inp, capsys)
    per_curve = idx.stats_["candidates"]
    assert [L for L, *_ in lines] == sorted(idx.dicts_) == [1, 2]
    for L, most, cid, limit in lines:
        assert most == max(keys[L] for keys in per_curve.values()) == per_curve[cid][L] > 0
        assert limit == idx.max_candidates == 5000
    inp = curve_file(tmp_path, records[:2], name="long.jsonl")
    argv = ["build", "--input", inp, "--radius", "0.1", "--k", "1", "--out", str(tmp_path / "a")]
    lines, idx = _capacity_lines(argv, inp, capsys)
    assert idx.stats_["skipped"] == ["a", "b"] and not idx.stats_["candidates"]
    assert lines == [(1, 0, None, idx.max_candidates)]


def test_build_then_query(tmp_path, capsys):
    inp = curve_file(tmp_path, [
        {"id": "a", "points": [[0.0], [1.0]]},
        {"id": "b", "points": [[30.0], [31.0]]},
    ])
    out = str(tmp_path / "idx.annc")
    code, _, _ = run(["build", "--input", inp, "--radius", "1", "--out", out], capsys)
    assert code == 0
    queries = curve_file(tmp_path, [
        {"id": "q0", "points": [[0.1], [1.1]]},
        {"id": "q1", "points": [[500.0], [501.0]]},
    ], name="queries.jsonl")
    code, stdout, _ = run(["query", "--index", out, "--queries", queries], capsys)
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "q0\ta\t2"
    assert lines[1] == "q1\tNO\t2"


def test_count_command(tmp_path, capsys):
    inp = curve_file(tmp_path, [
        {"id": "a", "points": [[0.0]]},
        {"id": "b", "points": [[0.0]]},
    ])
    out = str(tmp_path / "idx.annc")
    run(["build", "--input", inp, "--radius", "1", "--mode", "count", "--out", out], capsys)
    queries = curve_file(tmp_path, [{"id": "q", "points": [[0.0]]}], name="q.jsonl")
    code, stdout, _ = run(["count", "--index", out, "--queries", queries], capsys)
    assert code == 0
    assert stdout.strip() == "q\t2"


def test_simplify_command(tmp_path, capsys):
    inp = curve_file(tmp_path, [
        {"id": "flat", "points": [[0.0], [0.0], [0.0]]},
        {"id": "wide", "points": [[0.0], [10.0]]},
    ])
    code, stdout, _ = run(["simplify", "--input", inp, "--k", "1", "--radius", "1"], capsys)
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0].startswith("flat\t")
    assert json.loads(lines[0].split("\t")[1]) == [[0.0]]
    assert lines[1] == "wide\tINFEASIBLE"


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text("{broken\n")
    out = str(tmp_path / "idx.annc")
    code, _, stderr = run(
        ["build", "--input", str(path), "--radius", "1", "--out", out], capsys
    )
    assert code == cli.EXIT_PARSE
    assert ":1:" in stderr


def test_empty_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    code, _, _ = run(
        ["build", "--input", str(path), "--radius", "1", "--out", str(tmp_path / "o")], capsys
    )
    assert code == cli.EXIT_PARSE


def test_capacity_exit_code(tmp_path, capsys):
    inp = curve_file(tmp_path, [{"id": "a", "points": [[0.0], [1.0], [2.0]]}])
    code, _, stderr = run(
        ["build", "--input", inp, "--radius", "1", "--max-candidates", "2",
         "--out", str(tmp_path / "o")],
        capsys,
    )
    assert code == cli.EXIT_CAPACITY
    assert "a" in stderr


@pytest.mark.parametrize("command", ["build", "bench"])
def test_k_outside_the_asymmetric_mode_is_a_usage_error(tmp_path, capsys, command):
    inp = curve_file(tmp_path, [{"id": "a", "points": [[0.0], [1.0], [2.0]]}])
    out = tmp_path / "o"
    argv = {
        "build": ["build", "--input", inp, "--out", str(out)],
        "bench": ["bench", "--n", "4", "--seed", "1"],
    }[command]
    code, stdout, stderr = run(argv + ["--radius", "1", "--mode", "count", "--k", "2"], capsys)
    assert code == cli.EXIT_PARSE
    assert stdout == ""
    assert len(stderr.splitlines()) == 1 and "asymmetric mode only" in stderr
    assert not out.exists()


@pytest.mark.parametrize("flags, error", [
    (["--lengths", "0"], "error: query lengths must be >= 1"),
    (["--metric", "p=0.5"], "error: metric exponent must be >= 1, got 0.5"),
    (["--lengths"], "error: at least one query length is required"),
    # --k selects the asymmetric mode, whose only query length is k
    (["--k", "2", "--lengths", "3"],
     "error: query_lengths is not for the asymmetric mode, which answers length-k queries only"),
    # a later --radius overrides --radius 1
    (["--radius", "inf"], "error: r must be positive and finite"),
    (["--radius", "nan"], "error: r must be positive and finite"),
])
def test_bad_lengths_and_metrics_are_usage_errors(tmp_path, capsys, flags, error):
    inp = curve_file(tmp_path, [{"id": "a", "points": [[0.0], [1.0]]}])
    out = tmp_path / "o"
    code, stdout, stderr = run(
        ["build", "--input", inp, "--radius", "1", "--out", str(out)] + flags, capsys
    )
    assert code == cli.EXIT_PARSE
    assert stdout == ""
    assert stderr.splitlines() == [error]
    assert not out.exists()


@pytest.mark.parametrize("built, command, serves", [("nn", "count", "query"),
                                                     ("count", "query", "count")])
def test_a_command_for_the_other_mode_is_a_usage_error(tmp_path, capsys, built, command, serves):
    """``count`` on a near-neighbor index, or ``query`` on a counting one,
    ends with one error line and exit code 2 before it reads the queries:
    a missing query file is not reported."""
    inp = curve_file(tmp_path, [{"id": "a", "points": [[0.0], [1.0]]}])
    out = str(tmp_path / "idx.annc")
    run(["build", "--input", inp, "--radius", "1", "--mode", built, "--out", out], capsys)
    queries = str(tmp_path / "missing.jsonl")
    code, stdout, stderr = run([command, "--index", out, "--queries", queries], capsys)
    assert code == cli.EXIT_PARSE
    assert stdout == ""
    assert stderr.splitlines() == [f"error: {out} is an index of mode {built}: use curveann {serves}"]


def test_format_exit_code(tmp_path, capsys):
    bad = tmp_path / "junk.annc"
    bad.write_bytes(b"JUNKJUNKJUNK" + b"\x00" * 64)
    queries = curve_file(tmp_path, [{"id": "q", "points": [[0.0]]}], name="q.jsonl")
    code, _, _ = run(["query", "--index", str(bad), "--queries", queries], capsys)
    assert code == cli.EXIT_FORMAT


@pytest.mark.parametrize("case", ["missing index", "missing input", "unwritable out"])
def test_files_that_cannot_be_read_or_written_are_usage_errors(tmp_path, capsys, case):
    """A missing index or curve file, or an output path in a missing
    directory, ends with one error line on stderr and exit code 2, not a
    traceback. An output that cannot be written fails before the build
    prints anything."""
    inp = curve_file(tmp_path, [{"id": "a", "points": [[0.0], [1.0]]}])
    missing = str(tmp_path / "missing" / "file")
    argv = {
        "missing index": ["query", "--index", missing, "--queries", inp],
        "missing input": ["build", "--input", missing, "--radius", "1",
                          "--out", str(tmp_path / "o")],
        "unwritable out": ["build", "--input", inp, "--radius", "1", "--out", missing],
    }[case]
    code, stdout, stderr = run(argv, capsys)
    assert code == cli.EXIT_PARSE
    assert len(stderr.splitlines()) == 1
    assert stderr.startswith("error: ") and missing in stderr
    assert stdout == ""


def test_a_failed_build_leaves_the_old_index(tmp_path, capsys):
    """A build writes its index beside ``--out`` and renames it onto
    ``--out``: the index gets the permissions of a file ``open`` makes,
    and a build that fails leaves the old index and no other file."""
    inp = curve_file(tmp_path, [{"id": "a", "points": [[0.0], [1.0]]}])
    out = tmp_path / "idx.annc"
    assert run(["build", "--input", inp, "--radius", "1", "--out", str(out)], capsys)[0] == 0
    (tmp_path / "plain").touch()
    assert out.stat().st_mode == (tmp_path / "plain").stat().st_mode
    before = out.read_bytes()
    code, _, stderr = run(["build", "--input", inp, "--radius", "1", "--epsilon", "0.1",
                           "--max-candidates", "1", "--out", str(out)], capsys)
    assert code == cli.EXIT_CAPACITY and stderr.startswith("error: ")
    assert out.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["curves.jsonl", "idx.annc", "plain"]


def test_bench_runs_clean(tmp_path, capsys):
    csv_path = str(tmp_path / "bench.csv")
    code, stdout, _ = run(
        ["bench", "--radius", "1", "--epsilon", "1", "--n", "8", "--m", "2",
         "--d", "1", "--seed", "3", "--out", csv_path],
        capsys,
    )
    assert code == 0
    assert "violations: 0" in stdout
    assert "false_positives: 0" in stdout
    with open(csv_path) as f:
        header = f.readline().strip()
    assert header == "workload,metric,eps,r,n,m,d,violations,false_pos,p50_us,p99_us"


def test_bench_counting_mode(capsys):
    code, stdout, _ = run(
        ["bench", "--radius", "1", "--epsilon", "1", "--mode", "count",
         "--metric", "dtw", "--n", "6", "--m", "2", "--d", "1", "--seed", "5"],
        capsys,
    )
    assert code == 0
    assert "count_mismatches: 0" in stdout


def test_query_reports_bad_length_but_continues(tmp_path, capsys):
    inp = curve_file(tmp_path, [{"id": "a", "points": [[0.0], [1.0]]}])
    out = str(tmp_path / "idx.annc")
    run(["build", "--input", inp, "--radius", "1", "--out", out], capsys)
    queries = curve_file(tmp_path, [
        {"id": "short", "points": [[0.0]]},
        {"id": "ok", "points": [[0.0], [1.0]]},
    ], name="q.jsonl")
    code, stdout, stderr = run(["query", "--index", out, "--queries", queries], capsys)
    assert code == 0
    assert "short\tERROR" in stderr
    assert stdout.strip().splitlines() == ["ok\ta\t2"]
