"""Command line interface tests, run in process through cli.main."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from cdtw import cli
from cdtw.baselines import dtw
from cdtw.cli import main
from cdtw.errors import InvariantViolation

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


@pytest.fixture
def deadline():
    """Fail a test that runs for more than 60 s instead of letting it hang."""
    def expire(signum, frame):
        raise TimeoutError("still running after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def pair(tmp_path):
    a = write(tmp_path, "a.csv", "0\n1\n")
    b = write(tmp_path, "b.csv", "0.5\n1.5\n")
    return a, b


class TestCompute:
    def test_identical_files_zero(self, tmp_path, capsys):
        a = write(tmp_path, "a.csv", "0\n1\n2\n")
        b = write(tmp_path, "b.csv", "0\n1\n2\n")
        assert main(["compute", a, b]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == 0
        assert out["measure"] == "cdtw"
        assert out["n"] == 3 and out["m"] == 3

    def test_shifted_pair_value(self, pair, capsys):
        assert main(["compute", *pair]) == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["value"] - 0.25) <= 1e-6

    def test_grid_requires_resolution(self, pair, capsys):
        assert main(["compute", *pair, "--measure", "cdtw-grid"]) == 2
        assert "resolution" in capsys.readouterr().err

    def test_grid_with_resolution(self, pair, capsys):
        rc = main(["compute", *pair, "--measure", "cdtw-grid", "--resolution", "1"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("res", ["nan", "inf"])
    def test_grid_rejects_nan_and_infinite_resolution(self, tmp_path, res, capsys):
        # NaN passed every check and gave a value; inf never returned.
        a = write(tmp_path, "a.csv", "0\n1\n0.5\n2\n")
        b = write(tmp_path, "b.csv", "1\n0\n2\n")
        assert main(["compute", a, b, "--measure", "cdtw-grid", "--resolution", res]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "resolution" in err

    def test_dtw_and_dfrechet(self, tmp_path, capsys):
        a = write(tmp_path, "a.csv", "0\n1\n2\n")
        b = write(tmp_path, "b.csv", "0\n2\n")
        assert main(["compute", a, b, "--measure", "dtw"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 1
        assert main(["compute", a, b, "--measure", "dfrechet"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 1

    def test_csv_format_and_path_file(self, pair, tmp_path, capsys):
        target = str(tmp_path / "warp.json")
        rc = main(["compute", *pair, "--stats", "--path", target, "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        row = lines[1].split(",")
        assert header[:4] == ["measure", "value", "n", "m"]
        assert row[0] == "cdtw"
        assert float(row[1]) == pytest.approx(0.25, abs=1e-9)
        data = json.load(open(target))
        assert data["points"][0] == [0.0, 0.0]
        assert data["points"][-1] == [1.0, 1.0]

    def test_unwritable_path_file(self, pair, tmp_path, capsys):
        target = str(tmp_path / "no" / "such" / "warp.json")
        assert main(["compute", *pair, "--path", target]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {target}: ")

    def test_stats_json(self, pair, capsys):
        assert main(["compute", *pair, "--stats"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["stats"]["cells_solved"] == 1
        assert out["stats"]["total_pieces"] > 0
        assert out["stats"]["edges"] == 4  # two base-case edges, two cell outputs
        assert out["stats"]["max_edge_pieces"] >= 1
        assert set(out["stats"]) == {
            "total_pieces", "edges", "max_edge_pieces", "wall_time", "cells_solved"
        }

    def test_sub_tolerance_segment(self, tmp_path, capsys):
        # The fifth vertex lies 3.9e-9 above the fourth.
        a = write(tmp_path, "a.csv", "\n".join([
            "0.7252509730769274", "0.2963912686699557", "0.5513527531057241",
            "1.405213468449474", "1.4052134723299892", "1.3719316619157789",
            "0.6123421367627049",
        ]))
        b = write(tmp_path, "b.csv", "1.2536115370522147\n1.4422700805839088\n0.6186071633804859\n")
        assert main(["compute", a, b]) == 0
        assert json.loads(capsys.readouterr().out)["value"] >= 0.0

    def test_timestamp_column_warns_once(self, tmp_path, capsys):
        a = write(tmp_path, "ts.csv", "0,1000\n1,1001\n")
        b = write(tmp_path, "plain.csv", "0\n1\n")
        assert main(["compute", a, b]) == 0
        err = capsys.readouterr().err
        assert err.count("ignoring second column") == 1
        assert "ts.csv" in err

    def test_timestamp_warning_once_per_command(self, tmp_path, capsys):
        # Each command warns for itself, also about a file an earlier
        # command in the same process warned about; a file given twice
        # warns once.
        a = write(tmp_path, "ts.csv", "0,1000\n1,1001\n")
        b = write(tmp_path, "plain.csv", "0\n1\n")
        for argv in (["compute", a, b], ["compute", a, b], ["compute", a, a]):
            assert main(argv) == 0
            err = capsys.readouterr().err
            assert err.count("ignoring second column") == 1
            assert "ts.csv" in err

    def test_parse_error_names_file_and_line(self, tmp_path, capsys):
        a = write(tmp_path, "bad.csv", "0\nnope\n")
        b = write(tmp_path, "ok.csv", "0\n1\n")
        assert main(["compute", a, b]) == 2
        err = capsys.readouterr().err
        assert "bad.csv:2" in err

    def test_json_series_input(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", "[0, 1]")
        b = write(tmp_path, "b.json", "[0.5, 1.5]")
        assert main(["compute", a, b]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(0.25)

    def test_bad_json_series(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", '{"not": "a series"}')
        b = write(tmp_path, "b.json", "[0, 1]")
        assert main(["compute", a, b]) == 2
        assert "numeric array" in capsys.readouterr().err

    def test_huge_json_integer_names_file(self, tmp_path, capsys):
        # a JSON integer past the float range overflows in float()
        a = write(tmp_path, "big.json", f"[{10**400}, 0]")
        b = write(tmp_path, "b.csv", "0\n1\n")
        assert main(["compute", a, b]) == 2
        err = capsys.readouterr().err
        assert "big.json" in err and "not a finite number" in err

    @pytest.mark.parametrize("measure", ["cdtw", "dtw", "dfrechet"])
    @pytest.mark.parametrize("name,text", [("bad.csv", ""), ("bad.json", "[0.5, NaN]")])
    def test_empty_or_nan_series_names_file(self, tmp_path, capsys, measure, name, text):
        a = write(tmp_path, name, text)
        b = write(tmp_path, "b.csv", "0\n1\n")
        assert main(["compute", a, b, "--measure", measure]) == 2
        assert "bad." in capsys.readouterr().err

    def test_too_short_series(self, tmp_path, capsys):
        a = write(tmp_path, "a.csv", "1\n1\n1\n")
        b = write(tmp_path, "b.csv", "0\n1\n")
        assert main(["compute", a, b]) == 2

    def test_vanishing_segment_names_file(self, tmp_path, capsys):
        a = write(tmp_path, "huge.csv", "0\n1e17\n0\n1e-3\n")
        b = write(tmp_path, "b.csv", "0\n1\n")
        assert main(["compute", a, b]) == 2
        err = capsys.readouterr().err
        assert "huge.csv" in err and "vanishes" in err

    def test_overflowing_arc_length_names_file(self, tmp_path, capsys):
        a = write(tmp_path, "wide.csv", "-1e308\n1e308\n")
        b = write(tmp_path, "b.csv", "0\n1\n")
        assert main(["compute", a, b]) == 2
        err = capsys.readouterr().err
        assert "wide.csv" in err and "overflows" in err

    def test_overflowing_grid_ticks_are_too_large(self, tmp_path, capsys):
        a = write(tmp_path, "a.csv", "0\n1e308\n")
        b = write(tmp_path, "b.csv", "0\n1\n")
        rc = main(["compute", a, b, "--measure", "cdtw-grid", "--resolution", "4"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: input too large: segment 1 ")

    def test_missing_file(self, tmp_path, capsys):
        b = write(tmp_path, "b.csv", "0\n1\n")
        assert main(["compute", str(tmp_path / "absent.csv"), b]) == 2

    def test_unreadable_files_name_the_file(self, tmp_path, capsys):
        # A series that is not UTF-8 text, or a directory with a series
        # name, is a usage error that names it, not a traceback.
        bad = tmp_path / "bin.csv"
        bad.write_bytes(b"\xff\xfe")
        (tmp_path / "d.csv").mkdir()
        b = write(tmp_path, "b.csv", "0\n1\n")
        for name in ("bin.csv", "d.csv"):
            assert main(["compute", str(tmp_path / name), b]) == 2
            assert name in capsys.readouterr().err

    def test_stats_rejected_for_dtw(self, pair, capsys):
        assert main(["compute", *pair, "--measure", "dtw", "--stats"]) == 2

    def test_determinism_bit_for_bit(self, pair, capsys):
        assert main(["compute", *pair]) == 0
        first = capsys.readouterr().out
        assert main(["compute", *pair]) == 0
        assert capsys.readouterr().out == first


class TestMatrix:
    def test_identical_files_zero_matrix(self, tmp_path, capsys):
        for name in ("p.csv", "q.csv", "r.csv"):
            write(tmp_path, name, "0\n1\n2\n")
        assert main(["matrix", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ",p.csv,q.csv,r.csv"
        for line in lines[1:]:
            assert set(line.split(",")[1:]) == {"0"}

    def test_shifted_pair_offdiagonal(self, tmp_path, capsys):
        write(tmp_path, "a.csv", "0\n1\n")
        write(tmp_path, "b.csv", "0.5\n1.5\n")
        assert main(["matrix", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        row = lines[1].split(",")
        assert row[0] == "a.csv"
        assert float(row[2]) == pytest.approx(0.25, abs=1e-6)

    def test_symmetric_zero_diagonal(self, tmp_path, capsys):
        for k, vals in enumerate(("0\n1\n", "0.5\n1.5\n", "1\n0\n0.5\n")):
            write(tmp_path, f"s{k}.csv", vals)
        assert main(["matrix", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        grid = [line.split(",")[1:] for line in lines[1:]]
        for i in range(3):
            assert float(grid[i][i]) == 0
            for j in range(3):
                assert abs(float(grid[i][j]) - float(grid[j][i])) <= 1e-9

    def test_grid_rejects_infinite_resolution(self, tmp_path, capsys):
        write(tmp_path, "a.csv", "0\n1\n")
        write(tmp_path, "b.csv", "0.5\n1.5\n")
        args = ["matrix", str(tmp_path), "--measure", "cdtw-grid", "--resolution", "inf"]
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "resolution" in err

    def test_dtw_measure_matches_library(self, tmp_path, capsys):
        write(tmp_path, "a.csv", "0\n1\n2\n")
        write(tmp_path, "b.csv", "0\n2\n")
        assert main(["matrix", str(tmp_path), "--measure", "dtw"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        got = float(lines[1].split(",")[2])
        assert got == dtw([0, 1, 2], [0, 2])

    def test_jobs_parallel_matches_serial(self, tmp_path, capsys):
        # 9 files give 36 pairs: the command and 2 forked workers solve 12 each.
        for k, vals in enumerate(("0\n1\n", "0.5\n1.5\n", "1\n0\n", "0\n2\n1\n")):
            write(tmp_path, f"s{k}.csv", vals)
        for k in range(4, 9):
            write(tmp_path, f"s{k}.json", json.dumps([0.0, k / 4, 0.5, 2.0 - k / 8]))
        assert main(["matrix", str(tmp_path)]) == 0
        serial = capsys.readouterr().out
        assert main(["matrix", str(tmp_path), "--jobs", "3"]) == 0
        assert capsys.readouterr().out == serial

    def test_out_file(self, tmp_path):
        write(tmp_path, "a.csv", "0\n1\n")
        write(tmp_path, "b.csv", "0.5\n1.5\n")
        target = str(tmp_path / "m.csv")
        assert main(["matrix", str(tmp_path), "--out", target]) == 0
        text = open(target).read()
        assert text.startswith(",a.csv,b.csv")

    def test_unwritable_out_file(self, tmp_path, capsys):
        write(tmp_path, "a.csv", "0\n1\n")
        write(tmp_path, "b.csv", "0.5\n1.5\n")
        target = str(tmp_path / "no" / "such" / "m.csv")
        assert main(["matrix", str(tmp_path), "--out", target]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {target}: ")

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        write(tmp_path, "a.csv", "0\n1\n")
        write(tmp_path, "b.csv", "0.5\n1.5\n")
        assert main(["matrix", str(tmp_path), "--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_series_named_directory_rejected(self, tmp_path, capsys):
        write(tmp_path, "a.csv", "0\n1\n")
        write(tmp_path, "b.csv", "0.5\n1.5\n")
        (tmp_path / "d.csv").mkdir()
        assert main(["matrix", str(tmp_path)]) == 2
        assert "d.csv" in capsys.readouterr().err

    def test_too_few_files(self, tmp_path, capsys):
        write(tmp_path, "only.csv", "0\n1\n")
        assert main(["matrix", str(tmp_path)]) == 2

    def test_each_file_parsed_once(self, tmp_path, monkeypatch, capsys):
        for k, vals in enumerate(("0\n1\n", "0.5\n1.5\n", "1\n0\n", "0\n2\n1\n")):
            write(tmp_path, f"s{k}.csv", vals)
        parsed = []
        original = cli.load_series

        def counted(path, warn=True):
            parsed.append(os.path.basename(path))
            return original(path, warn)

        monkeypatch.setattr(cli, "load_series", counted)
        assert main(["matrix", str(tmp_path), "--jobs", "1"]) == 0
        assert sorted(parsed) == ["s0.csv", "s1.csv", "s2.csv", "s3.csv"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_solver_error_names_the_pair(self, tmp_path, monkeypatch, capsys, jobs):
        # 7 files give 21 pairs; with --jobs 2, (b, c) is pair 6, in the
        # command's own share.  A worker is forked, so it inherits the
        # patched solver.
        write(tmp_path, "a.csv", "0\n1\n")
        write(tmp_path, "b.csv", "0.5\n1.5\n")
        write(tmp_path, "c.csv", "1\n0\n2\n")
        for name in "defg":
            write(tmp_path, f"{name}.csv", "0\n3\n")
        original = cli.cdtw_exact

        def failing(P, Q, config=None):
            if P.vertices == (0.5, 1.5) and Q.vertices == (1.0, 0.0, 2.0):
                raise InvariantViolation("cell (1,1): corner value mismatch")
            return original(P, Q, config=config)

        monkeypatch.setattr(cli, "cdtw_exact", failing)
        assert main(["matrix", str(tmp_path), "--jobs", jobs]) == 3
        err = capsys.readouterr().err
        assert "b.csv vs " in err and "c.csv: cell (1,1): corner value mismatch" in err
        assert "a.csv" not in err

    @pytest.mark.parametrize("jobs", ["1", "2", "3"])
    def test_first_failure_in_matrix_order(self, tmp_path, monkeypatch, capsys, deadline, jobs):
        # 7 files give 21 pairs.  (a, g) is pair 5 and fails early, (e, f) is
        # pair 18 and fails late: with 2 or 3 processes the command solves
        # pair 18 itself and a worker solves pair 5.
        names = dict(a="0\n1\n", b="0.5\n1.5\n", c="1\n0\n2\n", d="0\n3\n",
                     e="2\n0\n", f="0\n2\n1\n", g="1\n0\n")
        paths = {name: write(tmp_path, f"{name}.csv", text) for name, text in names.items()}
        original = cli.cdtw_exact
        failing = {((0.0, 1.0), (1.0, 0.0)): "early", ((2.0, 0.0), (0.0, 2.0, 1.0)): "late"}

        def solver(P, Q, config=None):
            if (P.vertices, Q.vertices) in failing:
                raise InvariantViolation(failing[P.vertices, Q.vertices])
            return original(P, Q, config=config)

        monkeypatch.setattr(cli, "cdtw_exact", solver)
        assert main(["matrix", str(tmp_path), "--jobs", jobs]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"solver invariant violation: {paths['a']} vs {paths['g']}: early\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_jobs_never_exceed_pairs(self, tmp_path, monkeypatch, capsys, deadline):
        # 3 files give 3 pairs: the command and at most 2 forked workers.
        for k in range(3):
            write(tmp_path, f"s{k}.csv", f"0\n{k + 1}\n")
        forks = []
        fork = os.fork

        def counted():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        assert main(["matrix", str(tmp_path), "--jobs", "16"]) == 0
        assert len(forks) <= 2
        assert capsys.readouterr().out.count("\n") == 4
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_interrupted_command_kills_its_workers(self, tmp_path, monkeypatch, deadline):
        # The command is interrupted in its own share while its worker is
        # stuck: the worker is killed and reaped, and the interrupt goes on.
        for k in range(3):
            write(tmp_path, f"s{k}.csv", f"0\n{k + 1}\n")
        command = os.getpid()

        def solver(P, Q, config=None):
            if os.getpid() == command:
                raise KeyboardInterrupt
            time.sleep(120)

        monkeypatch.setattr(cli, "cdtw_exact", solver)
        with pytest.raises(KeyboardInterrupt):
            main(["matrix", str(tmp_path), "--jobs", "2"])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_more_jobs_than_cores_match_serial(self, tmp_path, capsys, deadline):
        # 5 files give 10 pairs, so at most 10 processes on any host.
        for k in range(5):
            write(tmp_path, f"s{k}.json", json.dumps([0.0, k / 3, 1.0 - k / 5, 0.25]))
        assert main(["matrix", str(tmp_path), "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        jobs = (os.cpu_count() or 1) + 1
        assert main(["matrix", str(tmp_path), "--jobs", str(jobs)]) == 0
        assert capsys.readouterr().out == serial
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_overflowing_pair_is_too_large(self, tmp_path, capsys, jobs):
        # The first overflowing pair, (a, z), is pair 1: with --jobs 2 the
        # worker solves it and sends TooLarge back with both file names.
        write(tmp_path, "a.csv", "0\n1\n")
        write(tmp_path, "b.csv", "0\n2\n")
        write(tmp_path, "z.csv", "0\n1e155\n0\n")
        assert main(["matrix", str(tmp_path), "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: input too large: ")
        assert "a.csv vs " in err
        assert "z.csv: cell (1,1), level 2 (segments 1..1 of P, 1..1 of Q as built): overflow" in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_one_value_file_named(self, tmp_path, capsys, jobs):
        write(tmp_path, "a.csv", "0\n1\n")
        write(tmp_path, "b.csv", "0.5\n")
        write(tmp_path, "c.csv", "1\n0\n")
        assert main(["matrix", str(tmp_path), "--measure", "cdtw", "--jobs", jobs]) == 2
        assert "b.csv" in capsys.readouterr().err


def test_exact_commands_never_load_numpy(tmp_path):
    """A fresh interpreter runs compute and matrix without numpy, and
    without dataclasses or concurrent.futures unless they were loaded
    before cdtw; the grid oracle loads numpy when first called."""
    a = write(tmp_path, "a.csv", "0\n1\n2\n")
    b = write(tmp_path, "b.json", "[0.5, 1.5, 0.0]")
    write(tmp_path, "c.csv", "1\n0\n")  # 3 pairs, so --jobs 2 forks a worker
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "added = []\n"
        "def check():\n"
        "    added.append(sorted({'dataclasses', 'concurrent.futures'} & (set(sys.modules) - before)))\n"
        "import cdtw, cdtw.cli\n"
        "check()\n"
        "a, b, d = sys.argv[1:]\n"
        "assert cdtw.cli.main(['compute', a, b]) == 0\n"
        "check()\n"
        "assert cdtw.cli.main(['matrix', d, '--jobs', '1']) == 0\n"
        "check()\n"
        "assert cdtw.cli.main(['matrix', d, '--jobs', '2']) == 0\n"
        "check()\n"
        "print(added)\n"
        "print('numpy' in sys.modules)\n"
        "P, Q = cdtw.build_curve([0.0, 1.0]), cdtw.build_curve([0.5, 1.5])\n"
        "print(cdtw.cdtw_grid(P, Q, cdtw.GridConfig(resolution=1)))\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code, a, b, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    *_, added, before, grid, after = proc.stdout.splitlines()
    assert added == "[[], [], [], []]"
    assert (before, after) == ("False", "True")
    assert float(grid) == pytest.approx(0.5, abs=1e-9)


class TestOracleCheck:
    def test_shifted_pair_report(self, pair, capsys):
        assert main(["oracle-check", *pair]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "resolution,grid,gap"
        gaps = [float(line.split(",")[2]) for line in lines[1:5]]
        assert all(g >= -1e-9 for g in gaps)
        for a, b in zip(gaps, gaps[1:]):
            assert b <= a + 1e-12
        assert gaps[-1] <= 0.02 * 0.25 + 0.01

    def test_identical_zero_gaps(self, tmp_path, capsys):
        a = write(tmp_path, "a.csv", "0\n1\n0.5\n")
        b = write(tmp_path, "b.csv", "0\n1\n0.5\n")
        assert main(["oracle-check", a, b]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        for line in lines[1:5]:
            assert float(line.split(",")[2]) == 0

    def test_descending_resolutions_rejected(self, pair, capsys):
        assert main(["oracle-check", *pair, "--resolutions", "16", "4"]) == 2

    def test_nonpositive_resolution_rejected(self, pair, capsys):
        assert main(["oracle-check", *pair, "--resolutions", "0", "4"]) == 2

    def test_fractional_resolution_rejected_before_output(self, pair, capsys):
        # compute --resolution 0.5 is a usage error too; nothing may be
        # printed before the rejection.
        assert main(["oracle-check", *pair, "--resolutions", "0.5", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "resolution" in err

    @pytest.mark.parametrize("res", ["nan", "inf"])
    def test_nan_and_infinite_resolution_rejected_before_output(self, pair, res, capsys):
        assert main(["oracle-check", *pair, "--resolutions", "1", res]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "resolution" in err

    def test_impossible_tol_gives_sandwich_exit(self, tmp_path, capsys):
        # force a failure by demanding a zero final gap from a coarse grid
        a = write(tmp_path, "a.csv", "0\n1\n0.3\n1.7\n")
        b = write(tmp_path, "b.csv", "0.4\n1.9\n0.1\n")
        rc = main(["oracle-check", a, b, "--resolutions", "2", "--tol", "0"])
        assert rc == 4
        assert "sandwich" in capsys.readouterr().err

    def test_grid_below_exact_names_its_resolution(self, pair, monkeypatch, capsys):
        # The grid falls below the exact value 0.25 at resolution 16 only;
        # the final gap is within tol, so the one violation printed names
        # resolution 16 and its gap, not the final gap.
        real = cli.cdtw_grid

        def grid(P, Q, cfg):
            return 0.25 - 0.5 if cfg.resolution == 16 else real(P, Q, cfg)

        monkeypatch.setattr(cli, "cdtw_grid", grid)
        assert main(["oracle-check", *pair]) == 4
        out, err = capsys.readouterr()
        assert out.splitlines()[2] == "16,-0.25,-0.5"
        assert out.splitlines()[-1] == "exact,0.25,"
        assert err == "sandwich violation: grid below exact at resolution 16: gap -0.5\n"
        # The slack is 1e-9 * (1 + |exact|), 1.25e-9 here: 3x below violates.
        monkeypatch.setattr(cli, "cdtw_grid", lambda P, Q, cfg: (
            0.25 - 3.75e-9 if cfg.resolution == 16 else real(P, Q, cfg)))
        assert main(["oracle-check", *pair]) == 4
        _, err = capsys.readouterr()
        assert err.startswith("sandwich violation: grid below exact at resolution 16: gap -3.75")

    def test_overflowing_solve_is_too_large(self, tmp_path, capsys):
        a = write(tmp_path, "a.csv", "0\n1e155\n0\n")
        b = write(tmp_path, "b.csv", "0\n1\n")
        assert main(["oracle-check", a, b]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(
            "error: input too large: cell (1,1), level 2 (segments 1..1 of P, 1..1 of Q as built): "
            "overflow"
        )

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tol_must_be_finite_and_nonnegative(self, pair, tol, capsys):
        # --tol nan made the final-gap test always false, so a gap of
        # 0.375 at resolution 1 passed; the default tol fails it.
        assert main(["oracle-check", *pair, "--resolutions", "1"]) == 4
        capsys.readouterr()
        assert main(["oracle-check", *pair, "--resolutions", "1", "--tol", tol]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--tol" in err


class TestHeatmap:
    def test_outputs_for_shifted_pair(self, pair, tmp_path, capsys):
        out = str(tmp_path / "dump")
        assert main(["heatmap", *pair, out, "--samples", "9"]) == 0
        heights = open(os.path.join(out, "heatmap.csv")).read().splitlines()
        assert heights[0] == "x,y,h"
        assert len(heights) == 1 + 9 * 9
        pathlines = open(os.path.join(out, "path.csv")).read().splitlines()
        assert pathlines[0] == "x,y"
        assert pathlines[1] == "0,0"
        assert pathlines[-1] == "1,1"
        valleys = open(os.path.join(out, "valleys.csv")).read().splitlines()
        assert valleys[0] == "i,j,x0,y0,x1,y1"
        assert valleys[1].startswith("1,1,0.5,0,1,0.5")

    def test_identical_curves_diagonal(self, tmp_path, capsys):
        a = write(tmp_path, "a.csv", "0\n1\n2\n")
        b = write(tmp_path, "b.csv", "0\n1\n2\n")
        out = str(tmp_path / "dump")
        assert main(["heatmap", a, b, out, "--samples", "5"]) == 0
        for line in open(os.path.join(out, "path.csv")).read().splitlines()[1:]:
            x, y = map(float, line.split(","))
            assert x == pytest.approx(y, abs=1e-9)
        # samples on the diagonal report zero height
        for line in open(os.path.join(out, "heatmap.csv")).read().splitlines()[1:]:
            x, y, h = map(float, line.split(","))
            if abs(x - y) < 1e-12:
                assert h == 0

    def test_zero_samples_rejected(self, pair, tmp_path, capsys):
        assert main(["heatmap", *pair, str(tmp_path / "o"), "--samples", "0"]) == 2

    def test_unwritable_output(self, pair, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory")
        assert main(["heatmap", *pair, str(blocker), "--samples", "4"]) == 2
