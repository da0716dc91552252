"""Tests for the ordered process map."""

import multiprocessing
import os
import subprocess
import sys
import textwrap

import pytest

from robmarg import cli, parallel
from robmarg.parallel import ordered_map

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


@pytest.fixture
def pool_always(monkeypatch):
    """Two workers, and a pool for any projected time."""
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    monkeypatch.setattr(parallel, "_START_FACTOR", 0.0)


def squares_and_pid(chunk):
    return [(x * x, os.getpid()) for x in chunk]


def chunk_sizes(chunk):
    """Each item's chunk size."""
    return [len(chunk)] * len(chunk)


def exit_in_worker(chunk):
    if multiprocessing.parent_process() is not None:
        os._exit(3)
    return chunk


class TestOrderedMap:
    def test_in_process_below_the_start_threshold(self):
        results = ordered_map(squares_and_pid, range(20), workers=2)
        assert [r for r, _ in results] == [x * x for x in range(20)]
        assert {pid for _, pid in results} == {os.getpid()}

    def test_pool_keeps_item_order(self, pool_always):
        results = ordered_map(squares_and_pid, range(37), workers=8)
        assert [r for r, _ in results] == [x * x for x in range(37)]
        pids = [pid for _, pid in results]
        assert pids[0] == os.getpid()
        assert os.getpid() not in pids[1:]
        assert len(set(pids[1:])) in (1, 2)
        assert multiprocessing.active_children() == []

    def test_one_worker_runs_every_chunk_in_process(self, monkeypatch):
        """One usable worker: chunks of 64 from the first item on."""
        monkeypatch.setattr(parallel, "_START_FACTOR", 0.0)
        assert ordered_map(chunk_sizes, range(150), workers=1) == (
            [64] * 128 + [22] * 22)
        monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
        assert ordered_map(chunk_sizes, range(150), workers=4) == (
            [64] * 128 + [22] * 22)
        assert ordered_map(chunk_sizes, range(1), workers=4) == [1]
        assert ordered_map(chunk_sizes, [], workers=4) == []

    def test_first_item_alone_then_chunks(self, monkeypatch):
        """More usable workers: the first item alone, then chunks of 64 in
        the calling process below the start threshold, or pool chunks of
        at most 64 and a quarter of each worker's share above it."""
        monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
        assert ordered_map(chunk_sizes, range(150), workers=2) == (
            [1] + [64] * 128 + [21] * 21)
        monkeypatch.setattr(parallel, "_START_FACTOR", 0.0)
        # 149 left for 2 workers: chunks of 19, the last of 16.
        assert ordered_map(chunk_sizes, range(150), workers=2) == (
            [1] + [19] * 133 + [16] * 16)
        # 599 left: chunks of 64, the last of 23.
        assert ordered_map(chunk_sizes, range(600), workers=2) == (
            [1] + [64] * 576 + [23] * 23)
        assert multiprocessing.active_children() == []

    def test_a_chunk_must_give_one_result_per_item(self):
        with pytest.raises(ValueError, match="chunk of 3 items gave 1"):
            ordered_map(lambda chunk: chunk[:1], range(3))

    def test_one_cpu_never_starts_a_pool(self, monkeypatch):
        monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
        monkeypatch.setattr(parallel, "_START_FACTOR", 0.0)
        results = ordered_map(squares_and_pid, range(5), workers=4)
        assert {pid for _, pid in results} == {os.getpid()}

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="workers"):
            ordered_map(squares_and_pid, [1], workers=0)

    def test_dead_worker_raises_and_leaves_no_process(self, pool_always):
        with pytest.raises(RuntimeError, match="__name__"):
            ordered_map(exit_in_worker, range(12), workers=2)
        assert multiprocessing.active_children() == []


def test_script_without_main_guard_aborts(tmp_path):
    """Spawned workers re-run a script that lacks the guard; the CLI stops
    with exit 2 and names the guard instead of hanging."""
    lines = ["y,x1,x2"] + [
        f"{2.0 + 3.0 * (i % 7) + 0.1 * i},{i % 7},{0.5 * i}" for i in range(30)
    ]
    (tmp_path / "toy.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "config.json").write_text(
        '{"response": "y", "z": ["x1"], "covariates": ["x1", "x2"], '
        '"estimators": ["ipw"], "propensities": ["constant"]}'
    )
    script = tmp_path / "unguarded.py"
    script.write_text(textwrap.dedent("""\
        import sys
        from robmarg import cli, parallel
        parallel.available_cpus = lambda: 2
        parallel._START_FACTOR = 0.0
        sys.exit(cli.main(["estimate", "--data", "toy.csv",
                           "--config", "config.json", "--out", "out"]))
    """))
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 2
    assert "if __name__ == \"__main__\":" in proc.stderr


def test_script_without_main_guard_that_does_not_exit(tmp_path, monkeypatch):
    """A spawned worker imports the caller's script; a script that lacks the
    guard and does not exit gets its estimate made once, in the caller, and
    the workers' import of it stops at the CLI with the guard named."""
    lines = ["y,x1,x2"] + [
        f"{2.0 + 3.0 * (i % 7) + 0.1 * i},{i % 7},{0.5 * i}" for i in range(30)
    ]
    (tmp_path / "toy.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "config.json").write_text(
        '{"response": "y", "z": ["x1"], "covariates": ["x1", "x2"], '
        '"estimators": ["ipw"], "propensities": ["constant"]}'
    )
    script = tmp_path / "unguarded.py"
    script.write_text(textwrap.dedent("""\
        from robmarg import cli, parallel
        parallel.available_cpus = lambda: 2
        parallel._START_FACTOR = 0.0
        read = cli._read_csv_columns

        def logged_read(*args):
            with open("reads.log", "a") as log:
                log.write("read\\n")
            return read(*args)

        cli._read_csv_columns = logged_read
        cli.main(["estimate", "--data", "toy.csv",
                  "--config", "config.json", "--out", "out"])
    """))
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "abort: estimation failed" not in proc.stderr
    assert "if __name__ == \"__main__\":" in proc.stderr
    assert (tmp_path / "reads.log").read_text() == "read\n"

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
    assert cli.main(["estimate", "--data", "toy.csv", "--config",
                     "config.json", "--out", "in_process"]) == 0
    for name in ("report.json", "table.csv"):
        assert ((tmp_path / "out" / name).read_bytes()
                == (tmp_path / "in_process" / name).read_bytes())
