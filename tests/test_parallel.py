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
    """Two usable workers, so that a pool starts."""
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)


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
    def test_two_usable_workers_start_a_pool(self, pool_always):
        results = ordered_map(squares_and_pid, range(20), workers=2)
        assert [r for r, _ in results] == [x * x for x in range(20)]
        assert os.getpid() not in {pid for _, pid in results}
        assert multiprocessing.active_children() == []

    def test_pool_keeps_item_order(self, pool_always):
        results = ordered_map(squares_and_pid, range(37), workers=8)
        assert [r for r, _ in results] == [x * x for x in range(37)]
        pids = {pid for _, pid in results}
        assert os.getpid() not in pids
        assert len(pids) in (1, 2)
        assert multiprocessing.active_children() == []

    def test_one_worker_runs_every_chunk_in_process(self, monkeypatch):
        """One usable worker: chunks of 64 from the first item on."""
        assert ordered_map(chunk_sizes, range(150), workers=1) == (
            [64] * 128 + [22] * 22)
        monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
        assert ordered_map(chunk_sizes, range(150), workers=4) == (
            [64] * 128 + [22] * 22)
        assert ordered_map(chunk_sizes, range(1), workers=4) == [1]
        assert ordered_map(chunk_sizes, [], workers=4) == []

    def test_pool_chunks_split_each_workers_share(self, pool_always):
        """More usable workers: pool chunks of at most 64 items and a
        quarter of each worker's share."""
        # 150 items for 2 workers: chunks of 19, the last of 17.
        assert ordered_map(chunk_sizes, range(150), workers=2) == (
            [19] * 133 + [17] * 17)
        # 600 items: chunks of 64, the last of 24.
        assert ordered_map(chunk_sizes, range(600), workers=2) == (
            [64] * 576 + [24] * 24)
        assert multiprocessing.active_children() == []

    def test_a_chunk_must_give_one_result_per_item(self):
        with pytest.raises(ValueError, match="chunk of 3 items gave 1"):
            ordered_map(lambda chunk: chunk[:1], range(3))

    def test_one_cpu_never_starts_a_pool(self, monkeypatch):
        monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
        results = ordered_map(squares_and_pid, range(5), workers=4)
        assert {pid for _, pid in results} == {os.getpid()}

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="workers"):
            ordered_map(squares_and_pid, [1], workers=0)

    def test_dead_worker_raises_and_leaves_no_process(self, pool_always):
        with pytest.raises(RuntimeError, match="ended abruptly"):
            ordered_map(exit_in_worker, range(12), workers=2)
        assert multiprocessing.active_children() == []


def test_script_without_main_guard_runs_once(tmp_path, monkeypatch):
    """Forked workers never import the caller's script: a script without
    the guard, with a pool of two, reads its data once, exits 0 and writes
    what the in-process run writes."""
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
        read, pool_map = cli._read_csv_columns, parallel._pool_map

        def log(line):
            with open("calls.log", "a") as handle:
                handle.write(line + "\\n")

        def logged_read(*args):
            log("read")
            return read(*args)

        def logged_pool_map(fn, chunks, workers):
            log(f"pool of {workers}")
            return pool_map(fn, chunks, workers)

        cli._read_csv_columns = logged_read
        parallel._pool_map = logged_pool_map
        sys.exit(cli.main(["estimate", "--data", "toy.csv",
                           "--config", "config.json", "--out", "out"]))
    """))
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "calls.log").read_text() == "read\npool of 2\n"

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
    assert cli.main(["estimate", "--data", "toy.csv", "--config",
                     "config.json", "--out", "in_process"]) == 0
    for name in ("report.json", "table.csv"):
        assert ((tmp_path / "out" / name).read_bytes()
                == (tmp_path / "in_process" / name).read_bytes())
    assert multiprocessing.active_children() == []
