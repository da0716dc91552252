"""Tests for the ordered process map."""

import multiprocessing
import os
import subprocess
import sys
import textwrap

import pytest

from robmarg import parallel
from robmarg.parallel import ordered_map

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


@pytest.fixture
def pool_always(monkeypatch):
    """Two workers, and a pool for any projected time."""
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    monkeypatch.setattr(parallel, "_START_FACTOR", 0.0)


def square_and_pid(x):
    return x * x, os.getpid()


def exit_in_worker(x):
    if multiprocessing.parent_process() is not None:
        os._exit(3)
    return x


class TestOrderedMap:
    def test_in_process_below_the_start_threshold(self):
        results = ordered_map(square_and_pid, range(20), workers=2)
        assert [r for r, _ in results] == [x * x for x in range(20)]
        assert {pid for _, pid in results} == {os.getpid()}

    def test_pool_keeps_item_order(self, pool_always):
        results = ordered_map(square_and_pid, range(37), workers=8)
        assert [r for r, _ in results] == [x * x for x in range(37)]
        pids = [pid for _, pid in results]
        assert pids[0] == os.getpid()
        assert os.getpid() not in pids[1:]
        assert len(set(pids[1:])) in (1, 2)
        assert multiprocessing.active_children() == []

    def test_on_first_runs_once_after_the_first_item(self):
        seen = []
        ordered_map(seen.append, [1, 2, 3], workers=1,
                    on_first=lambda: seen.append("first"))
        assert seen == [1, "first", 2, 3]

    def test_one_cpu_never_starts_a_pool(self, monkeypatch):
        monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
        monkeypatch.setattr(parallel, "_START_FACTOR", 0.0)
        results = ordered_map(square_and_pid, range(5), workers=4)
        assert {pid for _, pid in results} == {os.getpid()}

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="workers"):
            ordered_map(abs, [1], workers=0)

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
