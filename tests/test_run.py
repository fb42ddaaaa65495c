"""The run plumbing of :mod:`fracsig._run` called directly: the fork-join map."""

import os
import time

import pytest

from fracsig import _run, mfdfa


def _assert_no_child_left():
    """No worker process of a command outlives it, not even as a zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _square(x):
    return x * x


def _not_loadable():
    raise RuntimeError("cannot be rebuilt")


class _PicklesButDoesNotLoad:
    def __reduce__(self):
        return _not_loadable, ()


class TestForkMap:
    """``_run._fork_map`` is ``[fn(item) for item in items]`` on any number of cores."""

    @staticmethod
    def _on(monkeypatch, cores):
        monkeypatch.setattr(_run, "_usable_cores", lambda: cores)

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_results_come_in_item_order(self, monkeypatch, jobs):
        self._on(monkeypatch, jobs)
        assert _run._fork_map(_square, range(7), name=str) == [i * i for i in range(7)]
        assert _run._fork_map(_square, [], name=str) == []
        _assert_no_child_left()

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_results_larger_than_a_pipe_buffer_come_back(self, monkeypatch, jobs):
        # each worker sends several results of 1.5 MiB while the parent waits
        self._on(monkeypatch, jobs)
        results = _run._fork_map(lambda i: bytes([i]) * (3 << 19), range(7), name=str)
        assert results == [bytes([i]) * (3 << 19) for i in range(7)]
        _assert_no_child_left()

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_lowest_failing_item_wins(self, monkeypatch, jobs):
        # item 1 fails late, items 2 and 4 at once; the serial loop meets 1 first
        def fn(i):
            if i == 1:
                time.sleep(0.2)
            if i in (1, 2, 4):
                raise ValueError(f"item {i}")
            return i

        self._on(monkeypatch, jobs)
        with pytest.raises(ValueError, match="^item 1$"):
            _run._fork_map(fn, range(6), name=str)
        _assert_no_child_left()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_zero_fluctuation_error_comes_back_whole(self, monkeypatch, jobs):
        # worker 0 runs items 0 and 2; item 2's error is the serial loop's
        def fn(i):
            if i == 2:
                raise mfdfa.ZeroFluctuationError(3, 16)
            return i

        self._on(monkeypatch, jobs)
        with pytest.raises(mfdfa.ZeroFluctuationError,
                           match="^row 3: zero fluctuation in every window at scale 16$"):
            _run._fork_map(fn, range(4), name=lambda i: f"item {i}")
        _assert_no_child_left()

    def test_value_that_cannot_be_sent_names_its_item(self, monkeypatch):
        # worker 0 runs items 0 and 2 and can send the result of 0 only
        def fn(i):
            return (lambda: i) if i == 2 else i

        self._on(monkeypatch, 2)
        with pytest.raises(ChildProcessError,
                           match="^item 2: its result could not be sent back from its worker"):
            _run._fork_map(fn, range(4), name=lambda i: f"item {i}")
        _assert_no_child_left()

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_value_that_does_not_load_names_its_item(self, monkeypatch, jobs):
        # item 2 pickles but cannot be rebuilt; the results before it load,
        # so neither item 0 nor its worker's other items are named
        def fn(i):
            return _PicklesButDoesNotLoad() if i == 2 else i

        self._on(monkeypatch, jobs)
        with pytest.raises(ChildProcessError,
                           match="^item 2: its result could not be sent back from its worker"):
            _run._fork_map(fn, range(6), name=lambda i: f"item {i}")
        _assert_no_child_left()

    def test_fork_is_not_called_for_one_job_or_one_item(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        self._on(monkeypatch, 1)
        assert _run._fork_map(_square, range(3), name=str) == [0, 1, 4]
        self._on(monkeypatch, 2)
        assert _run._fork_map(_square, [3], name=str) == [9]
