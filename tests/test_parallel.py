"""The subset scan that the subset deciders share."""

import multiprocessing
import os
from functools import partial

import pytest

from vmkit import ResourceLimitError
from vmkit.parallel import scan_subsets

# 50 items: blocks of 16 at one worker and of 32 at two, so every scan below
# crosses a block boundary at both worker counts
ITEMS = [(i,) for i in range(50)]
OPEN = {3, 20, 35, 47}


def _fake(yes, open_, boom, subset):
    (item,) = subset
    if item in boom:
        raise ValueError(f"item {item} should not have been scanned")
    if item in open_:
        raise ResourceLimitError("fake budget ran out", count=7)
    return f"payload {item}" if item in yes else None


def _log_pid(path, subset):
    with open(path, "a") as fh:
        fh.write(f"{os.getpid()}\n")


@pytest.mark.parametrize("workers", [1, 2])
def test_first_yes_wins_after_open_subsets(workers):
    task = partial(_fake, {40, 45}, OPEN, set())
    assert scan_subsets(task, ITEMS, workers) == (frozenset({40}), "payload 40")


@pytest.mark.parametrize("workers", [1, 2])
def test_scan_stops_at_the_block_of_the_first_yes(workers):
    # item 40 lies beyond the first block at both worker counts
    task = partial(_fake, {5}, OPEN, {40})
    assert scan_subsets(task, ITEMS, workers) == (frozenset({5}), "payload 5")


def test_one_worker_stops_at_the_first_yes():
    # item 6 shares the first block with the YES at item 5
    task = partial(_fake, {5}, OPEN, {6})
    assert scan_subsets(task, ITEMS, 1) == (frozenset({5}), "payload 5")


@pytest.mark.parametrize("workers", [1, 2])
def test_open_subsets_without_a_yes_are_counted(workers):
    task = partial(_fake, set(), OPEN, set())
    with pytest.raises(ResourceLimitError) as e:
        scan_subsets(task, ITEMS, workers)
    assert e.value.count == len(OPEN)
    assert str(e.value) == f"{len(OPEN)} subset searches exhausted the budget"


@pytest.mark.parametrize("workers", [1, 2])
def test_no_yes_and_nothing_open_is_no(workers):
    assert scan_subsets(partial(_fake, set(), set(), set()), ITEMS, workers) is None
    assert scan_subsets(partial(_fake, set(), set(), set()), [], workers) is None


@pytest.mark.parametrize("yes, open_, boom, raises", [
    ({40}, set(), set(), None),
    (set(), set(), set(), None),
    (set(), OPEN, set(), ResourceLimitError),
    (set(), set(), {20}, ValueError),
])
def test_no_worker_outlives_a_scan(yes, open_, boom, raises):
    task = partial(_fake, yes, open_, boom)
    if raises is None:
        scan_subsets(task, ITEMS, 2)
    else:
        with pytest.raises(raises):
            scan_subsets(task, ITEMS, 2)
    assert multiprocessing.active_children() == []


def test_one_scan_forks_once(tmp_path):
    log = tmp_path / "pids"
    assert scan_subsets(partial(_log_pid, log), ITEMS, 2) is None
    pids = log.read_text().split()
    assert len(pids) == len(ITEMS)
    assert len(set(pids)) <= 2
