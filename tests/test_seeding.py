import multiprocessing
from types import SimpleNamespace

import numpy as np
import pytest

from spinldp.seeding import child_seed, derived_int, ordered_map


def test_child_seed_is_a_function_of_master_and_index():
    a, b = child_seed(5, 3), child_seed(5, 3)
    assert (a.generate_state(4) == b.generate_state(4)).all()
    assert (a.generate_state(4) == np.random.SeedSequence([5, 3]).generate_state(4)).all()
    assert (child_seed(np.int64(5), 3).generate_state(4) == a.generate_state(4)).all()
    assert not (child_seed(5, 4).generate_state(4) == a.generate_state(4)).all()
    assert derived_int(5, 3) == derived_int(5, 3)


def test_child_seed_rejects_a_seed_sequence_master():
    # spawning from a SeedSequence advances its counter, so the same
    # (master, index) would give a different stream on every call
    with pytest.raises(TypeError):
        child_seed(np.random.SeedSequence(5), 0)


@pytest.mark.parametrize("workers, jobs, size", [(64, 8, 8), (3, 8, 3), (4, 1, None)])
def test_ordered_map_opens_no_more_processes_than_jobs(monkeypatch, workers, jobs, size):
    # a stand-in Pool that records its size and maps in this process
    sizes = []

    class Pool:
        def __init__(self, n):
            sizes.append(n)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(x) for x in items]

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: SimpleNamespace(Pool=Pool))
    assert ordered_map(abs, list(range(-jobs, 0)), workers) == list(range(jobs, 0, -1))
    assert sizes == ([] if size is None else [size])
