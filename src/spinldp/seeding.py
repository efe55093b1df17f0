"""Seed plumbing: every stochastic surface accepts an int, a sequence of
ints, or a prebuilt SeedSequence, and derives replica streams from an int
master as SeedSequence([master, index]), so aggregation order and worker
count never matter."""

import numpy as np


def rng_from(seed) -> np.random.Generator:
    """PCG64 seeded through SeedSequence(seed), or through seed itself when
    it is a SeedSequence."""
    return np.random.default_rng(seed)


def child_seed(master: int, index: int) -> np.random.SeedSequence:
    """The stream of replica index under an int master seed.  A SeedSequence
    master raises TypeError: spawning from it advances its counter, so the
    same (master, index) would not give the same stream twice."""
    return np.random.SeedSequence([int(master), int(index)])


def derived_int(master, index: int) -> int:
    """Stable 64-bit integer sub-seed for surfaces that want plain ints."""
    return int(child_seed(master, index).generate_state(1, np.uint64)[0])


def ordered_map(fn, jobs: list, workers: int = 1) -> list:
    """[fn(job) for job in jobs], over a fork pool of min(workers, len(jobs)) > 1 processes.

    Pool.map returns results in job order, so with jobs seeded by their
    index the result is the same at any worker count.  fn must be a
    module-level function (it is pickled by name).
    """
    if workers > 1 and len(jobs) > 1:
        import multiprocessing as mp

        with mp.get_context("fork").Pool(min(workers, len(jobs))) as pool:
            return pool.map(fn, jobs)
    return [fn(job) for job in jobs]
