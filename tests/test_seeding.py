import numpy as np
import pytest

from spinldp.seeding import child_seed, derived_int


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
