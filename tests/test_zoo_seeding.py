"""Zoo stream seeding, checked against numpy itself.

The recording path never builds a seed sequence or a generator per
``(model, item)`` cell: :func:`~repro.zoo.model.seed_table` hashes a whole
batch of ``[salt, key]`` seeds with ``uint32`` array ops, and
:func:`~repro.zoo.model.emit_batch` moves one generator per call onto a
cell's stream with :func:`~repro.zoo.model.pcg64_state`.  These tests pin
both to numpy's own constructor, so a numpy release that changes its
seeding fails here rather than silently changing every record.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.zoo.model import pcg64_state, seed_table
from repro.zoo.record import record_items

u32 = st.integers(0, 2**32 - 1)


def table(salts, keys) -> np.ndarray:
    return seed_table(np.array(salts, dtype=np.uint32), np.array(keys, dtype=np.uint32))


@given(salt=u32, key=u32, n=st.integers(1, 200), k=st.integers(0, 200))
@example(salt=0, key=0, n=1, k=1)
@example(salt=2**32 - 1, key=2**32 - 1, n=200, k=200)
@example(salt=0, key=2**32 - 1, n=7, k=3)
@settings(max_examples=200, deadline=None)
def test_cell_stream_is_numpys(salt, key, n, k):
    k = min(k, n)
    [[row]] = table([salt], [key])
    seq = np.random.SeedSequence([salt, key])
    assert row.tolist() == seq.generate_state(4, np.uint64).tolist()

    bitgen = np.random.PCG64(0)
    generator = np.random.Generator(bitgen)
    # Leave a buffered half-word behind: repositioning must clear it.
    generator.integers(10, size=3, dtype=np.uint32)
    bitgen.state = pcg64_state(row.tolist())
    ref = np.random.default_rng(seq)
    assert bitgen.state == ref.bit_generator.state
    assert generator.random() == ref.random()
    assert generator.normal() == ref.normal()
    assert generator.integers(n) == ref.integers(n)
    got = generator.choice(n, k, replace=False)
    assert got.tolist() == ref.choice(n, k, replace=False).tolist()


@given(
    salts=st.lists(u32, min_size=1, max_size=6),
    keys=st.lists(u32, min_size=0, max_size=6),
)
@settings(max_examples=50, deadline=None)
def test_table_is_keys_by_salts(salts, keys):
    got = table(salts, keys)
    assert got.shape == (len(keys), len(salts), 4) and got.dtype == np.uint64
    for i, key in enumerate(keys):
        for j, salt in enumerate(salts):
            want = np.random.SeedSequence([salt, key]).generate_state(4, np.uint64)
            assert got[i, j].tolist() == want.tolist()


def test_concurrent_recording_equals_serial(zoo, dataset, world_config):
    """Each call owns its generator: threads recording at once agree with serial."""
    threshold = world_config.valuable_confidence
    batches = [list(dataset[:75]), list(dataset[75:])]
    serial = [record_items(zoo, batch, threshold) for batch in batches]
    barrier = threading.Barrier(2, timeout=60)

    def record(index: int, out: list) -> None:
        barrier.wait()
        out[index] = record_items(zoo, batches[index], threshold)

    interval = sys.getswitchinterval()
    # Switch threads as often as the interpreter allows, for several rounds,
    # so a generator shared between calls is caught mid-lens.
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(8):
            results: list = [None, None]
            threads = [
                threading.Thread(target=record, args=(i, results)) for i in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            for got_batch, want_batch in zip(results, serial):
                assert len(got_batch) == len(want_batch)
                for got, want in zip(got_batch, want_batch):
                    assert got.item.item_id == want.item.item_id
                    for name in ("offsets", "ids", "confs", "valuable"):
                        a, b = getattr(got, name), getattr(want, name)
                        assert a.tobytes() == b.tobytes(), name
    finally:
        sys.setswitchinterval(interval)
