"""Unit tests for routing tables (range and linear-hash routers)."""

import numpy as np
import pytest

from tests.conftest import shares
from repro.hashing import (
    HashRange,
    LinearHashRouter,
    RangeRouter,
    partition_positions,
)

P = 1 << 12


def make_router(parts=4):
    ranges = partition_positions(P, parts)
    return RangeRouter.initial(ranges, list(range(parts)), P)


def all_positions():
    return np.arange(P, dtype=np.int64)


# ----------------------------------------------------------------------
# RangeRouter
# ----------------------------------------------------------------------
def test_initial_router_partitions_every_position():
    router = make_router(4)
    parts = shares(router, all_positions())
    assert sorted(parts) == [0, 1, 2, 3]
    assert sum(v.size for v in parts.values()) == P
    # each position routed to the node owning its range
    for node, idx in parts.items():
        rng = router.entries[node][0]
        assert ((idx >= rng.lo) & (idx < rng.hi)).all()


def test_probe_equals_build_without_replicas():
    router = make_router(3)
    pos = np.random.default_rng(0).integers(0, P, 500)
    b = shares(router, pos)
    p = shares(router, pos, probe=True)
    assert sorted(b) == sorted(p)
    for n in b:
        assert np.array_equal(np.sort(b[n]), np.sort(p[n]))


def test_replica_changes_active_build_destination():
    router = make_router(2)
    v1 = router.with_replica(0, 7, version=1)
    pos = all_positions()
    build = shares(v1, pos)
    assert 0 not in build, "old replica no longer receives build traffic"
    assert 7 in build and 1 in build


def test_probe_broadcasts_to_whole_chain():
    router = make_router(2).with_replica(0, 7, 1).with_replica(0, 8, 2)
    pos = all_positions()
    probe = shares(router, pos, probe=True)
    w = router.entries[0][0].width
    assert probe[0].size == probe[7].size == probe[8].size == w
    total = sum(v.size for v in probe.values())
    assert total == P + 2 * w  # duplicates for the two extra replicas


def test_bisection_splits_single_owner_range():
    router = make_router(2)
    v1 = router.with_bisection(1, keeper=1, new_node=9, version=1)
    entries = v1.entries
    assert len(entries) == 3
    assert entries[1][1] == (1,) and entries[2][1] == (9,)
    assert entries[1][0].hi == entries[2][0].lo
    build = shares(v1, all_positions())
    assert sum(v.size for v in build.values()) == P


def test_bisect_replicated_range_rejected():
    router = make_router(2).with_replica(0, 7, 1)
    with pytest.raises(ValueError):
        router.with_bisection(0, 0, 9, 2)


def test_router_validation():
    with pytest.raises(ValueError):  # gap
        RangeRouter(P, ((HashRange(0, 10), (0,)),), 0)
    with pytest.raises(ValueError):  # duplicate dest
        RangeRouter(P, ((HashRange(0, P), (1, 1)),), 0)
    with pytest.raises(ValueError):  # empty chain
        RangeRouter(P, ((HashRange(0, P), ()),), 0)


def test_entry_index_for_and_replicated_groups():
    router = make_router(4).with_replica(2, 9, 1)
    rng2 = router.entries[2][0]
    assert router.entry_index_for(rng2.lo) == 2
    assert router.entry_index_for(rng2.hi - 1) == 2
    groups = router.replicated_groups()
    assert len(groups) == 1 and groups[0][1] == (2, 9)


def test_cached_table_is_invisible_and_never_inherited():
    """The position -> entry table is built by the first routing call and
    kept outside the dataclass fields: equality, hash and repr do not see
    it, and every functional update starts without one (a stale table
    would route by the old bounds)."""
    routed, fresh = make_router(4), make_router(4)
    before = repr(routed)
    assert "_table" not in routed.__dict__
    shares(routed, all_positions())
    shift, lut = routed.__dict__["_table"]
    assert (shift, lut.tolist()) == (10, [0, 1, 2, 3])  # 4 slots, not 4096
    assert routed == fresh and hash(routed) == hash(fresh)
    assert repr(routed) == before and "_table" not in before

    pos = all_positions()
    for update in (
        routed.with_replica(1, 7, 1),
        routed.with_bisection(1, 1, 7, 1),
        routed.with_takeover({1, 2}, 7, 1),
    ):
        assert "_table" not in update.__dict__
        twin = RangeRouter(update.positions, update.entries, update.version)
        got, want = shares(update, pos, probe=True), shares(twin, pos, probe=True)
        assert got.keys() == want.keys()
        assert all(np.array_equal(got[n], want[n]) for n in want)
    # the bisected router routes by its own bounds: 1024..1535 | 1536..2047
    bisected = routed.with_bisection(1, 1, 7, 1)
    split = shares(bisected, pos)
    assert split[1].tolist() == list(range(1024, 1536))
    assert split[7].tolist() == list(range(1536, 2048))
    assert bisected.__dict__["_table"][0] == 9


def test_wire_bytes_grows_with_entries():
    small = make_router(2)
    big = make_router(16)
    assert big.wire_bytes() > small.wire_bytes() > 0


def test_owners_lists_every_destination():
    router = make_router(2).with_replica(0, 7, 1)
    assert router.owners() == {0, 1, 7}


# ----------------------------------------------------------------------
# LinearHashRouter (classic mod addressing)
# ----------------------------------------------------------------------
def test_linear_router_initial_matches_mod():
    r = LinearHashRouter(n0=4, level=0, split_pointer=0,
                         bucket_nodes=(10, 11, 12, 13))
    pos = all_positions()
    buckets = r.bucket_of(pos)
    assert np.array_equal(buckets, pos % 4)
    parts = shares(r, pos)
    assert sorted(parts) == [10, 11, 12, 13]
    assert sum(v.size for v in parts.values()) == P


def test_linear_router_split_pointer_uses_next_level():
    # n0=2, level=0, pointer=1: bucket 0 already split into {0, 2}.
    r = LinearHashRouter(n0=2, level=0, split_pointer=1,
                         bucket_nodes=(5, 6, 7))
    pos = all_positions()
    buckets = r.bucket_of(pos)
    even = pos % 2 == 0
    assert set(np.unique(buckets[even])) == {0, 2}
    assert set(np.unique(buckets[~even])) == {1}
    assert np.array_equal(buckets[even], pos[even] % 4)


def test_linear_router_validation():
    with pytest.raises(ValueError):
        LinearHashRouter(0, 0, 0, ())
    with pytest.raises(ValueError):
        LinearHashRouter(2, 0, 2, (1, 2, 3, 4))
    with pytest.raises(ValueError):  # wrong bucket count
        LinearHashRouter(2, 0, 1, (1, 2))


# ----------------------------------------------------------------------
# LinearHashRouter.with_split (the Litwin split the scheduler installs)
# ----------------------------------------------------------------------
def test_directory_split_lifecycle():
    """One split appends bucket m + s, advances the pointer, keeps r."""
    r = LinearHashRouter(2, 0, 0, (0, 1))
    assert (r.modulus, r.n_buckets) == (2, 2)
    s = r.with_split(new_node=5, version=3)
    assert (s.level, s.split_pointer, s.bucket_nodes) == (0, 1, (0, 1, 5))
    assert s.version == 3 and r.bucket_nodes == (0, 1)  # r is unchanged


def test_directory_router_reflects_completed_splits():
    """The split table routes each position once, over buckets {0, 1, 5}."""
    s = LinearHashRouter(2, 0, 0, (0, 1)).with_split(new_node=5, version=3)
    assert s.version == 3 and s.n_buckets == 3
    pos = all_positions()
    parts = shares(s, pos)
    assert sum(v.size for v in parts.values()) == P
    assert set(parts) == {0, 1, 5}
    # bucket 0 split under h_1: its positions 2 mod 4 moved to bucket 2
    assert np.array_equal(parts[5], pos[pos % 4 == 2])
    assert np.array_equal(parts[1], pos[pos % 2 == 1])


def test_with_split_doubles_level_after_full_round():
    r = LinearHashRouter(2, 0, 0, (0, 1))
    for version, new in enumerate((5, 6), start=1):
        r = r.with_split(new, version)
    assert (r.level, r.modulus, r.split_pointer) == (1, 4, 0)
    assert r.bucket_nodes == (0, 1, 5, 6)
    assert np.array_equal(r.bucket_of(all_positions()), all_positions() % 4)
    r = r.with_split(7, 3)  # the next round splits bucket 0 again, under h_2
    assert (r.level, r.split_pointer, r.n_buckets) == (1, 1, 5)
