import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdcl.io import RunConfig
from spdcl.scheduler import build_epoch_plan, epoch_rng

from reference_plans import partition_bins, visible_set
from tables import score_table


def table_for(ids_in_rank_order, epoch=1):
    return score_table(((sid, float(i), float(i)) for i, sid in enumerate(ids_in_rank_order)), epoch)


def bins_of(ids_in_rank_order, k):
    """The bins ``build_epoch_plan`` cuts, as id lists in rank order."""
    bin_of = build_epoch_plan(table_for(ids_in_rank_order), RunConfig(bins_k=k, epochs_T=k), 1).bin_of
    bins = [[] for _ in range(k)]
    for sid in ids_in_rank_order:
        bins[bin_of[sid] - 1].append(sid)
    return bins


# ------------------------------------------------------------ partitioning


def test_even_partition():
    ids = [f"s{i}" for i in range(10)]
    bins = bins_of(ids, 5)
    assert [len(b) for b in bins] == [2, 2, 2, 2, 2]
    assert [sid for b in bins for sid in b] == ids


def test_remainder_goes_to_earliest_bins():
    bins = bins_of([f"s{i}" for i in range(7)], 3)
    assert [len(b) for b in bins] == [3, 2, 2]


def test_corpus_scale_partition_divides_exactly():
    # 53 840 samples over 10 bins: a realistic training-set size that
    # divides evenly, so every bin must come out the same.
    bins = bins_of([f"s{i}" for i in range(53_840)], 10)
    assert [len(b) for b in bins] == [5384] * 10


def test_partition_rejects_k_over_n():
    with pytest.raises(ValueError, match="exceeds"):
        build_epoch_plan(table_for(["a", "b"]), RunConfig(bins_k=3, epochs_T=3), 1)


# ------------------------------------------------------------- visible set


def test_visible_set_widens_then_saturates():
    bins = partition_bins([f"s{i}" for i in range(10)], 5)
    assert len(visible_set(1, bins)) == 2
    assert len(visible_set(3, bins)) == 6
    assert len(visible_set(9, bins)) == 10
    assert visible_set(9, bins) == visible_set(5, bins)


# -------------------------------------------------------------- epoch plans


def test_epoch1_plan_is_shuffled_bin1():
    ids = [f"s{i}" for i in range(10)]
    config = RunConfig(bins_k=5, epochs_T=10, seed=7)
    plan = build_epoch_plan(table_for(ids), config, 1)
    assert max(plan.bin_of[sid] for sid in plan.ordered_ids) == 1
    assert sorted(plan.ordered_ids) == ids[:2]
    assert plan.bin_of == {sid: i // 2 + 1 for i, sid in enumerate(ids)}


def test_plan_is_deterministic():
    ids = [f"s{i}" for i in range(30)]
    config = RunConfig(bins_k=4, epochs_T=8, seed=123)
    a = build_epoch_plan(table_for(ids), config, 3)
    b = build_epoch_plan(table_for(ids), config, 3)
    assert a.ordered_ids == b.ordered_ids
    assert a.bin_of == b.bin_of


def test_plan_depends_only_on_visible_set_not_rank_order():
    # Ranks permuted inside one bin leave the plan's order unchanged.
    config = RunConfig(bins_k=2, epochs_T=4, seed=9)
    a = build_epoch_plan(table_for(["a", "b", "c", "d"]), config, 1)
    b = build_epoch_plan(table_for(["b", "a", "c", "d"]), config, 1)
    assert a.ordered_ids == b.ordered_ids


def test_no_shuffle_mode_presents_rank_order():
    ids = [f"s{i}" for i in range(9)]
    config = RunConfig(bins_k=3, epochs_T=6, seed=1, shuffle_within_epoch=False)
    plan = build_epoch_plan(table_for(ids), config, 2)
    assert plan.ordered_ids == ids[:6]


def test_plan_beyond_k_covers_everything():
    ids = [f"s{i}" for i in range(11)]
    config = RunConfig(bins_k=4, epochs_T=10, seed=5)
    plan = build_epoch_plan(table_for(ids), config, 7)
    assert sorted(plan.ordered_ids) == sorted(ids)
    assert max(plan.bin_of[sid] for sid in plan.ordered_ids) == 4


def test_config_validation_and_warning():
    with pytest.raises(ValueError):
        RunConfig(bins_k=0)
    with pytest.raises(ValueError):
        RunConfig(alignment_mode="nope")
    # Fewer epochs than bins is a run's warning (run_spdcl), not the config's
    # or a plan's.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        config = RunConfig(bins_k=10, epochs_T=3)
        build_epoch_plan(table_for([f"s{i}" for i in range(10)]), config, 3)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"bins_k": 2.5}, "bins_k"),
        ({"epochs_T": 2.5}, "epochs_T"),
        ({"seed": 1.5}, "seed"),
        ({"bins_k": True}, "bins_k"),
        ({"shuffle_within_epoch": "no"}, "shuffle_within_epoch"),
    ],
)
def test_config_rejects_wrong_types(kwargs, field):
    with pytest.raises(ValueError, match=field):
        RunConfig(**kwargs)


# --------------------------------------------------------------- properties


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 200), st.data())
def test_partition_sizes_and_adjacency(n, data):
    k = data.draw(st.integers(1, n))
    ids = [f"s{i:04d}" for i in range(n)]
    bins = bins_of(ids, k)
    sizes = [len(b) for b in bins]
    assert sum(sizes) == n
    assert max(sizes) - min(sizes) <= 1
    # earlier bins hold strictly easier ranks than later bins
    flat = [sid for b in bins for sid in b]
    assert flat == ids


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 120), st.data())
def test_nested_and_saturating_visibility(n, data):
    k = data.draw(st.integers(1, n))
    ids = [f"s{i:04d}" for i in range(n)]
    config = RunConfig(bins_k=k, epochs_T=max(k, 3), seed=0)
    prev: set[str] = set()
    for epoch in range(1, k + 2):
        plan = build_epoch_plan(table_for(ids), config, epoch)
        current = set(plan.ordered_ids)
        assert len(plan.ordered_ids) == len(current), "duplicates in plan"
        assert prev <= current, "visible sets must nest"
        prev = current
    assert prev == set(ids), "must saturate to the full dataset at epoch k"


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 60), st.data())
def test_plan_matches_list_oracle(n, data):
    # Bins cut as slices of the table's rank order and the shuffle's sorted
    # row indices give the plan the id lists give.
    k = data.draw(st.integers(1, n))
    epoch = data.draw(st.integers(1, k + 1))
    shuffle = data.draw(st.booleans())
    ranked = data.draw(st.permutations([f"s{i:03d}" for i in range(n)]))
    config = RunConfig(bins_k=k, epochs_T=max(k, 2), seed=n,
                              shuffle_within_epoch=shuffle)
    plan = build_epoch_plan(table_for(ranked), config, epoch)

    bins = partition_bins(ranked, k)
    visible = visible_set(epoch, bins)
    if shuffle:
        canonical = sorted(visible)
        visible = [canonical[i] for i in epoch_rng(n, epoch).permutation(len(canonical))]
    assert plan.ordered_ids == visible
    assert plan.bin_of == {sid: b for b, part in enumerate(bins, start=1) for sid in part}
    assert max(plan.bin_of[sid] for sid in plan.ordered_ids) == min(epoch, k)
