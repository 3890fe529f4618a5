import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spdcl.difficulty import ScoreTable, delta_scores, dump_norms, initial_scores
from spdcl.nucnorm import EmbeddingDump

import reference_difficulty as ref
from dumps import pack_dump
from tables import ranked_ids, scores_by_id


def embeddings_with_norms(norms: dict[str, float]) -> EmbeddingDump:
    # 1x1 matrices: nuclear norm is the absolute value, so norms are exact.
    return pack_dump((sid, [[v]]) for sid, v in norms.items())


def scored(norms: dict[str, float]) -> ScoreTable:
    return initial_scores(*dump_norms(embeddings_with_norms(norms)))


def rescored(norms: dict[str, float], previous: ScoreTable, **kwargs) -> ScoreTable:
    return delta_scores(*dump_norms(embeddings_with_norms(norms)), previous, **kwargs)


def ranks_by_id(table: ScoreTable) -> dict[str, int]:
    return {sid: rank for rank, sid in enumerate(ranked_ids(table))}


# -------------------------------------------------------------- epoch 1


def test_initial_scores_rank_ascending():
    table = scored({"a": 5.0, "b": 2.0, "c": 9.0})
    assert ranks_by_id(table) == {"b": 0, "a": 1, "c": 2}
    assert table.epoch == 1
    assert scores_by_id(table)["a"] == pytest.approx(5.0)


def test_initial_scores_tie_breaks_by_id():
    assert ranks_by_id(scored({"y": 3.0, "x": 3.0})) == {"x": 0, "y": 1}


def test_initial_scores_seeds_history():
    # The epoch-1 table carries the raw norms, columns in id order; it is
    # all the history epoch 2's delta reads.
    table = scored({"a": 2.0, "b": 1.0})
    assert table.ids == ("a", "b")
    assert table.norm.tolist() == [2.0, 1.0]
    assert rescored({"a": 2.0, "b": 4.0}, table, mode="identity").score.tolist() == [0.0, 3.0]


def test_duplicate_and_empty_dumps_rejected():
    # The dump is checked once, when it is built; dump_norms gets only valid dumps.
    with pytest.raises(ValueError, match="duplicate"):
        dump_norms(pack_dump([("a", [[1.0]]), ("a", [[2.0]])]))
    with pytest.raises(ValueError, match="empty"):
        dump_norms(pack_dump([]))


def test_length_orders_initial_ranks():
    # Samples that differ only in row count: more rows, larger norm, harder.
    rng = np.random.default_rng(11)
    dump = pack_dump([
        ("len04", rng.normal(size=(4, 8))),
        ("len16", rng.normal(size=(16, 8))),
        ("len08", rng.normal(size=(8, 8))),
    ])
    assert ranked_ids(initial_scores(*dump_norms(dump))) == ["len04", "len08", "len16"]


def test_dump_norms_sorts_ids_once():
    dump = embeddings_with_norms({"c": 3.0, "a": 1.0, "b": 2.0})
    ids, norm = dump_norms(dump)
    assert ids == ("a", "b", "c")
    assert norm.dtype == np.float64 and norm.tolist() == [1.0, 2.0, 3.0]


# ------------------------------------------------------------ delta scores


def test_identity_aligned_magnitude_example():
    table = rescored({"a": 4.0, "b": 9.0, "c": 10.0}, scored({"a": 10.0, "b": 10.0, "c": 10.0}),
                     mode="identity")
    assert ranks_by_id(table) == {"a": 0, "b": 1, "c": 2}
    assert scores_by_id(table)["a"] == pytest.approx(-6.0)
    assert table.epoch == 2


def test_all_zero_deltas_fall_back_to_id_order():
    norms = {"m": 1.0, "k": 2.0, "z": 3.0}
    table = rescored(norms, scored(norms), mode="identity")
    assert ranked_ids(table) == ["k", "m", "z"]


def test_rank_aligned_against_positionwise_oracle():
    rng = np.random.default_rng(5)
    ids = tuple(f"s{i}" for i in range(5))
    prev = rng.uniform(0, 10, size=5)
    cur = rng.uniform(0, 10, size=5)

    table = delta_scores(ids, cur, initial_scores(ids, prev), mode="rank")

    # Independent oracle: materialize both sorted tables, subtract
    # position-wise, attribute the delta to the current occupant.
    prev_sorted = sorted(zip(ids, prev.tolist()), key=lambda kv: (kv[1], kv[0]))
    cur_sorted = sorted(zip(ids, cur.tolist()), key=lambda kv: (kv[1], kv[0]))
    expected = {cur_sorted[i][0]: cur_sorted[i][1] - prev_sorted[i][1] for i in range(len(ids))}
    order = sorted(ids, key=lambda s: (-abs(expected[s]), s))
    assert scores_by_id(table) == pytest.approx(expected)
    assert ranked_ids(table) == order


def test_signed_ordering():
    # a drops by 1 (delta -1), b rises by 2: signed puts the rise first.
    table = rescored({"a": 4.0, "b": 7.0}, scored({"a": 5.0, "b": 5.0}), mode="identity",
                     ordering="signed")
    assert ranked_ids(table) == ["b", "a"]


def test_signed_vs_magnitude_differ_on_descent():
    previous = scored({"a": 10.0, "b": 10.0})
    cur = {"a": 4.0, "b": 9.0}  # deltas: a=-6, b=-1
    magnitude = ranked_ids(rescored(cur, previous, mode="identity"))
    signed = ranked_ids(rescored(cur, previous, mode="identity", ordering="signed"))
    assert magnitude == ["a", "b"]  # biggest swing first
    assert signed == ["b", "a"]  # least-negative first


def test_sample_mismatch_and_bad_modes_rejected():
    previous = scored({"a": 1.0, "b": 2.0})
    with pytest.raises(ValueError, match="sample-id set"):
        rescored({"a": 1.0, "c": 2.0}, previous)
    with pytest.raises(ValueError, match="sample-id set"):
        rescored({"a": 1.0}, previous)
    with pytest.raises(ValueError, match="mode"):
        rescored({"a": 1.0, "b": 2.0}, previous, mode="nope")
    with pytest.raises(ValueError, match="ordering"):
        rescored({"a": 1.0, "b": 2.0}, previous, ordering="nope")


def test_history_validates_consistency():
    # The previous table is the history: its columns must match its ids.
    with pytest.raises(ValueError, match="norm must hold one value per sample"):
        ScoreTable(1, ("a", "b"), [1.0], [1.0, 2.0], [0, 1])
    with pytest.raises(ValueError, match="order must hold one value per sample"):
        ScoreTable(1, ("a",), [1.0], [1.0], [[0]])
    table = scored({"a": 1.0})
    with pytest.raises(ValueError):
        table.norm[0] = 2.0  # columns are read-only


def test_score_table_leaves_the_callers_arrays_writable():
    base, score, order = np.array([1.0, 2.0]), np.array([0.5, 0.25]), np.array([1, 0])
    table = ScoreTable(1, ("a", "b"), base[:], score, order)
    assert score.flags.writeable and order.flags.writeable
    base[0], score[0], order[0] = np.nan, np.nan, 0
    assert table.norm.tolist() == [1.0, 2.0] and table.score.tolist() == [0.5, 0.25]
    assert table.order.tolist() == [1, 0]
    assert not any(column.flags.writeable for column in (table.norm, table.score, table.order))
    # The producers freeze only the columns they create themselves.
    norm = np.array([2.0, 1.0])
    first = initial_scores(("a", "b"), norm)
    second = delta_scores(("a", "b"), norm, first)
    assert norm.flags.writeable
    norm[0] = np.nan
    assert first.norm.tolist() == second.norm.tolist() == [2.0, 1.0]


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.text(min_size=1, max_size=4), st.floats(-1e6, 1e6), min_size=1))
def test_rank_then_order_matches_sort_oracle(scores):
    ids = tuple(sorted(scores))
    table = initial_scores(ids, [scores[sid] for sid in ids])
    assert ranked_ids(table) == sorted(scores, key=lambda s: (scores[s], s))


# -------------------------------------------------- the dict-and-sort oracle


def assert_matches_oracle(previous: dict, current: dict, mode: str, ordering: str):
    """initial_scores then delta_scores, via unsorted dumps, equal the oracle exactly."""
    prev_dump, cur_dump = embeddings_with_norms(previous), embeddings_with_norms(current)
    prev_table = initial_scores(*dump_norms(prev_dump))
    table = delta_scores(*dump_norms(cur_dump), prev_table, mode, ordering)
    # The oracle reads each dump's norms as a dict, in the dump's own order.
    prev_norms = dict(zip(prev_dump.ids, prev_dump.nuclear_norms().tolist()))
    cur_norms = dict(zip(cur_dump.ids, cur_dump.nuclear_norms().tolist()))
    for got, records in (
        (prev_table, ref.initial_scores(prev_norms)),
        (table, ref.delta_scores(cur_norms, prev_norms, 2, mode, ordering)),
    ):
        assert scores_by_id(got) == {r.sample_id: r.score for r in records}
        assert ranked_ids(got) == ref.rank_samples(records)
        assert got.epoch == records[0].epoch


# Few distinct values, so norms tie and deltas are zero; float32, the dump's precision.
_norm_values = st.one_of(st.sampled_from([0.0, 1.0, 2.5, 4.0]), st.floats(0, 1e6, width=32))
_sample_ids = st.one_of(st.sampled_from(["é", "東京", "\U0001f600", "a", "B", "z"]), st.text(min_size=1, max_size=3))


@st.composite
def _two_epochs(draw):
    """Two epochs' norms over one id set, each in its own (unsorted) dump order."""
    ids = draw(st.lists(_sample_ids, min_size=1, max_size=12, unique=True))
    previous = {sid: draw(_norm_values) for sid in draw(st.permutations(ids))}
    current = {sid: draw(_norm_values) for sid in draw(st.permutations(ids))}
    return previous, current


@pytest.mark.parametrize("ordering", ["magnitude", "signed"])
@pytest.mark.parametrize("mode", ["rank", "identity"])
@settings(max_examples=80, deadline=None)
@given(epochs=_two_epochs())
@example(epochs=({"b": 1.0, "a": 1.0, "ü": 2.0}, {"ü": 1.0, "a": 1.0, "b": 2.0}))
def test_tables_match_dict_and_sort_oracle(mode, ordering, epochs):
    assert_matches_oracle(*epochs, mode, ordering)


@pytest.mark.parametrize("ordering", ["magnitude", "signed"])
@pytest.mark.parametrize("mode", ["rank", "identity"])
def test_signed_zero_deltas_match_oracle(mode, ordering):
    # Zero deltas of both signs compare equal: ties fall back to id order,
    # and each keeps its sign.  Both epochs sort a, b, d, c, e.
    ids = ("a", "b", "c", "d", "e")
    prev = [0.0, -0.0, 5.0, 1.0, 7.0]
    cur = [-0.0, 0.0, 5.0, 3.0, 6.0]
    table = delta_scores(ids, cur, initial_scores(ids, prev), mode, ordering)
    records = ref.delta_scores(dict(zip(ids, cur)), dict(zip(ids, prev)), 2, mode, ordering)
    want = {r.sample_id: r.score for r in records}
    assert {sid: repr(s) for sid, s in scores_by_id(table).items()} == {
        sid: repr(s) for sid, s in want.items()
    }
    assert ranked_ids(table) == ref.rank_samples(records)
    assert [repr(want[sid]) for sid in ids] == ["-0.0", "0.0", "0.0", "2.0", "-1.0"]


# -------------------------------------------------------------- properties


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12))
def test_rank_permutation_validity(seed, n):
    rng = np.random.default_rng(seed)
    ids = tuple(f"s{i:02d}" for i in range(n))
    table = delta_scores(ids, rng.uniform(0, 5, size=n), initial_scores(ids, rng.uniform(0, 5, size=n)))
    assert sorted(table.order.tolist()) == list(range(n))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.1, 50.0))
def test_epoch1_ordering_invariant_under_shared_scale(seed, scale):
    rng = np.random.default_rng(seed)
    dump = pack_dump((f"s{i}", rng.normal(size=(3, 4))) for i in range(6))
    scaled = EmbeddingDump(dump.layout, scale * dump.values)
    assert ranked_ids(initial_scores(*dump_norms(dump))) == ranked_ids(initial_scores(*dump_norms(scaled)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 10))
def test_modes_agree_when_orderings_match(seed, n):
    # Same norm ordering in both epochs: the sample at position i is the
    # same sample, so rank-aligned and identity-aligned deltas coincide.
    rng = np.random.default_rng(seed)
    base = np.sort(rng.uniform(0, 10, size=n))
    shift = np.sort(rng.uniform(0, 1, size=n))
    ids = tuple(f"s{i:02d}" for i in range(n))
    previous = initial_scores(ids, base)
    ranked = delta_scores(ids, base + shift, previous, mode="rank")
    identity = delta_scores(ids, base + shift, previous, mode="identity")
    assert ranked.score.tolist() == identity.score.tolist()
    assert ranked.order.tolist() == identity.order.tolist()


def test_determinism_across_repeats():
    rng = np.random.default_rng(3)
    dump = pack_dump((f"s{i}", rng.normal(size=(4, 3))) for i in range(10))
    first, second = (initial_scores(*dump_norms(dump)) for _ in range(2))
    assert first.ids == second.ids
    assert first.score.tolist() == second.score.tolist()
    assert first.order.tolist() == second.order.tolist()
