import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdcl.difficulty import (
    DifficultyHistory,
    DifficultyRecord,
    delta_scores,
    dump_norms,
    initial_scores,
    rank_samples,
)
from spdcl.nucnorm import EmbeddingDump

from dumps import pack_dump


def embeddings_with_norms(norms: dict[str, float]) -> EmbeddingDump:
    # 1x1 matrices: nuclear norm is the absolute value, so norms are exact.
    return pack_dump((sid, [[v]]) for sid, v in norms.items())


# -------------------------------------------------------------- epoch 1


def test_initial_scores_rank_ascending():
    records = initial_scores(embeddings_with_norms({"a": 5.0, "b": 2.0, "c": 9.0}))
    by_id = {r.sample_id: r for r in records}
    assert by_id["b"].rank == 0
    assert by_id["a"].rank == 1
    assert by_id["c"].rank == 2
    assert all(r.epoch == 1 for r in records)
    assert by_id["a"].score == pytest.approx(5.0)


def test_initial_scores_tie_breaks_by_id():
    records = initial_scores(embeddings_with_norms({"y": 3.0, "x": 3.0}))
    by_id = {r.sample_id: r.rank for r in records}
    assert by_id == {"x": 0, "y": 1}


def test_initial_scores_seeds_history():
    history = DifficultyHistory()
    initial_scores(embeddings_with_norms({"a": 2.0, "b": 1.0}), history)
    assert history.table(1) == [("b", 1.0), ("a", 2.0)]


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
    assert rank_samples(initial_scores(dump)) == ["len04", "len08", "len16"]


# ------------------------------------------------------------ delta scores


def test_identity_aligned_magnitude_example():
    history = DifficultyHistory()
    history.append({"a": 10.0, "b": 10.0, "c": 10.0})
    records = delta_scores({"a": 4.0, "b": 9.0, "c": 10.0}, history, mode="identity")
    by_id = {r.sample_id: r for r in records}
    assert by_id["a"].rank == 0 and by_id["a"].score == pytest.approx(-6.0)
    assert by_id["b"].rank == 1
    assert by_id["c"].rank == 2
    assert history.last_epoch == 2


def test_all_zero_deltas_fall_back_to_id_order():
    history = DifficultyHistory()
    history.append({"m": 1.0, "k": 2.0, "z": 3.0})
    records = delta_scores({"m": 1.0, "k": 2.0, "z": 3.0}, history, mode="identity")
    assert rank_samples(records) == ["k", "m", "z"]


def test_rank_aligned_against_positionwise_oracle():
    rng = np.random.default_rng(5)
    ids = [f"s{i}" for i in range(5)]
    prev = {sid: float(rng.uniform(0, 10)) for sid in ids}
    cur = {sid: float(rng.uniform(0, 10)) for sid in ids}

    history = DifficultyHistory()
    history.append(prev)
    records = delta_scores(cur, history, mode="rank")

    # Independent oracle: materialize both sorted tables, subtract
    # position-wise, attribute the delta to the current occupant.
    prev_sorted = sorted(prev.items(), key=lambda kv: (kv[1], kv[0]))
    cur_sorted = sorted(cur.items(), key=lambda kv: (kv[1], kv[0]))
    expected = {
        cur_sorted[i][0]: cur_sorted[i][1] - prev_sorted[i][1] for i in range(len(ids))
    }
    order = sorted(ids, key=lambda s: (-abs(expected[s]), s))
    assert {r.sample_id: r.score for r in records} == pytest.approx(expected)
    assert rank_samples(records) == order


def test_signed_ordering():
    history = DifficultyHistory()
    history.append({"a": 5.0, "b": 5.0})
    records = delta_scores({"a": 4.0, "b": 7.0}, history, mode="identity", ordering="signed")
    # signed: +2 sorts before -1 even though |-1| < |+2| either way here;
    # use a case where they differ: a drops by 1 (delta -1), b rises by 2.
    assert rank_samples(records) == ["b", "a"]


def test_signed_vs_magnitude_differ_on_descent():
    history = DifficultyHistory()
    history.append({"a": 10.0, "b": 10.0})
    cur = {"a": 4.0, "b": 9.0}  # deltas: a=-6, b=-1
    h2 = DifficultyHistory()
    h2.append({"a": 10.0, "b": 10.0})
    magnitude = rank_samples(delta_scores(cur, history, mode="identity"))
    signed = rank_samples(delta_scores(cur, h2, mode="identity", ordering="signed"))
    assert magnitude == ["a", "b"]  # biggest swing first
    assert signed == ["b", "a"]  # least-negative first


def test_missing_history_and_sample_mismatch_rejected():
    with pytest.raises(ValueError, match="history is empty"):
        delta_scores({"a": 1.0}, DifficultyHistory())
    history = DifficultyHistory()
    history.append({"a": 1.0, "b": 2.0})
    with pytest.raises(ValueError, match="sample-id set"):
        delta_scores({"a": 1.0, "c": 2.0}, history)


def test_history_validates_consistency():
    history = DifficultyHistory()
    history.append({"a": 1.0})
    with pytest.raises(ValueError, match="sample-id set"):
        history.append({"b": 1.0})
    with pytest.raises(ValueError):
        DifficultyHistory(first_epoch=0)


# ------------------------------------------------------------ rank_samples


def test_rank_samples_basic_and_errors():
    recs = [
        DifficultyRecord("b", 1, 1.0, 0),
        DifficultyRecord("a", 1, 2.0, 1),
        DifficultyRecord("c", 1, 3.0, 2),
    ]
    assert rank_samples(recs) == ["b", "a", "c"]
    assert rank_samples([DifficultyRecord("solo", 1, 0.0, 0)]) == ["solo"]
    with pytest.raises(ValueError, match="permutation"):
        rank_samples([DifficultyRecord("a", 1, 0.0, 0), DifficultyRecord("b", 1, 0.0, 0)])
    with pytest.raises(ValueError, match="multiple epochs"):
        rank_samples([DifficultyRecord("a", 1, 0.0, 0), DifficultyRecord("b", 2, 0.0, 1)])


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.text(min_size=1, max_size=4), st.floats(-1e6, 1e6), min_size=1))
def test_rank_then_order_matches_sort_oracle(scores):
    records = [
        DifficultyRecord(sid, 1, val, rank)
        for rank, (sid, val) in enumerate(sorted(scores.items(), key=lambda kv: (kv[1], kv[0])))
    ]
    assert rank_samples(records) == sorted(scores, key=lambda s: (scores[s], s))


# -------------------------------------------------------------- properties


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12))
def test_rank_permutation_validity(seed, n):
    rng = np.random.default_rng(seed)
    prev = {f"s{i}": float(rng.uniform(0, 5)) for i in range(n)}
    cur = {f"s{i}": float(rng.uniform(0, 5)) for i in range(n)}
    history = DifficultyHistory()
    history.append(prev)
    records = delta_scores(cur, history)
    assert sorted(r.rank for r in records) == list(range(n))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.1, 50.0))
def test_epoch1_ordering_invariant_under_shared_scale(seed, scale):
    rng = np.random.default_rng(seed)
    dump = pack_dump((f"s{i}", rng.normal(size=(3, 4))) for i in range(6))
    scaled = EmbeddingDump(dump.ids, dump.offsets, scale * dump.values)
    assert rank_samples(initial_scores(dump)) == rank_samples(initial_scores(scaled))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 10))
def test_modes_agree_when_orderings_match(seed, n):
    # Same norm ordering in both epochs: the sample at position i is the
    # same sample, so rank-aligned and identity-aligned deltas coincide.
    rng = np.random.default_rng(seed)
    base = np.sort(rng.uniform(0, 10, size=n))
    shift = np.sort(rng.uniform(0, 1, size=n))
    prev = {f"s{i:02d}": float(base[i]) for i in range(n)}
    cur = {f"s{i:02d}": float(base[i] + shift[i]) for i in range(n)}
    h1, h2 = DifficultyHistory(), DifficultyHistory()
    h1.append(prev)
    h2.append(prev)
    ranked = delta_scores(cur, h1, mode="rank")
    identity = delta_scores(cur, h2, mode="identity")
    assert {r.sample_id: (r.score, r.rank) for r in ranked} == {
        r.sample_id: (r.score, r.rank) for r in identity
    }


def test_determinism_across_repeats():
    rng = np.random.default_rng(3)
    dump = pack_dump((f"s{i}", rng.normal(size=(4, 3))) for i in range(10))
    first = [(r.sample_id, r.score, r.rank) for r in initial_scores(dump)]
    second = [(r.sample_id, r.score, r.rank) for r in initial_scores(dump)]
    assert first == second
