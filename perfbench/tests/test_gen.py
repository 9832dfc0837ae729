"""Generator discipline: determinism, distinctness, no vacuous problems."""

import gen


def test_same_seed_gives_byte_identical_streams():
    assert gen.stream_digest(gen.query_stream(5), 3000) == gen.stream_digest(
        gen.query_stream(5), 3000)
    assert gen.stream_digest(gen.chase_deep_batch(5, 40)) == gen.stream_digest(
        gen.chase_deep_batch(5, 40))


def test_different_seeds_give_different_streams():
    assert gen.stream_digest(gen.query_stream(5), 500) != gen.stream_digest(
        gen.query_stream(6), 500)
    assert gen.stream_digest(gen.chase_deep_batch(5, 20)) != gen.stream_digest(
        gen.chase_deep_batch(6, 20))


def test_default_and_held_out_seeds_are_recorded_and_distinct():
    assert gen.DEFAULT_SEED != gen.HELD_OUT_SEED
    assert gen.stream_digest(gen.query_stream(gen.DEFAULT_SEED), 200) != (
        gen.stream_digest(gen.query_stream(gen.HELD_OUT_SEED), 200))


def test_chase_deep_problems_are_distinct_with_a_fixed_mix():
    batch = gen.chase_deep_batch(3, 63)
    assert len({item.key() for item in batch}) == len(batch)
    families = [item.family for item in batch]
    assert families.count("pjd") == 18
    assert families.count("mvd") == 27
    assert families.count("semigroup") == 18
    assert sum(item.finite for item in batch) == 12


def test_query_stream_shape():
    queries = gen.take(gen.query_stream(4), 20000)
    keys = set()
    repeats = 0
    for query in queries:
        repeats += query.key() in keys
        keys.add(query.key())
    assert 0.85 < repeats / len(queries) < 0.95
    assert 0.15 < sum(q.renamed for q in queries) / len(queries) < 0.35
    assert 0.15 < sum(q.finite for q in queries) / len(queries) < 0.4
    for query in queries[:500]:
        assert set("".join(query.premises + (query.conclusion,))) & set("ABCD")


def test_warmup_queries_never_occur_in_a_stream():
    warm = {query.key() for query in gen.WARMUP_QUERIES}
    for seed in (gen.DEFAULT_SEED, gen.HELD_OUT_SEED):
        assert not warm & {q.key() for q in gen.take(gen.query_stream(seed), 20000)}


def test_chase_deep_problems_apply_a_step_or_exhaust_the_budget():
    """No problem is vacuous: each one chases (slow ones included)."""
    import inproc

    result = inproc.run_deep(gen.DEFAULT_SEED, 20, traced=True)
    assert result["failed"] == 0
    assert result["vacuous_ops"] == []
