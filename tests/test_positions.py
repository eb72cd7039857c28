"""Positional sidecar + phrase matching vs a pure-Python oracle."""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pytest

from vexor_ray.index.positions import (
    PositionsConfig,
    PositionsIndex,
    build_positions_index,
    decode_position_chunk,
    encode_position_runs,
)
from vexor_ray.fixtures.pages import write_pages
from vexor_ray.spec import TOKEN_PATTERN

_TOK = re.compile(TOKEN_PATTERN)


def _oracle_phrase(corpus, phrase: str) -> dict[int, int]:
    terms = _TOK.findall(phrase.lower())
    out = {}
    for did, toks in corpus.items():
        n = 0
        for i in range(len(toks) - len(terms) + 1):
            if toks[i : i + len(terms)] == terms:
                n += 1
        if n:
            out[did] = n
    return out


def test_encode_decode_roundtrip():
    rows = [
        (1, "aa", 0, 5, [1, 4, 9]),
        (1, "aa", 0, 7, [2]),
        (1, "aa", 0, 6, [3, 3 + 127]),  # out-of-order docs within run
        (2, "bb", 0, 5, [1000000]),
        (2, "bb", 1, 9, [1, 2, 3, 4]),
    ]
    batch = pa.table(
        {
            "th": pa.array([r[0] for r in rows], type=pa.uint64()),
            "term": pa.array([r[1] for r in rows], type=pa.string()),
            "salt": pa.array([r[2] for r in rows], type=pa.uint64()),
            "doc_id": pa.array([r[3] for r in rows], type=pa.uint64()),
            "poss": pa.array([r[4] for r in rows], type=pa.list_(pa.uint32())),
        }
    )
    out = encode_position_runs(batch)
    assert out.num_rows == 3  # (aa,0), (bb,0), (bb,1)
    chunks = out.to_pylist()
    aa = chunks[0]
    docs, cnts, flat = decode_position_chunk(
        {k: (bytes(v) if isinstance(v, (bytes, bytearray)) else v) for k, v in aa.items()}
    )
    assert docs.tolist() == [5, 6, 7]
    assert cnts.tolist() == [3, 2, 1]
    assert flat.tolist() == [1, 4, 9, 3, 130, 2]
    bb1 = chunks[2]
    docs, cnts, flat = decode_position_chunk(bb1)
    assert docs.tolist() == [9] and flat.tolist() == [1, 2, 3, 4]


def test_phrase_parity_fixture_phrases(pos_index, pos_oracle):
    idx = PositionsIndex(pos_index)
    # phrases harvested from the corpus itself + adversarial shapes
    some_tokens = next(iter(pos_oracle.values()))
    phrases = [
        " ".join(some_tokens[3:5]),
        " ".join(some_tokens[10:13]),
        "html body",          # markup wrapper tokens (hot)
        "body html",
        "needledften",        # single term == positional tf
        "qqqzzzabsentterm",   # absent
        "needledften needledfhundred",  # co-located? likely absent
    ]
    n_nonempty = 0
    for ph in phrases:
        got = idx.phrase_occurrences(ph)
        exp = _oracle_phrase(pos_oracle, ph)
        got_d = dict(
            zip(got["doc_id"].to_pylist(), got["n_occ"].to_pylist())
        )
        assert got_d == exp, ph
        n_nonempty += bool(exp)
    assert n_nonempty >= 3


def test_phrase_repeated_term(pos_index, pos_oracle):
    idx = PositionsIndex(pos_index)
    # the generator emits runs like "batch batch batch" — overlapping
    # occurrences of a repeated-term phrase are the classic off-by-one trap
    for ph in ["batch batch", "batch batch batch"]:
        got = idx.phrase_occurrences(ph)
        exp = _oracle_phrase(pos_oracle, ph)
        got_d = dict(zip(got["doc_id"].to_pylist(), got["n_occ"].to_pylist()))
        assert got_d == exp, ph


def test_phrase_longer_random_windows(pos_index, pos_oracle):
    idx = PositionsIndex(pos_index)
    rng = np.random.default_rng(3)
    dids = sorted(pos_oracle)
    checked = 0
    for _ in range(10):
        did = dids[int(rng.integers(0, len(dids)))]
        toks = pos_oracle[did]
        if len(toks) < 12:
            continue
        s = int(rng.integers(0, len(toks) - 6))
        ph = " ".join(toks[s : s + int(rng.integers(2, 6))])
        got = idx.phrase_occurrences(ph)
        exp = _oracle_phrase(pos_oracle, ph)
        got_d = dict(zip(got["doc_id"].to_pylist(), got["n_occ"].to_pylist()))
        assert got_d == exp, (did, ph)
        assert did in got_d  # the source doc must match its own window
        checked += 1
    assert checked >= 5


def test_positions_resume(ray_session, pages_1k, tmp_path_factory):
    from vexor_ray.index.manifest import InjectedFault

    out = tmp_path_factory.mktemp("positions_resume") / "pos_r"
    cfg = PositionsConfig(
        shard_group_size=2, num_waves=2, tokenize_concurrency=2,
        fail_after_partitions=2,
    )
    with pytest.raises(InjectedFault):
        build_positions_index(pages_1k, out, cfg)
    cfg2 = PositionsConfig(
        shard_group_size=2, num_waves=2, tokenize_concurrency=2
    )
    man = build_positions_index(pages_1k, out, cfg2)
    done = {p["partition_id"] for p in man["partitions"] if p["stage"] == "positions"}
    assert done == {"wave-0000-gen-0000", "wave-0001-gen-0000"}
    idx = PositionsIndex(out)
    got = idx.phrase_occurrences("body html")  # "</body></html>" wrapper
    assert got.num_rows > 0


def test_positions_incremental_delta_generation(ray_session, tmp_path_factory):
    """Changing one shard appends a small delta generation per wave; query
    results stay exactly equal to a from-scratch build over the new corpus."""
    import pyarrow.parquet as pq

    from vexor_ray.fixtures.pages import generate_pages

    tmp = tmp_path_factory.mktemp("pos_incr")
    pages = write_pages(tmp / "pages", 400, seed=42, rows_per_file=100)

    def cfg():
        return PositionsConfig(
            shard_group_size=1, num_waves=2, tokenize_concurrency=2
        )

    idx_dir = tmp / "idx"
    build_positions_index(pages, idx_dir, cfg())

    shards = sorted(pages.glob("part-*.parquet"))
    other = generate_pages(120, seed=77)
    pq.write_table(other.slice(40, 60), shards[2])
    man = build_positions_index(pages, idx_dir, cfg())

    for w, gens in man["pos_wave_gens"].items():
        assert [g["gen"] for g in gens] == [0, 1], w
        assert gens[1]["covers_files"] == [2], w

    fresh_dir = tmp / "idx_fresh"
    build_positions_index(pages, fresh_dir, cfg())
    inc, fresh = PositionsIndex(idx_dir), PositionsIndex(fresh_dir)
    n_nonempty = 0
    for ph in ["body html", "head title", "title example", "batch batch"]:
        a = inc.phrase_occurrences(ph).to_pydict()
        b = fresh.phrase_occurrences(ph).to_pydict()
        assert a == b, ph
        n_nonempty += bool(a["doc_id"])
        na = inc.near_occurrences(*ph.split()[:2], 10).to_pydict()
        nb = fresh.near_occurrences(*ph.split()[:2], 10).to_pydict()
        assert na == nb, ph
    assert n_nonempty >= 2

    # compaction: one FULL generation per wave, results unchanged, the
    # fragmented generations' records and directories gone
    from vexor_ray.index.positions import compact_positions_index

    man2 = compact_positions_index(pages, idx_dir)
    for w, gens in man2["pos_wave_gens"].items():
        assert len(gens) == 1 and gens[0]["full"], w
    live = {f for gens in man2["pos_wave_gens"].values() for g in gens for f in g["files"]}
    on_disk = {str(f) for f in (idx_dir / "positions").rglob("*.parquet")}
    assert on_disk == live
    comp = PositionsIndex(idx_dir)
    for ph in ["body html", "head title", "batch batch"]:
        assert comp.phrase_occurrences(ph).to_pydict() == fresh.phrase_occurrences(
            ph
        ).to_pydict(), ph


def test_positions_compose_with_streaming_ingestion(ray_session, tmp_path):
    """The positions sidecar rides along a streaming-ingested corpus with no
    extra machinery: each micro-batch appends one pages shard, so a
    post-batch build_positions_index call appends one delta generation per
    wave — and the result equals a from-scratch build over the shards."""
    import pyarrow as pa

    from vexor_ray.index.build import BuildConfig
    from vexor_ray.streaming import StreamingIngestor

    bm25_cfg = BuildConfig(
        pre_extracted=True, doc_builder="text", num_waves=1,
        partitions_per_wave=2, shard_group_size=1, tokenize_concurrency=2,
    )

    def pos_cfg():
        return PositionsConfig(
            pre_extracted=True, text_only=True, num_waves=1,
            shard_group_size=1, tokenize_concurrency=2,
        )

    def batch(tag, n, ts0):
        return pa.table(
            {
                "url": pa.array([f"{tag}/{i:04d}.html" for i in range(n)]),
                "text": pa.array(
                    [f"{tag} shared phrase here item {i}" for i in range(n)]
                ),
                "warc_ts": pa.array(
                    [(ts0 + i) * 1_000_000 for i in range(n)], pa.timestamp("us")
                ),
            }
        )

    ing = StreamingIngestor(tmp_path / "s", bm25_cfg)
    pos_dir = tmp_path / "pos"
    gens_seen = []
    for i, tag in enumerate(["one", "two", "three"]):
        ing.ingest_batch(batch(tag, 15, 1000 * (i + 1)))
        man = build_positions_index(ing.pages_dir, pos_dir, pos_cfg())
        gens_seen.append(
            [g["gen"] for g in man["pos_wave_gens"]["0"]]
        )
    assert gens_seen == [[0], [0, 1], [0, 1, 2]]  # one delta per batch

    fresh = tmp_path / "pos_fresh"
    build_positions_index(ing.pages_dir, fresh, pos_cfg())
    inc, batch_idx = PositionsIndex(pos_dir), PositionsIndex(fresh)
    for ph in ["shared phrase here", "one shared", "three shared", "absent words"]:
        assert (
            inc.phrase_occurrences(ph).to_pydict()
            == batch_idx.phrase_occurrences(ph).to_pydict()
        ), ph
    assert inc.phrase_occurrences("shared phrase here").num_rows == 45


def test_positions_shrunk_input_forces_full_rebuild(ray_session, tmp_path_factory):
    """Removing a trailing input file must trigger a full-rebuild generation
    — a delta gen only covers CURRENT files, so the dropped file's old
    chunks would otherwise survive as phantom docs."""
    tmp = tmp_path_factory.mktemp("pos_shrink")
    pages = write_pages(tmp / "pages", 300, seed=42, rows_per_file=100)
    idx_dir = tmp / "idx"
    cfg = PositionsConfig(shard_group_size=2, num_waves=1, tokenize_concurrency=2)
    build_positions_index(pages, idx_dir, cfg)
    idx0 = PositionsIndex(idx_dir)
    before = idx0.phrase_occurrences("body html").to_pydict()
    phantom = [d for d in before["doc_id"] if (d >> 32) == 2]
    assert phantom  # file 2's docs matched before removal

    sorted(pages.glob("part-*.parquet"))[2].unlink()
    man = build_positions_index(
        pages, idx_dir,
        PositionsConfig(shard_group_size=2, num_waves=1, tokenize_concurrency=2),
    )
    for w, gens in man["pos_wave_gens"].items():
        assert len(gens) == 1 and gens[0]["gen"] == 0, w
    after = PositionsIndex(idx_dir).phrase_occurrences("body html").to_pydict()
    assert not any((d >> 32) == 2 for d in after["doc_id"])  # no phantoms
    kept = {d for d in before["doc_id"] if (d >> 32) != 2}
    assert set(after["doc_id"]) == kept


def test_positions_config_change_forces_full_rebuild(ray_session, tmp_path_factory):
    """Rebuilding over unchanged input with another ``num_waves`` (what the
    ``positions --waves`` CLI does) must replace the old layout: a reader
    of the new config hashes every term to wave 0, so a kept two-wave
    layout loses every term of wave 1."""
    tmp = tmp_path_factory.mktemp("pos_cfg")
    pages = write_pages(tmp / "pages", 300, seed=42, rows_per_file=100)

    def cfg(waves):
        return PositionsConfig(num_waves=waves, tokenize_concurrency=2)

    idx_dir = tmp / "idx"
    build_positions_index(pages, idx_dir, cfg(2))
    man = build_positions_index(pages, idx_dir, cfg(1))
    gens = {w: [g["gen"] for g in gs] for w, gs in man["pos_wave_gens"].items()}
    assert gens == {"0": [0]}
    fresh_dir = tmp / "idx_fresh"
    build_positions_index(pages, fresh_dir, cfg(1))
    rebuilt, fresh = PositionsIndex(idx_dir), PositionsIndex(fresh_dir)
    for ph, n_docs in [("body html", 300), ("needledften", 10)]:
        got = rebuilt.phrase_occurrences(ph)
        assert got.num_rows == n_docs, ph
        assert got == fresh.phrase_occurrences(ph), ph


def test_phrase_and_near_respect_deleted_doc_ids(pos_index, pos_oracle):
    """deleted_doc_ids filtering (companion of index/deletes.py tombstones):
    deleted docs vanish from phrase/NEAR results, others are untouched."""
    from vexor_ray.index.positions import PositionsIndex

    from collections import Counter

    counts = Counter(t for toks in pos_oracle.values() for t in toks)
    (w1, _), (w2, _) = counts.most_common(2)
    idx = PositionsIndex(pos_index)
    base = idx.phrase_occurrences(w1)
    assert base.num_rows >= 3
    docs = base.column("doc_id").to_pylist()
    victims = docs[:2]
    got = idx.phrase_occurrences(w1, deleted_doc_ids=victims)
    assert got.column("doc_id").to_pylist() == docs[2:]
    assert (
        got.column("n_occ").to_pylist()
        == base.column("n_occ").to_pylist()[2:]
    )
    near = idx.near_occurrences(w1, w2, 5)
    if near.num_rows:
        v2 = [near.column("doc_id")[0].as_py()]
        got2 = idx.near_occurrences(w1, w2, 5, deleted_doc_ids=v2)
        assert v2[0] not in got2.column("doc_id").to_pylist()
        assert got2.num_rows == near.num_rows - 1


def test_shared_tokenize_pass_parity(ray_session, pages_1k, pos_index, tmp_path_factory):
    """Sidecar built from the BM25 build's docs_tok checkpoint
    (BuildConfig(emit_positions=True) → build_positions_from_index) must
    answer phrase queries identically to the standalone sidecar that
    re-extracts and re-tokenizes the corpus."""
    from vexor_ray.index.build import BuildConfig, build_index
    from vexor_ray.index.positions import build_positions_from_index

    root = tmp_path_factory.mktemp("sharedpos")
    bm = root / "bm25"
    build_index(
        pages_1k,
        bm,
        BuildConfig(
            text_only=True,
            emit_positions=True,
            num_waves=1,
            partitions_per_wave=4,
            shard_group_size=2,
            tokenize_concurrency=2,
        ),
    )
    shared = root / "pos_shared"
    build_positions_from_index(bm, shared)

    standalone = PositionsIndex(pos_index)
    from_pass = PositionsIndex(shared)
    for phrase in ("fox jumps", "the quick brown", "needledfone", "jumps over the"):
        a = standalone.phrase_occurrences(phrase)
        b = from_pass.phrase_occurrences(phrase)
        assert a == b, phrase
    # near/NEAR parity too (uses the same decoded positions)
    assert standalone.near_occurrences("quick", "lazy", 8).equals(
        from_pass.near_occurrences("quick", "lazy", 8)
    )


def test_build_positions_from_index_requires_flag(ray_session, pages_1k, tmp_path_factory):
    """An index built WITHOUT emit_positions must be refused with a clear
    error (its docs checkpoint has no poss column)."""
    from vexor_ray.index.build import BuildConfig, build_index
    from vexor_ray.index.positions import build_positions_from_index

    root = tmp_path_factory.mktemp("sharedpos_noflag")
    bm = root / "bm25"
    build_index(
        pages_1k,
        bm,
        BuildConfig(text_only=True, num_waves=1, shard_group_size=4),
    )
    with pytest.raises(ValueError, match="emit_positions"):
        build_positions_from_index(bm, root / "pos")


def test_shared_pass_survives_incremental_append(ray_session, tmp_path_factory):
    """Shared-pass composition with incremental builds: append pages,
    re-run the BM25 build (delta docs_tok generations), re-run
    build_positions_from_index — phrase results must equal a fresh
    standalone sidecar over the full corpus."""
    from vexor_ray.index.build import BuildConfig, build_index
    from vexor_ray.index.positions import (
        PositionsConfig,
        build_positions_from_index,
        build_positions_index,
    )

    root = tmp_path_factory.mktemp("sharedpos_inc")
    pages = write_pages(root / "pages", 150, seed=21, rows_per_file=75)
    bm = root / "bm25"
    cfg = BuildConfig(
        text_only=True,
        emit_positions=True,
        num_waves=1,
        partitions_per_wave=4,
        shard_group_size=1,
        tokenize_concurrency=2,
    )
    build_index(pages, bm, cfg)
    shared = root / "pos_shared"
    build_positions_from_index(bm, shared)

    # append one more shard and re-run both builds
    write_pages(root / "pages", 225, seed=21, rows_per_file=75)
    build_index(pages, bm, cfg)
    build_positions_from_index(bm, shared)

    fresh = root / "pos_fresh"
    build_positions_index(
        pages,
        fresh,
        PositionsConfig(
            pre_extracted=False,
            text_only=True,
            shard_group_size=1,
            tokenize_concurrency=2,
        ),
    )
    a = PositionsIndex(shared)
    b = PositionsIndex(fresh)
    for phrase in ("needledfone", "the quick brown", "fox jumps over"):
        assert a.phrase_occurrences(phrase) == b.phrase_occurrences(phrase), phrase


def test_shared_pass_build_kill_resume(ray_session, pages_1k, tmp_path_factory):
    """Crash-safety of the shared-tokenize-pass path: a killed
    build_positions_from_index run resumes to a bit-equivalent sidecar."""
    from vexor_ray.index.build import BuildConfig, build_index
    from vexor_ray.index.manifest import InjectedFault
    from vexor_ray.index.positions import (
        PositionsConfig,
        build_positions_from_index,
    )

    root = tmp_path_factory.mktemp("sharedpos_kill")
    bm = root / "bm25"
    build_index(
        pages_1k,
        bm,
        BuildConfig(
            text_only=True,
            emit_positions=True,
            num_waves=2,
            shard_group_size=2,
            tokenize_concurrency=2,
        ),
    )
    out = root / "pos"
    with pytest.raises(InjectedFault):
        build_positions_from_index(
            bm, out, PositionsConfig(num_waves=2, fail_after_partitions=1)
        )
    man = build_positions_from_index(bm, out, PositionsConfig(num_waves=2))
    done = {
        p["partition_id"] for p in man["partitions"] if p["stage"] == "positions"
    }
    assert done == {"wave-0000-gen-0000", "wave-0001-gen-0000"}
    idx = PositionsIndex(out)
    got = idx.phrase_occurrences("needledften")
    assert got.num_rows == 10  # df=10 needle
