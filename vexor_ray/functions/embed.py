"""Deterministic text embeddings: char/word n-gram feature hashing.

The classic hashing-vectorizer trick (Weinberger et al., ICML 2009 "Feature
Hashing for Large Scale Multitask Learning"): each n-gram hashes to one of
``dim`` signed buckets; the L2-normalized bucket histogram is the embedding.
No model weights, fully deterministic, and cosine over these vectors tracks
lexical n-gram overlap — the same role the reference's ``DummyBackend``
deterministic embeddings play in its tests
(``tests/unit/test_search_service.py:15-30``), but meaningful enough to
grade hybrid retrieval (shared phrases → high cosine).

Optional **IDF weighting** (the eval harness measures the retrieval gap):
document frequency is counted per *bucket*, not per gram, so the weight
table is a fixed ``dim``-sized array — broadcastable at any corpus size
(the 100 TB path never ships a vocabulary).  IDF weights are quantized to
dyadic rationals (multiples of 1/1024), so bucket sums are exact in double
arithmetic regardless of accumulation order and the SQL oracle reproduces
values bit-for-bit — the same exact-arithmetic discipline as the other
hashed operators.

Shapes: a stateless vectorized ``map_batches`` stage (``hash_embed_batch``)
producing ``embedding:list<float32>``; the same kernel embeds queries
driver-side for broadcast; ``bucket_doc_freq`` is a tiny map-side-histogram
reduce (one ``dim``-long partial per batch).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from .dedup import md5_u64

DEFAULT_EMBED_DIM = 256
_NGRAM = 3
IDF_QUANT = 1024  # idf weights are multiples of 1/IDF_QUANT (dyadic → exact)


def _grams(text: str, n: int, mode: str) -> set[str]:
    """Distinct n-grams of ``text`` under ``mode``
    ('char' | 'word' | 'word_mix').

    ``word_mix`` emits unigrams ∪ 2..n-grams: short queries then share
    features with documents at every granularity (a 2-word query under pure
    bigrams has ONE feature; under word_mix it has three), which is where
    most of the dense arm's eval headroom was.
    """
    from ..spec import TOKEN_RE

    t = (text or "").lower()
    if mode == "word":
        toks = TOKEN_RE.findall(t)
        grams = {" ".join(toks[j : j + n]) for j in range(max(len(toks) - n + 1, 0))}
        if not grams and toks:
            grams = {" ".join(toks)}
        return grams
    if mode == "word_mix":
        toks = TOKEN_RE.findall(t)
        grams = set(toks)
        for k in range(2, n + 1):
            grams.update(
                " ".join(toks[j : j + k]) for j in range(max(len(toks) - k + 1, 0))
            )
        return grams
    if len(t) < n:
        return {t} if t else set()
    return {t[j : j + n] for j in range(len(t) - n + 1)}


def hash_embed(
    texts: list[str],
    dim: int = DEFAULT_EMBED_DIM,
    n: int = _NGRAM,
    as_float32: bool = True,
    mode: str = "char",
    idf: np.ndarray | None = None,
) -> np.ndarray:
    """(len(texts), dim) L2-normalized n-gram hash embeddings.

    ``mode="char"``: character n-grams (near-dup / fuzzy matching; can
    saturate on large natural-language corpora).  ``mode="word"``: word
    n-gram features over the spec tokenizer — much stronger retrieval
    signal (the eval harness measures the gap).  ``idf``: optional
    per-bucket weight array (see ``idf_weights``) — each gram contributes
    ``sign * idf[bucket]`` instead of ``sign``.

    Bucket sums are exact in double arithmetic either way (±1 integers, or
    dyadic-rational idf multiples), so the norm and every quotient are
    exactly reproducible in SQL — ``as_float32=False`` keeps the float64
    form for oracle checking.
    """
    out = np.zeros((len(texts), dim), dtype=np.float64)
    for i, t in enumerate(texts):
        grams = _grams(t, n, mode)
        if not grams:
            continue
        hs = np.fromiter(
            (md5_u64(g.encode()) for g in grams), dtype=np.uint64, count=len(grams)
        )
        buckets = (hs % np.uint64(dim)).astype(np.int64)
        signs = np.where((hs >> np.uint64(63)) & np.uint64(1), -1.0, 1.0)
        if idf is not None:
            signs = signs * idf[buckets]
        np.add.at(out[i], buckets, signs)
        norm = np.linalg.norm(out[i])
        if norm > 0:
            out[i] /= norm
    return out.astype(np.float32) if as_float32 else out


def hash_embed_batch(
    batch: pa.Table,
    *,
    dim: int = DEFAULT_EMBED_DIM,
    mode: str = "char",
    n: int = _NGRAM,
    idf: np.ndarray | None = None,
) -> pa.Table:
    """(doc_id, text) → (doc_id, embedding:list<float32>)."""
    emb = hash_embed(batch.column("text").to_pylist(), dim, n=n, mode=mode, idf=idf)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "embedding": pa.array(emb.tolist(), type=pa.list_(pa.float32())),
        }
    )


def bucket_doc_freq(
    docs: ray.data.Dataset,
    *,
    dim: int = DEFAULT_EMBED_DIM,
    mode: str = "word",
    n: int = 2,
) -> tuple[np.ndarray, int]:
    """(per-bucket document frequency, n_docs) over a (doc_id, text) table.

    Map-side partial histograms (one ``dim``-long int row per batch) summed
    on the driver — the reduce moves #batches × dim ints, independent of
    corpus size.  ``df[b]`` counts documents containing ≥1 gram hashing to
    bucket ``b``; ``n_docs`` counts all documents (empty included, matching
    ``COUNT(*)`` in the SQL twin).
    """

    def partial(batch: pa.Table) -> pa.Table:
        counts = np.zeros(dim, dtype=np.int64)
        n_rows = batch.num_rows
        for t in batch.column("text").to_pylist():
            grams = _grams(t, n, mode)
            if not grams:
                continue
            hs = np.fromiter(
                (md5_u64(g.encode()) for g in grams), dtype=np.uint64, count=len(grams)
            )
            counts[np.unique(hs % np.uint64(dim)).astype(np.int64)] += 1
        return pa.table(
            {
                "counts": pa.array([counts.tolist()], type=pa.list_(pa.int64())),
                "n_docs": pa.array([n_rows], type=pa.int64()),
            }
        )

    parts = docs.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()
    df = np.sum(np.vstack(parts["counts"].to_numpy()), axis=0)
    return df.astype(np.int64), int(parts["n_docs"].sum())


def idf_weights(df: np.ndarray, n_docs: int) -> np.ndarray:
    """Per-bucket IDF, quantized to multiples of 1/IDF_QUANT.

    ``idf = ln((N + 1) / (df + 1)) + 1`` (smooth, never ≤ 0), then
    half-up-rounded to the dyadic grid so every downstream float sum is
    exact — SQL twin: ``floor((ln((N+1.0)/(df+1.0)) + 1.0) * 1024 + 0.5)
    / 1024``.
    """
    raw = np.log((n_docs + 1.0) / (df.astype(np.float64) + 1.0)) + 1.0
    return np.floor(raw * IDF_QUANT + 0.5) / IDF_QUANT
