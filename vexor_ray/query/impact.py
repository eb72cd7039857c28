"""Threshold-Algorithm top-k over impact-ordered posting chunks.

Fagin's TA (sorted access + random access), the classic exact
early-termination scheme for top-k retrieval, run over the opt-in
impact-ordered companion layout (``BuildConfig.impact_postings``,
``codec.encode_impact``):

- **Sorted access**: each (term, salt) chunk exposes its postings in
  descending idf-free BM25-component order, block at a time; the block
  frontier ``imp_cmax[block]`` upper-bounds every unread posting of the
  chunk (globally descending order; conservatively rescaled by the query
  layer when the corpus avgdl drifted past the encode-time one).
- **Random access**: a doc discovered in one term's impact stream is fully
  scored immediately — its tf/dl in every other query term comes from the
  docID-ordered layout via two ``searchsorted`` calls and one cached block
  decode (``_RandomAccess``).
- **Stop rule**: unseen docs score at most ``T = Σ_terms idf_t ·
  max_chunk_frontier(t)`` (each doc lives in exactly one salt chunk per
  term, and all its postings are still unread — read postings enter
  ``seen``).  Once the heap holds k docs and the worst heap score STRICTLY
  exceeds T, no unseen doc can enter (a tie at T could still win the
  (score desc, docID asc) tie-break, so ties keep scanning).

Rank- and bit-identity with the exact scorer: a doc's score is the sum of
per-term contributions in query-term order, each computed by the same
float64 expression and association order as ``Searcher._exact_scores`` /
``wand._Cursor.score_current`` (plain IEEE-double arithmetic either way),
and the final ranking uses the same ``(score, -docID)`` heap keys as WAND.

Where this wins: cold selective queries (one rare high-idf term + common
companions).  TA scores the ~df_rare docs of the rare term via random
access and never walks the common term's list at all, where WAND still
cursor-walks between rare docs and the exact path decodes everything.
Dense (stop-word-only) queries defeat the threshold and degrade to
per-posting Python — ``Searcher.search(method="auto")`` routes those to
the vectorized exact scorer, same as it does for WAND.

Reference framing: the reference scores every posting of every query term
(``vexor/bm25.py:64-89``); this arm exists for the cold-selective tail the
round-3 verdict left as the one optional index feature ("impact-ordered
postings").
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from ..index import codec


class _ImpactCursor:
    """Block-at-a-time sorted access over one chunk's impact stream."""

    __slots__ = ("chunk", "block", "n_blocks")

    def __init__(self, chunk: dict):
        self.chunk = chunk
        self.block = 0
        self.n_blocks = codec.impact_n_blocks(chunk)

    def frontier(self) -> float:
        """Idf-free component upper bound for every unread posting."""
        if self.block >= self.n_blocks:
            return 0.0
        return float(self.chunk["imp_cmax"][self.block])

    def next_block(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        docs, tfs, dls = codec.decode_impact_block(self.chunk, self.block)
        self.block += 1
        return docs, tfs, dls


class _RandomAccess:
    """(tf, dl) lookup by docID across one term's docID-ordered chunks.

    A doc's posting lives in exactly ONE of a term's chunks, but chunk doc
    RANGES are not necessarily disjoint: besides the salt ranges (disjoint)
    and generations (made disjoint by the searcher's supersede filter), the
    sort shuffle backend may split one (term, salt) run across block
    boundaries into multiple chunks whose doc ranges interleave
    (``build.encode_runs`` documents this as a first-class state the query
    layer merges).  So lookup probes EVERY chunk whose [first, last] doc
    range contains the target (a linear scan over the handful of chunks a
    term has) instead of assuming a single owner; within a chunk, one
    ``searchsorted`` over ``block_last`` picks the block, decoded once and
    cached (TA revisits the same hot blocks for consecutive candidates).
    """

    __slots__ = ("chunks", "chunk_first", "chunk_last", "blocks")

    def __init__(self, chunks: list[dict]):
        self.chunks = [c for c in chunks if c["n_postings"]]
        firsts = []
        for c in self.chunks:
            # first docID = first varint of block 0 (cheap: one block decode,
            # reused below through the block cache)
            firsts.append(int(codec.decode_block(c, 0)[0][0]))
        self.chunk_first = np.array(firsts, dtype=np.uint64)
        self.chunk_last = np.array(
            [int(c["block_last"][-1]) for c in self.chunks], dtype=np.uint64
        )
        self.blocks: list[dict] = [dict() for _ in self.chunks]

    def lookup(self, doc: int) -> tuple[float, float] | None:
        d = np.uint64(doc)
        for ci in range(len(self.chunks)):
            if d < self.chunk_first[ci] or d > self.chunk_last[ci]:
                continue
            c = self.chunks[ci]
            b = int(np.searchsorted(c["block_last"], doc))
            cache = self.blocks[ci]
            blk = cache.get(b)
            if blk is None:
                blk = codec.decode_block(c, b)
                cache[b] = blk
            docs, tfs, dls = blk
            p = int(np.searchsorted(docs, doc))
            if p < docs.size and int(docs[p]) == doc:
                return float(tfs[p]), float(dls[p])
        return None


def impact_topk(
    terms: list[str],
    chunks_by_term: dict[str, list[dict]],
    *,
    doc_count: int,
    avg_doc_len: float,
    k: int,
    k1: float,
    b: float,
) -> list[tuple[int, float]]:
    """Top-k ``[(doc_id, score)]`` — rank-identical to the exact scorer."""
    if k <= 0 or doc_count <= 0 or avg_doc_len <= 0:
        return []
    n_terms = len(terms)
    idf = [0.0] * n_terms
    cursors: list[list[_ImpactCursor]] = [[] for _ in range(n_terms)]
    access: list[_RandomAccess | None] = [None] * n_terms
    for ti, term in enumerate(terms):
        chunks = [c for c in chunks_by_term.get(term, []) if c["n_postings"]]
        if not chunks:
            continue
        missing = [c for c in chunks if "imp_cmax" not in c]
        if missing:
            raise ValueError(
                "impact_topk requires an index built with "
                "BuildConfig(impact_postings=True); term "
                f"{term!r} has chunks without the impact layout"
            )
        df = sum(c["n_postings"] for c in chunks)
        idf[ti] = math.log((doc_count - df + 0.5) / (df + 0.5) + 1.0)
        cursors[ti] = [_ImpactCursor(c) for c in chunks]
        access[ti] = _RandomAccess(chunks)

    heap: list[tuple[float, int]] = []  # (score, -docID) min-heap of top-k
    seen: set[int] = set()

    def full_score(doc: int, src_ti: int, src_tf: float, src_dl: float) -> float:
        # per-term contributions summed in query-term order — the exact
        # scorer's float association (its skipped-term +0.0 adds are exact)
        score = 0.0
        for ti in range(n_terms):
            ra = access[ti]
            if ra is None:
                continue
            if ti == src_ti:
                tf, dl = src_tf, src_dl
            else:
                hit = ra.lookup(doc)
                if hit is None:
                    continue
                tf, dl = hit
            denominator = tf + k1 * (1.0 - b + b * dl / avg_doc_len)
            score += idf[ti] * tf * (k1 + 1.0) / denominator
        return score

    while True:
        # threshold over unseen docs + pick the richest frontier to advance
        threshold = 0.0
        best_bound = 0.0
        best_cursor: _ImpactCursor | None = None
        best_ti = -1
        for ti in range(n_terms):
            if access[ti] is None:
                continue
            term_front = 0.0
            term_cursor = None
            for cur in cursors[ti]:
                f = cur.frontier()
                if f > term_front:
                    term_front = f
                    term_cursor = cur
            bound = idf[ti] * term_front
            threshold += bound
            if term_cursor is not None and bound > best_bound:
                best_bound = bound
                best_cursor = term_cursor
                best_ti = ti
        if len(heap) == k and heap[0][0] > threshold:
            break  # unseen docs cannot beat the heap (strict: ties scan on)
        if best_cursor is None:
            break  # every impact stream exhausted
        docs, tfs, dls = best_cursor.next_block()
        for j in range(int(docs.size)):
            d = int(docs[j])
            if d in seen:
                continue
            seen.add(d)
            key = (full_score(d, best_ti, float(tfs[j]), float(dls[j])), -d)
            if len(heap) < k:
                heapq.heappush(heap, key)
            elif key > heap[0]:
                heapq.heapreplace(heap, key)

    ranked = sorted(heap, key=lambda t: (-t[0], -t[1]))
    return [(-nd, s) for s, nd in ranked]
