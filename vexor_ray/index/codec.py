"""Posting-list compression: delta + LEB128 varint, block skips, block-max.

Layout per (term, salt) chunk — docIDs strictly ascending:

- ``doc_blob``: varint of docID deltas (``delta[0] = doc[0]``); blocks of
  ``POSTING_BLOCK_SIZE`` postings are independently decodable because block
  ``b``'s base docID is ``block_last[b-1]`` from the skip array.
- ``tf_blob`` / ``dl_blob``: varint of raw term frequencies / doc lengths
  (doc_len travels inline with the posting, mirroring the reference's
  posting tuple ``(chunk_id, tf, doc_len)`` — ``vexor/cache.py:1519-1527`` —
  so the query layer never joins against a doc-stats table).
- per-block byte offsets into each blob (``*_off``, length ``n_blocks + 1``),
  ``block_last`` (last docID per block, the skip pointer), and ``block_ub``:
  the *idf-free* BM25 upper bound ``max tf*(k1+1)/(tf + k1*(1-b+b*dl/avgdl))``
  over the block.  Storing it idf-free decouples block metadata from global
  document frequency: the query layer multiplies by the term's idf, so a
  salted term's df (summed across chunks) never has to be known at build
  time.

Both encode and decode are numpy-vectorized (no per-posting Python loop):
encode scatters 7-bit groups into a preallocated byte array; decode finds
value boundaries from the continuation bits and reassembles ≤10 byte groups
with a fixed small loop over byte positions.
"""

from __future__ import annotations

import numpy as np

from ..spec import BM25_B, BM25_K1, POSTING_BLOCK_SIZE

_U64 = np.uint64
_MAX_VARINT_BYTES = 10


def varint_encode_with_sizes(values: np.ndarray) -> tuple[bytes, np.ndarray]:
    """LEB128-encode a uint64 array; also return per-value byte sizes."""
    v = np.ascontiguousarray(values, dtype=_U64)
    if v.size == 0:
        return b"", np.zeros(0, dtype=np.int64)
    nbytes = np.ones(v.shape, dtype=np.int64)
    for i in range(1, _MAX_VARINT_BYTES):
        nbytes += (v >= (_U64(1) << _U64(7 * i))).astype(np.int64)
    ends = np.cumsum(nbytes)
    starts = ends - nbytes
    out = np.zeros(int(ends[-1]), dtype=np.uint8)
    for j in range(_MAX_VARINT_BYTES):
        sel = nbytes > j
        if not sel.any():
            break
        byte = ((v[sel] >> _U64(7 * j)) & _U64(0x7F)).astype(np.uint8)
        cont = (nbytes[sel] != j + 1).astype(np.uint8) << 7
        out[starts[sel] + j] = byte | cont
    return out.tobytes(), nbytes


def varint_encode(values: np.ndarray) -> bytes:
    """LEB128-encode a uint64 array (vectorized)."""
    return varint_encode_with_sizes(values)[0]


def ub_float32(values: np.ndarray) -> np.ndarray:
    """float64 upper bounds → float32 rounded UP (never below the true max).

    A plain cast can round down by one ulp, which would let block-max WAND
    prune a doc that exactly ties the heap threshold — rank-unsafe.
    """
    f32 = np.asarray(values, dtype=np.float32)
    low = f32.astype(np.float64) < np.asarray(values, dtype=np.float64)
    f32[low] = np.nextafter(f32[low], np.float32(np.inf))
    return f32


def varint_decode(buf: bytes | memoryview) -> np.ndarray:
    """Decode an LEB128 byte stream back to a uint64 array (vectorized)."""
    b = np.frombuffer(buf, dtype=np.uint8)
    if b.size == 0:
        return np.zeros(0, dtype=_U64)
    is_end = (b & 0x80) == 0
    ends = np.flatnonzero(is_end)
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    vals = np.zeros(ends.size, dtype=_U64)
    for j in range(int(lengths.max())):
        sel = lengths > j
        vals[sel] |= (b[starts[sel] + j] & 0x7F).astype(_U64) << _U64(7 * j)
    return vals


def bm25_tf_component(
    tfs: np.ndarray,
    dls: np.ndarray,
    avg_doc_len: float,
    k1: float = BM25_K1,
    b: float = BM25_B,
) -> np.ndarray:
    """Idf-free per-posting BM25 contribution (float64)."""
    tf = tfs.astype(np.float64)
    dl = dls.astype(np.float64)
    return tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avg_doc_len))


def encode_chunk(
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    dls: np.ndarray,
    avg_doc_len: float,
    block_size: int = POSTING_BLOCK_SIZE,
    k1: float = BM25_K1,
    b: float = BM25_B,
    impact: bool = False,
) -> dict:
    """Encode one (term, salt) posting chunk. docIDs must be ascending.

    ``impact=True`` additionally emits the impact-ordered companion layout
    (``encode_impact``) used by the Threshold-Algorithm scorer."""
    n = int(doc_ids.size)
    doc_ids = np.ascontiguousarray(doc_ids, dtype=_U64)
    tfs = np.ascontiguousarray(tfs, dtype=_U64)
    dls = np.ascontiguousarray(dls, dtype=_U64)
    deltas = np.empty(n, dtype=_U64)
    if n:
        deltas[0] = doc_ids[0]
        np.subtract(doc_ids[1:], doc_ids[:-1], out=deltas[1:])
    n_blocks = (n + block_size - 1) // block_size if n else 0
    block_bounds = [min((bk + 1) * block_size, n) for bk in range(n_blocks)]
    block_starts = [bk * block_size for bk in range(n_blocks)]

    doc_parts: list[bytes] = []
    tf_parts: list[bytes] = []
    dl_parts: list[bytes] = []
    block_last = np.zeros(n_blocks, dtype=_U64)
    block_ub = np.zeros(n_blocks, dtype=np.float32)
    comp = bm25_tf_component(tfs, dls, avg_doc_len, k1, b) if n else np.zeros(0)
    for bk, (s, e) in enumerate(zip(block_starts, block_bounds)):
        doc_parts.append(varint_encode(deltas[s:e]))
        tf_parts.append(varint_encode(tfs[s:e]))
        dl_parts.append(varint_encode(dls[s:e]))
        block_last[bk] = doc_ids[e - 1]
        block_ub[bk] = ub_float32(comp[s:e].max())

    def offs(parts: list[bytes]) -> np.ndarray:
        o = np.zeros(len(parts) + 1, dtype=np.uint32)
        np.cumsum([len(p) for p in parts], out=o[1:])
        return o

    out = {
        "n_postings": n,
        "block_size": block_size,
        "doc_blob": b"".join(doc_parts),
        "tf_blob": b"".join(tf_parts),
        "dl_blob": b"".join(dl_parts),
        "doc_off": offs(doc_parts),
        "tf_off": offs(tf_parts),
        "dl_off": offs(dl_parts),
        "block_last": block_last,
        "block_ub": block_ub,
    }
    if impact:
        out.update(
            encode_impact(doc_ids, tfs, dls, avg_doc_len, block_size, k1, b)
        )
    return out


def encode_impact(
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    dls: np.ndarray,
    avg_doc_len: float,
    block_size: int = POSTING_BLOCK_SIZE,
    k1: float = BM25_K1,
    b: float = BM25_B,
) -> dict:
    """Impact-ordered companion encoding of one posting chunk.

    Postings sorted by DESCENDING idf-free BM25 component (ties → docID
    ascending) under the encode-time ``avg_doc_len``, sliced into blocks of
    ``block_size``; docIDs are stored as absolute varints (an impact
    permutation is not monotone, so delta coding buys nothing, and only the
    head blocks are ever read).  ``imp_cmax[i]`` = component of block i's
    first entry rounded UP to float32 — because the order is globally
    descending it upper-bounds every entry in blocks ``>= i``, which is the
    frontier bound the Threshold-Algorithm scorer (``query/impact.py``)
    needs.  Under a drifted global avgdl the query layer rescales by
    ``max(1, avg_now/avg_enc)`` exactly as it does ``block_ub`` (component
    monotone in avgdl, ratio bounded by the avg ratio), so the bound stays
    conservative even though the stored ORDER is then only approximate.
    """
    n = int(doc_ids.size)
    doc_ids = np.ascontiguousarray(doc_ids, dtype=_U64)
    tfs = np.ascontiguousarray(tfs, dtype=_U64)
    dls = np.ascontiguousarray(dls, dtype=_U64)
    comp = bm25_tf_component(tfs, dls, avg_doc_len, k1, b) if n else np.zeros(0)
    order = np.lexsort((doc_ids, -comp))
    doc_i, tf_i, dl_i = doc_ids[order], tfs[order], dls[order]
    n_blocks = (n + block_size - 1) // block_size if n else 0
    starts = np.arange(n_blocks, dtype=np.int64) * block_size
    doc_parts, tf_parts, dl_parts = [], [], []
    for bk in range(n_blocks):
        s, e = int(starts[bk]), min(int(starts[bk]) + block_size, n)
        doc_parts.append(varint_encode(doc_i[s:e]))
        tf_parts.append(varint_encode(tf_i[s:e]))
        dl_parts.append(varint_encode(dl_i[s:e]))
    imp_cmax = (
        ub_float32(np.maximum.reduceat(comp[order], starts))
        if n_blocks
        else np.zeros(0, dtype=np.float32)
    )

    def offs(parts: list[bytes]) -> np.ndarray:
        o = np.zeros(len(parts) + 1, dtype=np.uint32)
        np.cumsum([len(p) for p in parts], out=o[1:])
        return o

    return {
        "imp_doc_blob": b"".join(doc_parts),
        "imp_tf_blob": b"".join(tf_parts),
        "imp_dl_blob": b"".join(dl_parts),
        "imp_doc_off": offs(doc_parts),
        "imp_tf_off": offs(tf_parts),
        "imp_dl_off": offs(dl_parts),
        "imp_cmax": imp_cmax,
    }


def decode_impact_block(
    chunk: dict, block: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode one impact-ordered block → (doc_ids, tfs, dls), impact order."""
    do, to, lo = chunk["imp_doc_off"], chunk["imp_tf_off"], chunk["imp_dl_off"]
    docs = varint_decode(memoryview(chunk["imp_doc_blob"])[do[block] : do[block + 1]])
    tfs = varint_decode(memoryview(chunk["imp_tf_blob"])[to[block] : to[block + 1]])
    dls = varint_decode(memoryview(chunk["imp_dl_blob"])[lo[block] : lo[block + 1]])
    return docs, tfs, dls


def impact_n_blocks(chunk: dict) -> int:
    return len(chunk["imp_cmax"])


def decode_chunk(chunk: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full decode of one chunk → (doc_ids, tfs, dls)."""
    n = chunk["n_postings"]
    if n == 0:
        z = np.zeros(0, dtype=_U64)
        return z, z.copy(), z.copy()
    deltas = varint_decode(chunk["doc_blob"])
    doc_ids = np.cumsum(deltas, dtype=_U64)
    tfs = varint_decode(chunk["tf_blob"])
    dls = varint_decode(chunk["dl_blob"])
    return doc_ids, tfs, dls


def decode_block(chunk: dict, block: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode a single block independently → (doc_ids, tfs, dls)."""
    base = chunk["block_last"][block - 1] if block > 0 else _U64(0)
    do, to, lo = chunk["doc_off"], chunk["tf_off"], chunk["dl_off"]
    deltas = varint_decode(memoryview(chunk["doc_blob"])[do[block] : do[block + 1]])
    doc_ids = np.cumsum(deltas, dtype=_U64) + base
    tfs = varint_decode(memoryview(chunk["tf_blob"])[to[block] : to[block + 1]])
    dls = varint_decode(memoryview(chunk["dl_blob"])[lo[block] : lo[block + 1]])
    return doc_ids, tfs, dls


def decode_tail(
    chunk: dict, from_block: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode blocks ``from_block..end`` in ONE varint pass per blob.

    Valid because each block's first delta chains from the previous block's
    last docID (``encode_runs`` delta-codes the whole run before slicing
    into blocks), so a cumsum over the concatenated tail deltas plus
    ``block_last[from_block-1]`` reproduces the absolute docIDs exactly.
    This is the WAND drain's bulk path: per-block decode of a long tail is
    thousands of small ``varint_decode`` calls; this is a handful.
    """
    base = chunk["block_last"][from_block - 1] if from_block > 0 else _U64(0)
    do, to, lo = chunk["doc_off"], chunk["tf_off"], chunk["dl_off"]
    deltas = varint_decode(memoryview(chunk["doc_blob"])[do[from_block] :])
    doc_ids = np.cumsum(deltas, dtype=_U64) + base
    tfs = varint_decode(memoryview(chunk["tf_blob"])[to[from_block] :])
    dls = varint_decode(memoryview(chunk["dl_blob"])[lo[from_block] :])
    return doc_ids, tfs, dls


def n_blocks(chunk: dict) -> int:
    return len(chunk["block_last"])
