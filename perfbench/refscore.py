"""Independent BM25 scorer: the benchmark's reference for every result check.

Written from the scoring spec, not from the program, and never imports
``vexor_ray``.  The semantics it encodes:

- extraction: the html payload is capped at 4 x 200,000 bytes and decoded as
  UTF-8 incrementally (a truncated multi-byte tail is dropped, not an error);
  a hard decode error falls back to charset detection (``charset_normalizer``)
  over the whole payload; the text is capped at 200,000 chars, CRLF becomes
  LF, and it is stripped.  A page whose text is empty has no document.
- document: ``url + " " + text``, tokenized as ``[A-Za-z0-9_]+`` over the
  lowercased string.
- scoring: Okapi BM25 with k1 = 1.5, b = 0.75 and the non-negative IDF
  ``ln((N - df + 0.5) / (df + 0.5) + 1)``.
- queries: tokenized like documents, deduplicated in order, capped at 32.
- ranking: score descending, ties broken by ascending docID.
"""

from __future__ import annotations

import codecs
import math
import re
from collections import Counter

import numpy as np

K1 = 1.5
B = 0.75
CHAR_CAP = 200_000
BYTE_CAP = 4 * CHAR_CAP
MAX_QUERY_TERMS = 32
_TOKEN = re.compile(r"[A-Za-z0-9_]+")


def _charset_fallback(payload: bytes) -> str | None:
    try:
        from charset_normalizer import from_bytes

        best = from_bytes(payload).best()
    except ImportError:
        best = None
    if best is not None:
        return str(best)
    # no detector verdict: BOM-sniffed UTF-16/32, else cp1252, else latin-1
    for bom, name in (
        (codecs.BOM_UTF32_LE, "utf-32-le"),
        (codecs.BOM_UTF32_BE, "utf-32-be"),
        (codecs.BOM_UTF16_LE, "utf-16-le"),
        (codecs.BOM_UTF16_BE, "utf-16-be"),
    ):
        if payload.startswith(bom):
            try:
                return payload[len(bom) :].decode(name)
            except UnicodeDecodeError:
                return None
    try:
        return payload.decode("cp1252")
    except UnicodeDecodeError:
        return payload.decode("latin-1")


def extract(html: bytes | None) -> str | None:
    """Normalized page text, or None when the page yields no document."""
    if not html:
        return None
    try:
        text = codecs.getincrementaldecoder("utf-8")().decode(
            html[:BYTE_CAP], final=False
        )
    except UnicodeDecodeError:
        text = ""
    if not text:
        text = _charset_fallback(html) or ""
    text = text[:CHAR_CAP].replace("\r\n", "\n").strip()
    return text or None


def tokenize(text: str) -> list[str]:
    return _TOKEN.findall(text.lower())


def query_terms(query: str) -> list[str]:
    return list(dict.fromkeys(tokenize(query)))[:MAX_QUERY_TERMS]


class RefCorpus:
    """Term counts per document, kept so that any subset can be indexed."""

    def __init__(self, doc_ids, urls, htmls):
        self.docs: dict[int, tuple[str, Counter, int]] = {}
        for doc_id, url, html in zip(doc_ids, urls, htmls):
            text = extract(html)
            if text is None:
                continue
            tokens = tokenize(f"{url} {text}")
            self.docs[int(doc_id)] = (url, Counter(tokens), len(tokens))

    def index(self, exclude=()) -> "RefIndex":
        drop = {int(d) for d in exclude}
        return RefIndex({d: v for d, v in self.docs.items() if d not in drop})


class RefIndex:
    """Inverted index over a document set, scored with numpy."""

    def __init__(self, docs: dict[int, tuple[str, Counter, int]]):
        ids = sorted(docs)
        self.doc_ids = np.asarray(ids, dtype=np.uint64)
        self.urls = {d: docs[d][0] for d in ids}
        self.doc_len = np.asarray([docs[d][2] for d in ids], dtype=np.float64)
        lists: dict[str, tuple[list[int], list[int]]] = {}
        for row, d in enumerate(ids):
            for term, tf in docs[d][1].items():
                entry = lists.get(term)
                if entry is None:
                    entry = lists[term] = ([], [])
                entry[0].append(row)
                entry[1].append(tf)
        self.postings = {
            t: (np.asarray(r, dtype=np.int64), np.asarray(f, dtype=np.float64))
            for t, (r, f) in lists.items()
        }
        self.n_docs = len(ids)
        self.total_tokens = int(self.doc_len.sum())
        self.total_postings = sum(len(r) for r, _ in self.postings.values())
        self.vocab = len(self.postings)
        self.avgdl = self.total_tokens / self.n_docs if self.n_docs else 0.0

    def df(self, term: str) -> int:
        entry = self.postings.get(term)
        return 0 if entry is None else len(entry[0])

    def score_all(self, query: str) -> dict[int, float]:
        """docID -> BM25 score for every document matching the query."""
        if self.n_docs == 0 or self.avgdl <= 0:
            return {}
        scores = np.zeros(self.n_docs, dtype=np.float64)
        matched = np.zeros(self.n_docs, dtype=bool)
        for term in query_terms(query):
            entry = self.postings.get(term)
            if entry is None:
                continue
            rows, tf = entry
            df = len(rows)
            idf = math.log((self.n_docs - df + 0.5) / (df + 0.5) + 1.0)
            norm = K1 * (1.0 - B + B * self.doc_len[rows] / self.avgdl)
            scores[rows] += idf * tf * (K1 + 1.0) / (tf + norm)
            matched[rows] = True
        rows = np.flatnonzero(matched)
        return dict(zip(self.doc_ids[rows].tolist(), scores[rows].tolist()))

    def top_k(self, query: str, k: int) -> list[tuple[int, float]]:
        ranked = sorted(self.score_all(query).items(), key=lambda x: (-x[1], x[0]))
        return ranked[: max(k, 0)]
