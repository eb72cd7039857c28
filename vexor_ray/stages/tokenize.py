"""Tokenize stage: ``(url, text) → (url, doc_len, terms, tfs, preview)``.

A stateful actor-pool ``map_batches`` class: the tokenizer (compiled regex,
optionally a pluggable pre-tokenizer) and per-actor metrics counters are
built once in ``__init__`` and reused across batches.

Doc-builder strategies (the analogue of the reference's mode-strategy
registry, ``modes.py:38-45,296-315``):

- ``url_text`` (default): document = ``f"{url} {text}"`` — the analogue of
  the reference's ``rel_path + label`` construction (``bm25.py:54-57``);
- ``text``: the text alone (bare corpora like the ``documents`` table);
- ``head``: ``f"{url} {head_snippet(text)}"`` — the reference's HeadStrategy
  (first 1000 chars, line-collapsed, ``modes.py:61-75``).

Output schema: ``url:string, doc_len:uint32, terms:list<string>,
tfs:list<uint32>, preview:string`` — the tokenized-docs checkpoint that the
corpus stats aggregate, the posting explode, and hit rendering all read, so
tokenization runs exactly once per document.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pyarrow as pa

from ..refimpl.textnorm import head_snippet, make_preview
from ..spec import TOKEN_PATTERN

DOC_BUILDERS = ("url_text", "text", "head")


class TokenizeDocs:
    """Actor-pool callable: doc build + tokenize + per-doc term frequencies."""

    def __init__(
        self,
        text_only: bool = False,
        token_pattern: str = TOKEN_PATTERN,
        doc_builder: str = "url_text",
        with_preview: bool = True,
        tokenizer: str = "regex",
        embed_dim: int = 0,
        embed_mode: str = "word",
        embed_provider: dict | None = None,
        bpe_merges: list | None = None,
        stop_words: list | None = None,
        emit_positions: bool = False,
    ):
        from .berttok import make_tokenizer

        self._tokenize = make_tokenizer(
            tokenizer, token_pattern, bpe_merges=bpe_merges,
            stop_words=stop_words,
        )
        self._builder = "text" if text_only else doc_builder
        if self._builder not in DOC_BUILDERS:
            raise ValueError(f"unknown doc_builder {self._builder!r}")
        self._with_preview = with_preview
        # embed_dim > 0 → a dense hash-embedding column rides along in the
        # docs checkpoint (the reference stores chunk embeddings in its
        # cache, vexor/cache.py — here the docs table IS that store)
        self._embed_dim = int(embed_dim)
        self._embed_mode = embed_mode
        # network provider constructed ONCE PER ACTOR (persistent HTTP
        # client + thread pool — the reference's per-backend executor,
        # vexor/providers/openai.py:46-66); batches flow through __call__
        self._provider = None
        if embed_provider:
            from ..providers import make_provider

            self._provider = make_provider(embed_provider)
        # emit_positions → a ``poss`` column (1-based token positions per
        # distinct term, aligned with ``terms``) rides along in the docs
        # checkpoint, so the positions sidecar can build from THIS pass
        # instead of re-extracting and re-tokenizing the corpus.  The
        # position dict yields terms in first-appearance order — identical
        # to Counter insertion order — so terms/tfs stay bit-compatible.
        self._emit_positions = bool(emit_positions)
        # per-actor metrics (exposed in logs; stage-level metrics are
        # aggregated from dataset counts in the manifest)
        self.n_docs = 0
        self.n_tokens = 0

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        texts = batch.column("text").to_pylist()
        tokenize = self._tokenize
        doc_lens: list[int] = []
        terms_col: list[list[str]] = []
        tfs_col: list[list[int]] = []
        if self._builder == "text":
            docs = texts
        elif self._builder == "head":
            docs = [f"{u} {head_snippet(t) or ''}" for u, t in zip(urls, texts)]
        else:
            docs = [f"{u} {t}" for u, t in zip(urls, texts)]
        poss_col: list[list[list[int]]] = []
        if self._emit_positions:
            for doc in docs:
                tokens = tokenize(doc)
                by_term: dict[str, list[int]] = {}
                for i, tok in enumerate(tokens, start=1):
                    by_term.setdefault(tok, []).append(i)
                doc_lens.append(len(tokens))
                terms_col.append(list(by_term.keys()))
                tfs_col.append([len(p) for p in by_term.values()])
                poss_col.append(list(by_term.values()))
        else:
            for doc in docs:
                tokens = tokenize(doc)
                counts = Counter(tokens)
                doc_lens.append(len(tokens))
                terms_col.append(list(counts.keys()))
                tfs_col.append(list(counts.values()))
        self.n_docs += len(docs)
        self.n_tokens += sum(doc_lens)
        cols = {
            "url": pa.array(urls, type=pa.string()),
            "doc_len": pa.array(doc_lens, type=pa.uint32()),
            "terms": pa.array(terms_col, type=pa.list_(pa.string())),
            "tfs": pa.array(tfs_col, type=pa.list_(pa.uint32())),
        }
        if self._emit_positions:
            cols["poss"] = pa.array(poss_col, type=pa.list_(pa.list_(pa.uint32())))
        if self._provider is not None:
            emb = self._provider.embed(docs).astype(np.float32, copy=False)
            cols["embedding"] = pa.array(
                emb.tolist(), type=pa.list_(pa.float32())
            )
        elif self._embed_dim:
            from ..functions.embed import hash_embed

            emb = hash_embed(
                docs, dim=self._embed_dim, n=2, mode=self._embed_mode
            )
            cols["embedding"] = pa.array(
                emb.tolist(), type=pa.list_(pa.float32())
            )
        if self._with_preview:
            cols["preview"] = pa.array(
                [make_preview(t) for t in texts], type=pa.string()
            )
        if "doc_id" in batch.column_names:
            cols = {"doc_id": batch.column("doc_id"), **cols}
        return pa.table(cols)
