"""The build's configuration surface, pinned: adding or removing a knob
must edit this list, so the change shows in review."""

from __future__ import annotations

import dataclasses
import inspect

from vexor_ray.index.build import BuildConfig
from vexor_ray.stages.tokenize import TokenizeDocs


def test_config_surface_is_pinned():
    assert [f.name for f in dataclasses.fields(BuildConfig)] == [
        "k1",
        "b",
        "char_limit",
        "pre_extracted",
        "text_only",
        "doc_builder",
        "token_pattern",
        "tokenizer",
        "bpe_merges",
        "stop_words",
        "embed_dim",
        "embed_mode",
        "embed_provider",
        "block_size",
        "salt_shift",
        "num_waves",
        "emit_positions",
        "partitions_per_wave",
        "shuffle_backend",
        "shard_group_size",
        "tokenize_batch_size",
        "tokenize_concurrency",
        "impact_postings",
        "manifest_history",
        "fail_after_partitions",
    ]
    assert list(inspect.signature(TokenizeDocs.__init__).parameters) == [
        "self",
        "text_only",
        "token_pattern",
        "doc_builder",
        "with_preview",
        "tokenizer",
        "embed_dim",
        "embed_mode",
        "embed_provider",
        "bpe_merges",
        "stop_words",
        "emit_positions",
    ]
