"""Vacuum (index/vacuum.py): orphan attempt dirs go, referenced and young
dirs stay — on the local fs and the no-rename object-store double."""

from __future__ import annotations

import json
import os
import time

import pytest

from vexor_ray.fixtures.pages import write_pages
from vexor_ray.index.build import BuildConfig, build_index
from vexor_ray.index.manifest import load_manifest
from vexor_ray.index.positions import PositionsConfig, build_positions_index
from vexor_ray.index.storage import Store, no_rename_filesystem
from vexor_ray.index.vacuum import vacuum_index
from vexor_ray.query.searcher import Searcher


def _cfg(**kw):
    base = dict(
        num_waves=1,
        partitions_per_wave=2,
        shard_group_size=1,
        tokenize_concurrency=2,
        salt_shift=8,
    )
    base.update(kw)
    return BuildConfig(**base)


@pytest.fixture(scope="module")
def vac_idx(ray_session, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("vac")
    pages = write_pages(tmp / "pages", 200, seed=42, rows_per_file=100)
    idx = tmp / "idx"
    build_index(pages, idx, _cfg())
    return idx


def _plant_orphan(idx, parent, name, old=True):
    d = idx / parent / name
    d.mkdir(parents=True)
    f = d / "leak.parquet"
    f.write_bytes(b"not really parquet")
    if old:
        past = time.time() - 7200
        os.utime(f, (past, past))
        os.utime(d, (past, past))
    return d


def test_vacuum_deletes_old_orphans_only(vac_idx):
    idx = vac_idx
    orphan = _plant_orphan(idx, "segments", "wave-0000-gen-0000--deadbeef")
    young = _plant_orphan(
        idx, "docs_tok", "group-00099--cafef00d", old=False
    )
    before = Searcher(idx).search("needledfone", k=5)

    dry = vacuum_index(idx, dry_run=True)
    assert str(orphan) in dry["deleted"] and orphan.exists()

    res = vacuum_index(idx)
    assert str(orphan) in res["deleted"] and not orphan.exists()
    assert young.exists() and res["kept_young"] >= 1
    assert res["kept_referenced"] >= 2  # committed docs_tok + segments dirs

    # the index still serves identically
    assert Searcher(idx).search("needledfone", k=5) == before
    # idempotent
    assert vacuum_index(idx)["deleted"] == []


def test_vacuum_on_object_store(ray_session, tmp_path):
    fs = no_rename_filesystem(tmp_path / "bucket")
    pages_local = write_pages(tmp_path / "pages", 120, seed=3, rows_per_file=60)
    pages = Store(fs, "pages")
    pages.mkdirs()
    for f in sorted(pages_local.glob("*.parquet")):
        with fs.open_output_stream(f"pages/{f.name}") as out:
            out.write(f.read_bytes())
    idx = Store(fs, "idx")
    build_index(pages, idx, _cfg())
    # orphan with an old mtime, planted through the raw filesystem
    root = tmp_path / "bucket" / "idx" / "segments" / "wave-0000-gen-0000--feedface"
    root.mkdir(parents=True)
    leak = root / "leak.bin"
    leak.write_bytes(b"x")
    past = time.time() - 7200
    os.utime(leak, (past, past))
    os.utime(root, (past, past))

    res = vacuum_index(idx)
    assert any(d.endswith("--feedface") for d in res["deleted"])
    assert not root.exists()
    assert Searcher(idx).search("needledfone", k=3)


def test_vacuum_cleans_positions_sidecar(vac_idx, tmp_path):
    pos = tmp_path / "pos"
    build_positions_index(
        vac_idx.parent / "pages",
        pos,
        PositionsConfig(
            num_waves=1, partitions_per_wave=2, shard_group_size=1,
            tokenize_concurrency=2, salt_shift=8,
        ),
    )
    live = [d for parent in ("pos_tok", "positions") for d in (pos / parent).iterdir()]
    assert live
    # a dir only a retained older snapshot references
    pinned = _plant_orphan(pos, "positions", "wave-0000-gen-0000--5eed5eed")
    snap = load_manifest(pos)
    snap["partitions"].append(
        {"stage": "positions", "output_files": [str(pinned / "leak.parquet")]}
    )
    (pos / "manifest-00000000-5eed5eed.json").write_text(json.dumps(snap))
    orphans = [
        _plant_orphan(pos, "pos_tok", "group-00000--0dd0dd00"),
        _plant_orphan(pos, "positions", "wave-0000-gen-0000--0dd0dd01"),
    ]

    res = vacuum_index(pos, min_age_s=0)
    assert sorted(res["deleted"]) == sorted(str(d) for d in orphans)
    assert not any(d.exists() for d in orphans)
    assert pinned.exists() and all(d.exists() for d in live)
