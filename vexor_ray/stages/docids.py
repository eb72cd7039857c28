"""Deterministic docID assignment from input lineage — shuffle-free.

``doc_id = (file_index << 32) | row_index_in_file`` over the lexicographically
sorted input file list.  This is the exact analogue of the reference's global
order (sorted file walk + per-file position, ``utils.py:362`` /
``cache.py:604-633``), it is deterministic under ANY parallelism, and it
costs nothing: no global sort, no shuffle, no materialization.  docIDs are
sparse (dropped pages leave gaps; files shorter than 2^32 rows leave range
gaps) — nothing downstream needs density, only a stable total order for the
(score desc, docID asc) tie-break and ascending order inside posting lists.

At 10^12 docs: file_index < 2^31 and rows-per-file < 2^32 fit uint64 with
room to spare.  The doc-range salt (``doc_id >> salt_shift``) still yields
contiguous per-file ranges, which is exactly what hot-term splitting wants.

Reading happens per parquet row group (planned from footers on the driver,
executed as ``map_batches`` over the fragment plan), so every task knows its
global row offset without coordination.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

FILE_SHIFT = 32


def doc_id_base(file_idx: int, row_start: int) -> int:
    return (file_idx << FILE_SHIFT) | row_start


def _open_parquet(path: str, filesystem=None) -> pq.ParquetFile:
    if filesystem is None:
        return pq.ParquetFile(path)
    return pq.ParquetFile(filesystem.open_input_file(path))


def plan_fragments(
    files: list[str],
    file_indices: list[int] | None = None,
    rows_per_fragment: int = 8192,
    *,
    filesystem=None,
) -> list[dict]:
    """Plan rows at sub-row-group granularity, each with its doc_id base.

    ``file_indices`` carries each file's index in the GLOBAL sorted input
    list (a shard group passes its own slice of the corpus).  Fragments
    smaller than a row group trade some repeated row-group decode (cheap,
    columnar) for fine task granularity — a handful of coarse tasks leaves
    a long tail on a wide actor pool.
    """
    frags: list[dict] = []
    indices = file_indices if file_indices is not None else range(len(files))
    for fi, path in zip(indices, files):
        meta = _open_parquet(path, filesystem).metadata
        if meta.num_rows >= 1 << FILE_SHIFT:
            raise ValueError(f"{path}: too many rows for 32-bit row index")
        row_start = 0
        for rg in range(meta.num_row_groups):
            n = meta.row_group(rg).num_rows
            for off in range(0, n, rows_per_fragment):
                frags.append(
                    {
                        "path": path,
                        "row_group": rg,
                        "rg_offset": off,
                        "num_rows": min(rows_per_fragment, n - off),
                        "doc_id_base": doc_id_base(fi, row_start + off),
                    }
                )
            row_start += n
    return frags


class ReadFragmentWithIds:
    """map_batches callable over the fragment plan: read row group + assign ids.

    Emits the requested columns plus a leading ``doc_id`` column derived from
    the fragment's lineage (no coordination between tasks).  Yields bounded
    slices so downstream stages see many blocks and pipeline immediately even
    when a file has few, large row groups.
    """

    def __init__(self, columns: list[str], slice_rows: int = 2048, filesystem=None):
        self.columns = columns
        self.slice_rows = slice_rows
        self.filesystem = filesystem  # pyarrow filesystems pickle into workers

    def __call__(self, batch: pa.Table):
        for frag in batch.to_pylist():
            tbl = _open_parquet(frag["path"], self.filesystem).read_row_group(
                frag["row_group"], columns=self.columns
            )
            tbl = tbl.slice(frag["rg_offset"], frag["num_rows"])
            ids = pa.array(
                np.arange(
                    frag["doc_id_base"],
                    frag["doc_id_base"] + tbl.num_rows,
                    dtype=np.uint64,
                ),
                type=pa.uint64(),
            )
            tbl = tbl.add_column(0, "doc_id", ids)
            for start in range(0, tbl.num_rows, self.slice_rows):
                yield tbl.slice(start, self.slice_rows)


def read_with_doc_ids(
    files: list[str],
    columns: list[str],
    *,
    file_indices: list[int] | None = None,
    filesystem=None,
) -> ray.data.Dataset:
    """Dataset of ``(doc_id, *columns)`` over sorted input files."""
    frags = plan_fragments(files, file_indices, filesystem=filesystem)
    ds = ray.data.from_items(frags)
    # num_cpus slightly UNDER 1.0 blocks operator fusion (and still fits
    # alongside a 1-CPU actor on a 2-CPU session) with downstream
    # stages: fused, the whole corpus would flow through as few tasks as
    # there are PLAN rows (one actor call processed everything — observed),
    # serializing the build.  Unfused, each fragment is its own read task
    # and the generator slices fan out to the downstream pool.
    return ds.map_batches(
        ReadFragmentWithIds(columns, filesystem=filesystem),
        batch_size=1,
        batch_format="pyarrow",
        num_cpus=0.99,
    )

