"""Deterministic, process-stable hashes for shuffle keys and fingerprints.

Python's builtin ``hash`` is salted per process and MUST NOT be used for any
partitioning decision.  Term → wave assignment uses pandas' vectorized
siphash (fixed key), which is stable across processes and recorded in the
manifest as the partitioner identity.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pandas as pd

TERM_HASHER_ID = "pandas-siphash13-v1"


def hash_terms(terms: np.ndarray) -> np.ndarray:
    """Vectorized uint64 hash of a string array (deterministic)."""
    return pd.util.hash_array(np.asarray(terms, dtype=object), categorize=False)


def hash_terms_arrow(arr) -> np.ndarray:
    """uint64 hashes of a pyarrow string array — dictionary-encoded fast path.

    ``pd.util.hash_array`` costs ~3.5 µs per OBJECT element; Zipfian term
    streams have few uniques, so dictionary-encode in Arrow (C++), hash only
    the dictionary, and gather — identical values (same siphash per string,
    measured 70× faster on a 14.6M-term stream with 125k uniques).
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(arr, pa.ChunkedArray):
        combined = arr.combine_chunks()
        arr = (
            combined
            if isinstance(combined, pa.Array)
            else pa.concat_arrays(combined.chunks)
        )
    de = pc.dictionary_encode(arr)
    uniq = np.asarray(de.dictionary.to_numpy(zero_copy_only=False), dtype=object)
    # gather through an int64 VIEW: numpy fancy-indexing a uint64 table hits
    # a pathologically slow buffered path on this build (~45× slower,
    # measured); the bit pattern is unchanged so the uint64 view back is free
    hu = hash_terms(uniq).view(np.int64)
    return hu[de.indices.to_numpy()].view(np.uint64)


def file_fingerprint(paths: list[str | Path], filesystem=None) -> str:
    """Cheap input fingerprint: sha1 over (name, size, mtime_ns) per file.

    With ``filesystem`` (any ``pyarrow.fs.FileSystem``) the stat goes
    through that fs — object-store inputs fingerprint the same way.  The
    local path keeps ``os.stat`` so fingerprints of existing local indexes
    are unchanged.
    """
    h = hashlib.sha1()
    ordered = sorted(str(p) for p in paths)
    if filesystem is not None and getattr(filesystem, "type_name", "") != "local":
        for p, info in zip(ordered, filesystem.get_file_info(ordered)):
            mt = info.mtime_ns if info.mtime_ns is not None else 0
            h.update(
                json.dumps([p.rsplit("/", 1)[-1], int(info.size or 0), int(mt)]).encode()
            )
        return h.hexdigest()
    for p in ordered:
        st = Path(p).stat()
        h.update(json.dumps([Path(p).name, st.st_size, st.st_mtime_ns]).encode())
    return h.hexdigest()
