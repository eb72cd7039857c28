"""Seeded Common-Crawl-style pages and query streams, made without vexor_ray.

The program under test receives only what this module writes: Parquet pages
``(url, warc_ts, html, text, lang)`` and lists of query strings.  Everything
is a pure function of the seed, so the same seed gives the same inputs.

Corpus make-up (fractions of the base pages):

- body words drawn from a Zipfian vocabulary (exponent 1.1 over 20,000
  synthetic words), 50-400 words per page;
- a long tail of pages past the 200,000-char extraction cap;
- needle terms with designed document frequencies (``NEEDLES``);
- exact-duplicate page pairs, whose equal documents produce score ties;
- CRLF pages, pages ending in a truncated multi-byte character, CJK pages,
  pages that are not valid UTF-8, and two pages that extract to nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

GEN_VERSION = 1

VOCAB_SIZE = 20_000
ZIPF_EXPONENT = 1.1
HOT_TERMS = 256
LONG_PAGE_WORDS = 70_000  # about 256,000 chars, past the 200,000-char cap
NEEDLES = {
    "needledfone": 1,
    "needledftwo": 2,
    "needledften": 10,
    "needledfhundred": 100,
}
ABSENT_TERM = "qqqzzzabsentterm"
CJK_CHARS = "中文测试网页内容搜索引擎数据处理分布式系统"
CJK_QUERY = "中文测试"
MAX_QUERY_TERMS = 32

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"
_EPOCH_US = 1_767_225_600 * 1_000_000  # 2026-01-01T00:00:00Z


def _rng(seed: int, *stream: int) -> np.random.Generator:
    """The generator of one input stream; any integer seed is accepted."""
    return np.random.default_rng([GEN_VERSION, seed % 2**64, *stream])


def _word_pool(rng: np.random.Generator) -> list[str]:
    """VOCAB_SIZE distinct consonant-vowel words, in Zipf rank order."""
    seen: set[str] = set()
    words: list[str] = []
    while len(words) < VOCAB_SIZE:
        n_syl = int(rng.integers(1, 4))
        w = "".join(
            _CONSONANTS[int(rng.integers(len(_CONSONANTS)))]
            + _VOWELS[int(rng.integers(len(_VOWELS)))]
            for _ in range(n_syl)
        )
        if rng.random() < 0.3:
            w += _CONSONANTS[int(rng.integers(len(_CONSONANTS)))]
        if w not in seen:
            seen.add(w)
            words.append(w)
    # frequent words are short, as in real text; it also keeps the byte size
    # of a page nearly independent of the seed
    return sorted(words, key=len)


@dataclass
class Corpus:
    """Generated pages.  Page ``i`` lives in file ``i // rows_per_file``."""

    urls: list[str]
    htmls: list[bytes]
    texts: list[str]
    langs: list[str]
    n_base: int
    rows_per_file: int
    hot: list[str]  # the HOT_TERMS most frequent body words
    present: list[str]  # every body word that occurs in the base pages
    needle_rows: dict[str, list[int]]
    row_tokens: list[str]  # the unique 8-digit row token of each url
    special_rows: dict[str, list[int]]

    @property
    def n_total(self) -> int:
        return len(self.urls)

    def doc_id(self, i: int) -> int:
        """docID the spec assigns: ``(file_idx << 32) | row_in_file``."""
        return ((i // self.rows_per_file) << 32) | (i % self.rows_per_file)

    def html_bytes(self, lo: int, hi: int) -> int:
        return sum(len(h) for h in self.htmls[lo:hi])

    def write(self, out_dir: Path, lo: int, hi: int) -> list[Path]:
        """Write pages ``[lo, hi)`` as whole files (lo, hi on file bounds)."""
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = []
        for start in range(lo, hi, self.rows_per_file):
            end = min(start + self.rows_per_file, hi)
            tbl = pa.table(
                {
                    "url": pa.array(self.urls[start:end], type=pa.string()),
                    "warc_ts": pa.array(
                        [_EPOCH_US + i * 137_000_000 for i in range(start, end)],
                        type=pa.timestamp("us"),
                    ),
                    "html": pa.array(self.htmls[start:end], type=pa.binary()),
                    "text": pa.array(self.texts[start:end], type=pa.string()),
                    "lang": pa.array(self.langs[start:end], type=pa.string()),
                }
            )
            path = out_dir / f"part-{start // self.rows_per_file:05d}.parquet"
            pq.write_table(tbl, path, row_group_size=1024)
            paths.append(path)
        return paths


def make_corpus(
    seed: int, n_base: int, n_append: int = 0, rows_per_file: int = 1000
) -> Corpus:
    """Pages ``[0, n_base)`` form the base corpus, the rest are appended later."""
    if n_base % rows_per_file or n_append % rows_per_file:
        raise ValueError("page counts must be whole files")
    rng = _rng(seed)
    pool = np.asarray(_word_pool(rng), dtype=object)
    probs = 1.0 / np.arange(1, VOCAB_SIZE + 1, dtype=np.float64) ** ZIPF_EXPONENT
    probs /= probs.sum()
    n = n_base + n_append

    lengths = rng.integers(50, 400, size=n)
    # a fixed count of long pages in the base and in the appended pages, so
    # that input bytes and tokens per page do not vary with the seed
    long_rows = np.concatenate([
        rng.choice(n_base, size=max(1, n_base // 400), replace=False),
        n_base + rng.choice(n_append, size=n_append // 400, replace=False),
    ]).astype(np.int64)
    lengths[long_rows] = LONG_PAGE_WORDS
    word_idx = rng.choice(VOCAB_SIZE, size=int(lengths.sum()), p=probs)
    offsets = np.concatenate([[0], np.cumsum(lengths)])

    # special page kinds: disjoint, never long pages (charset detection over
    # a 300 KB payload would dominate the extract stage)
    kind = np.array(["plain"] * n, dtype=object)
    kind[long_rows] = "long"
    free = rng.permutation(np.flatnonzero(kind == "plain"))
    pos = 0
    for name, count in (
        ("cjk", n * 3 // 100),
        ("crlf", n * 3 // 100),
        ("trunc", n * 3 // 100),
        ("bad_utf8", n * 2 // 100),
        ("empty", 2),
    ):
        kind[free[pos : pos + count]] = name
        pos += count
    dup_src: dict[int, int] = {}  # copy row -> source row, neighbours
    for a in sorted(int(r) for r in free[pos:]):
        if len(dup_src) < 4 and a + 1 < n_base and kind[a] == kind[a + 1] == "plain":
            dup_src[a + 1] = a
            kind[a] = kind[a + 1] = "dup"

    eligible = [
        i for i in range(n_base) if kind[i] in ("plain", "crlf", "trunc", "long")
    ]
    needle_rows: dict[str, list[int]] = {}
    for term, df in NEEDLES.items():
        needle_rows[term] = sorted(
            int(r) for r in rng.choice(eligible, size=df, replace=False)
        )
    needles_at: dict[int, list[str]] = {}
    for term, rows in needle_rows.items():
        for r in rows:
            needles_at.setdefault(r, []).append(term)

    sites = rng.integers(0, 500, size=n)
    slugs = rng.integers(0, VOCAB_SIZE, size=(n, 3))
    urls, htmls, texts, langs, row_tokens = [], [], [], [], []
    for i in range(n):
        src = dup_src.get(i, i)
        k = kind[i]
        if k == "cjk":
            chars = rng.integers(0, len(CJK_CHARS), size=int(rng.integers(10, 60)))
            body = "".join(CJK_CHARS[int(c)] for c in chars)
        else:
            words = pool[word_idx[offsets[src] : offsets[src + 1]]].tolist()
            extra = needles_at.get(src, [])
            if extra:
                at = min(len(words) // 2, 25)  # inside the char cap
                words[at:at] = extra
            if k == "crlf":
                body = "\r\n".join(
                    " ".join(words[j : j + 40]) for j in range(0, len(words), 40)
                ) + "\r\n"
            else:
                body = " ".join(words)
        p0, p1, p2 = (pool[int(x)] for x in slugs[src])
        row_token = f"{i:08d}"
        url = f"https://site{int(sites[i]):04d}.example/{p0}/{p1}-{p2}-{row_token}.html"
        html = (
            f"<html><head><title>{body[:60]}</title></head>"
            f"<body>{body}</body></html>"
        ).encode("utf-8")
        if k == "trunc":
            html += "中".encode("utf-8")[:2]
        elif k == "bad_utf8":
            mid = len(html) // 2
            html = html[:mid] + b"\xff\xfe" + html[mid:]
        elif k == "empty":
            html = b"" if i % 2 else b"  \r\n\t "
            body = ""
        urls.append(url)
        htmls.append(html)
        texts.append(body)
        langs.append("zh" if k == "cjk" else "en")
        row_tokens.append(row_token)

    # words of base pages whose whole body is indexed (CJK, empty and
    # capped pages are left out, so every listed word is in the index)
    whole = np.isin(kind[:n_base], ["cjk", "empty", "long"], invert=True)
    base_counts = np.bincount(
        word_idx[: offsets[n_base]][np.repeat(whole, lengths[:n_base])],
        minlength=VOCAB_SIZE,
    )
    by_freq = np.argsort(-base_counts, kind="stable")
    hot = [str(pool[i]) for i in by_freq[:HOT_TERMS]]
    present = [str(pool[i]) for i in np.flatnonzero(base_counts)]
    special = {
        name: sorted(int(i) for i in np.flatnonzero(kind == name))
        for name in ("long", "cjk", "crlf", "trunc", "bad_utf8", "empty", "dup")
    }
    return Corpus(
        urls=urls,
        htmls=htmls,
        texts=texts,
        langs=langs,
        n_base=n_base,
        rows_per_file=rows_per_file,
        hot=hot,
        present=present,
        needle_rows=needle_rows,
        row_tokens=row_tokens,
        special_rows=special,
    )


# ---------------------------------------------------------------------------
# query streams
# ---------------------------------------------------------------------------

def _query(rng, cls: str, terms: list[str]) -> dict:
    k = int(rng.choice([5, 10, 20], p=[0.25, 0.5, 0.25]))
    return {"q": " ".join(terms), "k": k, "cls": cls}


def _draw(rng, words: list[str], n: int) -> list[str]:
    return [words[int(i)] for i in rng.integers(0, len(words), size=n)]


def make_queries(
    corpus: Corpus,
    mix: dict[str, float],
    n: int,
    seed: int,
    *,
    wide: bool = False,
    deleted_rows: list[int] = (),
) -> list[dict]:
    """``n`` queries whose classes follow ``mix``.

    ``wide`` draws free terms uniformly from every word present in the base
    corpus; otherwise free terms come from the ``HOT_TERMS`` hottest words,
    so the distinct terms of the whole stream stay below a few hundred.
    Every class appears at least once, in a seeded order.
    """
    rng = _rng(seed, 7)
    words = corpus.present if wide else corpus.hot
    needles = list(NEEDLES)
    classes = list(mix)
    counts = [max(1, int(round(mix[c] * n))) for c in classes]
    seq = [c for c, m in zip(classes, counts) for _ in range(m)]
    rng.shuffle(seq)
    # the first queries of the stream cover every class (the rank-identity
    # sample is taken from the head of the stream)
    head = list(dict.fromkeys(seq))
    for c in head:
        seq.remove(c)
    seq = head + seq
    out = []
    for cls in seq[:n]:
        if cls == "hot":
            terms = [corpus.hot[int(rng.integers(0, 32))]]
        elif cls == "single":
            terms = _draw(rng, words, 1)
        elif cls == "multi":
            terms = _draw(rng, words, int(rng.integers(2, 5)))
        elif cls == "selective":
            terms = [needles[int(rng.integers(len(needles)))],
                     corpus.hot[int(rng.integers(0, 16))]]
        elif cls == "long":
            terms = _draw(rng, words, MAX_QUERY_TERMS + 8)
        elif cls == "dup":
            a, b = _draw(rng, words, 2)
            terms = [a, a, a, b, a]
        elif cls == "absent":
            terms = [ABSENT_TERM]
            if rng.random() >= 0.5:
                terms.append(corpus.hot[int(rng.integers(0, 32))])
        elif cls == "cjk":
            terms = [CJK_QUERY]
        elif cls == "deleted":
            row = deleted_rows[int(rng.integers(len(deleted_rows)))]
            terms = [corpus.row_tokens[row], corpus.hot[int(rng.integers(0, 8))]]
        else:
            raise ValueError(f"unknown query class {cls!r}")
        out.append(_query(rng, cls, terms))
    return out


def probe_queries(corpus: Corpus, seed: int, per_class: int = 12) -> dict[str, list[str]]:
    """Fixed per-class query sets for the scorer matrix of the traced run."""
    rng = _rng(seed, 11)
    needles = list(NEEDLES)
    return {
        "hot": [corpus.hot[i] for i in range(per_class)],
        "selective": [
            f"{needles[i % len(needles)]} {corpus.hot[int(rng.integers(0, 8))]}"
            for i in range(per_class)
        ],
        "multi": [" ".join(_draw(rng, corpus.hot[:64], 3)) for _ in range(per_class)],
    }


def pick_deletions(corpus: Corpus, seed: int, share: float = 0.01) -> list[int]:
    """About ``share`` of all pages, always including needle and tie pages."""
    rng = _rng(seed, 13)
    must = (
        corpus.needle_rows["needledfone"]
        + corpus.needle_rows["needledften"][:5]
        + corpus.special_rows["dup"][:1]
    )
    n = max(len(must) + 4, int(corpus.n_total * share))
    skip = set(corpus.special_rows["empty"]) | set(must)
    pool = [i for i in range(corpus.n_total) if i not in skip]
    extra = rng.choice(pool, size=n - len(must), replace=False)
    return sorted(set(must) | {int(i) for i in extra})
