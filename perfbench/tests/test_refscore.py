"""The benchmark's own tests: the reference scorer and the result checks.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
They need numpy, pyarrow and charset_normalizer, not vexor_ray.
"""

import math

import pytest

from perfbench import corpus as gen
from perfbench.checks import deleted_error, ordering_error, rank_error, same_hits
from perfbench.refscore import RefCorpus, extract, query_terms
from perfbench.trace import slice_qps

# Three documents; the url is part of each document.
#   d0 = "u0 apple banana apple"   length 4
#   d1 = "u1 banana cherry"        length 3
#   d2 = "u2 cherry"               length 2
# N = 3, avgdl = 9 / 3 = 3, k1 = 1.5, b = 0.75.
IDS = [0, 1, (1 << 32) | 0]
URLS = ["u0", "u1", "u2"]
HTMLS = [b"apple banana apple", b"banana cherry", b"cherry"]


@pytest.fixture(scope="module")
def ref():
    return RefCorpus(IDS, URLS, HTMLS).index()


def test_totals(ref):
    assert (ref.n_docs, ref.total_tokens, ref.total_postings, ref.vocab) == (3, 9, 8, 6)
    assert ref.df("banana") == 2 and ref.df("nothing") == 0


def test_hand_computed_scores(ref):
    # apple: df 1, idf = ln(2.5/1.5 + 1) = 0.9808292530117263
    #   d0: tf 2, norm = 1.5 * (0.25 + 0.75 * 4/3) = 1.875
    #       0.98082925 * 2 * 2.5 / (2 + 1.875) = 1.2655861329183566
    assert ref.top_k("apple", 10) == [(0, pytest.approx(1.2655861329183566, rel=1e-12))]
    # banana: df 2, idf = ln(1.5/2.5 + 1) = 0.47000362924573563
    #   d1: tf 1, norm 1.5   -> 0.47000362924573563
    #   d0: tf 1, norm 1.875 -> 0.47000363 * 2.5 / 2.875 = 0.4086988080397701
    got = ref.top_k("banana", 10)
    assert [d for d, _ in got] == [1, 0]
    assert got[0][1] == pytest.approx(0.47000362924573563, rel=1e-12)
    assert got[1][1] == pytest.approx(0.4086988080397701, rel=1e-12)
    # cherry: d2 (length 2, norm 1.125) outranks d1 (length 3)
    #   d2: 0.47000363 * 2.5 / 2.125 = 0.5529454461714537
    got = ref.top_k("CHERRY cherry", 1)
    assert got == [(IDS[2], pytest.approx(0.5529454461714537, rel=1e-12))]


def test_multi_term_sums_in_query_order(ref):
    want = 1.2655861329183566 + 0.4086988080397701
    assert ref.top_k("apple banana", 1)[0][1] == pytest.approx(want, rel=1e-12)


def test_ties_rank_by_ascending_doc_id():
    ref = RefCorpus([7, 3, 5], ["a", "a", "b"], [b"same words", b"same words", b"other"]).index()
    got = ref.top_k("same", 10)
    assert [d for d, _ in got] == [3, 7] and got[0][1] == got[1][1]


def test_query_terms_dedup_in_order_and_cap():
    assert query_terms("B a b, A c_d!") == ["b", "a", "c_d"]
    many = " ".join(f"t{i}" for i in range(40))
    assert query_terms(many) == [f"t{i}" for i in range(32)]
    assert query_terms(gen.CJK_QUERY) == []


def test_extraction_semantics():
    assert extract(b"  a\r\nb  ") == "a\nb"
    assert extract(b"ok " + "中".encode()[:2]) == "ok"  # truncated tail dropped
    assert extract(b"") is None and extract(b" \r\n\t ") is None
    assert extract(b"caf\xe9 menu") is not None  # not UTF-8: charset fallback
    assert len(extract(b"x" * 300_000)) == 200_000


def test_bm25_idf_is_non_negative():
    # a term in every document still has a positive idf
    ref = RefCorpus([0, 1], ["a", "b"], [b"all", b"all"]).index()
    assert ref.top_k("all", 1)[0][1] > 0
    assert math.log((2 - 2 + 0.5) / (2 + 0.5) + 1.0) > 0


# -- the result check rejects perturbed results --------------------------------


def test_check_accepts_the_reference_itself(ref):
    for q in ("apple", "banana", "cherry apple", "absent"):
        assert rank_error(ref.top_k(q, 10), ref, q, 10) is None


def test_check_rejects_swapped_ranks(ref):
    hits = ref.top_k("banana", 10)
    assert rank_error([hits[1], hits[0]], ref, "banana", 10) is not None


def test_check_rejects_swapped_tie():
    ref = RefCorpus([3, 7], ["a", "a"], [b"same", b"same"]).index()
    hits = ref.top_k("same", 10)
    assert ordering_error(hits[::-1]) is not None
    assert rank_error(hits[::-1], ref, "same", 10) is not None


def test_check_rejects_a_score_off_by_1e6(ref):
    (d, s), rest = ref.top_k("banana", 10)[0], ref.top_k("banana", 10)[1:]
    assert rank_error([(d, s + 1e-6)] + rest, ref, "banana", 10) is not None
    assert rank_error([(d, s + 1e-13)] + rest, ref, "banana", 10) is None


def test_check_rejects_a_dropped_hit(ref):
    assert rank_error(ref.top_k("banana", 10)[:1], ref, "banana", 10) is not None


def test_check_rejects_a_deleted_url():
    full = RefCorpus(IDS, URLS, HTMLS)
    complement = full.index(exclude=[1])
    stale = full.index().top_k("banana", 10)  # still holds deleted d1
    assert rank_error(stale, complement, "banana", 10) is not None
    assert deleted_error(["u0", "u1"], {"u1"}) is not None
    assert deleted_error(["u0"], {"u1"}) is None


def test_same_hits():
    assert same_hits([(1, 0.5)], [(1, 0.5 + 1e-14)]) is None
    assert same_hits([(1, 0.5)], [(2, 0.5)]) is not None


# -- the input generator -------------------------------------------------------


def test_corpus_is_a_function_of_the_seed():
    a = gen.make_corpus(5, 1000, 500, rows_per_file=500)
    b = gen.make_corpus(5, 1000, 500, rows_per_file=500)
    c = gen.make_corpus(6, 1000, 500, rows_per_file=500)
    assert a.htmls == b.htmls and a.urls == b.urls
    assert a.htmls != c.htmls
    assert gen.make_queries(a, {"multi": 1.0}, 50, 5) == gen.make_queries(b, {"multi": 1.0}, 50, 5)


def test_corpus_make_up():
    c = gen.make_corpus(5, 1000, 500, rows_per_file=500)
    for term, df in gen.NEEDLES.items():
        assert len(c.needle_rows[term]) == df
        assert all(r < c.n_base for r in c.needle_rows[term])
    assert c.special_rows["long"] and c.special_rows["cjk"]
    for i in c.special_rows["long"]:
        assert len(c.htmls[i]) > 200_000
        assert 199_000 < len(extract(c.htmls[i])) <= 200_000  # capped, then stripped
    assert all(extract(c.htmls[i]) is None for i in c.special_rows["empty"])
    assert all(b"\r\n" in c.htmls[i] for i in c.special_rows["crlf"])
    for i in c.special_rows["bad_utf8"]:
        with pytest.raises(UnicodeDecodeError):
            c.htmls[i].decode("utf-8")
    dups = c.special_rows["dup"]
    assert len(dups) >= 2
    ref = RefCorpus([c.doc_id(i) for i in range(c.n_base)], c.urls[: c.n_base],
                    c.htmls[: c.n_base]).index()
    for term, df in gen.NEEDLES.items():
        assert ref.df(term) == df


def test_doc_ids_follow_file_and_row():
    c = gen.make_corpus(5, 1000, 0, rows_per_file=500)
    assert c.doc_id(0) == 0 and c.doc_id(499) == 499 and c.doc_id(500) == 1 << 32


def test_slice_qps_is_the_median_slice_rate():
    steady = [i / 100 for i in range(1, 201)]  # 100 queries/s for 2 s
    assert slice_qps(steady) == pytest.approx(100.0)
    # a 0.6-s stall slows the one slice it ends in, not the median
    stalled = [t if t < 0.8 else t + 0.6 for t in steady]
    assert slice_qps(stalled) == pytest.approx(100.0)
    assert len(stalled) / stalled[-1] < 80
    assert slice_qps([]) == 0.0
