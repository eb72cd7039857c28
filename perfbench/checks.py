"""Result checks: the program's hits against the independent scorer.

Each function returns None when the result passes and a one-line reason
when it does not, so a run can report every failed check on stderr.
"""

from __future__ import annotations

from .refscore import RefIndex

REL_TOL = 1e-9


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def ordering_error(hits: list[tuple[int, float]]) -> str | None:
    """Hits must be ranked by (score desc, docID asc) with no docID twice."""
    if len({d for d, _ in hits}) != len(hits):
        return "a docID is returned twice"
    for r, ((d1, s1), (d2, s2)) in enumerate(zip(hits, hits[1:]), start=1):
        if s2 > s1 or (s2 == s1 and d2 <= d1):
            return f"ranks {r} and {r + 1} are out of (score desc, docID asc) order"
    return None


def rank_error(
    hits: list[tuple[int, float]], ref: RefIndex, query: str, k: int
) -> str | None:
    """Rank identity: same docIDs at every rank, scores within REL_TOL.

    Two documents whose reference scores differ by less than REL_TOL are a
    tie at float precision; the program may rank either first, so a docID
    mismatch is accepted only between such documents.
    """
    err = ordering_error(hits)
    if err:
        return err
    want = ref.top_k(query, k)
    if len(hits) != len(want):
        return f"{len(hits)} hits where the reference has {len(want)}"
    scores = ref.score_all(query)
    for r, ((got_d, got_s), (want_d, want_s)) in enumerate(zip(hits, want), start=1):
        ref_s = scores.get(got_d)
        if ref_s is None:
            return f"rank {r}: doc {got_d} does not match the query"
        if not close(got_s, ref_s):
            return f"rank {r}: doc {got_d} scored {got_s!r}, reference {ref_s!r}"
        if got_d != want_d and not close(ref_s, want_s):
            return f"rank {r}: doc {got_d} where the reference ranks doc {want_d}"
    return None


def url_error(hit_urls: list[str], want_urls: list[str]) -> str | None:
    if hit_urls != want_urls:
        return "returned urls differ from the generated pages' urls"
    return None


def deleted_error(hit_urls: list[str], deleted: set[str]) -> str | None:
    bad = [u for u in hit_urls if u in deleted]
    return f"deleted url returned: {bad[0]}" if bad else None


def same_hits(a: list[tuple[int, float]], b: list[tuple[int, float]]) -> str | None:
    """Two runs of the program agree: same docIDs, scores within REL_TOL."""
    if [d for d, _ in a] != [d for d, _ in b]:
        return "docIDs differ"
    if not all(close(x, y) for (_, x), (_, y) in zip(a, b)):
        return "scores differ"
    return None
