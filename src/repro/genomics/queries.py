"""The query suite of Table 3.

Five EQUIP queries (ep1/2/3/15/16 — the ones applicable to the target
schema) and six new XR queries exercising the critical parts of the mapping:
what is XR-Certain in ``knownGene`` (xr1–xr3) and which transcript pairs
certainly share an isoform cluster (xr4–xr6).  Attribute positions follow
our target schema (see :mod:`repro.genomics.schema`), which matches the
positions used in the paper's listing.
"""

from __future__ import annotations

from functools import lru_cache

from repro.parser import parse_query
from repro.relational.queries import ConjunctiveQuery

_QUERY_TEXTS = [
    # EQUIP-derived queries: refLink ⋈ kgXref on the gene symbol.
    ("ep1", "ep1() :- refLink(symbol, _, acc, protacc, _, _, _, _), "
            "kgXref(ucscid, _, spid, _, symbol, _, _, _, _, _)."),
    ("ep2", "ep2(protacc) :- refLink(symbol, _, acc, protacc, _, _, _, _), "
            "kgXref(ucscid, _, spid, _, symbol, _, _, _, _, _)."),
    ("ep3", "ep3(protacc, spid) :- refLink(symbol, _, acc, protacc, _, _, _, _), "
            "kgXref(ucscid, _, spid, _, symbol, _, _, _, _, _)."),
    # kgXref ⋈ refLink on the RefSeq accession.
    ("ep15", "ep15(symbol) :- kgXref(ucscid, _, _, _, symbol, refseq, _, _, _, _), "
             "refLink(_, product, refseq, _, _, _, entrez, _)."),
    ("ep16", "ep16(symbol, entrez) :- kgXref(ucscid, _, _, _, symbol, refseq, _, _, _, _), "
             "refLink(_, product, refseq, _, _, _, entrez, _)."),
    # XR queries over knownGene (boolean / projection / projection-free).
    ("xr1", "xr1() :- knownGene(kgid, ch, sd, txs, txe, cs, ce, exc, exs, exe, pac, alignid)."),
    ("xr2", "xr2(kgid) :- knownGene(kgid, ch, sd, txs, txe, cs, ce, exc, exs, exe, pac, alignid)."),
    ("xr3", "xr3(kgid, ch, sd, txs, txe, cs, ce, exc, exs, exe, pac, ai) :- "
            "knownGene(kgid, ch, sd, txs, txe, cs, ce, exc, exs, exe, pac, ai)."),
    # XR queries over knownIsoforms (co-clustered transcripts).
    ("xr4", "xr4() :- knownIsoforms(cluster, transcript1), knownIsoforms(cluster, transcript2)."),
    ("xr5", "xr5(transcript1) :- knownIsoforms(cluster, transcript1), "
            "knownIsoforms(cluster, transcript2)."),
    ("xr6", "xr6(transcript1, transcript2) :- knownIsoforms(cluster, transcript1), "
            "knownIsoforms(cluster, transcript2)."),
]


@lru_cache(maxsize=1)
def _suite() -> dict[str, ConjunctiveQuery]:
    return {name: parse_query(text) for name, text in _QUERY_TEXTS}


QUERY_SUITE: tuple[str, ...] = tuple(name for name, _ in _QUERY_TEXTS)


def query_by_name(name: str) -> ConjunctiveQuery:
    """Look up a Table 3 query by its paper name (``ep1`` ... ``xr6``)."""
    suite = _suite()
    if name not in suite:
        raise KeyError(f"unknown query {name!r}; suite: {sorted(suite)}")
    return suite[name]


def query_text_by_name(name: str) -> str:
    """The surface-syntax text of a Table 3 query (for wire protocols —
    HTTP load clients send query *text*, not objects)."""
    for candidate, text in _QUERY_TEXTS:
        if candidate == name:
            return text
    raise KeyError(f"unknown query {name!r}; suite: {sorted(QUERY_SUITE)}")


def all_queries() -> list[tuple[str, ConjunctiveQuery]]:
    return [(name, query_by_name(name)) for name in QUERY_SUITE]
