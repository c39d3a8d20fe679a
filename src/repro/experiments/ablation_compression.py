"""Posting-list compression ablation (paper §III-C's compression remark).

The paper notes Set Algebra's posting lists "can be stored using
different compression schemes [Zukowski et al.] where decompression can
be handled by a separate microservice."  This ablation quantifies the
trade-off the remark implies on the real sharded indexes: index memory
(uncompressed vs varint-delta vs PFOR-delta) against the decompression
work a query would add to the leaf's critical path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List

from repro.data.documents import DocumentCorpus
from repro.experiments import runner
from repro.experiments.tables import render_table
from repro.services.setalgebra.compression import PforDeltaCodec, VarintDeltaCodec
from repro.services.setalgebra.index import InvertedIndex
from repro.suite.config import ServiceScale


@dataclass
class CompressionCell:
    """One codec's measurements over the sharded corpus."""

    codec_name: str
    memory_bytes: int
    memory_ratio: float  # vs uncompressed
    decode_us_per_query: float  # wall-clock decompression per query
    correct: bool  # answers identical to the uncompressed index


def run_compression_ablation(
    scale: ServiceScale | str = "small",
    seed: int = 0,
    n_queries: int = 150,
) -> Dict[str, CompressionCell]:
    """Measure memory and per-query decode cost for each codec."""
    scale = runner.resolve_scale(scale)
    corpus = DocumentCorpus(
        n_documents=scale.setalgebra_docs,
        vocabulary_size=scale.setalgebra_vocab,
        seed=seed,
    )
    queries = corpus.make_queries(n_queries, seed=seed + 1)
    doc_ids = list(range(corpus.n_documents))

    baseline = InvertedIndex(corpus.documents, doc_ids, seed=seed)
    base_memory = baseline.memory_bytes()
    truth = [baseline.intersect(terms) for terms in queries]

    results: Dict[str, CompressionCell] = {
        "uncompressed": CompressionCell(
            codec_name="uncompressed",
            memory_bytes=base_memory,
            memory_ratio=1.0,
            decode_us_per_query=0.0,
            correct=True,
        )
    }
    for codec in (VarintDeltaCodec(), PforDeltaCodec()):
        index = InvertedIndex(corpus.documents, doc_ids, seed=seed)
        index.freeze(codec)
        answers: List[List[int]] = []
        start = time.perf_counter()
        for terms in queries:
            answers.append(index.intersect(terms))
        elapsed_us = (time.perf_counter() - start) / len(queries) * 1e6
        # Subtract the intersection work itself (measured on the baseline).
        start = time.perf_counter()
        for terms in queries:
            baseline.intersect(terms)
        base_us = (time.perf_counter() - start) / len(queries) * 1e6
        results[codec.name] = CompressionCell(
            codec_name=codec.name,
            memory_bytes=index.memory_bytes(),
            memory_ratio=index.memory_bytes() / max(base_memory, 1),
            decode_us_per_query=max(0.0, elapsed_us - base_us),
            correct=answers == truth,
        )
    return results


def format_compression_ablation(results: Dict[str, CompressionCell]) -> str:
    """The ablation as a table."""
    rows = []
    for cell in results.values():
        rows.append(
            (
                cell.codec_name,
                cell.memory_bytes,
                f"{cell.memory_ratio:.2f}x",
                round(cell.decode_us_per_query, 1),
                "yes" if cell.correct else "NO",
            )
        )
    return render_table(
        ("codec", "index bytes", "vs raw", "decode us/query", "correct"), rows
    )


#: Registry entry: ``usuite compression``.
EXPERIMENT = runner.Experiment(
    name="compression",
    help="posting-list codec trade-off",
    title="Ablation — posting-list compression (Set Algebra indexes)",
    run=run_compression_ablation,
    format=format_compression_ablation,
    flags=(runner.SCALE, runner.SEED),
)
