"""Driver contract for the graft builder (Ray Data target).

The driver calls ``ray.init`` itself before importing this module; nothing
here (or in ``libpdf_ray``) initialises or shuts down Ray.

- ``entry()``: flagship pipeline on /root/testdata/sf0.001 — plain-text
  documents → canonical span shape (doc_id, spans) + extraction of the
  synthetic interleaved corpus.
- ``queries()``: one callable per implemented operator/pipeline
  (SURVEY.md §2 + the training-data ops); each takes ``sf_dir``.
- ``oracle_sql()``: DuckDB-equivalent SQL for every SQL-expressible query.
  Column names match exactly; all float aggregates are integer-exact
  (cents/percent scaling, single final division) so Ray and DuckDB produce
  bit-identical doubles.  Non-SQL-expressible ops (extraction pipeline,
  LSH/MinHash/SimHash, IVF-ANN, language-ID, media decode) are rows-only.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

_QUERY_CORPUS_DOCS = 96


def _read_sized(path, columns=None, **kw):
    from libpdf_ray.ops.util import read_sized
    return read_sized(path, columns=columns, **kw)


def _query_corpus() -> str:
    """Deterministic synthetic interleaved corpus for the extraction
    queries (generator-as-oracle, seed=42; cached across calls).  The
    DuckDB oracles for the extraction views read these same parquet files
    directly (read_parquet over expected_* columns), so the driver's
    side-by-side check becomes a REAL hash-checked span/cell/meta parity
    gate rather than rows-only."""
    from libpdf_ray.fixtures import write_corpus
    from libpdf_ray.schema import SCHEMA_VERSION

    # dir versioned by sidecar schema so a stale cache is never reused
    out = f"/tmp/libpdf_ray_qcorpus_v{SCHEMA_VERSION}"
    return write_corpus(out, n_docs=_QUERY_CORPUS_DOCS, seed=42,
                        shards=8, skew_pages=12)


def entry() -> Any:
    """Flagship: BOTH ends of the north rule in one span corpus —
    plain-text documents segmented into paragraph spans (the
    main-content/boilerplate path) unioned with the full raw-layout
    extraction of the synthetic interleaved corpus (words/chars →
    lines → chapters/paragraphs/tables/figures/rects/links), via the
    fused read+parse path."""
    from libpdf_ray.config import SMART_CROP_CONFIG
    from libpdf_ray.ops.util import tune_data_context
    from libpdf_ray.pipelines.extract import extract_spans_fused
    from libpdf_ray.sources.text_source import read_text_documents

    tune_data_context()

    text_spans = read_text_documents("/root/testdata/sf0.001/documents.parquet")
    extracted = extract_spans_fused(_query_corpus(), SMART_CROP_CONFIG).map_batches(
        lambda t: t.select(["doc_id", "spans", "n_spans"]),
        batch_format="pyarrow",
    )
    return text_spans.union(extracted)


# ---------------------------------------------------------------------------
# extraction-pipeline queries (rows-only: the span semantics have no SQL
# form; pytest enforces span-sequence equality against the generator oracle)
# ---------------------------------------------------------------------------


def _q_extract_spans(sf_dir: str):
    from libpdf_ray.config import SMART_CROP_CONFIG
    from libpdf_ray.pipelines.extract import extract_spans, read_corpus, spans_table

    return spans_table(extract_spans(read_corpus(_query_corpus()), SMART_CROP_CONFIG))


def _q_span_kinds(sf_dir: str):
    import pandas as pd

    flat = _q_extract_spans(sf_dir)
    from libpdf_ray.ops.util import shuffle_partitions

    counted = flat.groupby("kind", num_partitions=shuffle_partitions(est_keys=8)).count()
    return counted.map_batches(
        lambda df: pd.DataFrame(
            {"kind": df["kind"], "n_spans": df["count()"].astype("int64")}
        ),
        batch_format="pandas",
    )


REFERENCE_PDF_DIR = "/root/reference/tests/pdf"


def _q_pdf_spans(sf_dir: str):
    """Span extraction over REAL PDF bytes (the reference's 12 test PDFs;
    ``sf_dir`` is unused — the input is the reference corpus itself).
    read_pdf_files → PdfByteDecoder → the full layout pipeline →
    exploded span rows."""
    from libpdf_ray.pipelines.extract import extract_spans, spans_table
    from libpdf_ray.stages.pdf_decoder import PdfByteDecoder, read_pdf_files

    from libpdf_ray.config import PipelineConfig

    return spans_table(
        extract_spans(read_pdf_files(REFERENCE_PDF_DIR), PipelineConfig(),
                      decoder=PdfByteDecoder())
    )


def _q_pdf_file_meta(sf_dir: str):
    """File-metadata view over real PDF bytes (Info dict, D: dates,
    page counts) — the S4 operator on the reference corpus."""
    from libpdf_ray.stages.pdf_decoder import read_pdf_files
    from libpdf_ray.stages.views import view_table

    return view_table(read_pdf_files(REFERENCE_PDF_DIR), "file_meta")


def _q_media_features(sf_dir: str):
    from libpdf_ray.ops.multimodal import extract_media_features

    return extract_media_features(_q_extract_spans(sf_dir))


def _q_media_meta(sf_dir: str):
    """Scalar projection of the multimodal decode path (width/height +
    mean-RGB channels from the feature tail).  The stub decode derives
    everything from md5(media_ref), which DuckDB reproduces hex-digit for
    hex-digit — so even the fake-codec plumbing is hash-gated."""
    import pandas as pd

    from libpdf_ray.ops.multimodal import extract_media_features

    feats = extract_media_features(_q_extract_spans(sf_dir))

    def project(df: pd.DataFrame) -> pd.DataFrame:
        rgb = [list(f[-3:]) for f in df["media_features"]]
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "media_ref": df["media_ref"],
                "media_width": df["media_width"],
                "media_height": df["media_height"],
                "mean_r": [c[0] for c in rgb],
                "mean_g": [c[1] for c in rgb],
                "mean_b": [c[2] for c in rgb],
            }
        )

    return feats.map_batches(project, batch_format="pandas")


def _q_langid(sf_dir: str):
    import pandas as pd
    import ray.data as rd

    from libpdf_ray.ops.text import LangIdModel
    from libpdf_ray.ops.util import shuffle_partitions

    ds = _read_sized(f"{sf_dir}/documents.parquet", columns=["lang", "text"])
    pred = ds.map_batches(LangIdModel, batch_format="pandas", concurrency=2)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        part = df.groupby(["lang", "lang_pred"], as_index=False).size()
        return part.rename(columns={"size": "n"})

    from ray.data.aggregate import Sum

    agg = (
        pred.map_batches(partial, batch_format="pandas")
        .groupby(["lang", "lang_pred"], num_partitions=shuffle_partitions(est_keys=32))
        .aggregate(Sum("n", alias_name="n_docs"))
    )
    return agg


def _q_quality_filter(sf_dir: str):
    import pandas as pd
    import ray.data as rd
    from ray.data.aggregate import Sum

    from libpdf_ray.ops.text import QualityScorer
    from libpdf_ray.ops.util import shuffle_partitions

    ds = _read_sized(f"{sf_dir}/documents.parquet", columns=["lang", "text"])
    scored = ds.map_batches(QualityScorer, batch_format="pandas", concurrency=2)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        part = pd.DataFrame(
            {
                "lang": df["lang"],
                "kept": df["q_keep"].astype("int64"),
                "n": 1,
            }
        )
        return part.groupby("lang", as_index=False).sum()

    return (
        scored.map_batches(partial, batch_format="pandas")
        .groupby("lang", num_partitions=shuffle_partitions(est_keys=16))
        .aggregate(Sum("kept", alias_name="n_kept"), Sum("n", alias_name="n_docs"))
    )


def _q_fingerprints(sf_dir: str):
    import ray.data as rd

    from libpdf_ray.ops.text import add_fingerprint

    ds = _read_sized(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(
        lambda df: add_fingerprint(df)[["doc_id", "fingerprint"]],
        batch_format="pandas",
    )


def _q_simhash(sf_dir: str):
    import ray.data as rd

    from libpdf_ray.ops.dedup import SimHasher

    ds = _read_sized(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    hashed = ds.map_batches(SimHasher, batch_format="pandas", concurrency=2)
    return hashed.map_batches(
        lambda df: df[["doc_id", "simhash"]], batch_format="pandas"
    )


def _q_simhash_pairs(sf_dir: str):
    import ray.data as rd

    from libpdf_ray.ops.dedup import simhash_neardup_pairs

    ds = _read_sized(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return simhash_neardup_pairs(ds, max_hamming=3)


def _q_minhash_pairs(sf_dir: str):
    import ray.data as rd

    from libpdf_ray.ops.dedup import minhash_lsh_pairs

    ds = _read_sized(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return minhash_lsh_pairs(ds, threshold=0.5)


def _q_minhash_verified_pairs(sf_dir: str):
    """LSH candidates + EXACT jaccard verify: with 64 bands × 2 rows the
    recall at threshold 0.5 is 1 − 1e-8 per pair, so the output equals the
    exact all-pairs join — hash-checked against the same SQL oracle as
    jaccard_pairs."""
    from libpdf_ray.ops.dedup import minhash_exact_pairs

    ds = _read_sized(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return minhash_exact_pairs(ds, threshold=0.5, num_perm=128, bands=64)


def _q_jaccard_pairs(sf_dir: str):
    from libpdf_ray.ops.dedup import jaccard_pairs_exact
    from libpdf_ray.ops.util import parquet_row_count

    from libpdf_ray.ops.util import file_bytes

    path = f"{sf_dir}/documents.parquet"
    ds = _read_sized(path, columns=["doc_id", "text"])
    return jaccard_pairs_exact(ds, threshold=0.5,
                               est_docs=parquet_row_count(path),
                               est_bytes=file_bytes(path))


def _q_neardup_clusters(sf_dir: str):
    from libpdf_ray.ops.dedup import jaccard_pairs_exact
    from libpdf_ray.ops.graph import connected_components
    from libpdf_ray.ops.util import parquet_row_count

    from libpdf_ray.ops.util import file_bytes

    path = f"{sf_dir}/documents.parquet"
    n_docs = parquet_row_count(path)
    ds = _read_sized(path, columns=["doc_id", "text"])
    pairs = jaccard_pairs_exact(ds, threshold=0.5, est_docs=n_docs,
                                est_bytes=file_bytes(path))
    return connected_components(pairs, est_nodes=n_docs)


def _q_dedup_docs(sf_dir: str):
    """Full near-dup dedup pipeline: pair generation → transitive
    clustering → drop everything but each cluster's representative."""
    from libpdf_ray.ops.dedup import jaccard_pairs_exact
    from libpdf_ray.ops.graph import (connected_components,
                                      dedup_keep_representatives)
    from libpdf_ray.ops.util import parquet_row_count

    path = f"{sf_dir}/documents.parquet"
    n_docs = parquet_row_count(path)
    ds = _read_sized(path, columns=["doc_id", "text", "lang", "source"])
    from libpdf_ray.ops.util import file_bytes

    pairs = jaccard_pairs_exact(
        ds.select_columns(["doc_id", "text"]), threshold=0.5, est_docs=n_docs,
        est_bytes=file_bytes(path),
    )
    clusters = connected_components(pairs, est_nodes=n_docs)
    kept = dedup_keep_representatives(ds, clusters, est_keys=n_docs)
    return kept.select_columns(["doc_id", "lang", "source"])


def _q_normalized_dedup(sf_dir: str):
    from libpdf_ray.ops.dedup import q_normalized_dedup

    return q_normalized_dedup(sf_dir)


def _q_heavy_hitters(sf_dir: str):
    from libpdf_ray.ops.sketch import q_heavy_hitters

    return q_heavy_hitters(sf_dir)


def _q_containment_pairs(sf_dir: str):
    from libpdf_ray.ops.dedup import q_containment_pairs

    return q_containment_pairs(sf_dir)


def _q_embedding_neardup(sf_dir: str):
    import ray.data as rd

    from libpdf_ray.ops.dedup import embedding_neardup_pairs

    ds = _read_sized(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return embedding_neardup_pairs(ds, threshold=0.9)


def _q_knn_ivf(sf_dir: str):
    """The unified ANN path: knn_ivf on a parquet source builds (or
    reuses) the cell-partitioned index and reads ONLY the probed cells."""
    import numpy as np
    import pyarrow.parquet as pq

    from libpdf_ray.ops.similarity import ivf_centroids_for, knn_ivf

    src = f"{sf_dir}/embeddings.parquet"
    t = pq.read_table(src, columns=["vec_id", "embedding"])
    ids = t.column("vec_id").to_pylist()[:8]
    mat = np.stack(
        [np.asarray(e, dtype=np.float64) for e in t.column("embedding").to_pylist()[:8]]
    )
    centroids = ivf_centroids_for(src, n_cells=16)
    return knn_ivf(src, {"ids": ids, "matrix": mat}, centroids, k=5, n_probe=4)


def _q_knn_ivf_exact(sf_dir: str):
    """IVF with n_probe = n_cells probes every cell — the result is exactly
    brute force, so the whole IVF machinery (index build, probe-pruned
    read, partial top-k, tree merge) gets the brute-force SQL oracle."""
    import numpy as np
    import pyarrow.parquet as pq

    from libpdf_ray.ops.similarity import ivf_centroids_for, knn_ivf

    src = f"{sf_dir}/embeddings.parquet"
    t = pq.read_table(src, columns=["vec_id", "embedding"])
    mask = [i for i, v in enumerate(t.column("vec_id").to_pylist()) if v < 8]
    ids = [t.column("vec_id")[i].as_py() for i in mask]
    mat = np.stack(
        [np.asarray(t.column("embedding")[i].as_py(), dtype=np.float64) for i in mask]
    )
    centroids = ivf_centroids_for(src, n_cells=16)
    return knn_ivf(src, {"ids": ids, "matrix": mat}, centroids, k=5,
                   n_probe=len(centroids))


def _q_knn_ivf_partitioned(sf_dir: str):
    """Explicit-index ANN: same probe-pruned route as knn_ivf, with the
    index handle managed by the caller (the repeated-query-set shape)."""
    import numpy as np
    import pyarrow.parquet as pq

    from libpdf_ray.ops.similarity import (
        ivf_centroids_for,
        ivf_index_for,
        knn_ivf_partitioned,
    )

    src = f"{sf_dir}/embeddings.parquet"
    centroids = ivf_centroids_for(src, n_cells=16)
    index_dir = ivf_index_for(src, centroids)
    t = pq.read_table(src, columns=["vec_id", "embedding"])
    ids = t.column("vec_id").to_pylist()[:8]
    mat = np.stack(
        [np.asarray(e, dtype=np.float64) for e in t.column("embedding").to_pylist()[:8]]
    )
    return knn_ivf_partitioned(
        index_dir, {"ids": ids, "matrix": mat}, centroids, k=5, n_probe=4
    )


def _q_elements(sf_dir: str):
    from libpdf_ray.config import SMART_CROP_CONFIG
    from libpdf_ray.pipelines.extract import read_corpus
    from libpdf_ray.stages.views import view_table

    # identity projection (uid path / type / page / payload / link count)
    # matches the generator's expected_elements oracle column-for-column;
    # the geometry columns (x0..y1) stay on the full view but are not part
    # of the hash-checked contract (the generator does not model crop boxes)
    return view_table(read_corpus(_query_corpus()), "elements", SMART_CROP_CONFIG).select_columns(
        ["doc_id", "uid", "etype", "page", "text", "media_ref", "n_links"]
    )


def _q_file_meta(sf_dir: str):
    from libpdf_ray.stages.views import view_table

    return view_table(
        _read_sized(_query_corpus(), columns=["doc_id", "meta", "pages"]),
        "file_meta",
    )


def _q_pages(sf_dir: str):
    from libpdf_ray.stages.views import view_table

    return view_table(
        _read_sized(_query_corpus(), columns=["doc_id", "pages"]), "pages"
    )


def _q_text_spans(sf_dir: str):
    """Plain-text source → span contract, exploded to one row per span so
    the driver can hash-check it against the SQL segmentation oracle (the
    nested shape itself is what downstream pipelines consume)."""
    import pyarrow as pa

    from libpdf_ray.sources.text_source import read_text_documents

    ds = read_text_documents(f"{sf_dir}/documents.parquet")

    def explode(t: pa.Table) -> pa.Table:
        n_spans = pa.compute.list_value_length(t.column("spans"))
        doc_ids = pa.compute.list_parent_indices(t.column("spans").combine_chunks())
        flat = t.column("spans").combine_chunks().flatten()
        return pa.table(
            {
                "doc_id": t.column("doc_id").take(doc_ids),
                "kind": flat.field("kind"),
                "text": flat.field("text"),
                "media_ref": flat.field("media_ref"),
                "offset": flat.field("offset"),
                "n_spans": pa.compute.take(n_spans, doc_ids),
            }
        )

    return ds.map_batches(explode, batch_format="pyarrow")


def _q_links(sf_dir: str):
    from libpdf_ray.config import SMART_CROP_CONFIG
    from libpdf_ray.pipelines.extract import read_corpus
    from libpdf_ray.stages.views import view_table

    return view_table(read_corpus(_query_corpus()), "links", SMART_CROP_CONFIG)


def _q_cells(sf_dir: str):
    """Cell view projected to the generator-as-oracle key columns (the full
    view with uid + geometry is pytest-asserted in test_cells_twocolumn)."""
    import pyarrow as pa

    from libpdf_ray.config import SMART_CROP_CONFIG
    from libpdf_ray.pipelines.extract import read_corpus
    from libpdf_ray.stages.views import view_table

    full = view_table(read_corpus(_query_corpus()), "cells", SMART_CROP_CONFIG)
    return full.map_batches(
        lambda t: t.select(["doc_id", "page", "table_idx", "row", "col", "text"]),
        batch_format="pyarrow",
    )


def _q_text_styles(sf_dir: str):
    from libpdf_ray.config import SMART_CROP_CONFIG
    from libpdf_ray.pipelines.extract import read_corpus
    from libpdf_ray.stages.views import view_table

    return view_table(read_corpus(_query_corpus()), "text_styles", SMART_CROP_CONFIG)


def _q_rect_styles(sf_dir: str):
    from libpdf_ray.config import SMART_CROP_CONFIG
    from libpdf_ray.pipelines.extract import read_corpus
    from libpdf_ray.stages.views import view_table

    return view_table(read_corpus(_query_corpus()), "rect_styles", SMART_CROP_CONFIG)


def _q_kmeans_clusters(sf_dir: str):
    """Distributed full-pass Lloyd k-means (rows-only: float reductions
    aren't hash-oracle material).  Returns the k cluster sizes + final
    mean-cosine inertia — row count is the deterministic contract."""
    import pandas as pd

    from libpdf_ray.ops.similarity import kmeans_fit

    ds = _read_sized(f"{sf_dir}/embeddings.parquet", columns=["embedding"])
    fit = kmeans_fit(ds, n_clusters=8, iters=3, seed=42)
    # report sizes via one extra assignment pass of the final centroids
    import numpy as np

    c = fit["centroids"]

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        emb = np.stack([np.asarray(e, dtype=np.float64) for e in df["embedding"]])
        emb = emb / np.linalg.norm(emb, axis=1, keepdims=True)
        cells = np.argmax(emb @ c.T, axis=1)
        out = pd.DataFrame({"cell": cells.astype("int64")})
        return out.groupby("cell", as_index=False).size().rename(columns={"size": "n"})

    from libpdf_ray.ops.util import tree_merge

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("cell", as_index=False).sum()

    inertia = round(fit["inertia"][-1], 6)

    def final(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("cell", as_index=False).sum()
        out["inertia"] = inertia
        return out

    return tree_merge(
        ds.map_batches(assign, batch_format="pandas"), merge, final
    )


def _q_distinct_sketch(sf_dir: str):
    import ray.data as rd

    from libpdf_ray.ops.sketch import distinct_count_sketch

    ds = _read_sized(f"{sf_dir}/lineitem.parquet", columns=["l_partkey"])
    return distinct_count_sketch(ds, "l_partkey")


def _q_price_quantiles(sf_dir: str):
    import ray.data as rd

    from libpdf_ray.ops.sketch import quantile_sketch

    ds = _read_sized(
        f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"]
    )
    return quantile_sketch(ds, "l_extendedprice")


def _q_boilerplate(sf_dir: str):
    from libpdf_ray.config import SMART_CROP_CONFIG
    from libpdf_ray.ops.boilerplate import find_boilerplate_hashes
    from libpdf_ray.pipelines.extract import extract_spans, read_corpus, spans_table
    import ray.data as rd

    spans = spans_table(
        extract_spans(read_corpus(_query_corpus()), SMART_CROP_CONFIG)
    )
    hot, total = find_boilerplate_hashes(spans, min_doc_fraction=0.5, min_docs=5)
    return rd.from_items(
        [{"n_boilerplate_texts": len(hot), "corpus_docs": total}]
    )


def _q_html_main_text(sf_dir: str):
    from libpdf_ray.ops.html import q_html_main_text

    return q_html_main_text(sf_dir)


def _q_html_block_stats(sf_dir: str):
    from libpdf_ray.ops.html import q_html_block_stats

    return q_html_block_stats(sf_dir)


def _q_main_content(sf_dir: str):
    """Readability-style span classification (heading/anchor/content/nav/
    main) over the extracted corpus — link-density DOM heuristics on the
    span model; hash-checked vs a DuckDB LEAD-window oracle."""
    from libpdf_ray.config import SMART_CROP_CONFIG
    from libpdf_ray.ops.boilerplate import main_content_labels
    from libpdf_ray.pipelines.extract import extract_spans, read_corpus

    return main_content_labels(
        extract_spans(read_corpus(_query_corpus()), SMART_CROP_CONFIG)
    )


def queries() -> dict[str, Callable[[str], Any]]:
    from libpdf_ray.ops import corpus as Co
    from libpdf_ray.ops import relational as R
    from libpdf_ray.ops import search as S
    from libpdf_ray.ops import text as T
    from libpdf_ray.ops.util import tune_data_context

    tune_data_context()

    return {
        # ---- round-5 rotation: the 23 oracle queries the driver's capped
        # CORRECTNESS snapshots (r1-r4 stopped at 50) have never
        # hash-checked come FIRST, so CORRECTNESS_r05 ∪ {r1-r4} covers
        # every oracle query at least once (round-4 verdict, next #8) ----
        # HTML main-content extraction (north rule: "HTML boilerplate
        # strip … DOM heuristics"); renderer-as-oracle — extraction must
        # invert the deterministic page chrome exactly
        "html_main_text": _q_html_main_text,
        "html_block_stats": _q_html_block_stats,
        "elements": _q_elements,
        "file_meta": _q_file_meta,
        "pages": _q_pages,
        "cells": _q_cells,
        "links": _q_links,
        "text_styles": _q_text_styles,
        "rect_styles": _q_rect_styles,
        "boilerplate": _q_boilerplate,
        "main_content": _q_main_content,
        "vocab_stats": Co.q_vocab_stats,
        "repetition_stats": Co.q_repetition_stats,
        "hash_sample": Co.q_hash_sample,
        "decontaminate": Co.q_decontaminate,
        "customers_no_orders": Co.q_customers_no_orders,
        "source_sample": Co.q_source_sample,
        "weighted_sample": Co.q_weighted_sample,
        "sample_overlap": Co.q_sample_overlap,
        "window_dedup": Co.q_window_dedup,
        "doc_novelty": Co.q_doc_novelty,
        "chunk_docs": Co.q_chunk_docs,
        "mixture_sample": Co.q_mixture_sample,
        "group_topk": Co.q_group_topk,
        "ngram_topk": Co.q_ngram_topk,
        "pack_sequences": Co.q_pack_sequences,
        "pii_scrub": T.q_pii_scrub,
        "user_anomalies": R.q_user_anomalies,
        "bm25_search": S.q_bm25_search,
        "posting_lists": S.q_posting_lists,
        "tfidf_topk": S.q_tfidf_topk,
        "text_normalize": T.q_text_normalize,
        "sentence_stats": T.q_sentence_stats,
        "normalized_dedup": _q_normalized_dedup,
        "heavy_hitters": _q_heavy_hitters,
        "collocations": Co.q_collocations,
        "train_split": Co.q_train_split,
        "containment_pairs": _q_containment_pairs,
        "doc_length_percentiles": Co.q_doc_length_percentiles,
        "user_rolling_value": R.q_user_rolling_value,
        "trimmed_mean_price": R.q_trimmed_mean_price,
        "source_drift": Co.q_source_drift,
        # relational operator suite (SQL-checked)
        "pricing_summary": R.q_pricing_summary,
        "top_customers": R.q_top_customers,
        "revenue_by_nation": R.q_revenue_by_nation,
        "supplier_region": R.q_supplier_region,
        "order_priority": R.q_order_priority,
        "parts_by_brand": R.q_parts_by_brand,
        "events_hourly": R.q_events_hourly,
        "events_sessions": R.q_events_sessions,
        "events_sliding": R.q_events_sliding,
        "distinct_parts": R.q_distinct_parts,
        "filter_topk": R.q_filter_topk,
        "priority_revenue": R.q_priority_revenue,
        "shipping_priority": R.q_shipping_priority,
        "top_event_per_user": R.q_top_event_per_user,
        "user_gaps": R.q_user_gaps,
        "events_asof_join": R.q_events_asof_join,
        "events_range_join": R.q_events_range_join,
        "median_order_price": R.q_median_order_price,
        "order_price_p95": R.q_order_price_p95,
        "revenue_rollup": R.q_revenue_rollup,
        "user_running_value": R.q_user_running_value,
        "customer_order_counts": R.q_customer_order_counts,
        "value_histogram": R.q_value_histogram,
        "user_activity_outer": R.q_user_activity_outer,
        "discount_tax_stats": R.q_discount_tax_stats,
        "events_weekday_pivot": R.q_events_weekday_pivot,
        "median_cont_order_price": R.q_median_cont_order_price,
        "user_funnel": R.q_user_funnel,
        "cohort_retention": R.q_cohort_retention,
        "event_transitions": R.q_event_transitions,
        "order_percentile_rank": R.q_order_percentile_rank,
        # documents / training-data ops (SQL-checked)
        "doc_stats": R.q_doc_stats,
        "token_counts": R.q_token_counts,
        "alpha_quality": R.q_alpha_quality,
        "exact_dedup": R.q_exact_dedup,
        "knn_bruteforce": R.q_knn,
        # extraction pipeline views (generator-as-oracle, SQL-checked)
        "extract_spans": _q_extract_spans,
        "span_kinds": _q_span_kinds,
        "media_meta": _q_media_meta,
        "langid_confusion": _q_langid,
        "quality_filter": _q_quality_filter,
        "fingerprints": _q_fingerprints,
        "simhash": _q_simhash,
        "simhash_pairs": _q_simhash_pairs,
        "jaccard_pairs": _q_jaccard_pairs,
        "minhash_verified_pairs": _q_minhash_verified_pairs,
        "neardup_clusters": _q_neardup_clusters,
        "dedup_docs": _q_dedup_docs,
        "knn_ivf_exact": _q_knn_ivf_exact,
        "text_spans": _q_text_spans,
        # ---- rows-only queries (no SQL oracle by nature) LAST, so a
        # driver snapshot cap lands on the oracle-bearing entries first ----
        "media_features": _q_media_features,
        "minhash_pairs": _q_minhash_pairs,
        "embedding_neardup": _q_embedding_neardup,
        "knn_ivf": _q_knn_ivf,
        "knn_ivf_partitioned": _q_knn_ivf_partitioned,
        "kmeans_clusters": _q_kmeans_clusters,
        "distinct_sketch": _q_distinct_sketch,
        "price_quantiles": _q_price_quantiles,
        # REAL-PDF extraction over the reference's own test corpus
        # (byte decoder → full layout pipeline; no SQL oracle can parse
        # PDF bytes — parity is pinned by tests/test_pdf_bytes.py against
        # the reference's own test assertions)
        "pdf_spans": _q_pdf_spans,
        "pdf_file_meta": _q_pdf_file_meta,
    }


def _range_join_sql() -> str:
    """Interval-overlap join oracle sharing the engine's literal window
    table (``relational.PROMO_WINDOWS`` is the single source of truth)."""
    from libpdf_ray.ops import relational as R

    values = ",\n                ".join(
        f"({wid}, TIMESTAMP '{lo}', TIMESTAMP '{hi}')"
        for wid, lo, hi in R.PROMO_WINDOWS
    )
    return f"""
        WITH windows(window_id, w_start, w_end) AS (
            VALUES {values}
        )
        SELECT CAST(w.window_id AS BIGINT) AS window_id,
               CAST(COUNT(*) AS BIGINT) AS n_events,
               CAST(SUM(CAST(round(e.value*100) AS BIGINT)) AS BIGINT)/100.0
                   AS total_value
        FROM events e
        JOIN windows w ON e.ts >= w.w_start AND e.ts < w.w_end
        GROUP BY 1
    """


def oracle_sql() -> dict[str, str]:
    # the extraction-view oracles read the synthetic corpus parquet directly
    # (generator-as-oracle expected_* columns); make sure it exists even if
    # the driver evaluates SQL before running the Ray queries
    corpus = f"{_query_corpus()}/part-*.parquet"

    # FNV-1a 64 fold over one 16-byte window, generated as a 16-level nested
    # expression (HUGEINT wrap-around via % 2^64).  The corpus is pure ASCII
    # (guarded in tests) so utf-8 bytes == code points and ord(substr(..))
    # is exactly the byte the engine folds (ops/text.py:rolling_fingerprint).
    fnv = "14695981039346656037::HUGEINT"
    for _j in range(16):
        fnv = (
            f"((xor({fnv}, ord(substr(text, s + {_j}, 1))::HUGEINT))"
            f" * 1099511628211::HUGEINT) % 18446744073709551616::HUGEINT"
        )

    # shared by jaccard_pairs (exact all-pairs join) and
    # minhash_verified_pairs (LSH candidates + exact verify): with 64 bands
    # × 2 rows the LSH recall at threshold 0.5 is 1 − 1e-8 per pair, so both
    # engines must produce THIS exact result
    jaccard_sql = """
        -- exact word-trigram Jaccard ≥ 0.5; threshold in INTEGERS
        -- (inter·10000 ≥ 5000·uni) to match the engine bit-for-bit
        WITH ws AS (
            SELECT doc_id,
                   CASE WHEN trim(text) = '' THEN CAST([] AS VARCHAR[])
                        ELSE regexp_split_to_array(trim(text), '\\s+')
                   END AS w
            FROM documents
        ),
        g AS (
            SELECT doc_id, unnest(list_distinct(
                CASE WHEN len(w) >= 3 THEN
                         list_transform(range(1, len(w) - 1),
                             i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])
                     WHEN len(w) > 0 THEN [array_to_string(w, ' ')]
                     ELSE CAST([] AS VARCHAR[]) END)) AS gram
            FROM ws
        ),
        sz AS (SELECT doc_id, COUNT(*) AS n FROM g GROUP BY 1),
        inter AS (
            SELECT a.doc_id AS id_a, b.doc_id AS id_b, COUNT(*) AS c
            FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id
            GROUP BY 1, 2
        )
        SELECT i.id_a, i.id_b,
               CAST(i.c AS BIGINT) AS inter,
               CAST(sa.n + sb.n - i.c AS BIGINT) AS uni,
               i.c * 1.0 / (sa.n + sb.n - i.c) AS jaccard
        FROM inter i
        JOIN sz sa ON sa.doc_id = i.id_a
        JOIN sz sb ON sb.doc_id = i.id_b
        WHERE i.c * 10000 >= 5000 * (sa.n + sb.n - i.c)
    """

    # shared by knn_bruteforce and knn_ivf_exact (n_probe = n_cells probes
    # every cell, so IVF degenerates to exact brute force)
    knn_sql = """
        WITH q AS (
            SELECT vec_id AS query_id, embedding AS qe
            FROM embeddings WHERE vec_id < 8
        ),
        s AS (
            SELECT q.query_id, e.vec_id AS neighbor_id,
                   list_cosine_similarity(CAST(q.qe AS DOUBLE[]),
                                          CAST(e.embedding AS DOUBLE[])) AS sim_raw
            FROM q CROSS JOIN embeddings e
            WHERE e.vec_id <> q.query_id
        )
        SELECT query_id, neighbor_id, ROUND(sim_raw, 4) AS sim
        FROM (
            SELECT *, row_number() OVER (
                PARTITION BY query_id ORDER BY sim_raw DESC, neighbor_id
            ) AS rn
            FROM s
        )
        WHERE rn <= 5
    """

    return {
        # --- HTML main-content extraction (renderer-as-oracle): the DOM
        # extractor must strip every piece of injected chrome and recover
        # the source text exactly, so the oracle is a plain projection ---
        "html_main_text": """
            SELECT doc_id, text AS main_text,
                   trim(substr(text, 1, 40)) AS title
            FROM documents
        """,
        "html_block_stats": """
            SELECT source,
                   CAST(COUNT(*) AS BIGINT) AS n_docs,
                   CAST(SUM(CASE WHEN trim(text) = '' THEN 0
                            ELSE length(trim(text))
                                 - length(replace(trim(text), ' ', '')) + 1
                            END) AS BIGINT) AS total_words
            FROM documents
            GROUP BY source
        """,
        # --- extraction views: hash-checked against the generator oracle ---
        "extract_spans": f"""
            SELECT doc_id, unnest(expected_spans, recursive := true)
            FROM read_parquet('{corpus}')
        """,
        "main_content": f"""
            -- readability-style span labels: LEAD window for the
            -- next-span link-density rule, same token split as the engine
            WITH sp AS (
                SELECT doc_id, unnest(expected_spans, recursive := true)
                FROM read_parquet('{corpus}')
            ),
            nx AS (
                SELECT doc_id, "offset", kind, text,
                       LEAD(kind) OVER (
                           PARTITION BY doc_id ORDER BY "offset"
                       ) AS next_kind
                FROM sp
            )
            SELECT doc_id, "offset", kind,
                   CASE WHEN kind = 'chapter' THEN 'heading'
                        WHEN kind = 'link' THEN 'anchor'
                        WHEN kind IN ('table', 'figure', 'rect')
                             THEN 'content'
                        WHEN len(list_filter(
                                 regexp_split_to_array(text, '\\s+'),
                                 x -> x <> '')) < 5
                             AND next_kind = 'link' THEN 'nav'
                        ELSE 'main' END AS label
            FROM nx
        """,
        "minhash_verified_pairs": jaccard_sql,
        "knn_ivf_exact": knn_sql,
        "media_meta": f"""
            -- the stub decode derives width/height/mean-RGB from
            -- md5(media_ref) (ops/multimodal.py:_fake_decode); DuckDB
            -- reproduces it hex-digit for hex-digit, so the whole
            -- multimodal plumbing is hash-gated
            WITH sp AS (
                SELECT doc_id, unnest(expected_spans, recursive := true)
                FROM read_parquet('{corpus}')
            ),
            m AS (
                SELECT doc_id, media_ref, md5(media_ref) AS h
                FROM sp WHERE kind = 'figure' AND media_ref <> ''
            )
            SELECT doc_id, media_ref,
                   CAST(64 + CAST(('0x' || substr(h, 1, 2)) AS INTEGER) * 8
                        AS BIGINT) AS media_width,
                   CAST(64 + CAST(('0x' || substr(h, 3, 2)) AS INTEGER) * 8
                        AS BIGINT) AS media_height,
                   CAST(('0x' || substr(h, 5, 2)) AS INTEGER) / 255.0 AS mean_r,
                   CAST(('0x' || substr(h, 7, 2)) AS INTEGER) / 255.0 AS mean_g,
                   CAST(('0x' || substr(h, 9, 2)) AS INTEGER) / 255.0 AS mean_b
            FROM m
        """,
        "span_kinds": f"""
            SELECT kind, CAST(COUNT(*) AS BIGINT) AS n_spans
            FROM (
                SELECT unnest(expected_spans, recursive := true)
                FROM read_parquet('{corpus}')
            )
            GROUP BY kind
        """,
        "pages": f"""
            -- obj_id is a raw-sidecar internal (annot dest resolution);
            -- the Page surface is number/width/height (models/page.py)
            SELECT doc_id, p.number AS number, p.width AS width,
                   p.height AS height
            FROM (
                SELECT doc_id, unnest(pages) AS p
                FROM read_parquet('{corpus}')
            )
        """,
        "file_meta": f"""
            SELECT doc_id,
                   regexp_replace(doc_id, '[^0-9a-zA-Z_]', '_', 'g') AS file_identifier,
                   meta.author AS author,
                   meta.title AS title,
                   meta.subject AS subject,
                   meta.creator AS creator,
                   meta.producer AS producer,
                   meta.keywords AS keywords,
                   meta.creation_date AS creation_date,
                   meta.modified_date AS modified_date,
                   meta.trapped AS trapped,
                   CAST(len(pages) AS INTEGER) AS n_pages
            FROM read_parquet('{corpus}')
        """,
        "cells": f"""
            SELECT doc_id, unnest(expected_cells, recursive := true)
            FROM read_parquet('{corpus}')
        """,
        "links": f"""
            SELECT doc_id, unnest(expected_links, recursive := true)
            FROM read_parquet('{corpus}')
        """,
        "elements": f"""
            SELECT doc_id, unnest(expected_elements, recursive := true)
            FROM read_parquet('{corpus}')
        """,
        "text_styles": f"""
            SELECT doc_id, unnest(expected_text_styles, recursive := true)
            FROM read_parquet('{corpus}')
        """,
        "rect_styles": f"""
            SELECT doc_id, unnest(expected_rect_styles, recursive := true)
            FROM read_parquet('{corpus}')
        """,
        "pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   CAST(SUM(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty,
                   CAST(SUM(CAST(round(l_extendedprice*100) AS BIGINT)) AS BIGINT)/100.0 AS sum_base_price,
                   CAST(SUM(CAST(round(l_extendedprice*100) AS BIGINT)
                        * (100 - CAST(round(l_discount*100) AS BIGINT))) AS BIGINT)/10000.0 AS sum_disc_price,
                   CAST(SUM(CAST(round(l_extendedprice*100) AS BIGINT)
                        * (100 - CAST(round(l_discount*100) AS BIGINT))
                        * (100 + CAST(round(l_tax*100) AS BIGINT))) AS BIGINT)/1000000.0 AS sum_charge,
                   CAST(SUM(CAST(round(l_quantity) AS BIGINT)) AS BIGINT)*1.0/COUNT(*) AS avg_qty,
                   CAST(SUM(CAST(round(l_extendedprice*100) AS BIGINT)) AS BIGINT)/100.0/COUNT(*) AS avg_price,
                   CAST(SUM(CAST(round(l_discount*100) AS BIGINT)) AS BIGINT)/100.0/COUNT(*) AS avg_disc,
                   CAST(COUNT(*) AS BIGINT) AS count_order
            FROM lineitem
            WHERE l_shipdate <= TIMESTAMP '2000-01-01'
            GROUP BY l_returnflag, l_linestatus
        """,
        "top_customers": """
            SELECT o.o_custkey AS c_custkey, c.c_name,
                   CAST(SUM(CAST(round(o.o_totalprice*100) AS BIGINT)) AS BIGINT)/100.0 AS total_spent,
                   CAST(COUNT(*) AS BIGINT) AS n_orders
            FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey
            GROUP BY 1, 2
            ORDER BY total_spent DESC, c_custkey
            LIMIT 10
        """,
        "revenue_by_nation": """
            SELECT n.n_name,
                   CAST(COUNT(*) AS BIGINT) AS n_orders,
                   CAST(SUM(CAST(round(o.o_totalprice*100) AS BIGINT)) AS BIGINT)/100.0 AS revenue
            FROM orders o
            JOIN customer c ON c.c_custkey = o.o_custkey
            JOIN nation n ON n.n_nationkey = c.c_nationkey
            GROUP BY 1
        """,
        "supplier_region": """
            SELECT r.r_name,
                   CAST(COUNT(*) AS BIGINT) AS n_suppliers,
                   CAST(SUM(CAST(round(s.s_acctbal*100) AS BIGINT)) AS BIGINT)/100.0 AS total_acctbal
            FROM supplier s
            JOIN nation n ON n.n_nationkey = s.s_nationkey
            JOIN region r ON r.r_regionkey = n.n_regionkey
            GROUP BY 1
        """,
        "order_priority": """
            SELECT o_orderpriority, CAST(COUNT(*) AS BIGINT) AS n_orders
            FROM orders
            WHERE o_orderdate >= TIMESTAMP '1996-01-01'
              AND o_orderdate < TIMESTAMP '1997-01-01'
            GROUP BY 1
        """,
        "parts_by_brand": """
            SELECT p_brand,
                   CAST(COUNT(*) AS BIGINT) AS n_parts,
                   CAST(SUM(p_size) AS BIGINT) AS total_size,
                   CAST(SUM(CAST(round(p_retailprice*100) AS BIGINT)) AS BIGINT)/100.0 AS total_retail
            FROM part GROUP BY 1
        """,
        "events_hourly": """
            SELECT event_type,
                   CAST(floor(epoch(ts)/3600) AS BIGINT) AS hour_bucket,
                   CAST(COUNT(*) AS BIGINT) AS n_events,
                   CAST(SUM(CAST(round(value*100) AS BIGINT)) AS BIGINT)/100.0 AS total_value
            FROM events GROUP BY 1, 2
        """,
        "events_sliding": """
            SELECT event_type,
                   CAST(floor(epoch(ts)/3600) AS BIGINT) - o.off AS window_hour,
                   CAST(COUNT(*) AS BIGINT) AS n_events
            FROM events CROSS JOIN (VALUES (0), (1)) AS o(off)
            GROUP BY 1, 2
        """,
        "events_sessions": """
            SELECT user_id,
                   CAST(COUNT(*) AS BIGINT) AS n_events,
                   CAST(1 + SUM(CASE WHEN gap > 1800 THEN 1 ELSE 0 END) AS BIGINT) AS n_sessions
            FROM (
                SELECT user_id,
                       epoch(ts) - lag(epoch(ts)) OVER (PARTITION BY user_id ORDER BY ts) AS gap
                FROM events
            )
            GROUP BY user_id
        """,
        "shipping_priority": """
            SELECT l.l_orderkey, o.o_orderdate,
                   CAST(SUM(CAST(round(l.l_extendedprice*100) AS BIGINT)
                        * (100 - CAST(round(l.l_discount*100) AS BIGINT))) AS BIGINT)/10000.0 AS revenue
            FROM customer c
            JOIN orders o ON o.o_custkey = c.c_custkey
            JOIN lineitem l ON l.l_orderkey = o.o_orderkey
            WHERE c.c_mktsegment = 'BUILDING'
              AND o.o_orderdate < TIMESTAMP '1998-01-01'
              AND l.l_shipdate > TIMESTAMP '1998-01-01'
            GROUP BY 1, 2
            ORDER BY revenue DESC, o_orderdate, l_orderkey
            LIMIT 10
        """,
        "priority_revenue": """
            SELECT o.o_orderpriority,
                   CAST(SUM(CAST(round(l.l_extendedprice*100) AS BIGINT)
                        * (100 - CAST(round(l.l_discount*100) AS BIGINT))) AS BIGINT)/10000.0 AS revenue,
                   CAST(COUNT(*) AS BIGINT) AS n_items
            FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
            GROUP BY 1
        """,
        "top_event_per_user": """
            SELECT user_id, event_id, value
            FROM (
                SELECT user_id, event_id, value,
                       row_number() OVER (
                           PARTITION BY user_id ORDER BY value DESC, event_id
                       ) AS rn
                FROM events
            )
            WHERE rn = 1
        """,
        "events_asof_join": """
            SELECT e.event_id, e.user_id, o.o_orderdate AS last_order_date
            FROM events e ASOF LEFT JOIN orders o
              ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
        """,
        "events_range_join": _range_join_sql(),
        "user_gaps": """
            SELECT user_id,
                   CAST(COUNT(*) AS BIGINT) AS n_gaps,
                   CAST(SUM(gap) AS BIGINT) AS total_gap_us,
                   CAST(MAX(gap) AS BIGINT) AS max_gap_us
            FROM (
                SELECT user_id,
                       epoch_us(ts) - lag(epoch_us(ts)) OVER (
                           PARTITION BY user_id ORDER BY ts
                       ) AS gap
                FROM events
            )
            WHERE gap IS NOT NULL
            GROUP BY user_id
        """,
        "distinct_parts": """
            SELECT l_returnflag, CAST(COUNT(DISTINCT l_partkey) AS BIGINT) AS n_parts
            FROM lineitem GROUP BY 1
        """,
        "filter_topk": """
            SELECT l_orderkey, CAST(l_linenumber AS BIGINT) AS l_linenumber,
                   l_extendedprice AS price
            FROM lineitem
            WHERE l_discount >= 0.05 AND l_shipdate >= TIMESTAMP '1997-01-01'
            ORDER BY price DESC, l_orderkey, l_linenumber
            LIMIT 15
        """,
        "doc_stats": """
            SELECT lang,
                   CAST(COUNT(*) AS BIGINT) AS n_docs,
                   CAST(SUM(n_chars) AS BIGINT) AS total_chars,
                   CAST(SUM(n_chars) AS BIGINT)*1.0/COUNT(*) AS avg_chars
            FROM documents GROUP BY 1
        """,
        "token_counts": """
            SELECT lang,
                   CAST(SUM(CASE WHEN trim(text) = '' THEN 0
                        ELSE array_length(string_split_regex(trim(text), '\\s+')) END) AS BIGINT) AS total_tokens,
                   CAST(COUNT(*) AS BIGINT) AS n_docs
            FROM documents GROUP BY 1
        """,
        "alpha_quality": """
            SELECT source,
                   CAST(SUM(length(regexp_replace(text, '[^A-Za-z]', '', 'g'))) AS BIGINT) AS alpha_chars,
                   CAST(SUM(length(text)) AS BIGINT) AS total_chars,
                   CAST(SUM(length(regexp_replace(text, '[^A-Za-z]', '', 'g'))) AS BIGINT)*1.0
                       / SUM(length(text)) AS alpha_ratio
            FROM documents GROUP BY 1
        """,
        "boilerplate": f"""
            -- corpus boilerplate summary parity: a paragraph text is hot
            -- when distinct docs containing it >= max(5, trunc(0.5 * total
            -- docs)); md5 is collision-free here so distinct texts stand in
            -- for distinct hashes (ops/boilerplate.py:find_boilerplate_hashes)
            WITH sp AS (
                SELECT doc_id, unnest(expected_spans, recursive := true)
                FROM read_parquet('{corpus}')
            ),
            tot AS (SELECT COUNT(DISTINCT doc_id) AS n_docs FROM sp),
            freq AS (
                SELECT text, COUNT(DISTINCT doc_id) AS nd
                FROM sp WHERE kind = 'paragraph' AND text <> ''
                GROUP BY text
            )
            SELECT
                CAST((SELECT COUNT(*) FROM freq, tot
                      WHERE nd >= greatest(5, CAST(trunc(0.5 * tot.n_docs)
                                                   AS BIGINT))) AS BIGINT)
                    AS n_boilerplate_texts,
                CAST((SELECT n_docs FROM tot) AS BIGINT) AS corpus_docs
        """,
        "text_spans": """
            -- text_source segmentation parity: no document here contains a
            -- blank line (guarded by the corpus shape), so segmentation is
            -- the fixed 50-word-window branch of segment_text
            WITH w AS (
                SELECT CAST(doc_id AS VARCHAR) AS doc_id,
                       regexp_split_to_array(trim(text), '\\s+') AS ws
                FROM documents WHERE trim(text) <> ''
            ),
            seg AS (
                SELECT doc_id, ws,
                       unnest(range(0, len(ws), 50)) AS woff
                FROM w
            )
            SELECT doc_id,
                   'paragraph' AS kind,
                   array_to_string(ws[woff + 1 : woff + 50], ' ') AS text,
                   '' AS media_ref,
                   CAST(woff / 50 AS INTEGER) AS "offset",
                   CAST(CAST(ceil(len(ws) / 50.0) AS BIGINT) AS INTEGER)
                       AS n_spans
            FROM seg
        """,
        "fingerprints": f"""
            -- rolling min-FNV document fingerprint, bit-exact: windows of 16
            -- bytes at stride 8 (every text here is > 16 bytes — the short-
            -- text whole-string branch is unreachable and unmodeled), min
            -- over window hashes, rendered as the engine's %016x hex string
            WITH sw AS (
                SELECT doc_id, text,
                       unnest(range(1, length(text) - 14, 8)) AS s
                FROM documents
            ),
            h AS (SELECT doc_id, {fnv} AS hv FROM sw)
            SELECT doc_id,
                   lpad(lower(to_hex(CAST(min(hv) AS UBIGINT))), 16, '0')
                       AS fingerprint
            FROM h GROUP BY doc_id
        """,
        "quality_filter": """
            -- QualityScorer parity: q_tokens = count of \\S+ runs,
            -- mean token length = sum(len)/n (one double division, same
            -- operands both sides → bit-identical), keep = n>=5 and
            -- 2.0 <= mean <= 12.0 (ops/text.py:QualityScorer)
            WITH m AS (
                SELECT lang,
                       len(regexp_split_to_array(trim(text), '\\s+')) AS n_tok,
                       list_sum(list_transform(
                           regexp_split_to_array(trim(text), '\\s+'),
                           x -> length(x))) AS sum_len
                FROM documents
                WHERE trim(text) <> ''
                UNION ALL
                SELECT lang, 0, 0 FROM documents WHERE trim(text) = ''
            )
            SELECT lang,
                   CAST(SUM(CASE WHEN n_tok >= 5
                                  AND sum_len * 1.0 / n_tok >= 2.0
                                  AND sum_len * 1.0 / n_tok <= 12.0
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_kept,
                   CAST(COUNT(*) AS BIGINT) AS n_docs
            FROM m GROUP BY lang
        """,
        "langid_confusion": """
            -- LangIdModel parity (ops/text.py): the corpus is pure ASCII
            -- (asserted in tests), so the unicode word regex [^\\W\\d_]+
            -- degenerates to [a-z]+ over lower(text) and the CJK branch
            -- never fires.  Winner = first lang in (en,de,fr,es) order with
            -- max stopword hits; no hits at all → 'en'; no words → 'und'.
            WITH h AS (
                SELECT lang,
                    len(regexp_extract_all(lower(text), '[a-z]+')) AS n_w,
                    len(list_filter(regexp_extract_all(lower(text), '[a-z]+'),
                        x -> x IN ('the','and','of','to','a','in','is','for','on','with'))) AS h_en,
                    len(list_filter(regexp_extract_all(lower(text), '[a-z]+'),
                        x -> x IN ('der','die','das','und','ist','von','mit','für','auf','ein'))) AS h_de,
                    len(list_filter(regexp_extract_all(lower(text), '[a-z]+'),
                        x -> x IN ('le','la','les','et','de','un','une','est','pour','dans'))) AS h_fr,
                    len(list_filter(regexp_extract_all(lower(text), '[a-z]+'),
                        x -> x IN ('el','la','los','y','de','un','una','es','para','en'))) AS h_es
                FROM documents
            ),
            p AS (
                SELECT lang,
                       CASE WHEN n_w = 0 THEN 'und'
                            WHEN greatest(h_en, h_de, h_fr, h_es) = 0 THEN 'en'
                            WHEN h_en >= h_de AND h_en >= h_fr AND h_en >= h_es THEN 'en'
                            WHEN h_de >= h_fr AND h_de >= h_es THEN 'de'
                            WHEN h_fr >= h_es THEN 'fr'
                            ELSE 'es' END AS lang_pred
                FROM h
            )
            SELECT lang, lang_pred, CAST(COUNT(*) AS BIGINT) AS n_docs
            FROM p GROUP BY lang, lang_pred
        """,
        "exact_dedup": """
            SELECT md5(text) AS content_hash,
                   CAST(MIN(doc_id) AS BIGINT) AS keep_id,
                   CAST(COUNT(*) AS BIGINT) AS n_copies
            FROM documents GROUP BY 1
        """,
        "jaccard_pairs": jaccard_sql,
        "neardup_clusters": """
            -- transitive closure of the jaccard_pairs graph: min-reachable-id
            -- labeling via recursive CTE (engine: iterated min-label
            -- propagation, ops/graph.py)
            WITH RECURSIVE ws AS (
                SELECT doc_id,
                       CASE WHEN trim(text) = '' THEN CAST([] AS VARCHAR[])
                            ELSE regexp_split_to_array(trim(text), '\\s+')
                       END AS w
                FROM documents
            ),
            g AS (
                SELECT doc_id, unnest(list_distinct(
                    CASE WHEN len(w) >= 3 THEN
                             list_transform(range(1, len(w) - 1),
                                 i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])
                         WHEN len(w) > 0 THEN [array_to_string(w, ' ')]
                         ELSE CAST([] AS VARCHAR[]) END)) AS gram
                FROM ws
            ),
            sz AS (SELECT doc_id, COUNT(*) AS n FROM g GROUP BY 1),
            inter AS (
                SELECT a.doc_id AS id_a, b.doc_id AS id_b, COUNT(*) AS c
                FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id
                GROUP BY 1, 2
            ),
            pairs AS (
                SELECT i.id_a, i.id_b
                FROM inter i
                JOIN sz sa ON sa.doc_id = i.id_a
                JOIN sz sb ON sb.doc_id = i.id_b
                WHERE i.c * 10000 >= 5000 * (sa.n + sb.n - i.c)
            ),
            edges AS (
                SELECT id_a AS u, id_b AS v FROM pairs
                UNION ALL SELECT id_b, id_a FROM pairs
            ),
            reach AS (
                    SELECT u, u AS lbl FROM (SELECT DISTINCT u FROM edges)
                UNION
                    SELECT e.u, r.lbl FROM edges e JOIN reach r ON r.u = e.v
            )
            SELECT u AS doc_id, MIN(lbl) AS cluster_id FROM reach GROUP BY u
        """,
        "dedup_docs": """
            -- full dedup: cluster the jaccard_pairs graph transitively and
            -- keep only each cluster's min-id representative (plus every
            -- unclustered document)
            WITH RECURSIVE ws AS (
                SELECT doc_id,
                       CASE WHEN trim(text) = '' THEN CAST([] AS VARCHAR[])
                            ELSE regexp_split_to_array(trim(text), '\\s+')
                       END AS w
                FROM documents
            ),
            g AS (
                SELECT doc_id, unnest(list_distinct(
                    CASE WHEN len(w) >= 3 THEN
                             list_transform(range(1, len(w) - 1),
                                 i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])
                         WHEN len(w) > 0 THEN [array_to_string(w, ' ')]
                         ELSE CAST([] AS VARCHAR[]) END)) AS gram
                FROM ws
            ),
            sz AS (SELECT doc_id, COUNT(*) AS n FROM g GROUP BY 1),
            inter AS (
                SELECT a.doc_id AS id_a, b.doc_id AS id_b, COUNT(*) AS c
                FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id
                GROUP BY 1, 2
            ),
            pairs AS (
                SELECT i.id_a, i.id_b
                FROM inter i
                JOIN sz sa ON sa.doc_id = i.id_a
                JOIN sz sb ON sb.doc_id = i.id_b
                WHERE i.c * 10000 >= 5000 * (sa.n + sb.n - i.c)
            ),
            edges AS (
                SELECT id_a AS u, id_b AS v FROM pairs
                UNION ALL SELECT id_b, id_a FROM pairs
            ),
            reach AS (
                    SELECT u, u AS lbl FROM (SELECT DISTINCT u FROM edges)
                UNION
                    SELECT e.u, r.lbl FROM edges e JOIN reach r ON r.u = e.v
            ),
            clusters AS (
                SELECT u AS doc_id, MIN(lbl) AS cluster_id FROM reach GROUP BY u
            )
            SELECT d.doc_id, d.lang, d.source
            FROM documents d
            WHERE d.doc_id NOT IN (
                SELECT doc_id FROM clusters WHERE doc_id <> cluster_id
            )
        """,
        "knn_bruteforce": knn_sql,
        "simhash": r"""
            -- bit-exact 64-bit SimHash parity (ops/dedup.py:SimHasher):
            -- per whitespace token, the first 8 md5 digest bytes read as a
            -- LITTLE-endian uint64; output bit k set iff a strict majority
            -- of tokens carry bit k (ties -> 0); rendered as %016x hex.
            -- Duplicated tokens vote once per occurrence, same as the
            -- engine's per-token fold.
            WITH w AS (
                SELECT doc_id, CASE WHEN trim(text) = ''
                       THEN CAST([] AS VARCHAR[])
                       ELSE regexp_split_to_array(trim(text), '\s+')
                       END AS ws
                FROM documents
            ),
            tok AS (SELECT doc_id, unnest(ws) AS t FROM w),
            bits AS (
                SELECT doc_id, k,
                       (('0x' || substr(md5(t), 2*(k//8)+1, 2))::INT
                           >> (k % 8)) & 1 AS b
                FROM tok, unnest(generate_series(0, 63)) AS r(k)
            ),
            acc AS (
                SELECT doc_id, k, SUM(b) AS ones, COUNT(*) AS tcnt
                FROM bits GROUP BY 1, 2
            ),
            vals AS (
                SELECT doc_id,
                       SUM(CASE WHEN 2*ones > tcnt
                           THEN (1::UBIGINT << CAST(k AS INT))
                           ELSE 0::UBIGINT END) AS v
                FROM acc GROUP BY 1
            )
            SELECT d.doc_id,
                   lpad(lower(to_hex(COALESCE(v.v, 0::UBIGINT))), 16, '0')
                       AS simhash
            FROM documents d LEFT JOIN vals v USING (doc_id)
        """,
        "simhash_pairs": r"""
            -- exact Hamming-ball parity: the engine's pigeonhole banding
            -- (4 bands x 16 bits at max_hamming=3) has GUARANTEED recall —
            -- any pair within the ball shares an untouched band — and the
            -- popcount verify is exact, so the LSH output equals the full
            -- all-pairs Hamming-distance computation below
            WITH w AS (
                SELECT doc_id, CASE WHEN trim(text) = ''
                       THEN CAST([] AS VARCHAR[])
                       ELSE regexp_split_to_array(trim(text), '\s+')
                       END AS ws
                FROM documents
            ),
            tok AS (SELECT doc_id, unnest(ws) AS t FROM w),
            bits AS (
                SELECT doc_id, k,
                       (('0x' || substr(md5(t), 2*(k//8)+1, 2))::INT
                           >> (k % 8)) & 1 AS b
                FROM tok, unnest(generate_series(0, 63)) AS r(k)
            ),
            acc AS (
                SELECT doc_id, k, SUM(b) AS ones, COUNT(*) AS tcnt
                FROM bits GROUP BY 1, 2
            ),
            vals0 AS (
                SELECT doc_id,
                       SUM(CASE WHEN 2*ones > tcnt
                           THEN (1::UBIGINT << CAST(k AS INT))
                           ELSE 0::UBIGINT END) AS v
                FROM acc GROUP BY 1
            ),
            vals AS (
                SELECT d.doc_id, COALESCE(v.v, 0::UBIGINT) AS v
                FROM documents d LEFT JOIN vals0 v USING (doc_id)
            )
            SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                   CAST(bit_count(xor(a.v, b.v)) AS BIGINT) AS hamming
            FROM vals a JOIN vals b ON a.doc_id < b.doc_id
            WHERE bit_count(xor(a.v, b.v)) <= 3
        """,
        "median_order_price": """
            -- exact grouped median over integer cents (the engine builds a
            -- distributed histogram; percentile_disc(0.5) = first value at
            -- 1-based rank ceil(n/2) in both engines)
            SELECT o_orderpriority,
                   CAST(COUNT(*) AS BIGINT) AS n_orders,
                   percentile_disc(0.5) WITHIN GROUP (
                       ORDER BY CAST(round(o_totalprice * 100) AS BIGINT)
                   ) / 100.0 AS median_price
            FROM orders GROUP BY 1
        """,
        "revenue_rollup": """
            SELECT COALESCE(r.r_name, 'ALL') AS r_name,
                   COALESCE(n.n_name, 'ALL') AS n_name,
                   CAST(COUNT(*) AS BIGINT) AS n_orders,
                   CAST(SUM(CAST(round(o.o_totalprice * 100) AS BIGINT))
                        AS BIGINT) / 100.0 AS revenue
            FROM orders o
            JOIN customer c ON c.c_custkey = o.o_custkey
            JOIN nation n ON n.n_nationkey = c.c_nationkey
            JOIN region r ON r.r_regionkey = n.n_regionkey
            GROUP BY ROLLUP(r.r_name, n.n_name)
        """,
        # ---- corpus-curation suite (ops/corpus.py) -------------------
        # shared tokenizer: lower + split on [^a-z0-9]+, empties dropped
        # (DuckDB regexp_split_to_array == Python re.split, verified)
        "vocab_stats": """
            WITH toks AS (
                SELECT doc_id, unnest(list_filter(
                    regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                    x -> x <> '')) AS term
                FROM documents
            )
            SELECT term,
                   CAST(COUNT(*) AS BIGINT) AS tf,
                   CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df
            FROM toks GROUP BY term
            ORDER BY tf DESC, term LIMIT 50
        """,
        "repetition_stats": """
            WITH toks AS (
                SELECT doc_id, unnest(list_filter(
                    regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                    x -> x <> '')) AS term
                FROM documents
            ),
            pt AS (
                SELECT doc_id, term, COUNT(*) AS c FROM toks GROUP BY 1, 2
            ),
            g AS (
                SELECT doc_id,
                       CAST(SUM(c) AS BIGINT) AS n_tokens,
                       CAST(COUNT(*) AS BIGINT) AS n_distinct,
                       CAST(MAX(c) AS BIGINT) AS max_tf
                FROM pt GROUP BY 1
            )
            -- same integer operands through one double division as the
            -- engine → bit-identical dup_frac
            SELECT doc_id, n_tokens, n_distinct, max_tf,
                   CAST(n_tokens - n_distinct AS DOUBLE) / n_tokens AS dup_frac
            FROM g WHERE n_tokens > 0
        """,
        "hash_sample": """
            -- Knuth multiplicative hash on the 32-bit ring, exact integer
            -- math (HUGEINT avoids int64 overflow for large ids; the
            -- engine's uint64 wrap is congruent mod 2^32)
            SELECT doc_id, lang, source FROM documents
            WHERE (CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296 <
                  CASE WHEN source IN ('src0','src1','src2','src3','src4')
                       THEN 3221225472 ELSE 1073741824 END
        """,
        "decontaminate": """
            -- benchmark = the deterministic doc_id % 97 = 0 slice; a corpus
            -- doc is contaminated if it shares any word 4-gram with any
            -- benchmark doc; n_hits = distinct shared 4-grams
            WITH toks AS (
                SELECT doc_id, list_filter(
                    regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                    x -> x <> '') AS a
                FROM documents
            ),
            sh AS (
                SELECT doc_id, unnest(list_distinct(
                    CASE WHEN len(a) >= 4 THEN
                        list_transform(range(1, len(a) - 2),
                            i -> a[i] || ' ' || a[i+1] || ' ' || a[i+2]
                                 || ' ' || a[i+3])
                    ELSE CAST([] AS VARCHAR[]) END)) AS g
                FROM toks
            ),
            bench AS (SELECT DISTINCT g FROM sh WHERE doc_id % 97 = 0)
            SELECT s.doc_id, CAST(COUNT(DISTINCT s.g) AS BIGINT) AS n_hits
            FROM sh s JOIN bench b ON s.g = b.g
            WHERE s.doc_id % 97 <> 0
            GROUP BY s.doc_id
        """,
        "customers_no_orders": """
            SELECT c_custkey, c_name, c_acctbal FROM customer
            WHERE c_custkey NOT IN (
                SELECT o_custkey FROM orders
                WHERE o_orderdate >= DATE '2000-01-01'
            )
            ORDER BY c_acctbal DESC, c_custkey LIMIT 20
        """,
        "order_price_p95": """
            -- same exact-histogram machinery as median_order_price;
            -- percentile_disc(0.95) = first value at 1-based rank
            -- ceil(19n/20) in both engines
            SELECT o_orderpriority,
                   CAST(COUNT(*) AS BIGINT) AS n_orders,
                   percentile_disc(0.95) WITHIN GROUP (
                       ORDER BY CAST(round(o_totalprice * 100) AS BIGINT)
                   ) / 100.0 AS p95_price
            FROM orders GROUP BY 1
        """,
        "user_running_value": """
            -- cumulative window frame, integer-exact: the running sum
            -- accumulates cents and divides once per row in both engines
            SELECT event_id, user_id,
                   CAST(SUM(CAST(round(value * 100) AS BIGINT)) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                       ROWS UNBOUNDED PRECEDING
                   ) AS BIGINT) / 100.0 AS running_value
            FROM events
        """,
        "customer_order_counts": """
            -- LEFT OUTER join aggregate: zero-order customers kept with
            -- n_orders = 0 / total_spent = 0.0
            SELECT c.c_custkey, c.c_name,
                   CAST(COUNT(o.o_custkey) AS BIGINT) AS n_orders,
                   COALESCE(CAST(SUM(CAST(round(o.o_totalprice * 100)
                       AS BIGINT)) AS BIGINT), 0) / 100.0 AS total_spent
            FROM customer c
            LEFT JOIN (
                SELECT * FROM orders WHERE o_orderdate >= DATE '1998-01-01'
            ) o ON o.o_custkey = c.c_custkey
            GROUP BY c.c_custkey, c.c_name
        """,
        "value_histogram": """
            -- distributed $5-bucket histogram; floor of one exact double
            -- division per row, domain-keyed combine
            SELECT CAST(floor(CAST(round(value * 100) AS BIGINT) / 500.0)
                       AS BIGINT) AS bucket,
                   CAST(COUNT(*) AS BIGINT) AS n_events,
                   CAST(SUM(CAST(round(value * 100) AS BIGINT))
                       AS BIGINT) / 100.0 AS total_value
            FROM events GROUP BY 1
        """,
        "user_activity_outer": """
            -- FULL OUTER join: users with high-value purchases vs users
            -- with high-value errors; zeros fill the missing side
            WITH a AS (
                SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_purchases,
                       CAST(SUM(CAST(round(value * 100) AS BIGINT))
                           AS BIGINT) / 100.0 AS purchase_value
                FROM events WHERE event_type = 'purchase' AND value > 100
                GROUP BY 1
            ), b AS (
                SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_errors,
                       CAST(SUM(CAST(round(value * 100) AS BIGINT))
                           AS BIGINT) / 100.0 AS error_value
                FROM events WHERE event_type = 'error' AND value > 100
                GROUP BY 1
            )
            SELECT COALESCE(a.user_id, b.user_id) AS user_id,
                   COALESCE(a.n_purchases, 0) AS n_purchases,
                   COALESCE(a.purchase_value, 0) AS purchase_value,
                   COALESCE(b.n_errors, 0) AS n_errors,
                   COALESCE(b.error_value, 0) AS error_value
            FROM a FULL OUTER JOIN b ON a.user_id = b.user_id
        """,
        "order_percentile_rank": """
            -- cume_dist without a global sort: histogram → broadcast
            -- cumulative map → exact integer division per row
            SELECT o_orderkey,
                   cume_dist() OVER (
                       ORDER BY CAST(round(o_totalprice * 100) AS BIGINT)
                   ) AS price_pct
            FROM orders
        """,
        "event_transitions": """
            -- Markov bigrams via lag() per user stream
            WITH s AS (
                SELECT user_id, event_type AS next_type,
                       lag(event_type) OVER (
                           PARTITION BY user_id ORDER BY ts, event_id
                       ) AS prev_type
                FROM events
            )
            SELECT prev_type, next_type, CAST(COUNT(*) AS BIGINT) AS n
            FROM s WHERE prev_type IS NOT NULL GROUP BY 1, 2
        """,
        "cohort_retention": """
            -- retention triangle over integer epoch-us week buckets
            WITH a AS (
                SELECT DISTINCT user_id,
                       epoch_us(ts) // 604800000000 AS week
                FROM events
            ), f AS (SELECT user_id, MIN(week) w0 FROM a GROUP BY 1)
            SELECT CAST(f.w0 AS BIGINT) AS cohort_week,
                   CAST(a.week - f.w0 AS BIGINT) AS week_offset,
                   CAST(COUNT(*) AS BIGINT) AS n_users
            FROM a JOIN f ON f.user_id = a.user_id
            GROUP BY 1, 2
        """,
        "user_funnel": """
            -- windowed funnel: earliest view, first click within 24 h
            -- strictly after it, first purchase within 24 h after that
            WITH v AS (
                SELECT user_id, MIN(ts) t1 FROM events
                WHERE event_type = 'view' GROUP BY 1
            ), c AS (
                SELECT e.user_id, MIN(e.ts) t2 FROM events e
                JOIN v ON v.user_id = e.user_id AND e.ts > v.t1
                 AND epoch_us(e.ts) - epoch_us(v.t1) <= 86400000000
                WHERE e.event_type = 'click' GROUP BY 1
            ), p AS (
                SELECT e.user_id, MIN(e.ts) t3 FROM events e
                JOIN c ON c.user_id = e.user_id AND e.ts > c.t2
                 AND epoch_us(e.ts) - epoch_us(c.t2) <= 86400000000
                WHERE e.event_type = 'purchase' GROUP BY 1
            )
            SELECT u.user_id,
                   CAST((v.user_id IS NOT NULL)::INT
                        + (c.user_id IS NOT NULL)::INT
                        + (p.user_id IS NOT NULL)::INT AS BIGINT)
                       AS funnel_stage
            FROM (SELECT DISTINCT user_id FROM events) u
            LEFT JOIN v ON v.user_id = u.user_id
            LEFT JOIN c ON c.user_id = u.user_id
            LEFT JOIN p ON p.user_id = u.user_id
        """,
        "events_weekday_pivot": """
            -- PIVOT: long-form (type, isodow) aggregate reshaped wide;
            -- pandas dayofweek+1 == isodow (verified)
            SELECT event_type,
                   CAST(SUM(CASE WHEN isodow(ts)=1 THEN 1 ELSE 0 END) AS BIGINT) AS dow1,
                   CAST(SUM(CASE WHEN isodow(ts)=2 THEN 1 ELSE 0 END) AS BIGINT) AS dow2,
                   CAST(SUM(CASE WHEN isodow(ts)=3 THEN 1 ELSE 0 END) AS BIGINT) AS dow3,
                   CAST(SUM(CASE WHEN isodow(ts)=4 THEN 1 ELSE 0 END) AS BIGINT) AS dow4,
                   CAST(SUM(CASE WHEN isodow(ts)=5 THEN 1 ELSE 0 END) AS BIGINT) AS dow5,
                   CAST(SUM(CASE WHEN isodow(ts)=6 THEN 1 ELSE 0 END) AS BIGINT) AS dow6,
                   CAST(SUM(CASE WHEN isodow(ts)=7 THEN 1 ELSE 0 END) AS BIGINT) AS dow7
            FROM events GROUP BY event_type
        """,
        "median_cont_order_price": """
            -- interpolated median over integer cents: rank r = 0.5·(n−1),
            -- frac ∈ {0, 0.5} ⇒ exact double interpolation both engines
            SELECT o_orderpriority,
                   CAST(COUNT(*) AS BIGINT) AS n_orders,
                   percentile_cont(0.5) WITHIN GROUP (
                       ORDER BY CAST(round(o_totalprice * 100) AS BIGINT)
                   ) / 100.0 AS median_cont
            FROM orders GROUP BY 1
        """,
        "discount_tax_stats": """
            -- exact distributed second moments: HUGEINT partial sums,
            -- one CAST to double per output (mirrors the engine's python
            -- bigint finals — no float accumulation on either side)
            WITH p AS (
                SELECT CAST(round(l_discount * 100) AS HUGEINT) x,
                       CAST(round(l_tax * 100) AS HUGEINT) y
                FROM lineitem
            ), s AS (
                SELECT CAST(COUNT(*) AS HUGEINT) n, SUM(x) sx, SUM(y) sy,
                       SUM(x*x) sxx, SUM(y*y) syy, SUM(x*y) sxy
                FROM p
            )
            SELECT CAST(n AS BIGINT) AS n,
                   CAST(sx AS DOUBLE)/CAST(n AS DOUBLE)/100.0 AS avg_disc,
                   CAST(sy AS DOUBLE)/CAST(n AS DOUBLE)/100.0 AS avg_tax,
                   CAST(n*sxy - sx*sy AS DOUBLE)
                       / CAST(n*n*10000 AS DOUBLE) AS cov_pop,
                   CAST(n*sxx - sx*sx AS DOUBLE)
                       / CAST(n*n*10000 AS DOUBLE) AS var_disc,
                   CAST(n*syy - sy*sy AS DOUBLE)
                       / CAST(n*n*10000 AS DOUBLE) AS var_tax
            FROM s
        """,
        "sample_overlap": """
            -- set algebra (INTERSECT/EXCEPT) over predicate-defined doc
            -- sets; the engine fuses all three into one streaming mask
            SELECT doc_id, source FROM documents
            WHERE (CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296 <
                  CASE WHEN source IN ('src0','src1','src2','src3','src4')
                       THEN 3221225472 ELSE 1073741824 END
            INTERSECT
            SELECT doc_id, source FROM documents
            WHERE (CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296
                  < CAST(n_chars AS HUGEINT) * 4294967
            EXCEPT
            SELECT d.doc_id, d.source FROM documents d WHERE d.doc_id IN (
                WITH toks AS (
                    SELECT doc_id, list_filter(regexp_split_to_array(
                        lower(text), '[^a-z0-9]+'), x -> x <> '') AS a
                    FROM documents
                ), sh AS (
                    SELECT doc_id, unnest(list_distinct(
                        CASE WHEN len(a) >= 4 THEN
                            list_transform(range(1, len(a) - 2),
                                i -> a[i] || ' ' || a[i+1] || ' ' || a[i+2]
                                     || ' ' || a[i+3])
                        ELSE CAST([] AS VARCHAR[]) END)) AS g
                    FROM toks
                ), bench AS (SELECT DISTINCT g FROM sh WHERE doc_id % 97 = 0)
                SELECT DISTINCT s.doc_id FROM sh s
                JOIN bench b ON s.g = b.g WHERE s.doc_id % 97 <> 0
            )
        """,
        "weighted_sample": """
            -- length-weighted deterministic sample: keep prob ≈
            -- n_chars/1000 via the exact integer threshold
            -- knuth_hash(doc_id) < n_chars · (2^32 // 1000)
            SELECT doc_id, n_chars, lang FROM documents
            WHERE (CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296
                  < CAST(n_chars AS HUGEINT) * 4294967
        """,
        "window_dedup": """
            -- repeated 8-word windows across documents (md5-keyed; the
            -- window-granularity cross-doc dedup signal)
            WITH ws AS (
                SELECT doc_id, regexp_split_to_array(trim(text), '\\s+') AS w
                FROM documents WHERE trim(text) != ''
            ),
            g AS (
                SELECT doc_id, unnest(list_distinct(
                    list_transform(range(1, len(w) - 6),
                        i -> md5(array_to_string(w[i:i+7], ' '))))) AS h
                FROM ws WHERE len(w) >= 8
            )
            SELECT h, CAST(count(DISTINCT doc_id) AS BIGINT) AS n_docs
            FROM g GROUP BY 1 HAVING count(DISTINCT doc_id) >= 2
        """,
        "mixture_sample": """
            -- data-mixing sampler: per-source quotas k_i = floor(B*w_i/W)
            -- with budget B = min_j floor(n_j*W/w_j); picks are each
            -- source's smallest-Knuth-hash docs (ties by doc_id) — exact
            -- integers end-to-end, W=30, weights 3 for src0-4 else 1
            WITH counts AS (
                SELECT source, count(*) AS n FROM documents GROUP BY 1
            ),
            w AS (
                SELECT source, n,
                       CASE WHEN source IN ('src0','src1','src2','src3','src4')
                            THEN 3 ELSE 1 END AS wt
                FROM counts
            ),
            b AS (SELECT min(n * 30 // wt) AS budget FROM w),
            k AS (
                SELECT source, (SELECT budget FROM b) * wt // 30 AS k_src
                FROM w
            ),
            r AS (
                SELECT d.source, d.doc_id,
                       row_number() OVER (
                           PARTITION BY d.source
                           ORDER BY (CAST(d.doc_id AS HUGEINT) * 2654435761)
                                    % 4294967296, d.doc_id
                       ) AS rn
                FROM documents d
            )
            SELECT r.source, CAST(r.doc_id AS BIGINT) AS doc_id
            FROM r JOIN k ON r.source = k.source
            WHERE r.rn <= k.k_src
        """,
        "ngram_topk": """
            -- top-50 corpus bigrams by frequency (same tokenizer as
            -- vocab_stats; 1-indexed array windows)
            WITH t AS (
                SELECT doc_id, list_filter(
                    regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                    x -> x <> '') AS w
                FROM documents
            ),
            b AS (
                SELECT doc_id, w[i] || ' ' || w[i+1] AS gram
                FROM t, unnest(range(1, len(w))) AS r(i)
                WHERE len(w) >= 2
            )
            SELECT gram, CAST(count(*) AS BIGINT) AS tf,
                   CAST(count(DISTINCT doc_id) AS BIGINT) AS df
            FROM b GROUP BY 1 ORDER BY tf DESC, gram LIMIT 50
        """,
        "pack_sequences": """
            -- sequence packing: docs concatenated in doc_id order, cut
            -- into 4096-char bins; a doc belongs to its START offset's
            -- bin (engine: distributed two-pass ordered prefix-scan)
            WITH c AS (
                SELECT doc_id, n_chars,
                       sum(n_chars) OVER (
                           ORDER BY doc_id
                           ROWS BETWEEN UNBOUNDED PRECEDING
                               AND CURRENT ROW
                       ) - n_chars AS start_off
                FROM documents
            )
            SELECT CAST(start_off // 4096 AS BIGINT) AS bin,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS total_chars,
                   min(doc_id) AS first_doc,
                   max(doc_id) AS last_doc
            FROM c GROUP BY 1 ORDER BY bin
        """,
        "pii_scrub": """
            -- sequential PII redaction (email -> ipv4 -> phone), counts
            -- per step + md5 of the fully scrubbed text; the step order
            -- and pattern literals mirror ops/text.py PII_STEPS exactly
            WITH s1 AS (
                SELECT doc_id,
                       len(regexp_extract_all(text,
                           '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}'
                       )) AS n_email,
                       regexp_replace(text,
                           '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}',
                           '<EMAIL>', 'g') AS t
                FROM documents
            ), s2 AS (
                SELECT doc_id, n_email,
                       len(regexp_extract_all(t,
                           '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b'
                       )) AS n_ipv4,
                       regexp_replace(t,
                           '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b',
                           '<IP>', 'g') AS t
                FROM s1
            ), s3 AS (
                SELECT doc_id, n_email, n_ipv4,
                       len(regexp_extract_all(t,
                           '\\+?\\d[\\d\\- ]{7,}\\d')) AS n_phone,
                       regexp_replace(t, '\\+?\\d[\\d\\- ]{7,}\\d',
                           '<PHONE>', 'g') AS t
                FROM s2
            )
            SELECT doc_id, CAST(n_email AS BIGINT) AS n_email,
                   CAST(n_ipv4 AS BIGINT) AS n_ipv4,
                   CAST(n_phone AS BIGINT) AS n_phone,
                   md5(t) AS scrub_md5
            FROM s3
        """,
        "group_topk": """
            -- grouped window top-k: 3 longest docs per (lang, source),
            -- ties by doc_id — identical ordering rule as the engine
            SELECT lang, source, CAST(rn AS BIGINT) AS rank,
                   doc_id, n_chars
            FROM (
                SELECT lang, source, doc_id, n_chars,
                       row_number() OVER (
                           PARTITION BY lang, source
                           ORDER BY n_chars DESC, doc_id
                       ) AS rn
                FROM documents
            ) t WHERE rn <= 3
        """,
        "user_anomalies": """
            -- per-user 2-sigma outlier counts in exact integers:
            -- |x - mean| > 2*stddev  <=>  (n*x - S)^2 > 4*(n*Q - S^2)
            WITH r AS (
                SELECT user_id, CAST(round(value*100) AS BIGINT) AS x
                FROM events
            ),
            s AS (
                SELECT user_id, CAST(count(*) AS BIGINT) AS n,
                       SUM(x) AS sx, SUM(x*x) AS q
                FROM r GROUP BY 1
            )
            -- products in HUGEINT (int128): exact at any per-user
            -- volume, mirroring the engine's python-int escalation
            SELECT s.user_id, s.n AS n_events,
                   CAST(SUM(CASE WHEN
                        (CAST(s.n AS HUGEINT)*r.x - s.sx)
                          * (CAST(s.n AS HUGEINT)*r.x - s.sx)
                        > 4*(CAST(s.n AS HUGEINT)*s.q - CAST(s.sx AS HUGEINT)*s.sx)
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_anomalies
            FROM r JOIN s USING (user_id)
            GROUP BY 1, 2
        """,
        "chunk_docs": """
            -- fixed-size training chunks with overlap: k=64 tokens at
            -- stride 48; chunk count in exact integer arithmetic, final
            -- chunk may be short (same formula as the engine)
            WITH ws AS (
                SELECT doc_id, regexp_split_to_array(trim(text), '\\s+') AS w
                FROM documents WHERE trim(text) != ''
            ),
            n AS (
                SELECT doc_id, w, len(w) AS nw,
                       CASE WHEN len(w) <= 64 THEN 1
                            ELSE (len(w) - 64 + 47) // 48 + 1 END AS n_chunks
                FROM ws
            )
            SELECT doc_id,
                   CAST(i AS BIGINT) AS chunk_idx,
                   CAST(least(i * 48 + 64, nw) - i * 48 AS BIGINT)
                       AS n_tokens,
                   array_to_string(
                       w[i * 48 + 1 : least(i * 48 + 64, nw)], ' '
                   ) AS chunk_text
            FROM n, unnest(range(0, n_chunks)) AS t(i)
        """,
        "doc_novelty": """
            -- per-doc novelty: fraction of its distinct 8-word windows not
            -- shared with any other document; one double division, same
            -- operand order as the engine
            WITH ws AS (
                SELECT doc_id, regexp_split_to_array(trim(text), '\\s+') AS w
                FROM documents WHERE trim(text) != ''
            ),
            g AS (
                SELECT doc_id, unnest(list_distinct(
                    list_transform(range(1, len(w) - 6),
                        i -> md5(array_to_string(w[i:i+7], ' '))))) AS h
                FROM ws WHERE len(w) >= 8
            ),
            hot AS (
                SELECT h FROM g GROUP BY h HAVING count(DISTINCT doc_id) >= 2
            )
            SELECT doc_id,
                   CAST(count(*) AS BIGINT) AS n_windows,
                   CAST(sum(CASE WHEN h IN (SELECT h FROM hot)
                                 THEN 1 ELSE 0 END) AS BIGINT) AS n_shared,
                   (count(*) - sum(CASE WHEN h IN (SELECT h FROM hot)
                                        THEN 1 ELSE 0 END)) * 1.0
                       / count(*) AS novelty
            FROM g GROUP BY 1
        """,
        "source_sample": """
            -- deterministic per-source reservoir: 3 smallest Knuth-hash
            -- docs per source (exact integer hash, ties by doc_id)
            SELECT source, doc_id FROM (
                SELECT source, doc_id,
                    row_number() OVER (PARTITION BY source
                        ORDER BY (CAST(doc_id AS HUGEINT) * 2654435761)
                                 % 4294967296, doc_id) AS rn
                FROM documents) WHERE rn <= 3
        """,
        # ---- full-text search suite (ops/search.py) ------------------
        "bm25_search": """
            -- BM25 (k1 = 6/5, b = 3/4, raw-odds idf) reduced to exact
            -- int64 ratios — one double division per (doc, term) with
            -- operands identical to the engine's, summed in fixed term
            -- order (see ops/search.py module docstring)
            WITH tok AS (
                SELECT doc_id, unnest(regexp_split_to_array(lower(text),
                    '[^a-z0-9]+')) AS term
                FROM documents
            ), tok2 AS (SELECT * FROM tok WHERE term <> ''),
            tfs AS (
                SELECT doc_id,
                    SUM(CASE WHEN term='spark'  THEN 1 ELSE 0 END) AS tf_0,
                    SUM(CASE WHEN term='hash'   THEN 1 ELSE 0 END) AS tf_1,
                    SUM(CASE WHEN term='window' THEN 1 ELSE 0 END) AS tf_2,
                    SUM(CASE WHEN term='vector' THEN 1 ELSE 0 END) AS tf_3,
                    COUNT(*) AS dl
                FROM tok2 GROUP BY doc_id
            ),
            stats AS (
                SELECT (SELECT COUNT(*) FROM documents) AS n,
                       (SELECT COUNT(*) FROM tok2) AS L,
                       (SELECT COUNT(*) FROM tfs WHERE tf_0 > 0) AS df_0,
                       (SELECT COUNT(*) FROM tfs WHERE tf_1 > 0) AS df_1,
                       (SELECT COUNT(*) FROM tfs WHERE tf_2 > 0) AS df_2,
                       (SELECT COUNT(*) FROM tfs WHERE tf_3 > 0) AS df_3
            )
            SELECT t.doc_id,
              CAST(22*s.L*t.tf_0*(2*s.n-2*s.df_0+1) AS DOUBLE)
                / CAST((10*s.L*t.tf_0+3*s.L+9*t.dl*s.n)*(2*s.df_0+1) AS DOUBLE)
              + CAST(22*s.L*t.tf_1*(2*s.n-2*s.df_1+1) AS DOUBLE)
                / CAST((10*s.L*t.tf_1+3*s.L+9*t.dl*s.n)*(2*s.df_1+1) AS DOUBLE)
              + CAST(22*s.L*t.tf_2*(2*s.n-2*s.df_2+1) AS DOUBLE)
                / CAST((10*s.L*t.tf_2+3*s.L+9*t.dl*s.n)*(2*s.df_2+1) AS DOUBLE)
              + CAST(22*s.L*t.tf_3*(2*s.n-2*s.df_3+1) AS DOUBLE)
                / CAST((10*s.L*t.tf_3+3*s.L+9*t.dl*s.n)*(2*s.df_3+1) AS DOUBLE)
              AS score
            FROM tfs t, stats s
            WHERE t.tf_0 > 0 OR t.tf_1 > 0 OR t.tf_2 > 0 OR t.tf_3 > 0
            ORDER BY score DESC, t.doc_id LIMIT 20
        """,
        "posting_lists": """
            -- inverted index: sorted CSV postings == the engine's
            -- per-term sorted doc-id join
            WITH tok AS (
                SELECT DISTINCT doc_id, unnest(regexp_split_to_array(
                    lower(text), '[^a-z0-9]+')) AS term
                FROM documents
            )
            SELECT term, CAST(COUNT(*) AS BIGINT) AS df,
                   STRING_AGG(CAST(doc_id AS VARCHAR), ','
                       ORDER BY doc_id) AS postings
            FROM tok WHERE term <> '' GROUP BY term
        """,
        "tfidf_topk": """
            -- per-document top-3 TF-IDF keywords with the integer-exact
            -- idf (N * 1000000) // df (same scale constant as
            -- ops/search.py TFIDF_IDF_SCALE); ties by term ASC — a total
            -- order, so ranks are deterministic
            WITH tok AS (
                SELECT doc_id, unnest(list_filter(
                    regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                    x -> x <> '')) AS term
                FROM documents
            ),
            tf AS (
                SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) AS tf
                FROM tok GROUP BY 1, 2
            ),
            dfs AS (
                SELECT term, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df
                FROM tok GROUP BY 1
            ),
            n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM documents),
            scored AS (
                SELECT tf.doc_id, tf.term, tf.tf, dfs.df,
                       tf.tf * ((n.n * 1000000) // dfs.df) AS score
                FROM tf JOIN dfs USING (term) CROSS JOIN n
            ),
            ranked AS (
                SELECT *, ROW_NUMBER() OVER (
                    PARTITION BY doc_id
                    ORDER BY score DESC, term ASC) AS rank
                FROM scored
            )
            SELECT doc_id, CAST(rank AS BIGINT) AS rank, term, tf, df,
                   CAST(score AS BIGINT) AS score
            FROM ranked WHERE rank <= 3
        """,
        "text_normalize": """
            -- canonical normalization: NFC, whitespace-run collapse,
            -- edge trim — DuckDB's nfc_normalize/regexp_replace ride the
            -- same utf8proc/RE2 the engine's Arrow kernels use, so the
            -- md5 pins replacement semantics character-for-character
            WITH n AS (
                SELECT doc_id, text,
                       trim(regexp_replace(nfc_normalize(text),
                            '[ \\t\\n\\r\\f]+', ' ', 'g'), ' ') AS t
                FROM documents
            )
            SELECT doc_id,
                   CAST(length(t) AS BIGINT) AS norm_len,
                   CAST(t <> text AS BIGINT) AS changed,
                   md5(t) AS norm_md5
            FROM n
        """,
        "sentence_stats": """
            -- per-doc sentence metrics: split on terminal-punctuation
            -- runs, drop empty segments, count non-whitespace word runs;
            -- mean is the integer-exact (sum*100)//n.  Docs with no
            -- sentence emit no row (engine parity).
            WITH segs AS (
                SELECT doc_id, trim(unnest(regexp_split_to_array(
                    text, '[.!?]+')), ' ') AS seg
                FROM documents
            ),
            w AS (
                SELECT doc_id,
                       len(list_filter(regexp_split_to_array(
                           seg, '[ \\t\\n\\r\\f]+'), x -> x <> ''))
                           AS n_words
                FROM segs WHERE seg <> ''
            )
            SELECT doc_id,
                   CAST(COUNT(*) AS BIGINT) AS n_sentences,
                   CAST(SUM(n_words) AS BIGINT) AS n_words,
                   CAST((SUM(n_words) * 100) // COUNT(*) AS BIGINT)
                       AS mean_words_x100,
                   CAST(MAX(n_words) AS BIGINT) AS max_sentence_words
            FROM w GROUP BY doc_id
        """,
        "normalized_dedup": """
            -- exact dedup over the canonical (NFC + whitespace-collapsed
            -- + trimmed) text — same normalization chain as
            -- text_normalize, same keep-min-id stats as exact_dedup
            WITH n AS (
                SELECT doc_id,
                       trim(regexp_replace(nfc_normalize(text),
                            '[ \\t\\n\\r\\f]+', ' ', 'g'), ' ') AS t
                FROM documents
            )
            SELECT md5(t) AS content_hash,
                   CAST(MIN(doc_id) AS BIGINT) AS keep_id,
                   CAST(COUNT(*) AS BIGINT) AS n_copies
            FROM n GROUP BY 1
        """,
        "heavy_hitters": """
            -- EXACT heavy hitters: terms with frequency > N/(k+1), k=64
            -- (engine: Misra-Gries sketch pass + exact rescue count —
            -- the vocabulary never shuffles; same integer filter here)
            WITH tok AS (
                SELECT unnest(list_filter(
                    regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                    x -> x <> '')) AS term
                FROM documents
            ),
            tot AS (SELECT COUNT(*) AS n FROM tok)
            SELECT term, CAST(COUNT(*) AS BIGINT) AS cnt
            FROM tok, tot GROUP BY term, tot.n
            HAVING COUNT(*) * 65 > tot.n
        """,
        "collocations": """
            -- top-30 bigram collocations by integer-scaled PMI
            -- (c_xy*N*SCALE)//(c_x*c_y), min_count 5 — HUGEINT holds the
            -- product exactly, same floor division as the engine's
            -- python-int scoring (ops/corpus.py COLLOC_* constants)
            WITH t AS (
                SELECT doc_id, list_filter(
                    regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                    x -> x <> '') AS w
                FROM documents
            ),
            tok AS (SELECT unnest(w) AS term FROM t),
            uni AS (SELECT term, COUNT(*) AS c FROM tok GROUP BY 1),
            n AS (SELECT COUNT(*) AS n FROM tok),
            b AS (
                SELECT w[i] || ' ' || w[i+1] AS gram
                FROM t, unnest(range(1, len(w))) AS r(i)
                WHERE len(w) >= 2
            ),
            bc AS (
                SELECT gram, COUNT(*) AS c_xy FROM b GROUP BY 1
                HAVING COUNT(*) >= 5
            )
            SELECT gram, CAST(c_xy AS BIGINT) AS c_xy,
                   CAST(u1.c AS BIGINT) AS c_x,
                   CAST(u2.c AS BIGINT) AS c_y,
                   CAST((CAST(c_xy AS HUGEINT) * n.n * 1000000)
                        // (CAST(u1.c AS HUGEINT) * u2.c) AS BIGINT)
                       AS score
            FROM bc
            JOIN uni u1 ON u1.term = split_part(gram, ' ', 1)
            JOIN uni u2 ON u2.term = split_part(gram, ' ', 2)
            CROSS JOIN n
            ORDER BY score DESC, gram LIMIT 30
        """,
        "train_split": """
            -- deterministic 80/10/10 split on the Knuth hash ring
            -- (thresholds = ops/corpus.py SPLIT_TRAIN_UPPER/VAL_UPPER);
            -- per-split counts + min doc pin the id-space partition
            WITH a AS (
                SELECT doc_id, n_chars,
                       CASE WHEN (CAST(doc_id AS HUGEINT) * 2654435761)
                                 % 4294967296 < 3435973836 THEN 'train'
                            WHEN (CAST(doc_id AS HUGEINT) * 2654435761)
                                 % 4294967296 < 3865470566 THEN 'val'
                            ELSE 'test' END AS split
                FROM documents
            )
            SELECT split, CAST(COUNT(*) AS BIGINT) AS n_docs,
                   CAST(SUM(n_chars) AS BIGINT) AS n_chars,
                   CAST(MIN(doc_id) AS BIGINT) AS first_doc
            FROM a GROUP BY split
        """,
        "containment_pairs": """
            -- exact shingle containment ≥ 0.8: inter / min(|A|,|B|) —
            -- asymmetric near-dup (snippet-in-document); same trigram
            -- shingles and integer boundary test as jaccard_pairs
            WITH ws AS (
                SELECT doc_id,
                       CASE WHEN trim(text) = '' THEN CAST([] AS VARCHAR[])
                            ELSE regexp_split_to_array(trim(text), '\\s+')
                       END AS w
                FROM documents
            ),
            g AS (
                SELECT doc_id, unnest(list_distinct(
                    CASE WHEN len(w) >= 3 THEN
                             list_transform(range(1, len(w) - 1),
                                 i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])
                         WHEN len(w) > 0 THEN [array_to_string(w, ' ')]
                         ELSE CAST([] AS VARCHAR[]) END)) AS gram
                FROM ws
            ),
            sz AS (SELECT doc_id, COUNT(*) AS n FROM g GROUP BY 1),
            inter AS (
                SELECT a.doc_id AS id_a, b.doc_id AS id_b, COUNT(*) AS c
                FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id
                GROUP BY 1, 2
            )
            SELECT i.id_a, i.id_b, CAST(i.c AS BIGINT) AS inter,
                   CAST(least(sa.n, sb.n) AS BIGINT) AS n_small,
                   i.c * 1.0 / least(sa.n, sb.n) AS containment
            FROM inter i
            JOIN sz sa ON sa.doc_id = i.id_a
            JOIN sz sb ON sb.doc_id = i.id_b
            WHERE i.c * 10000 >= 8000 * least(sa.n, sb.n)
        """,
        "doc_length_percentiles": """
            -- exact per-language length percentiles; percentile_disc =
            -- value at 1-based rank ceil(p*n), the engine's histogram
            -- walk selects both ranks in one pass
            SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs,
                   CAST(percentile_disc(0.5) WITHIN GROUP (
                       ORDER BY n_chars) AS BIGINT) AS median_chars,
                   CAST(percentile_disc(0.95) WITHIN GROUP (
                       ORDER BY n_chars) AS BIGINT) AS p95_chars
            FROM documents GROUP BY lang
        """,
        "user_rolling_value": """
            -- trailing window (3 PRECEDING .. CURRENT), integer cents
            -- summed then divided once — the bounded-frame companion to
            -- user_running_value; width = relational.ROLLING_WINDOW_ROWS
            SELECT event_id, user_id,
                   SUM(CAST(round(value * 100) AS BIGINT)) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                       ROWS BETWEEN 3 PRECEDING AND CURRENT ROW
                   ) / 100.0 AS rolling_value
            FROM events
        """,
        "trimmed_mean_price": """
            -- exact 5%-trimmed mean by RANK (row_number semantics; ties
            -- at the cut value contribute exactly the copies their rank
            -- window covers — the engine's histogram rank arithmetic)
            WITH r AS (
                SELECT CAST(round(o_totalprice * 100) AS BIGINT) AS cents,
                       row_number() OVER (ORDER BY o_totalprice) AS rn,
                       COUNT(*) OVER () AS n
                FROM orders
            )
            SELECT CAST(MAX(n) AS BIGINT) AS n_orders,
                   CAST(COUNT(*) AS BIGINT) AS n_kept,
                   SUM(cents) * 1.0 / COUNT(*) / 100.0 AS trimmed_mean
            FROM r WHERE rn > (n * 5) // 100 AND rn <= n - (n * 5) // 100
        """,
        "source_drift": """
            -- exact two-sample KS between src0 and the rest over doc
            -- length: integer numerator max|s0*n1 - s1*n0| over merged
            -- cumulative counts; ks_at = smallest length achieving it
            WITH h AS (
                SELECT n_chars AS v,
                       COUNT(*) FILTER (source = 'src0') AS c0,
                       COUNT(*) FILTER (source <> 'src0') AS c1
                FROM documents GROUP BY 1
            ),
            c AS (
                SELECT v,
                       SUM(c0) OVER (ORDER BY v) AS s0,
                       SUM(c1) OVER (ORDER BY v) AS s1
                FROM h
            ),
            t AS (SELECT (SELECT SUM(c0) FROM h) AS n0,
                         (SELECT SUM(c1) FROM h) AS n1),
            d AS (SELECT v, ABS(s0 * t.n1 - s1 * t.n0) AS diff FROM c, t)
            SELECT CAST(t.n0 AS BIGINT) AS n_ref,
                   CAST(t.n1 AS BIGINT) AS n_other,
                   CAST((SELECT MAX(diff) FROM d) AS BIGINT) AS ks_num,
                   CAST((SELECT MIN(v) FROM d WHERE diff =
                        (SELECT MAX(diff) FROM d)) AS BIGINT) AS ks_at,
                   (SELECT MAX(diff) FROM d) * 1.0 / (t.n0 * t.n1)
                       AS ks_stat
            FROM t
        """,
    }
