"""Tests for training-data ops: dedup, similarity, text analysis, multimodal."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from libpdf_ray.ops.dedup import (
    MinHasher,
    SimHasher,
    md5_hex,
    ngram_jaccard,
)
from libpdf_ray.ops.multimodal import MediaFeatureExtractor
from libpdf_ray.ops.text import (
    LangIdModel,
    QualityScorer,
    add_text_stats,
    rolling_fingerprint,
)


class TestTextOps:
    def test_token_count_matches_python_split(self):
        df = pd.DataFrame({"text": ["a b  c", "", "  ", "one"]})
        out = add_text_stats(df)
        assert out["token_count"].tolist() == [3, 0, 0, 1]

    def test_alpha_chars_ascii_only(self):
        df = pd.DataFrame({"text": ["ab1 汉字 c!"]})
        out = add_text_stats(df)
        assert out["alpha_chars"].tolist() == [3]
        assert out["digit_chars"].tolist() == [1]

    def test_langid_heuristic(self):
        model = LangIdModel()
        assert model.predict_one("the cat and the dog is on a mat") == "en"
        assert model.predict_one("der Hund und die Katze ist für mich") == "de"
        assert model.predict_one("汉字汉字汉字汉字") == "zh"
        assert model.predict_one("") == "und"

    def test_quality_scorer(self):
        df = pd.DataFrame({"text": ["the quick brown fox jumps over it", "x"]})
        out = QualityScorer()(df)
        assert bool(out["q_keep"][0]) is True
        assert bool(out["q_keep"][1]) is False

    def test_fingerprint_deterministic_and_local(self):
        a = rolling_fingerprint("the quick brown fox jumps over the lazy dog")
        b = rolling_fingerprint("the quick brown fox jumps over the lazy dog")
        assert a == b


class TestDedupKernels:
    def test_md5_matches_duckdb(self):
        import duckdb

        text = "hello dedup"
        assert md5_hex(text) == duckdb.sql(f"SELECT md5('{text}')").fetchone()[0]

    def test_minhash_similarity_tracks_jaccard(self):
        mh = MinHasher(num_perm=128)
        a = "the quick brown fox jumps over the lazy dog again and again"
        b = "the quick brown fox jumps over the lazy dog again and once"
        c = "completely different words everywhere nothing shared at all here"
        sa, sb, sc = mh.signature(a), mh.signature(b), mh.signature(c)
        sim_ab = float(np.mean(sa == sb))
        sim_ac = float(np.mean(sa == sc))
        true_ab = ngram_jaccard(a, b)
        assert sim_ab > sim_ac
        assert abs(sim_ab - true_ab) < 0.25  # MinHash estimates Jaccard

    def test_minhash_identical_texts(self):
        mh = MinHasher()
        t = "same text same text same text"
        assert np.array_equal(mh.signature(t), mh.signature(t))

    def test_simhash_near_vs_far(self):
        sh = SimHasher()
        a = sh.simhash("the quick brown fox jumps over the lazy dog " * 3)
        b = sh.simhash("the quick brown fox jumps over the lazy cat " * 3)
        c = sh.simhash("totally unrelated content about databases and engines")
        def hamming(x, y):
            return bin(x ^ y).count("1")
        assert hamming(a, b) < hamming(a, c)

    def test_ngram_jaccard_bounds(self):
        assert ngram_jaccard("a b c d", "a b c d") == 1.0
        assert ngram_jaccard("a b c d", "x y z w") == 0.0


class TestDedupDatasets:
    def test_exact_dedup(self, ray_session):
        import ray.data as rd

        from libpdf_ray.ops.dedup import exact_dedup, exact_dedup_stats

        rows = [
            {"doc_id": 1, "text": "duplicate body"},
            {"doc_id": 2, "text": "duplicate body"},
            {"doc_id": 3, "text": "unique body"},
        ]
        ds = rd.from_items(rows)
        stats = exact_dedup_stats(ds).to_pandas()
        assert stats["n_copies"].sum() == 3
        dup_row = stats[stats["n_copies"] == 2].iloc[0]
        assert dup_row["keep_id"] == 1
        deduped = exact_dedup(ds).to_pandas()
        assert sorted(deduped["doc_id"]) == [1, 3]

    def test_small_route_equals_shuffle_route(self, ray_session):
        """est_bytes under the threshold takes the single-task route; its
        output must equal the distributed bucket-shuffle plan exactly."""
        import ray.data as rd

        from libpdf_ray.ops.dedup import exact_dedup, exact_dedup_stats

        rows = [
            {"doc_id": i, "text": f"body {i % 17}"} for i in range(200)
        ]

        def canon(df):
            return (
                df[sorted(df.columns)]
                .sort_values(by=sorted(df.columns))
                .reset_index(drop=True)
            )

        a = canon(exact_dedup_stats(rd.from_items(rows)).to_pandas())
        b = canon(
            exact_dedup_stats(rd.from_items(rows), est_bytes=1).to_pandas()
        )
        pd.testing.assert_frame_equal(a, b)
        da = canon(exact_dedup(rd.from_items(rows)).to_pandas())
        db = canon(exact_dedup(rd.from_items(rows), est_bytes=1).to_pandas())
        pd.testing.assert_frame_equal(da, db)

    def test_minhash_lsh_finds_near_dups(self, ray_session):
        import ray.data as rd

        from libpdf_ray.ops.dedup import minhash_lsh_pairs

        base = "the quick brown fox jumps over the lazy dog and runs far away home"
        rows = [
            {"doc_id": 1, "text": base},
            {"doc_id": 2, "text": base.replace("home", "tonight")},
            {"doc_id": 3, "text": "completely different content with other words entirely present"},
        ]
        pairs = minhash_lsh_pairs(rd.from_items(rows), threshold=0.5).to_pandas()
        assert {(1, 2)} == set(zip(pairs["id_a"], pairs["id_b"]))

    def test_jaccard_pairs_exact_matches_bruteforce(self, ray_session):
        import itertools

        import ray.data as rd

        from libpdf_ray.ops.dedup import jaccard_pairs_exact, ngram_jaccard

        base = "the quick brown fox jumps over the lazy dog and runs far away"
        rows = [
            {"doc_id": 1, "text": base},
            {"doc_id": 2, "text": base.replace("away", "home")},
            {"doc_id": 3, "text": base},  # exact duplicate of 1
            {"doc_id": 4, "text": "totally unrelated words in this one here"},
            {"doc_id": 5, "text": "two words"},  # < k words → one joined gram
            {"doc_id": 6, "text": ""},  # no grams → never paired
            {"doc_id": 7, "text": "two words"},  # dup of the short doc
        ]
        got = jaccard_pairs_exact(
            rd.from_items(rows), threshold=0.3, est_docs=10
        ).to_pandas()
        got_pairs = {
            (a, b): round(j, 6)
            for a, b, j in zip(got["id_a"], got["id_b"], got["jaccard"])
        }
        texts = {r["doc_id"]: r["text"] for r in rows}
        want_pairs = {}
        for a, b in itertools.combinations(sorted(texts), 2):
            if not texts[a].split() or not texts[b].split():
                continue  # op never pairs gram-less docs
            j = ngram_jaccard(texts[a], texts[b])
            # integer threshold semantics: inter·10000 ≥ 3000·uni
            if j > 0 and j >= 0.3:
                want_pairs[(a, b)] = round(j, 6)
        assert got_pairs == want_pairs
        # inter/uni are consistent with jaccard
        assert (got["inter"] / got["uni"] == got["jaccard"]).all()
        # exact duplicates score 1.0
        assert got_pairs[(1, 3)] == 1.0 and got_pairs[(5, 7)] == 1.0

    def test_jaccard_pairs_max_df_drops_stop_grams(self, ray_session):
        import ray.data as rd

        from libpdf_ray.ops.dedup import jaccard_pairs_exact

        # every doc shares the stop gram "a b c"; only 1/2 share the rest
        rows = [
            {"doc_id": i, "text": "a b c " + ("x y z w v" if i < 2 else f"u{i} q{i} r{i} s{i} t{i}")}
            for i in range(6)
        ]
        full = jaccard_pairs_exact(
            rd.from_items(rows), threshold=0.05, est_docs=10
        ).to_pandas()
        filtered = jaccard_pairs_exact(
            rd.from_items(rows), threshold=0.05, est_docs=10, max_df=3
        ).to_pandas()
        # with the ubiquitous grams dropped, only the truly-overlapping pair
        # (0,1) survives; the full run pairs everything through "a b c"
        assert len(full) > len(filtered)
        assert set(zip(filtered["id_a"], filtered["id_b"])) == {(0, 1)}

    def test_embedding_neardup(self, ray_session):
        import ray.data as rd

        from libpdf_ray.ops.dedup import embedding_neardup_pairs

        rng = np.random.default_rng(7)
        v = rng.standard_normal(64)
        rows = [
            {"vec_id": 1, "embedding": v.tolist()},
            {"vec_id": 2, "embedding": (v + 0.001 * rng.standard_normal(64)).tolist()},
            {"vec_id": 3, "embedding": rng.standard_normal(64).tolist()},
        ]
        pairs = embedding_neardup_pairs(
            rd.from_items(rows), threshold=0.99
        ).to_pandas()
        assert set(zip(pairs["id_a"], pairs["id_b"])) == {(1, 2)}


class TestSimilarity:
    def test_knn_bruteforce_exact(self, ray_session):
        import ray.data as rd

        from libpdf_ray.ops.similarity import knn_bruteforce

        rng = np.random.default_rng(3)
        mat = rng.standard_normal((50, 16))
        rows = [{"vec_id": i, "embedding": mat[i].tolist()} for i in range(50)]
        ds = rd.from_items(rows)
        out = knn_bruteforce(
            ds, {"ids": [0], "matrix": mat[:1]}, k=3
        ).to_pandas()
        # numpy reference
        n = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        sims = n @ n[0]
        sims[0] = -np.inf
        expect = set(np.argsort(-sims)[:3].tolist())
        assert set(out["neighbor_id"]) == expect

    def test_knn_ivf_recall(self, ray_session):
        import ray.data as rd

        from libpdf_ray.ops.similarity import ivf_fit_centroids, knn_ivf

        rng = np.random.default_rng(5)
        mat = rng.standard_normal((120, 16))
        rows = [{"vec_id": i, "embedding": mat[i].tolist()} for i in range(120)]
        ds = rd.from_items(rows)
        centroids = ivf_fit_centroids(ds, n_cells=4, sample_rows=120)
        out = knn_ivf(
            ds, {"ids": [0], "matrix": mat[:1]}, centroids, k=3, n_probe=2
        ).to_pandas()
        assert len(out) == 3  # probed cells returned a full top-k
        n = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        sims = n @ n[0]
        sims[0] = -np.inf
        top1 = int(np.argmax(sims))
        assert top1 in set(out["neighbor_id"])  # recall@top1 with 2 probes


class TestMultimodal:
    def test_fake_decode_plumbing(self):
        df = pd.DataFrame({"media_ref": ["media/doc-1/page_1_figure.1.png", ""]})
        out = MediaFeatureExtractor()(df)
        assert out["media_width"][0] > 0
        assert out["media_error"][0] == ""
        # poison row: empty ref → error column, not an exception
        assert out["media_width"][1] == 0
        assert "ValueError" in out["media_error"][1]
        # deterministic features
        again = MediaFeatureExtractor()(
            pd.DataFrame({"media_ref": ["media/doc-1/page_1_figure.1.png"]})
        )
        assert again["media_features"][0] == out["media_features"][0]

    def test_strict_mode_raises(self):
        with pytest.raises(ValueError):
            MediaFeatureExtractor(strict=True)(pd.DataFrame({"media_ref": [""]}))

    def test_media_pipeline(self, ray_session, small_corpus_dir):
        from libpdf_ray.config import SMART_CROP_CONFIG
        from libpdf_ray.ops.multimodal import extract_media_features
        from libpdf_ray.pipelines.extract import extract_spans, read_corpus, spans_table

        spans = spans_table(
            extract_spans(read_corpus(small_corpus_dir), SMART_CROP_CONFIG)
        )
        feats = extract_media_features(spans).to_pandas()
        assert len(feats) > 0
        assert (feats["media_error"] == "").all()
        assert feats["media_ref"].str.startswith("media/").all()


class TestNearDupRecall:
    def test_embedding_neardup_recall_on_planted_pairs(self, ray_session):
        """Round-1 gap: the single-table LSH had never been observed finding
        anything.  Plant 20 near-dup pairs (cosine ≥ ~0.95) in 200 random
        vectors and assert 100% recall at threshold 0.9 plus zero false
        positives below threshold."""
        import ray.data as rd

        from libpdf_ray.ops.dedup import embedding_neardup_pairs

        rng = np.random.default_rng(11)
        rows = []
        planted = set()
        vid = 0
        for k in range(20):
            v = rng.standard_normal(64)
            noise = 0.15 * rng.standard_normal(64)  # cosine ≈ 0.95-0.99
            rows.append({"vec_id": vid, "embedding": v.tolist()})
            rows.append({"vec_id": vid + 1, "embedding": (v + noise).tolist()})
            planted.add((vid, vid + 1))
            vid += 2
        for _ in range(160):
            rows.append({"vec_id": vid, "embedding": rng.standard_normal(64).tolist()})
            vid += 1

        pairs = embedding_neardup_pairs(
            rd.from_items(rows), threshold=0.9
        ).to_pandas()
        found = set(zip(pairs["id_a"], pairs["id_b"]))
        # exact-cosine check of the planted pairs (which are above 0.9?)
        import numpy as _np

        emb = {r["vec_id"]: _np.asarray(r["embedding"]) for r in rows}
        truly_above = {
            (a, b)
            for a, b in planted
            if float(emb[a] @ emb[b] / (_np.linalg.norm(emb[a]) * _np.linalg.norm(emb[b]))) >= 0.9
        }
        assert truly_above, "fixture must plant pairs above threshold"
        missed = truly_above - found
        assert not missed, f"recall gap: {missed}"
        # every reported pair really is ≥ threshold (verification is exact)
        assert (pairs["cosine"] >= 0.9).all()

    def test_minhash_band_rows_vectorized_no_signature_payload(self):
        from libpdf_ray.ops.dedup import MinHasher, _band_rows

        mh = MinHasher(num_perm=64)
        df = pd.DataFrame(
            {
                "doc_id": [1, 2],
                "minhash": [
                    mh.signature("alpha beta gamma delta epsilon zeta").tolist(),
                    mh.signature("alpha beta gamma delta epsilon zeta").tolist(),
                ],
            }
        )
        out = _band_rows(df, bands=16, rows=4, id_col="doc_id")
        assert list(out.columns) == ["band", "band_hash", "doc_id"]  # no sigs
        assert len(out) == 32
        # identical signatures → identical band hashes in every band
        a = out[out["doc_id"] == 1].sort_values("band")["band_hash"].to_numpy()
        b = out[out["doc_id"] == 2].sort_values("band")["band_hash"].to_numpy()
        assert (a == b).all()


class TestIVFPartitioned:
    def _corpus(self, n=200, dim=32, seed=5):
        rng = np.random.default_rng(seed)
        mat = rng.standard_normal((n, dim))
        rows = [{"vec_id": i, "embedding": mat[i].tolist()} for i in range(n)]
        return mat, rows

    def test_all_three_source_forms_are_identical(self, ray_session, tmp_path):
        """knn_ivf(index_dir) == knn_ivf(parquet_path) == knn_ivf(Dataset)
        == knn_ivf_partitioned — one ANN semantics, three source handles."""
        import os

        import ray.data as rd

        from libpdf_ray.ops.similarity import (
            ivf_build_index,
            ivf_fit_centroids,
            knn_ivf,
            knn_ivf_partitioned,
        )

        mat, rows = self._corpus()
        ds = rd.from_items(rows)
        centroids = ivf_fit_centroids(ds, n_cells=8, sample_rows=200)
        queries = {"ids": [0, 1, 2], "matrix": mat[:3]}

        src = str(tmp_path / "emb.parquet")
        rd.from_items(rows).map_batches(
            lambda df: df.assign(
                embedding=[list(map(float, e)) for e in df["embedding"]]
            ),
            batch_format="pandas",
        ).repartition(1).write_parquet(src)

        index_dir = str(tmp_path / "ivf_index")
        ivf_build_index(rd.from_items(rows), centroids, index_dir)
        # hive layout: one dir per populated cell
        cells = [d for d in os.listdir(index_dir) if d.startswith("ivf_cell=")]
        assert 1 < len(cells) <= 8

        def run(source):
            return (
                knn_ivf(source, queries, centroids, k=5, n_probe=3)
                .to_pandas()
                .reset_index(drop=True)
            )

        a = (
            knn_ivf_partitioned(index_dir, queries, centroids, k=5, n_probe=3)
            .to_pandas()
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(a, run(index_dir))
        pd.testing.assert_frame_equal(a, run(src))
        pd.testing.assert_frame_equal(a, run(rd.from_items(rows)))
        # recall sanity: with 3/8 cells probed the true top-1 is usually kept
        assert len(a) == 15

    def test_probe_prunes_the_read(self, ray_session, tmp_path):
        """The probed-path selection must list ONLY probed cells' files, and
        the dataset read for the probe must ingest exactly those files."""
        import ray.data as rd

        from libpdf_ray.ops.similarity import (
            _probe_cells,
            _probed_cell_paths,
            ivf_build_index,
            ivf_fit_centroids,
        )

        mat, rows = self._corpus()
        ds = rd.from_items(rows)
        centroids = ivf_fit_centroids(ds, n_cells=8, sample_rows=200)
        queries = {"ids": [0], "matrix": mat[:1]}
        index_dir = str(tmp_path / "ivf_index")
        ivf_build_index(rd.from_items(rows), centroids, index_dir)

        probed = _probe_cells(queries, centroids, n_probe=2)
        assert len(probed) == 2
        paths = _probed_cell_paths(index_dir, probed)
        assert paths, "probed cells must be populated on this corpus"
        for p in paths:
            assert any(f"ivf_cell={c}/" in p or f"ivf_cell={c}\\" in p
                       for c in probed), p
        # the read ingests exactly the probed files — unprobed cells' bytes
        # never leave storage
        got = sorted(rd.read_parquet(paths).input_files())
        assert got == sorted(paths)

    def test_index_cache_reuses_build(self, ray_session, tmp_path):
        import os

        import ray.data as rd

        from libpdf_ray.ops.similarity import ivf_fit_centroids, ivf_index_for

        mat, rows = self._corpus(n=60)
        src = str(tmp_path / "emb.parquet")
        rd.from_items(rows).map_batches(
            lambda df: df.assign(
                embedding=[list(map(float, e)) for e in df["embedding"]]
            ),
            batch_format="pandas",
        ).repartition(1).write_parquet(src)
        centroids = ivf_fit_centroids(
            rd.read_parquet(src), n_cells=4, sample_rows=60
        )

        d1 = ivf_index_for(src, centroids, cache_root=str(tmp_path))
        marker = os.path.join(d1, "_built")
        t1 = os.stat(marker).st_mtime_ns
        d2 = ivf_index_for(src, centroids, cache_root=str(tmp_path))
        assert d1 == d2 and os.stat(marker).st_mtime_ns == t1  # no rebuild
        # different quantizer → different index (content-addressed)
        d3 = ivf_index_for(src, centroids + 0.5, cache_root=str(tmp_path))
        assert d3 != d1


class TestSimhashPairs:
    def test_simhash_neardup_pairs_finds_near_identical(self, ray_session):
        """Pigeonhole banding: near-identical docs (Hamming ≤ 3) are found;
        unrelated docs are not."""
        import ray.data as rd

        from libpdf_ray.ops.dedup import simhash_neardup_pairs

        base = ("the quick brown fox jumps over the lazy dog and then runs "
                "far away into the quiet green forest tonight") * 2
        rows = [
            {"doc_id": 1, "text": base},
            {"doc_id": 2, "text": base.replace("quiet", "silent")},
            {"doc_id": 3, "text": "completely different content about ray "
                                  "data pipelines and arrow batches here"},
            {"doc_id": 4, "text": base},  # identical → hamming 0
        ]
        pairs = simhash_neardup_pairs(
            rd.from_items(rows), max_hamming=3
        ).to_pandas()
        found = set(zip(pairs["id_a"], pairs["id_b"]))
        assert (1, 4) in found
        assert all(3 not in p for p in found)
        ident = pairs[(pairs["id_a"] == 1) & (pairs["id_b"] == 4)]
        assert int(ident["hamming"].iloc[0]) == 0


class TestKnnSmallRoute:
    def test_small_route_equals_pool_route(self, ray_session):
        import ray.data as rd

        from libpdf_ray.ops.similarity import knn_bruteforce

        rng = np.random.default_rng(9)
        mat = rng.standard_normal((150, 32))
        rows = [{"vec_id": i, "embedding": mat[i].tolist()} for i in range(150)]
        queries = {"ids": [0, 1, 2], "matrix": mat[:3]}
        a = (
            knn_bruteforce(rd.from_items(rows), queries, k=5)
            .to_pandas().reset_index(drop=True)
        )
        b = (
            knn_bruteforce(rd.from_items(rows), queries, k=5, est_bytes=1)
            .to_pandas().reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(a, b)


class TestConnectedComponentsRoutes:
    def test_driver_unionfind_equals_distributed(self, ray_session):
        """The small-route union-find must produce identical
        (doc_id, cluster_id) rows to the distributed label propagation."""
        import ray.data as rd

        from libpdf_ray.ops import graph as G

        rng = np.random.default_rng(4)
        # random graph with several components incl. chains (diameter > 1)
        pairs = []
        for comp in range(6):
            members = list(range(comp * 100, comp * 100 + rng.integers(2, 9)))
            for a, b in zip(members, members[1:]):  # chain
                pairs.append({"id_a": int(b), "id_b": int(a)})  # reversed too
        ds = rd.from_items(pairs)
        small = (
            G.connected_components(ds, est_nodes=50)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        # force the distributed route by shrinking the guard
        orig = None
        import libpdf_ray.ops.util as U

        orig = U.BROADCAST_LOOKUP_ROW_LIMIT
        try:
            U.BROADCAST_LOOKUP_ROW_LIMIT = 0
            big = (
                G.connected_components(rd.from_items(pairs), est_nodes=50)
                .to_pandas().sort_values("doc_id").reset_index(drop=True)
            )
        finally:
            U.BROADCAST_LOOKUP_ROW_LIMIT = orig
        pd.testing.assert_frame_equal(small, big)
        # representatives are component minima
        assert (small.groupby("cluster_id")["doc_id"].min().to_numpy()
                == small["cluster_id"].unique()).all()


class TestCogroupRoutes:
    """The tagged-union co-group queries (priority_revenue,
    shipping_priority, customer_order_counts, user_activity_outer) must
    return identical frames on the single-task route (default at test
    scale) and the distributed bucket shuffle (forced by zeroing the
    threshold) — keys are bucket-disjoint, so merge_bucket over the whole
    union is the same computation."""

    SF = "/root/testdata/sf0.001"

    @staticmethod
    def _canon(df):
        return (
            df[sorted(df.columns)]
            .sort_values(by=sorted(df.columns))
            .reset_index(drop=True)
        )

    @pytest.mark.parametrize(
        "qname",
        ["q_priority_revenue", "q_shipping_priority",
         "q_customer_order_counts", "q_user_activity_outer"],
    )
    def test_single_equals_distributed(self, ray_session, qname):
        import libpdf_ray.ops.relational as R

        q = getattr(R, qname)
        single = self._canon(q(self.SF).to_pandas())
        orig = R.SINGLE_TASK_GROUP_BYTES
        try:
            R.SINGLE_TASK_GROUP_BYTES = 0
            dist = self._canon(q(self.SF).to_pandas())
        finally:
            R.SINGLE_TASK_GROUP_BYTES = orig
        assert len(single) > 0
        pd.testing.assert_frame_equal(single, dist)


class TestAnomalyKernel:
    """q_user_anomalies' integer identity must stay EXACT when the int64
    products would overflow (n·x ~ 10^9+): the kernel escalates the bucket
    to Python-int arithmetic instead of silently wrapping."""

    def test_escalation_matches_exact_python(self):
        import numpy as np
        import pandas as pd

        from libpdf_ray.ops.relational import _anomaly_counts

        # 60k events at x=56000 cents + 10 clear outliers at 0: the fast
        # path's n*Q product exceeds 2^63 (wraps to "0 anomalies"); exact
        # math flags the 10 zeros
        g = pd.DataFrame(
            {"user_id": [1] * 60010, "x": [56000] * 60000 + [0] * 10}
        )
        out = _anomaly_counts(g)
        assert out.loc[0, "n_anomalies"] == 10
        assert out.loc[0, "n_events"] == 60010

    def test_fast_path_small_bucket(self):
        import pandas as pd

        from libpdf_ray.ops.relational import _anomaly_counts

        g = pd.DataFrame(
            {"user_id": [1] * 99 + [2] * 50,
             "x": [100] * 98 + [10_000] + [50] * 50}
        )
        out = _anomaly_counts(g).set_index("user_id")
        assert out.loc[1, "n_anomalies"] == 1  # the 10k spike
        assert out.loc[2, "n_anomalies"] == 0  # constant series


class TestCentroidCache:
    def test_planted_garbage_is_refit(self, ray_session, tmp_path):
        import numpy as np

        from libpdf_ray.ops.similarity import ivf_centroids_for

        src = "/root/testdata/sf0.001/embeddings.parquet"
        good = ivf_centroids_for(src, n_cells=8, cache_root=str(tmp_path))
        assert good.ndim == 2 and good.dtype == np.float64
        # corrupt the cache file: the next call must refit, not crash or
        # return garbage
        import glob

        (cache,) = glob.glob(str(tmp_path / "libpdf_ray_ivfc_*.npy"))
        with open(cache, "wb") as fh:
            fh.write(b"not a npy file")
        again = ivf_centroids_for(src, n_cells=8, cache_root=str(tmp_path))
        assert np.array_equal(good, again)


class TestPiiScrub:
    """scrub_pii: redaction semantics on PLANTED PII (the shipped corpus
    is digit-free, so the registry's oracle check pins the identity path;
    these pin the actual replacements, python-re == DuckDB-RE2)."""

    PLANTED = [
        "contact bob.smith+spam@example-mail.co.uk for details",
        "server at 192.168.001.1 rebooted, backup 10.0.0.255 ok",
        "call +1 555-867-5309 or 020 7946 0958 now",
        "mixed: a@b.io then 8.8.8.8 then 0123456789",
        "no pii here at all",
        "",
    ]

    def _frame(self):
        return pd.DataFrame(
            {"doc_id": np.arange(len(self.PLANTED), dtype=np.int64),
             "text": self.PLANTED}
        )

    def test_counts_and_replacements(self):
        from libpdf_ray.ops.text import scrub_pii

        out = scrub_pii(self._frame())
        assert out["n_email"].tolist() == [1, 0, 0, 1, 0, 0]
        assert out["n_ipv4"].tolist() == [0, 2, 0, 1, 0, 0]
        # row 2 has two phone-like runs; row 3's digit run is phone-shaped
        assert out["n_phone"].tolist() == [0, 0, 2, 1, 0, 0]

    def test_matches_duckdb_oracle_on_planted_pii(self, tmp_path):
        import duckdb
        import pyarrow as pa
        import pyarrow.parquet as pq

        import __ray_entry__ as entrymod
        from libpdf_ray.ops.text import scrub_pii

        df = self._frame()
        pq.write_table(pa.Table.from_pandas(df),
                       str(tmp_path / "documents.parquet"))
        con = duckdb.connect()
        con.sql(
            "CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{tmp_path}/documents.parquet')"
        )
        exp = con.sql(entrymod.oracle_sql()["pii_scrub"]).df()
        got = scrub_pii(df)
        exp = exp.sort_values("doc_id").reset_index(drop=True)
        got = got.sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got, exp[got.columns], check_dtype=False
        )


class TestTextNormalize:
    """normalize_text: NFC + whitespace-collapse + trim on PLANTED unicode
    (the shipped corpus is ASCII single-spaced, so the registry oracle
    pins the identity path; these pin the actual transforms,
    Arrow-utf8proc/RE2 == DuckDB-utf8proc/RE2)."""

    PLANTED = [
        "Cafe\u0301 au lait",   # combining acute -> precomposed \u00e9
        "  leading and   inner\truns\n\nand trailing  ",
        "\ufb01ne \ufb02ow",   # fi/fl ligatures: NFC keeps them
        "already clean ascii",
        "",
        "A\u030aring and\u2028line sep stays",  # U+2028 NOT in the class
    ]

    def _table(self):
        import pyarrow as pa

        return pa.table(
            {"doc_id": pa.array(range(len(self.PLANTED)), pa.int64()),
             "text": pa.array(self.PLANTED, pa.string())}
        )

    def test_transforms(self):
        import hashlib
        import unicodedata

        from libpdf_ray.ops.text import normalize_text

        out = normalize_text(self._table()).to_pandas()
        # rows 0 and 5 change by NFC composition, row 1 by whitespace;
        # the ligatures and clean ascii are fixed points
        assert out["changed"].tolist() == [1, 1, 0, 0, 0, 1]
        expected = [
            unicodedata.normalize("NFC", "Cafe\u0301 au lait"),
            "leading and inner runs and trailing",
            "\ufb01ne \ufb02ow",
            "already clean ascii",
            "",
            unicodedata.normalize(
                "NFC", "A\u030aring and\u2028line sep stays"
            ),
        ]
        assert out["norm_len"].tolist() == [len(s) for s in expected]
        assert out["norm_md5"].tolist() == [
            hashlib.md5(s.encode("utf-8")).hexdigest() for s in expected
        ]

    def test_matches_duckdb_oracle_on_planted_unicode(self, tmp_path):
        import duckdb
        import pyarrow.parquet as pq

        import __ray_entry__ as entrymod
        from libpdf_ray.ops.text import normalize_text

        tbl = self._table()
        pq.write_table(tbl, str(tmp_path / "documents.parquet"))
        con = duckdb.connect()
        con.sql(
            "CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{tmp_path}/documents.parquet')"
        )
        exp = con.sql(entrymod.oracle_sql()["text_normalize"]).df()
        got = normalize_text(tbl).to_pandas()
        exp = exp.sort_values("doc_id").reset_index(drop=True)
        got = got.sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got, exp[got.columns], check_dtype=False
        )


class TestSentenceStats:
    """sentence_stats on PLANTED edge cases: consecutive terminators,
    missing trailing punctuation, whitespace-only segments, empty docs."""

    PLANTED = [
        "One two three. Four five! Six?",      # 3 sentences: 3/2/1 words
        "no terminal punctuation at all",      # 1 sentence, 5 words
        "Wow!!! Really?! . ",                  # empties dropped: 1/1 words
        "",                                    # no row
        "a.b.c",                               # 3 one-word sentences
        "tabs\there. and\nnewlines stay words.",
    ]

    def _frame(self):
        return pd.DataFrame(
            {"doc_id": np.arange(len(self.PLANTED), dtype=np.int64),
             "text": self.PLANTED}
        )

    def test_planted_values(self):
        from libpdf_ray.ops.text import sentence_stats

        out = sentence_stats(self._frame()).sort_values(
            "doc_id").reset_index(drop=True)
        assert out["doc_id"].tolist() == [0, 1, 2, 4, 5]
        assert out["n_sentences"].tolist() == [3, 1, 2, 3, 2]
        assert out["n_words"].tolist() == [6, 5, 2, 3, 6]
        assert out["mean_words_x100"].tolist() == [200, 500, 100, 100, 300]
        assert out["max_sentence_words"].tolist() == [3, 5, 1, 1, 4]

    def test_matches_duckdb_oracle_on_planted(self, tmp_path):
        import duckdb
        import pyarrow as pa
        import pyarrow.parquet as pq

        import __ray_entry__ as entrymod
        from libpdf_ray.ops.text import sentence_stats

        df = self._frame()
        pq.write_table(pa.Table.from_pandas(df),
                       str(tmp_path / "documents.parquet"))
        con = duckdb.connect()
        con.sql(
            "CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{tmp_path}/documents.parquet')"
        )
        exp = con.sql(entrymod.oracle_sql()["sentence_stats"]).df()
        got = sentence_stats(df)
        exp = exp.sort_values("doc_id").reset_index(drop=True)
        got = got.sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got, exp[got.columns], check_dtype=False
        )


class TestNormalizedDedup:
    """normalized_dedup: whitespace/NFC-variant duplicates (invisible to
    raw-md5 exact dedup) collapse to one group with keep-min-id."""

    def test_planted_variants(self, ray_session, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from libpdf_ray.ops.dedup import q_normalized_dedup

        texts = [
            "hello   world",        # 0: collapses to "hello world"
            "hello world",          # 1: canonical
            " hello world  ",       # 2: trims to the same
            "Café x",        # 3: composes to precomposed form
            "Café x",         # 4: already precomposed — same group
            "distinct text",        # 5: its own group
        ]
        pq.write_table(
            pa.table({"doc_id": pa.array(range(6), pa.int64()),
                      "text": pa.array(texts)}),
            str(tmp_path / "documents.parquet"),
        )
        out = q_normalized_dedup(str(tmp_path)).to_pandas()
        out = out.sort_values("keep_id").reset_index(drop=True)
        assert out["keep_id"].tolist() == [0, 3, 5]
        assert out["n_copies"].tolist() == [3, 2, 1]

    def test_matches_duckdb_oracle(self, ray_session, tmp_path):
        import duckdb
        import pyarrow as pa
        import pyarrow.parquet as pq

        import __ray_entry__ as entrymod
        from libpdf_ray.ops.dedup import q_normalized_dedup

        texts = ["a  b", "a b", "x", "x ", "", "  "]
        pq.write_table(
            pa.table({"doc_id": pa.array(range(6), pa.int64()),
                      "text": pa.array(texts)}),
            str(tmp_path / "documents.parquet"),
        )
        con = duckdb.connect()
        con.sql(
            "CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{tmp_path}/documents.parquet')"
        )
        exp = con.sql(
            entrymod.oracle_sql()["normalized_dedup"]
        ).df().sort_values("content_hash").reset_index(drop=True)
        got = q_normalized_dedup(str(tmp_path)).to_pandas().sort_values(
            "content_hash").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got, exp[got.columns], check_dtype=False
        )


class TestHeavyHitters:
    """heavy_hitters: Misra-Gries sketch + rescue pass is EXACT under
    heavy truncation (every batch holds far more distinct terms than k,
    so the sketch actually drops and undercounts candidates — the rescue
    pass must still recover the precise SQL answer)."""

    def test_exact_under_truncation(self, ray_session):
        import ray.data as rd

        from libpdf_ray.ops.sketch import heavy_hitters

        rng = np.random.default_rng(7)
        k = 16  # threshold N/17 ~ 5.9%: alpha/beta/gamma all qualify
        rows = []
        # 3 planted hitters (~20% / 10% / 6% of tokens) in a sea of
        # ~2000 distinct rare terms; 40 docs across many blocks
        for d in range(40):
            toks = (["alpha"] * 25 + ["beta"] * 12 + ["gamma"] * 8
                    + [f"rare{rng.integers(2000)}" for _ in range(80)])
            rng.shuffle(toks)
            rows.append({"doc_id": d, "text": " ".join(toks)})
        ds = rd.from_items(rows).repartition(10)
        got = heavy_hitters(ds, k=k)
        got = got.to_pandas() if hasattr(got, "to_pandas") else got

        # brute-force reference with the same integer filter
        from collections import Counter
        c: Counter = Counter()
        for r in rows:
            c.update(r["text"].split())
        n = sum(c.values())
        want = sorted(
            ((t, v) for t, v in c.items() if v * (k + 1) > n),
            key=lambda tv: (-tv[1], tv[0]),
        )
        assert list(zip(got["term"], got["cnt"])) == want
        assert {"alpha", "beta", "gamma"} <= set(got["term"])

    def test_empty_corpus(self, ray_session):
        import ray.data as rd

        from libpdf_ray.ops.sketch import heavy_hitters

        ds = rd.from_items([{"doc_id": 0, "text": ""}])
        got = heavy_hitters(ds, k=4)
        got = got.to_pandas() if hasattr(got, "to_pandas") else got
        assert len(got) == 0


class TestContainmentPairs:
    """containment_pairs: the snippet-in-document case scores 1.0 where
    jaccard stays below threshold, and both routes agree."""

    def test_snippet_detection_vs_jaccard(self, ray_session):
        import ray.data as rd

        from libpdf_ray.ops.dedup import (
            containment_pairs_exact,
            jaccard_pairs_exact,
        )

        snippet = "the quick brown fox jumps over the lazy dog"
        long_doc = ("intro words here " + snippet
                    + " and then a very long tail of unrelated content "
                    + " ".join(f"w{i}" for i in range(60)))
        rows = [
            {"doc_id": 1, "text": snippet},
            {"doc_id": 2, "text": long_doc},
            {"doc_id": 3, "text": "completely different material again"},
        ]
        ds = rd.from_items(rows)
        cont = containment_pairs_exact(
            ds, threshold=0.8, est_docs=10
        ).to_pandas()
        # snippet ⊂ long_doc: all of doc1's shingles appear in doc2
        assert set(zip(cont["id_a"], cont["id_b"])) == {(1, 2)}
        assert cont["containment"].iloc[0] == 1.0
        # symmetric jaccard misses the pair at the same threshold
        jac = jaccard_pairs_exact(
            ds, threshold=0.8, est_docs=10
        ).to_pandas()
        assert len(jac) == 0

        # single-task route identical
        small = containment_pairs_exact(
            ds, threshold=0.8, est_docs=10, est_bytes=1
        ).to_pandas()
        pd.testing.assert_frame_equal(
            cont.sort_values(["id_a", "id_b"]).reset_index(drop=True),
            small.sort_values(["id_a", "id_b"]).reset_index(drop=True),
        )


class TestUserRollingValue:
    """q_user_rolling_value: the cumsum-difference frame kernel equals
    pandas groupby-rolling on shuffled multi-user input, including runs
    shorter than the window."""

    def test_matches_groupby_rolling(self, ray_session, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from libpdf_ray.ops.relational import q_user_rolling_value

        rng = np.random.default_rng(3)
        n = 400
        df = pd.DataFrame({
            "event_id": np.arange(n, dtype=np.int64),
            "user_id": rng.integers(0, 25, n).astype(np.int64),  # short runs
            "ts": pd.to_datetime(
                rng.integers(0, 10**6, n), unit="s"
            ),
            "value": np.round(rng.uniform(0, 100, n), 2),
        })
        pq.write_table(pa.Table.from_pandas(df),
                       str(tmp_path / "events.parquet"))
        got = (
            q_user_rolling_value(str(tmp_path))
            .to_pandas()
            .sort_values("event_id")
            .reset_index(drop=True)
        )
        s = df.sort_values(["user_id", "ts", "event_id"], kind="stable")
        cents = (s["value"] * 100).round().astype("int64")
        ref = (
            cents.groupby(s["user_id"].to_numpy())
            .rolling(4, min_periods=1).sum()
            .reset_index(level=0, drop=True)
        )
        want = pd.DataFrame({
            "event_id": s["event_id"].to_numpy(),
            "rolling_value": ref.to_numpy() / 100.0,
        }).sort_values("event_id").reset_index(drop=True)
        assert (got["event_id"] == want["event_id"]).all()
        assert (got["rolling_value"] == want["rolling_value"]).all()


class TestTrimmedMean:
    """q_trimmed_mean_price: histogram rank arithmetic handles ties that
    STRADDLE a trim boundary — a value with many copies must contribute
    exactly the copies whose ranks survive, matching row_number trim."""

    def test_tie_straddles_boundary(self, ray_session, tmp_path):
        import duckdb
        import pyarrow as pa
        import pyarrow.parquet as pq

        import __ray_entry__ as entrymod
        from libpdf_ray.ops.relational import q_trimmed_mean_price

        # n=40 -> k=2 per tail; the value 1.00 occupies ranks 1..5 so 2
        # of its 5 copies are trimmed and 3 survive; 99.0 occupies the
        # top 4 ranks so 2 survive
        prices = [1.00] * 5 + [float(v) for v in range(2, 33)] + [99.0] * 4
        assert len(prices) == 40
        pq.write_table(
            pa.table({"o_orderkey": pa.array(range(40), pa.int64()),
                      "o_totalprice": pa.array(prices, pa.float64())}),
            str(tmp_path / "orders.parquet"),
        )
        got = q_trimmed_mean_price(str(tmp_path)).to_pandas()
        con = duckdb.connect()
        con.sql(
            "CREATE VIEW orders AS SELECT * FROM "
            f"read_parquet('{tmp_path}/orders.parquet')"
        )
        exp = con.sql(entrymod.oracle_sql()["trimmed_mean_price"]).df()
        pd.testing.assert_frame_equal(got, exp[got.columns])
        assert got["n_kept"].iloc[0] == 36
        # hand check: 3 copies of 1.00 and 2 copies of 99.0 survive
        kept = [1.0] * 3 + [float(v) for v in range(2, 33)] + [99.0] * 2
        assert abs(got["trimmed_mean"].iloc[0] - sum(kept) / len(kept)) < 1e-9


class TestGroupAggregateByName:
    """The pricing_summary/events_hourly partials pick pyarrow's
    group_by().aggregate() output columns by name, not by position."""

    TABLE = pa.table(
        {
            "k": pa.array(["a", "b", "a", "a"]),
            "x": pa.array([1, 10, 2, 3], pa.int64()),
            "y": pa.array([100, 200, 300, 400], pa.int64()),
        }
    )
    AGGS = [("x", "sum"), ("y", "sum"), ("x", "count")]

    def check(self, out):
        assert out.column_names == ["k", "sx", "sy", "n"]
        rows = {r["k"]: r for r in out.to_pylist()}
        assert rows["a"]["sx"] == 6 and rows["b"]["sx"] == 10
        assert rows["a"]["sy"] == 800 and rows["b"]["sy"] == 200
        assert rows["a"]["n"] == 3 and rows["b"]["n"] == 1

    def test_named_columns(self):
        from libpdf_ray.ops.relational import _group_aggregate

        self.check(_group_aggregate(self.TABLE, ["k"], self.AGGS, ["sx", "sy", "n"]))

    def test_keys_last_layout(self, monkeypatch):
        """A pyarrow that puts the keys after the aggregates (older major
        versions) must still yield correctly labelled columns."""
        from libpdf_ray.ops.relational import _group_aggregate

        real = pa.TableGroupBy.aggregate

        def keys_last(self, aggs):
            t = real(self, aggs)
            names = t.column_names
            return t.select([n for n in names if n != "k"] + ["k"])

        monkeypatch.setattr(pa.TableGroupBy, "aggregate", keys_last)
        self.check(_group_aggregate(self.TABLE, ["k"], self.AGGS, ["sx", "sy", "n"]))
