"""Tests for the training-data operators: dedup (vs brute-force oracle),
text analysis, similarity search (IVF recall vs exact), multimodal
plumbing, relational kernels."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from mysql_binlog_ray.stages.dedup import (
    exact_dedup,
    exact_dedup_stats,
    minhash_lsh_pairs,
    ngram_jaccard_pairs,
    simhash_pairs,
)
from mysql_binlog_ray.stages.multimodal import (
    AudioFeaturizer,
    ImageDecoder,
    ImageResizer,
    VideoFrameSampler,
)
from mysql_binlog_ray.stages.similarity import IvfIndex, brute_force_topk
from mysql_binlog_ray.stages.text import Fingerprinter, LangId, QualityScorer, TokenCounter


def _doc_corpus(seed=3, n=120):
    """Synthetic corpus with planted near-duplicate clusters."""
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(500)]
    docs = []
    for i in range(n):
        words = [vocab[j] for j in rng.integers(0, len(vocab), 60)]
        docs.append(" ".join(words))
    # plant near-dups: docs n..n+9 are copies of 0..9 with 3 words changed
    for i in range(10):
        words = docs[i].split()
        for k in rng.integers(0, len(words), 3):
            words[int(k)] = "CHANGED"
        docs.append(" ".join(words))
    # plant exact dups
    docs.append(docs[0])
    docs.append(docs[1])
    return pd.DataFrame({"doc_id": range(len(docs)), "text": docs})


@pytest.mark.usefixtures("ray_session")
class TestDedup:
    def test_exact_dedup(self):
        df = _doc_corpus()
        ds = rd.from_pandas(df)
        out = exact_dedup(ds).to_pandas()
        # two planted exact dups collapse onto doc 0 and 1
        assert len(out) == len(df) - 2
        assert 0 in out["doc_id"].values and 1 in out["doc_id"].values
        assert len(df) - 1 not in out["doc_id"].values

    def test_exact_dedup_stats_counts(self):
        df = _doc_corpus()
        out = exact_dedup_stats(rd.from_pandas(df)).to_pandas()
        assert out["n_copies"].sum() == len(df)
        assert (out["n_copies"] > 1).sum() == 2

    def test_minhash_finds_planted_neardups(self):
        df = _doc_corpus()
        got = minhash_lsh_pairs(rd.from_pandas(df), threshold=0.5).to_pandas()
        oracle = ngram_jaccard_pairs(df, threshold=0.5)
        got_pairs = set(zip(got["doc_a"], got["doc_b"]))
        oracle_pairs = set(zip(oracle["doc_a"], oracle["doc_b"]))
        # LSH is probabilistic at the threshold boundary: pairs with true
        # jaccard comfortably above threshold must be found; borderline
        # (<0.65) misses are acceptable
        jmap = {(a, b): j for a, b, j in zip(oracle["doc_a"], oracle["doc_b"], oracle["jaccard"])}
        missed = oracle_pairs - got_pairs
        assert all(jmap[p] < 0.65 for p in missed), f"missed solid pairs: {[(p, jmap[p]) for p in missed]}"
        # exact duplicates are always found (identical signatures)
        assert (0, 130) in got_pairs and (1, 131) in got_pairs
        # at least 80% of planted near-dups found
        found_planted = sum(1 for i in range(10) if (i, i + 120) in got_pairs)
        assert found_planted >= 8

    def test_minhash_no_false_floods(self):
        df = _doc_corpus()
        got = minhash_lsh_pairs(rd.from_pandas(df), threshold=0.5).to_pandas()
        # random 60-word docs over 500 vocab are not 50% similar
        assert len(got) < 40

    def test_minhash_verify_distributed_matches_naive(self):
        """The verify stage ships signatures as rows through two keyed
        exchanges (round-3 verdict: no O(candidates) driver
        materialization).  Its estimates must equal the naive driver-side
        per-pair signature comparison bit-for-bit, including pairs below
        threshold being absent."""
        import ray.data as rd_

        from mysql_binlog_ray.stages.dedup import (
            MinHasher,
            verify_minhash_pairs_distributed,
        )

        df = _doc_corpus()
        hasher_kwargs = dict(
            text_col="text", id_col="doc_id", num_perm=128, bands=32, shingle_k=5
        )
        # candidate pairs: a mix of planted near-dups and random non-dups
        pairs = pd.DataFrame(
            {
                "doc_a": [0, 1, 2, 3, 5, 10, 40],
                "doc_b": [130, 131, 122, 123, 125, 20, 90],
            }
        )
        out = (
            verify_minhash_pairs_distributed(
                rd_.from_pandas(df), pairs, hasher_kwargs, threshold=0.5
            )
            .to_pandas()
            .sort_values(["doc_a", "doc_b"])
            .reset_index(drop=True)
        )
        # the returned dataset carries only (doc_a, doc_b, est) — never a
        # signature column (the O(pairs)-on-driver contract)
        assert sorted(out.columns) == ["doc_a", "doc_b", "est_jaccard"]
        mh = MinHasher(**hasher_kwargs)
        sigs = {i: mh.signature(t) for i, t in zip(df["doc_id"], df["text"])}
        naive = {
            (a, b): float((sigs[a] == sigs[b]).mean())
            for a, b in zip(pairs["doc_a"], pairs["doc_b"])
        }
        expect = {k: v for k, v in naive.items() if v >= 0.5}
        got = {
            (int(r.doc_a), int(r.doc_b)): float(r.est_jaccard)
            for r in out.itertuples()
        }
        assert got == expect

    def test_simhash_exact_dup_distance_zero(self):
        df = _doc_corpus()
        got = simhash_pairs(rd.from_pandas(df), max_hamming=0).to_pandas()
        pairs = set(zip(got["doc_a"], got["doc_b"]))
        assert (0, 130) in pairs and (1, 131) in pairs

    def test_simhash_pairs_match_bruteforce_oracle(self):
        """Two-level banding must find EVERY pair with hamming <= 3
        (pigeonhole exactness), with hamming values exact."""
        from mysql_binlog_ray.stages.dedup import SimHasher, popcount64

        df = _doc_corpus().head(80)
        hasher = SimHasher()
        sims = np.array([hasher.simhash(t) for t in df["text"]], dtype=np.uint64)
        ids = df["doc_id"].to_numpy()
        iu, ju = np.triu_indices(len(ids), 1)
        hd = popcount64(sims[iu] ^ sims[ju])
        keep = hd <= 3
        oracle = {
            (int(ids[i]), int(ids[j])): int(h)
            for i, j, h in zip(iu[keep], ju[keep], hd[keep])
        }
        got = simhash_pairs(rd.from_pandas(df), max_hamming=3).to_pandas()
        got_map = {(int(a), int(b)): int(h) for a, b, h in zip(got["doc_a"], got["doc_b"], got["hamming"])}
        assert got_map == oracle

    def test_popcount64_vectorized_matches_python(self):
        from mysql_binlog_ray.stages.dedup import popcount64

        rng = np.random.default_rng(3)
        x = rng.integers(0, 1 << 63, size=200, dtype=np.uint64)
        x[0], x[1] = 0, np.uint64(0xFFFFFFFFFFFFFFFF)
        got = popcount64(x)
        exp = [bin(int(v)).count("1") for v in x]
        assert got.tolist() == exp


@pytest.mark.usefixtures("ray_session")
class TestText:
    def test_gear_chunk_stats_matches_naive_definition(self):
        import random

        from mysql_binlog_ray.stages.dedup import word_hash64
        from mysql_binlog_ray.stages.text import _gear_table, gear_chunk_stats

        G = _gear_table()

        def naive(text, bits=6):
            b = text.encode()
            n = len(b)
            cuts = []
            for i in range(1, n):  # cut after position i, never after last
                h = 0
                for j in range(max(1, i - 63), i + 1):
                    h = (h + int(G[b[j - 1]]) * (2 ** (i - j))) % (1 << 64)
                if h % (1 << bits) == 0:
                    cuts.append(i)
            return (
                0 if n == 0 else len(cuts) + 1,
                cuts[0] if cuts else -1,
                cuts[-1] if cuts else -1,
            )

        rng = random.Random(11)
        texts = [
            "".join(rng.choice("abcdef ghij.,") for _ in range(rng.randint(0, 180)))
            for _ in range(30)
        ] + ["", "x", "y" * 63, "z" * 64, "w" * 65]
        df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
        got = gear_chunk_stats(df)
        for i, t in enumerate(texts):
            row = got.iloc[i]
            assert (row.n_chunks, row.first_cut, row.last_cut) == naive(t), i

    def test_gear_chunks_shift_locally_not_globally(self):
        # the CDC property: prepending text re-chunks only a prefix —
        # cuts far past the edit keep their content-relative positions
        from mysql_binlog_ray.stages.text import gear_chunk_stats

        base = "the quick brown fox jumps over the lazy dog. " * 20
        edited = "INSERTED PREFIX " + base
        df = pd.DataFrame({"doc_id": [1, 2], "text": [base, edited]})
        g = gear_chunk_stats(df)
        # both documents end with the same content, so their LAST cut
        # must land on the same content-relative offset from the end
        end_off_base = len(base) - g.iloc[0].last_cut
        end_off_edit = len(edited) - g.iloc[1].last_cut
        assert g.iloc[0].n_chunks > 2
        assert end_off_base == end_off_edit

    def test_chunk_dedup_duplicated_corpus_property(self):
        # duplicating every document doubles the chunk stream but the
        # unique-chunk store stays IDENTICAL — the storage-dedup point
        import numpy as np

        from mysql_binlog_ray.stages.text import gear_chunk_rows

        texts = [
            "the quick brown fox jumps over the lazy dog. " * 8,
            "pack my box with five dozen liquor jugs! " * 6,
            "",
        ]
        base = pd.DataFrame({"doc_id": range(3), "text": texts})
        double = pd.DataFrame({"doc_id": range(6), "text": texts + texts})

        def stats(df):
            r = gear_chunk_rows(df)
            u = r.groupby("h")["l"].min()
            return (
                len(r),
                int(r["l"].sum()),
                len(u),
                int(u.sum()),
            )

        n1, t1, u1, uc1 = stats(base)
        n2, t2, u2, uc2 = stats(double)
        assert t1 == sum(len(t) for t in texts)
        assert (n2, t2) == (2 * n1, 2 * t1)
        assert (u2, uc2) == (u1, uc1)
        assert uc1 <= t1 and u1 <= n1

    def test_gear_chunks_non_ascii_internally_consistent(self):
        # byte-offset kernel: multibyte text chunks are BYTE slices, so
        # lengths sum to the utf-8 byte length and re-hashing the
        # reassembled bytes round-trips (no char/byte misalignment)
        from mysql_binlog_ray.stages.text import gear_chunk_rows, gear_chunk_stats

        texts = ["café au lait — naïve façade " * 12, "日本語のテキスト " * 20]
        df = pd.DataFrame({"doc_id": [1, 2], "text": texts})
        rows = gear_chunk_rows(df)
        assert rows["l"].sum() == sum(len(t.encode()) for t in texts)
        stats = gear_chunk_stats(df)
        assert (stats["n_chunks"] >= 1).all()
        # stats and rows agree on chunk counts per corpus
        assert stats["n_chunks"].sum() == len(rows)

    def test_token_counter_matches_split_semantics(self):
        df = pd.DataFrame({"doc_id": [1, 2, 3], "text": ["a b  c", "  x ", ""]})
        out = TokenCounter()(df)
        assert out["n_tokens"].tolist() == [3, 1, 1]  # '' -> [''] -> 1 (SQL parity)

    def test_langid_heuristic(self):
        df = pd.DataFrame(
            {
                "text": [
                    "the cat sat on the mat and it is that for a reason",
                    "le chat est sur la table et il est pour une raison",
                    "el gato es un animal y la casa es de los padres",
                    "der hund ist ein tier und die katze ist von den",
                    "这是一个中文文档 关于数据处理的内容",
                ]
            }
        )
        out = LangId()(df)
        assert out["pred_lang"].tolist() == ["en", "fr", "es", "de", "zh"]

    def test_quality_scorer_fields(self):
        df = pd.DataFrame({"text": ["The quick brown fox jumps over the lazy dog. " * 5, "!!!"]})
        out = QualityScorer()(df)
        assert out["q_score"].iloc[0] > out["q_score"].iloc[1]
        assert 0 <= out["q_punct_ratio"].iloc[0] < 0.2

    def test_fingerprint_stable_and_content_sensitive(self):
        df = pd.DataFrame({"text": ["hello world document body", "hello world document body", "different text entirely"]})
        out = Fingerprinter()(df)
        assert out["fingerprint"].iloc[0] == out["fingerprint"].iloc[1]
        assert out["fingerprint"].iloc[0] != out["fingerprint"].iloc[2]


@pytest.mark.usefixtures("ray_session")
class TestSimilarity:
    def _vectors(self, n=300, dim=16, seed=5):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(n, dim))
        return pd.DataFrame({"vec_id": range(n), "embedding": list(m)})

    def test_brute_force_topk_matches_numpy(self):
        df = self._vectors()
        m = np.vstack(df["embedding"])
        mn = m / np.linalg.norm(m, axis=1, keepdims=True)
        q = mn[7]
        sims = mn @ q
        exp = np.argsort(-sims, kind="stable")[:5]
        out = brute_force_topk(rd.from_pandas(df), q[None, :], k=5)
        assert out["vec_id"].tolist() == list(exp)

    def _mixture(self, n=4000, dim=32, n_centers=16, skew=None, seed=0):
        """Gaussian-mixture corpus (the regime IVF is FOR — pure random
        gaussians have no cluster structure and any recall bar on them is
        meaningless).  ``skew=0.8`` plants 80% of vectors in one center."""
        rng = np.random.default_rng(seed)
        centers = rng.normal(size=(n_centers, dim))
        if skew is None:
            labels = rng.integers(0, n_centers, n)
        else:
            labels = np.where(
                rng.random(n) < skew, 0, rng.integers(1, n_centers, n)
            )
        m = centers[labels] + 0.3 * rng.normal(size=(n, dim))
        df = pd.DataFrame(
            {"vec_id": np.arange(n), "embedding": list(m.astype(np.float64))}
        )
        queries = m[rng.choice(n, 20, replace=False)]
        return df, queries

    def _recall_at_10(self, ds, idx, queries, nprobe):
        exact = brute_force_topk(ds, queries, k=10)
        ex = {qi: set(g["vec_id"]) for qi, g in exact.groupby("query_id")}
        got = idx.search(queries, k=10, nprobe=nprobe)
        by_q = {qi: set(g["vec_id"]) for qi, g in got.groupby("query_id")}
        return np.mean(
            [len(by_q.get(qi, set()) & ex[qi]) / 10 for qi in ex]
        )

    def test_ivf_recall_vs_exact(self):
        """recall@10 >= 0.9 vs exact with tuned nprobe (round-3 verdict:
        the old 0.6 bar on structureless vectors couldn't catch a
        centroid-assignment regression; measured recall here is 1.0)."""
        df, queries = self._mixture()
        ds = rd.from_pandas(df).repartition(8)
        idx = IvfIndex.build(ds, nlist=16, sample_size=1024)
        recall = self._recall_at_10(ds, idx, queries, nprobe=6)
        assert recall >= 0.9, f"IVF recall too low: {recall}"

    def test_ivf_skewed_cluster_recall_and_no_materialization(self):
        """80% of vectors in ONE cluster: recall must hold (measured
        0.96) AND no task may materialize the hot cluster — search is a
        per-batch map; the assigned dataset's blocks keep the input
        partitioning (a groupby-per-cluster rewrite would fuse the hot
        cluster's ~3200 rows into one task's block)."""
        df, queries = self._mixture(skew=0.8, seed=1)
        ds = rd.from_pandas(df).repartition(8)
        idx = IvfIndex.build(ds, nlist=16, sample_size=1024)
        recall = self._recall_at_10(ds, idx, queries, nprobe=8)
        assert recall >= 0.9, f"skewed IVF recall too low: {recall}"
        # structural guard: every block of the cluster-assigned corpus is
        # bounded by the input partitioning (4000/8 = 500 rows), so no
        # task ever holds the hot cluster's full row set
        sizes = [
            meta.num_rows
            for bundle in idx.assigned.iter_internal_ref_bundles()
            for _, meta in bundle.blocks
        ]
        assert sizes and max(sizes) <= 500 + 1, sizes


@pytest.mark.usefixtures("ray_session")
class TestMultimodal:
    def _imgs(self):
        return pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "image": pa.array([b"\x89PNGfakebytes" * 10, b""], pa.binary()),
            }
        )

    def test_image_decode_schema(self):
        out = ImageDecoder()(self._imgs())
        assert {"width", "height", "n_pixels", "mean_luma"} <= set(out.column_names)
        assert out.column("n_pixels").to_pylist()[0] > 0

    def test_image_decode_real_mode_raises(self):
        with pytest.raises(NotImplementedError):
            ImageDecoder(fake=False)(self._imgs())

    def test_resize_deterministic(self):
        a = ImageResizer()(self._imgs()).column("thumb").to_pylist()
        b = ImageResizer()(self._imgs()).column("thumb").to_pylist()
        assert a == b

    def test_audio_and_video_stubs(self):
        t = pa.table({"audio": pa.array([b"\x01\x02" * 16000], pa.binary())})
        out = AudioFeaturizer()(t)
        assert out.column("duration_sec").to_pylist()[0] == pytest.approx(1.0)
        tv = pa.table({"video": pa.array([b"frame" * 100], pa.binary())})
        vout = VideoFrameSampler(n_frames=4)(tv)
        assert len(vout.column("frames").to_pylist()[0]) == 4

    def test_actor_pool_run(self):
        ds = rd.from_arrow(self._imgs())
        out = ds.map_batches(ImageDecoder, batch_format="pyarrow", batch_size=64, concurrency=2)
        assert out.count() == 2


class TestRealCodecs:
    """The stdlib codecs are REAL: PNG encode/decode roundtrips
    bit-exactly (all five scanline filters unfilter correctly, CRCs
    checked), WAV roundtrips through the wave module, and the stages
    dispatch on payload magic."""

    def test_png_roundtrip_gray_rgb_rgba(self):
        from mysql_binlog_ray.stages.multimodal import decode_png, encode_png

        rng = np.random.default_rng(3)
        for shape in [(5, 7), (1, 1), (16, 3), (6, 4, 3), (3, 9, 4)]:
            px = rng.integers(0, 256, size=shape, dtype=np.uint8)
            out = decode_png(encode_png(px))
            np.testing.assert_array_equal(out, px)

    def test_png_all_filter_types_unfilter(self):
        """Hand-filter scanlines with each PNG filter type and check the
        decoder recovers the original pixels (our encoder only emits
        filter 0, so this exercises Sub/Up/Average/Paeth directly)."""
        import struct
        import zlib

        from mysql_binlog_ray.stages.multimodal import PNG_SIG, decode_png

        def paeth(a, b, c):
            p = a + b - c
            pa_, pb, pc_ = abs(p - a), abs(p - b), abs(p - c)
            if pa_ <= pb and pa_ <= pc_:
                return a
            return b if pb <= pc_ else c

        rng = np.random.default_rng(5)
        h, w, bpp = 5, 6, 1
        px = rng.integers(0, 256, size=(h, w), dtype=np.uint8).astype(int)
        filters = [0, 1, 2, 3, 4]
        raw = bytearray()
        for y, f in enumerate(filters):
            raw.append(f)
            for x in range(w):
                cur = px[y][x]
                a = px[y][x - bpp] if x >= bpp else 0
                b = px[y - 1][x] if y else 0
                c = px[y - 1][x - bpp] if y and x >= bpp else 0
                if f == 0:
                    v = cur
                elif f == 1:
                    v = cur - a
                elif f == 2:
                    v = cur - b
                elif f == 3:
                    v = cur - ((a + b) >> 1)
                else:
                    v = cur - paeth(a, b, c)
                raw.append(v & 0xFF)

        def chunk(tag, payload):
            crc = zlib.crc32(tag + payload) & 0xFFFFFFFF
            return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", crc)

        data = (
            PNG_SIG
            + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0))
            + chunk(b"IDAT", zlib.compress(bytes(raw)))
            + chunk(b"IEND", b"")
        )
        np.testing.assert_array_equal(decode_png(data), px.astype(np.uint8))

    def test_png_crc_mismatch_raises(self):
        from mysql_binlog_ray.stages.multimodal import decode_png, encode_png

        data = bytearray(encode_png(np.zeros((2, 2), dtype=np.uint8)))
        data[20] ^= 0xFF  # corrupt a byte inside IHDR
        with pytest.raises(ValueError, match="CRC"):
            decode_png(bytes(data))

    def test_wav_roundtrip(self):
        from mysql_binlog_ray.stages.multimodal import decode_wav, encode_wav

        rng = np.random.default_rng(4)
        samples = rng.integers(-32768, 32767, size=777, dtype=np.int16)
        rate, got = decode_wav(encode_wav(samples, sample_rate=8000))
        assert rate == 8000
        np.testing.assert_array_equal(got, samples)

    def test_image_decoder_real_path(self):
        from mysql_binlog_ray.stages.multimodal import ImageDecoder, encode_png

        rng = np.random.default_rng(6)
        px = rng.integers(0, 256, size=(10, 32), dtype=np.uint8)
        t = pa.table({"image": pa.array([encode_png(px)], pa.binary())})
        out = ImageDecoder(fake=False)(t)  # real PNG never hits the stub
        assert out.column("width").to_pylist() == [32]
        assert out.column("height").to_pylist() == [10]
        assert out.column("n_pixels").to_pylist() == [320]
        expect = float(int(px.sum(dtype=np.int64))) / px.size / 255.0
        assert out.column("mean_luma").to_pylist()[0] == expect

    def test_image_resizer_real_path_roundtrips(self):
        from mysql_binlog_ray.stages.multimodal import (
            ImageResizer,
            decode_png,
            encode_png,
            resize_nearest,
        )

        rng = np.random.default_rng(7)
        px = rng.integers(0, 256, size=(20, 16), dtype=np.uint8)
        t = pa.table({"image": pa.array([encode_png(px)], pa.binary())})
        out = ImageResizer(target=(8, 4), fake=False)(t)
        thumb = decode_png(out.column("thumb").to_pylist()[0])
        np.testing.assert_array_equal(thumb, resize_nearest(px, 8, 4))
        assert thumb.shape == (4, 8)

    def test_audio_featurizer_real_path(self):
        from mysql_binlog_ray.stages.multimodal import AudioFeaturizer, encode_wav

        samples = np.array([100, -200, 300, -400], dtype=np.int16)
        t = pa.table({"audio": pa.array([encode_wav(samples, 16000)], pa.binary())})
        out = AudioFeaturizer(fake=False)(t)
        assert out.column("n_frames").to_pylist() == [4]
        assert out.column("duration_sec").to_pylist()[0] == 4 / 16000
        assert out.column("energy").to_pylist()[0] == 1000.0 / 4 / 32768.0

    def test_video_sampler_real_frame_stream(self):
        from mysql_binlog_ray.stages.multimodal import (
            VideoFrameSampler,
            decode_png,
            encode_png,
        )

        frames = [
            encode_png(np.full((2, 2), i, dtype=np.uint8)) for i in range(6)
        ]
        stream = b"".join(frames)
        t = pa.table({"video": pa.array([stream], pa.binary())})
        out = VideoFrameSampler(n_frames=4, fake=False)(t)
        got = out.column("frames").to_pylist()[0]
        assert len(got) == 4
        # evenly spaced real frames: indices floor(i*6/4) = 0,1,3,4
        assert [int(decode_png(f)[0, 0]) for f in got] == [0, 1, 3, 4]
        # two frames -> both kept verbatim
        t2 = pa.table({"video": pa.array([b"".join(frames[:2])], pa.binary())})
        got2 = VideoFrameSampler(n_frames=4, fake=False)(t2).column("frames").to_pylist()[0]
        assert got2 == frames[:2]

    def test_jpeg_dimensions_marker_walk(self):
        """Baseline SOF0, progressive SOF2, fill bytes, APP segments —
        the real-world JPEG header shapes, hand-assembled per the public
        marker layout (no codec library involved)."""
        import struct

        from mysql_binlog_ray.stages.multimodal import parse_jpeg_dimensions

        def seg(marker, payload):
            return bytes([0xFF, marker]) + struct.pack(">H", len(payload) + 2) + payload

        def sof(marker, w, h):
            return seg(marker, struct.pack(">BHHB", 8, h, w, 3) + b"\x01\x11\x00" * 3)

        app0 = seg(0xE0, b"JFIF\x00\x01\x02\x00\x00\x01\x00\x01\x00\x00")
        dqt = seg(0xDB, b"\x00" + bytes(64))
        # baseline
        jpg = b"\xff\xd8" + app0 + dqt + sof(0xC0, 640, 480) + b"\xff\xd9"
        assert parse_jpeg_dimensions(jpg) == (640, 480)
        # progressive + a fill byte before the SOF marker
        jpg2 = b"\xff\xd8" + app0 + b"\xff" + sof(0xC2, 31, 17)[1:] + b"\xff\xd9"
        assert parse_jpeg_dimensions(jpg2) == (31, 17)
        # no SOF before EOI
        import pytest as _pytest

        with _pytest.raises(ValueError, match="no SOF"):
            parse_jpeg_dimensions(b"\xff\xd8" + app0 + b"\xff\xd9")
        with _pytest.raises(ValueError, match="missing SOI"):
            parse_jpeg_dimensions(b"PNG?")

    @staticmethod
    def _mp3_frames(n, bitrate_kbps=128, rate=44100, v1=True):
        """n valid MPEG Layer III frames (header + zero audio data)."""
        if v1:
            hdr = 0xFFFB0000 | {128: 0x9, 192: 0xB}[bitrate_kbps] << 12
            samples, flen = 1152, 1152 // 8 * bitrate_kbps * 1000 // rate
        else:  # MPEG2, 22050 Hz
            hdr = 0xFFF30000 | 0x9 << 12  # idx 9 -> 80 kbps in the V2 table
            samples, flen = 576, 576 // 8 * 80_000 // rate
        out = b""
        for _ in range(n):
            out += int.to_bytes(hdr, 4, "big") + bytes(flen - 4)
        return out, samples

    def test_mp3_duration_frame_walk(self):
        from mysql_binlog_ray.stages.multimodal import parse_mp3_duration

        data, samples = self._mp3_frames(5)
        sec, frames, rate = parse_mp3_duration(data)
        assert (frames, rate) == (5, 44100)
        assert sec == 5 * samples / 44100
        # ID3v2 prefix (syncsafe length) skipped
        id3 = b"ID3\x04\x00\x00" + bytes([0, 0, 1, 3]) + bytes(131)
        sec2, frames2, _ = parse_mp3_duration(id3 + data)
        assert (sec2, frames2) == (sec, 5)
        # VBR: mixed bitrates still walk exactly
        d128, _ = self._mp3_frames(2, bitrate_kbps=128)
        d192, _ = self._mp3_frames(3, bitrate_kbps=192)
        sec3, frames3, _ = parse_mp3_duration(d128 + d192)
        assert frames3 == 5 and sec3 == sec
        # MPEG2 half-rate frames
        d2, s2 = self._mp3_frames(4, rate=22050, v1=False)
        secv2, fv2, rv2 = parse_mp3_duration(d2)
        assert (fv2, rv2) == (4, 22050) and secv2 == 4 * s2 / 22050
        import pytest as _pytest

        with _pytest.raises(ValueError):
            parse_mp3_duration(b"not audio at all")

    @staticmethod
    def _ogg(codec: bytes, rate: int, granule: int) -> bytes:
        import struct

        def page(gran, payload, htype):
            return (
                b"OggS\x00" + bytes([htype])
                + struct.pack("<q", gran)
                + struct.pack("<IIi", 7, 0, 0)  # serial, seq, crc (unchecked)
                + bytes([1, len(payload)])
                + payload
            )

        if codec == b"vorbis":
            ident = b"\x01vorbis" + struct.pack("<IB", 0, 2) + struct.pack("<I", rate)
        else:
            ident = b"OpusHead" + bytes([1, 2]) + struct.pack("<H", 0) + struct.pack("<I", rate)
        return page(0, ident, 2) + page(granule, b"\x00", 4)

    def test_ogg_duration_granule(self):
        from mysql_binlog_ray.stages.multimodal import parse_ogg_duration

        sec, n, rate = parse_ogg_duration(self._ogg(b"vorbis", 44100, 88200))
        assert (sec, n, rate) == (2.0, 88200, 44100)
        # Opus granules tick at 48 kHz regardless of the input rate field
        sec, n, rate = parse_ogg_duration(self._ogg(b"opus", 16000, 96000))
        assert (sec, n, rate) == (2.0, 96000, 48000)
        import pytest as _pytest

        with _pytest.raises(ValueError, match="OggS"):
            parse_ogg_duration(b"RIFF....WAVE")

    def test_ogg_capture_pattern_inside_payload(self):
        """The bytes 'OggS' occurring INSIDE a packet payload (legal in
        compressed audio) must not be mistaken for a page boundary —
        pages are walked forward via their segment tables, never found
        by searching for the capture pattern."""
        import struct

        from mysql_binlog_ray.stages.multimodal import parse_ogg_duration

        def page(gran, payload, htype):
            return (
                b"OggS\x00" + bytes([htype])
                + struct.pack("<q", gran)
                + struct.pack("<IIi", 7, 0, 0)
                + bytes([1, len(payload)])
                + payload
            )

        ident = b"\x01vorbis" + struct.pack("<IB", 0, 2) + struct.pack("<I", 44100)
        # middle page's payload contains a FAKE OggS header with a huge
        # granule; the true final page carries granule 88200
        evil_payload = b"OggS\x00\x04" + struct.pack("<q", 999_999_999) + bytes(12)
        data = (
            page(0, ident, 2)
            + page(-1, evil_payload, 0)
            + page(88200, b"\x00", 4)
        )
        sec, n, rate = parse_ogg_duration(data)
        assert (sec, n, rate) == (2.0, 88200, 44100)

    def test_mp3_trailing_garbage_with_sync_bits(self):
        """A corrupt/truncated tail whose first bytes happen to carry the
        11 sync bits (but invalid fields) is trailing garbage, not a
        crash — the walked frames' duration is returned."""
        from mysql_binlog_ray.stages.multimodal import parse_mp3_duration

        data, samples = self._mp3_frames(3)
        sec, frames, rate = parse_mp3_duration(data + b"\xff\xfb\x00\x00junk")
        assert (frames, rate) == (3, 44100)
        assert sec == 3 * samples / 44100

    def test_mp3_duration_bit_exact_single_division(self):
        """Single-rate files must produce EXACTLY total_samples/rate (one
        float division) — a per-frame running sum drifts by ULPs from
        ~6 frames on and breaks bit-exact oracle comparison."""
        from mysql_binlog_ray.stages.multimodal import parse_mp3_duration

        for k in (6, 7, 13):
            data, samples = self._mp3_frames(k)
            sec, frames, _ = parse_mp3_duration(data)
            assert sec == (k * samples) / 44100

    def test_decoder_fake_payload_with_sync_like_prefix(self):
        """fake=True byte-oracle payloads that happen to start with an
        MPEG sync word or a JPEG SOI (but don't parse) must take the
        documented fake path, not crash or emit MPEG-walk garbage."""
        from mysql_binlog_ray.stages.multimodal import AudioFeaturizer, ImageDecoder

        # sync bits set but bitrate index 0 -> not a parseable frame
        p = b"\xff\xe7\x00\x00random-not-mp3-bytes"
        t = pa.table({"audio": pa.array([p], pa.binary())})
        out = AudioFeaturizer(fake=True)(t)
        assert out.column("n_frames").to_pylist() == [len(p) // 2]
        assert out.column("duration_sec").to_pylist() == [(len(p) // 2) / 16000]

        jp = b"\xff\xd8\xffnot-actually-a-jpeg"
        ti = pa.table({"image": pa.array([jp], pa.binary())})
        io_ = ImageDecoder(fake=True)(ti)
        from mysql_binlog_ray.stages.multimodal import _fake_dims

        assert io_.column("width").to_pylist() == [_fake_dims(jp)[0]]
        # fake=False on the same payloads still raises loudly
        import pytest as _pytest

        with _pytest.raises(ValueError):
            AudioFeaturizer(fake=False)(t)
        with _pytest.raises(ValueError):
            ImageDecoder(fake=False)(ti)

    def test_split_png_stream_recovers_after_corrupt_frame(self):
        """A truncated frame (no IEND) or a bogus chunk length must not
        swallow the VALID frames that follow it."""
        from mysql_binlog_ray.stages.multimodal import (
            PNG_SIG,
            encode_png,
            split_png_stream,
        )

        good = encode_png(np.full((2, 2), 9, dtype=np.uint8))
        truncated = good[: len(good) // 2]  # loses IEND
        frames = split_png_stream(truncated + good + good)
        assert frames == [truncated, good, good]

    def test_decoders_route_jpeg_mp3_ogg(self):
        """ImageDecoder / AudioFeaturizer compute over GENUINE headers for
        the two most common real-world formats, with the
        no-codec-available column honestly NULL."""
        import struct

        from mysql_binlog_ray.stages.multimodal import AudioFeaturizer, ImageDecoder

        def seg(marker, payload):
            return bytes([0xFF, marker]) + struct.pack(">H", len(payload) + 2) + payload

        jpg = (
            b"\xff\xd8"
            + seg(0xE0, b"JFIF\x00")
            + seg(0xC0, struct.pack(">BHHB", 8, 40, 64, 1) + b"\x01\x11\x00")
            + b"\xff\xd9"
        )
        t = pa.table({"image": pa.array([jpg], pa.binary())})
        out = ImageDecoder(fake=False)(t)
        assert out.column("width").to_pylist() == [64]
        assert out.column("height").to_pylist() == [40]
        assert out.column("n_pixels").to_pylist() == [2560]
        assert out.column("mean_luma").to_pylist() == [None]

        mp3, samples = self._mp3_frames(3)
        ogg = self._ogg(b"vorbis", 22050, 44100)
        ta = pa.table({"audio": pa.array([mp3, ogg], pa.binary())})
        aout = AudioFeaturizer(fake=False)(ta)
        assert aout.column("duration_sec").to_pylist() == [3 * samples / 44100, 2.0]
        assert aout.column("n_frames").to_pylist() == [3, 44100]
        assert aout.column("energy").to_pylist() == [None, None]

    def test_split_png_stream_signature_inside_idat(self):
        """The 8-byte PNG signature occurring INSIDE a frame's payload
        must not split the stream mid-frame: frame ends come from walking
        the chunk chain (IHDR..IEND), not from signature search."""
        import struct
        import zlib

        from mysql_binlog_ray.stages.multimodal import (
            PNG_SIG,
            encode_png,
            split_png_stream,
        )

        def chunk(ctype: bytes, payload: bytes) -> bytes:
            return (
                struct.pack(">I", len(payload))
                + ctype
                + payload
                + struct.pack(">I", zlib.crc32(ctype + payload) & 0xFFFFFFFF)
            )

        # craft a frame carrying the raw signature bytes in an ancillary
        # chunk (same failure shape as a signature landing in IDAT)
        ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 0)
        raw = zlib.compress(b"\x00\x01\x02\x00\x03\x04")
        evil = (
            PNG_SIG
            + chunk(b"IHDR", ihdr)
            + chunk(b"tEXt", b"payload\x00" + PNG_SIG + b"tail")
            + chunk(b"IDAT", raw)
            + chunk(b"IEND", b"")
        )
        normal = encode_png(np.full((2, 2), 7, dtype=np.uint8))
        frames = split_png_stream(evil + normal + evil)
        assert frames == [evil, normal, evil]


@pytest.mark.usefixtures("ray_session")
class TestRelationalKernels:
    def test_preagg_groupby_equals_pandas(self):
        from mysql_binlog_ray.stages.relational import preagg_groupby

        rng = np.random.default_rng(0)
        df = pd.DataFrame({"k": rng.integers(0, 5, 1000), "v": rng.normal(size=1000)})
        out = (
            preagg_groupby(
                rd.from_pandas(df).repartition(6),
                ["k"],
                {"n": (None, "count"), "mx": ("v", "max"), "mn": ("v", "min")},
            )
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        exp = (
            df.groupby("k")
            .agg(n=("v", "size"), mx=("v", "max"), mn=("v", "min"))
            .reset_index()
        )
        pd.testing.assert_frame_equal(out[["k", "n", "mx", "mn"]], exp, check_dtype=False)

    def test_top_k_with_ties(self):
        from mysql_binlog_ray.stages.relational import top_k

        df = pd.DataFrame({"a": [5, 5, 3, 9, 9, 1], "id": [1, 2, 3, 4, 5, 6]})
        out = top_k(rd.from_pandas(df).repartition(3), [("a", True), ("id", False)], 3).to_pandas()
        assert out["id"].tolist() == [4, 5, 1]


@pytest.mark.usefixtures("ray_session")
class TestJoinsAndSketches:
    def test_asof_join_matches_pandas(self):
        from mysql_binlog_ray.stages.relational import asof_join

        rng = np.random.default_rng(4)
        left = pd.DataFrame(
            {"k": rng.integers(0, 10, 200), "t": rng.integers(0, 1000, 200), "lv": range(200)}
        )
        right = pd.DataFrame(
            {"k": rng.integers(0, 10, 100), "t": rng.integers(0, 1000, 100), "rv": range(100)}
        )
        right = right.drop_duplicates(["k", "t"], keep="last")
        out = (
            asof_join(rd.from_pandas(left), rd.from_pandas(right), by="k", on="t", right_cols=["rv"], suffix="")
            .to_pandas()
            .sort_values(["k", "t", "lv"])
            .reset_index(drop=True)
        )
        exp = pd.merge_asof(
            left.sort_values("t"),
            right.sort_values("t"),
            on="t",
            by="k",
            direction="backward",
        ).sort_values(["k", "t", "lv"]).reset_index(drop=True)
        assert out["rv"].fillna(-1).astype(int).tolist() == exp["rv"].fillna(-1).astype(int).tolist()

    def test_hash_join_counts(self):
        from mysql_binlog_ray.stages.relational import hash_join

        l = pd.DataFrame({"a": [1, 1, 2, 3], "x": [10, 11, 12, 13]})
        r = pd.DataFrame({"b": [1, 2, 4], "y": ["p", "q", "r"]})
        out = hash_join(rd.from_pandas(l), rd.from_pandas(r), on="a", right_on="b", num_partitions=2).to_pandas()
        assert len(out) == 3
        assert set(out["y"]) == {"p", "q"}

    def test_hash_join_broadcast_path_parity(self):
        """The small-side broadcast fast path must equal the shuffle join
        (broadcast_bytes=0 forces the all-to-all) for every join type it
        is sound for — including NULL keys (never match) and duplicate
        keys (multiplicities)."""
        from mysql_binlog_ray.stages.relational import hash_join

        rng = np.random.default_rng(7)
        l = pd.DataFrame(
            {
                "k": [int(x) for x in rng.integers(0, 40, 300)] + [None] * 5,
                "a": list(range(305)),
            }
        )
        r = pd.DataFrame(
            {
                "rk": [int(x) for x in rng.integers(20, 60, 80)] + [None] * 3,
                "b": [f"v{i}" for i in range(83)],
            }
        )

        def run(jt, broadcast_bytes):
            out = hash_join(
                rd.from_pandas(l),
                rd.from_pandas(r),
                on="k",
                right_on="rk",
                join_type=jt,
                broadcast_bytes=broadcast_bytes,
            ).to_pandas()
            return (
                out[sorted(out.columns)]
                .astype({"b": "object"} if "b" in out else {})
                .sort_values(sorted(out.columns))
                .reset_index(drop=True)
            )

        for jt in ["inner", "left_outer", "right_outer"]:
            fast = run(jt, 32 << 20)
            slow = run(jt, 0)
            assert list(fast.columns) == list(slow.columns), jt
            pd.testing.assert_frame_equal(fast, slow, check_dtype=False)

    def test_hll_within_error(self):
        from mysql_binlog_ray.stages.sketches import approx_distinct

        df = pd.DataFrame({"u": [f"user{i % 3000}" for i in range(20000)]})
        est = approx_distinct(rd.from_pandas(df).repartition(8), "u")
        assert abs(est - 3000) / 3000 < 0.05

    def test_stratified_first_n(self):
        from mysql_binlog_ray.stages.relational import stratified_first_n

        df = pd.DataFrame({"g": ["a"] * 10 + ["b"] * 3, "id": list(range(10)) + [100, 101, 102]})
        out = stratified_first_n(rd.from_pandas(df), "g", "id", 5).to_pandas()
        assert len(out[out["g"] == "a"]) == 5 and len(out[out["g"] == "b"]) == 3
        assert sorted(out[out["g"] == "a"]["id"]) == [0, 1, 2, 3, 4]


@pytest.mark.usefixtures("ray_session")
class TestExactNearDup:
    def test_ngram_jaccard_dedup_matches_bruteforce(self):
        """The distributed inverted-index join must reproduce the O(n^2)
        brute-force Jaccard pairs exactly (pair set AND values)."""
        from mysql_binlog_ray.stages.dedup import ngram_jaccard_dedup

        df = _doc_corpus()
        oracle = ngram_jaccard_pairs(df, threshold=0.5)
        got = ngram_jaccard_dedup(rd.from_pandas(df), threshold=0.5).to_pandas()
        m = got.merge(
            oracle, on=["doc_a", "doc_b"], how="outer", indicator=True, suffixes=("_g", "_o")
        )
        assert (m["_merge"] == "both").all()
        assert (m["jaccard_g"] == m["jaccard_o"]).all()

    def test_embedding_neardup_exact_matches_numpy(self):
        from mysql_binlog_ray.stages.similarity import embedding_neardup_exact

        rng = np.random.default_rng(9)
        base = rng.normal(size=(40, 16))
        # plant near-dups: rows 50..59 are noisy copies of 0..9
        dups = base[:10] + rng.normal(scale=0.01, size=(10, 16))
        vecs = np.vstack([base, dups])
        df = pd.DataFrame({"vec_id": np.arange(len(vecs)), "embedding": list(vecs)})
        got = embedding_neardup_exact(rd.from_pandas(df), threshold=0.95)
        # oracle
        mn = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        sims = mn @ mn.T
        iu = np.triu_indices(len(vecs), 1)
        mask = sims[iu] >= 0.95
        exp = set(zip(iu[0][mask], iu[1][mask]))
        assert set(zip(got["id_a"], got["id_b"])) == exp
        assert {(i, i + 40) for i in range(10)} <= exp  # planted pairs found


class TestOracleParityEdgeCases:
    """Pass-5 review: query/oracle drift on inputs the clean ASCII
    testdata never exercises — verified directly against DuckDB."""

    def _docs(self):
        return pd.DataFrame(
            {
                "doc_id": [1, 2, 3, 4, 5, 6],
                "text": [
                    "\thello world\n",
                    "a b  c",
                    "",
                    "   ",
                    "ends with n\n",
                    "café né — naïve",  # non-ASCII letters
                ],
            }
        )

    def test_token_and_quality_oracle_parity_on_nasty_text(self):
        import duckdb

        import __ray_entry__ as e
        from mysql_binlog_ray.stages.text import QualityScorer, TokenCounter

        docs = self._docs()
        con = duckdb.connect()
        con.register("documents", docs)

        orc = con.sql(e.oracle_sql()["doc_token_stats"]).df().sort_values("doc_id")
        got = TokenCounter()(docs.copy())[["doc_id", "n_tokens"]].sort_values("doc_id")
        assert orc["n_tokens"].tolist() == got["n_tokens"].tolist()

        orc_q = con.sql(e.oracle_sql()["quality_documents"]).df().sort_values("doc_id").reset_index(drop=True)
        got_q = QualityScorer()(docs.copy())[
            ["doc_id", "q_n_chars", "q_punct_ratio", "q_stop_ratio", "q_score"]
        ].sort_values("doc_id").reset_index(drop=True)
        for c in ["q_n_chars", "q_punct_ratio", "q_stop_ratio", "q_score"]:
            assert (got_q[c].to_numpy() == orc_q[c].to_numpy()).all(), c

    def test_fingerprint_oracle_parity_on_short_docs(self):
        """Docs of <= 8 bytes (no 8-windows) take the fold path — the
        oracle's UNION branch must match it exactly, including empty."""
        import duckdb

        import __ray_entry__ as e
        from mysql_binlog_ray.stages.text import Fingerprinter

        docs = pd.DataFrame(
            {
                "doc_id": [1, 2, 3, 4, 5, 6],
                "text": ["", "a", "abcdefgh", "abcdefghi", "12345678", "the cat sat"],
            }
        )
        con = duckdb.connect()
        con.register("documents", docs)
        orc = (
            con.sql(e.oracle_sql()["fingerprint_documents"]).df()
            .sort_values("doc_id").reset_index(drop=True)
        )
        got = (
            Fingerprinter()(docs.copy())[["doc_id", "fingerprint", "content_md5"]]
            .sort_values("doc_id").reset_index(drop=True)
        )
        assert len(orc) == len(got) == 6
        assert orc["fingerprint"].tolist() == got["fingerprint"].tolist()
        assert orc["content_md5"].tolist() == got["content_md5"].tolist()

    def test_preagg_groupby_duplicate_source_aggregates(self):
        ds = rd.from_pandas(pd.DataFrame({"k": ["a", "a", "b"], "x": [1, 5, 3]}))
        from mysql_binlog_ray.stages.relational import preagg_groupby

        out = (
            preagg_groupby(ds, ["k"], {"lo": ("x", "min"), "lo2": ("x", "min"), "n": (None, "count")})
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        assert out["lo"].tolist() == [1, 3]
        assert out["lo2"].tolist() == [1, 3]
        assert out["n"].tolist() == [2, 1]

    def test_top_k_empty_input(self):
        from mysql_binlog_ray.stages.relational import top_k

        ds = rd.from_pandas(pd.DataFrame({"a": [1, 2], "b": [3, 4]})).filter(
            lambda r: r["a"] > 10
        )
        out = top_k(ds, [("a", True)], 5)
        assert out.num_rows == 0

    def test_brute_force_topk_tie_break_within_batch(self):
        from mysql_binlog_ray.stages.similarity import brute_force_topk

        # duplicate embeddings straddling the k boundary: the LOWER id
        # must win, exactly like the SQL ORDER BY sim DESC, vec_id
        vecs = [[1.0, 0.0], [0.5, 0.5], [0.5, 0.5], [0.0, 1.0]]
        df = pd.DataFrame({"vec_id": [10, 3, 1, 7], "embedding": vecs})
        out = brute_force_topk(rd.from_pandas(df), np.array([[1.0, 0.0]]), k=2)
        assert out["vec_id"].tolist() == [10, 1]

    def test_hll_ignores_nulls(self):
        from mysql_binlog_ray.stages.sketches import HyperLogLog

        h = HyperLogLog()
        h.add_strings(["a", None, "b", None, "a"])
        est = h.estimate()
        assert 1.5 < est < 2.5  # two members, never three


class TestRound3Scale:
    """Round-3 asks: adaptive reduce fanout, tiled IVF-clustered near-dup
    (skew + cap sentinel), IVF search tie-break."""

    def test_keyed_reduce_adaptive_fanout_matches_single_partition(self):
        from mysql_binlog_ray.stages.relational import keyed_reduce

        rng = np.random.default_rng(5)
        df = pd.DataFrame(
            {
                "k": rng.integers(0, 200, 5000),
                "v": rng.normal(size=5000),
            }
        )

        def combine(g: pd.DataFrame) -> pd.DataFrame:
            agg = g.groupby("k", sort=False)["v"].agg(["sum", "size"])
            return agg.reset_index().rename(columns={"sum": "s", "size": "n"})

        one = (
            keyed_reduce(rd.from_pandas(df), ["k"], combine, num_parts=1)
            .to_pandas().sort_values("k").reset_index(drop=True)
        )
        # tiny per-partition target -> adaptive path forces MANY partitions
        many = (
            keyed_reduce(rd.from_pandas(df), ["k"], combine, target_part_bytes=4096)
            .to_pandas().sort_values("k").reset_index(drop=True)
        )
        assert one["k"].tolist() == many["k"].tolist()
        assert np.allclose(one["s"].to_numpy(), many["s"].to_numpy())
        assert one["n"].tolist() == many["n"].tolist()

    def test_adaptive_num_parts_small_input_routes_to_single_task(self):
        from mysql_binlog_ray.stages.relational import adaptive_num_parts

        # tiny inputs skip the exchange entirely...
        assert adaptive_num_parts(1024) == 1
        assert adaptive_num_parts(4 << 20) == 1
        # ...unless the caller pinned a floor (compute-bound combines)
        assert adaptive_num_parts(1024, min_parts=16) == 16
        # above the small threshold the CPU-scaled floor applies
        assert adaptive_num_parts(64 << 20) >= 4
        # zero/unknown bytes never take the single-task shortcut
        assert adaptive_num_parts(0) >= 4

    def test_full_outer_join_zero_row_file_leaf_keeps_right_rows(self, tmp_path):
        # Ray skips map UDFs on 0-row blocks, so a single-task full
        # outer over an empty left leaf must short-circuit via the
        # known-empty path or it silently drops every unmatched right row
        import pyarrow.parquet as pq

        from mysql_binlog_ray.stages.relational import hash_join

        zero = pa.table({"k": pa.array([], pa.int64()), "v": pa.array([], pa.string())})
        p = str(tmp_path / "zero.parquet")
        pq.write_table(zero, p)
        left = rd.read_parquet(p)
        right = rd.from_arrow(pa.table({"k2": [1, 2], "w": ["a", "b"]})).materialize()
        out = (
            hash_join(left, right, on="k", right_on="k2", join_type="full_outer")
            .to_pandas()
        )
        assert len(out) == 2
        assert sorted(out["w"].tolist()) == ["a", "b"]

    def test_keyed_reduce_single_task_empty_input(self):
        from mysql_binlog_ray.stages.relational import keyed_reduce

        df = pd.DataFrame({"k": pd.Series(dtype="int64"), "v": pd.Series(dtype="float64")})

        def combine(g: pd.DataFrame) -> pd.DataFrame:
            agg = g.groupby("k", sort=False)["v"].sum().reset_index()
            return agg

        out = keyed_reduce(rd.from_pandas(df), ["k"], combine, num_parts=1).to_pandas()
        assert len(out) == 0

    def test_asof_join_adaptive_matches_fixed(self):
        from mysql_binlog_ray.stages.relational import asof_join

        rng = np.random.default_rng(7)
        left = pd.DataFrame(
            {"k": rng.integers(0, 20, 400).astype(str), "t": rng.integers(0, 1000, 400)}
        )
        right = pd.DataFrame(
            {"k": rng.integers(0, 20, 200).astype(str), "t": rng.integers(0, 1000, 200),
             "rv": rng.normal(size=200)}
        ).drop_duplicates(["k", "t"])

        def run(**kw):
            return (
                asof_join(rd.from_pandas(left), rd.from_pandas(right), by="k", on="t",
                          right_cols=["rv"], suffix="", **kw)
                .to_pandas().sort_values(["k", "t"]).reset_index(drop=True)
            )

        fixed = run(num_buckets=1)
        auto = run(target_part_bytes=4096)
        assert fixed["k"].tolist() == auto["k"].tolist()
        assert np.allclose(
            fixed["rv"].fillna(-1).to_numpy(), auto["rv"].fillna(-1).to_numpy()
        )

    def _skewed_vecs(self, n_big=80, n_small=20, dim=16, seed=13):
        rng = np.random.default_rng(seed)
        big = rng.normal(scale=0.05, size=(n_big, dim)) + np.eye(dim)[0] * 2
        small = rng.normal(scale=0.05, size=(n_small, dim)) + np.eye(dim)[1] * 2
        vecs = np.vstack([big, small])
        return pd.DataFrame({"vec_id": np.arange(len(vecs)), "embedding": list(vecs)})

    def test_embedding_neardup_pairs_skewed_cluster_tiled(self):
        """One cluster holds 80% of vectors; tiny tiles force many
        (batch x tile) steps — the pair set must still equal the exact
        all-pairs scan (near-dups never straddle these two clusters)."""
        from mysql_binlog_ray.stages.similarity import (
            embedding_neardup_exact,
            embedding_neardup_pairs,
        )

        df = self._skewed_vecs()
        got = embedding_neardup_pairs(
            rd.from_pandas(df), threshold=0.995, nlist=2, tile_rows=16
        )
        exp = embedding_neardup_exact(rd.from_pandas(df), threshold=0.995, tile_rows=16)
        assert set(zip(got["id_a"], got["id_b"])) == set(zip(exp["id_a"], exp["id_b"]))
        assert len(exp) > 10  # the clusters are tight: plenty of real pairs
        assert (got["skipped_size"] == 0).all()

    def test_embedding_neardup_pairs_cap_sentinel(self):
        from mysql_binlog_ray.stages.similarity import embedding_neardup_pairs

        df = self._skewed_vecs()
        with pytest.warns(UserWarning, match="max_cluster_size"):
            got = embedding_neardup_pairs(
                rd.from_pandas(df), threshold=0.995, nlist=2, tile_rows=16,
                max_cluster_size=50,
            )
        sent = got[got["skipped_size"] > 0]
        assert len(sent) == 1 and (sent["id_b"] == -1).all()
        assert int(sent["skipped_size"].iloc[0]) == 80
        # real pairs from the surviving small cluster only
        real = got[got["skipped_size"] == 0]
        assert (real["id_a"] >= 80).all() and (real["id_b"] >= 80).all()
        assert len(real) > 0

    def test_ivf_search_tie_break_within_batch(self):
        """Duplicate embeddings at the k boundary: the LOWER id must win
        inside each batch's local top-k (mirrors brute_force_topk)."""
        vecs = [[1.0, 0.0], [0.5, 0.5], [0.5, 0.5], [0.0, 1.0]]
        df = pd.DataFrame({"vec_id": [10, 3, 1, 7], "embedding": vecs})
        idx = IvfIndex.build(rd.from_pandas(df), nlist=1, sample_size=4)
        out = idx.search(np.array([[1.0, 0.0]]), k=2, nprobe=1)
        assert out["vec_id"].tolist() == [10, 1]

    def test_ngram_dedup_no_self_pairs_and_full_hash(self):
        from mysql_binlog_ray.stages.dedup import ngram_jaccard_dedup

        df = _doc_corpus()
        got = ngram_jaccard_dedup(rd.from_pandas(df), threshold=0.3).to_pandas()
        assert (got["doc_a"] < got["doc_b"]).all()


class TestRound3NewOperators:
    """sessionize / interval_join / exact heavy hitters."""

    def test_sessionize_gap_edges(self):
        from mysql_binlog_ray.stages.relational import sessionize

        ts = pd.to_datetime(
            [
                "2024-01-01 00:00:00",  # u1 s0
                "2024-01-01 00:29:59",  # u1 s0 (within gap)
                "2024-01-01 00:59:59",  # u1 s0 (exactly gap -> NOT a break)
                "2024-01-01 01:30:00",  # u1 s1 (> gap)
                "2024-01-01 05:00:00",  # u2 s0 (new key)
            ]
        )
        df = pd.DataFrame({"u": [1, 1, 1, 1, 2], "ts": ts})
        out = (
            sessionize(rd.from_pandas(df), "u", "ts", gap_sec=1800)
            .to_pandas().sort_values(["u", "session_id"]).reset_index(drop=True)
        )
        assert out[["u", "session_id", "n_events"]].values.tolist() == [
            [1, 0, 3],
            [1, 1, 1],
            [2, 0, 1],
        ]

    def test_interval_join_multiplicity_and_bounds(self):
        from mysql_binlog_ray.stages.relational import interval_join

        left = pd.DataFrame({"k": [1, 1, 2], "t": [5, 11, 5]})
        ivals = pd.DataFrame(
            {"k": [1, 1, 2], "lo": [0, 5, 6], "hi": [5, 10, 9], "tag": ["a", "b", "c"]}
        )
        out = (
            interval_join(rd.from_pandas(left), ivals, by="k", ts_col="t", lo_col="lo", hi_col="hi", take_cols=["tag"])
            .to_pandas().sort_values(["k", "t", "tag"]).reset_index(drop=True)
        )
        # k=1 t=5 matches BOTH [0,5] and [5,10] (inclusive bounds);
        # t=11 matches none; k=2 t=5 outside [6,9]
        assert out[["k", "t", "tag"]].values.tolist() == [[1, 5, "a"], [1, 5, "b"]]

    def test_space_saving_guarantee_and_exact_hh(self):
        from mysql_binlog_ray.stages.sketches import SpaceSaving, exact_heavy_hitters

        rng = np.random.default_rng(2)
        vals = rng.zipf(1.6, 20_000).clip(max=5000)
        true = pd.Series(vals).value_counts()
        sk = SpaceSaving(k=64)
        # feed in chunks like per-batch partials
        for chunk in np.array_split(vals, 13):
            vc = pd.Series(chunk).value_counts()
            sk.add_counts(vc.index.to_numpy(), vc.to_numpy())
        assert sk.n == len(vals)
        thr = len(vals) // 64 + 1  # guarantee regime
        cand = set(sk.candidates(thr))
        truth = set(true.index[true > thr])
        assert truth <= cand  # superset guarantee
        # end-to-end exact two-pass equals groupby-having
        df = pd.DataFrame({"v": vals})
        out = exact_heavy_hitters(rd.from_pandas(df), "v", threshold=int(thr), k=64)
        exp = true[true > thr]
        assert dict(zip(out["v"], out["n"])) == {int(k): int(v) for k, v in exp.items()}

    def test_exact_heavy_hitters_fallback_when_guarantee_void(self):
        from mysql_binlog_ray.stages.sketches import exact_heavy_hitters

        rng = np.random.default_rng(3)
        vals = rng.integers(0, 50, 4000)
        df = pd.DataFrame({"v": vals})
        # k=8 << distinct: threshold below n/k voids the sketch guarantee
        out = exact_heavy_hitters(rd.from_pandas(df), "v", threshold=85, k=8)
        true = pd.Series(vals).value_counts()
        exp = true[true > 85]
        assert dict(zip(out["v"], out["n"])) == {int(k): int(v) for k, v in exp.items()}

    def test_sessionize_null_keys_one_group(self):
        from mysql_binlog_ray.stages.relational import sessionize

        ts = pd.to_datetime(
            [
                "2024-01-01 00:00:00",  # NULL s0
                "2024-01-01 00:10:00",  # NULL s0
                "2024-01-01 02:00:00",  # NULL s1
                "2024-01-01 00:00:00",  # u1 s0
            ]
        )
        df = pd.DataFrame({"u": pd.array([None, None, None, 1], dtype="Int64"), "ts": ts})
        out = (
            sessionize(rd.from_pandas(df), "u", "ts", gap_sec=1800)
            .to_pandas().sort_values(["u", "session_id"], na_position="last")
            .reset_index(drop=True)
        )
        # SQL PARTITION BY parity: all NULL keys are ONE partition
        nulls = out[out["u"].isna()]
        assert len(nulls) == 2
        assert sorted(nulls["n_events"].tolist()) == [1, 2]
        assert len(out[out["u"].notna()]) == 1

    def test_interval_join_chunked_matches_unchunked(self):
        from mysql_binlog_ray.stages import relational as R

        rng = np.random.default_rng(7)
        # one hot key holding most intervals (the skew the chunking bounds)
        ivals = pd.DataFrame(
            {
                "k": np.r_[np.full(200, 1), rng.integers(2, 10, 40)],
                "lo": rng.integers(0, 50, 240),
            }
        )
        ivals["hi"] = ivals["lo"] + rng.integers(0, 30, 240)
        left = pd.DataFrame(
            {"k": rng.integers(1, 10, 500), "t": rng.integers(0, 90, 500)}
        )

        def run(cap):
            return (
                R.interval_join(
                    rd.from_pandas(left), ivals, by="k", ts_col="t",
                    lo_col="lo", hi_col="hi", max_intermediate_rows=cap,
                )
                .to_pandas().sort_values(["k", "t", "lo", "hi"]).reset_index(drop=True)
            )

        pd.testing.assert_frame_equal(run(4 << 20), run(64))

    def test_exact_heavy_hitters_null_group(self):
        from mysql_binlog_ray.stages.sketches import exact_heavy_hitters

        vals = pd.array([1] * 50 + [2] * 5 + [None] * 60, dtype="Int64")
        df = pd.DataFrame({"v": vals})
        out = exact_heavy_hitters(rd.from_pandas(df), "v", threshold=40, k=16)
        # SQL GROUP BY HAVING parity: NULL group (60) and 1 (50) qualify
        got = {(-1 if pd.isna(v) else int(v)): int(n) for v, n in zip(out["v"], out["n"])}
        assert got == {1: 50, -1: 60}

    def test_space_saving_merge_superset_guarantee(self):
        from mysql_binlog_ray.stages.sketches import SpaceSaving

        rng = np.random.default_rng(11)
        vals = rng.zipf(1.5, 30_000).clip(max=8000)
        halves = np.array_split(vals, 7)
        sketches = []
        for h in halves:
            vc = pd.Series(h).value_counts()
            sk = SpaceSaving(k=64)
            sk.add_counts(vc.index.to_numpy(), vc.to_numpy())
            sketches.append(sk)
        acc = sketches[0]
        for s in sketches[1:]:
            acc = acc.merge(s)
        assert acc.n == len(vals)
        true = pd.Series(vals).value_counts()
        thr = len(vals) // 64 + 1
        if acc.is_complete_above(thr):
            truth = set(true.index[true > thr])
            assert truth <= set(acc.candidates(thr))
        # upper bounds never understate true counts
        for v, (u, e) in acc.counts.items():
            assert u >= int(true.get(v, 0))
            assert u - e <= int(true.get(v, 0))




class TestRelationalBreadth2:
    """hopping window / percentiles / grouped top-N / anti join / pivot /
    term frequency."""

    def test_hopping_window_membership(self):
        from mysql_binlog_ray.stages.relational import hopping_window

        ts = pd.to_datetime(["2024-01-01 00:00:05", "2024-01-01 00:00:35"])
        df = pd.DataFrame({"ts": ts})
        out = (
            hopping_window(rd.from_pandas(df), "ts", [], width_sec=60, hop_sec=30,
                           spec={"n": (None, "count")})
            .to_pandas().sort_values("window_start").reset_index(drop=True)
        )
        base = int(ts[0].timestamp()) // 30 * 30
        # t=5 covers windows [-30, 0]; t=35 covers [0, 30]
        got = dict(zip(out["window_start"], out["n"]))
        assert got == {base - 30: 1, base: 2, base + 30: 1}

    def test_group_percentiles_matches_duckdb(self):
        import duckdb

        from mysql_binlog_ray.stages.relational import group_percentiles

        rng = np.random.default_rng(5)
        df = pd.DataFrame(
            {"g": rng.integers(0, 7, 500), "x": rng.normal(size=500).round(3)}
        )
        got = (
            group_percentiles(rd.from_pandas(df), ["g"], "x", [0.25, 0.5, 0.95])
            .to_pandas().sort_values("g").reset_index(drop=True)
        )
        exp = duckdb.sql(
            """SELECT g, quantile_disc(x, 0.25) AS p25, quantile_disc(x, 0.5) AS p50,
                      quantile_disc(x, 0.95) AS p95 FROM df GROUP BY g ORDER BY g"""
        ).df()
        pd.testing.assert_frame_equal(
            got[["g", "p25", "p50", "p95"]].astype({"g": "int64"}), exp.astype({"g": "int64"})
        )

    def test_grouped_top_n_matches_pandas(self):
        from mysql_binlog_ray.stages.relational import grouped_top_n

        rng = np.random.default_rng(6)
        df = pd.DataFrame(
            {
                "g": rng.integers(0, 20, 300),
                "v": rng.integers(0, 50, 300),
                "id": np.arange(300),
            }
        )
        got = (
            grouped_top_n(rd.from_pandas(df), ["g"], [("v", True), ("id", False)], 2)
            .to_pandas().sort_values(["g", "id"]).reset_index(drop=True)
        )
        exp = (
            df.sort_values(["v", "id"], ascending=[False, True])
            .groupby("g", sort=False).head(2)
            .sort_values(["g", "id"]).reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got[["g", "v", "id"]], exp[["g", "v", "id"]])

    def test_broadcast_anti_join(self):
        from mysql_binlog_ray.stages.relational import broadcast_anti_join

        left = pd.DataFrame({"k": [1, 2, 3, 4], "v": list("abcd")})
        right = pd.DataFrame({"r": [2, 2, 4]})
        got = (
            broadcast_anti_join(rd.from_pandas(left), rd.from_pandas(right), "k", "r")
            .to_pandas().sort_values("k").reset_index(drop=True)
        )
        assert got["k"].tolist() == [1, 3]

    def test_pivot_counts(self):
        from mysql_binlog_ray.stages.relational import pivot_counts

        df = pd.DataFrame(
            {"u": [1, 1, 1, 2, 2], "c": ["a", "a", "b", "b", "zzz"]}
        )
        got = (
            pivot_counts(rd.from_pandas(df), "u", "c", ["a", "b"])
            .to_pandas().sort_values("u").reset_index(drop=True)
        )
        assert got[["u", "n_a", "n_b"]].values.tolist() == [[1, 2, 1], [2, 0, 1]]

    def test_term_frequency_topk_tiebreak(self):
        from mysql_binlog_ray.stages.text import term_frequency_topk

        df = pd.DataFrame(
            {"text": ["b a a", "c b X!", None, "d d d"]}
        )
        got = term_frequency_topk(rd.from_pandas(df), "text", k=3).to_pandas()
        # counts: d=3, a=2, b=2, c=1, x=1; ties by term asc
        assert list(zip(got["term"], got["n"])) == [("d", 3), ("a", 2), ("b", 2)]

    def test_term_frequency_tokenless_block(self):
        """A block whose texts yield ZERO ascii tokens must not poison the
        shuffle schema (np.unique([]) defaults to float64)."""
        from mysql_binlog_ray.stages.text import term_frequency_topk

        empty = pd.DataFrame({"text": ["漢字テキスト", None, "!!!"]})
        full = pd.DataFrame({"text": ["a b a"]})
        # two separate blocks: one token-free, one normal
        got = term_frequency_topk(
            rd.from_pandas([empty, full]), "text", k=5
        ).to_pandas()
        assert list(zip(got["term"], got["n"])) == [("a", 2), ("b", 1)]

    def test_broadcast_anti_join_null_keys(self):
        """NOT EXISTS semantics: NULL = NULL is never true, so a NULL-keyed
        left row survives even when the right side contains NULL keys."""
        from mysql_binlog_ray.stages.relational import broadcast_anti_join

        left = pd.DataFrame({"k": [1.0, np.nan, 3.0], "v": list("abc")})
        right = pd.DataFrame({"r": [np.nan, 3.0]})
        got = (
            broadcast_anti_join(rd.from_pandas(left), rd.from_pandas(right), "k", "r")
            .to_pandas().sort_values("v").reset_index(drop=True)
        )
        assert got["v"].tolist() == ["a", "b"]  # NaN row kept, k=3 dropped

    def test_pivot_counts_null_key_and_category(self):
        """GROUP BY emits the NULL-key group and keys whose categories are
        all NULL (zero counts) — crosstab would drop both."""
        from mysql_binlog_ray.stages.relational import pivot_counts

        df = pd.DataFrame(
            {
                "u": [1.0, np.nan, 7.0, 7.0],
                "c": ["a", "a", None, None],
            }
        )
        got = (
            pivot_counts(rd.from_pandas(df), "u", "c", ["a", "b"])
            .to_pandas().sort_values("u").reset_index(drop=True)
        )
        by_key = {
            ("nan" if pd.isna(r["u"]) else r["u"]): (r["n_a"], r["n_b"])
            for _, r in got.iterrows()
        }
        assert by_key == {1.0: (1, 0), 7.0: (0, 0), "nan": (1, 0)}

    def test_group_percentiles_null_values(self):
        """NULL values are ignored in the rank (SQL aggregate semantics);
        an all-NULL group still appears, with NULL percentiles."""
        import duckdb

        from mysql_binlog_ray.stages.relational import group_percentiles

        df = pd.DataFrame(
            {
                "g": [1, 1, 1, 1, 2, 2],
                "x": [1.0, 2.0, np.nan, np.nan, np.nan, np.nan],
            }
        )
        got = (
            group_percentiles(rd.from_pandas(df), ["g"], "x", [0.5, 0.95])
            .to_pandas().sort_values("g").reset_index(drop=True)
        )
        exp = duckdb.sql(
            """SELECT g, quantile_disc(x, 0.5) AS p50, quantile_disc(x, 0.95) AS p95
               FROM df GROUP BY g ORDER BY g"""
        ).df()
        pd.testing.assert_frame_equal(
            got[["g", "p50", "p95"]].astype({"g": "int64", "p50": "float64", "p95": "float64"}),
            exp.astype({"g": "int64"}),
        )

    def test_group_percentiles_rank_rounding(self):
        """ceil(q*n) float error must not shift the discrete rank:
        quantile_disc(x, 0.07) over 100 rows picks the 7th smallest."""
        from mysql_binlog_ray.stages.relational import group_percentiles

        df = pd.DataFrame({"g": np.zeros(100, dtype=np.int64), "x": np.arange(100.0)})
        got = group_percentiles(rd.from_pandas(df), ["g"], "x", [0.07]).to_pandas()
        assert got["p7"].tolist() == [6.0]  # 7th smallest of 0..99


class TestTrainingDataOps2:
    """json extraction / repetition stats / contamination / redaction."""

    def test_add_json_number_field_fallback_and_strict(self):
        from mysql_binlog_ray.stages.jsonx import add_json_number_field

        df = pd.DataFrame(
            {
                "p": [
                    '{"k": 7}',
                    '{"a": 1, "k": -2.5}',
                    '{"k": "str"}',      # non-numeric -> NaN
                    '{"a": 2}',          # absent -> NaN
                    None,                # null -> NaN
                    '{"k": 1e3}',
                    '{ "k" :  42 }',
                ]
            }
        )
        for strict in (False, True):
            got = add_json_number_field(
                rd.from_pandas(df), "p", "k", strict=strict
            ).to_pandas()["k"]
            exp = [7.0, -2.5, np.nan, np.nan, np.nan, 1000.0, 42.0]
            np.testing.assert_array_equal(got.to_numpy(), np.array(exp))

    def test_add_json_number_field_nested_exact_without_strict(self):
        """A nested object carrying the same field name BEFORE the
        top-level occurrence must NOT shadow it: rows with nested
        objects bypass the regex fast path (single-'{' guard), so the
        default mode is exact, matching the SQL '$.k' oracle."""
        from mysql_binlog_ray.stages.jsonx import add_json_number_field

        df = pd.DataFrame({"p": ['{"sub": {"k": 1}, "k": 9}', '{"sub": {"k": 1}}']})
        for strict in (False, True):
            got = add_json_number_field(
                rd.from_pandas(df), "p", "k", strict=strict
            ).to_pandas()["k"]
            np.testing.assert_array_equal(got.to_numpy(), np.array([9.0, np.nan]))

    def test_add_json_number_field_quoted_numeric_coerces(self):
        """TRY_CAST(props->>'$.k' AS DOUBLE) semantics: quoted numeric
        strings coerce; bool / null / object / list values are NULL."""
        from mysql_binlog_ray.stages.jsonx import add_json_number_field

        df = pd.DataFrame(
            {"p": ['{"k": "7"}', '{"k": "-2.5e1"}', '{"k": true}',
                   '{"k": null}', '{"k": [1]}', '{"k": {"a": 1}}']}
        )
        got = add_json_number_field(rd.from_pandas(df), "p", "k").to_pandas()["k"]
        np.testing.assert_array_equal(
            got.to_numpy(), np.array([7.0, -25.0, np.nan, np.nan, np.nan, np.nan])
        )

    def test_repetition_stats_hand_example(self):
        from mysql_binlog_ray.stages.text import repetition_stats

        df = pd.DataFrame(
            {
                "doc_id": [10, 11, 12, 13],
                "text": [
                    "a b a b a",       # 5 words, 2 distinct, top a=3, top gram "a b"=2
                    "x",               # 1 word, no 2-grams
                    "",                # empty
                    "c c\nc c",        # newline inside doc: 4 words, gram "c c" x3
                ],
            }
        )
        got = (
            repetition_stats(rd.from_pandas(df), "text", "doc_id")
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        assert got.values.tolist() == [
            [10, 5, 2, 3, 2],
            [11, 1, 1, 1, 0],
            [12, 0, 0, 0, 0],
            [13, 4, 1, 4, 3],
        ]

    def test_contamination_check_hand_example(self):
        from mysql_binlog_ray.stages.dedup import contamination_check

        bench = pd.DataFrame({"doc_id": [0], "text": ["the quick brown fox jumps"]})
        corpus = pd.DataFrame(
            {
                "doc_id": [100, 101, 102],
                "text": [
                    "a quick brown fox ran",   # grams: "quick brown fox" + "brown fox ran"(no) -> 1
                    "nothing in common here at all",
                    "the quick brown fox",     # "the quick brown", "quick brown fox" -> 2
                ],
            }
        )
        got = (
            contamination_check(
                rd.from_pandas(corpus), rd.from_pandas(bench), "text", "doc_id", ngram=3
            )
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        assert got.values.tolist() == [[100, 1], [102, 2]]

    def test_contamination_short_docs_and_block_boundary(self):
        """Docs shorter than the gram width emit nothing; gram windows
        never cross document boundaries."""
        from mysql_binlog_ray.stages.dedup import contamination_check

        bench = pd.DataFrame({"doc_id": [0], "text": ["b c d"]})
        # two docs in ONE batch whose concatenation would fake "b c d"
        corpus = pd.DataFrame({"doc_id": [1, 2, 3], "text": ["a b c", "d e f", "b c"]})
        got = contamination_check(
            rd.from_pandas(corpus), rd.from_pandas(bench), "text", "doc_id", ngram=3
        ).to_pandas()
        assert len(got) == 0

    def test_redactor_pii_presets(self):
        from mysql_binlog_ray.stages.text import Redactor

        df = pd.DataFrame(
            {
                "t": [
                    "mail me at jo.doe+x@foo.org or call +1 555-123-4567",
                    "server 10.0.255.3 ticket #991",
                    None,
                ]
            }
        )
        out = Redactor("t", ["email", "ipv4", "phone", "id"], out_col="clean")(df)
        assert out["clean"].tolist() == [
            "mail me at [EMAIL] or call [PHONE]",
            "server [IP] ticket #[ID]",
            "",
        ]
        assert out["n_redacted"].tolist() == [2, 2, 0]


class TestDropEmptyBlocks:
    """Ray skips map UDFs on 0-row blocks, so schema-less empties from
    all-to-all ops crash the block-level join — drop_empty_blocks must
    remove them physically."""

    def test_empty_blocks_dropped_and_join_survives(self, ray_session):
        import pyarrow as pa
        import ray
        import ray.data as rd

        from mysql_binlog_ray.stages.relational import drop_empty_blocks, hash_join

        left = rd.from_arrow([pa.table({"k": [1, 2], "x": [10, 20]}), pa.table({})])
        left = drop_empty_blocks(left, {"k": "int64", "x": "int64"})
        for bundle in left.iter_internal_ref_bundles():
            for ref, meta in bundle.blocks:
                assert meta.num_rows != 0
        right = rd.from_arrow(pa.table({"k": [2, 3], "y": [200, 300]}))
        out = (
            hash_join(left, right, on="k", right_on="k", join_type="full_outer")
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        assert list(out["k"]) == [1, 2, 3]
        assert out["x"].tolist()[2] != out["x"].tolist()[2] or out["x"].isna()[2]

    def test_all_empty_returns_schemad_empty(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from mysql_binlog_ray.stages.relational import drop_empty_blocks

        ds = rd.from_arrow([pa.table({}), pa.table({})])
        out = drop_empty_blocks(ds, {"k": "int64"})
        assert out.count() == 0
        assert out.schema().names == ["k"]

    def test_proto_optional_schema_recovered_from_bundles(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from mysql_binlog_ray.stages.relational import drop_empty_blocks

        schema = pa.schema([("k", pa.int64()), ("v", pa.string())])
        ds = rd.from_arrow([schema.empty_table(), schema.empty_table()])
        out = drop_empty_blocks(ds)
        assert out.count() == 0
        assert out.schema().names == ["k", "v"]


class TestHashJoinEmptyBlockRace:
    """Ray 2.49's hash-shuffle join races on 0-row input blocks: the
    shuffle task early-returns on an empty block WITHOUT broadcasting
    that side's schema while the driver marks schemas as broadcast
    anyway, so when an empty filtered block is shuffled first the
    aggregators finalize zero-column partitions and pa.Table.join dies
    with "No match for key field".  Before hash_join scrubbed its inputs
    this repro failed 10/10 at 8 CPUs (driver row
    skew_join_events_customer, CORRECTNESS_r03); after it must pass 100%
    of trials."""

    def _skewed_inputs(self):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        # 32 blocks; the filter keeps rows in only the LAST one, so the
        # shuffle almost surely sees an empty block first.
        parts = []
        for i in range(32):
            keep = 7 if i == 31 else -1
            parts.append(
                pa.table(
                    {
                        "k": pa.array([keep] * 100, type=pa.int64()),
                        "x": pa.array(np.arange(100), type=pa.int64()),
                    }
                )
            )
        left = rd.from_arrow(parts)
        right = rd.from_arrow(
            pa.table(
                {
                    "k": pa.array([7], type=pa.int64()),
                    "y": pa.array([99], type=pa.int64()),
                }
            )
        )
        return left, right

    def test_mostly_empty_filtered_partitions_20x(self, ray_session):
        import pyarrow.compute as pc

        from mysql_binlog_ray.stages.relational import hash_join

        left, right = self._skewed_inputs()

        def keep_pos(b):
            return b.filter(pc.greater(b.column("k"), 0))

        for _ in range(20):
            l2 = left.map_batches(keep_pos, batch_format="pyarrow")
            assert hash_join(l2, right, "k", "k").count() == 100

    def test_known_empty_sides_short_circuit(self, ray_session):
        import pyarrow.compute as pc

        from mysql_binlog_ray.stages.relational import hash_join

        left, right = self._skewed_inputs()

        def keep_none(b):
            return b.filter(pc.greater(b.column("k"), 10**9))

        def keep_pos(b):
            return b.filter(pc.greater(b.column("k"), 0))

        l_empty = left.map_batches(keep_none, batch_format="pyarrow")
        r_empty = right.map_batches(keep_none, batch_format="pyarrow")
        l_live = left.map_batches(keep_pos, batch_format="pyarrow")

        # empty left, inner: empty result with the full joined schema
        out = hash_join(l_empty, right, "k", "k")
        assert out.count() == 0
        assert out.schema().names == ["k", "x", "y"]
        # empty right, left_outer: every left row survives, right cols null
        rows = hash_join(l_live, r_empty, "k", "k", join_type="left_outer").take_all()
        assert len(rows) == 100
        assert all(r["y"] is None for r in rows)
        # empty right, full_outer == left side with null right cols
        assert (
            hash_join(l_live, r_empty, "k", "k", join_type="full_outer").count()
            == 100
        )
        # empty left, full_outer == right side with null left cols
        rows = hash_join(l_empty, right, "k", "k", join_type="full_outer").take_all()
        assert len(rows) == 1 and rows[0]["y"] == 99 and rows[0]["x"] is None
        # both empty
        out = hash_join(l_empty, r_empty, "k", "k", join_type="full_outer")
        assert out.count() == 0
        assert out.schema().names == ["k", "x", "y"]


class TestRemoveDuplicateSpans:
    """Substring-level exact dedup vs a brute-force per-corpus reference:
    within-doc repeats, overlapping windows, short and empty docs."""

    def _brute(self, texts, w=3, min_count=2):
        from collections import Counter

        from mysql_binlog_ray.stages.dedup import _ascii_words

        toks = {i: _ascii_words(t or "") for i, t in texts.items()}
        cnt = Counter(
            " ".join(ws[i : i + w])
            for ws in toks.values()
            for i in range(len(ws) - w + 1)
        )
        out = {}
        for i, ws in toks.items():
            cov = [False] * len(ws)
            for s in range(len(ws) - w + 1):
                if cnt[" ".join(ws[s : s + w])] >= min_count:
                    for j in range(s, s + w):
                        cov[j] = True
            out[i] = (" ".join(t for t, c in zip(ws, cov) if not c), sum(cov))
        return out

    def _run(self, texts, w=3, min_count=2):
        import ray.data as rd

        from mysql_binlog_ray.stages.dedup import remove_duplicate_spans

        df = pd.DataFrame({"doc_id": list(texts), "text": list(texts.values())})
        got = (
            remove_duplicate_spans(
                rd.from_pandas(df).repartition(3), w=w, min_count=min_count
            )
            .to_pandas()
            .set_index("doc_id")
            .sort_index()
        )
        return {i: (r["clean_text"], r["n_removed"]) for i, r in got.iterrows()}

    def test_matches_brute_force(self, ray_session):
        texts = {
            0: "the quick brown fox jumps over the lazy dog",
            1: "a quick brown fox ran away yesterday morning",   # shares 'quick brown fox'
            2: "hello world again hello world again hello",       # within-doc repeat
            3: "too short",                                       # < w words
            4: "",                                                # empty
            5: "unique words only in this very document here",
        }
        assert self._run(texts) == self._brute(texts)

    def test_full_removal_yields_empty_text(self, ray_session):
        texts = {0: "x y z", 1: "x y z"}
        got = self._run(texts, w=3)
        assert got[0] == ("", 3) and got[1] == ("", 3)

    def test_min_count_three(self, ray_session):
        texts = {0: "p q r s", 1: "p q r t", 2: "p q r u"}
        got = self._run(texts, w=3, min_count=3)
        exp = self._brute(texts, w=3, min_count=3)
        assert got == exp
        assert got[0][1] == 3  # 'p q r' occurs 3x -> removed


class TestTextNormalizer:
    def test_adversarial_parity_with_duckdb(self, ray_session):
        import duckdb
        import ray.data as rd

        from mysql_binlog_ray.stages.text import TextNormalizer

        df = pd.DataFrame(
            {
                "doc_id": np.arange(7, dtype=np.int64),
                "text": [
                    "Hélló  Wórld\t\n\x01x",
                    "ı İ ß Ǆ",          # Unicode case traps: must NOT fold
                    "a b",          # NBSP is not ASCII ws: preserved
                    "ＦＵｌｌ",           # fullwidth: NFC preserves
                    None,
                    "  lots\x00of\x1fjunk  ",
                    "Café vs Café",  # NFC composes e+combining acute
                ],
            }
        )
        out = (
            rd.from_pandas(df)
            .map_batches(TextNormalizer(), batch_format="pandas")
            .to_pandas()
            .sort_values("doc_id")
        )
        exp = duckdb.sql(
            """
            SELECT doc_id,
                   trim(regexp_replace(nfc_normalize(translate(coalesce(text,''),
                     'ABCDEFGHIJKLMNOPQRSTUVWXYZ','abcdefghijklmnopqrstuvwxyz')),
                     '[ \\t\\n\\r\\f\\v\\x00-\\x1f]+', ' ', 'g'), ' ') AS norm_text
            FROM df ORDER BY doc_id
            """
        ).df()
        assert out["norm_text"].tolist() == exp["norm_text"].tolist()
        assert out.loc[out["doc_id"] == 6, "norm_text"].iloc[0] == "café vs café"


class TestGopherQualityFilter:
    def test_adversarial_parity_with_duckdb(self, ray_session):
        import duckdb
        import ray.data as rd

        import __ray_entry__ as entry_mod
        from mysql_binlog_ray.stages.text import GopherQualityFilter

        good = "the quick brown fox and that dog have fun with all of it " * 5
        df = pd.DataFrame(
            {
                "doc_id": np.arange(8, dtype=np.int64),
                "text": [
                    good,                                   # passes everything
                    "- a\n- b\n- c\nplain",                # bullet-heavy
                    "wait...\nmore…\nok",                   # ellipsis endings
                    "#### ## # " + good,                    # symbol ratio
                    "123 456 789 " * 30,                    # no alpha words
                    None,
                    "",
                    "The BE to OF\nand that HAVE with",     # case-folded stops
                ],
            }
        )
        got = (
            rd.from_pandas(df)
            .map_batches(GopherQualityFilter(), batch_format="pandas")
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("documents", df)
        exp = con.execute(entry_mod.oracle_sql()["gopher_quality_documents"]).df()
        exp = exp.sort_values("doc_id").reset_index(drop=True)
        cols = [c for c in exp.columns]
        for c in cols:
            assert got[c].tolist() == exp[c].tolist(), c
        assert got.loc[0, "g_keep"] == 1
        assert got.loc[4, "g_alpha_ratio"] == 0.0


class TestSkewJoin:
    """skew_join == hash_join row-for-row; hot keys never shuffle."""

    @staticmethod
    def _zipf_frames():
        rng = np.random.default_rng(5)
        keys = np.concatenate(
            [np.full(400, 7), np.full(300, 13), rng.integers(0, 50, 300)]
        ).astype(np.int64)
        l = pd.DataFrame({"k": keys, "x": np.arange(len(keys), dtype=np.int64)})
        r = pd.DataFrame(
            {"rk": np.arange(0, 60, dtype=np.int64), "y": [f"v{i}" for i in range(60)]}
        )
        return l, r

    def _norm(self, df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.fillna({"y": "<null>"})
            .sort_values(list(df.columns))
            .reset_index(drop=True)
        )

    def test_inner_parity_with_hash_join(self):
        from mysql_binlog_ray.stages.relational import hash_join, skew_join

        l, r = self._zipf_frames()
        got = skew_join(
            rd.from_pandas(l), rd.from_pandas(r), "k", "rk", hot_threshold=100
        ).to_pandas()
        exp = hash_join(
            rd.from_pandas(l), rd.from_pandas(r), "k", "rk", num_partitions=4
        ).to_pandas()
        assert list(got.columns) == list(exp.columns) == ["k", "x", "y"]
        pd.testing.assert_frame_equal(self._norm(got), self._norm(exp))

    def test_left_outer_parity_with_pandas(self):
        from mysql_binlog_ray.stages.relational import skew_join

        l, r = self._zipf_frames()
        # key 55..59 exist only on the right; add left-only keys too
        l = pd.concat(
            [l, pd.DataFrame({"k": np.array([200, 201], np.int64), "x": [0, 1]})],
            ignore_index=True,
        )
        got = skew_join(
            rd.from_pandas(l), rd.from_pandas(r), "k", "rk",
            hot_threshold=100, join_type="left_outer",
        ).to_pandas()
        exp = l.merge(r, left_on="k", right_on="rk", how="left").drop(columns=["rk"])
        pd.testing.assert_frame_equal(self._norm(got), self._norm(exp))

    def test_null_keys_ride_cold_path_and_match_sql_semantics(self):
        from mysql_binlog_ray.stages.relational import skew_join

        l = pd.DataFrame(
            {"k": pd.array([1, 1, 1, None, 2], dtype="Int64"), "x": [0, 1, 2, 3, 4]}
        )
        r = pd.DataFrame({"rk": pd.array([1, 2], dtype="Int64"), "y": ["a", "b"]})
        got = skew_join(
            rd.from_pandas(l), rd.from_pandas(r), "k", "rk", hot_threshold=2
        ).to_pandas()
        # NULL never equals anything: 3 hot-key matches + 1 cold match
        assert len(got) == 4
        assert set(got["y"]) == {"a", "b"}

    def test_broadcast_cap_falls_back_to_hash_join(self, caplog):
        import logging

        from mysql_binlog_ray.stages.relational import hash_join, skew_join

        l, r = self._zipf_frames()
        with caplog.at_level(logging.WARNING, logger="mysql_binlog_ray.stages.relational"):
            got = skew_join(
                rd.from_pandas(l), rd.from_pandas(r), "k", "rk",
                hot_threshold=100, max_broadcast_rows=0,
            ).to_pandas()
        assert any("falling back" in rec.message for rec in caplog.records)
        exp = hash_join(
            rd.from_pandas(l), rd.from_pandas(r), "k", "rk", num_partitions=4
        ).to_pandas()
        pd.testing.assert_frame_equal(self._norm(got), self._norm(exp))

    def test_no_hot_keys_is_plain_join(self):
        from mysql_binlog_ray.stages.relational import skew_join

        l = pd.DataFrame({"k": np.arange(20, dtype=np.int64), "x": np.arange(20)})
        r = pd.DataFrame({"rk": np.arange(10, dtype=np.int64), "y": np.arange(10)})
        got = skew_join(
            rd.from_pandas(l), rd.from_pandas(r), "k", "rk", hot_threshold=5
        ).to_pandas()
        assert len(got) == 10

    def test_rejects_right_outer(self):
        from mysql_binlog_ray.stages.relational import skew_join

        l = pd.DataFrame({"k": [1], "x": [1]})
        with pytest.raises(ValueError, match="join_type"):
            skew_join(rd.from_pandas(l), rd.from_pandas(l), "k", "k",
                      hot_threshold=1, join_type="right_outer")


class TestSetOpsAndSemiJoin:
    def test_intersect_and_except_with_nulls(self):
        from mysql_binlog_ray.stages.relational import set_op

        l = pd.DataFrame({"k": pd.array([1, 1, 2, 3, None, None], dtype="Int64")})
        r = pd.DataFrame({"k": pd.array([2, 4, None], dtype="Int64")})
        inter = set_op(rd.from_pandas(l), rd.from_pandas(r), ["k"], "intersect",
                       num_parts=2).to_pandas()
        exc = set_op(rd.from_pandas(l), rd.from_pandas(r), ["k"], "except",
                     num_parts=2).to_pandas()
        # SQL set ops treat NULL as a value: NULL intersects NULL
        assert sorted(inter["k"].fillna(-1).astype(int)) == [-1, 2]
        assert sorted(exc["k"].fillna(-1).astype(int)) == [1, 3]

    def test_multi_column_intersect(self):
        from mysql_binlog_ray.stages.relational import set_op

        l = pd.DataFrame({"a": [1, 1, 2], "b": ["x", "y", "x"]})
        r = pd.DataFrame({"a": [1, 2, 2], "b": ["y", "x", "z"]})
        got = set_op(rd.from_pandas(l), rd.from_pandas(r), ["a", "b"], "intersect",
                     num_parts=2).to_pandas()
        got = got.sort_values(["a", "b"]).reset_index(drop=True)
        assert got.to_dict("list") == {"a": [1, 2], "b": ["y", "x"]}

    def test_empty_result_keeps_schema(self):
        # Ray's to_pandas drops columns of an all-empty dataset; the
        # engine-level guarantee is the Dataset SCHEMA (drop_empty_blocks
        # rebuilds the typed anchor), which downstream ops consume
        from mysql_binlog_ray.stages.relational import set_op

        l = pd.DataFrame({"k": np.array([1, 2], np.int64)})
        got = set_op(rd.from_pandas(l), rd.from_pandas(l), ["k"], "except",
                     num_parts=2)
        assert got.count() == 0
        assert got.schema().names == ["k"]
        assert str(got.schema().types[0]) == "int64"

    def test_rejects_unknown_op(self):
        from mysql_binlog_ray.stages.relational import set_op

        l = rd.from_pandas(pd.DataFrame({"k": [1]}))
        with pytest.raises(ValueError, match="set_op"):
            set_op(l, l, ["k"], "union")

    def test_semi_join_matches_sql_exists(self):
        from mysql_binlog_ray.stages.relational import broadcast_semi_join

        l = pd.DataFrame(
            {"k": pd.array([1, 2, 3, None], dtype="Int64"), "x": [10, 20, 30, 40]}
        )
        r = pd.DataFrame({"rk": pd.array([1, 3, None], dtype="Int64")})
        got = broadcast_semi_join(
            rd.from_pandas(l), rd.from_pandas(r), "k", "rk"
        ).to_pandas()
        # NULL = NULL is never true in EXISTS
        assert sorted(got["x"].tolist()) == [10, 30]


class TestTpchQ3:
    """Multi-join composition (broadcast semi join + pre-agg + hash join
    + bounded top-k) vs the DuckDB oracle on the sf0.001 testdata."""

    def test_q3_matches_oracle_sf0001(self):
        import duckdb

        import __ray_entry__ as e

        got = (
            e.queries()["tpch_q3_building"]("/root/testdata/sf0.001")
            .to_pandas()
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        for t in ("customer", "orders", "lineitem"):
            con.sql(
                f"CREATE VIEW {t} AS SELECT * "
                f"FROM '/root/testdata/sf0.001/{t}.parquet'"
            )
        exp = con.sql(e.oracle_sql()["tpch_q3_building"]).df()
        assert got["l_orderkey"].tolist() == exp["l_orderkey"].tolist()
        assert got["revenue_e4"].tolist() == exp["revenue_e4"].tolist()
        assert got["o_orderdate_us"].tolist() == exp["o_orderdate_us"].tolist()
        assert got["o_orderpriority"].tolist() == exp["o_orderpriority"].tolist()


class TestSemdedupKeep:
    """Canonical-doc-per-cluster selection vs the recursive-CTE +
    window-function oracle on the sf0.001 testdata."""

    def test_keep_decision_matches_oracle_sf0001(self):
        import duckdb

        import __ray_entry__ as e

        got = (
            e.queries()["semdedup_keep_documents"]("/root/testdata/sf0.001")
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.sql(
            "CREATE VIEW documents AS SELECT * "
            "FROM '/root/testdata/sf0.001/documents.parquet'"
        )
        exp = (
            con.sql(e.oracle_sql()["semdedup_keep_documents"])
            .df()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert len(got) == len(exp) and len(got) > 0
        for c in ("doc_id", "cluster_id", "n_chars", "keep"):
            assert got[c].tolist() == exp[c].tolist(), c
        # exactly one winner per cluster
        winners = got[got["keep"]].groupby("cluster_id").size()
        assert (winners == 1).all()
        assert set(winners.index) == set(got["cluster_id"].unique())


class TestBloomJoin:
    def test_matches_hash_join_exactly(self):
        from mysql_binlog_ray.stages.relational import bloom_join, hash_join

        rng = np.random.default_rng(11)
        left = pd.DataFrame(
            {"k": rng.integers(0, 5000, 4000), "x": np.arange(4000, dtype=np.int64)}
        )
        # selective right side: 100 keys, some absent from left
        right = pd.DataFrame(
            {"rk": np.arange(0, 10000, 100, dtype=np.int64), "y": np.arange(100, dtype=np.int64)}
        )
        got = (
            bloom_join(rd.from_pandas(left), rd.from_pandas(right), "k", "rk",
                       m_bits=1 << 16, num_partitions=4)
            .to_pandas().sort_values(["k", "x", "y"]).reset_index(drop=True)
        )
        exp = (
            hash_join(rd.from_pandas(left), rd.from_pandas(right), "k", "rk",
                      num_partitions=4)
            .to_pandas().sort_values(["k", "x", "y"]).reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got[sorted(got.columns)], exp[sorted(exp.columns)])

    def test_prefilter_drops_definitely_absent_keys(self):
        from mysql_binlog_ray.stages.sketches import (
            BloomFilter,
            _bloom_hash_strings,
            build_bloom,
        )

        right = pd.DataFrame({"rk": np.arange(100, dtype=np.int64)})
        bf = build_bloom(rd.from_pandas(right), "rk", m_bits=1 << 16, k=6)
        present = _bloom_hash_strings(pd.Series(np.arange(100, dtype=np.int64)))
        absent = _bloom_hash_strings(pd.Series(np.arange(10_000, 11_000, dtype=np.int64)))
        # no false negatives; false positives bounded well under 10%
        assert bf.contains_hashes(present).all()
        assert bf.contains_hashes(absent).mean() < 0.1

    def test_rejects_outer_join(self):
        from mysql_binlog_ray.stages.relational import bloom_join

        l = rd.from_pandas(pd.DataFrame({"k": [1]}))
        with pytest.raises(ValueError, match="inner"):
            bloom_join(l, l, "k", "k", join_type="left_outer")


class TestApproxPercentilesBySample:
    def test_close_to_exact_and_deterministic(self):
        from mysql_binlog_ray.stages.relational import (
            approx_percentiles_by_sample,
            exact_global_percentiles,
        )

        rng = np.random.default_rng(3)
        vals = rng.integers(0, 100_000, 50_000).astype(np.int64)
        df = pd.DataFrame({"k": np.arange(len(vals), dtype=np.int64), "v": vals})
        qs = [0.5, 0.95]
        approx = approx_percentiles_by_sample(
            rd.from_pandas(df), "k", "v", qs, rate=0.1, coarse_shift=8, seed=5
        )
        again = approx_percentiles_by_sample(
            rd.from_pandas(df.sample(frac=1.0, random_state=1)),  # shuffled input
            "k", "v", qs, rate=0.1, coarse_shift=8, seed=5,
        )
        # order-insensitive determinism: same sample => identical output
        assert approx.to_pydict() == again.to_pydict()
        exact = exact_global_percentiles(rd.from_pandas(df), "v", qs, coarse_shift=8)
        for a, e, q in zip(
            approx.column("v").to_pylist(), exact.column("v").to_pylist(), qs
        ):
            # rank error O(1/sqrt(5000)) -> generous value-domain bound
            assert abs(a - e) < 5_000, (q, a, e)


class TestGroupedStringAgg:
    def test_matches_duckdb_with_null_vals_and_keys(self, ray_session):
        import duckdb
        import ray.data as rd

        from mysql_binlog_ray.stages import relational as R

        rng = np.random.default_rng(5)
        n = 300
        df = pd.DataFrame(
            {
                "k": pd.array(
                    [None if x < 20 else int(x % 9) for x in rng.integers(0, 100, n)],
                    dtype="Int64",
                ),
                "o": np.arange(n, dtype=np.int64),
                "v": [
                    None if x < 25 else f"w{int(x) % 7}"
                    for x in rng.integers(0, 100, n)
                ],
            }
        )
        out = R.grouped_string_agg(
            rd.from_pandas(df).repartition(5), ["k"], "v", ["o"],
            sep="|", out_col="agg", count_col="n",
        ).to_pandas()
        con = duckdb.connect()
        con.register("t", df)
        ora = con.execute(
            """
            SELECT k, count(*) AS n, string_agg(v, '|' ORDER BY o) AS agg
            FROM t GROUP BY k
            """
        ).df()
        a = out.sort_values("k", na_position="last").reset_index(drop=True)
        b = ora.sort_values("k", na_position="last").reset_index(drop=True)
        assert len(a) == len(b)
        assert a["k"].isna().tolist() == b["k"].isna().tolist()
        assert a["n"].astype("int64").tolist() == b["n"].astype("int64").tolist()
        # all-NULL groups: DuckDB yields NULL, engine must too
        assert a["agg"].isna().tolist() == b["agg"].isna().tolist()
        assert a["agg"].fillna("").tolist() == b["agg"].fillna("").tolist()


class TestModePerGroup:
    def test_matches_duckdb_with_ties_nulls_and_null_keys(self, ray_session):
        """Tie-break = smallest value among the most frequent; NULL
        values ignored (an all-NULL group disappears); NULL keys form
        one group."""
        import duckdb
        import ray.data as rd

        from mysql_binlog_ray.stages import relational as R

        rng = np.random.default_rng(11)
        n = 500
        df = pd.DataFrame(
            {
                "k": pd.array(
                    [None if x < 15 else int(x % 8) for x in rng.integers(0, 100, n)],
                    dtype="Int64",
                ),
                # few distinct values => frequent exact count ties
                "v": [
                    None if x < 20 else f"m{int(x) % 3}"
                    for x in rng.integers(0, 100, n)
                ],
            }
        )
        # one group whose values are ALL NULL: must not appear at all
        df = pd.concat(
            [df, pd.DataFrame({"k": pd.array([99, 99], dtype="Int64"), "v": [None, None]})],
            ignore_index=True,
        )
        out = R.mode_per_group(
            rd.from_pandas(df).repartition(5), ["k"], "v", count_col="n_mode"
        ).to_pandas()
        con = duckdb.connect()
        con.register("t", df)
        ora = con.execute(
            """
            SELECT k, v, CAST(cnt AS BIGINT) AS n_mode FROM (
                SELECT k, v, count(*) AS cnt,
                       row_number() OVER (
                           PARTITION BY k ORDER BY count(*) DESC, v
                       ) AS rn
                FROM t WHERE v IS NOT NULL GROUP BY k, v
            ) WHERE rn = 1
            """
        ).df()
        a = out.sort_values("k", na_position="last").reset_index(drop=True)
        b = ora.sort_values("k", na_position="last").reset_index(drop=True)
        assert len(a) == len(b)
        assert (99 == a["k"].dropna()).sum() == 0
        assert a["k"].isna().tolist() == b["k"].isna().tolist()
        assert a["v"].tolist() == b["v"].tolist()
        assert a["n_mode"].astype("int64").tolist() == b["n_mode"].astype("int64").tolist()

    def test_all_null_block_keeps_schema(self, ray_session):
        """A block whose values are ALL NULL must emit a typed empty
        partial, not a null-typed schema-divergent block (the repo's
        documented empty-block shuffle trap)."""
        import ray.data as rd

        from mysql_binlog_ray.stages import relational as R

        good = pd.DataFrame({"k": [1, 1, 2], "v": ["a", "a", "b"]})
        nulls = pd.DataFrame({"k": [1, 2, 3], "v": [None, None, None]})
        ds = rd.from_pandas(good).union(rd.from_pandas(nulls))
        out = (
            R.mode_per_group(ds, ["k"], "v", count_col="n_mode")
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        # group 3 (all NULL) disappears; NULL rows don't count
        assert out["k"].tolist() == [1, 2]
        assert out["v"].tolist() == ["a", "b"]
        assert out["n_mode"].astype("int64").tolist() == [2, 1]


class TestGroupedHll:
    def test_grouped_estimates_within_error(self, ray_session):
        """Grouped HLL vs exact per-group distinct counts: skewed group
        sizes (10..20k distinct) across many batches so cross-batch
        sketch merging is actually exercised."""
        import ray.data as rd

        from mysql_binlog_ray.stages.sketches import approx_distinct_per_group

        rng = np.random.default_rng(17)
        sizes = {"a": 10, "b": 500, "c": 5000, "d": 20000}
        frames = []
        for g, n_distinct in sizes.items():
            vals = rng.integers(0, n_distinct, n_distinct * 3)  # with repeats
            frames.append(pd.DataFrame({"g": g, "v": [f"{g}:{v}" for v in vals]}))
        df = pd.concat(frames, ignore_index=True).sample(frac=1, random_state=3)
        ds = rd.from_pandas(df).repartition(13)
        out = (
            approx_distinct_per_group(ds, ["g"], "v", num_parts=4)
            .to_pandas()
            .set_index("g")["approx_distinct"]
        )
        exact = df.groupby("g")["v"].nunique()
        assert set(out.index) == set(exact.index)
        for g in exact.index:
            err = abs(out[g] - exact[g]) / exact[g]
            assert err < 0.05, (g, out[g], exact[g], err)

    def test_null_values_and_null_keys(self, ray_session):
        import ray.data as rd

        from mysql_binlog_ray.stages.sketches import approx_distinct_per_group

        df = pd.DataFrame(
            {
                "g": ["x", "x", None, None, "y"],
                "v": ["1", None, "2", "2", None],
            }
        )
        out = (
            approx_distinct_per_group(rd.from_pandas(df), ["g"], "v", num_parts=2)
            .to_pandas()
        )
        got = {
            (None if pd.isna(r["g"]) else r["g"]): int(r["approx_distinct"])
            for _, r in out.iterrows()
        }
        # NULL values are not members; all-NULL groups drop out of the
        # partials entirely (no sketch rows) — SQL approx_count_distinct
        # over an empty set is 0 rows here since no sketch is emitted
        assert got == {"x": 1, None: 1}


class TestEditdistPairs:
    """Edit-distance (Levenshtein) fuzzy matching — stages/fuzzy.py."""

    @staticmethod
    def _lev(a: str, b: str) -> int:
        a, b = a.encode(), b.encode()
        dp = list(range(len(b) + 1))
        for i in range(1, len(a) + 1):
            prev = dp[:]
            dp[0] = i
            for j in range(1, len(b) + 1):
                dp[j] = min(prev[j] + 1, dp[j - 1] + 1, prev[j - 1] + (a[i - 1] != b[j - 1]))
        return dp[len(b)]

    def _brute(self, strs, d):
        return sorted(
            (i, j, self._lev(strs[i], strs[j]))
            for i in range(len(strs))
            for j in range(i + 1, len(strs))
            if self._lev(strs[i], strs[j]) <= d
        )

    def test_kernel_parity_adversarial(self):
        import numpy as np
        import pyarrow as pa

        from mysql_binlog_ray.stages.fuzzy import _lev_filter, _padded_bytes

        base = "Customer#0000"
        strs = ["", "a", "aa", "aaa", "aaaa", base, base + "1", base + "12",
                "x" + base, "abcabc", "bcabca", "ab", "ba", "abc", "cab"]
        rng = __import__("random").Random(5)
        strs += ["".join(rng.choice("ab0é") for _ in range(rng.randint(0, 9))) for _ in range(120)]
        mat, lens = _padded_bytes(pa.array(strs), 64)
        ai, bi = np.triu_indices(len(strs), k=1)
        for d in (0, 1, 2, 4):
            got = _lev_filter(mat[ai], lens[ai], mat[bi], lens[bi], d)
            exp = np.array([min(self._lev(strs[i], strs[j]), d + 1) for i, j in zip(ai, bi)])
            assert (got == exp).all()

    def test_ray_path_matches_brute_force_and_tile_independence(self, ray_session):
        import ray.data as rd

        from mysql_binlog_ray.stages.fuzzy import editdist_pairs

        rng = __import__("random").Random(13)
        strs = ["".join(rng.choice("abc0") for _ in range(rng.randint(0, 6))) for _ in range(150)]
        ds = rd.from_items([{"id": i, "name": s} for i, s in enumerate(strs)])
        for d in (1, 2):
            exp = self._brute(strs, d)
            for tile_rows, scan in ((7, 5), (64, 16), (4096, 4096)):
                out = editdist_pairs(
                    ds, max_dist=d, col="name", id_col="id",
                    tile_rows=tile_rows, scan_batch_rows=scan,
                )
                assert list(out.itertuples(index=False, name=None)) == exp

    def test_byte_level_unicode_matches_duckdb(self, ray_session):
        import duckdb
        import ray.data as rd

        from mysql_binlog_ray.stages.fuzzy import editdist_pairs

        # DuckDB levenshtein counts BYTE edits ('é' is 2 UTF-8 bytes);
        # the operator must agree on non-ASCII input
        strs = ["héllo", "hello", "hèllo", "hell", "héllò"]
        ds = rd.from_items([{"id": i, "name": s} for i, s in enumerate(strs)])
        out = editdist_pairs(ds, max_dist=2, col="name", id_col="id")
        con = duckdb.connect()
        con.execute(
            "CREATE TABLE t AS SELECT unnest(range(5)) AS id, unnest(?) AS name", [strs]
        )
        exp = con.execute(
            """SELECT a.id, b.id, levenshtein(a.name, b.name)
               FROM t a JOIN t b ON a.id < b.id
               WHERE levenshtein(a.name, b.name) <= 2 ORDER BY 1, 2"""
        ).fetchall()
        assert list(out.itertuples(index=False, name=None)) == [tuple(r) for r in exp]

    def test_max_len_guard(self, ray_session):
        import pytest
        import ray.data as rd

        from mysql_binlog_ray.stages.fuzzy import editdist_pairs

        ds = rd.from_items([{"id": 0, "name": "x" * 300}, {"id": 1, "name": "y"}])
        with pytest.raises(Exception, match="max_len"):
            editdist_pairs(ds, max_dist=1, col="name", id_col="id", max_len=256)


    def test_kernel_property_roundtrip(self):
        """Hypothesis: the vectorized trimmed DP equals the classic DP on
        arbitrary byte strings (covers padding, trims, pruning, unicode)."""
        import numpy as np
        import pyarrow as pa
        from hypothesis import given, settings, strategies as st

        from mysql_binlog_ray.stages.fuzzy import _lev_filter, _padded_bytes

        lev = TestEditdistPairs._lev

        @settings(max_examples=80, deadline=None)
        @given(
            pairs=st.lists(
                st.tuples(st.text(max_size=12), st.text(max_size=12)),
                min_size=1,
                max_size=20,
            ),
            d=st.integers(0, 4),
        )
        def check(pairs, d):
            flat = [s for ab in pairs for s in ab]
            mat, lens = _padded_bytes(pa.array(flat, pa.string()), 256)
            ai = np.arange(0, len(flat), 2)
            bi = ai + 1
            got = _lev_filter(mat[ai], lens[ai], mat[bi], lens[bi], d)
            exp = np.array([min(lev(a, b), d + 1) for a, b in pairs])
            assert (got == exp).all()

        check()

class TestVectorStatsByGroup:
    def test_matches_numpy_across_batch_layouts(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from mysql_binlog_ray.stages.similarity import vector_stats_by_group

        rng = np.random.default_rng(9)
        n, dim = 230, 5
        labels = rng.integers(0, 4, n)
        vecs = rng.normal(size=(n, dim)).astype(np.float32)
        items = [{"label": int(l), "embedding": v.tolist()} for l, v in zip(labels, vecs)]
        for nblocks in (1, 7):
            ds = rd.from_items(items, override_num_blocks=nblocks)
            out = vector_stats_by_group(ds).to_pandas()
            # exact float64 equality: min/max are order-insensitive
            for lab in range(4):
                sub = vecs[labels == lab].astype(np.float64)
                got = out[out["label"] == lab].sort_values("dim")
                assert (got["vmin"].to_numpy() == sub.min(axis=0)).all()
                assert (got["vmax"].to_numpy() == sub.max(axis=0)).all()
                assert (got["n"] == len(sub)).all()
                assert list(got["dim"]) == list(range(1, dim + 1))


class TestZorderLayout:
    def test_interleave_matches_reference_bits(self):
        import numpy as np

        from mysql_binlog_ray.stages.layout import zorder_values

        rng = np.random.default_rng(21)
        x = rng.integers(-5, 70000, 500).astype(np.int64)
        y = rng.integers(0, 70000, 500).astype(np.int64)
        got = zorder_values([x, y], bits=16)

        def ref(a, b):
            am, bm = a & 0xFFFF, b & 0xFFFF
            z = 0
            for k in range(16):
                z |= ((am >> k) & 1) << (2 * k)
                z |= ((bm >> k) & 1) << (2 * k + 1)
            return z

        exp = np.array([ref(int(a), int(b)) for a, b in zip(x, y)])
        assert (got == exp).all()

    def test_sql_expr_matches_numpy(self):
        import duckdb
        import numpy as np
        import pandas as pd

        from mysql_binlog_ray.stages.layout import zorder_sql_expr, zorder_values

        rng = np.random.default_rng(4)
        df = pd.DataFrame(
            {"a": rng.integers(0, 1 << 20, 300), "b": rng.integers(-100, 1 << 20, 300)}
        )
        expr = zorder_sql_expr(["a", "b"], bits=16)
        got = duckdb.sql(f"SELECT {expr} AS z FROM df").fetchnumpy()["z"]
        exp = zorder_values([df["a"].to_numpy(), df["b"].to_numpy()], bits=16)
        assert (got == exp).all()

    def test_clustering_improves_two_dim_block_locality(self, ray_session):
        import numpy as np
        import ray.data as rd

        from mysql_binlog_ray.stages.layout import zorder_sort

        rng = np.random.default_rng(7)
        n = 20_000
        items = [
            {"x": int(a), "y": int(b)}
            for a, b in zip(rng.integers(0, 4096, n), rng.integers(0, 4096, n))
        ]
        ds = rd.from_items(items, override_num_blocks=16)

        def blocks_touched(sorted_ds):
            """Blocks whose min/max stats intersect selective x-only and
            y-only predicates — the min/max file-pruning model (64
            blocks; windows away from the curve's top-level splits)."""
            spans = [
                (b["x"].min(), b["x"].max(), b["y"].min(), b["y"].max())
                for b in sorted_ds.iter_batches(batch_size=n // 64, batch_format="numpy")
            ]
            total = 0
            for lo, hi in ((900, 963), (3100, 3163)):
                total += sum(1 for x0, x1, _, _ in spans if x0 <= hi and x1 >= lo)
                total += sum(1 for _, _, y0, y1 in spans if y0 <= hi and y1 >= lo)
            return total

        z_touch = blocks_touched(zorder_sort(ds, ["x", "y"], bits=12))
        x_touch = blocks_touched(ds.sort("x"))
        # a single-column sort prunes perfectly on x but leaves y
        # unconstrained (a y predicate touches EVERY block); the z-order
        # curve bounds both dimensions, so the combined touch count drops
        # (measured ~47 vs ~134 at this seed)
        assert z_touch < x_touch / 1.5



class TestWinsorize:
    def test_clip_bounds_and_nulls(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from mysql_binlog_ray.stages.relational import winsorize

        rng = np.random.default_rng(3)
        df = pd.DataFrame(
            {
                "g": np.repeat(["a", "b"], 100),
                "v": np.concatenate([rng.normal(0, 1, 100), rng.normal(50, 10, 100)]),
            }
        )
        df.loc[5, "v"] = None  # NULL stays NULL
        out = (
            winsorize(rd.from_pandas(df), ["g"], "v", 0.10, 0.90)
            .to_pandas()
            .sort_index()
        )
        for g in ("a", "b"):
            vals = df[df["g"] == g]["v"].dropna().sort_values().to_numpy()
            n = len(vals)
            lo = vals[int(np.ceil(0.10 * n)) - 1]
            hi = vals[int(np.ceil(0.90 * n)) - 1]
            got = out[out["g"] == g]["clipped"]
            src = df[df["g"] == g]["v"]
            exp = src.clip(lo, hi)
            assert np.allclose(got.dropna(), exp.dropna(), rtol=0, atol=0)
            assert got.isna().equals(src.isna())
            # bounds are actual data values (quantile_disc semantics)
            assert got.min() == lo and got.max() == hi


class TestSessionReviewRegressions:
    """Round-3 continuation review fixes: NULL handling in the new
    operators must match their SQL twins (or refuse loudly)."""

    def test_editdist_null_strings_never_pair(self, ray_session):
        import ray.data as rd

        from mysql_binlog_ray.stages.fuzzy import editdist_pairs

        items = [
            {"id": 0, "name": "abc"},
            {"id": 1, "name": None},   # levenshtein(NULL, x) IS NULL in SQL
            {"id": 2, "name": "abd"},
            {"id": 3, "name": None},
        ]
        out = editdist_pairs(rd.from_items(items), max_dist=3, col="name", id_col="id")
        assert list(out.itertuples(index=False, name=None)) == [(0, 2, 1)]

    def test_resample_fill_drops_null_ts_and_group(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from mysql_binlog_ray.stages.window import resample_fill

        base = pd.Timestamp("2025-01-01 00:30:00")
        df = pd.DataFrame(
            {
                "ts": [base, pd.NaT, base + pd.Timedelta(hours=1), base],
                "event_type": ["a", "a", "a", None],
            }
        )
        out = resample_fill(rd.from_pandas(df)).to_pandas()
        # NaT must not stretch the range to INT64_MIN; NULL group dropped
        assert len(out) == 2
        assert out["n"].tolist() == [1, 1]

    def test_winsorize_drops_null_group_keys(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from mysql_binlog_ray.stages.relational import winsorize

        df = pd.DataFrame(
            {"g": ["a"] * 10 + [None], "v": list(range(10)) + [99.0]}
        )
        out = winsorize(rd.from_pandas(df), ["g"], "v", 0.1, 0.9).to_pandas()
        # the SQL twin's inner JOIN USING (g) drops NULL-key rows
        assert len(out) == 10
        assert out["g"].notna().all()

    def test_zorder_null_key_raises(self, ray_session):
        import pandas as pd
        import pytest
        import ray.data as rd

        from mysql_binlog_ray.stages.layout import add_zorder_key

        ds = rd.from_pandas(pd.DataFrame({"x": [1, None, 3], "y": [1, 2, 3]}))
        with pytest.raises(Exception, match="NULL"):
            add_zorder_key(ds, ["x", "y"]).materialize()

    def test_zorder_sql_expr_overflow_guard(self):
        import pytest

        from mysql_binlog_ray.stages.layout import zorder_sql_expr, zorder_values

        with pytest.raises(ValueError, match="int64"):
            zorder_sql_expr(["a", "b", "c", "d"], bits=16)
        import numpy as np
        with pytest.raises(ValueError, match="int64"):
            zorder_values([np.arange(2)] * 4, bits=16)


class TestMrlQuantileSketch:
    def test_rank_error_bound_and_mergeability(self):
        import numpy as np

        from mysql_binlog_ray.stages.sketches import MrlQuantileSketch

        rng = np.random.default_rng(2)
        data = rng.lognormal(3, 2, 200_000)
        srt = np.sort(data)
        qs = [0.01, 0.25, 0.5, 0.9, 0.99]

        def rank_errs(sk):
            return [
                abs(np.searchsorted(srt, e) / len(data) - q)
                for q, e in zip(qs, sk.quantiles(qs))
            ]

        sk = MrlQuantileSketch(1024)
        for chunk in np.array_split(data, 50):
            sk.add(chunk)
        assert max(rank_errs(sk)) < 0.01  # measured ~5e-4

        # mergeable: folding 8 shard sketches keeps the same bound, and
        # serialization round-trips
        parts = []
        for chunk in np.array_split(data, 8):
            p = MrlQuantileSketch(1024)
            p.add(chunk)
            parts.append(MrlQuantileSketch.from_bytes(p.to_bytes()))
        acc = parts[0]
        for p in parts[1:]:
            acc = acc.merge(p)
        assert acc.n == len(data)
        assert max(rank_errs(acc)) < 0.01
        # bounded state: O(k log(n/k)) floats, far below n
        assert sum(len(b) for b in acc.levels) < 8 * 1024

    def test_nan_ignored_and_exact_when_small(self):
        import numpy as np

        from mysql_binlog_ray.stages.sketches import MrlQuantileSketch

        sk = MrlQuantileSketch(64)
        sk.add(np.array([5.0, np.nan, 1.0, 3.0, np.nan]))
        assert sk.n == 3
        # below capacity the sketch is exact quantile_disc
        assert sk.quantiles([0.5]) == [3.0]
        assert sk.quantiles([1.0]) == [5.0]
        assert sk.quantiles([0.01]) == [1.0]

    def test_distributed_sketch(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from mysql_binlog_ray.stages.sketches import quantile_sketch

        rng = np.random.default_rng(5)
        vals = rng.normal(100, 15, 50_000)
        ds = rd.from_pandas(pd.DataFrame({"v": vals}), override_num_blocks=16)
        sk = quantile_sketch(ds, "v", k=1024)
        assert sk.n == len(vals)
        srt = np.sort(vals)
        for q, e in zip([0.1, 0.5, 0.9], sk.quantiles([0.1, 0.5, 0.9])):
            assert abs(np.searchsorted(srt, e) / len(vals) - q) < 0.01

    def test_grouped_sketch_exact_below_capacity_and_bounded_above(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from mysql_binlog_ray.stages.sketches import quantile_sketch_per_group

        rng = np.random.default_rng(11)
        df = pd.DataFrame(
            {
                "g": np.repeat(["a", "b", "c"], 3000),
                "v": rng.normal(0, 1, 9000),
            }
        )
        df.loc[2, "v"] = None
        ds = rd.from_pandas(df, override_num_blocks=7)

        def exact_disc(vals, q):
            vals = np.sort(vals[~np.isnan(vals)])
            return vals[int(np.ceil(q * len(vals))) - 1]

        # exact regime: k=4096 (capacity 8192 > 3000 rows/group)
        out = (
            quantile_sketch_per_group(ds, ["g"], "v", [0.5, 0.9], k=4096)
            .to_pandas()
            .set_index("g")
        )
        for g in ("a", "b", "c"):
            vals = df[df["g"] == g]["v"].to_numpy(dtype=np.float64)
            assert out.loc[g, "p50"] == exact_disc(vals, 0.5)
            assert out.loc[g, "p90"] == exact_disc(vals, 0.9)
            assert out.loc[g, "n"] == np.count_nonzero(~np.isnan(vals))

        # approximate regime: k=64 — rank error still bounded
        out2 = (
            quantile_sketch_per_group(ds, ["g"], "v", [0.5], k=64)
            .to_pandas()
            .set_index("g")
        )
        for g in ("a", "b", "c"):
            vals = np.sort(df[df["g"] == g]["v"].dropna().to_numpy())
            rank = np.searchsorted(vals, out2.loc[g, "p50"]) / len(vals)
            assert abs(rank - 0.5) < 0.05


class TestBpe:
    """BPE vocabulary induction + application — stages/bpe.py."""

    @staticmethod
    def _naive_learn(word_counts, num_merges):
        """Reference learner: full pair-count recompute every merge."""
        counts = {i: c for i, (_, c) in enumerate(word_counts.items())}
        words = {i: list(w) + ["</w>"] for i, w in enumerate(word_counts)}
        merges = []
        for _ in range(num_merges):
            pc = {}
            for i, syms in words.items():
                for p in zip(syms, syms[1:]):
                    pc[p] = pc.get(p, 0) + counts[i]
            if not pc:
                break
            (a, b) = min(pc.items(), key=lambda kv: (-kv[1], kv[0]))[0]
            merges.append((a, b))
            for i, syms in words.items():
                out, j = [], 0
                while j < len(syms):
                    if j + 1 < len(syms) and syms[j] == a and syms[j + 1] == b:
                        out.append(a + b)
                        j += 2
                    else:
                        out.append(syms[j])
                        j += 1
                words[i] = out
        return merges

    def test_sennrich_worked_example(self):
        import pandas as pd

        from mysql_binlog_ray.stages.bpe import encode_word, learn_merges

        wc = pd.DataFrame(
            {"word": ["low", "lower", "newest", "widest"], "cnt": [5, 2, 6, 3]}
        )
        merges = learn_merges(wc, 4)
        # Sennrich et al. 2016 fig. 1: es, est, est</w>, lo
        assert merges == [("e", "s"), ("es", "t"), ("est", "</w>"), ("l", "o")]
        ranks = {tuple(p): i for i, p in enumerate(learn_merges(wc, 10))}
        assert encode_word("lowest", ranks) == ["low", "est</w>"]

    def test_indexed_learner_matches_naive(self):
        import random

        import pandas as pd

        from mysql_binlog_ray.stages.bpe import learn_merges

        rng = random.Random(17)
        vocab = {}
        for _ in range(120):
            w = "".join(rng.choice("abcde") for _ in range(rng.randint(1, 8)))
            vocab[w] = vocab.get(w, 0) + rng.randint(1, 50)
        wc = pd.DataFrame({"word": list(vocab), "cnt": list(vocab.values())})
        got = learn_merges(wc, 60)
        exp = self._naive_learn(vocab, 60)
        assert got == exp

    def test_distributed_train_apply_deterministic(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from mysql_binlog_ray.stages.bpe import apply_bpe, encode_word, train_bpe

        docs = [
            {"doc_id": i, "text": t}
            for i, t in enumerate(
                ["the lower river", "the newest widest low", "low low lower the"] * 20
            )
        ]
        merges_a = train_bpe(rd.from_items(docs, override_num_blocks=1), num_merges=30)
        merges_b = train_bpe(rd.from_items(docs, override_num_blocks=7), num_merges=30)
        assert merges_a == merges_b  # block-layout independent

        out = (
            apply_bpe(rd.from_items(docs), merges_a)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        ranks = {tuple(p): i for i, p in enumerate(merges_a)}
        import re

        for _, row in out.head(6).iterrows():
            text = docs[int(row["doc_id"])]["text"]
            words = re.findall(r"[a-z]+", text.lower())
            assert row["n_words"] == len(words)
            assert row["n_bpe_tokens"] == sum(
                len(encode_word(w, ranks)) for w in words
            )

    def test_grouped_sketch_emits_all_null_group(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from mysql_binlog_ray.stages.sketches import quantile_sketch_per_group

        df = pd.DataFrame(
            {"g": ["a", "a", "b", "b"], "v": [1.0, 2.0, None, None]}
        )
        out = (
            quantile_sketch_per_group(rd.from_pandas(df), ["g"], "v", [0.5], k=64)
            .to_pandas()
            .set_index("g")
        )
        # SQL GROUP BY emits the all-NULL group with NULL quantile, n=0
        assert set(out.index) == {"a", "b"}
        assert out.loc["b", "n"] == 0 and pd.isna(out.loc["b", "p50"])
        assert out.loc["a", "n"] == 2 and out.loc["a", "p50"] == 1.0

    def test_grouped_sketch_all_null_group_is_typed_null(self, ray_session):
        """The n==0 group's quantile cell must be an Arrow NULL, not a
        non-null float64 NaN — the group_percentiles / SQL convention (a
        driver comparing Arrow nullity flags NaN-for-NULL)."""
        import pandas as pd
        import ray.data as rd

        from mysql_binlog_ray.stages.sketches import quantile_sketch_per_group

        df = pd.DataFrame({"g": ["a", "a", "b"], "v": [1.0, 3.0, None]})
        out = quantile_sketch_per_group(rd.from_pandas(df), ["g"], "v", [0.5], k=64)
        tbl = pa.concat_tables(
            [b for b in out.iter_batches(batch_format="pyarrow")]
        )
        p50 = tbl.column("p50")
        by_g = dict(zip(tbl.column("g").to_pylist(), range(tbl.num_rows)))
        assert p50[by_g["a"]].is_valid  # real group: non-null
        assert p50[by_g["a"]].as_py() == 1.0  # quantile_disc picks a value
        assert not p50[by_g["b"]].is_valid  # all-NULL group: Arrow NULL

    def test_pct_col_names_collision_raises(self):
        from mysql_binlog_ray.stages.relational import pct_col_names

        assert pct_col_names([0.5, 0.9]) == ["p50", "p90"]
        with pytest.raises(ValueError, match="collide"):
            pct_col_names([0.135, 0.145])  # both round to p14


class TestMadOutliers:
    def test_flags_match_reference_and_null_handling(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from mysql_binlog_ray.stages.relational import mad_outliers

        rng = np.random.default_rng(8)
        df = pd.DataFrame(
            {
                "g": np.repeat(["a", "b"], 50),
                "v": np.concatenate(
                    [rng.normal(0, 1, 50), rng.normal(100, 5, 50)]
                ),
            }
        )
        df.loc[3, "v"] = 50.0   # wild outlier in group a
        df.loc[7, "v"] = None   # dropped
        df.loc[60, "g"] = None  # dropped
        out = mad_outliers(rd.from_pandas(df), ["g"], "v", k=3.0).to_pandas()
        assert len(out) == 98  # two NULL rows dropped
        for g in ("a", "b"):
            vals = df[(df["g"] == g) & df["v"].notna()]["v"].to_numpy()
            med = np.sort(vals)[int(np.ceil(0.5 * len(vals))) - 1]
            dev = np.abs(vals - med)
            mad = np.sort(dev)[int(np.ceil(0.5 * len(dev))) - 1]
            exp = dev > 3.0 * mad
            got = out[out["g"] == g]["is_outlier"].to_numpy()
            assert (got == exp).all()
        # the planted outlier is flagged
        assert out[(out["g"] == "a") & (out["v"] == 50.0)]["is_outlier"].all()


class TestRound5FastPathEquivalence:
    """The round-5 single-task fast paths must be invisible: every
    (fast path, exchange path) pair over the same input produces the
    same rows, including empty and skewed inputs."""

    def _mk(self, rng, n_left, n_right, key_space):
        left = pd.DataFrame(
            {
                "k": rng.integers(0, key_space, n_left) if n_left else pd.Series(dtype="int64"),
                "lv": rng.normal(size=n_left) if n_left else pd.Series(dtype="float64"),
            }
        )
        right = pd.DataFrame(
            {
                "k2": rng.integers(0, key_space, n_right) if n_right else pd.Series(dtype="int64"),
                "rv": rng.normal(size=n_right) if n_right else pd.Series(dtype="float64"),
            }
        )
        return left, right

    def test_hash_join_fast_paths_match_shuffle_join(self):
        from mysql_binlog_ray.stages.relational import hash_join

        rng = np.random.default_rng(11)
        shapes = [(300, 200, 40), (300, 0, 40), (0, 200, 40), (5, 400, 3)]
        for join_type in ("inner", "left_outer", "right_outer", "full_outer"):
            for n_l, n_r, ks in shapes:
                left, right = self._mk(rng, n_l, n_r, ks)
                fast = hash_join(
                    rd.from_pandas(left).materialize(),
                    rd.from_pandas(right).materialize(),
                    on="k", right_on="k2", join_type=join_type,
                ).to_pandas()
                # num_partitions pins the shuffle plan (disables every
                # fast path) — the reference result
                slow = hash_join(
                    rd.from_pandas(left).materialize(),
                    rd.from_pandas(right).materialize(),
                    on="k", right_on="k2", join_type=join_type,
                    num_partitions=8,
                ).to_pandas()

                def norm(df: pd.DataFrame) -> pd.DataFrame:
                    # Ray's shuffle join and pa.Table.join differ on
                    # key-column naming for outer types; compare on the
                    # shared value columns + coalesced key.  Empty
                    # results can surface with no columns at all (the
                    # known empty-dataset pitfall) — normalize to one
                    # canonical empty frame.
                    cols = [c for c in ("lv", "rv") if c in df.columns]
                    keys = [c for c in ("k", "k2") if c in df.columns]
                    if len(df) == 0 or not keys:
                        assert len(df) == 0
                        return pd.DataFrame({"_key": pd.Series(dtype="float64")})
                    key = df[keys[0]]
                    for c in keys[1:]:
                        key = key.fillna(df[c])
                    out = df[cols].assign(_key=key)
                    return (
                        out.round(9)
                        .sort_values(["_key", *cols])
                        .reset_index(drop=True)
                    )

                f, s = norm(fast), norm(slow)
                assert len(f) == len(s), (join_type, n_l, n_r, len(f), len(s))
                pd.testing.assert_frame_equal(f, s, check_dtype=False)

    def test_adaptive_num_parts_honors_small_target_part_bytes(self):
        # an explicit small target must beat the single-task shortcut:
        # equivalence tests pass target_part_bytes=4096 exactly to force
        # the exchange path
        from mysql_binlog_ray.stages.relational import adaptive_num_parts

        assert adaptive_num_parts(1 << 20, target_part_bytes=4096) > 1
        assert adaptive_num_parts(1 << 20) == 1
        # small_to_one engages the shortcut even with a pinned floor...
        assert adaptive_num_parts(1 << 20, min_parts=16, small_to_one=True) == 1
        # ...but never for an explicit small target or unmeasured input
        assert (
            adaptive_num_parts(
                1 << 20, target_part_bytes=4096, min_parts=16, small_to_one=True
            )
            > 1
        )
        assert adaptive_num_parts(0, min_parts=16, small_to_one=True) == 16

    def test_drop_empty_blocks_recovers_from_pandas_schema(self):
        from mysql_binlog_ray.stages.relational import drop_empty_blocks

        empty = pd.DataFrame(
            {"k": pd.Series(dtype="int64"), "name": pd.Series(dtype="object")}
        )
        out = drop_empty_blocks(rd.from_pandas(empty).materialize())
        assert out.count() == 0
        assert set(out.schema().names) == {"k", "name"}

    def test_compact_fragmented_preserves_rows_and_passes_large_through(self):
        from mysql_binlog_ray.stages.relational import compact_fragmented

        rng = np.random.default_rng(13)
        df = pd.DataFrame({"a": rng.integers(0, 100, 2000), "b": rng.normal(size=2000)})
        # heavily fragmented tiny dataset -> compacted
        frag = rd.from_pandas(df).repartition(48).materialize()
        comp = compact_fragmented(frag)
        assert comp.count() == 2000
        assert comp.num_blocks() < 48
        got = comp.to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
        exp = df.sort_values(["a", "b"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp)
        # a dataset with healthy (large-average) blocks passes through
        healthy = rd.from_pandas(df).materialize()
        assert compact_fragmented(healthy, max_avg_block_bytes=1) is healthy


class TestDriverContractIntegrity:
    """Structural invariants the correctness harness depends on —
    no Ray session needed."""

    def test_queries_oracles_and_rotation_consistent(self):
        import json
        import os

        import __ray_entry__ as e

        q = e.queries()
        o = e.oracle_sql()
        # every oracle has a query, every front entry exists and is oracled
        assert set(o) <= set(q)
        front = list(e._R5_FRONT)
        assert len(front) == len(set(front)), "duplicate rotation entries"
        assert set(front) <= set(o), "rotation must front SQL-oracled queries"
        # the rotation actually leads the dict
        assert list(q)[: len(front)] == front
        # the never-driver-sampled set (vs the recorded round-4 run) is
        # exactly the rotation
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(repo_root, "CORRECTNESS_r04.json")) as f:
            sampled = set(json.load(f))
        assert {k for k in q if k in o and k not in sampled} == set(front)

    def test_oracle_sql_mentions_only_registered_tables(self):
        import re

        import __ray_entry__ as e

        registered = {
            "region", "nation", "customer", "supplier", "part", "orders",
            "lineitem", "events", "documents", "embeddings",
        }
        for name, sql in e.oracle_sql().items():
            tables = set(re.findall(r"\b(?:FROM|JOIN)\s+([a-z_][a-z0-9_]*)\b", sql, re.I))
            unknown = {t.lower() for t in tables} - registered - {"unnest"}
            # CTE names are declared in the same statement — allow them
            ctes = {
                m.lower()
                for m in re.findall(r"(\w+)\s*(?:\([^)]*\))?\s+AS\s*\(", sql, re.I)
            }
            assert unknown <= ctes, f"{name}: unregistered tables {unknown - ctes}"


class TestReadSizing:
    def test_rp_sizes_a_directory_by_its_parquet_files(self, tmp_path, monkeypatch):
        """`_rp` of a multi-file directory computes its block override from
        the parquet files under it, not from the directory inode's size."""
        import os

        import pyarrow.parquet as pq

        from mysql_binlog_ray.pipelines import queries

        table_dir = tmp_path / "table"
        (table_dir / "nested").mkdir(parents=True)
        files = [table_dir / "part-0.parquet", table_dir / "nested" / "part-1.parquet"]
        for i, f in enumerate(files):
            pq.write_table(pa.table({"x": list(range(1000 * (i + 1)))}), f)
        (table_dir / "_SUCCESS").write_bytes(b"x" * 4096)  # not parquet: not counted
        assert queries._parquet_files(str(table_dir)) == sorted(map(str, files))

        sized, seen = [], {}
        monkeypatch.setattr(
            queries.R, "adaptive_num_parts", lambda total, **kw: sized.append((total, kw)) or 11
        )
        monkeypatch.setattr(queries.rd, "read_parquet", lambda path, **kw: seen.update(kw))
        queries._rp(str(table_dir))
        total, kw = sized[0]
        assert total == sum(os.path.getsize(f) for f in files)
        assert kw["min_parts"] == 8 and seen["override_num_blocks"] == 11
