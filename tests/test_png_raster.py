"""PNG codec + raster export tests (K2/K3 de-stubbed, round-5).

The reference exports 300-dpi figure crops (libpdf/extract.py:734-754)
and 150-dpi visual-debug pages (libpdf/utils.py:752-838); these tests
pin the engine's stdlib raster twin: encode→decode round-trips, canvas
geometry, and the real-bytes contract of every media sink (what we
write, we can decode, and the pixels carry the drawn content).
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pandas as pd
import pytest

from libpdf_ray.config import PipelineConfig
from libpdf_ray.kernels.png import Canvas, decode_png, encode_png

CFG = PipelineConfig()


class TestCodec:
    def test_roundtrip_rgba(self):
        rng = np.random.default_rng(7)
        arr = rng.integers(0, 256, (33, 47, 4)).astype(np.uint8)
        assert (decode_png(encode_png(arr)) == arr).all()

    def test_roundtrip_rgb(self):
        rng = np.random.default_rng(8)
        arr = rng.integers(0, 256, (20, 20, 3)).astype(np.uint8)
        out = decode_png(encode_png(arr))
        assert out.shape == (20, 20, 3)
        assert (out == arr).all()

    def test_decode_rejects_garbage(self):
        with pytest.raises(ValueError):
            decode_png(b"\x89PNG-STUB\r\nnotapng")

    def test_decode_all_filters(self):
        """Hand-build a PNG using each filter type; decode must invert."""
        import struct
        import zlib

        h, w, ch = 5, 4, 3
        rng = np.random.default_rng(9)
        img = rng.integers(0, 256, (h, w, ch)).astype(np.uint8)
        flat = img.reshape(h, w * ch).astype(np.int64)
        raw = bytearray()
        prev = np.zeros(w * ch, dtype=np.int64)
        for y, ft in enumerate([0, 1, 2, 3, 4]):
            row = flat[y]
            enc = np.zeros(w * ch, dtype=np.int64)
            for i in range(w * ch):
                a = row[i - ch] if i >= ch else 0
                b = prev[i]
                c = prev[i - ch] if i >= ch else 0
                if ft == 0:
                    pred = 0
                elif ft == 1:
                    pred = a
                elif ft == 2:
                    pred = b
                elif ft == 3:
                    pred = (a + b) // 2
                else:
                    pa, pb, pc = abs(b - c), abs(a - c), abs(a + b - 2 * c)
                    pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
                enc[i] = (row[i] - pred) % 256
            raw.append(ft)
            raw += bytes(enc.astype(np.uint8))
            prev = row

        def chunk(tag, body):
            return (
                struct.pack(">I", len(body)) + tag + body
                + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF)
            )

        data = (
            b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))
            + chunk(b"IDAT", zlib.compress(bytes(raw)))
            + chunk(b"IEND", b"")
        )
        assert (decode_png(data) == img).all()


class TestCanvas:
    def test_dims_and_fill(self):
        cv = Canvas(72, 36, dpi=144)  # 1in × 0.5in at 144 dpi
        assert cv.buf.shape == (72, 144, 4)
        cv.fill_rect(0, 0, 36, 36, (255, 0, 0, 255))
        # left half red (bottom-left pt origin → lower-left pixels)
        assert (cv.buf[:, :72, 0] == 255).all()
        assert (cv.buf[:, :72, 1] == 0).all()
        assert (cv.buf[:, 80:, 1] == 255).all()  # right half untouched white

    def test_alpha_blend(self):
        cv = Canvas(10, 10, dpi=72)
        cv.fill_rect(0, 0, 10, 10, (0, 0, 255, 128))  # ~half-blue over white
        px = cv.buf[5, 5]
        assert px[2] == 255 and 120 < px[0] < 135  # red dimmed, blue kept

    def test_y_flip(self):
        cv = Canvas(10, 20, dpi=72)
        cv.fill_rect(0, 15, 10, 20, (0, 0, 0, 255))  # TOP 5pt in page coords
        assert (cv.buf[0, :, :3] == 0).all()      # image row 0 = page top
        assert (cv.buf[19, :, 0] == 255).all()

    def test_text_marks_pixels(self):
        cv = Canvas(100, 20, dpi=150)
        cv.text("AXE 42", 2, 4, 12, (0, 0, 0, 255))
        dark = int((cv.buf[:, :, :3] == 0).all(axis=2).sum())
        assert dark > 100  # glyphs actually rasterized


class TestMediaSinks:
    def test_figure_crop_png_draws_content(self):
        from libpdf_ray.state.media_store import _figure_crop_png

        bbox = (100.0, 100.0, 200.0, 180.0)
        words = [("Cap", 110.0, 110.0, 140.0, 120.0)]
        segs = [(100.0, 140.0, 200.0, 140.0)]
        rects = [(105.0, 105.0, 195.0, 175.0)]
        arr = decode_png(_figure_crop_png(bbox, words, segs, rects, dpi=150))
        # 100×80 pt at 150 dpi
        assert arr.shape[:2] == (round(80 * 150 / 72), round(100 * 150 / 72))
        nonwhite = int((arr[:, :, :3] < 250).any(axis=2).sum())
        assert nonwhite > 500

    def test_empty_crop_gets_placeholder_frame(self):
        from libpdf_ray.state.media_store import _figure_crop_png

        arr = decode_png(_figure_crop_png((0, 0, 72, 72), [], [], [], dpi=72))
        nonwhite = int((arr[:, :, :3] < 250).any(axis=2).sum())
        assert nonwhite > 100  # frame + diagonal cross, never blank

    def test_debug_page_png(self):
        from libpdf_ray.stages.elements import _page_png

        boxes = [
            ("paragraph", "paragraph.1", 50.0, 600.0, 400.0, 700.0),
            ("table", "table.1", 50.0, 300.0, 400.0, 500.0),
        ]
        arr = decode_png(_page_png(612.0, 792.0, boxes, dpi=150))
        assert arr.shape[:2] == (1650, 1275)  # letter at 150 dpi
        # paragraph fill is blue-ish (DEBUG rgba blue alpha 40)
        blue = arr[300, 600]  # inside the paragraph box (top region)
        assert blue[2] > blue[0]

    def test_real_feature_extractor_roundtrip(self, tmp_path):
        """Write real crops, then decode them through the multimodal
        extractor — dims and channel stats come from the actual bytes."""
        from libpdf_ray.ops.multimodal import MediaFeatureExtractor
        from libpdf_ray.state.media_store import _figure_crop_png

        ref = "media/d/fig.png"
        path = tmp_path / ref
        path.parent.mkdir(parents=True)
        path.write_bytes(_figure_crop_png(
            (100.0, 100.0, 200.0, 180.0), [("Fig", 110.0, 110.0, 140.0, 120.0)],
            [(100.0, 140.0, 200.0, 140.0)], [(105.0, 105.0, 195.0, 175.0)],
            dpi=72,
        ))
        out = MediaFeatureExtractor(media_root=str(tmp_path))(
            pd.DataFrame({"media_ref": [ref]})
        )
        assert out["media_error"][0] == ""
        arr = decode_png(path.read_bytes())
        assert out["media_width"][0] == arr.shape[1]
        assert out["media_height"][0] == arr.shape[0]
        mean_r = arr[:, :, 0].mean() / 255.0
        assert abs(out["media_features"][0][0] - mean_r) < 1e-6

    def test_gray_alpha_png_uses_gray_channel_only(self, tmp_path):
        """Color type 4 (gray+alpha) decodes to HxWx2; the extractor must
        repeat the gray channel alone, not mix alpha into mean_rgb."""
        import struct
        import zlib

        from libpdf_ray.ops.multimodal import MediaFeatureExtractor

        def chunk(kind, body):
            return (struct.pack(">I", len(body)) + kind + body
                    + struct.pack(">I", zlib.crc32(kind + body) & 0xFFFFFFFF))

        h, w = 5, 7
        gray = (np.arange(h * w, dtype=np.uint8) * 7).reshape(h, w)
        ga = np.stack([gray, np.full((h, w), 255, np.uint8)], axis=2)
        raw = np.concatenate(
            [np.zeros((h, 1), np.uint8), ga.reshape(h, w * 2)], axis=1
        )
        png = (b"\x89PNG\r\n\x1a\n"
               + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 4, 0, 0, 0))
               + chunk(b"IDAT", zlib.compress(raw.tobytes()))
               + chunk(b"IEND", b""))
        assert decode_png(png).shape == (h, w, 2)
        (tmp_path / "ga.png").write_bytes(png)
        meta = MediaFeatureExtractor(media_root=str(tmp_path))._real_decode("ga.png")
        assert (meta["width"], meta["height"]) == (w, h)
        assert meta["pixels"].reshape(-1, 3).shape[0] == h * w
        assert meta["mean_rgb"] == pytest.approx([gray.mean() / 255.0] * 3)

    def test_crop_writer_png_over_real_pdf(self, ray_session, tmp_path):
        """End-to-end K2 on a REAL reference PDF: export 300-dpi raster
        crops for full_features.pdf and decode every written file."""
        from libpdf_ray.pipelines.checkpoint import run_resumable
        from libpdf_ray.stages.outputs import Outputs

        media = str(tmp_path / "media")
        summary = run_resumable(
            "/root/reference/tests/pdf/full_features.pdf", str(tmp_path / "run"),
            CFG, Outputs(media_dir=media, media_format="png"), "pdf",
        )
        assert (summary["documents"], summary["errors"]) == (1, 0)
        assert summary["media_crops"] == 7  # the reference's 7 figures
        pngs = glob.glob(os.path.join(media, "**", "*.png"),
                         recursive=True)
        assert len(pngs) == 7
        for f in pngs:
            arr = decode_png(open(f, "rb").read())
            assert arr.shape[0] > 10 and arr.shape[1] > 10
