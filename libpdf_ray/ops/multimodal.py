"""Multimodal column plumbing: opaque binary payloads + typed metadata.

Mirrors the engine's media model (figures carry ``media_ref`` pointers, never
inline bytes — SURVEY §1.3): media lives in a sidecar object store keyed by
``media_ref``; pipelines move references and small fixed-size features.

Round 5: a REAL decode path exists.  ``kernels/png.py`` decodes the PNG
objects the media sinks write, so ``MediaFeatureExtractor(media_root=…)``
reads actual bytes and computes actual dimensions + channel statistics.
Without a ``media_root`` (pure-reference pipelines that never wrote
media) the extractor falls back to the deterministic ref-derived stand-in
— stable, documented, and pinned by the ``media_meta`` oracle.  Video/
audio codecs remain out of scope for this container; their stages would
bind at the same seam.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd

MEDIA_FEATURE_DIM = 8


def _fake_decode(media_ref: str) -> dict:
    """Deterministic stand-in for image decode: derives stable pseudo
    dimensions and channel stats from the ref.  Raises on empty refs, as a
    real decoder would on missing blobs."""
    if not media_ref:
        raise ValueError("empty media_ref")
    digest = hashlib.md5(media_ref.encode()).digest()
    width = 64 + digest[0] * 8
    height = 64 + digest[1] * 8
    mean_rgb = [digest[2] / 255.0, digest[3] / 255.0, digest[4] / 255.0]
    return {"width": width, "height": height, "mean_rgb": mean_rgb}


class MediaFeatureExtractor:
    """Actor-pool stage: media_ref → fixed-width feature vector + metadata.

    A real deployment loads the decoder/model in ``__init__`` (once per
    actor) and reads bytes from the object store by ref; batches must stay
    small (decoded frames are large).  ``strict=False`` routes decode
    failures to an ``error`` column instead of poisoning the task — the
    poison-document discipline of SURVEY §4.2."""

    def __init__(self, feature_dim: int = MEDIA_FEATURE_DIM, strict: bool = False,
                 media_root: str = ""):
        self.feature_dim = feature_dim
        self.strict = strict
        # real codec: the stdlib PNG decoder over the media object store;
        # loaded once per actor (actor-pool __init__ discipline)
        self.media_root = media_root
        if media_root:
            from ..kernels.png import decode_png

            self._decode_png = decode_png

    def _real_decode(self, media_ref: str) -> dict:
        """Read + decode the actual media object → dims and channel means."""
        import os

        path = os.path.join(self.media_root, media_ref)
        with open(path, "rb") as fh:
            arr = self._decode_png(fh.read())
        # gray (1 channel) and gray+alpha (2): repeat the gray channel only
        rgb = arr[:, :, :3] if arr.shape[2] >= 3 else np.repeat(arr[:, :, :1], 3, axis=2)
        mean = (rgb.reshape(-1, 3).mean(axis=0) / 255.0).tolist()
        return {"width": arr.shape[1], "height": arr.shape[0],
                "mean_rgb": mean, "pixels": rgb}

    def _features(self, media_ref: str, meta: dict) -> np.ndarray:
        if "pixels" in meta:
            # real features: per-channel mean + std + overall luma stats
            rgb = meta["pixels"].reshape(-1, 3).astype(np.float64) / 255.0
            luma = rgb @ np.asarray([0.299, 0.587, 0.114])
            vec = np.concatenate(
                [rgb.mean(axis=0), rgb.std(axis=0),
                 [float(luma.mean()), float(luma.std())]]
            )
            return vec[: self.feature_dim]
        digest = hashlib.md5((media_ref + "#feat").encode()).digest()
        vec = np.frombuffer(digest[: self.feature_dim], dtype=np.uint8)
        vec = vec.astype(np.float64) / 255.0
        return np.concatenate(
            [vec[: self.feature_dim - 3], np.asarray(meta["mean_rgb"])]
        )[: self.feature_dim]

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        widths, heights, feats, errors = [], [], [], []
        for ref in batch["media_ref"]:
            try:
                meta = (
                    self._real_decode(ref) if self.media_root
                    else _fake_decode(ref)
                )
                widths.append(meta["width"])
                heights.append(meta["height"])
                feats.append(self._features(ref, meta).tolist())
                errors.append("")
            except Exception as exc:  # poison-row → error column
                if self.strict:
                    raise
                widths.append(0)
                heights.append(0)
                feats.append([0.0] * self.feature_dim)
                errors.append(f"{type(exc).__name__}: {exc}")
        batch["media_width"] = np.asarray(widths, dtype="int64")
        batch["media_height"] = np.asarray(heights, dtype="int64")
        batch["media_features"] = feats
        batch["media_error"] = errors
        return batch


def media_table(spans_ds):
    """Figure spans → media rows (doc_id, media_ref): the join key table
    between the span corpus and the media object store."""
    def figures_only(df: pd.DataFrame) -> pd.DataFrame:
        out = df[df["kind"] == "figure"][["doc_id", "media_ref"]]
        return out[out["media_ref"] != ""]

    return spans_ds.map_batches(figures_only, batch_format="pandas")


def extract_media_features(spans_ds, batch_size: int = 64, concurrency=None,
                           media_root: str = ""):
    """The full multimodal path: spans → media refs → decoded features.
    ``media_root`` set → REAL decode of the written PNG objects; unset →
    the deterministic ref-derived stand-in.  Small batch_size on purpose:
    decoded payloads dominate worker heap.  ``concurrency`` defaults to an
    autoscaling actor pool of one to one-per-cluster-CPU."""
    if concurrency is None:
        from .util import cluster_cpus

        concurrency = (1, max(1, cluster_cpus()))
    return media_table(spans_ds).map_batches(
        MediaFeatureExtractor,
        fn_constructor_kwargs={"media_root": media_root},
        batch_format="pandas",
        batch_size=batch_size,
        concurrency=concurrency,
    )
