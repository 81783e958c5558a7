"""libpdf_ray — a Ray-Data-native structured-document extraction engine.

Brand-new engine with the query/data-processing capabilities of
useblocks/libpdf (reference at /root/reference, MIT), re-expressed as
``ray.data.Dataset`` pipelines over zero-copy Arrow batches.  See SURVEY.md
for the operator-by-operator mapping and the span-equality contract.

Public surface:

- :func:`libpdf_ray.pipelines.extract.read_corpus` /
  :func:`~libpdf_ray.pipelines.extract.extract_spans` — the flagship
  read → parse → spans pipeline (the analog of ``libpdf.load()``).
- :func:`libpdf_ray.pipelines.checkpoint.run_resumable` — the one plan
  the CLI runs for every input format (sidecar parquet, PDF, HTML) and
  output mode: span parquet or YAML trees plus side outputs, committed
  per work item with a manifest, so a killed run resumes.
- :mod:`libpdf_ray.kernels` — the pure per-document extraction semantics
  (unit-testable without Ray).
- :mod:`libpdf_ray.ops` — dataset-level operators for large-scale
  training-data pipelines (dedup, similarity search, text analysis,
  multimodal plumbing, relational queries).
- :mod:`libpdf_ray.fixtures` — deterministic synthetic corpus
  (generator-as-oracle, seed=42).

No module in this package calls ``ray.init``/``ray.shutdown``; sessions are
owned by the caller (driver contract in ``__ray_entry__.py``).
"""

from .config import DEFAULT_CONFIG, SMART_CROP_CONFIG, PipelineConfig

__all__ = [
    "PipelineConfig",
    "DEFAULT_CONFIG",
    "SMART_CROP_CONFIG",
]

__version__ = "0.1.0"
