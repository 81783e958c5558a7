"""Quickstart: the libpdf_ray engine end to end.

Run from the repo root (workers import libpdf_ray from cwd):

    python examples/quickstart.py
"""

import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import ray

ray.init(address="local", num_cpus=8, include_dashboard=False,
         logging_level="ERROR")

from libpdf_ray.config import SMART_CROP_CONFIG
from libpdf_ray.fixtures import write_corpus
from libpdf_ray.ops.util import tune_data_context
from libpdf_ray.pipelines.extract import extract_spans, read_corpus, spans_table
from libpdf_ray.stages.views import view_table

tune_data_context()

# 1. a deterministic synthetic corpus of interleaved documents
corpus = "/tmp/quickstart_corpus"
shutil.rmtree(corpus, ignore_errors=True)
write_corpus(corpus, n_docs=60, seed=42, shards=4)

# 2. the flagship pipeline: read → per-document parse → span corpus
spans = extract_spans(read_corpus(corpus), SMART_CROP_CONFIG)
shutil.rmtree("/tmp/quickstart_out", ignore_errors=True)
spans.write_parquet("/tmp/quickstart_out")
print("docs:", spans.count())

# 3. relational views over the same extraction
flat = spans_table(extract_spans(read_corpus(corpus), SMART_CROP_CONFIG))
print(flat.groupby("kind", num_partitions=4).count().to_pandas())

els = view_table(read_corpus(corpus), "elements", SMART_CROP_CONFIG)
print(els.to_pandas()[["uid", "etype", "page"]].head(8))

ray.shutdown()
