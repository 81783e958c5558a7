#!/usr/bin/env python3
"""Pin the in-process reference of the PDF documents whose byte round trip
differs from ``expected_spans`` by design, for seeds 0 .. N-1.

    python3 perfbench/pin_references.py [--seeds 1024]

Run from the repository root, at a commit whose output is known good.  It
writes perfbench/pinned_references.json: for each seed, one digest over
the ordered (doc_id, span digest) pairs of the ``splitchapter`` and
``figures`` documents of the ``pdf_small`` corpus.  Building a corpus
compares its own in-process reference against this digest and fails on a
difference, so a change that alters these families' output in the library
cannot pass by producing its own reference.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    sys.path[:0] = [os.path.dirname(HERE), HERE]
    import corpora
    from libpdf_ray.fixtures import build_document
    from libpdf_ray.kernels.pdfwrite import write_pdf

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=int, default=1024)
    args = p.parse_args()
    wl = corpora.WORKLOADS["pdf_small"]
    digests = {}
    for seed in range(args.seeds):
        refs = []
        for i, fam in corpora._pdf_specs(wl):
            if fam in corpora.PDF_INEXACT_FAMILIES:
                doc = build_document(i, fam, seed, wl.size["pages"])
                refs.append([doc["doc_id"],
                             corpora.pdf_reference(doc, write_pdf(doc))])
        digests[str(seed)] = corpora.pinned_digest(refs)
    with open(corpora.PINNED_REFERENCES, "w") as fh:
        json.dump({"workload": wl.name, "size": wl.size,
                   "families": list(corpora.PDF_INEXACT_FAMILIES),
                   "digests": digests}, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
