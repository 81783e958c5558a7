"""Corpus reader with format gating.

The north rule names Lance tables; this container ships only parquet, so the
reader resolves the best available format at call time (``lance``/
``ray.data.read_lance`` when importable, parquet otherwise) — pipeline code
stays format-agnostic.
"""

from __future__ import annotations

import importlib.util


def lance_available() -> bool:
    return (
        importlib.util.find_spec("lance") is not None
        or importlib.util.find_spec("pylance") is not None
    )


def read_documents(path: str, columns=None, file_format: str = "auto", **kwargs):
    """Read a documents corpus directory/file as a Dataset.

    ``file_format``: "auto" | "parquet" | "lance" | "json" | "csv".
    """
    import ray.data as rd

    if file_format == "auto":
        if str(path).endswith(".lance") and lance_available():
            file_format = "lance"
        elif str(path).endswith(".json") or str(path).endswith(".jsonl"):
            file_format = "json"
        elif str(path).endswith(".csv"):
            file_format = "csv"
        else:
            file_format = "parquet"
    if file_format == "lance":
        if not lance_available():
            raise NotImplementedError(
                "lance is not installed in this environment; "
                "write/read parquet instead (same schema)"
            )
        return rd.read_lance(path, columns=columns, **kwargs)
    if file_format == "json":
        return rd.read_json(path, **kwargs)
    if file_format == "csv":
        return rd.read_csv(path, **kwargs)
    return rd.read_parquet(path, columns=columns, **kwargs)
