"""Pipeline configuration — the immutable replacement for libpdf's mutable globals.

The reference keeps tunables as module-level constants and *mutable* globals
(``/root/reference/libpdf/parameters.py:26-228``, mutated by the CLI at
``libpdf/core.py:79-83``).  In the Ray engine every stage receives one frozen
``PipelineConfig`` via ``fn_constructor_kwargs`` so actor-pool workers never
share mutable state.

All numeric values mirror the reference constants (file:line cited per field).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class PipelineConfig:
    """Frozen parameters of the extraction pipeline.

    Field provenance (all paths into /root/reference):

    - ``table_margin``: libpdf/parameters.py:26 (TABLE_MARGIN)
    - ``headline_tolerance``: libpdf/parameters.py:46 (HEADLINE_TOLERANCE)
    - ``chapter_rectangle_extend``: libpdf/parameters.py:69
    - ``chapter_textbox_tolerance``: libpdf/parameters.py:74
    - ``min_outline_title_similarity``: libpdf/parameters.py:79
    - ``anno_x_tolerance`` / ``anno_y_tolerance``: libpdf/parameters.py:85-86
    - ``target_coor_tolerance``: libpdf/parameters.py:116
    - ``figure_min_height`` / ``figure_min_width``: libpdf/parameters.py:120-121
    - ``smart_page_crop_rel_margins``: libpdf/parameters.py:144-147
    - ``header_footer_occurrence_percentage``: libpdf/parameters.py:152
    - ``pages_missing_header_or_footer_percentage``: libpdf/parameters.py:184
    - ``header_or_footer_continuous_percentage``: libpdf/parameters.py:185
    - ``unique_header_or_footer_elements_percentage``: libpdf/parameters.py:186
    - feature toggles: libpdf/core.py:23-45 (no_annotations … page_range)
    """

    # --- geometry tolerances (points; 72 pt = 1 inch) ---
    table_margin: float = 8.0
    headline_tolerance: float = 20.0
    chapter_rectangle_extend: float = 20.0
    chapter_textbox_tolerance: float = 1.0
    min_outline_title_similarity: float = 0.6
    anno_x_tolerance: float = 3.0
    anno_y_tolerance: float = 3.0
    target_coor_tolerance: float = 65.0
    figure_min_height: float = 15.0
    figure_min_width: float = 15.0
    rect_text_offset: float = 5.0  # libpdf/extract.py:700 (+5pt crop offset)
    table_figure_tolerance: float = 5.0  # libpdf/tables.py:221-229 (±5pt)

    # --- layout analysis (pdfminer LA_PARAMS, libpdf/parameters.py:220-228;
    # the reference passes line_overlap as the ABSOLUTE y tolerance of line
    # regrouping, libpdf/utils.py:616-622 — quirk preserved) ---
    line_y_tolerance: float = 0.5  # LA_PARAMS['line_overlap']
    word_margin: float = 0.1  # LA_PARAMS['word_margin']
    # pdfminer line-membership gap rule for UNGROUPED page analysis
    # (LA_PARAMS['char_margin'] = 6.0, libpdf/parameters.py:222): columns
    # across a gutter split into separate lines/boxes
    char_margin: float = 6.0
    # textbox grouping: lines whose vertical gap < line_margin × line
    # height join the same box (pdfminer group_textlines; the reference
    # overrides the 0.5 default to 0.4, parameters.py:223)
    line_margin: float = 0.4

    # --- lines-strategy table detection (libpdf/tables.py:62-79) ---
    snap_tolerance: float = 3.0
    join_tolerance: float = 3.0
    edge_min_length: float = 3.0

    # --- smart page crop (header/footer removal) ---
    smart_page_crop: bool = False
    smart_page_crop_top: float = 0.2  # SMART_PAGE_CROP_REL_MARGINS['top']
    smart_page_crop_bottom: float = 0.2  # SMART_PAGE_CROP_REL_MARGINS['bottom']
    header_footer_occurrence_percentage: float = 0.3
    pages_missing_header_or_footer_percentage: float = 0.15
    header_or_footer_continuous_percentage: float = 0.8
    unique_header_or_footer_elements_percentage: float = 0.05

    # --- feature toggles (libpdf/core.py:23-45) ---
    page_range: str = ""  # e.g. "3-5,7" (libpdf/core.py:536-553); "" = all
    # static crop margins in points (top, bottom, left, right) — the
    # reference's page_crop arg / PAGE_CROP_MARGINS global
    # (libpdf/parameters.py:131-136, mutated at core.py:79-83): layout
    # textboxes outside the cropped page box are dropped before extraction
    page_crop: tuple = (0.0, 0.0, 0.0, 0.0)
    no_annotations: bool = False
    no_chapters: bool = False
    no_paragraphs: bool = False
    no_tables: bool = False
    no_figures: bool = False
    no_rects: bool = False

    # --- Ray execution knobs (engine-only; no reference analog) ---
    # docs per parse batch.  Measured on this node (BENCH notes in
    # BASELINE.md): 8 → tiny-task overhead dominates the ~1 ms/doc kernel
    # (40 s cold); 64 → better, but manual-heavy batches straggle; 24 wins
    # at every parallelism level tested (4/8/16/32 CPUs) — small enough to
    # pack the skew tail, big enough to amortize task overhead.
    parse_batch_size: int = 24


DEFAULT_CONFIG = PipelineConfig()
SMART_CROP_CONFIG = PipelineConfig(smart_page_crop=True)
