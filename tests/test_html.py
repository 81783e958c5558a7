"""HTML main-content extraction: DOM builder, boilerplate heuristics,
renderer-as-oracle roundtrip, and the Ray pipeline shape."""

import pyarrow as pa
import pytest

from libpdf_ray.kernels.htmldom import (
    extract_main,
    parse_html,
    render_html,
)


class TestDomBuilder:
    def test_nesting_and_attrs(self):
        root, title = parse_html(
            "<html><head><title>T</title></head>"
            '<body><div id="x" class="y"><p>hi <b>bold</b></p></div></body></html>'
        )
        assert title == "T"
        html = root.children[0]
        body = [c for c in html.children if not isinstance(c, str)][1]
        div = [c for c in body.children if not isinstance(c, str)][0]
        assert div.attrs == {"id": "x", "class": "y"}
        p = [c for c in div.children if not isinstance(c, str)][0]
        assert p.tag == "p"

    def test_void_elements_do_not_swallow_siblings(self):
        rec = extract_main("<body><p>a<br>b</p><p>c<img src='x'>d</p></body>")
        assert rec["main_text"] == "ab cd"

    def test_unclosed_tags_tolerated(self):
        rec = extract_main("<body><p>one<p>two<div><p>three</body>")
        assert rec["main_text"] == "one two three"

    def test_stray_close_tag_dropped(self):
        rec = extract_main("<body></span><p>ok</p></em></body>")
        assert rec["main_text"] == "ok"

    def test_entities_unescaped(self):
        rec = extract_main("<body><p>a &amp; b &lt;c&gt;</p></body>")
        assert rec["main_text"] == "a & b <c>"


class TestBoilerplateHeuristics:
    PAGE = (
        "<html><head><title>the title</title>"
        "<style>p{color:red}</style><script>var x=1;</script></head>"
        "<body>"
        "<header><h1>Site</h1></header>"
        "<nav><a href='/'>home</a><a href='/a'>about</a></nav>"
        "<aside><p>sidebar junk</p></aside>"
        "<div class='sidebar'><p>more junk</p></div>"
        "<article><p>real content here</p>"
        "<div class='ad'>buy now</div>"
        "<p>second paragraph</p></article>"
        "<div id='comments'><p>troll comment</p></div>"
        "<footer><p>copyright</p></footer>"
        "</body></html>"
    )

    def test_structural_pruning(self):
        rec = extract_main(self.PAGE)
        assert rec["main_text"] == "real content here second paragraph"
        assert rec["title"] == "the title"
        assert rec["n_blocks"] == 2

    def test_link_density_kills_link_farms_without_class_hints(self):
        page = (
            "<body><div>"
            "<a href='1'>one</a> <a href='2'>two</a> <a href='3'>three</a>"
            "</div><p>prose paragraph with enough words</p></body>"
        )
        rec = extract_main(page)
        assert rec["main_text"] == "prose paragraph with enough words"
        assert rec["n_dropped"] == 1

    def test_inline_anchor_in_prose_is_kept(self):
        page = "<body><p>see the <a href='#r'>reference</a> for details today</p></body>"
        rec = extract_main(page)
        assert rec["main_text"] == "see the reference for details today"

    def test_unknown_container_tags_recurse_like_divs(self):
        rec = extract_main("<body><center><p>centered words</p></center></body>")
        assert rec["main_text"] == "centered words"

    def test_class_pattern_is_word_aware(self):
        # "adventure" must NOT match the "ad" pattern; "top-ad" must
        rec = extract_main(
            "<body><div class='adventure'><p>keep me here</p></div>"
            "<div class='top-ad'><p>strip me</p></div></body>"
        )
        assert rec["main_text"] == "keep me here"


class TestRendererRoundtrip:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_roundtrip_synthetic_vocab(self, seed):
        vocab = "alpha beta gamma delta epsilon zeta eta theta".split()
        for i in range(60):
            n = 5 + (i * 7 + seed) % 120
            text = " ".join(vocab[(i * 31 + j * 7 + seed) % len(vocab)] for j in range(n))
            rec = extract_main(render_html(i + seed * 1000, text))
            assert rec["main_text"] == text, f"doc {i} seed {seed}"
            assert rec["title"] == text[:40].strip()

    def test_roundtrip_empty_text(self):
        rec = extract_main(render_html(7, ""))
        assert rec["main_text"] == ""

    def test_renderer_is_deterministic(self):
        assert render_html(42, "a b c") == render_html(42, "a b c")

    def test_chrome_is_actually_injected(self):
        pages = [render_html(i, "word " * 50) for i in range(12)]
        modern = [p for p in pages if '<table width="100%"' not in p]
        legacy = [p for p in pages if '<table width="100%"' in p]
        assert modern and legacy, "both archetypes must occur"
        for marker in ("<nav>", "sidebar", "comments", "<footer>"):
            assert all(marker in p for p in modern)
        for marker in ('class="nav"', 'class="sidebar"', 'class="footer"',
                       "comments"):
            assert all(marker in p for p in legacy)
        # inline ads fire per-paragraph with probability 1/4 — across 12
        # deterministic pages at least one must carry one
        assert any('class="ad"' in p for p in pages)


class TestFuzz:
    def test_garbage_never_raises(self):
        """Poison-input discipline at the kernel level: arbitrary byte
        soups (broken tags, nulls, nested junk) must parse to SOME result,
        never raise — the batch op's error-row path is for truly
        pathological cases only."""
        import zlib

        pieces = [
            "<", ">", "</", "<>", "<p", "p>", "&", "&amp", "&#x;", "<!--",
            "-->", "<!", "<a href='", "'>", '"', "\x00", "\\", "<<p>>",
            "<p class=>", "</nav>", "<table><td>", "word ", "<ul><li>",
        ]
        for seed in range(80):
            rng = zlib.crc32(str(seed).encode())
            soup = []
            for j in range(60):
                rng = (rng * 1103515245 + 12345) & 0x7FFFFFFF
                soup.append(pieces[rng % len(pieces)])
            rec = extract_main("".join(soup))
            assert isinstance(rec["main_text"], str)

    def test_deeply_nested_does_not_blow_recursion(self):
        page = "<div>" * 400 + "<p>deep text</p>" + "</div>" * 400
        rec = extract_main(page)
        assert rec["main_text"] == "deep text"


class TestRayPipeline:
    def test_extractor_batch_schema(self, ray_session):
        from libpdf_ray.ops.html import extract_main_batch, render_pages_batch

        batch = pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array(["one two three", ""], pa.string()),
                "lang": pa.array(["en", "en"], pa.string()),
                "source": pa.array(["s0", "s1"], pa.string()),
            }
        )
        pages = render_pages_batch(batch)
        assert pages.column_names == ["doc_id", "source", "html"]
        out = extract_main_batch(pages)
        assert out.column("main_text").to_pylist() == ["one two three", ""]
        assert out.column("n_words").to_pylist() == [3, 0]

    def test_cli_html_input_to_spans(self, ray_session, tmp_path):
        """--input-format html over a directory of real .html files →
        span-schema parquet whose paragraphs rebuild the source text."""
        import glob
        import os

        import pyarrow.parquet as pq

        from libpdf_ray.__main__ import main

        pages = str(tmp_path / "pages")
        out = str(tmp_path / "out")
        os.makedirs(pages)
        texts = {
            f"doc{i:03d}": " ".join(f"w{i}x{j}" for j in range(30 + i * 7))
            for i in range(6)
        }
        for did, text in texts.items():
            with open(os.path.join(pages, f"{did}.html"), "w") as fh:
                fh.write(render_html(did, text))
        # one poison page: truncated garbage with NULs
        with open(os.path.join(pages, "doc_bad.html"), "w") as fh:
            fh.write("<html><body><p>unterminated " + "\x00" * 4)
        # one page that is not UTF-8: an error row, the other pages parse
        with open(os.path.join(pages, "doc_latin1.html"), "wb") as fh:
            fh.write(b"<html><body><p>caf\xe9</p></body></html>")

        rc = main([pages, "-o", out, "--input-format", "html"])
        assert rc == 0
        t = pa.concat_tables(pq.read_table(f) for f in glob.glob(
            os.path.join(out, "part-*", "*.parquet")))
        rows = {r["doc_id"]: r for r in t.to_pylist()}
        assert t.num_rows == len(rows)
        assert set(rows) == set(texts) | {"doc_bad", "doc_latin1"}
        for did, text in texts.items():
            spans = rows[did]["spans"]
            assert spans[0]["kind"] == "chapter"
            assert spans[0]["text"] == text[:40].strip()
            paras = [s for s in spans if s["kind"] == "paragraph"]
            assert " ".join(s["text"] for s in paras) == text
            assert [s["offset"] for s in spans] == list(range(len(spans)))
        # the parser is lenient: the truncated page is not an error row,
        # its open <p> becomes one paragraph span, NULs kept
        bad = rows["doc_bad"]
        assert bad["error"] == ""
        assert [(s["kind"], s["text"]) for s in bad["spans"]] == [
            ("paragraph", "unterminated \x00\x00\x00\x00")
        ]
        latin1 = rows["doc_latin1"]
        assert latin1["error"].startswith("UnicodeDecodeError: ")
        assert (latin1["spans"], latin1["n_spans"], latin1["est_pages"]) == (
            [], 0, 1
        )
        assert all(r["error"] == "" for d, r in rows.items() if d != "doc_latin1")

    def test_cli_html_rejects_view_modes(self, ray_session, tmp_path):
        from libpdf_ray.__main__ import main

        rc = main([str(tmp_path), "-o", str(tmp_path / "o"),
                   "--input-format", "html", "--views", "elements"])
        assert rc == 2

    def test_e2e_matches_source_text(self, ray_session):
        from libpdf_ray.ops.html import q_html_main_text

        import pyarrow.parquet as pq

        sf = "/root/testdata/sf0.001"
        got = q_html_main_text(sf).to_pandas().sort_values("doc_id")
        src = (
            pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"])
            .to_pandas()
            .sort_values("doc_id")
        )
        assert list(got["main_text"]) == list(src["text"])
