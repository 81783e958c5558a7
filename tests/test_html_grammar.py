"""The one-scan HTML token grammar (kernels/htmldom.py) against the
``html.parser`` tree builder it replaced.

The oracle below is the previous DOM builder, kept verbatim: a subclass of
the stdlib ``html.parser.HTMLParser`` (a test-only reference).  For every
input both builders must agree on the DOM (tag, attributes and children,
with adjacent text merged), on the title, and on the exception type and
message when parsing fails.
"""

from __future__ import annotations

import random
import zlib
from html.parser import HTMLParser

import pyarrow as pa
import pytest

from libpdf_ray.kernels import htmldom
from libpdf_ray.kernels.htmldom import (
    BLOCK_TAGS,
    VOID_TAGS,
    _Node,
    extract_main,
    parse_html,
    render_html,
)


class _DomBuilder(HTMLParser):
    """Tolerant tree builder: implicit closes for mismatched tags."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.root = _Node("#root", {})
        self.stack = [self.root]
        self.title_parts: list[str] = []
        self._in_title = 0

    # browsers' implicit end tags (HTML5 "optional tags"): a new block
    # closes an open <p>; repeated li/td/th/tr/dd/dt/option close their
    # predecessor.  html.parser does none of this by itself, and without
    # it unclosed-<p> soups nest instead of chaining (wrong text order).
    _SELF_CLOSERS = {
        "li": ("li",),
        "td": ("td", "th"),
        "th": ("td", "th"),
        "tr": ("td", "th", "tr"),
        "dd": ("dd", "dt"),
        "dt": ("dd", "dt"),
        "option": ("option",),
    }

    def handle_starttag(self, tag, attrs):
        top = self.stack[-1].tag
        if top == "p" and (tag == "p" or tag in BLOCK_TAGS):
            self.stack.pop()
        elif top in self._SELF_CLOSERS.get(tag, ()):
            self.stack.pop()
        node = _Node(tag, dict(attrs))
        self.stack[-1].children.append(node)
        if tag == "title":
            self._in_title += 1
        if tag not in VOID_TAGS:
            self.stack.append(node)

    def handle_startendtag(self, tag, attrs):
        self.stack[-1].children.append(_Node(tag, dict(attrs)))

    def handle_endtag(self, tag):
        if tag == "title" and self._in_title:
            self._in_title -= 1
        if tag in VOID_TAGS:
            return
        # close the nearest matching open tag (browsers' implicit closes);
        # a stray close tag with no match is dropped
        for i in range(len(self.stack) - 1, 0, -1):
            if self.stack[i].tag == tag:
                del self.stack[i:]
                return

    def handle_data(self, data):
        if self._in_title:
            self.title_parts.append(data)
        if data:
            self.stack[-1].children.append(data)


def oracle_parse(text: str):
    """HTML → (DOM root, page title) through html.parser."""
    b = _DomBuilder()
    b.feed(text)
    b.close()
    title = " ".join("".join(b.title_parts).split())
    return b.root, title


def flatten(root) -> list:
    """DOM → flat event list: (tag, attrs) for an element, text with
    adjacent strings merged, and None after each element's children."""
    out: list = []
    todo = [root]
    while todo:
        node = todo.pop()
        if node is None:
            out.append(None)
        elif isinstance(node, str):
            if out and isinstance(out[-1], str):
                out[-1] += node
            else:
                out.append(node)
        else:
            out.append((node.tag, sorted(node.attrs.items())))
            todo.append(None)
            todo.extend(reversed(node.children))
    return out


def outcome(parse, text: str):
    try:
        root, title = parse(text)
    except Exception as exc:  # noqa: BLE001 — the error itself is compared
        return ("error", type(exc).__name__, str(exc))
    return ("ok", title, flatten(root))


def differences(texts) -> list:
    return [t for t in texts if outcome(parse_html, t) != outcome(oracle_parse, t)]


# -- inputs --------------------------------------------------------------

# TestFuzz's alphabet (tests/test_html.py) …
FUZZ_PIECES = [
    "<", ">", "</", "<>", "<p", "p>", "&", "&amp", "&#x;", "<!--",
    "-->", "<!", "<a href='", "'>", '"', "\x00", "\\", "<<p>>",
    "<p class=>", "</nav>", "<table><td>", "word ", "<ul><li>",
]
# … extended with raw-text elements, case, self-closing forms, unquoted
# and duplicate attributes, references in values, declarations, marked
# sections, empty end tags and whitespace inside tags
EXTRA_PIECES = [
    "<script>", "</script>", "</ SCRIPT >", "<style>", "</style>",
    "<title>", "</title>", "<P>", "</P>", "<DIV CLASS=Nav>", "<br/>",
    "<br />", "<img src=x/>", "<img src='y' />", "<a href=u b=1 b=2>",
    "<p id=a id=b>", "<a title=\"x &amp; y\">", "<a t='&lt;&#65;'>",
    "<!doctype html>", "<!DOCTYPE html>", "<?xml version='1.0'?>",
    "<![CDATA[x]]>", "<![if x]>", "<![endif]>", "<![", "<![bogus x]>",
    "</>", "\n", "\t",
    "<p\tclass=x\n>", "</p >", "</p\n>", "<li>", "<td>", "<tr>", "<dd>",
    "<dt>", "<option>", "</div>", "<div>", "<h1>", "</a>", "<b>", "</b>",
    "&lt;", "&#1;", "é", "=", "/", "'", "</ p>", "<p a=\"q\"b>",
    "<p a==b>", "<p =x>", "<x-y:z>", "<!---->", "--",
]
SOUP_PIECES = FUZZ_PIECES + EXTRA_PIECES


def soups(seed: int, count: int, pieces: int = 40) -> list:
    rng = random.Random(seed)
    return [
        "".join(rng.choice(SOUP_PIECES) for _ in range(rng.randint(1, pieces)))
        for _ in range(count)
    ]


def pages(seed: int, count: int) -> list:
    from libpdf_ray.fixtures import WORDS

    vocab = list(WORDS) + ["a&b", "<tag>", "'q'", '"x"', "é", "x>y"]
    rng = random.Random(seed)
    out = []
    for i in range(count):
        text = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 400)))
        out.append(render_html(f"page-{seed}-{i:05d}", text))
    return out


# every literal input of tests/test_html.py
TEST_HTML_INPUTS = [
    "<html><head><title>T</title></head>"
    '<body><div id="x" class="y"><p>hi <b>bold</b></p></div></body></html>',
    "<body><p>a<br>b</p><p>c<img src='x'>d</p></body>",
    "<body><p>one<p>two<div><p>three</body>",
    "<body></span><p>ok</p></em></body>",
    "<body><p>a &amp; b &lt;c&gt;</p></body>",
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
    "</body></html>",
    "<body><div>"
    "<a href='1'>one</a> <a href='2'>two</a> <a href='3'>three</a>"
    "</div><p>prose paragraph with enough words</p></body>",
    "<body><p>see the <a href='#r'>reference</a> for details today</p></body>",
    "<body><center><p>centered words</p></center></body>",
    "<body><div class='adventure'><p>keep me here</p></div>"
    "<div class='top-ad'><p>strip me</p></div></body>",
    "<div>" * 400 + "<p>deep text</p>" + "</div>" * 400,
    "<html><body><p>unterminated " + "\x00" * 4,
    render_html(7, ""),
    render_html(42, "a b c"),
]


def rendered_test_html_pages() -> list:
    """The pages tests/test_html.py renders: TestRendererRoundtrip, the
    chrome check and the CLI test."""
    vocab = "alpha beta gamma delta epsilon zeta eta theta".split()
    out = []
    for seed in (0, 1):
        for i in range(60):
            n = 5 + (i * 7 + seed) % 120
            text = " ".join(vocab[(i * 31 + j * 7 + seed) % len(vocab)] for j in range(n))
            out.append(render_html(i + seed * 1000, text))
    out += [render_html(i, "word " * 50) for i in range(12)]
    out += [
        render_html(f"doc{i:03d}", " ".join(f"w{i}x{j}" for j in range(30 + i * 7)))
        for i in range(6)
    ]
    return out


# -- differential --------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2])
def test_rendered_pages_match_html_parser(seed):
    assert differences(pages(seed, 500)) == []


def test_test_html_inputs_match_html_parser():
    assert differences(TEST_HTML_INPUTS + rendered_test_html_pages()) == []


def test_test_fuzz_soups_match_html_parser():
    """The exact soups of TestFuzz.test_garbage_never_raises."""
    texts = []
    for seed in range(80):
        rng = zlib.crc32(str(seed).encode())
        soup = []
        for _ in range(60):
            rng = (rng * 1103515245 + 12345) & 0x7FFFFFFF
            soup.append(FUZZ_PIECES[rng % len(FUZZ_PIECES)])
        texts.append("".join(soup))
    assert differences(texts) == []


@pytest.mark.parametrize("seed", range(4))
def test_seeded_soups_match_html_parser(seed):
    """4 × 5,000 seeded tag soups over the extended alphabet."""
    texts = soups(seed, 5000)
    assert differences(texts) == []
    # the soups reach every slow-path outcome, the error included
    kinds = {outcome(oracle_parse, t)[0] for t in texts}
    assert kinds == {"ok", "error"}


def test_slow_path_corner_cases_match_html_parser():
    cases = [
        "<", "a<", "<<", "< p>", "<p", "<p ", "<p a", "<p a=", "<p a='x",
        "<p/", "<p/x>", "<p a/b>", "<p\x00>", "<p\vclass=x>", "<p\xa0a=b>",
        "<p a=\xa0b>", "</", "</p", "</ p >", "</p x>", "</3>", "</ >",
        "</>", "<!", "<!-", "<!--", "<!-- x --  >", "<!-->", "<!x", "<!x>",
        "<!doctype", "<?", "<?x", "<![", "<![ ", "<![CDATA[", "<![cdata[x]]>",
        "<![if", "<![if x", "<![else]>", "<![1]>", "<script>",
        "<script>a</scrİpt>b", "<script>a</ſcript>b</script>c",
        "<style>a</ſtyle>", "<title><script>x</script>y</title>",
        "<title>a<title>b</title>c</title>d", "<p a=\"x>y\">", "<p a=x<b>",
        "<a b='&amp;' c=\"&#1;\" d=&gt;>", "&#1;", "a&#1;<b>&#1;</b>",
        "<img src=x/>", "<img src=x />", "<br/><br/ ><br / >", "<P CLASS=A>",
        "<p a='1'b='2'>", "<p a=1 a=2>", "<p\n>", "<p\t/>", "<x:y>z</x:y>",
        "<td><p><td>", "<li><li></li>", "<option><option>", "<tr><td><tr>",
        "<dd><dt><dd>", "<p><table><p>", "<p><b><p>",
    ]
    assert differences(cases) == []


# -- pinned behaviour ----------------------------------------------------


def _texts(node) -> list:
    return [f for f in flatten(node) if isinstance(f, str)]


def test_script_content_stays_raw_and_is_pruned():
    page = "<body><p>a</p><script>if (x</p><b>y) {}</script><p>b</p></body>"
    root, _ = parse_html(page)
    body = root.children[0]
    script = [c for c in body.children if not isinstance(c, str)][1]
    assert script.tag == "script"
    assert script.children == ["if (x</p><b>y) {}"]
    assert extract_main(page)["main_text"] == "a b"


def test_unclosed_script_drops_rest_of_page():
    root, _ = parse_html("<p>kept</p><script>var a = 1; <p>lost</p>")
    assert _texts(root) == ["kept"]
    assert extract_main("<p>kept</p><script><p>lost</p>")["main_text"] == "kept"


def test_img_src_with_trailing_slash_is_not_self_closing():
    root, _ = parse_html("<img src=x/>")
    (img,) = root.children
    assert img.tag == "img" and img.attrs == {"src": "x/"}
    # <span .../> IS self-closing: the following text is its sibling
    root, _ = parse_html("<span a=x />t")
    assert [c if isinstance(c, str) else c.tag for c in root.children] == ["span", "t"]


def test_unknown_marked_section_becomes_error_row():
    from libpdf_ray.ops.html import html_spans_batch

    out = html_spans_batch(
        pa.table({"doc_id": ["bad", "ok"],
                  "html": ["<p>x<![bogus x]></p>", "<p>fine</p>"]})
    )
    err = out.column("error").to_pylist()
    assert err[0].startswith("AssertionError:")
    assert err[0] == "AssertionError: unknown status keyword 'bogus ' in marked section"
    assert out.column("n_spans").to_pylist() == [0, 1]
    assert err[1] == ""


def test_lone_lt_at_eof_stays_text():
    root, _ = parse_html("<p>a <")
    assert _texts(root) == ["a <"]
    assert extract_main("<p>a <")["main_text"] == "a <"


def test_traced_names_are_module_attributes(monkeypatch):
    """perfbench/tracing.py wraps parse_html and extract_blocks by name:
    extract_blocks must reach parse_html through the module global."""
    calls = []
    real = htmldom.parse_html

    def spy(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(htmldom, "parse_html", spy)
    htmldom.extract_blocks("<p>x</p>")
    assert calls == ["<p>x</p>"]
