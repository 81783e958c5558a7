"""HTML main-content extraction: a one-scan HTML tokenizer and DOM heuristics.

The north rule names "HTML boilerplate strip … DOM heuristics" alongside
the PDF/layout parse; this kernel is that leg.  It is the HTML analog of
the PDF byte decoder (kernels/pdfobj.py / pdftext.py): pure stdlib,
per-document, deterministic.

Approach (public-knowledge heuristics):

* a tolerant DOM builder (void elements, unclosed tags, stray close
  tags — all absorbed the way browsers do) driven by one regex token
  grammar: ``parse_html`` scans a page once with ``finditer`` and builds
  the tree inside the loop.  Text runs, well-formed start tags and plain
  end tags take the fast alternatives; every other ``<`` goes to a slow
  path that replays stdlib ``html.parser`` (Python 3.11.7) for it —
  comments, declarations, marked sections, tolerant tags, incomplete
  constructs at end of input.  The contract is stdlib equivalence: the
  same DOM (adjacent text merged), title and exception as an
  ``HTMLParser(convert_charrefs=True)`` tree builder fed the whole page,
  pinned by a differential test (tests/test_html_grammar.py);
* structural pruning of non-content subtrees — ``<script>``, ``<style>``,
  ``<nav>``, ``<aside>``, ``<footer>``, ``<header>``, forms — plus
  class/id pattern pruning (``sidebar``, ``comment``, ``ad``, ``banner``,
  …), the convention readability-style extractors rely on;
* shallow text features per remaining block — text length and **link
  density** (share of characters under ``<a>``) — in the spirit of
  Boilerpipe (Kohlschütter et al., "Boilerplate Detection using Shallow
  Text Features", WSDM 2010): a block whose text is mostly anchor text is
  navigation, not prose, whatever its markup says.

The module also ships ``render_html`` — a deterministic page-chrome
renderer used as the *generator-as-oracle*: it wraps a known main text in
realistic boilerplate (masthead, nav, sidebar, inline ads, a comments
section, footer), so ``extract(render(text)) == text`` is an exact,
SQL-checkable contract (the same trick as kernels/pdfwrite.py for the
PDF byte path).
"""

from __future__ import annotations

import html as _html
import re
import zlib

# -- DOM ---------------------------------------------------------------

# tags that never close (HTML5 void elements)
VOID_TAGS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)

# subtrees that are never main content, by tag alone
PRUNE_TAGS = frozenset(
    "script style noscript template svg iframe form button select option "
    "nav aside footer header head".split()
)

# strictly inline phrasing elements: their text belongs to the enclosing
# block; anything NOT listed here (and not pruned) is a container we
# recurse into — unknown/custom tags behave like divs, as in browsers
INLINE_TAGS = frozenset(
    "b i em strong span code small sub sup u s abbr time cite q mark kbd "
    "var samp br img wbr picture data dfn bdi bdo ruby rt rp ins del".split()
)

# class/id vocabulary that marks boilerplate containers (the readability /
# arc90 convention); matched as substrings of the class and id attributes
BOILER_PAT = re.compile(
    r"(?:^|[\s_-])(?:nav|menu|sidebar|footer|header|masthead|comment|banner|"
    r"ads?|advert|sponsor|share|social|related|breadcrumbs?|pagination|"
    r"widget|cookie|promo|popup|subscribe)(?:$|[\s_-])|"
    r"(?:nav|menu|sidebar|footer|masthead|comment|banner|advert|sponsor|"
    r"breadcrumb|widget|cookie)",
    re.I,
)

# elements that delimit a text block (everything else is inline)
BLOCK_TAGS = frozenset(
    "p h1 h2 h3 h4 h5 h6 li td th dd dt pre blockquote figcaption "
    "div section article main body ul ol table tr caption".split()
)

# blocks whose anchor-text share exceeds this are navigation, not prose
LINK_DENSITY_MAX = 0.5


class _Node:
    __slots__ = ("tag", "attrs", "children")

    def __init__(self, tag: str, attrs):
        self.tag = tag
        self.attrs = attrs
        self.children: list = []  # _Node | str


# browsers' implicit end tags (HTML5 "optional tags"): start tag → the open
# tags it closes when one of them is on top of the stack.  Every block
# closes an open <p>; repeated li/td/th/tr/dd/dt/option close their
# predecessor.  Without this, unclosed-<p> soups nest instead of chaining
# (wrong text order).
_CLOSES = {t: ("p",) for t in BLOCK_TAGS}
_CLOSES.update(
    li=("p", "li"),
    td=("p", "td", "th"),
    th=("p", "td", "th"),
    tr=("p", "td", "th", "tr"),
    dd=("p", "dd", "dt"),
    dt=("p", "dd", "dt"),
    option=("option",),
)

# -- token grammar -----------------------------------------------------
#
# One ``finditer`` scan per page.  The fast alternatives cover well-formed
# markup: a text run, a start tag whose attributes are ``name``,
# ``name="v"``, ``name='v'`` or ``name=v`` separated by ASCII whitespace,
# and a plain end tag.  Each is narrow enough that html.parser reads
# whatever it matches the same way.  Any other ``<`` matches the last
# alternative and goes to ``_slow``, which replays html.parser's decision
# for it.
_TOKEN = re.compile(
    r"""([^<]+)"""                                    # 1 text run
    r"""|<([a-zA-Z][^\t\n\r\f />\x00]*)"""            # 2 start tag name
    r"""((?:[ \t\n\r\f]+[^\s/>"'=][^\s/>=]*"""        # 3 attributes
    r"""(?:[ \t\n\r\f]*=[ \t\n\r\f]*(?:"[^"]*"|'[^']*'|[^\s>"'=][^\s>]*))?)*)"""
    r"""[ \t\n\r\f]*(/?)>"""                          # 4 "/" of "<br/>"
    r"""|</([a-zA-Z][-.a-zA-Z0-9:_]*)>"""             # 5 end tag name
    r"""|<"""
)
_ATTR = re.compile(
    r"""[ \t\n\r\f]+([^\s/>"'=][^\s/>=]*)"""
    r"""(?:[ \t\n\r\f]*=[ \t\n\r\f]*("[^"]*"|'[^']*'|[^\s>"'=][^\s>]*))?"""
)

# script/style content is raw text up to the matching end tag
_RAW_END = {
    "script": re.compile(r"</\s*script\s*>", re.I),
    "style": re.compile(r"</\s*style\s*>", re.I),
}

# Slow-path patterns, copied from Python 3.11.7 ``html/parser.py``
# (locatestarttagend_tolerant, tagfind_tolerant, attrfind_tolerant,
# endtagfind) and ``_markupbase.py`` (declaration names, comment and
# marked-section closers).
_LOCATESTARTTAGEND = re.compile(r"""
  <[a-zA-Z][^\t\n\r\f />\x00]*       # tag name
  (?:[\s/]*                          # optional whitespace before attribute name
    (?:(?<=['"\s/])[^\s/>][^\s/=>]*  # attribute name
      (?:\s*=+\s*                    # value indicator
        (?:'[^']*'                   # LITA-enclosed value
          |"[^"]*"                   # LIT-enclosed value
          |(?!['"])[^>\s]*           # bare value
         )
        \s*                          # possibly followed by a space
       )?(?:\s|/(?!>))*
     )*
   )?
  \s*                                # trailing whitespace
""", re.VERBOSE)
_TAGFIND = re.compile(r"([a-zA-Z][^\t\n\r\f />\x00]*)(?:\s|/(?!>))*")
_ATTRFIND = re.compile(
    r"((?<=['\"\s/])[^\s/>][^\s/=>]*)(\s*=+\s*"
    r"('[^']*'|\"[^\"]*\"|(?!['\"])[^>\s]*))?(?:\s|/(?!>))*"
)
_ENDTAGFIND = re.compile(r"</\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>")
_STARTTAGOPEN = re.compile(r"<[a-zA-Z]")
_COMMENTCLOSE = re.compile(r"--\s*>")
_DECLNAME = re.compile(r"[a-zA-Z][-_.a-zA-Z0-9]*\s*")
_MARKED_CLOSE = re.compile(r"]\s*]\s*>")
_MS_MARKED_CLOSE = re.compile(r"]\s*>")

# token kinds; _END is also the number of _TOKEN's end-tag group
_SKIP, _TEXT, _START, _SELF, _END = 0, 1, 2, 3, 5


def _attrs(s: str) -> dict:
    """Attribute text of a fast-path start tag → {lowercased name: value}."""
    attrs = {}
    for name, value in _ATTR.findall(s):
        if not value:
            value = None  # a fast-path value is never empty
        else:
            if value[0] in "\"'":
                value = value[1:-1]
            if "&" in value:
                value = _html.unescape(value)
        attrs[name.lower()] = value
    return attrs


def _slow(text: str, i: int) -> tuple:
    """The ``<`` at ``i`` that the fast grammar refused, read as
    html.parser's ``goahead`` reads it at end of input (Python 3.11.7)
    → ``(end, kind, value, attrs)``: ``value`` is the tag name, or the
    text for ``_TEXT``."""
    if _STARTTAGOPEN.match(text, i):
        tok = _slow_start(text, i)
    elif text.startswith("</", i):
        tok = _slow_end(text, i)
    elif text.startswith("<!--", i):
        m = _COMMENTCLOSE.search(text, i + 4)
        tok = (m.end(), _SKIP, None, None) if m else None
    elif text.startswith("<?", i):
        k = text.find(">", i + 2)
        tok = (k + 1, _SKIP, None, None) if k >= 0 else None
    elif text.startswith("<![", i):
        tok = _marked_section(text, i)
    elif text.startswith("<!", i):
        # <!doctype …> or a bogus comment: both end at the next ">"
        k = text.find(">", i + (9 if text[i : i + 9].lower() == "<!doctype" else 2))
        tok = (k + 1, _SKIP, None, None) if k >= 0 else None
    else:
        return i + 1, _TEXT, "<", None  # "<" before a non-markup char, or at EOF
    if tok is None:
        # an incomplete construct at end of input becomes text up to and
        # including the next ">", else up to the next "<", else just "<"
        k = text.find(">", i + 1)
        if k < 0:
            k = text.find("<", i + 1)
            if k < 0:
                k = i + 1
        else:
            k += 1
        return k, _TEXT, _html.unescape(text[i:k]), None
    return tok


def _slow_start(text: str, i: int):
    """html.parser's ``parse_starttag`` with ``check_for_whole_start_tag``."""
    j = _LOCATESTARTTAGEND.match(text, i).end()
    nxt = text[j : j + 1]
    if nxt == ">":
        endpos = j + 1
    elif nxt == "/":
        if not text.startswith("/>", j):
            return None
        endpos = j + 2
    elif not nxt or nxt in "abcdefghijklmnopqrstuvwxyz=/ABCDEFGHIJKLMNOPQRSTUVWXYZ":
        return None
    else:
        endpos = j if j > i else i + 1
    m = _TAGFIND.match(text, i + 1)
    k = m.end()
    tag = m.group(1).lower()
    attrs = {}
    while k < endpos:
        m = _ATTRFIND.match(text, k)
        if not m:
            break
        name, rest, value = m.group(1, 2, 3)
        if not rest:
            value = None
        elif value[:1] == "'" == value[-1:] or value[:1] == '"' == value[-1:]:
            value = value[1:-1]
        if value:
            value = _html.unescape(value)
        attrs[name.lower()] = value
        k = m.end()
    end = text[k:endpos].strip()
    if end not in (">", "/>"):
        return endpos, _TEXT, text[i:endpos], None
    return endpos, _SELF if end == "/>" else _START, tag, attrs


def _slow_end(text: str, i: int):
    """html.parser's ``parse_endtag`` outside script/style."""
    gt = text.find(">", i + 1)
    if gt < 0:
        return None
    m = _ENDTAGFIND.match(text, i)
    if m:
        return gt + 1, _END, m.group(1).lower(), None
    m = _TAGFIND.match(text, i + 2)
    if m:
        # </name junk>: the junk up to the next ">" is ignored
        return text.find(">", m.end()) + 1, _END, m.group(1).lower(), None
    return gt + 1, _SKIP, None, None  # "</>" or a bogus comment "</…>"


def _marked_section(text: str, i: int):
    """``<![keyword …]]>`` / ``<![if …]>``; an unknown keyword raises
    AssertionError, as html.parser does."""
    j = i + 3
    if j == len(text):
        return None
    m = _DECLNAME.match(text, j)
    if not m:
        raise AssertionError("expected name token at %r" % text[i : i + 20])
    if m.end() == len(text):
        return None
    name = m.group().strip().lower()
    if name in ("temp", "cdata", "ignore", "include", "rcdata"):
        close = _MARKED_CLOSE.search(text, j)
    elif name in ("if", "else", "endif"):
        close = _MS_MARKED_CLOSE.search(text, j)
    else:
        raise AssertionError(
            "unknown status keyword %r in marked section" % text[j : m.end()]
        )
    return (close.end(), _SKIP, None, None) if close else None


def _raw_text(text: str, start: int, tag: str):
    """script/style content from ``start`` → ``(stop, resume)``: the raw
    text (never unescaped) is ``text[start:stop]``, and the scan resumes
    after the end tag, or ``resume`` is None when there is none.  A
    case-insensitive match that is not an ASCII end tag (``re.I`` folds
    "ſ" to "s") stays text, as in html.parser."""
    raw_end = _RAW_END[tag]
    stop = start
    e = raw_end.search(text, start)
    while e is not None and not _ENDTAGFIND.match(text, e.start()):
        stop = e.end()
        e = raw_end.search(text, stop)
    if e is None:
        return stop, None
    return e.start(), e.end()


def parse_html(text: str) -> tuple[_Node, str]:
    """HTML → (DOM root, page title), in one scan of the token grammar."""
    root = _Node("#root", {})
    stack = [root]
    top = root
    kids = root.children
    title: list[str] = []
    in_title = 0
    unescape = _html.unescape
    closes_for = _CLOSES.get
    pos = 0
    while True:
        for m in _TOKEN.finditer(text, pos):
            kind = m.lastindex
            if kind == 1:
                data = m[1]
                if "&" in data:
                    data = unescape(data)
                    if not data:
                        continue
                if in_title:
                    title.append(data)
                kids.append(data)
                continue
            end = 0  # set by _slow: where the scan resumes
            if kind == _END:
                tag = m[5].lower()
            elif kind == 4:
                tag = m[2].lower()
                attrs = m[3]
                attrs = _attrs(attrs) if attrs else {}
                kind = _SELF if m[4] else _START
            else:
                end, kind, tag, attrs = _slow(text, m.start())
            if kind == _END:
                if in_title and tag == "title":
                    in_title -= 1
                if tag == top.tag:
                    stack.pop()
                    top = stack[-1]
                    kids = top.children
                elif tag not in VOID_TAGS:
                    # close the nearest matching open tag; a stray close
                    # tag with no match is dropped
                    for i in range(len(stack) - 2, 0, -1):
                        if stack[i].tag == tag:
                            del stack[i:]
                            top = stack[-1]
                            kids = top.children
                            break
            elif kind == _START:
                closes = closes_for(tag)
                if closes and top.tag in closes:
                    stack.pop()
                    top = stack[-1]
                    kids = top.children
                node = _Node(tag, attrs)
                kids.append(node)
                if tag not in VOID_TAGS:
                    stack.append(node)
                    top = node
                    kids = node.children
                    if tag == "title":
                        in_title += 1
                    elif tag in _RAW_END:
                        start = end or m.end()
                        stop, resume = _raw_text(text, start, tag)
                        if stop > start:
                            if in_title:
                                title.append(text[start:stop])
                            kids.append(text[start:stop])
                        stack.pop()
                        top = stack[-1]
                        kids = top.children
                        # an unclosed element drops the rest of the page
                        pos = len(text) if resume is None else resume
                        break
            elif kind == _SELF:
                kids.append(_Node(tag, attrs))
            elif kind == _TEXT:
                if in_title:
                    title.append(tag)
                if tag:
                    kids.append(tag)
            if end:
                pos = end
                break
        else:
            break
    return root, " ".join("".join(title).split())


# -- main-content classification ---------------------------------------


def _is_boiler(node: _Node) -> bool:
    if node.tag in PRUNE_TAGS:
        return True
    marker = node.attrs.get("class", "") or ""
    nid = node.attrs.get("id", "") or ""
    return bool(
        (marker and BOILER_PAT.search(marker)) or (nid and BOILER_PAT.search(nid))
    )


def _collect_blocks(node: _Node, out: list) -> tuple[int, int]:
    """Post-order walk: returns (text_chars, link_chars) contributed by
    inline content directly under ``node`` that was NOT already claimed by
    a nested block element.  Appends finished blocks to ``out`` as
    ``(text, link_chars, total_chars)``."""
    pieces: list[str] = []
    link_chars = 0
    for child in node.children:
        if isinstance(child, str):
            pieces.append(child)
            continue
        if _is_boiler(child):
            continue
        if child.tag == "a":
            # anchors are inline: their text stays, but counts toward the
            # block's link density
            t, lc = _flatten_inline(child)
            pieces.append(t)
            link_chars += len(" ".join(t.split()))
            continue
        if child.tag in INLINE_TAGS:
            t, lc = _flatten_inline(child)
            pieces.append(t)
            link_chars += lc
            continue
        # block element or unknown container: recurse — nested blocks
        # emit themselves in document order
        _collect_blocks(child, out)
    text = " ".join("".join(pieces).split())
    if text and node.tag not in ("#root", "html"):
        out.append((text, link_chars, len(text)))
    return len(text), link_chars


def _flatten_inline(node: _Node) -> tuple[str, int]:
    """Inline subtree → (concatenated text, chars under <a>)."""
    pieces: list[str] = []
    link = 0
    for child in node.children:
        if isinstance(child, str):
            pieces.append(child)
        elif _is_boiler(child):
            continue
        else:
            t, lc = _flatten_inline(child)
            pieces.append(t)
            if child.tag == "a":
                link += len(" ".join(t.split()))
            else:
                link += lc
    return "".join(pieces), link


def extract_blocks(html_text: str) -> tuple[str, list[str], int]:
    """HTML string → (title, kept block texts in document order, n_dropped).

    The block list is the per-paragraph view of the main content — what a
    span-document needs; ``extract_main`` is the joined convenience form.
    """
    root, title = parse_html(html_text)
    blocks: list[tuple[str, int, int]] = []
    _collect_blocks(root, blocks)
    kept: list[str] = []
    dropped = 0
    for text, link_chars, total_chars in blocks:
        if total_chars and link_chars / total_chars > LINK_DENSITY_MAX:
            dropped += 1
            continue
        kept.append(text)
    return title, kept, dropped


def extract_main(html_text: str) -> dict:
    """HTML string → main-content record.

    Returns ``{"main_text", "title", "n_blocks", "n_dropped"}`` where
    ``main_text`` is the space-joined text of the blocks that survive
    structural pruning and the link-density rule, in document order.
    """
    title, kept, dropped = extract_blocks(html_text)
    main_text = " ".join(" ".join(kept).split())
    return {
        "main_text": main_text,
        "title": title,
        "n_blocks": len(kept),
        "n_dropped": dropped,
    }


# -- deterministic page renderer (generator-as-oracle) ------------------

_JUNK_VOCAB = (
    "home about contact login privacy terms sitemap subscribe archive "
    "categories popular trending copyright reserved cookie policy "
    "advertisement sponsored offer deal click here read more related "
    "posts share tweet follow newsletter trending latest featured"
).split()


class _Lcg:
    """Tiny deterministic PRNG (no random module — workers must replay)."""

    def __init__(self, seed: int):
        self.s = seed & 0xFFFFFFFF or 1

    def next(self, n: int) -> int:
        self.s = (self.s * 1103515245 + 12345) & 0x7FFFFFFF
        return self.s % n


def _junk(rng: _Lcg, n: int) -> str:
    return " ".join(_JUNK_VOCAB[rng.next(len(_JUNK_VOCAB))] for _ in range(n))


def _content_paras(paras, rng: _Lcg) -> list[str]:
    """Main-text paragraphs as <p> markup, some words wrapped inline."""
    out = []
    esc = _html.escape
    for para in paras:
        chunk = [esc(w) for w in para]
        if chunk and rng.next(3) == 0:
            j = rng.next(len(chunk))
            # anchors only in paragraphs long enough that one linked word
            # stays under the extractor's link-density rule; the rule is
            # RIGHT to kill a 1-2 word block that is pure anchor text
            wrap = ("b", "em", "a")[rng.next(3) if len(chunk) >= 6 else rng.next(2)]
            attr = ' href="#ref"' if wrap == "a" else ""
            chunk[j] = f"<{wrap}{attr}>{chunk[j]}</{wrap}>"
        out.append("<p>" + " ".join(chunk) + "</p>")
    return out


def render_html(doc_id, text: str, lang: str = "en") -> str:
    """Wrap ``text`` in deterministic page chrome.

    The main text is split into ``<p>`` blocks (some words wrapped in
    inline ``<b>``/``<em>``/``<a>`` markup) and embedded in one of TWO
    page archetypes chosen by the doc seed — a modern semantic layout
    (header/nav/aside/article/footer) or a legacy table layout (nav and
    sidebar in class-marked ``<td>`` cells) — so the extraction
    heuristics cannot overfit a single template.  Both carry junk nav,
    sidebar, inline ads, comments and footer content derived only from
    ``doc_id``.  ``extract_main`` must recover ``text`` exactly and the
    ``<title>`` is ``text[:40]``.
    """
    rng = _Lcg(zlib.crc32(str(doc_id).encode()))
    esc = _html.escape
    words = text.split(" ") if text else []
    paras: list[list[str]] = []
    i = 0
    while i < len(words):
        step = 8 + rng.next(9)  # 8-16 words per paragraph
        paras.append(words[i : i + step])
        i += step
    legacy = rng.next(3) == 0  # ~1/3 of pages use the table archetype

    out: list[str] = [
        "<!DOCTYPE html>",
        f'<html lang="{esc(lang)}">',
        "<head><meta charset=\"utf-8\">",
        f"<title>{esc(text[:40])}</title>",
        "<style>body{margin:0;font:16px serif}.ad{color:#999}</style>",
        "<script>window.__t=Date.now();</script>",
        "</head>",
        "<body>",
    ]

    if legacy:
        # 1999-web archetype: table scaffold, class-marked cells
        out.append('<table width="100%"><tr><td class="nav" colspan="2">')
        for _ in range(3 + rng.next(4)):
            out.append(f'<a href="/{_junk(rng, 1)}">{_junk(rng, 1)}</a>')
        out.append('</td></tr><tr><td class="sidebar" width="20%">')
        for _ in range(2 + rng.next(4)):
            out.append(f'<a href="#">{_junk(rng, 2)}</a><br>')
        out.append("<p>" + _junk(rng, 6) + "</p></td><td>")
        for p in _content_paras(paras, rng):
            out.append(p)
            if rng.next(4) == 0:
                out.append(f'<div class="ad">{_junk(rng, 4)}</div>')
        out.append('</td></tr><tr><td class="footer" colspan="2">'
                   + _junk(rng, 4) + "</td></tr></table>")
        out.append('<div id="comments"><h3>' + _junk(rng, 1) + "</h3>")
        for _ in range(rng.next(3) + 1):
            out.append(
                f'<div class="comment"><p>{_junk(rng, 5 + rng.next(8))}</p></div>'
            )
        out.append("</div>")
    else:
        out.append('<header class="masthead"><h1><a href="/">'
                   f"{_junk(rng, 2)}</a></h1>")
        out.append("<nav><ul>")
        for _ in range(3 + rng.next(4)):
            out.append(f'<li><a href="/{_junk(rng, 1)}">{_junk(rng, 1)}</a></li>')
        out.append("</ul></nav></header>")
        out.append('<div class="wrapper">')
        out.append('<aside class="sidebar"><h3>' + _junk(rng, 1) + "</h3><ul>")
        for _ in range(2 + rng.next(4)):
            out.append(f'<li><a href="#">{_junk(rng, 2)}</a></li>')
        out.append("</ul><p>" + _junk(rng, 6) + "</p></aside>")
        out.append("<main><article>")
        for p in _content_paras(paras, rng):
            out.append(p)
            if rng.next(4) == 0:
                out.append(f'<div class="ad">{_junk(rng, 4)}</div>')
        out.append("</article>")
        out.append('<div id="comments"><h3>' + _junk(rng, 1) + "</h3>")
        for _ in range(rng.next(3) + 1):
            out.append(
                f'<div class="comment"><p>{_junk(rng, 5 + rng.next(8))}</p></div>'
            )
        out.append("</div></main></div>")
        out.append(
            "<footer><p>" + _junk(rng, 4) + '</p><nav><a href="/">'
            + _junk(rng, 1) + "</a></nav></footer>"
        )
    out.append("</body></html>")
    return "\n".join(out)
