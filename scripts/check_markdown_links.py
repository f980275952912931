#!/usr/bin/env python3
"""Check intra-repo links in the project's Markdown files.

Stdlib only; no network.  Verifies that

  * inline links/images  [text](target)  whose target is a relative
    path resolve to an existing file or directory (`scheme://` URLs
    are skipped — presence of a scheme is enough);
  * anchor fragments resolve to a real heading: `#section` against the
    current file, `FILE.md#section` against the target file, using
    GitHub's heading-slug rules (lowercase, punctuation stripped,
    spaces to hyphens, `-N` suffixes for duplicates);
  * bare path mentions of docs (`docs/FOO.md`, `EXPERIMENTS.md`, ...)
    inside prose or code spans resolve, so renaming a doc without
    fixing references fails CI even where no []( ) link was used.

Usage: scripts/check_markdown_links.py [root]          (default: repo root)
Exit status: 0 when every reference resolves, 1 otherwise.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

INLINE_LINK = re.compile(r"!?\[[^\]]*\]\(([^()\s]+(?:\([^()]*\))?)\)")
# Doc-file mentions outside of []( ) links: `docs/TUTORIAL.md`, DESIGN.md §1,
# `.claude/skills/verify/SKILL.md` ...  The whole path is captured, from the
# start of the path token (not after a word character, '.', '/' or '-'), so
# a directory prefix is resolved along with the file name.
DOC_MENTION = re.compile(
    r"(?<![\w./-])((?:[\w.-]+/)*[A-Z][A-Za-z0-9_]*\.md)\b")
SCHEME = re.compile(r"^[a-z][a-z0-9+.-]*:")
HEADING = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
HTML_ANCHOR = re.compile(r"<a\s+(?:id|name)=[\"']([^\"']+)[\"']")
LINK_TEXT = re.compile(r"!?\[([^\]]*)\]\([^()\s]*\)")


def slugify(heading: str) -> str:
    """GitHub's anchor algorithm: link markup reduced to its text, then
    lowercase, punctuation dropped (word chars, hyphens and spaces
    survive), spaces to hyphens."""
    text = LINK_TEXT.sub(r"\1", heading)
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


_ANCHOR_CACHE: dict[Path, set[str]] = {}


def anchors_of(md: Path) -> set[str]:
    """All anchor fragments `md` defines: heading slugs (with GitHub's
    -1/-2 suffixes for repeats) plus explicit <a id=...> anchors."""
    cached = _ANCHOR_CACHE.get(md)
    if cached is not None:
        return cached
    anchors: set[str] = set()
    seen: dict[str, int] = {}
    text = strip_code_fences(md.read_text(encoding="utf-8"))
    for line in text.splitlines():
        m = HEADING.match(line)
        if m:
            slug = slugify(m.group(2))
            n = seen.get(slug, 0)
            seen[slug] = n + 1
            anchors.add(slug if n == 0 else f"{slug}-{n}")
        for a in HTML_ANCHOR.finditer(line):
            anchors.add(a.group(1))
    _ANCHOR_CACHE[md] = anchors
    return anchors


def markdown_files(root: Path) -> list[Path]:
    files = sorted(root.glob("*.md")) + sorted((root / "docs").glob("*.md"))
    files += sorted((root / ".github").rglob("*.md"))
    return [f for f in files if f.is_file()]


def strip_code_fences(text: str) -> str:
    # Drop fenced code blocks: command examples legitimately mention
    # paths that only exist after a build (trace.json, build/bench/...).
    out, fenced = [], False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        out.append("" if fenced else line)
    return "\n".join(out)


def check_file(md: Path, root: Path) -> list[str]:
    errors: list[str] = []
    text = md.read_text(encoding="utf-8")
    prose = strip_code_fences(text)

    for lineno, line in enumerate(prose.splitlines(), start=1):
        for m in INLINE_LINK.finditer(line):
            target = m.group(1)
            if target.startswith("#"):
                if target[1:] not in anchors_of(md):
                    errors.append(f"{md.relative_to(root)}:{lineno}: "
                                  f"broken anchor '{target}'")
                continue
            if SCHEME.match(target):
                continue  # external URL; presence of a scheme is enough
            path, _, frag = target.partition("#")
            if not path:
                continue
            resolved = (md.parent / path).resolve()
            if not resolved.exists():
                errors.append(f"{md.relative_to(root)}:{lineno}: "
                              f"broken link target '{target}'")
            elif frag and resolved.suffix == ".md" \
                    and frag not in anchors_of(resolved):
                errors.append(f"{md.relative_to(root)}:{lineno}: "
                              f"broken anchor '{target}' "
                              f"(no heading '#{frag}' in {path})")
        for m in DOC_MENTION.finditer(line):
            mention = m.group(1)
            # Try relative to the mentioning file, then the repo root,
            # then docs/ (prose conventionally drops the docs/ prefix).
            if ((md.parent / mention).exists()
                    or (root / mention).exists()
                    or (root / "docs" / mention).exists()):
                continue
            errors.append(f"{md.relative_to(root)}:{lineno}: "
                          f"doc mention '{mention}' does not exist")
    return errors


def main() -> int:
    root = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 \
        else Path(__file__).resolve().parent.parent
    files = markdown_files(root)
    if not files:
        print(f"no markdown files found under {root}", file=sys.stderr)
        return 1
    errors: list[str] = []
    for md in files:
        errors += check_file(md, root)
    for e in errors:
        print(e, file=sys.stderr)
    print(f"checked {len(files)} markdown files: "
          f"{'OK' if not errors else f'{len(errors)} broken reference(s)'}")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
