#!/usr/bin/env python3
"""Documentation consistency check (ctest -L docs).

Six guarantees:
  1. Every relative markdown link `[text](path)` in the repo's *.md files
     resolves to an existing file or directory (absolute URLs are
     skipped).
  2. Every `#fragment` on a markdown link — in-page (`#section`) or
     cross-file (`FILE.md#section`) — names a real heading in the target
     file, GitHub-slugged, so a renamed section cannot leave dangling
     anchors.
  3. docs/MODEL_MAP.md only references files that exist: every backtick
     token that looks like a repo path (src/..., tests/..., bench/...,
     examples/..., docs/...) must name a real file, so the equation-to-code
     map cannot silently rot as code moves.
  4. README.md's "Test labels & coverage" list is complete: every ctest
     label registered via LABELS in tests/CMakeLists.txt must appear in
     README.md spelled `-L <label>`, so a new label cannot ship
     undocumented.
  5. Every `GPUHMS_*` environment variable read via getenv in src/ or
     examples/ is documented in README.md or docs/SERVING.md, so an
     operator knob cannot ship undocumented — and, in reverse, every
     `GPUHMS_*` name listed in docs/SERVING.md's env table or README.md's
     env bullet list is read via getenv in src/ or examples/, so a removed
     knob cannot linger in the docs.
  6. docs/SERVING.md's "Command-line flags" table matches the daemon:
     every `--flag` row is parsed in examples/gpuhms_serve.cpp (strcmp or
     flag_value) and appears in its --help text, and every parsed flag has
     a row, so a removed flag cannot linger in the table and a new one
     cannot ship undocumented.

Usage: check_docs.py [repo_root]   (default: parent of this script's dir)
Exit 0 when clean, 1 with a per-problem report otherwise.
"""

import os
import re
import sys

SKIP_DIRS = {".git", "build", "bench_build", "third_party", ".claude"}
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# `src/model/tcomp.cpp` or `bench/bench_bnb_scaling.cpp (E19)` etc.
CODE_PATH_RE = re.compile(
    r"`((?:src|tests|bench|examples|docs)/[A-Za-z0-9_./-]+)`")


def find_markdown(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [
            d for d in dirnames
            if d not in SKIP_DIRS and not d.startswith("build")
        ]
        for name in filenames:
            if name.endswith(".md"):
                yield os.path.join(dirpath, name)


def github_slug(heading):
    """GitHub's heading -> anchor slug: lowercase, drop punctuation except
    hyphens/underscores, spaces become hyphens. Backticks and links inside
    the heading contribute their text only."""
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading)  # [t](url) -> t
    text = text.replace("`", "").strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_anchors(md_path):
    """The set of valid anchor slugs in a markdown file, with GitHub's
    -1, -2 suffixes for duplicate headings."""
    anchors = set()
    counts = {}
    in_fence = False
    with open(md_path, encoding="utf-8") as f:
        for line in f:
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            if in_fence or not line.startswith("#"):
                continue
            m = re.match(r"#{1,6}\s+(.*)", line)
            if not m:
                continue
            slug = github_slug(m.group(1))
            n = counts.get(slug, 0)
            counts[slug] = n + 1
            anchors.add(slug if n == 0 else f"{slug}-{n}")
    return anchors


def check_links(md_path, root, anchor_cache):
    problems = []
    with open(md_path, encoding="utf-8") as f:
        text = f.read()

    def anchors_of(path):
        if path not in anchor_cache:
            anchor_cache[path] = heading_anchors(path)
        return anchor_cache[path]

    in_fence = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue  # quoted/example content, not our documentation
        for target in LINK_RE.findall(line):
            if re.match(r"^[a-z]+://", target):
                continue  # external URL
            if target.startswith("mailto:"):
                continue
            path, _, fragment = target.partition("#")
            resolved = md_path if not path else os.path.normpath(
                os.path.join(os.path.dirname(md_path), path))
            if not os.path.exists(resolved):
                problems.append(
                    f"{os.path.relpath(md_path, root)}:{lineno}: "
                    f"broken relative link '{target}'")
                continue
            if not fragment or not resolved.endswith(".md"):
                continue
            if fragment not in anchors_of(resolved):
                problems.append(
                    f"{os.path.relpath(md_path, root)}:{lineno}: "
                    f"dangling anchor '#{fragment}' — no heading in "
                    f"{os.path.relpath(resolved, root)} slugs to it")
    return problems


def check_model_map(root):
    problems = []
    path = os.path.join(root, "docs", "MODEL_MAP.md")
    if not os.path.exists(path):
        return [f"docs/MODEL_MAP.md is missing (expected at {path})"]
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            for ref in CODE_PATH_RE.findall(line):
                if not os.path.exists(os.path.join(root, ref)):
                    problems.append(
                        f"docs/MODEL_MAP.md:{lineno}: "
                        f"references nonexistent file '{ref}'")
    return problems


# `LABELS robustness`, `LABELS "serve;soak;concurrency"`, and the
# `set(_san_... LABELS ...)`-free set_tests_properties spellings all reduce
# to: the token(s) after a LABELS keyword, optionally quoted, ';'-separated.
LABELS_RE = re.compile(r"\bLABELS\s+\"?([A-Za-z0-9;_-]+)\"?")


def check_readme_labels(root):
    problems = []
    cmake_path = os.path.join(root, "tests", "CMakeLists.txt")
    readme_path = os.path.join(root, "README.md")
    if not os.path.exists(cmake_path) or not os.path.exists(readme_path):
        return ["tests/CMakeLists.txt or README.md is missing"]
    with open(cmake_path, encoding="utf-8") as f:
        cmake = f.read()
    labels = set()
    for group in LABELS_RE.findall(cmake):
        labels.update(l for l in group.split(";") if l)
    if not labels:
        return ["tests/CMakeLists.txt: no LABELS found (regex rot?)"]
    with open(readme_path, encoding="utf-8") as f:
        readme = f.read()
    for label in sorted(labels):
        if f"-L {label}" not in readme:
            problems.append(
                f"README.md: ctest label '{label}' (registered in "
                f"tests/CMakeLists.txt) is not documented — add a "
                f"`ctest -L {label}` entry to 'Test labels & coverage'")
    return problems


GETENV_RE = re.compile(r'getenv\(\s*"(GPUHMS_[A-Z0-9_]+)"')
# An env-table row (`| `GPUHMS_X` | ...`) or env bullet (`* `GPUHMS_X` — ...`).
ENV_ENTRY_RE = re.compile(r"^(?:\||\*) `(GPUHMS_[A-Z0-9_]+)`", re.MULTILINE)


def check_env_vars(root):
    """Every GPUHMS_* variable read in src/ or examples/ must be documented
    in README.md or docs/SERVING.md."""
    problems = []
    read_vars = set()
    for subdir in ("src", "examples"):
        base = os.path.join(root, subdir)
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in filenames:
                if not name.endswith((".cpp", ".hpp", ".h", ".cc")):
                    continue
                with open(os.path.join(dirpath, name),
                          encoding="utf-8", errors="replace") as f:
                    read_vars.update(GETENV_RE.findall(f.read()))
    if not read_vars:
        return ["no getenv(\"GPUHMS_...\") found in src/ or examples/ "
                "(regex rot?)"]
    docs = ""
    listed = set()
    for doc in ("README.md", os.path.join("docs", "SERVING.md")):
        path = os.path.join(root, doc)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                text = f.read()
            docs += text
            listed.update((doc, v) for v in ENV_ENTRY_RE.findall(text))
    for var in sorted(read_vars):
        if var not in docs:
            problems.append(
                f"environment variable '{var}' is read in src/ or "
                f"examples/ but documented in neither README.md nor "
                f"docs/SERVING.md")
    for doc, var in sorted(listed):
        if var not in read_vars:
            problems.append(
                f"{doc}: environment variable '{var}' is listed but never "
                f"read via getenv in src/ or examples/ — drop the stale "
                f"entry")
    return problems


# `strcmp(arg, "--socket")` / `flag_value(arg, "--arch", ...)`.
PARSED_FLAG_RE = re.compile(
    r'(?:strcmp|flag_value)\(\s*arg,\s*"(--[a-z0-9-]+)"')
FLAG_ROW_RE = re.compile(r"^\| `(--[a-z0-9-]+)", re.MULTILINE)


def check_serve_flags(root):
    """docs/SERVING.md's flag table, the daemon's parsed flags and its
    --help text must name the same flags."""
    serving_path = os.path.join(root, "docs", "SERVING.md")
    daemon_path = os.path.join(root, "examples", "gpuhms_serve.cpp")
    if not os.path.exists(serving_path) or not os.path.exists(daemon_path):
        return ["docs/SERVING.md or examples/gpuhms_serve.cpp is missing"]
    with open(serving_path, encoding="utf-8") as f:
        serving = f.read()
    section = re.search(r"^## Command-line flags\n(.*?)(?=^## )", serving,
                        re.MULTILINE | re.DOTALL)
    if section is None:
        return ["docs/SERVING.md: no '## Command-line flags' section"]
    rows = set(FLAG_ROW_RE.findall(section.group(1)))
    with open(daemon_path, encoding="utf-8") as f:
        daemon = f.read()
    parsed = set(PARSED_FLAG_RE.findall(daemon))
    help_body = re.search(r"void print_help\(\) \{\n(.*?)^\}", daemon,
                          re.MULTILINE | re.DOTALL)
    if not rows or not parsed or help_body is None:
        return ["no flag rows, parsed flags or print_help() found "
                "(regex rot?)"]
    in_help = set(re.findall(r"(--[a-z0-9-]+)", help_body.group(1)))
    problems = []
    for flag in sorted(rows - parsed):
        problems.append(
            f"docs/SERVING.md: flag '{flag}' is in the Command-line flags "
            f"table but examples/gpuhms_serve.cpp does not parse it — drop "
            f"the stale row")
    for flag in sorted(parsed - rows):
        problems.append(
            f"examples/gpuhms_serve.cpp parses '{flag}' but docs/SERVING.md's "
            f"Command-line flags table has no row for it")
    for flag in sorted((rows | parsed) - in_help):
        problems.append(
            f"examples/gpuhms_serve.cpp: flag '{flag}' is missing from the "
            f"--help text")
    return problems


def main():
    root = os.path.abspath(
        sys.argv[1] if len(sys.argv) > 1
        else os.path.join(os.path.dirname(__file__), os.pardir))
    problems = []
    md_files = sorted(find_markdown(root))
    anchor_cache = {}
    for md in md_files:
        problems.extend(check_links(md, root, anchor_cache))
    problems.extend(check_model_map(root))
    problems.extend(check_readme_labels(root))
    problems.extend(check_env_vars(root))
    problems.extend(check_serve_flags(root))

    if problems:
        print(f"docs check FAILED ({len(problems)} problem(s)):")
        for p in problems:
            print("  " + p)
        return 1
    print(f"docs check OK: {len(md_files)} markdown files, all relative "
          "links and anchors resolve, MODEL_MAP references exist, every "
          "ctest label, GPUHMS_* env var and daemon flag is documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
