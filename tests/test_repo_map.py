"""DESIGN.md §2's repo map names every module of ``src/repro`` and no
module that does not exist."""
from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def mapped_paths(design: str) -> set:
    """Every path the tree of the §2 code block names, with its directories
    joined by indentation: ``src/repro/`` then ``  core/`` then
    ``    topl.py`` gives ``src/repro/core/topl.py``. Only the leading names
    of a line count; the description after them does not."""
    section = design.split("## 2. Repo map", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    paths, dirs = set(), []  # dirs: (indent, name) of the open directories
    for line in block.splitlines():
        indent = len(line) - len(line.lstrip())
        names = line.split()
        if not names:
            continue
        while dirs and dirs[-1][0] >= indent:
            dirs.pop()
        prefix = "".join(name for _, name in dirs)
        if names[0].endswith("/"):
            dirs.append((indent, names[0]))
            continue
        for name in names:
            if not name.endswith(".py"):
                break
            paths.add(prefix + name)
    return paths


def test_repo_map_names_every_module():
    mapped = {
        p for p in mapped_paths((ROOT / "DESIGN.md").read_text())
        if p.startswith("src/repro/")
    }
    modules = {
        p.relative_to(ROOT).as_posix()
        for p in (ROOT / "src" / "repro").rglob("*.py")
        if p.name != "__init__.py"
    }
    assert sorted(modules - mapped) == [], "modules missing from DESIGN.md §2"
    assert sorted(mapped - modules) == [], "DESIGN.md §2 names modules that do not exist"
