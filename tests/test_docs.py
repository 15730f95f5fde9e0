"""Documentation hygiene: links resolve, modules are documented.

Two rot guards, both also run by CI:

* every relative link (and in-page anchor) in ``README.md`` and
  ``docs/*.md`` must point at a file/heading that exists — so the
  docs tree and README cross-references cannot silently break;
* every module under ``src/`` must carry a module docstring (the
  pydocstyle D100/D104 contract, enforced here with ``ast`` so the
  tier-1 suite needs no lint dependency).
"""

import ast
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

DOC_FILES = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")]
)

#: ``[text](target)`` — good enough for our hand-written markdown
#: (no images with titles, no reference-style links).
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def _slugify(heading: str) -> str:
    """GitHub's anchor slug: lowercase, drop punctuation, dash spaces."""
    text = heading.strip().lower().replace("`", "")
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _anchors(path: Path) -> set:
    return {_slugify(h) for h in _HEADING.findall(path.read_text())}


def _links(path: Path):
    for m in _LINK.finditer(path.read_text()):
        target = m.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        yield target


def test_doc_pages_exist():
    for name in ("architecture.md", "determinism.md", "performance.md"):
        assert (REPO_ROOT / "docs" / name).is_file(), name


def test_readme_links_docs_pages():
    readme = (REPO_ROOT / "README.md").read_text()
    for name in ("architecture.md", "determinism.md", "performance.md"):
        assert f"docs/{name}" in readme, f"README does not link {name}"


@pytest.mark.parametrize(
    "doc", DOC_FILES, ids=[str(p.relative_to(REPO_ROOT)) for p in DOC_FILES]
)
def test_relative_links_resolve(doc):
    for target in _links(doc):
        path_part, _, anchor = target.partition("#")
        base = doc.parent / path_part if path_part else doc
        base = base.resolve()
        assert base.exists(), f"{doc.name}: broken link {target!r}"
        if anchor:
            assert base.suffix == ".md", (
                f"{doc.name}: anchor on non-markdown target {target!r}"
            )
            assert _slugify(anchor) in _anchors(base), (
                f"{doc.name}: dead anchor {target!r}"
            )


def test_every_src_module_has_docstring():
    missing = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if ast.get_docstring(tree) is None:
            missing.append(str(path.relative_to(REPO_ROOT)))
    assert not missing, f"modules without docstrings: {missing}"


def test_public_api_docstrings_present():
    """The documented-set contract: key public entry points explain
    themselves (args/fallback conditions live in these docstrings)."""
    from repro.api import ResultFrame, Study, Sweep
    from repro.battery.base import BatteryModel
    from repro.sim import ScenarioBatch, Simulator, VectorEngine

    for obj in (
        Simulator.run,
        ScenarioBatch,
        ScenarioBatch.run,
        VectorEngine,
        VectorEngine.run,
        Study,
        Sweep,
        ResultFrame,
        BatteryModel.period_kernel,
        BatteryModel.run_profile,
    ):
        assert obj.__doc__ and obj.__doc__.strip(), obj
