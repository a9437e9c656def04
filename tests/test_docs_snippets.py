"""Documentation snippets must execute — docs that drift, fail.

The snippet-runner policy (also enforced by the CI docs job):

* every fenced ``python`` block in ``README.md`` and ``docs/*.md`` is
  executed, blocks within one file sharing a namespace (like doctest,
  later blocks may build on earlier imports);
* in fenced ``bash`` blocks, every line invoking the package CLI
  (``python -m repro ...``, optionally prefixed with environment
  variable assignments) runs in-process through :func:`repro.cli.main`
  and must exit 0; other lines (pip installs, pytest/benchmark
  invocations, comments) are deliberately out of scope;
* fenced ``text`` blocks are illustrations, never executed.

A final test pins the README's engine/algorithm and backend tables to
what the config layer actually accepts, so the support matrix cannot
silently rot.
"""

from __future__ import annotations

import re
import shlex
import warnings
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = sorted(
    [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]
)

_FENCE = re.compile(r"^```(\w*)\s*$")


def _blocks(path: Path, language: str) -> list[tuple[int, str]]:
    """(starting line, body) of every fenced ``language`` block."""
    blocks = []
    lines = path.read_text().splitlines()
    inside = False
    lang = ""
    start = 0
    body: list[str] = []
    for lineno, line in enumerate(lines, 1):
        match = _FENCE.match(line)
        if match and not inside:
            inside = True
            lang = match.group(1)
            start = lineno + 1
            body = []
        elif match and inside:
            inside = False
            if lang == language:
                blocks.append((start, "\n".join(body)))
        elif inside:
            body.append(line)
    return blocks


def _doc_files_with(language: str) -> list[Path]:
    return [p for p in DOC_FILES if _blocks(p, language)]


@pytest.mark.parametrize(
    "path", _doc_files_with("python"), ids=lambda p: p.name
)
def test_python_snippets_execute(path: Path):
    namespace: dict = {"__name__": "__docs__"}
    for start, body in _blocks(path, "python"):
        try:
            exec(compile(body, f"{path.name}:{start}", "exec"), namespace)
        except Exception as exc:  # pragma: no cover - failure reporting
            pytest.fail(
                f"python snippet at {path.name}:{start} failed: {exc!r}"
            )


def _cli_lines(path: Path) -> list[tuple[int, list[str]]]:
    """CLI invocations in bash blocks: (line, argv-for-main)."""
    invocations = []
    for start, body in _blocks(path, "bash"):
        for offset, raw in enumerate(body.splitlines()):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            argv = shlex.split(line)
            while argv and "=" in argv[0] and not argv[0].startswith("-"):
                argv.pop(0)  # strip VAR=value prefixes
            if argv[:3] == ["python", "-m", "repro"]:
                invocations.append((start + offset, argv[3:]))
    return invocations


@pytest.mark.parametrize(
    "path", _doc_files_with("bash"), ids=lambda p: p.name
)
def test_cli_snippets_execute(path: Path):
    from repro.cli import main

    invocations = _cli_lines(path)
    for lineno, argv in invocations:
        with warnings.catch_warnings():
            # small doc-sized mp runs may trip the serialization guard
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(argv)
        assert code == 0, f"CLI snippet at {path.name}:{lineno} exited {code}"


def test_live_overlay_churn_example_executes(capsys):
    """The streaming example must run end to end and actually show the
    object-vs-flat throughput comparison it advertises."""
    import runpy

    runpy.run_path(
        str(REPO / "examples" / "live_overlay_churn.py"),
        run_name="__main__",
    )
    out = capsys.readouterr().out
    assert "updates/sec" in out
    assert "object (per-edit)" in out
    assert "flat (batch=32)" in out
    assert "all engines agree" in out


def test_readme_has_cli_coverage():
    """The README actually demonstrates the CLI (guards the policy
    above against becoming vacuous)."""
    assert len(_cli_lines(REPO / "README.md")) >= 3


def _readme_table(header: str) -> list[list[str]]:
    """The cells of each body row of the README table whose header row
    starts with ``header``."""
    rows: list[list[str]] = []
    inside = False
    for line in (REPO / "README.md").read_text().splitlines():
        if line.startswith(header):
            inside = True
        elif inside and not line.startswith("|"):
            break
        elif inside and not line.startswith("|---"):
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
    assert rows, f"README table {header!r} not found"
    return rows


def _ticked(cell: str) -> list[str]:
    return re.findall(r"`([^`=]+)`", cell)


def _default(cell: str) -> "str | None":
    match = re.search(r"`([^`]+)` \((?:default|implied)\)", cell)
    return match.group(1) if match else None


class TestSupportMatrixMatchesConfigLayer:
    """The tables in README.md are claims about the table of execution
    paths (``repro.core.paths``), checked cell by cell."""

    def test_every_algorithm_is_documented(self):
        """One README row per algorithm; its engine and mode cells list
        exactly the engines and modes of the algorithm's table rows,
        with the table's default marked."""
        from repro.core.paths import ALGORITHMS, PATHS, select

        documented = {
            row[0].strip("`"): row for row in _readme_table("| algorithm |")
        }
        assert sorted(documented) == sorted(ALGORITHMS)
        for algorithm in ALGORITHMS:
            _name, _what, engines, modes, _faults = documented[algorithm]
            start = select(algorithm)
            rows = [
                p for p in PATHS
                if p.algorithm == start.algorithm
                and (start.alias != algorithm or p.engine == start.engine)
            ]
            assert set(_ticked(engines)) == {
                p.engine for p in rows if p.engine
            }, algorithm
            assert _default(engines) == start.engine, algorithm
            assert set(_ticked(modes)) == {m for p in rows for m in p.modes}, (
                algorithm
            )
            assert _default(modes) == (
                start.modes[0] if start.modes else None
            ), algorithm

    def test_every_backend_is_documented(self):
        from repro.sim.kernels import BACKEND_NAMES

        readme = (REPO / "README.md").read_text()
        for backend in BACKEND_NAMES:
            assert f"`{backend}`" in readme

    def test_documented_rejections_hold(self, small_social):
        """Each backend row that names ``decompose`` forms covers table
        rows: a "yes"/"default" cell is a backend the row runs exactly
        (numpy present), and each "no"/"n/a" cell is a loud rejection
        through ``decompose``. Every table row that takes a backend is
        covered."""
        import itertools

        from repro.baselines import batagelj_zaversnik
        from repro.core.api import decompose
        from repro.core.paths import ALGORITHMS, PATHS, resolve
        from repro.errors import ConfigurationError
        from repro.sim.kernels import BACKEND_NAMES, available_backends

        exact = batagelj_zaversnik(small_social)
        covered = set()
        for first, *cells in _readme_table("| execution path |"):
            algorithms = [t for t in _ticked(first) if t in ALGORITHMS]
            if not algorithms:
                continue  # a kernel consumer outside decompose
            pairs: dict[str, list[str]] = {}
            for key, value in re.findall(r'`(\w+)="([^"]+)"`', first):
                pairs.setdefault(key, []).append(value)
            for algorithm, values in itertools.product(
                algorithms, itertools.product(*pairs.values())
            ):
                options = dict(zip(pairs, values))
                path = resolve(algorithm, options)  # a real path
                covered.add(path)
                for backend, cell in zip(BACKEND_NAMES, cells):
                    if cell.startswith(("yes", "default")):
                        assert backend in path.backends, (first, backend)
                        if backend not in available_backends():
                            continue  # pragma: no cover - numpy-less envs
                        fleet = {"mp_start_method": "fork"} if path.fleet else {}
                        with warnings.catch_warnings():
                            warnings.simplefilter("ignore", RuntimeWarning)
                            result = decompose(
                                small_social, algorithm, backend=backend,
                                **options, **fleet,
                            )
                        assert result.coreness == exact, (first, backend)
                        continue
                    assert cell.startswith(("no", "n/a")), cell
                    with pytest.raises(ConfigurationError):
                        decompose(
                            small_social, algorithm,
                            backend=backend, **options,
                        )
        assert covered == {p for p in PATHS if p.backends}
