"""Byte-for-byte CLI outputs, frozen so that a refactor provably changes nothing.

Each case runs ``main(argv)`` and compares stdout with ``golden/<name>.out``
and the exit code with the one listed here. ``compare`` is left out on
purpose: its two sides are different solvers, so its last digits are not a
contract.
"""

from importlib import resources
from pathlib import Path

import pytest

from cesrank import formats
from cesrank.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = {
    "nonuniform3": str(resources.files("cesrank").joinpath("data", "nonuniform3.json")),
    "monotone3": str(resources.files("cesrank").joinpath("data", "monotone3.json")),
    "dangling": str(GOLDEN / "dangling.edges"),
}
METHODS = {
    "ces-rho0": ["--rho", "0"],
    "ces-rho0.5": ["--rho", "0.5"],
    "ces-rho-0.5": ["--rho", "-0.5"],
    "pagerank": ["--method", "pagerank"],
    "invariant": ["--method", "invariant"],
}
# exit 2: the fixtures prefer themselves, and a link graph has no self-loops;
# the dangling graph is not strongly connected, which `invariant` needs
FAILING = {("nonuniform3", "pagerank"), ("monotone3", "pagerank"), ("dangling", "invariant")}

CASES = [
    (f"rank-{source}-{method}-{fmt}", ["rank", "--input", path, "--format", fmt, *flags],
     2 if (source, method) in FAILING else 0)
    for source, path in INPUTS.items()
    for method, flags in METHODS.items()
    for fmt in ("tsv", "json")
] + [
    ("verify-all", ["verify", "--axiom", "all"], 0),
    ("convert-dangling", ["convert", "--input", INPUTS["dangling"]], 0),
    ("convert-nonuniform3", ["convert", "--input", INPUTS["nonuniform3"]], 2),
]


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_cli_stdout_is_golden(name, argv, code, capsys):
    assert main(argv) == code
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.out").read_bytes()


@pytest.fixture(scope="module")
def uncommented_dangling(tmp_path_factory):
    """``dangling.edges`` without its '#' line; the bytes path reads it, as it reads the file itself."""
    text = "".join(line for line in (GOLDEN / "dangling.edges").read_text().splitlines(keepends=True) if not line.startswith("#"))
    n, start, _ = formats._edge_list_head(text)
    assert formats._edge_bytes(text, start, n) is not None
    path = tmp_path_factory.mktemp("golden") / "dangling.edges"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_bytes_path_output_is_golden(uncommented_dangling, method, fmt, capsys):
    code = 2 if ("dangling", method) in FAILING else 0
    assert main(["rank", "--input", uncommented_dangling, "--format", fmt, *METHODS[method]]) == code
    assert capsys.readouterr().out.encode() == (GOLDEN / f"rank-dangling-{method}-{fmt}.out").read_bytes()


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_triplet_document_output_is_golden(method, fmt, capsys):
    # the bundled monotone3 fixture with its alpha written as triplets: the
    # edges it parses to rank to the same bytes as the dense rows
    code = 2 if ("monotone3", method) in FAILING else 0
    path = str(GOLDEN / "monotone3-triplets.json")
    assert main(["rank", "--input", path, "--format", fmt, *METHODS[method]]) == code
    assert capsys.readouterr().out.encode() == (GOLDEN / f"rank-monotone3-{method}-{fmt}.out").read_bytes()


def test_commented_file_is_read_from_its_bytes():
    text = (GOLDEN / "dangling.edges").read_text()
    assert "\n#" in text
    n, start, _ = formats._edge_list_head(text)
    assert formats._edge_bytes(text, start, n) is not None


@pytest.fixture(scope="module")
def non_ascii_dangling(tmp_path_factory):
    """``dangling.edges`` with a non-ASCII comment, which only the line parser reads.

    A CRLF copy would not do: a path is read with universal newlines, so its
    CRLF line ends reach the parser as line feeds.
    """
    text = (GOLDEN / "dangling.edges").read_text().replace("out-links", "out-links \N{EM DASH} it dangles")
    n, start, _ = formats._edge_list_head(text)
    assert formats._edge_bytes(text, start, n) is None
    path = tmp_path_factory.mktemp("golden") / "dangling.edges"
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_line_parser_output_is_golden(non_ascii_dangling, method, fmt, capsys):
    code = 2 if ("dangling", method) in FAILING else 0
    assert main(["rank", "--input", non_ascii_dangling, "--format", fmt, *METHODS[method]]) == code
    assert capsys.readouterr().out.encode() == (GOLDEN / f"rank-dangling-{method}-{fmt}.out").read_bytes()
