"""Byte-for-byte CLI outputs, frozen so that a refactor provably changes nothing.

Each case runs ``main(argv)`` and compares stdout with ``golden/<name>.out``
and the exit code with the one listed here. ``compare`` is left out on
purpose: its two sides are different solvers, so its last digits are not a
contract.
"""

import codecs
import logging
import re
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import cesrank.cli
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
    # ten goods: the jump solves the normal equations, where every other input
    # here has at most five and takes least squares. TSV only, on an input
    # whose 12 significant digits stay the same when the jump's Gram matrix is
    # perturbed by up to 1e-13 relative: another CPU's BLAS may compute it to
    # other last bits
    (f"rank-dangling10-{method}-tsv", ["rank", "--input", str(GOLDEN / "dangling10.edges"), "--format", "tsv", *METHODS[method]], 0)
    for method in ("ces-rho0.5", "ces-rho-0.5")
] + [
    # a rho per agent with two values: the kernels' grouped branch, whose
    # JSON holds a tie group
    (f"rank-nonuniform3-two-rho-{fmt}", ["rank", "--input", str(GOLDEN / "nonuniform3-two-rho.json"), "--format", fmt], 0)
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


@pytest.mark.parametrize("rho", ["0.5", "-0.5"])
def test_ten_goods_jump_by_the_normal_equations(rho, monkeypatch, caplog):
    # the golden runs above take the jump's normal equations, and keep a jump
    solve, calls = np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(a.shape) or solve(a, b))
    with caplog.at_level(logging.DEBUG, logger="cesrank.solver"):
        assert main(["rank", "--input", str(GOLDEN / "dangling10.edges"), "--rho", rho, "--format", "tsv"]) == 0
    assert calls and set(calls) == {(5, 5)}
    line = re.fullmatch(r"tatonnement: \d+ steps, (\d+) jumps accepted, \d+ undone", caplog.messages[-1])
    assert line is not None and int(line.group(1)) > 0


def _dangling_copy(tmp_path_factory, text, from_bytes):
    """A copy of ``dangling.edges`` as ``text``, asserted to be read from its bytes or by the line loop.

    A CRLF copy would not do for the loop: a path is read with universal
    newlines, so its CRLF line ends reach the parser as line feeds.
    """
    assert (formats._edge_bytes(text) is not None) == from_bytes
    path = tmp_path_factory.mktemp("golden") / "dangling.edges"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _assert_rank_is_golden(path, method, fmt, capsys):
    """``rank`` on a copy of ``dangling.edges`` prints the file's own golden output."""
    code = 2 if ("dangling", method) in FAILING else 0
    assert main(["rank", "--input", path, "--format", fmt, *METHODS[method]]) == code
    assert capsys.readouterr().out.encode() == (GOLDEN / f"rank-dangling-{method}-{fmt}.out").read_bytes()


@pytest.fixture(scope="module")
def uncommented_dangling(tmp_path_factory):
    """``dangling.edges`` without its '#' line; the bytes path reads it, as it reads the file itself."""
    text = "".join(line for line in (GOLDEN / "dangling.edges").read_text().splitlines(keepends=True) if not line.startswith("#"))
    return _dangling_copy(tmp_path_factory, text, from_bytes=True)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_bytes_path_output_is_golden(uncommented_dangling, method, fmt, capsys):
    _assert_rank_is_golden(uncommented_dangling, method, fmt, capsys)


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
    assert formats._edge_bytes(text) is not None


@pytest.fixture(scope="module")
def utf8_comment_dangling(tmp_path_factory):
    """``dangling.edges`` with a non-ASCII comment, which the bytes path reads."""
    text = (GOLDEN / "dangling.edges").read_text().replace("out-links", "out-links \N{EM DASH} it dangles")
    return _dangling_copy(tmp_path_factory, text, from_bytes=True)


@pytest.fixture(scope="module")
def plus_index_dangling(tmp_path_factory):
    """``dangling.edges`` with its first edge spelled ``+0 1 2.0``, which only the line loop reads."""
    text = (GOLDEN / "dangling.edges").read_text().replace("\n0 1 2.0\n", "\n+0 1 2.0\n")
    return _dangling_copy(tmp_path_factory, text, from_bytes=False)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_utf8_comment_output_is_golden(utf8_comment_dangling, method, fmt, capsys):
    _assert_rank_is_golden(utf8_comment_dangling, method, fmt, capsys)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_line_parser_output_is_golden(plus_index_dangling, method, fmt, capsys):
    _assert_rank_is_golden(plus_index_dangling, method, fmt, capsys)


@pytest.fixture(scope="module")
def per_agent_nonuniform3(tmp_path_factory):
    """``nonuniform3.json`` with its rho 0.5 written once per agent, which the kernels take as rho groups."""
    text = Path(INPUTS["nonuniform3"]).read_text()
    assert text.count('"rho": 0.5') == 1
    path = tmp_path_factory.mktemp("golden") / "nonuniform3.json"
    path.write_text(text.replace('"rho": 0.5', '"rho": [0.5, 0.5, 0.5]'), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_per_agent_rho_output_is_golden(per_agent_nonuniform3, fmt, capsys):
    # the document's own rho, given per agent, ranks to the bytes of `--rho 0.5` given once
    assert main(["rank", "--input", per_agent_nonuniform3, "--format", fmt]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"rank-nonuniform3-ces-rho0.5-{fmt}.out").read_bytes()


@pytest.fixture(scope="module")
def bom_copies(tmp_path_factory):
    """Copies of ``dangling.edges`` and ``monotone3-triplets.json`` that start with a UTF-8 byte order mark."""
    folder = tmp_path_factory.mktemp("bom")
    for name in ("dangling.edges", "monotone3-triplets.json"):
        (folder / name).write_bytes(codecs.BOM_UTF8 + (GOLDEN / name).read_bytes())
    return folder


def _unread(text):
    raise AssertionError("an ASCII edge list went to the line loop")


@pytest.mark.parametrize("as_stream", [False, True], ids=["path", "stream"])
@pytest.mark.parametrize(
    "name, flags, golden",
    [
        ("dangling.edges", ["--method", "pagerank", "--format", "json"], "rank-dangling-pagerank-json"),
        ("dangling.edges", ["--rho", "0.5", "--format", "tsv"], "rank-dangling-ces-rho0.5-tsv"),
        ("monotone3-triplets.json", ["--method", "invariant", "--format", "tsv"], "rank-monotone3-invariant-tsv"),
        ("monotone3-triplets.json", ["--rho", "-0.5", "--format", "json"], "rank-monotone3-ces-rho-0.5-json"),
    ],
)
def test_byte_order_mark_is_read_as_nothing(bom_copies, monkeypatch, capsys, name, flags, golden, as_stream):
    # a leading BOM is dropped (RFC 8259 section 8.1) before the kind of the
    # document is told, from a path or from a stream, which a text file opened
    # as UTF-8 is: the ASCII edge list is still read from its bytes
    monkeypatch.setattr(formats, "_edge_lines", _unread)
    if as_stream:
        def from_stream(path):
            with open(path, encoding="utf-8") as stream:
                assert stream.read(1) == "\ufeff"
                stream.seek(0)
                return formats.sniff_and_load(stream)

        monkeypatch.setattr(cesrank.cli, "sniff_and_load", from_stream)
    assert main(["rank", "--input", str(bom_copies / name), *flags]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{golden}.out").read_bytes()
