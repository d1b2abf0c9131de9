"""The one-call numpy reader against the line-by-line reader it falls back to."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import uslkit.cli as cli
from uslkit import ParseError

VALID = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["+1e3", ".5", "1e-400", "1e400", "-0", "nan", "inf", "7.", "0005"]),
)
# cells float() accepts and numpy does not, cells both reject, and padding both strip
ODD = st.sampled_from(["1_000", "١٢", "２", "١.٥", "fast", "", "0x10",
                       "1e", "--1", "1.5f", "2\x00", " 2", "\x0c3"])
CELL = st.one_of(VALID, VALID, ODD)
PAD = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def lines(draw, messy=True):
    kinds = ["row", "row", "row", "padded", "comment", "blank"]
    if messy:
        kinds += ["inline-note", "one-column", "three-columns"]
    kind = draw(st.sampled_from(kinds))
    cell = CELL if messy else VALID
    if kind == "row":
        return f"{draw(cell)},{draw(cell)}"
    if kind == "padded":
        return f"{draw(PAD)}{draw(cell)}{draw(PAD)},{draw(PAD)}{draw(cell)}{draw(PAD)}"
    if kind == "comment":
        return draw(PAD) + draw(st.sampled_from(["#", "# note", "#1,2", "## x,y"]))
    if kind == "blank":
        return draw(PAD) if messy else ""
    if kind == "inline-note":
        return f"{draw(cell)},{draw(cell)} # note"
    if kind == "one-column":
        return draw(cell)
    return f"{draw(cell)},{draw(cell)},{draw(cell)}"


@st.composite
def files(draw):
    """Clean files, which the numpy call reads, and messy ones, which mostly
    fall back; both mix comments, blank lines and line endings."""
    messy = draw(st.booleans())
    head = draw(st.lists(st.sampled_from(["", "# header follows", "  # exported"]), max_size=2))
    header = draw(st.sampled_from(
        ["t,x", " T , X ", "time,x", "t", "t,x,y"] if messy else ["t,x", " T , X "]))
    body = draw(st.lists(lines(messy), max_size=12))
    text = ""
    for line in [*head, header, *body]:
        text += line + draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _outcome(read, path):
    try:
        rows = read(path, ("t", "x"))
    except ParseError as e:
        return "error", str(e)
    return "rows", [np.array(r, dtype=float).view(np.int64).tolist() for r in rows]


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("readers") / "run_N2.csv"


class TestFastReader:
    @settings(max_examples=400, deadline=None)
    @given(text=files())
    @example(text="t,x\n0,1\n1,2 # note\n2,3\n")
    @example(text="# run\r\n\r\nt,x\r\n  # warm\r\n0,1_000\r\n1,\u0661\u0662\r\n")
    @example(text="t,x\n0,1,2\n1,2,3\n")
    @example(text="t,x\n5\n6\n")
    @example(text="x,t\n0,1\n")
    @example(text="t,x\n  \n\t\n\n")
    @example(text="# run\nt,x\n# warm\n  # done\n")
    def test_matches_the_line_by_line_reader(self, scratch, text):
        scratch.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fast = _outcome(cli._read_pairs, str(scratch))
        assert fast == _outcome(cli._read_two_column, str(scratch))

    def test_clean_files_never_reach_the_line_by_line_reader(self, data_dir, monkeypatch):
        def refuse(path, header):
            raise AssertionError(f"line-by-line reader called on {path}")

        monkeypatch.setattr(cli, "_read_two_column", refuse)
        samples = [(float(i), 100.0 + (i % 3)) for i in range(50)]
        clean = data_dir / "clean_N4.csv"
        clean.write_text("t,x\n" + "".join(f"{t!r},{x!r}\n" for t, x in samples))
        noted = data_dir / "noted_N4.csv"
        noted.write_bytes(("# exported run\r\nt,x\r\n  # warm\r\n\r\n"
                           + "".join(f"{t!r},{x!r}\r\n" for t, x in samples)).encode())
        for path in (clean, noted):
            run = cli.read_series_csv(str(path))
            assert run.load == 4.0
            assert run.samples.tolist() == [list(s) for s in samples]
        points = data_dir / "points.csv"
        points.write_text("n,x\n1,10\n2,18\n")
        assert cli.read_points_csv(str(points)).xs.tolist() == [10.0, 18.0]
