import contextlib
import functools
import io
import json
import sys
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import sponge.cantor
import sponge.cli
from sponge import Analysis
from sponge.cli import main

from conftest import FIXTURES

LG5 = str(FIXTURES / "lg5.ifs")
LG4 = str(FIXTURES / "lg4.ifs")


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_classify_lg5(capsys):
    code, report = run_json(capsys, ["classify", LG5])
    assert code == 0
    assert report["payload"]["uniformly_disconnected"] is True
    assert report["payload"]["conformal_dim_class"] == "Zero"
    assert report["payload"]["witness"] is None


def test_classify_lg4(capsys):
    code, report = run_json(capsys, ["classify", LG4])
    assert code == 0
    assert report["payload"]["conformal_dim_class"] == "ExactlyOne"
    assert report["payload"]["witness"]["rank"] == 0


def test_validate_rejection(tmp_path, capsys):
    bad = tmp_path / "bad.ifs"
    bad.write_text("dim 2\nmap 1/2 0 ; 1/3 0\nmap 1/2 1/4 ; 1/3 1/3\n")
    code, report = run_json(capsys, ["validate", str(bad)])
    assert code == 2
    assert report["payload"]["lg_type"] is False
    assert report["payload"]["violations"]


def test_parse_error_exit(tmp_path, capsys):
    garbled = tmp_path / "garbled.ifs"
    garbled.write_text("dim 2\nmap 1/2 0 ; nonsense\n")
    assert main(["validate", str(garbled)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 2" in captured.err


@pytest.mark.parametrize("text, code, expected", [
    ("dim 2\ndim 2\nmap 1/2 0 ; 1/3 0\n", 1,
     "line 2, col 1: duplicate dim directive"),
    ("dim two\n", 1, "line 1, col 1: bad dim 'two'"),
    ("dim 1\nmap 1/2 x\n", 1,
     "line 2, col 1: invalid literal for int() with base 10: 'x'"),
    ("dim 1\nmap 1/0 0\n", 1, "line 2, col 1: zero denominator in '1/0'"),
    ("dim 1\nwarp 1/2 0\n", 1, "line 2, col 1: unknown directive 'warp'"),
    ("# only a comment\n\n", 1, "line 1, col 1: missing dim directive"),
    ("dim 2\n", 1, "line 1, col 1: no map lines"),
    ("dim 1\nmap 1/2 3/4\n", 2, [["unit_cube", [1, 1]]]),
], ids=["duplicate dim", "bad dim", "bad rational", "zero denominator",
        "unknown directive", "missing dim", "no maps", "unit cube"])
def test_malformed_file_exits(tmp_path, capsys, text, code, expected):
    # a parse error is one located stderr line; a file that parses but
    # leaves the unit cube is a rejected report
    path = tmp_path / "bad.ifs"
    path.write_text(text)
    assert main(["validate", str(path)]) == code
    captured = capsys.readouterr()
    if code == 1:
        assert captured.out == ""
        assert captured.err == "sponge: ifs: %s\n" % expected
    else:
        assert captured.err == ""
        assert json.loads(captured.out)["payload"]["violations"] == expected


def test_missing_file_exit(capsys):
    assert main(["classify", "/nonexistent.ifs"]) == 1
    assert capsys.readouterr().out == ""


def test_resource_cap_exit(capsys):
    code = main(["components", LG5, "--depth", "9", "--delta", "1/8",
                 "--cap", "1000"])
    assert code == 3
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["components", LG5, "--depth", "6200", "--delta", "1/8"],
    ["components", LG5, "--depth", "100000000", "--delta", "1/8"],
    ["cantor", LG4, "--check", "binary", "--depth", "40"],
    ["cantor", LG4, "--check", "binary", "--depth", "100000000"],
    ["cantor", LG4, "--precision", "2000000"],
    ["components", LG5, "--depth", "1", "--delta", "1/8",
     "--precision", "2000000"],
])
def test_huge_depth_is_cap_error(capsys, argv):
    started = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert len(captured.err) < 100


@pytest.mark.parametrize("cap, code", [("49", 3), ("50", 0)])
def test_precision_counts_against_cap(capsys, cap, code):
    assert main(["components", LG5, "--depth", "1", "--delta", "1/8",
                 "--precision", "50", "--cap", cap]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
    else:
        assert captured.err == ""


def test_one_map_huge_depth_is_cap_error(tmp_path, capsys):
    # one cylinder at every depth, but a depth-n word takes n compositions
    one_map = tmp_path / "one_map.ifs"
    one_map.write_text("dim 2\nmap 1/2 0 ; 1/3 0\n")
    started = time.perf_counter()
    assert main(["components", str(one_map), "--depth", "1000000",
                 "--delta", "1/8"]) == 3
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def _assert_one_line_cap_error(capsys, argv):
    started = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


@pytest.fixture
def one_map_columns(tmp_path):
    """Two columns with one map each: every family member has one label."""
    path = tmp_path / "columns.ifs"
    path.write_text("dim 2\nmap 1/2 0 ; 1/3 0\nmap 1/2 1/2 ; 1/3 0\n")
    return str(path)


def test_premoran_cap_bounds_word_length(capsys, one_map_columns):
    word = ",".join(["1"] * 20000)
    _assert_one_line_cap_error(capsys, ["premoran", one_map_columns,
                                        "--word", word, "--cap", "1000"])


@pytest.mark.parametrize("cap, code", [("19", 3), ("20", 0)])
def test_premoran_word_length_boundary(capsys, one_map_columns, cap, code):
    assert main(["premoran", one_map_columns, "--word", ",".join(["1"] * 20),
                 "--cap", cap]) == code
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == code // 3


def test_value_too_long_to_print_is_cap_error(capsys, tmp_path,
                                              one_map_columns):
    # 3^20000 and 2^16000 are past Python's 4300-digit int-to-str limit
    _assert_one_line_cap_error(capsys, ["premoran", one_map_columns, "--word",
                                        ",".join(["1"] * 20000)])
    one_map = tmp_path / "one_map.ifs"
    one_map.write_text("dim 2\nmap 1/2 0 ; 1/3 0\n")
    _assert_one_line_cap_error(capsys, ["components", str(one_map), "--depth",
                                        "8000", "--delta", "1/8"])


def test_internal_error_is_one_line(capsys, monkeypatch):
    def broken(a, args):
        raise RuntimeError("first line\nsecond line")

    monkeypatch.setitem(sponge.cli._HANDLERS, "classify", broken)
    assert main(["classify", LG5]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "sponge: internal error: RuntimeError: first line\n"


def test_cantor_binary_cap_counts_binary_nodes(capsys):
    # 511 binary nodes fit; the depth-5 Cantor tree (1024 leaves) is never
    # laid out when only the binary check runs
    code, report = run_json(capsys, ["cantor", LG4, "--check", "binary",
                                     "--depth", "8", "--cap", "1000"])
    assert code == 0
    assert report["digest"].startswith("5a14d98f0f846286")


@pytest.mark.parametrize("argv, eager_depth", [
    (["cantor", LG4], 3),
    (["cantor", LG4, "--check", "tree", "--depth", "7"], 5),
    (["cantor", LG4, "--check", "lipschitz"], 0),
    (["cantor", LG4, "--check", "binary", "--depth", "6"], 0),
    (["all", LG4], 3),
])
def test_cantor_report_builds_one_tree(capsys, monkeypatch, argv,
                                       eager_depth):
    built = []  # depth each CantorTree is laid out to on construction

    class CountingTree(sponge.cantor.CantorTree):
        def __init__(self, *args, **kwargs):
            built.append(args[2])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(sponge.cantor, "CantorTree", CountingTree)
    assert main(argv) == 0
    capsys.readouterr()
    assert built == [eager_depth]


def _count_stages(monkeypatch):
    """Count validate_lg and build_labeled_tree calls through every sponge
    namespace that binds them, and classification computations."""
    counts = Counter()

    def counting(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in ((sponge.ifs, "validate_lg"),
                         (sponge.tree, "build_labeled_tree")):
        original = getattr(module, name)
        wrapper = counting(name, original)
        for modname, mod in list(sys.modules.items()):
            if (modname == "sponge" or modname.startswith("sponge.")) \
                    and vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, wrapper)
    stage = functools.cached_property(
        counting("classification", Analysis.classification.func))
    stage.__set_name__(Analysis, "classification")
    monkeypatch.setattr(Analysis, "classification", stage)
    return counts


STAGE_ARGV = {
    "validate": [],
    "classify": [],
    "tree": [],
    "components": ["--delta", "1/8"],
    "premoran": ["--word", "1,2,1"],
    "square": ["--word", "1,2,1,2,1,2,1", "--delta", "1/8"],
    "cantor": [],
}


@pytest.mark.parametrize("fixture", ["lg5", "lg4", "bedford_mcmullen"])
def test_report_runs_each_stage_once(capsys, monkeypatch, fixture):
    path = str(FIXTURES / (fixture + ".ifs"))
    counts = _count_stages(monkeypatch)
    assert main(["all", path]) == 0
    assert counts == {"validate_lg": 1, "build_labeled_tree": 1,
                      "classification": 1}
    for subcommand, extra in STAGE_ARGV.items():
        counts.clear()
        main([subcommand, path] + extra)
        assert max(counts.values(), default=0) <= 1, (subcommand, counts)
    capsys.readouterr()


@pytest.mark.parametrize("fixture, vertices", [
    ("lg4", 5), ("lg5", 3), ("bedford_mcmullen", 4)])
def test_report_builds_one_fiber_per_vertex(capsys, monkeypatch, fixture,
                                            vertices):
    owners = []
    original = sponge.tree.FiberIFS.__post_init__

    def counting(self):
        owners.append(self.owner)
        original(self)

    monkeypatch.setattr(sponge.tree.FiberIFS, "__post_init__", counting)
    assert main(["all", str(FIXTURES / (fixture + ".ifs"))]) == 0
    capsys.readouterr()
    # one FiberIFS per non-leaf vertex, each built once
    assert len(owners) == len(set(owners)) == vertices


@pytest.mark.parametrize("fixture", ["lg5", "lg4", "bedford_mcmullen"])
def test_report_composes_no_maps(capsys, monkeypatch, fixture):
    # cylinder sides, pre-Moran intervals and Lipschitz points all compose
    # in integers through ifs.compose_labels
    calls = []
    original = sponge.ifs.AffineMap1D.compose

    def counting(self, other):
        calls.append(None)
        return original(self, other)

    monkeypatch.setattr(sponge.ifs.AffineMap1D, "compose", counting)
    assert main(["all", str(FIXTURES / (fixture + ".ifs"))]) == 0
    capsys.readouterr()
    assert calls == []


def test_non_utf8_input_exit(tmp_path, capsys):
    bad = tmp_path / "latin1.ifs"
    bad.write_bytes(b"dim 2\nmap 1/2 0 ; 1/3 0 \xff\n")
    assert main(["classify", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("sponge: ")


def test_usage_error_exit(capsys):
    assert main(["bogus", LG5]) == 1
    assert main(["components", LG5, "--depth", "2"]) == 1  # no --delta
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["components", LG5, "--delta", "1/8", "--precision", "0"],
    ["cantor", LG4, "--precision", "-3"],
    ["cantor", LG4, "--depth=-1", "--check", "lipschitz"],
    ["components", LG5, "--depth=-2", "--delta", "1/8"],
    ["validate", LG5, "--depth=-1"],
    ["all", LG4, "--cap", "-3"],
    ["validate", LG4, "--cap", "-3"],
    ["classify", LG4, "--cap", "0"],
    ["classify", LG4, "--precision", "100", "--cap", "0"],
])
def test_invalid_numeric_option_is_usage_error(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("sponge: --")


def test_components_csv(capsys):
    code = main(["components", LG5, "--depth", "2", "--delta", "1/8",
                 "--delta", "1/16", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == \
        "delta,num_components,max_diam_sq,max_diam_decimal,ratio_decimal"
    assert lines[1].startswith("1/8,5,29/100,")
    assert len(lines) == 3


def test_tree_json(capsys):
    code, report = run_json(capsys, ["tree", LG5])
    assert code == 0
    ranks = [v["rank"] for v in report["payload"]["vertices"]]
    assert sorted(ranks) == [0, 1, 1, 2, 2, 2, 2, 2]


def test_premoran_csv(capsys):
    code = main(["premoran", LG5, "--word", "1,2", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "lo,hi"
    assert len(lines) == 7  # 2 * 3 intervals


def test_square(capsys):
    code, report = run_json(capsys, ["square", LG5, "--word", "1,1,1,1",
                                     "--delta", "1/10"])
    assert code == 0
    assert report["payload"]["depths"] == [3, 2]
    assert report["payload"]["box"] == [["0", "1/27"], ["0", "1/36"]]


@pytest.mark.parametrize("word", ["0,0,0,0,0,0", "9"])
def test_square_symbol_out_of_range(capsys, word):
    assert main(["square", LG5, "--word", word, "--delta", "1/2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "sponge: ifs: symbol %s out of range 1..5\n" \
        % word.split(",")[0]


@pytest.mark.parametrize("head, option, value, tail, err", [
    (["components", LG5, "--depth", "2"], "--delta", "-1/8", [],
     "sponge: components: delta must be positive, got -1/8\n"),
    (["square", LG5], "--word", "-1,2", ["--delta", "1/2"],
     "sponge: ifs: symbol -1 out of range 1..5\n"),
])
def test_negative_looking_value_either_form(capsys, head, option, value,
                                            tail, err):
    for argv in (head + [option, value] + tail,
                 head + [option + "=" + value] + tail):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == err


def test_workers_option_is_gone(capsys):
    assert main(["cantor", LG4, "--workers", "2"]) == 1
    assert "unrecognized arguments: --workers" in capsys.readouterr().err


def test_cantor_rational_serialization(capsys):
    code, report = run_json(capsys, ["cantor", LG4, "--depth", "3"])
    assert code == 0
    assert report["payload"]["L"] == "613/73"
    assert report["payload"]["lipschitz"]["pass"] is True


def test_cantor_rejects_nonspecial(capsys):
    assert main(["cantor", LG5]) == 2
    capsys.readouterr()


def test_all_subcommand(capsys):
    code, report = run_json(capsys, ["all", LG4, "--depth", "2"])
    assert code == 0
    payload = report["payload"]
    assert payload["validate"]["lg_type"] is True
    assert payload["classify"]["conformal_dim_class"] == "ExactlyOne"
    assert payload["product_decomposition"] == {"1": True, "2": True}
    assert "cantor" in payload


SEGMENT_SYSTEMS = {
    "interval": "dim 1\nmap 1/2 0\nmap 1/2 1/2\n",
    "zero_gap": "dim 2\nmap 1/2 0 ; 1/3 0\nmap 1/2 1/2 ; 1/3 0\n",
}


@pytest.mark.parametrize("name", sorted(SEGMENT_SYSTEMS))
def test_all_on_segment_has_no_cantor_section(tmp_path, capsys, name):
    # ExactlyOne, but every gap vanishes: the attractor is a segment, which
    # has no Cantor model; `cantor` rejects it, `all` leaves the section out
    path = tmp_path / (name + ".ifs")
    path.write_text(SEGMENT_SYSTEMS[name])
    code, report = run_json(capsys, ["all", str(path)])
    assert code == 0
    payload = report["payload"]
    assert payload["classify"]["conformal_dim_class"] == "ExactlyOne"
    assert "cantor" not in payload
    assert main(["cantor", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "sponge: cantor: all gaps vanish; the limit set " \
        "is an interval, not a Cantor set\n"


_RATIOS = ["1/2", "1/3", "1/4", "2/3", "1/5", "3/4"]
_OFFSETS = ["0", "1/4", "1/3", "1/2", "2/3", "3/4"]
_MALFORMED = ["x", "1/", "/2", "1//2", "1/0", "1.5", "-1/2", "7/3", "1"]
# systems that pass validation, so that some examples reach every stage
_VALID_TEXTS = [(FIXTURES / name).read_text()
                for name in ("lg5.ifs", "lg4.ifs", "bedford_mcmullen.ifs")]
_VALID_TEXTS += list(SEGMENT_SYSTEMS.values()) + [
    "dim 2\nmap 1/2 0 ; 1/4 0\nmap 1/2 1/2 ; 1/4 1/2\n",
    "dim 1\nmap 1/3 0\nmap 1/3 2/3\n",
    "dim 3\nmap 1/2 0 ; 1/3 0 ; 1/4 0\nmap 1/2 1/2 ; 1/3 1/3 ; 1/5 1/2\n"]


def _tokens(good):
    """Mostly well-formed p/q tokens from `good`, some malformed ones."""
    return st.one_of(st.sampled_from(good), st.sampled_from(good),
                     st.sampled_from(_MALFORMED),
                     st.builds("{}/{}".format, st.integers(-2, 9),
                               st.integers(-1, 9)))


@st.composite
def _ifs_texts(draw):
    dim = draw(st.integers(1, 3))
    lines = [draw(st.sampled_from(["dim %d" % dim] * 4
                                  + ["dim x", "dim 0", ""]))]
    for _ in range(draw(st.integers(1, 5))):
        coords = draw(st.sampled_from([dim] * 4 + [dim - 1, dim + 1]))
        lines.append("map " + " ; ".join(
            "%s %s" % (draw(_tokens(_RATIOS)), draw(_tokens(_OFFSETS)))
            for _ in range(coords)))
    return "\n".join(lines) + "\n"


_OPTION_VALUES = st.sampled_from(["1/8", "1/8", "1/2", "1", "0", "-1/8",
                                  "1/0", "x", ""])
_WORDS = st.one_of(st.lists(st.integers(-1, 6), max_size=6).map(
    lambda w: ",".join(map(str, w))), st.sampled_from(["a", "1,,2", " "]))


@settings(max_examples=300)
@given(text=st.one_of(st.sampled_from(_VALID_TEXTS), _ifs_texts()),
       subcommand=st.sampled_from(sorted(sponge.cli._HANDLERS)),
       depth=st.one_of(st.integers(-1, 6), st.integers(0, 4),
                       st.just(10 ** 6)),
       deltas=st.lists(_OPTION_VALUES, max_size=2),
       word=st.one_of(st.none(), _WORDS),
       cap=st.one_of(st.integers(12, 400), st.integers(100, 400),
                     st.integers(1, 11)))
def test_cli_fuzz_ends_in_an_exit_code(tmp_path_factory, text, subcommand,
                                        depth, deltas, word, cap):
    path = tmp_path_factory.getbasetemp() / "fuzz.ifs"
    path.write_text(text)
    argv = [subcommand, str(path), "--depth", str(depth), "--cap", str(cap)]
    for delta in deltas:
        argv += ["--delta", delta]
    if word is not None:
        argv += ["--word", word]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), err.getvalue()
    assert len(err.getvalue().splitlines()) <= 1, err.getvalue()


def test_json_determinism(capsys):
    outs = []
    for _ in range(2):
        main(["classify", LG5])
        outs.append(capsys.readouterr().out)
    strip = lambda s: [l for l in s.splitlines() if '"timing"' not in l]
    assert strip(outs[0]) == strip(outs[1])
    d0 = json.loads(outs[0])
    d1 = json.loads(outs[1])
    assert d0["digest"] == d1["digest"]


def test_text_format(capsys):
    code = main(["validate", LG4, "--format", "text"])
    assert code == 0
    out = capsys.readouterr().out
    assert "lg_type = True" in out
