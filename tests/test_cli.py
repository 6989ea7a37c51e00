import contextlib
import functools
import hashlib
import importlib
import io
import json
import pkgutil
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import sponge
import sponge.cantor
import sponge.cli
from sponge import (AffineMap1D, Analysis, DiagonalAffineMap, EXACTLY_ONE,
                    SpongeIFS, attractor_is_unit_interval,
                    last_coordinate_fibers, parse_ifs, serialize_ifs)
from sponge.cli import emit, main
from sponge.util import DomainError, ResourceCapError, frac_str

from conftest import (FIXTURES, random_lg_from_tiling, random_lg_system,
                      random_simple_labels, random_special_system)

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


def test_cap_of_one_is_accepted(capsys):
    # the smallest cap there is: classify enumerates no word, and one
    # digit of precision is within it
    assert main(["classify", LG5, "--cap", "1", "--precision", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["payload"]["conformal_dim_class"] == (
        "Zero")


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
def wide_denominators(tmp_path):
    """Two maps whose y-ratio is 1/p, p = 10^300 + 7: each depth multiplies
    the common denominator by 3p, so the squared limits are long ints."""
    p = 10 ** 300 + 7
    path = tmp_path / "wide.ifs"
    path.write_text("dim 2\nmap 1/3 0 ; 1/%d 0\nmap 1/3 2/3 ; 1/%d %d/%d\n"
                    % (p, p, p - 1, p))
    return str(path)


def test_sweep_window_is_charged_before_any_pair(capsys, wide_denominators):
    # 46,656 boxes under the default cap, 258,657,504 window pairs of one
    # 64-bit word
    _assert_one_line_cap_error(capsys, [
        "components", str(FIXTURES / "bedford_mcmullen.ifs"), "--depth", "6",
        "--delta", "1/8"])
    # 4096 boxes, 2,177,672 window pairs of 375 words each
    _assert_one_line_cap_error(capsys, ["components", wide_denominators,
                                        "--depth", "12", "--delta", "1/8"])


@pytest.mark.parametrize("cap, code", [("452", 3), ("453", 0)])
def test_sweep_window_charge_boundary(capsys, wide_denominators, cap, code):
    # depth 7: 128 boxes; the window's pairs times the 64-bit words of the
    # squared limit come to between 452,000 and 453,000
    assert main(["components", wide_denominators, "--depth", "7", "--delta",
                 "1/8", "--cap", cap, "--precision", "1"]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.err == ("sponge: components: would enumerate at "
                                "least 453 objects, cap is 452\n")
    else:
        assert captured.err == ""
        # the two depth-1 columns are 1/3 apart
        assert json.loads(captured.out)["payload"]["rows"][0][
            "num_components"] == 2


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


def test_report_scales_each_label_set_once(capsys, monkeypatch):
    # one `sponge all` scales each fiber once (the tree), each column of
    # the maps and of the projected maps once for both depths of the
    # product decomposition, and each column of the special system once
    # (the envelope), and computes the Lipschitz constants once
    scaled = Counter()
    original = sponge.ifs.scale_labels
    for module in (sponge.tree, sponge.components, sponge.cantor):
        def counting(labels, name=module.__name__):
            scaled[name] += 1
            return original(labels)
        monkeypatch.setattr(module, "scale_labels", counting)
    constants = []
    lipschitz_constants = sponge.cantor.lipschitz_constants

    def counting_constants(*args):
        constants.append(args)
        return lipschitz_constants(*args)

    monkeypatch.setattr(sponge.cantor, "lipschitz_constants",
                        counting_constants)
    assert main(["all", LG4]) == 0
    capsys.readouterr()
    assert scaled == {"sponge.tree": 5,  # lg4's non-leaf vertices
                      "sponge.components": 2 + 1, "sponge.cantor": 2}
    assert len(constants) == 1


def test_report_writes_each_vertex_dict_once(capsys, monkeypatch):
    # a vertex is written as a tree entry, an offspring child, a fiber
    # owner and the witness; its dict (and frac_str text) is built once
    built = []
    original = sponge.cli._vertex_dict

    def counting(vertex):
        built.append(vertex)
        return original(vertex)

    monkeypatch.setattr(sponge.cli, "_vertex_dict", counting)
    assert main(["all", LG4]) == 0
    capsys.readouterr()
    tree = Analysis(sponge.parse_ifs((FIXTURES / "lg4.ifs").read_text())).tree
    assert Counter(built) == Counter(v for level in tree.levels for v in level)


_IMPORT_GRAPH = """
import sys
import sponge
loaded = [m for m in ("dataclasses", "inspect", "sponge.cantor", "sponge.cli")
          if m in sys.modules]
assert loaded == [], loaded
import sponge.components
assert sponge.classify is sys.modules["sponge.classify"].classify
import sponge.cli
assert sponge.cli.main(["validate", %r]) == 0
assert "sponge.cantor" not in sys.modules
try:
    sponge.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("sponge.no_such_name resolved")
assert sponge.bilipschitz_check is sponge.cantor.bilipschitz_check
assert sys.modules["sponge.cantor"] is sponge.cantor
"""


def test_import_graph_in_a_fresh_interpreter():
    # importing sponge loads neither dataclasses (nor its inspect) nor the
    # Cantor-model stage, which loads on first use of one of its names
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_GRAPH % LG5],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_every_lazy_name_resolves_to_its_cantor_attribute():
    # the lazy table names only what sponge.cantor has ("cantor" is the
    # module itself), so an export edit cannot leave a dangling name
    for name in sorted(sponge._CANTOR_NAMES):
        want = sponge.cantor if name == "cantor" \
            else getattr(sponge.cantor, name)
        assert sponge.__getattr__(name) is want
    with pytest.raises(AttributeError, match=r"^module 'sponge' has no "
                       r"attribute 'no_such_name'$"):
        sponge.no_such_name


@pytest.mark.parametrize("fixture", ["lg5", "lg4", "bedford_mcmullen"])
def test_report_composes_no_maps(capsys, fixture):
    # cylinder sides, pre-Moran intervals and Lipschitz points all compose
    # in integers from the maps' integer forms (ifs.cylinder_box for one
    # word, ifs.compose_scaled for label sets): the maps have no Fraction
    # composition to call
    assert not hasattr(sponge.ifs.AffineMap1D, "compose")
    assert not hasattr(sponge.ifs.DiagonalAffineMap, "compose")
    assert main(["all", str(FIXTURES / (fixture + ".ifs"))]) == 0
    capsys.readouterr()


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


def test_square_takes_one_delta(capsys):
    # a second --delta is an error, not silently dropped
    assert main(["square", LG5, "--word", "1,1,1,1", "--delta", "1/10",
                 "--delta", "1/2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "sponge: square takes one --delta, got 2\n"


@pytest.mark.parametrize("word", ["0,0,0,0,0,0", "9"])
def test_square_symbol_out_of_range(capsys, word):
    assert main(["square", LG5, "--word", word, "--delta", "1/2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "sponge: ifs: symbol %s out of range 1..5\n" \
        % word.split(",")[0]


@pytest.mark.parametrize("subcommand", [
    "all", "cantor", "classify", "square", "tree", "validate"])
def test_csv_without_schema_exits_before_any_work(capsys, monkeypatch,
                                                  subcommand):
    def parse_ifs(text):
        raise AssertionError("a stage ran")
    monkeypatch.setattr(sponge.cli, "parse_ifs", parse_ifs)
    assert subcommand not in sponge.cli._CSV_COLUMNS
    assert main([subcommand, LG4, "--format", "csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "sponge: no CSV schema for subcommand %r\n" % subcommand


def test_every_error_class_has_one_exit_code():
    # main exits 1 on ParseError and Rejection, 3 on ResourceCapError and
    # 2 on DomainError; an error class outside all three would exit 4
    classes = [cls for info in pkgutil.iter_modules(sponge.__path__)
               for cls in vars(importlib.import_module(
                   "sponge." + info.name)).values()
               if isinstance(cls, type) and issubclass(cls, Exception)
               and cls.__module__ == "sponge." + info.name]
    assert {"IFSError", "ParseError", "TreeError", "ClassifyError",
            "ComponentsError", "PreconditionError", "CantorError",
            "DigitLimitError", "Rejection"} <= {c.__name__ for c in classes}
    for cls in classes:
        kinds = (issubclass(cls, DomainError),
                 issubclass(cls, ResourceCapError),
                 cls is sponge.cli.Rejection)
        assert kinds.count(True) == 1, cls


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


def test_one_parser_carries_no_state_between_calls(capsys):
    assert sponge.cli.build_parser() is sponge.cli.build_parser()
    # an appended --delta does not leak into the next call
    code, _ = run_json(capsys, ["components", LG5, "--delta", "1/8"])
    assert code == 0
    assert main(["components", LG5]) == 1
    assert "requires at least one --delta" in capsys.readouterr().err
    # --help exits through argparse, and the parser still works after it
    assert main(["--help"]) == 0
    assert "usage: sponge" in capsys.readouterr().out
    code, _ = run_json(capsys, ["classify", LG5])
    assert code == 0
    digests = [run_json(capsys, ["all", LG4])[1]["digest"] for _ in range(2)]
    assert digests[0] == digests[1]


def _indent2(report):
    """The JSON oracle: the standard library's indented encoder."""
    return json.dumps(report, sort_keys=True, indent=2, default=frac_str) + "\n"


_SUBCOMMANDS = {
    "validate": [], "classify": [], "tree": [], "all": [],
    "components": ["--depth", "2", "--delta", "1/8", "--delta", "1/3"],
    "premoran": ["--word", "1,2,1"],
    "square": ["--word", "1,2,1,2,1,2", "--delta", "1/8"],
    "cantor": ["--depth", "3"],
}

# the fixtures of the golden reports: d = 2 (Zero, ExactlyOne, AtLeastOne)
# and d = 3 (AtLeastOne at ranks 1 and 2, ExactlyOne)
GOLDEN_FIXTURES = ["lg5", "lg4", "bedford_mcmullen", "sponge3_rank1",
                   "sponge3_rank2", "sponge3_special"]


@pytest.mark.parametrize("fixture", GOLDEN_FIXTURES)
@pytest.mark.parametrize("subcommand", sorted(_SUBCOMMANDS))
def test_json_output_matches_indented_encoder(capsys, monkeypatch, fixture,
                                              subcommand):
    reports = []

    def keeping(report, fmt, sub):
        reports.append(report)
        return emit(report, fmt, sub)

    monkeypatch.setattr(sponge.cli, "emit", keeping)
    main([subcommand, str(FIXTURES / (fixture + ".ifs"))]
         + _SUBCOMMANDS[subcommand])
    out = capsys.readouterr().out
    # a rejected subcommand (cantor on a non-special system) writes nothing
    assert out == "".join(map(_indent2, reports))


def _column_grid(first):
    """An AtLeastOne system: columns on the tiling `first`, the first
    column holding two maps at the bottom and top, the others one."""
    maps = []
    for k, g in enumerate(first):
        r = g.ratio / 2
        maps += [DiagonalAffineMap((g, AffineMap1D(r, o)))
                 for o in ((0, 1 - r) if k == 0 else (0,))]
    return SpongeIFS(2, tuple(maps))


def _drawn_systems():
    """Seeded draws of all three classes: LG systems in d = 2 and 3,
    systems on a tiling first coordinate, special systems and column
    grids."""
    rng = random.Random(31)
    systems = [random_lg_system(rng, dim) for dim in (2, 3) * 3]
    while len(systems) < 10:
        first = random_simple_labels(rng, max_den=12, tiling=True)
        ifs = random_lg_from_tiling(rng, first, 12)
        if ifs is not None:
            systems.append(ifs)
    systems += [random_special_system(rng) for _ in range(4)]
    return systems + [_column_grid(random_simple_labels(
        rng, max_den=12, tiling=True)) for _ in range(3)]


def test_all_json_matches_indented_encoder_on_drawn_systems(
        tmp_path, capsys, monkeypatch):
    reports = []

    def keeping(report, fmt, sub):
        reports.append(report)
        return emit(report, fmt, sub)

    monkeypatch.setattr(sponge.cli, "emit", keeping)
    for k, ifs in enumerate(_drawn_systems()):
        path = tmp_path / ("%d.ifs" % k)
        path.write_text(serialize_ifs(ifs))
        assert main(["all", str(path)]) == 0
    assert capsys.readouterr().out == "".join(map(_indent2, reports))
    classes = Counter(r["payload"]["classify"]["conformal_dim_class"]
                      for r in reports)
    cantor = [r["payload"]["cantor"] for r in reports
              if "cantor" in r["payload"]]
    assert classes == {"Zero": 4, "ExactlyOne": 10, "AtLeastOne": 3}
    # Cantor payloads with m = 2, 3 and 4 maps, not only lg4's
    assert Counter(c["m"] for c in cantor) == {2: 3, 3: 4, 4: 3}


def _report_hashes(fixture, subcommand, fmt):
    """[exit code, sha256 of stdout without its timing line, sha256 of
    stderr] of one run with the options above."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([subcommand, str(FIXTURES / (fixture + ".ifs")),
                     "--format", fmt] + _SUBCOMMANDS[subcommand])
    text = "".join(line for line in out.getvalue().splitlines(True)
                   if not line.startswith('  "timing": '))
    return [code] + [hashlib.sha256(s.encode()).hexdigest()
                     for s in (text, err.getvalue())]


# every fixture x subcommand x format, recorded at f856e62 (the d = 3
# fixtures at db95929 and 03b14c3): a report, an exit code or a diagnostic
# changes only on purpose
GOLDEN_REPORTS = Path(__file__).resolve().parent / "golden_reports.json"


def test_every_report_matches_its_recorded_hashes():
    golden = json.loads(GOLDEN_REPORTS.read_text())
    assert len(golden) == len(GOLDEN_FIXTURES) * len(_SUBCOMMANDS) * 3
    changed = [key for key, hashes in sorted(golden.items())
               if _report_hashes(*key.split()) != hashes]
    assert changed == []


def _scalars(value):
    if isinstance(value, dict):
        return [x for v in value.values() for x in _scalars(v)]
    if isinstance(value, (list, tuple)):
        return [x for v in value for x in _scalars(v)]
    return [value]


def test_every_golden_scalar_has_an_exact_type_writer(monkeypatch):
    # the JSON writer looks a scalar's writer up by its exact type alone:
    # no report of the golden runs holds a subclass
    reports = []

    def keeping(report, fmt, sub):
        reports.append(report)
        return emit(report, fmt, sub)

    monkeypatch.setattr(sponge.cli, "emit", keeping)
    golden = json.loads(GOLDEN_REPORTS.read_text())
    for key in golden:
        _report_hashes(*key.split())
    # every subcommand writes json and text, and csv where it has a CSV
    # schema, but cantor writes only on the ExactlyOne fixtures: on the
    # others it exits 2 (no Cantor model); and premoran exits 2 where a
    # last-coordinate fiber tiles [0,1] (no pre-Moran family)
    analyses = [Analysis(parse_ifs((FIXTURES / (f + ".ifs")).read_text()))
                for f in GOLDEN_FIXTURES]
    special = sum(a.classification.conformal_dim_class == EXACTLY_ONE
                  for a in analyses)
    tiling = sum(any(map(attractor_is_unit_interval,
                         last_coordinate_fibers(a.tree))) for a in analyses)
    written = len(GOLDEN_FIXTURES) * (2 * len(_SUBCOMMANDS) - 2
                                      + len(sponge.cli._CSV_COLUMNS)) \
        - (2 + ("premoran" in sponge.cli._CSV_COLUMNS)) * tiling
    assert len(reports) == sum(code == 0 for code, *_ in golden.values()) \
        == written + 2 * special
    types = {type(x) for r in reports for x in _scalars(r)}
    assert types <= set(sponge.cli._JSON_SCALARS)
    assert Fraction in types


def test_all_analyzes_the_special_system_once(monkeypatch, capsys):
    # the special system is an Analysis stage: `all` reads it for the
    # cantor check and the section itself, computing it once
    calls = []
    original = sponge.cantor.analyze_special_system

    def counting(ifs):
        calls.append(ifs)
        return original(ifs)

    monkeypatch.setattr(sponge.cantor, "analyze_special_system", counting)
    a = Analysis(sponge.parse_ifs((FIXTURES / "lg4.ifs").read_text()))
    assert a.special is a.special
    assert calls == [a]
    assert main(["all", str(FIXTURES / "lg4.ifs")]) == 0
    assert "cantor" in json.loads(capsys.readouterr().out)["payload"]
    assert len(calls) == 2 and isinstance(calls[1], Analysis)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text() | st.fractions(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20)


class _FractionSubclass(Fraction):
    """A scalar of no listed exact type: json.dumps writes it through
    frac_str, as a string."""


@given(_json_values)
@example({"a": [_FractionSubclass(1, 2), _FractionSubclass(3)]})
def test_emit_json_matches_indented_encoder(value):
    assert emit(value, "json", "all") == _indent2(value)
