"""Tests of the benchmark's own code.

    python3 -m pytest bench -q
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import sponge  # noqa: E402
import sponge.cli  # noqa: E402
import workloads as wl  # noqa: E402
from compare import verdict  # noqa: E402
from tracer import TARGETS, Tracer, layer_stats  # noqa: E402


def test_generators_are_deterministic_per_seed(tmp_path):
    for d in "abc":
        (tmp_path / d).mkdir()
    for name in wl.WORKLOADS:
        a = wl.make(name, 7, tmp_path / "a")
        b = wl.make(name, 7, tmp_path / "b")
        c = wl.make(name, 8, tmp_path / "c")
        keys = [k for k, _ in a.items]
        assert keys == [k for k, _ in b.items]
        assert keys != [k for k, _ in c.items]
        assert len(keys) == len(c.items)
    assert wl.report_entry(5) == wl.report_entry(5)
    assert wl.profile_entry(5) == wl.profile_entry(5)
    assert wl.moran_entry(5) == wl.moran_entry(5)


def test_report_gets_all_three_classes(tmp_path):
    report = wl.make("report", 3, tmp_path)
    classes = {}
    for key, path in report.items:
        if not key.startswith("fixture:"):
            ifs = sponge.parse_ifs(Path(path).read_text())
            cls = sponge.classify(ifs).conformal_dim_class
            classes[cls] = classes.get(cls, 0) + 1
    assert classes == report.classes
    assert set(classes) == {sponge.ZERO, sponge.EXACTLY_ONE,
                            sponge.AT_LEAST_ONE}


def test_self_time_of_nested_spans():
    # a [0,100] holds b [10,40] and c [50,90]; b holds d [20,30]
    spans = [
        (0, -1, 0, "a", 0, 100),
        (1, 0, 0, "b", 10, 40),
        (2, 1, 0, "d", 20, 30),
        (3, 0, 0, "c", 50, 90),
        (4, -1, 1, "b", 200, 205),
    ]
    assert layer_stats(spans) == {"a": (1, 30), "b": (2, 25), "d": (1, 10),
                                  "c": (1, 40)}


def test_reference_check_flags_corrupted_output():
    refs = wl.load_references()
    family = wl._family(wl.moran_entry(0))
    words = wl._words(family.size, wl.MORAN_WORD_LEN)
    keys = ["0"] * len(words) + ["fixture:lg5"]
    outputs = [wl.Moran.run((family, w)) for w in words]
    lg5 = wl.Profile([]).items[0][1]
    outputs.append(wl.Profile.run(lg5))
    assert wl.failed_items("moran", keys[:-1], outputs[:-1], refs) == []
    assert wl.failed_items("profile", keys[-1:], outputs[-1:], refs) == []

    corrupted = [list(o) for o in outputs]
    corrupted[2] = [corrupted[2][0], corrupted[2][1] + [["1", "0"]]]
    assert wl.failed_items("moran", keys[:-1], corrupted[:-1], refs) \
        == list(range(len(words)))
    corrupted[-1][0] = [corrupted[-1][0][0] + 1, corrupted[-1][0][1]]
    assert wl.failed_items("profile", keys[-1:], corrupted[-1:], refs) == [0]
    raised = outputs[:-1]
    raised[0] = None
    assert len(wl.failed_items("moran", keys[:-1], raised, refs)) \
        == len(words)


def _bindings():
    return {(name, func): vars(mod).get(func)
            for name, mod in sys.modules.items()
            if name == "sponge" or name.startswith("sponge.")
            for func in {q.split(".")[1] for q, _ in TARGETS}}


def test_tracer_traces_internal_calls_and_restores_originals():
    before = _bindings()
    original = sponge.ifs.validate_lg
    tracer = Tracer()
    tracer.install()
    try:
        wrapper = sponge.ifs.validate_lg
        assert wrapper is not original
        for mod in (sponge, sponge.tree, sponge.components, sponge.cli):
            assert mod.validate_lg is wrapper
        lg5 = sponge.parse_ifs((wl.FIXTURES / "lg5.ifs").read_text())
        sponge.classify(lg5)
    finally:
        tracer.uninstall()
    assert _bindings() == before
    names = [s[3] for s in tracer.spans]
    # classify -> build_labeled_tree -> validate_lg -> cylinder_box, all
    # reached through module-internal names
    assert names[:4] == ["ifs.parse_ifs", "classify.classify",
                         "tree.build_labeled_tree", "ifs.validate_lg"]
    assert "ifs.cylinder_box" in names
    parents = {s[0]: s[1] for s in tracer.spans}
    assert parents[names.index("ifs.validate_lg")] \
        == names.index("tree.build_labeled_tree")


def test_compare_verdicts():
    parent = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.0]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    assert verdict(parent, faster, 10, 10, True, 0.1, False) == "improved"
    assert verdict(parent, faster, 10, 10, True, 0.1, True) == "no worse"
    assert verdict(parent, slower, 0, 10, True, 0.1, False) == "worse"
    assert verdict(parent, parent, 0, 10, True, 0.1, False) == "no worse"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 10.0, 9.0, 11.0]
    assert verdict(parent, noisy, 5, 10, True, 0.1, False) == "unresolved"
    assert verdict(parent, slower, 10, 10, False, 0.1, False) == "improved"


def test_calibrated_times_are_scaled_per_segment(monkeypatch):
    import types

    import run

    class Fake:
        items = [(str(i), i) for i in range(4)]

        @staticmethod
        def run(item):
            return item

    # each clock reading is one second later; one segment holds all four
    # items, between loops of 0.01 and 0.03 s, so its times scale by
    # CALIBRATION_REF_S / 0.02
    ticks = iter(range(100))
    monkeypatch.setattr(run, "time",
                        types.SimpleNamespace(perf_counter=lambda: next(ticks)))
    loops = iter([0.01, 0.03])
    monkeypatch.setattr(run, "calibration_s", lambda: next(loops))
    monkeypatch.setattr(run, "SEGMENT_S", 1e9)
    _, times, outputs = run.run_pass(Fake)
    assert outputs == [0, 1, 2, 3]
    assert times == [run.CALIBRATION_REF_S / 0.02] * 4
