import json

import pytest

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


def test_missing_file_exit(capsys):
    assert main(["classify", "/nonexistent.ifs"]) == 1
    assert capsys.readouterr().out == ""


def test_resource_cap_exit(capsys):
    code = main(["components", LG5, "--depth", "9", "--delta", "1/8",
                 "--cap", "1000"])
    assert code == 3
    assert "cap" in capsys.readouterr().err


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
