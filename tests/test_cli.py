import json

import pytest

from graphchase import (EvidenceError, load_path, save_graph, save_path,
                        sweep_strategy, verify)
from graphchase import cli
from graphchase.cli import main

from common import path_graph, unit_cycle, unit_path


@pytest.fixture
def cycle_file(tmp_path):
    f = tmp_path / "cycle.json"
    save_graph(unit_cycle(), f)
    return str(f)


@pytest.fixture
def path_file(tmp_path):
    f = tmp_path / "path.json"
    save_graph(unit_path(), f)
    return str(f)


def test_generate_writes_trajectory(cycle_file, tmp_path, capsys):
    out = str(tmp_path / "strategy.json")
    rc = main(["generate", "--graph", cycle_file, "--kind", "cycle",
               "--speed", "2.0", "--out", out])
    assert rc == 0
    text = capsys.readouterr().out
    assert "duration" in text
    doc = json.loads(open(out).read())
    assert doc["speed"] == 2.0


def test_generate_stdout_is_loadable(cycle_file, capsys):
    rc = main(["generate", "--graph", cycle_file, "--kind", "cycle",
               "--speed", "2.0"])
    assert rc == 0
    text = capsys.readouterr().out
    # strategy JSON object first, then the summary line
    doc = json.loads(text[:text.rindex("}") + 1])
    assert doc["breakpoints"][0]["t"] == 0.0


def test_generate_below_threshold_exits_2(cycle_file, capsys):
    rc = main(["generate", "--graph", cycle_file, "--kind", "cycle",
               "--speed", "1.0"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_verify_capture_roundtrip(path_file, tmp_path, capsys):
    strat = str(tmp_path / "s.json")
    report = str(tmp_path / "r.json")
    rc = main(["generate", "--graph", path_file, "--kind", "sweep",
               "--speed", "1.0", "--out", strat])
    assert rc == 0
    rc = main(["verify", "--graph", path_file, "--strategy", strat,
               "--resolution", "0.05", "--report", report])
    assert rc == 0
    assert "capture" in capsys.readouterr().out
    doc = json.loads(open(report).read())
    assert doc["verdict"] == "capture"
    assert set(doc["params"]) == {"h", "dt", "eps", "spacing", "tau",
                                  "steps", "samples"}


def test_verify_survival_writes_witness(cycle_file, tmp_path, capsys):
    strat = str(tmp_path / "s.json")
    wit = str(tmp_path / "w.json")
    rc = main(["generate", "--graph", cycle_file, "--kind", "sweep",
               "--speed", "1.0", "--out", strat])
    assert rc == 0
    rc = main(["verify", "--graph", cycle_file, "--strategy", strat,
               "--resolution", "0.05", "--witness", wit])
    assert rc == 3
    assert "survival" in capsys.readouterr().out
    g = unit_cycle()
    w = load_path(g, wit)
    assert w.speed_bound == 1.0


def test_verify_floor_violation_exits_4(path_file, tmp_path, capsys):
    strat = str(tmp_path / "s.json")
    main(["generate", "--graph", path_file, "--kind", "sweep",
          "--speed", "1.0", "--out", strat])
    rc = main(["verify", "--graph", path_file, "--strategy", strat,
               "--resolution", "0.1", "--dt", "0.1", "--eps", "0.05"])
    assert rc == 4
    assert "floor" in capsys.readouterr().err


def test_verify_non_finite_eps_exits_4(path_file, tmp_path, capsys):
    strat = str(tmp_path / "s.json")
    main(["generate", "--graph", path_file, "--kind", "sweep",
          "--speed", "1.0", "--out", strat])
    rc = main(["verify", "--graph", path_file, "--strategy", strat,
               "--eps", "nan"])
    assert rc == 4
    assert "finite" in capsys.readouterr().err


def test_missing_and_malformed_files_exit_2(tmp_path, capsys):
    rc = main(["generate", "--graph", str(tmp_path / "nope.json"),
               "--kind", "cycle", "--speed", "2.0"])
    assert rc == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    rc = main(["generate", "--graph", str(bad), "--kind", "cycle",
               "--speed", "2.0"])
    assert rc == 2
    bad.write_text(json.dumps({"vertices": ["a", "b"], "edges": [
        {"id": "e0", "from": "a", "to": "b", "length": "abc"}]}),
        encoding="utf-8")
    rc = main(["generate", "--graph", str(bad), "--kind", "sweep",
               "--speed", "2.0"])
    assert rc == 2
    capsys.readouterr()


def test_frontier_csv_stdout(cycle_file, capsys):
    rc = main(["frontier", "--graph", cycle_file, "--family", "cycle",
               "--speeds", "0.5,1.5", "--resolution", "0.05"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "s,verdict,time_bound,clearance,h,dt,eps"
    assert lines[1].startswith("0.5,survival")
    assert lines[2].startswith("1.5,capture")


def test_frontier_json_flag(cycle_file, capsys):
    rc = main(["frontier", "--graph", cycle_file, "--family", "cycle",
               "--speeds", "1.5", "--resolution", "0.05", "--json"])
    assert rc == 0
    docs = json.loads(capsys.readouterr().out)
    assert docs[0]["verdict"] == "capture"


def test_frontier_bad_speeds_exit_2(cycle_file, capsys):
    with pytest.raises(SystemExit) as e:
        main(["frontier", "--graph", cycle_file, "--family", "cycle",
              "--speeds", "1.5,abc"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["frontier", "--graph", cycle_file, "--family", "cycle",
              "--speeds", ","])
    assert e.value.code == 2
    capsys.readouterr()


def test_frontier_evidence_error_exits_2(cycle_file, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise EvidenceError("capture time increased with speed")

    monkeypatch.setattr(cli, "frontier_table", fail)
    rc = main(["frontier", "--graph", cycle_file, "--family", "cycle",
               "--speeds", "1.5"])
    assert rc == 2
    assert "capture time increased" in capsys.readouterr().err


def test_export_svg_deterministic(path_file, tmp_path, capsys):
    strat = str(tmp_path / "s.json")
    main(["generate", "--graph", path_file, "--kind", "sweep",
          "--speed", "1.0", "--out", strat])
    outs = []
    for name in ("a.svg", "b.svg"):
        out = str(tmp_path / name)
        rc = main(["export-svg", "--graph", path_file, "--strategy", strat,
                   "--eps", "0.1", "--out", out])
        assert rc == 0
        outs.append(open(out, "rb").read())
    assert outs[0] == outs[1]
    assert outs[0].startswith(b"<svg")
    capsys.readouterr()


def test_export_svg_with_witness(cycle_file, tmp_path, capsys):
    strat = str(tmp_path / "s.json")
    wit = str(tmp_path / "w.json")
    main(["generate", "--graph", cycle_file, "--kind", "sweep",
          "--speed", "1.0", "--out", strat])
    main(["verify", "--graph", cycle_file, "--strategy", strat,
          "--resolution", "0.05", "--witness", wit])
    out = str(tmp_path / "d.svg")
    rc = main(["export-svg", "--graph", cycle_file, "--strategy", strat,
               "--witness", wit, "--out", out])
    assert rc == 0
    assert "witness" in open(out).read()
    capsys.readouterr()


def test_selftest_passes(capsys):
    rc = main(["selftest", "--seed", "3", "--cases", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0 disagreements" in out
    assert "selftest ok" in out


def test_file_roundtrip_matches_in_memory(tmp_path, capsys):
    g = path_graph(2)
    gf = str(tmp_path / "g.json")
    sf = str(tmp_path / "s.json")
    save_graph(g, gf)
    cop = sweep_strategy(g, 1.5)
    save_path(cop, sf)
    direct = verify(cop, h=0.05)
    rc = main(["verify", "--graph", gf, "--strategy", sf,
               "--resolution", "0.05"])
    assert (rc == 0) == direct.captured
    out = capsys.readouterr().out
    assert f"{direct.time_bound:.6g}" in out


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2
