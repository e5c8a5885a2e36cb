import xml.etree.ElementTree as ET

import pytest

from graphchase import (PathBuilder, PathValidationError, build_graph,
                        export_svg, save_svg, sweep_strategy, verify)

from common import path_graph, unit_cycle, unit_path


def test_svg_is_wellformed_xml():
    g = path_graph(2)
    cop = sweep_strategy(g, 1.5)
    text = export_svg(cop, eps=0.1, title="demo & <check>")
    assert text.startswith("<svg")
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    assert "demo & <check>" in "".join(root.itertext())


def test_svg_has_band_per_edge_and_tube():
    g = path_graph(2)
    cop = sweep_strategy(g, 1.5)
    text = export_svg(cop, eps=0.1)
    for i in range(len(g.edges)):
        assert f'id="band{i}"' in text
    assert "#c23b22" in text
    assert 'fill-opacity="0.14"' in text


def test_svg_witness_overlay():
    g = unit_cycle()
    cop = PathBuilder(g, "a", 1.0).wait(2.0).build()
    res = verify(cop, h=0.05)
    text = export_svg(cop, witness=res.witness)
    assert "#2066a8" in text


@pytest.mark.parametrize("edge", [("a", "b", 1.0, "x"), ("a", "b", 5.0)],
                         ids=["other-id", "other-length"])
def test_svg_refuses_a_witness_from_another_graph(edge):
    # as min_clearance does: an unknown edge id, or a 5.0 edge that the
    # cop's 1.0 band would draw without complaint
    cop = sweep_strategy(unit_path(), 1.0)
    other = build_graph(["a", "b"], [edge])
    witness = PathBuilder(other, "b", 1.0).wait(1.0).build()
    with pytest.raises(PathValidationError, match="different graphs"):
        export_svg(cop, witness=witness)


def test_svg_deterministic_and_saved(tmp_path):
    g = path_graph(2)
    cop = sweep_strategy(g, 1.5)
    a = export_svg(cop, eps=0.1)
    b = export_svg(cop, eps=0.1)
    assert a == b
    f = tmp_path / "out.svg"
    save_svg(cop, f, eps=0.1)
    assert f.read_text(encoding="utf-8") == a


def test_svg_of_a_zero_duration_path():
    g = path_graph(2)
    cop = PathBuilder(g, "v0", 1.0).build()
    assert cop.duration == 0.0
    text = export_svg(cop, eps=0.1)
    assert ET.fromstring(text).tag.endswith("svg")
    assert ">t=1</text>" in text      # the time axis falls back to [0, 1]
