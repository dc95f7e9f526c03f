"""Tests for SVG/CSV emission of the region geometry."""

import json
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cohertk.monotones import RegionGeometry, Segment, planar_example_volumes
from cohertk.plotting import boundary_csv, figure_regions, svg_figure
from cohertk.states import QubitBloch

SVG_NS = "{http://www.w3.org/2000/svg}"


def parse_svg(text):
    root = ET.fromstring(text)
    assert root.tag == f"{SVG_NS}svg"
    paths = {p.get("id"): p for p in root.findall(f"{SVG_NS}path")}
    metadata = json.loads(root.find(f"{SVG_NS}metadata").text)
    return root, paths, metadata


# ---------------------------------------------------------------------------
# figure_regions catalog


def test_figure_regions_catalog():
    qubit = figure_regions("qubit-sio", QubitBloch(0.5, 0.0, 0.3))
    assert set(qubit) == {"accessible", "source"}
    assert all(geo.measure == "bloch-halfplane" for geo in qubit.values())

    pio = figure_regions("qubit-pio", QubitBloch(0.3, 0.0, 0.2))
    assert all(geo.measure == "bloch-halfplane" for geo in pio.values())
    # the PIO accessible region differs from the SIO one at equal input
    sio_same = figure_regions("qubit-sio", QubitBloch(0.3, 0.0, 0.2))
    assert pio["accessible"].area() != sio_same["accessible"].area()

    qutrit = figure_regions("qutrit", (0.5, 0.3, 0.2))
    assert all(geo.measure == "coordinate-plane" for geo in qutrit.values())

    two = figure_regions("two-level", (0.6, 0.4))
    assert all(geo.measure == "sorted-representative"
               for geo in two.values())
    assert all(geo.dimension == 1 for geo in two.values())

    with pytest.raises(ValueError, match="unknown figure"):
        figure_regions("qudit", (0.5, 0.5))


# ---------------------------------------------------------------------------
# SVG emission


def test_svg_structure_and_metadata():
    regions = figure_regions("qutrit", (0.5, 0.3, 0.2))
    text = svg_figure("qutrit", regions, {"note": 1 / 3})
    root, paths, metadata = parse_svg(text)

    assert set(paths) == {"domain", "accessible", "source"}
    assert metadata["figure"] == "qutrit"
    assert metadata["measure"] == "coordinate-plane"
    assert metadata["note"] == 0.333333333333
    va, vs, _, _ = planar_example_volumes((0.5, 0.3, 0.2))
    assert_allclose(metadata["accessible_area"], va, atol=1e-12)
    assert_allclose(metadata["source_area"], vs, atol=1e-12)
    assert_allclose(metadata["accessible_area"], 0.08, atol=1e-12)
    assert_allclose(metadata["source_area"], 0.275, atol=1e-12)

    # two-dimensional regions are closed, filled paths
    for kind, color in (("accessible", "#2f6fb4"), ("source", "#c35039")):
        path = paths[kind]
        assert path.get("fill") == color
        assert path.get("d").startswith("M ")
        assert path.get("d").endswith("Z")
    assert paths["domain"].get("fill") == "none"

    # documents are byte-stable across calls
    again = svg_figure("qutrit", figure_regions("qutrit", (0.5, 0.3, 0.2)),
                       {"note": 1 / 3})
    assert again == text


def test_svg_qubit_figure_uses_arcs():
    regions = figure_regions("qubit-sio", QubitBloch(0.5, 0.0, 0.3))
    text = svg_figure("qubit-sio", regions, {})
    root, paths, metadata = parse_svg(text)
    assert metadata["measure"] == "bloch-halfplane"
    assert_allclose(metadata["accessible_area"],
                    regions["accessible"].area(), rtol=1e-11)
    # curved region boundaries come out as SVG elliptical-arc commands
    assert " A " in paths["accessible"].get("d")
    width, height = int(root.get("width")), int(root.get("height"))
    assert root.get("viewBox") == f"0 0 {width} {height}"


def test_svg_one_dimensional_regions_are_stroked_open_paths():
    regions = figure_regions("two-level", (0.6, 0.4))
    text = svg_figure("two-level", regions, {})
    _, paths, metadata = parse_svg(text)
    for kind in ("accessible", "source"):
        assert paths[kind].get("fill") == "none"
        assert not paths[kind].get("d").endswith("Z")
    assert_allclose(metadata["accessible_area"]
                    + metadata["source_area"],
                    regions["accessible"].area()
                    + regions["source"].area(), rtol=1e-11)


def test_svg_input_validation():
    qubit = figure_regions("qubit-sio", QubitBloch(0.5, 0.0, 0.3))
    planar = figure_regions("qutrit", (0.5, 0.3, 0.2))
    with pytest.raises(ValueError, match="share a measure"):
        svg_figure("mixed", {"accessible": qubit["accessible"],
                             "source": planar["source"]}, {})
    bogus = RegionGeometry(
        measure="torus", kind="accessible", dimension=2,
        components=((Segment((0.0, 0.0), (1.0, 0.0)),
                     Segment((1.0, 0.0), (0.0, 0.0))),))
    with pytest.raises(ValueError, match="no drawing window"):
        svg_figure("x", {"accessible": bogus}, {})


@pytest.mark.parametrize("loop, error, message", [
    ((Segment((0.0, 0.0), (1.0, 0.0)), Segment((0.5, 0.5), (0.0, 0.0))),
     ValueError, "not connected"),
    ((Segment((0.0, 0.0), (1.0, 0.0)), Segment((1.0, 0.0), (0.0, 1.0))),
     ValueError, "does not close"),
    # svg_figure values the region's area before it writes the path
    ((SimpleNamespace(start=(0.0, 0.0), end=(0.0, 0.0),
                      green_term=lambda: 0.0),),
     TypeError, "unknown boundary piece SimpleNamespace"),
], ids=["disconnected", "open-loop", "unknown-piece"])
def test_svg_rejects_broken_boundaries(loop, error, message):
    geo = RegionGeometry(measure="coordinate-plane", kind="accessible",
                         dimension=2, components=(loop,))
    with pytest.raises(error, match=message):
        svg_figure("qutrit", {"accessible": geo}, {})


@pytest.mark.parametrize("figure, subject, domain", [
    ("qubit-sio", QubitBloch(0.5, 0.0, 0.3),
     "M 240 11.4285714286 A 228.571428571 228.571428571 0 0 0 "
     "240 468.571428571 A 228.571428571 228.571428571 0 0 0 "
     "240 11.4285714286 Z"),
    # the path writer closes a polygon with an explicit segment to its start
    ("qutrit", (0.5, 0.3, 0.2),
     "M 21.8181818182 458.181818182 L 458.181818182 458.181818182 "
     "L 21.8181818182 21.8181818182 L 21.8181818182 458.181818182 Z"),
    ("two-level", (0.7, 0.3), "M 240 240 L 458.181818182 458.181818182"),
], ids=["bloch-halfplane", "coordinate-plane", "sorted-representative"])
def test_svg_domain_paths_are_pinned(figure, subject, domain):
    text = svg_figure(figure, figure_regions(figure, subject), {})
    assert parse_svg(text)[1]["domain"].get("d") == domain


# ---------------------------------------------------------------------------
# CSV emission


def test_boundary_csv_layout():
    regions = figure_regions("qubit-sio", QubitBloch(0.5, 0.0, 0.3))
    text = boundary_csv(regions, per_piece=16)
    lines = text.strip().split("\n")
    assert lines[0] == "region,component,x,y"

    expected_rows = sum(16 * len(loop)
                        for geo in regions.values()
                        for loop in geo.components)
    assert len(lines) - 1 == expected_rows

    kinds = []
    for line in lines[1:]:
        kind, component, x, y = line.split(",")
        kinds.append(kind)
        int(component)
        # world coordinates stay inside the Bloch-disc window
        assert -1.05 <= float(x) <= 1.05
        assert -1.05 <= float(y) <= 1.05
    assert set(kinds) == {"accessible", "source"}
    # regions appear in sorted order, grouped
    assert kinds == sorted(kinds)


@pytest.mark.parametrize("figure", ["qubit-sio", "qubit-pio"])
def test_qubit_csv_has_no_negative_zero(figure):
    # at z = 0 the turned halves and the lower heights are -0.0 in floats
    for x in (0.0, 0.5, -0.3, 1.0):
        text = boundary_csv(figure_regions(figure, QubitBloch(x, 0.0, 0.0)))
        fields = [field for line in text.split("\n") for field in line.split(",")]
        assert "-0" not in fields and "0" in fields, x


# ---------------------------------------------------------------------------
# symmetry of the qubit regions


#: Bloch vectors through every branch of the qubit boundaries, each with
#: the number of loops of the PIO source region: the z axis (the full
#: disc), the cap (k = (1 - |z|)/t >= 1, two loops), the sliver (k < 1,
#: four loops), a pure state and a vector off the x-z plane.
SYMMETRY_CASES = {
    "centre": ((0.0, 0.0, 0.0), 1),
    "z-axis": ((0.0, 0.0, 0.5), 1),
    "equator": ((0.7, 0.0, 0.0), 2),
    "cap": ((0.3, 0.0, 0.4), 2),
    "cap-below": ((0.5, 0.0, -0.2), 2),
    "sliver": ((0.8, 0.0, 0.4), 4),
    "sliver-below": ((0.6, 0.0, -0.6), 4),
    "sliver-thin": ((0.3, 0.0, 0.85), 4),
    "pure": ((0.6, 0.0, 0.8), 0),
    "off-plane": ((0.3, 0.4, -0.5), 2),
}


@pytest.mark.parametrize("name", sorted(SYMMETRY_CASES))
@pytest.mark.parametrize("figure", ["qubit-sio", "qubit-pio"])
def test_qubit_region_boundaries_are_symmetric(figure, name):
    # every region is mirror symmetric in x and in z, however its halves
    # are built, so each sampled boundary point has a mirror image among
    # the samples of the same region
    bloch, pio_source_loops = SYMMETRY_CASES[name]
    regions = figure_regions(figure, QubitBloch(*bloch))
    if figure == "qubit-pio":
        assert len(regions["source"].components) == pio_source_loops
    svg_figure(figure, regions, {})  # every loop connects and closes
    rows = [line.split(",") for line in
            boundary_csv(regions).strip().split("\n")[1:]]
    for kind in ("accessible", "source"):
        points = np.array([(float(x), float(y)) for region, _, x, y in rows
                           if region == kind]).reshape(-1, 2)
        for mirror in ((-1.0, 1.0), (1.0, -1.0)):
            gaps = np.linalg.norm(points[:, None] - (points * mirror)[None],
                                  axis=2)
            assert (gaps.min(axis=1, initial=np.inf) <= 1e-9).all(), (
                kind, mirror)
