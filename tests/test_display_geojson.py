"""GeoJSON export tests."""

import json

import pytest

from repro.display.geojson import export_geojson
from repro.geo.sites import UML_NORTH_CAMPUS, uml_plane
from repro.geometry.point import Point
from repro.localization import MLoc
from repro.net80211.mac import MacAddress


@pytest.fixture
def plane():
    return uml_plane()


class TestGeoJsonExport:
    def test_ap_features(self, plane, square_db):
        collection = export_geojson(plane, database=square_db)
        assert collection["type"] == "FeatureCollection"
        aps = [f for f in collection["features"]
               if f["properties"]["kind"] == "access_point"]
        assert len(aps) == 4
        for feature in aps:
            lon, lat = feature["geometry"]["coordinates"]
            # Within ~1 km of the UML origin.
            assert abs(lat - UML_NORTH_CAMPUS.latitude_deg) < 0.02
            assert abs(lon - UML_NORTH_CAMPUS.longitude_deg) < 0.02
            assert feature["properties"]["max_range_m"] == 80.0

    def test_estimate_features(self, plane, square_db):
        mobile = MacAddress(0xABC)
        estimate = MLoc(square_db).locate(square_db.bssids)
        collection = export_geojson(plane,
                                    estimates={mobile: estimate})
        features = collection["features"]
        assert len(features) == 1
        properties = features[0]["properties"]
        assert properties["kind"] == "estimate"
        assert properties["algorithm"] == "m-loc"
        assert properties["used_ap_count"] == 4
        assert properties["region_area_m2"] > 0

    def test_none_estimates_skipped(self, plane):
        collection = export_geojson(plane,
                                    estimates={MacAddress(1): None})
        assert collection["features"] == []

    def test_truth_features(self, plane):
        collection = export_geojson(
            plane, truths=[(MacAddress(1), Point(10.0, 20.0))])
        assert collection["features"][0]["properties"]["kind"] == "truth"

    def test_writes_valid_json_file(self, plane, square_db, tmp_path):
        path = tmp_path / "map.geojson"
        export_geojson(plane, database=square_db, output_path=path)
        parsed = json.loads(path.read_text())
        assert parsed["type"] == "FeatureCollection"
        assert len(parsed["features"]) == 4

    def test_position_roundtrip_accuracy(self, plane, square_db):
        """Exported coordinates project back to the planar original."""
        collection = export_geojson(plane, database=square_db)
        from repro.geo.wgs84 import GeodeticCoordinate

        for feature, record in zip(collection["features"], square_db):
            lon, lat = feature["geometry"]["coordinates"]
            recovered = plane.to_point(GeodeticCoordinate(lat, lon))
            # 7 decimal places of lat/lon ≈ centimeter precision.
            assert recovered.distance_to(record.location) < 0.1


class TestStreamingWriter:
    def test_sniffer_streams_to_capture_file(self, tmp_path):
        import numpy as np

        from repro.capture import make_capture_writer, open_capture
        from repro.geometry.point import Point
        from repro.net80211.frames import probe_request
        from repro.net80211.medium import Medium
        from repro.radio.propagation import FreeSpaceModel
        from repro.sniffer.receiver import build_marauder_sniffer

        path = tmp_path / "live.jsonl"
        medium = Medium(FreeSpaceModel())
        sniffer = build_marauder_sniffer(Point(0, 0), medium)
        rng = np.random.default_rng(0)
        with make_capture_writer(path, format="jsonl") as writer:
            sniffer.attach_writer(writer)
            for i in range(5):
                frame = probe_request(MacAddress(0x111), channel=6,
                                      timestamp=float(i))
                sniffer.hear(frame, Point(100, 0), rng)
            sniffer.detach_writer()
            # After detaching, captures stop flowing to the file.
            sniffer.hear(probe_request(MacAddress(0x111), channel=6,
                                       timestamp=99.0),
                         Point(100, 0), rng)
        records = list(open_capture(path))
        assert len(records) == 5
        assert all(r.frame.channel == 6 for r in records)
