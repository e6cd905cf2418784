"""KITTI calibration/label/velodyne parsing, emission, and frame conversion."""

import numpy as np
import pytest

from nlcdet import (
    DegenerateCalib,
    Box3D,
    InvalidValue,
    KittiIOError,
    MalformedMatrix,
    MissingField,
    ParseError,
    ShapeError,
    TruncatedFile,
    normalize_angle,
    project_points,
)
from nlcdet.kitti_io import (
    DETECTION_RANGE,
    KittiCalib,
    downsample,
    emit_calib,
    emit_labels,
    filter_detection_range,
    label_to_lidar_box,
    lidar_box_to_label,
    parse_calib,
    parse_labels,
    read_velodyne,
    to_calibration,
    write_velodyne,
)

IDENTITY_CALIB_TEXT = (
    "P2: 1 0 0 0 0 1 0 0 0 0 1 0\n"
    "R0_rect: 1 0 0 0 1 0 0 0 1\n"
    "Tr_velo_to_cam: 1 0 0 0 0 1 0 0 0 0 1 0\n"
)

KITTI_2011_09_26_CALIB_TEXT = (
    "P2: 7.215377e+02 0.000000e+00 6.095593e+02 4.485728e+01 0.000000e+00 "
    "7.215377e+02 1.728540e+02 2.163791e-01 0.000000e+00 0.000000e+00 "
    "1.000000e+00 2.745884e-03\n"
    "R0_rect: 9.999239e-01 9.837760e-03 -7.445048e-03 -9.869795e-03 "
    "9.999421e-01 -4.278459e-03 7.402527e-03 4.351614e-03 9.999631e-01\n"
    "Tr_velo_to_cam: 7.533745e-03 -9.999714e-01 -6.166020e-04 -4.069766e-03 "
    "1.480249e-02 7.280733e-04 -9.998902e-01 -7.631618e-02 9.998621e-01 "
    "7.523790e-03 1.480755e-02 -2.717806e-01\n"
)


def kitti_like_calib():
    # plausible forward-camera geometry: LiDAR x -> camera z
    tr = np.array(
        [[0.0, -1.0, 0.0, 0.02], [0.0, 0.0, -1.0, -0.05], [1.0, 0.0, 0.0, -0.3]]
    )
    p2 = np.array(
        [[720.0, 0.0, 610.0, 45.0], [0.0, 720.0, 175.0, -0.3], [0.0, 0.0, 1.0, 0.004]]
    )
    return KittiCalib(P2=p2, R0_rect=np.eye(3), Tr_velo_to_cam=tr)


class TestCalibParsing:
    def test_identity_fixture(self):
        calib = parse_calib(IDENTITY_CALIB_TEXT)
        assert np.array_equal(calib.P2, np.hstack([np.eye(3), np.zeros((3, 1))]))
        assert np.array_equal(calib.R0_rect, np.eye(3))
        composed = to_calibration(calib)
        assert np.array_equal(composed.K, np.eye(3))
        assert np.array_equal(composed.T, np.zeros(3))

    def test_wrong_value_count(self):
        bad = IDENTITY_CALIB_TEXT.replace("P2: 1 0 0 0 0 1 0 0 0 0 1 0", "P2: " + "1 " * 11)
        with pytest.raises(MalformedMatrix):
            parse_calib(bad)

    def test_missing_key(self):
        text = "\n".join(IDENTITY_CALIB_TEXT.splitlines()[:2])
        with pytest.raises(MissingField) as exc:
            parse_calib(text)
        assert "Tr_velo_to_cam" in str(exc.value)

    def test_non_numeric_token(self):
        bad = IDENTITY_CALIB_TEXT.replace("R0_rect: 1", "R0_rect: abc")
        with pytest.raises(ParseError):
            parse_calib(bad)

    def test_unknown_keys_ignored(self):
        assert parse_calib("P0: 9 9\n" + IDENTITY_CALIB_TEXT + "junk line\n")

    def test_value_beyond_range_rejected(self):
        text = IDENTITY_CALIB_TEXT.replace("R0_rect: 1 0", "R0_rect: 1 1e200")
        with pytest.raises(ParseError) as exc:
            parse_calib(text)
        assert (exc.value.line, exc.value.column) == (2, 12)

    def test_emit_parse_round_trip(self, rng):
        for _ in range(50):
            calib = KittiCalib(
                P2=rng.normal(size=(3, 4)),
                R0_rect=rng.normal(size=(3, 3)),
                Tr_velo_to_cam=rng.normal(size=(3, 4)),
            )
            back = parse_calib(emit_calib(calib))
            assert np.array_equal(back.P2, calib.P2)
            assert np.array_equal(back.R0_rect, calib.R0_rect)
            assert np.array_equal(back.Tr_velo_to_cam, calib.Tr_velo_to_cam)

    def test_bytes_input_accepted(self):
        assert parse_calib(IDENTITY_CALIB_TEXT.encode())


CAR_LINE = "Car 0.00 0 -1.58 587 178 603 191 1.48 1.60 3.69 2.77 1.55 8.41 -1.56"


class TestCalibComposition:
    def test_non_pinhole_composition_rejected(self):
        lower = kitti_like_calib()
        lower.P2[1, 0] = 3.0
        stretched = kitti_like_calib()
        stretched.Tr_velo_to_cam[:, :3] *= 2.0
        # in range, but R0_rect @ Tr_velo_to_cam squares past the float range
        huge = kitti_like_calib()
        huge.R0_rect *= 1e100
        huge.Tr_velo_to_cam *= 1e100
        for calib in (lower, stretched, huge):
            with pytest.raises(DegenerateCalib):
                to_calibration(calib)

    def test_kitti_printed_rotation_replaced_by_nearest(self):
        # the 2011_09_26 drive's matrices, as KITTI prints them
        calib = parse_calib(KITTI_2011_09_26_CALIB_TEXT)
        product = calib.R0_rect @ calib.Tr_velo_to_cam[:, :3]
        assert np.abs(product @ product.T - np.eye(3)).max() > 1e-9
        R = to_calibration(calib).R
        assert np.abs(R @ R.T - np.eye(3)).max() < 1e-12
        assert np.linalg.det(R) > 0
        assert np.abs(R - product).max() < 1e-7

    def test_rotation_accepted_as_is_kept_bit_for_bit(self):
        c, s = np.cos(0.004), np.sin(0.004)
        calib = kitti_like_calib()
        calib.R0_rect = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
        for cal in (calib, kitti_like_calib()):
            R = to_calibration(cal).R
            assert np.array_equal(R, cal.R0_rect @ cal.Tr_velo_to_cam[:, :3])

    def test_label_lift_uses_the_projection_rotation(self):
        # KITTI's printed matrices: the lift must invert the rotation that
        # to_calibration projects with, not the raw 7-digit product
        calib = parse_calib(KITTI_2011_09_26_CALIB_TEXT)
        cal = to_calibration(calib)
        label = parse_labels(CAR_LINE)[0]
        box = label_to_lidar_box(label, calib)
        t = calib.R0_rect @ calib.Tr_velo_to_cam[:, 3]
        center_cam = np.array(label.location) - [0.0, label.h / 2.0, 0.0]
        assert np.abs(cal.R @ box.center + t - center_cam).max() < 1e-12
        hom = calib.P2 @ np.append(center_cam, 1.0)
        u, v, d = project_points(box.center, cal)
        assert np.abs([u[0] - hom[0] / hom[2], v[0] - hom[1] / hom[2], d[0] - hom[2]]).max() < 1e-9
        back = lidar_box_to_label(box, calib)
        assert np.abs(np.subtract(back.location, label.location)).max() < 1e-12

    def test_rotation_beyond_tolerance_rejected(self):
        off = parse_calib(KITTI_2011_09_26_CALIB_TEXT)
        off.R0_rect *= 1.0 + 1e-4
        mirrored = kitti_like_calib()
        mirrored.R0_rect = np.diag([1.0, 1.0, -1.0])
        for calib in (off, mirrored):
            with pytest.raises(DegenerateCalib, match="orthonormal"):
                to_calibration(calib)

    @pytest.mark.parametrize("r0_rect", [
        2.0 * np.eye(3),
        # demo 04's calibration with three entries mistyped: 3.1e-5 from orthonormal
        np.array([[0.9999239, 0.00983776, -0.007445048], [-0.0098698, 0.9999421, -0.004278459],
                  [0.007427903, 0.004320553, 0.9999631]]),
    ], ids=["scaled", "mistyped"])
    def test_label_functions_reject_what_the_projection_rejects(self, r0_rect):
        calib = parse_calib(KITTI_2011_09_26_CALIB_TEXT)
        calib.R0_rect = r0_rect
        box = Box3D(center=np.array([10.0, 1.0, 0.0]), l=4.0, w=1.6, h=1.5, yaw=0.3)
        for convert in (to_calibration, lambda c: label_to_lidar_box(parse_labels(CAR_LINE)[0], c),
                        lambda c: lidar_box_to_label(box, c)):
            with pytest.raises(DegenerateCalib, match="not a pinhole camera: R must be orthonormal"):
                convert(calib)

    def test_label_without_valid_box_rejected(self):
        label = parse_labels(CAR_LINE.replace(" 1.60 ", " -1.60 "))[0]
        with pytest.raises(KittiIOError, match="Car label gives no box"):
            label_to_lidar_box(label, kitti_like_calib())


class TestLabelParsing:
    def test_car_line(self):
        labels = parse_labels(CAR_LINE)
        assert len(labels) == 1
        lb = labels[0]
        assert lb.type == "Car"
        assert lb.h == 1.48
        assert lb.l == 3.69
        assert lb.location == (2.77, 1.55, 8.41)
        assert not lb.is_dont_care

    def test_car_line_emitted_text(self):
        assert emit_labels(parse_labels(CAR_LINE)) == (
            "Car 0.0 0 -1.58 587.0 178.0 603.0 191.0 1.48 1.6 3.69 2.77 1.55 8.41 -1.56\n"
        )

    def test_empty_file(self):
        assert parse_labels("") == []
        assert parse_labels("\n\n") == []

    def test_dont_care_flagged(self):
        line = "DontCare -1 -1 -10 100 150 200 250 -1 -1 -1 -1000 -1000 -1000 -10"
        labels = parse_labels(line)
        assert labels[0].is_dont_care

    def test_short_line_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_labels("Car 0.0 0")
        assert exc.value.line == 1

    def test_non_numeric_rejected(self):
        with pytest.raises(ParseError):
            parse_labels(CAR_LINE.replace("1.48", "???"))

    def test_non_finite_occlusion_rejected(self):
        with pytest.raises(ParseError):
            parse_labels(CAR_LINE.replace(" 0 -1.58", " inf -1.58"))

    @pytest.mark.parametrize("token", ["nan", "-inf", "1e101", "-2e300"])
    def test_value_beyond_range_rejected(self, token):
        line = CAR_LINE.replace(" 1.60 ", f" {token} ")
        with pytest.raises(ParseError) as exc:
            parse_labels(line)
        assert exc.value.column == line.index(token) + 1

    def test_emit_parse_round_trip(self, rng):
        for _ in range(100):
            labels = parse_labels(CAR_LINE)
            labels[0].truncated = float(rng.random())
            labels[0].location = tuple(float(x) for x in rng.normal(size=3))
            labels[0].rotation_y = float(rng.uniform(-np.pi, np.pi))
            text = emit_labels(labels)
            back = parse_labels(text)
            assert back == labels
            assert emit_labels(back) == text


class TestVelodyne:
    def test_two_point_payload(self):
        pts = np.array([[1, 2, 3, 0.5], [4, 5, 6, 0.25]], dtype=np.float32)
        data = write_velodyne(pts)
        assert len(data) == 32
        assert np.array_equal(read_velodyne(data), pts)

    def test_empty_payload(self):
        assert read_velodyne(b"").shape == (0, 4)

    def test_round_trip_bit_exact(self, rng):
        pts = rng.normal(size=(500, 4)).astype(np.float32)
        assert np.array_equal(read_velodyne(write_velodyne(pts)), pts)
        assert write_velodyne(read_velodyne(write_velodyne(pts))) == write_velodyne(pts)

    @pytest.mark.parametrize("shape", [(4, 3), (3, 5), (12,), (2, 2, 4), ()])
    def test_write_takes_only_n_by_4(self, shape):
        with pytest.raises(InvalidValue, match=r"\(N, 4\)"):
            write_velodyne(np.zeros(shape, dtype=np.float32))

    def test_truncated_payload(self):
        with pytest.raises(TruncatedFile):
            read_velodyne(b"\x00" * 17)
        with pytest.raises(TruncatedFile, match="must be bytes"):
            read_velodyne("\x00" * 16)


class TestFrameConversion:
    def test_identity_calibration_lift(self):
        calib = parse_calib(IDENTITY_CALIB_TEXT)
        label = parse_labels(
            "Car 0 0 0 0 0 0 0 2.0 1.6 4.0 0.0 0.0 10.0 0.0"
        )[0]
        box = label_to_lidar_box(label, calib)
        # camera y points down, so the center sits h/2 above the bottom
        assert np.allclose(box.center, [0.0, -1.0, 10.0])
        assert (box.l, box.w, box.h) == (4.0, 1.6, 2.0)

    def test_round_trip_random_boxes(self, rng):
        calib = kitti_like_calib()
        for _ in range(100):
            box = Box3D(
                center=np.array([rng.uniform(5, 60), rng.uniform(-20, 20), rng.uniform(-2, 1)]),
                l=rng.uniform(3, 5), w=rng.uniform(1.4, 2), h=rng.uniform(1.2, 2),
                yaw=rng.uniform(-np.pi, np.pi),
            )
            back = label_to_lidar_box(lidar_box_to_label(box, calib), calib)
            assert np.max(np.abs(back.center - box.center)) < 1e-9
            assert abs(back.l - box.l) < 1e-9
            assert abs(back.w - box.w) < 1e-9
            assert abs(back.h - box.h) < 1e-9
            assert abs(normalize_angle(back.yaw - box.yaw)) < 1e-9

    def test_numpy_scalar_sizes_round_trip(self):
        calib = parse_calib(KITTI_2011_09_26_CALIB_TEXT)
        box = Box3D(center=np.array([10.0, 1.0, 0.0]), l=np.float64(4.0), w=np.float64(1.6),
                    h=np.float64(1.5), yaw=0.3)
        label = lidar_box_to_label(box, calib)
        text = emit_labels([label])
        assert parse_labels(text) == [label]
        assert emit_labels(parse_labels(text)) == text

    def test_dont_care_rejected(self):
        calib = kitti_like_calib()
        label = parse_labels(
            "DontCare -1 -1 -10 0 0 0 0 -1 -1 -1 -1000 -1000 -1000 -10"
        )[0]
        with pytest.raises(ValueError):
            label_to_lidar_box(label, calib)

    def test_corners_project_into_bbox(self, rng):
        from nlcdet import box_corners

        calib = kitti_like_calib()
        composed = to_calibration(calib)
        for _ in range(20):
            box = Box3D(
                center=np.array([rng.uniform(15, 40), rng.uniform(-5, 5), rng.uniform(-1.5, 0)]),
                l=4.0, w=1.8, h=1.5, yaw=rng.uniform(-np.pi, np.pi),
            )
            label = lidar_box_to_label(box, calib)
            u, v, d = project_points(box_corners(box), composed)
            assert np.all(d > 0)
            label.bbox2d = (u.min(), v.min(), u.max(), v.max())
            # converting back must land the corners inside the recorded bbox
            back = label_to_lidar_box(label, calib)
            ub, vb, _ = project_points(box_corners(back), composed)
            x1, y1, x2, y2 = label.bbox2d
            assert np.all(ub >= x1 - 2.0) and np.all(ub <= x2 + 2.0)
            assert np.all(vb >= y1 - 2.0) and np.all(vb <= y2 + 2.0)


class TestRangeAndDownsample:
    def test_boundary_points_kept(self):
        pts = np.array([[70.4, 40.0, 1.0, 0.5], [0.0, -40.0, -3.0, 0.1]])
        assert len(filter_detection_range(pts)) == 2

    def test_outside_dropped_order_preserved(self):
        pts = np.array(
            [[1, 0, 0, 0], [80, 0, 0, 0], [2, 0, 0, 0], [-1, 0, 0, 0], [3, 41, 0, 0]]
        )
        kept = filter_detection_range(pts)
        assert np.array_equal(kept[:, 0], [1, 2])

    def test_range_constant(self):
        assert DETECTION_RANGE == ((0.0, 70.4), (-40.0, 40.0), (-3.0, 1.0))

    def test_random_downsample(self, rng):
        pts = rng.normal(size=(1000, 4))
        out = downsample(pts, 100, seed=7)
        assert out.shape == (100, 4)
        assert np.array_equal(out, downsample(pts, 100, seed=7))
        # every output row is an input row
        rows = {tuple(r) for r in pts}
        assert all(tuple(r) in rows for r in out)

    def test_under_budget_returns_copy(self, rng):
        pts = rng.normal(size=(10, 4))
        out = downsample(pts, 100, seed=0)
        assert np.array_equal(out, pts)
        out[0, 0] = 99.0
        assert pts[0, 0] != 99.0

    def test_fps_spreads_points(self, rng):
        # a dense cluster plus two isolated points: fps must pick the outliers
        cluster = rng.normal(0, 0.01, size=(50, 3))
        far = np.array([[100.0, 0, 0], [-100.0, 0, 0]])
        pts = np.vstack([cluster, far])
        out = downsample(pts, 3, seed=0, strategy="fps")
        assert {100.0, -100.0} <= set(np.round(out[:, 0], 6))

    def test_bad_budget_and_strategy(self, rng):
        pts = rng.normal(size=(10, 4))
        with pytest.raises(ValueError):
            downsample(pts, 0, seed=0)
        with pytest.raises(ValueError):
            downsample(pts, 5, seed=0, strategy="bogus")

    @pytest.mark.parametrize("points", [np.ones(4), np.ones((5, 2)), np.ones((2, 3, 4))],
                             ids=["1d", "2_columns", "3d"])
    def test_points_of_another_shape_rejected(self, points):
        with pytest.raises(ShapeError, match=r"points must be \(N, >=3\)"):
            filter_detection_range(points)
        for strategy in ("random", "fps"):
            with pytest.raises(ShapeError, match=r"points must be \(N, >=3\)"):
                downsample(np.repeat(points, 4, axis=0), 1, seed=0, strategy=strategy)

    @pytest.mark.parametrize("budget, seed, field", [
        (True, 0, "budget"), (2.5, 0, "budget"), (float("nan"), 0, "budget"), ("3", 0, "budget"),
        (3, -1, "seed"), (3, 1.0, "seed"), (3, False, "seed"),
    ])
    def test_budget_and_seed_that_are_not_integers_rejected(self, rng, budget, seed, field):
        with pytest.raises(InvalidValue, match=field):
            downsample(rng.normal(size=(10, 4)), budget, seed)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -1e300])
    def test_fps_of_a_coordinate_it_cannot_measure_rejected(self, rng, value):
        pts = rng.normal(size=(10, 4))
        pts[3, 1] = value
        with pytest.raises(InvalidValue, match="point coordinates"):
            downsample(pts, 5, seed=0, strategy="fps")
        pts[3, 3] = value  # reflectance is not measured
        pts[3, 1] = 0.0
        assert downsample(pts, 5, seed=0, strategy="fps").shape == (5, 4)

    @pytest.mark.parametrize("points, shape", [
        (np.zeros(0), (0, 4)), (np.zeros((0, 3)), (0, 3)), (np.zeros((0, 2)), (0, 2)),
    ])
    def test_empty_points_kept_as_before(self, points, shape):
        assert filter_detection_range(points).shape == shape
        assert downsample(points, 3, seed=0).shape == points.shape


class TestTotality:
    def test_arbitrary_bytes_never_crash(self, rng):
        for _ in range(2000):
            blob = rng.bytes(int(rng.integers(0, 120)))
            for parser in (parse_calib, parse_labels, read_velodyne):
                try:
                    parser(blob)
                except KittiIOError:
                    pass

    def test_adversarial_text_never_crashes(self):
        cases = [
            "P2:", "P2: " + "nan " * 12, ":", "a: b: c", "\x00\xff",
            "Car " + "1e999 " * 14, "Car " + "-inf " * 14,
            "P2: 1 0 0 0 0 1 0 0 0 0 1 0\nR0_rect: x",
        ]
        for text in cases:
            for parser in (parse_calib, parse_labels):
                try:
                    parser(text)
                except KittiIOError:
                    pass


class TestErrorColumns:
    """A ParseError's column points at the bad token, not at an earlier substring match."""

    @pytest.mark.parametrize("parser, text, line, column, token", [
        (parse_labels, "Car 0 0 0 a 1 1 1 1 1 1 1 1 1 1", 1, 11, "a"),
        (parse_labels, CAR_LINE + "\n\n  " + CAR_LINE.replace(" ", "\t", 1)[:-5] + "C", 3, 66, "C"),
        (parse_labels, CAR_LINE.replace("Car", "Van")[:-5] + "an", 1, 64, "an"),
        (parse_labels, CAR_LINE.replace(" 0 ", " 1.5 ", 1), 1, 10, "1.5"),
        (parse_calib, "P2: 1 0 0 0 0 1 0 0 0 0 1 P", 1, 27, "P"),
        (parse_calib, IDENTITY_CALIB_TEXT.replace("R0_rect: 1 0 0 0 1", "R0_rect: 1 0 0 0 R0"),
         2, 18, "R0"),
    ])
    def test_column_points_at_bad_token(self, parser, text, line, column, token):
        with pytest.raises(ParseError) as exc:
            parser(text)
        assert (exc.value.line, exc.value.column) == (line, column)
        assert text.splitlines()[line - 1][column - 1:].split()[0] == token

    def test_tokens_are_those_of_str_split(self, rng):
        from nlcdet.kitti_io import _tokens

        alphabet = np.array(list("ab1. \t\x0b\x0c\x1c\x1f\x85\xa0:"))
        for _ in range(500):
            line = "".join(rng.choice(alphabet, size=int(rng.integers(0, 30))))
            tokens = _tokens(line)
            assert [tok for _, tok in tokens] == line.split()
            assert all(line[col - 1:].startswith(tok) for col, tok in tokens)
