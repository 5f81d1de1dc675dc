import json

import numpy as np
import pytest

from oedipus import pattern_from_groups
from oedipus.io import (
    mask_to_rle,
    pattern_from_json,
    pattern_to_json,
    read_oedm,
    rle_to_mask,
    write_oedm,
    write_pgm,
)

from conftest import make_model


def test_oedm_roundtrip(tmp_path, rng):
    data = rng.standard_normal((2, 3, 4, 5)) + 1j * rng.standard_normal((2, 3, 4, 5))
    path = tmp_path / "maps.oedm"
    write_oedm(path, data)
    back = read_oedm(path)
    assert np.array_equal(back, data)
    raw = path.read_bytes()
    assert raw[:4] == b"OEDM"
    # header: magic + 4 uint32, then float64 planes
    assert len(raw) == 20 + 2 * 3 * 4 * 5 * 16
    # plane (t, c) is its real part, then its imaginary part
    plane = 4 * 5 * 8
    second = 20 + 2 * plane
    assert raw[second : second + plane] == data[0, 1].real.astype("<f8").tobytes()
    assert raw[second + plane : second + 2 * plane] == data[0, 1].imag.astype("<f8").tobytes()


def test_oedm_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.oedm"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError):
        read_oedm(path)


def test_oedm_rejects_truncated_body(tmp_path, rng):
    path = tmp_path / "short.oedm"
    write_oedm(path, rng.standard_normal((2, 3, 4, 5)) + 0j)
    raw = path.read_bytes()
    for cut in (raw[:-8], raw[:12]):
        path.write_bytes(cut)
        with pytest.raises(ValueError, match="short.oedm"):
            read_oedm(path)


def test_pgm_format(tmp_path):
    img = np.zeros((2, 3))
    img[0, 0] = 1.0
    img[1, 2] = 0.5
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n3 2\n255\n")
    pix = np.frombuffer(raw[len(b"P5\n3 2\n255\n") :], dtype=np.uint8).reshape(2, 3)
    assert pix[0, 0] == 255
    assert pix[1, 2] == 128


def test_rle_roundtrip(rng):
    for _ in range(20):
        mask = rng.random((6, 7)) > 0.6
        runs = mask_to_rle(mask)
        assert sum(runs) == mask.size
        assert all(r > 0 for r in runs[1:])
        assert np.array_equal(rle_to_mask(runs, mask.shape), mask)
    all_on = np.ones((3, 3), dtype=bool)
    assert mask_to_rle(all_on) == [0, 9]
    assert mask_to_rle(np.zeros((2, 5), dtype=bool)) == [10]
    first_on = np.array([[True, False], [False, True]])
    assert mask_to_rle(first_on) == [0, 1, 2, 1]
    assert np.array_equal(rle_to_mask([0, 1, 2, 1], (2, 2)), first_on)
    assert mask_to_rle(np.ones((1, 1), dtype=bool)) == [0, 1]
    assert mask_to_rle(np.zeros((1, 1), dtype=bool)) == [1]
    assert all(type(r) is int for r in mask_to_rle(first_on))
    for runs, shape in (([0, 5], (3, 3)), ([1, 2, -2, 3], (4,)), ([3, -1, 2], (4,))):
        with pytest.raises(ValueError):
            rle_to_mask(runs, shape)


def test_pattern_json_roundtrip():
    model = make_model((4, 6), undersample_axes=(1,))
    pattern = pattern_from_groups(
        model.candidates, [0, 2, 5], mode="uniform/R2", log=[1.5, 2.5]
    )
    text = pattern_to_json(pattern)
    back = pattern_from_json(text, model.candidates)
    assert back.kept_groups == pattern.kept_groups
    assert back.mode == pattern.mode
    assert back.log == pattern.log
    assert np.array_equal(back.mask, pattern.mask)
    # byte-stable serialization
    assert pattern_to_json(back) == text
    other = make_model((8, 8)).candidates
    with pytest.raises(ValueError):
        pattern_from_json(text, other)
    # a negative run that steps back and rewrites the same cell
    doc = json.loads(text)
    doc["mask"] = doc["mask"][:2] + [-1, 1] + doc["mask"][2:]
    with pytest.raises(ValueError):
        pattern_from_json(json.dumps(doc), model.candidates)

