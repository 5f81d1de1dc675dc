import numpy as np
import pytest

from oedipus import (
    ImageGrid,
    PhantomSpec,
    TransformSpec,
    default_phantom_spec,
    extract_support,
    render_phantom,
)
from oedipus.phantoms import Ellipse


def test_deterministic_rendering():
    grid = ImageGrid((64, 64), (200.0, 200.0))
    a = render_phantom(default_phantom_spec(grid, 3))
    b = render_phantom(default_phantom_spec(grid, 3))
    assert np.array_equal(a, b)
    c = render_phantom(default_phantom_spec(grid, 4))
    assert not np.array_equal(a, c)


def test_magnitude_bounded():
    grid = ImageGrid((64, 64), (200.0, 200.0))
    img = render_phantom(default_phantom_spec(grid, 0))
    mag = np.abs(img)
    assert mag.max() <= 1.0 + 1e-12
    assert mag.min() >= 0.0
    assert mag.max() > 0.5  # nontrivial content


def test_single_centered_ellipse_symmetry():
    grid = ImageGrid((32, 32), (100.0, 100.0))
    spec = PhantomSpec(
        grid=grid,
        ellipses=(Ellipse((0.0, 0.0), (0.3, 0.2), 0.0, 0.8),),
        texture=0.0,
        jitter=0.0,
    )
    img = np.abs(render_phantom(spec)).reshape(32, 32)
    assert np.count_nonzero(img > 0.4) > 0
    # 180-degree rotation about the grid centre leaves it unchanged
    assert np.allclose(img, img[::-1, ::-1], atol=1e-14)


def test_phase_is_smooth_and_nontrivial():
    grid = ImageGrid((64, 64), (200.0, 200.0))
    img = render_phantom(default_phantom_spec(grid, 0)).reshape(64, 64)
    interior = np.abs(img) > 0.1
    phases = np.angle(img[interior])
    assert phases.std() > 0.05


def test_support_overlap_between_seeds():
    grid = ImageGrid((64, 64), (200.0, 200.0))
    spec = TransformSpec("daub4", 3)
    sup = []
    for seed in (0, 1):
        img = render_phantom(default_phantom_spec(grid, seed)).reshape(64, 64)
        sup.append(set(extract_support(img, spec, 0.15).indices.tolist()))
    jaccard = len(sup[0] & sup[1]) / len(sup[0] | sup[1])
    assert jaccard >= 0.7


def test_spec_validation():
    grid = ImageGrid((16, 16), (50.0, 50.0))
    with pytest.raises(ValueError):
        PhantomSpec(grid=grid, ellipses=())
    with pytest.raises(ValueError):
        PhantomSpec(grid=grid, jitter=-1.0)
