"""Shared synthetic survey fixtures.

A 30 x 30 grid of 10 m cells (300 m x 300 m) with five habitat classes. The
meadow class (code 5) forms a connected blob, D1; everything else is D2.
Nine campaigns: 1-5 observed on D2, 6-7 on D1, 8-9 on the full domain D, with
per-campaign point totals matching a real multi-campaign survey's shape
(a few hundred to ~1300 points outside the meadow, tens inside).
"""

import numpy as np
import pytest

from gridcox.geodata import (
    CovariateStack,
    PointPattern,
    RasterGrid,
    campaign_masks,
    habitat_domains,
)
from test_geodata import contains_points

LEGEND = {1: "Sandy", 2: "Hard Bottom", 3: "Dead Matte", 4: "Transplanted", 5: "P. oceanica"}
CAMPAIGN_DOMAIN = {1: "D2", 2: "D2", 3: "D2", 4: "D2", 5: "D2", 6: "D1", 7: "D1", 8: "D", 9: "D"}
CAMPAIGN_COUNTS = {1: 930, 2: 1252, 3: 910, 4: 772, 5: 650, 6: 110, 7: 88, 8: 252, 9: 244}


def _habitat_values(rng):
    vals = np.ones((30, 30))
    # meadow blob in the north-east quadrant
    rr, cc = np.mgrid[0:30, 0:30]
    blob = (rr - 20) ** 2 + (cc - 21) ** 2 < 45
    vals[blob] = 5
    # bands of the other classes in the south-west
    vals[(rr < 12) & (cc < 10)] = 2
    vals[(rr < 8) & (cc >= 14) & (cc < 22) & ~blob] = 3
    vals[(rr >= 14) & (rr < 18) & (cc < 6)] = 4
    # sprinkle some hard bottom through the middle
    noise = rng.random((30, 30)) < 0.08
    vals[noise & ~blob] = 2
    return vals


@pytest.fixture(scope="session")
def habitat():
    rng = np.random.default_rng(2024)
    return RasterGrid(0.0, 0.0, 10.0, 10.0, _habitat_values(rng), kind="categorical", legend=LEGEND)


@pytest.fixture(scope="session")
def domains(habitat):
    return habitat_domains(habitat, "P. oceanica")


@pytest.fixture(scope="session")
def stack(habitat):
    rng = np.random.default_rng(99)
    cx = np.linspace(0, 1, 30)
    depth = 5.0 + 20.0 * cx[None, :] + rng.normal(0, 0.5, (30, 30))
    slope = np.abs(np.gradient(depth, axis=1))
    return CovariateStack(
        grid=habitat,
        continuous={
            "depth": RasterGrid(0.0, 0.0, 10.0, 10.0, depth),
            "slope": RasterGrid(0.0, 0.0, 10.0, 10.0, slope),
        },
        habitat=habitat,
        poceanica_label="P. oceanica",
        reference_class="Sandy",
    )


@pytest.fixture(scope="session")
def campaign_domains(domains):
    d, d1, d2 = domains
    return campaign_masks(CAMPAIGN_DOMAIN, d, d1, d2)


@pytest.fixture(scope="session")
def survey(campaign_domains):
    """Uniform points per campaign with fixed totals; deterministic."""
    rng = np.random.default_rng(7)
    xs, ys, ts = [], [], []
    for t, mask in campaign_domains.items():
        need = CAMPAIGN_COUNTS[t]
        got = 0
        while got < need:
            x = rng.uniform(0, 300, size=4 * need)
            y = rng.uniform(0, 300, size=4 * need)
            ok = contains_points(mask, x, y)
            take = min(need - got, int(ok.sum()))
            xs.append(x[ok][:take])
            ys.append(y[ok][:take])
            got += take
        ts.append(np.full(need, t))
    return PointPattern(np.concatenate(xs), np.concatenate(ys), np.concatenate(ts))
