"""Leaf checks shared by the tests: the image of a polyline, its tangency to a
direction field and its invariance under the map."""

from dataclasses import replace

import numpy as np

from anosovlab.leafmetric import _cumulative_arclength, _nearest_on_polyline, pull_back_leaves
from anosovlab.util import pairwise_principal_angles


def map_polyline(f, leaf):
    """Image polyline under the lift; its nodes stay on the image leaf."""
    pts = f.evaluate(leaf.points)
    return replace(leaf, points=pts, arclength=_cumulative_arclength(pts))


def tangency_residual(leaf, field) -> float:
    """Max angle between the polyline's segments and field(midpoints), the
    vectors (n, d) of a direction field at the segment midpoints.

    The angle is `pairwise_principal_angles`' sine form, which resolves
    angles down to rounding where an arccos of the cosine stops near 1.5e-8.
    """
    mids = 0.5 * (leaf.points[:-1] + leaf.points[1:])
    pairs = np.stack([np.diff(leaf.points, axis=0), np.broadcast_to(field(mids), mids.shape)], axis=1)
    return float(pairwise_principal_angles(pairs[..., None]).max())


def leaf_invariance_defect(f, leaf, depth: int = 12) -> float:
    """Hausdorff-style defect: image nodes against a fresh leaf at the image center."""
    image = map_polyline(f, leaf)
    [fresh] = pull_back_leaves(f, image.points[image.center_index], depth=depth)
    span = fresh.arclength[-1]
    arc = np.abs(image.arclength - image.arclength[image.center_index])
    keep = arc <= 0.9 * span / 2.0
    return float(_nearest_on_polyline(image.points[keep], fresh)[0].max())
