"""Triangular meshes with newest-vertex bisection and Doerfler marking.

Triangles are stored as counterclockwise vertex triples ``(a, b, c)`` whose
refinement (newest-vertex) edge is always ``(a, b)``; ``c`` is the peak.
Bisecting at the midpoint ``m`` of ``(a, b)`` produces the children
``(c, a, m)`` and ``(b, c, m)``, which keeps the convention and the
counterclockwise orientation.

Meshes are immutable: refinement returns a new :class:`Mesh`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


DOERFLER_TIE_RTOL = 1e-9  # relative gap below which indicators tie in marking


class MeshError(Exception):
    """Invalid mesh topology, geometry, or refinement request."""


def _triangle_areas(vertices, triangles):
    p = vertices[triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation of a polygonal domain.

    Parameters
    ----------
    vertices : (nv, 2) float array
        Vertex coordinates.
    triangles : (nt, 3) int array
        Vertex indices per triangle; positively oriented, refinement edge
        first (see module docstring).

    Derived edge topology is built on construction.  Interior edges carry
    a fixed global orientation: the unit normal points from the
    lower-index incident triangle to the higher-index one, and outward on
    boundary edges.  All invariants (positive orientation, conformity)
    are checked on construction and raise :class:`MeshError` on failure.
    """

    vertices: np.ndarray
    triangles: np.ndarray

    edges: np.ndarray = field(init=False, repr=False)
    tri_edges: np.ndarray = field(init=False, repr=False)
    edge_tris: np.ndarray = field(init=False, repr=False)
    edge_length: np.ndarray = field(init=False, repr=False)
    edge_tangent: np.ndarray = field(init=False, repr=False)
    edge_normal: np.ndarray = field(init=False, repr=False)
    is_boundary_edge: np.ndarray = field(init=False, repr=False)
    is_boundary_vertex: np.ndarray = field(init=False, repr=False)
    areas: np.ndarray = field(init=False, repr=False)
    diameters: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        vertices = np.ascontiguousarray(self.vertices, dtype=float)
        triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "triangles", triangles)
        # checked before the topology, which would index with bad ids
        # and propagate non-finite coordinates into lengths and normals
        bad = np.nonzero(~np.isfinite(vertices).all(axis=1))[0]
        if bad.size:
            v = int(bad[0])
            raise MeshError(
                f"vertex {v} has non-finite coordinates {vertices[v].tolist()}"
            )
        out_of_range = (triangles < 0) | (triangles >= len(vertices))
        bad = np.nonzero(out_of_range.any(axis=1))[0]
        if bad.size:
            t = int(bad[0])
            raise MeshError(
                f"triangle {t} refers to a nonexistent vertex: "
                f"{triangles[t].tolist()} with {len(vertices)} vertices"
            )
        self._build_topology()
        self._validate()

    def _build_topology(self):
        t = self.triangles
        nt = len(t)
        # local edges in traversal order (a,b), (b,c), (c,a)
        halfedges = np.stack(
            [t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]], axis=1
        ).reshape(-1, 2)
        # lexicographic (lo, hi) order, as np.unique(axis=0) would give
        lo, hi = halfedges.min(axis=1), halfedges.max(axis=1)
        _, first, inverse, counts = np.unique(
            lo * len(self.vertices) + hi,
            return_index=True, return_inverse=True, return_counts=True,
        )
        edges = np.column_stack([lo[first], hi[first]])
        tri_edges = inverse.reshape(nt, 3)

        bad = np.nonzero(counts > 2)[0]
        if bad.size:
            e = int(bad[0])
            raise MeshError(
                f"edge {e} (vertices {edges[e, 0]}-{edges[e, 1]}) shared by "
                f"{counts[e]} triangles, more than two"
            )
        # halfedges grouped by edge in halfedge order: an edge's first
        # one is its lower triangle's, its second the higher one's
        by_edge = np.argsort(inverse, kind="stable")
        starts = np.cumsum(counts) - counts
        two = counts == 2
        edge_tris = np.full((len(edges), 2), -1, dtype=np.int64)
        edge_tris[:, 0] = first // 3
        edge_tris[two, 1] = by_edge[starts[two] + 1] // 3

        vec = self.vertices[edges[:, 1]] - self.vertices[edges[:, 0]]
        length = np.hypot(vec[:, 0], vec[:, 1])
        if np.any(length <= 0):
            raise MeshError("degenerate (zero-length) edge")
        tangent = vec / length[:, None]

        # outward normal of the owning (lower-index) triangle: for the
        # direction d of the owner's first halfedge on the edge,
        # outward = (d_y, -d_x)
        owner_he = halfedges[first]
        d = self.vertices[owner_he[:, 1]] - self.vertices[owner_he[:, 0]]
        normal = np.column_stack([d[:, 1], -d[:, 0]]) / np.hypot(d[:, 0], d[:, 1])[:, None]

        is_bedge = edge_tris[:, 1] < 0
        is_bvert = np.zeros(len(self.vertices), dtype=bool)
        is_bvert[edges[is_bedge].ravel()] = True

        areas = _triangle_areas(self.vertices, t)
        p = self.vertices[t]
        side = np.stack(
            [
                np.hypot(*(p[:, 1] - p[:, 0]).T),
                np.hypot(*(p[:, 2] - p[:, 1]).T),
                np.hypot(*(p[:, 0] - p[:, 2]).T),
            ],
            axis=1,
        )
        for name, val in (
            ("edges", edges),
            ("tri_edges", tri_edges),
            ("edge_tris", edge_tris),
            ("edge_length", length),
            ("edge_tangent", tangent),
            ("edge_normal", normal),
            ("is_boundary_edge", is_bedge),
            ("is_boundary_vertex", is_bvert),
            ("areas", areas),
            ("diameters", side.max(axis=1)),
        ):
            object.__setattr__(self, name, val)

    def _validate(self):
        if np.any(self.areas <= 0):
            bad = int(np.argmin(self.areas))
            raise MeshError(f"triangle {bad} is not positively oriented")
        # Euler characteristic of a simply connected single-boundary-loop
        # triangulation; catches hanging vertices that edge counts miss.
        euler = len(self.vertices) - len(self.edges) + len(self.triangles)
        if euler != 1:
            raise MeshError(
                f"not a conforming mesh of a simply connected domain (Euler "
                f"characteristic {euler} != 1); possible causes: a hanging "
                "vertex, a hole or a disconnected part"
            )

    # -- convenience ----------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def h_max(self):
        return float(self.diameters.max())

    def triangle_coords(self):
        """Vertex coordinates per triangle, shape (nt, 3, 2)."""
        return self.vertices[self.triangles]

    def edge_signs(self):
        """Orientation factors for all (triangle, local edge) pairs, (nt, 3)."""
        owner = self.edge_tris[self.tri_edges, 0]
        return np.where(owner == np.arange(self.num_triangles)[:, None], 1.0, -1.0)


def _ref_edge_first(tri, vertices):
    """Rotate a CCW triangle so its longest edge comes first.

    Ties are broken by the lowest local edge index, which makes the
    initial newest-vertex assignment deterministic.
    """
    a, b, c = tri
    pts = vertices[[a, b, c]]
    lengths = [
        np.hypot(*(pts[1] - pts[0])),
        np.hypot(*(pts[2] - pts[1])),
        np.hypot(*(pts[0] - pts[2])),
    ]
    k = int(np.argmax(lengths))
    rot = [(a, b, c), (b, c, a), (c, a, b)][k]
    return rot


def make_unit_square(n):
    """Structured triangulation of the unit square.

    An n-by-n grid of squares, each split along the (lower-left to
    upper-right) diagonal; the diagonal is the longest edge and becomes
    the refinement edge of both triangles.

    Parameters
    ----------
    n : int
        Number of squares per side, n >= 1.
    """
    if n < 1:
        raise MeshError(f"need n >= 1, got {n}")
    n = int(n)
    xs = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    def vid(i, j):
        return j * (n + 1) + i

    tris = []
    for j in range(n):
        for i in range(n):
            ll, lr = vid(i, j), vid(i + 1, j)
            ur, ul = vid(i + 1, j + 1), vid(i, j + 1)
            # diagonal ll-ur is the refinement edge of both triangles
            tris.append((ur, ll, lr))
            tris.append((ll, ur, ul))
    return Mesh(vertices, np.array(tris, dtype=np.int64))


SECTOR_HALF_ANGLE = 5.0 * np.pi / 8.0


def make_sector_domain():
    """Polygonal sector of opening 5*pi/4, symmetric about the x-axis.

    Seven vertices: the origin plus six unit-circle points at angles
    -112.5 + 45*k degrees (k = 0..5); five fan triangles from the origin.
    The two straight edges meeting at the origin lie on the rays
    phi = +-5*pi/8, where the singular reference solution is clamped.
    """
    angles = np.deg2rad(-112.5 + 45.0 * np.arange(6))
    vertices = np.vstack([[0.0, 0.0], np.column_stack([np.cos(angles), np.sin(angles)])])
    tris = []
    for k in range(5):
        tris.append(_ref_edge_first((0, k + 1, k + 2), vertices))
    return Mesh(vertices, np.array(tris, dtype=np.int64))


def refine_nvb(mesh, marked):
    """Newest-vertex bisection of the marked triangles, with closure.

    Every marked triangle is bisected at least once; closure bisections
    keep the mesh conforming.  Returns a new mesh (the input is returned
    unchanged for an empty mark set).

    Parameters
    ----------
    mesh : Mesh
    marked : iterable of int
        Triangle indices to refine.
    """
    marked = np.unique(np.asarray(list(marked), dtype=np.int64))
    if marked.size == 0:
        return mesh
    if marked.min() < 0 or marked.max() >= mesh.num_triangles:
        raise MeshError(f"marked triangle index out of range: {marked}")

    ref_edge = mesh.tri_edges[:, 0]
    edge_marked = np.zeros(mesh.num_edges, dtype=bool)
    edge_marked[ref_edge[marked]] = True
    # closure: a triangle with any marked edge must bisect its own
    # refinement edge as well; iterate to a fixed point
    while True:
        has_marked = edge_marked[mesh.tri_edges].any(axis=1)
        need = has_marked & ~edge_marked[ref_edge]
        if not need.any():
            break
        edge_marked[ref_edge[need]] = True

    vertices = list(map(tuple, mesh.vertices))
    midpoint = {}
    for e in np.nonzero(edge_marked)[0]:
        lo, hi = mesh.edges[e]
        midpoint[e] = len(vertices)
        vertices.append(tuple(0.5 * (mesh.vertices[lo] + mesh.vertices[hi])))

    tris = []
    for i, (a, b, c) in enumerate(mesh.triangles):
        e0, e1, e2 = mesh.tri_edges[i]
        if not edge_marked[e0]:
            tris.append((a, b, c))
            continue
        m0 = midpoint[e0]
        # child (c, a, m0) owns parent edge e2 = (c, a); (b, c, m0) owns e1
        for child, e_child in (((c, a, m0), e2), ((b, c, m0), e1)):
            if edge_marked[e_child]:
                ca, cb, cc = child
                mc = midpoint[e_child]
                tris.append((cc, ca, mc))
                tris.append((cb, cc, mc))
            else:
                tris.append(child)

    return Mesh(np.array(vertices, dtype=float), np.array(tris, dtype=np.int64))


def doerfler_mark(indicators, theta):
    """Minimal Doerfler mark set, closed under near-ties.

    Takes the smallest set M with sum_{T in M} eta(T)^2 >=
    theta * sum_T eta(T)^2, the shortest qualifying prefix of the
    indicators sorted in descending order (ties broken by ascending
    triangle index), and adds every indicator within a relative
    DOERFLER_TIE_RTOL of the smallest one in M.  Without the closure,
    rounding decides between elements that are equal in exact arithmetic
    (those of a symmetric mesh), and a last-bit change in eta changes
    the marked set.

    Parameters
    ----------
    indicators : array of nonnegative floats
    theta : float in (0, 1]

    Returns
    -------
    np.ndarray of int
        Marked triangle indices, ascending.
    """
    eta = np.asarray(indicators, dtype=float)
    bad = np.nonzero(~np.isfinite(eta))[0]
    if bad.size:
        t = int(bad[0])
        raise MeshError(f"non-finite error indicator {eta[t]} on triangle {t}")
    if np.any(eta < 0):
        raise MeshError("negative error indicator")
    if not 0.0 < theta <= 1.0:
        raise MeshError(f"theta must be in (0, 1], got {theta}")
    eta2 = eta * eta
    order = np.lexsort((np.arange(len(eta)), -eta))
    csum = np.cumsum(eta2[order])
    total = csum[-1] if len(csum) else 0.0
    if total == 0.0:
        return np.empty(0, dtype=np.int64)
    k = int(np.searchsorted(csum, theta * total)) + 1
    ranked = eta[order]
    k = np.count_nonzero(ranked >= (1.0 - DOERFLER_TIE_RTOL) * ranked[k - 1])
    return np.sort(order[:k])
