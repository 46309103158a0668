import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import mesh_topology, refine_nvb_by_loop, unit_square_triangles

from bilap_dpg.mesh import (
    Mesh,
    MeshError,
    doerfler_mark,
    make_sector_domain,
    make_unit_square,
    refine_nvb,
)


def test_unit_square_counts():
    m = make_unit_square(1)
    assert (m.num_triangles, m.num_vertices, m.num_edges) == (2, 4, 5)
    m = make_unit_square(2)
    assert (m.num_triangles, m.num_vertices, m.num_edges) == (8, 9, 16)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_unit_square_euler_formula(n):
    # oracle: V - E + F = 1 for a simply connected disk triangulation
    m = make_unit_square(n)
    assert m.num_vertices - m.num_edges + m.num_triangles == 1
    assert m.num_triangles == 2 * n * n
    assert m.num_vertices == (n + 1) ** 2


def test_unit_square_triangles_match_the_loop_oracle():
    for n in range(1, 65):
        assert np.array_equal(make_unit_square(n).triangles, unit_square_triangles(n)), n


def test_unit_square_rejects_zero():
    with pytest.raises(MeshError):
        make_unit_square(0)


def test_sector_counts_and_opening_angle():
    m = make_sector_domain()
    assert (m.num_triangles, m.num_vertices, m.num_edges) == (5, 7, 11)
    # interior angle at the origin = sum of the five fan angles
    total = 0.0
    for tri in m.triangles:
        pts = m.vertices[tri]
        where = [k for k in range(3) if np.allclose(pts[k], 0.0)]
        assert len(where) == 1
        k = where[0]
        d1 = pts[(k + 1) % 3] - pts[k]
        d2 = pts[(k + 2) % 3] - pts[k]
        cosang = d1 @ d2 / (np.hypot(*d1) * np.hypot(*d2))
        total += np.arccos(np.clip(cosang, -1, 1))
    assert total == pytest.approx(5 * np.pi / 4, abs=1e-12)


def test_sector_clamped_rays_match_singular_solution():
    # oracle: direct evaluation of the reference corner solution with the
    # reported exponent/constant; u and its normal derivative must vanish
    # on the two straight edges meeting at the origin
    alpha = 0.673583432147380
    big_c = 1.234587795273723

    def u(x, y):
        r = np.hypot(x, y)
        phi = np.arctan2(y, x)
        return r ** (1 + alpha) * (
            np.cos((alpha + 1) * phi) + big_c * np.cos((alpha - 1) * phi)
        )

    def grad_u(x, y):
        r = np.hypot(x, y)
        phi = np.arctan2(y, x)
        ur = (1 + alpha) * r**alpha * (
            np.cos((alpha + 1) * phi) + big_c * np.cos((alpha - 1) * phi)
        )
        ut = r**alpha * (
            -(alpha + 1) * np.sin((alpha + 1) * phi)
            - big_c * (alpha - 1) * np.sin((alpha - 1) * phi)
        )
        return (
            ur * np.cos(phi) - ut * np.sin(phi),
            ur * np.sin(phi) + ut * np.cos(phi),
        )

    m = make_sector_domain()
    _, _, edge_tris, normal = mesh_topology(m.vertices, m.triangles)
    origin_edges = [
        e for e in range(m.num_edges) if edge_tris[e, 1] < 0 and 0 in m.edges[e]
    ]
    # only the two edges on the rays phi = +-5*pi/8 touch the origin
    assert len(origin_edges) == 2
    ts = np.linspace(0.05, 1.0, 20)
    for e in origin_edges:
        lo, hi = m.vertices[m.edges[e]]
        far = hi if np.hypot(*hi) > np.hypot(*lo) else lo
        pts = ts[:, None] * far[None, :]
        n = normal[e]
        vals = u(pts[:, 0], pts[:, 1])
        gx, gy = grad_u(pts[:, 0], pts[:, 1])
        assert np.max(np.abs(vals)) < 1e-10
        assert np.max(np.abs(gx * n[0] + gy * n[1])) < 1e-8


def test_refine_single_triangle():
    m = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[1, 2, 0]]))
    r = refine_nvb(m, [0])
    # the midpoint of the refinement edge (1, 2) is appended as vertex 3,
    # and the children (c, a, m), (b, c, m) replace the parent in place
    assert r.vertices.tolist() == m.vertices.tolist() + [[0.5, 0.5]]
    assert r.triangles.tolist() == [[0, 1, 3], [2, 0, 3]]
    assert r.areas.sum() == pytest.approx(m.areas.sum())


def test_refine_square_closure():
    # marking one of the two triangles forces the diagonal neighbour too
    m = make_unit_square(1)
    r = refine_nvb(m, [0])
    assert r.num_triangles == 4
    assert r.num_vertices == 5
    assert r.areas.sum() == pytest.approx(1.0)


def test_refine_empty_marks_is_identity():
    m = make_unit_square(2)
    assert refine_nvb(m, []) is m


def test_refine_invalid_index():
    m = make_unit_square(1)
    with pytest.raises(MeshError):
        refine_nvb(m, [7])


def test_refinement_preserves_area_and_conformity():
    rng = np.random.default_rng(3)
    m = make_sector_domain()
    area0 = m.areas.sum()
    for _ in range(6):
        marked = rng.choice(m.num_triangles, size=max(1, m.num_triangles // 3), replace=False)
        m = refine_nvb(m, marked)  # Mesh.__post_init__ asserts the invariants
    assert m.areas.sum() == pytest.approx(area0)


def _shape_class(mesh, i):
    pts = mesh.vertices[mesh.triangles[i]]
    sides = np.sort(
        [
            np.hypot(*(pts[1] - pts[0])),
            np.hypot(*(pts[2] - pts[1])),
            np.hypot(*(pts[0] - pts[2])),
        ]
    )
    sides = sides / sides[-1]
    return tuple(np.round(sides, 9))


def _initial_ancestors(initial, mesh):
    """For each element of `mesh`, the triangle of `initial` that holds
    its centroid strictly inside: its ancestor under refinement."""
    centroid = mesh.triangle_coords().mean(axis=1)[:, None, :]
    corners = initial.triangle_coords()[None]
    inside = np.ones((mesh.num_triangles, initial.num_triangles), dtype=bool)
    for k in range(3):
        a, b = corners[..., k, :], corners[..., (k + 1) % 3, :]
        d, r = b - a, centroid - a
        inside &= d[..., 0] * r[..., 1] - d[..., 1] * r[..., 0] > 0
    assert np.all(inside.sum(axis=1) == 1)
    return inside.argmax(axis=1)


@pytest.mark.parametrize("builder", [make_unit_square, make_sector_domain])
def test_nvb_similarity_classes_bounded(builder):
    # repeated NVB generates at most 4 similarity classes per initial triangle
    m = initial = builder() if builder is make_sector_domain else builder(1)
    classes = {}
    for _ in range(8):
        m = refine_nvb(m, range(m.num_triangles))
        for i, root in enumerate(_initial_ancestors(initial, m)):
            classes.setdefault(int(root), set()).add(_shape_class(m, i))
    assert all(len(s) <= 4 for s in classes.values())


def _assert_topology_matches_oracle(mesh):
    edges, tri_edges, edge_tris, normal = mesh_topology(mesh.vertices, mesh.triangles)
    for got, want in ((mesh.edges, edges), (mesh.tri_edges, tri_edges)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    boundary = edge_tris[:, 1] < 0
    on_boundary = np.zeros(mesh.num_vertices, dtype=bool)
    on_boundary[edges[boundary].ravel()] = True
    assert np.array_equal(mesh.is_boundary_vertex, on_boundary)
    # the oracle's boundary normals, which its local systems use, point
    # away from the owner's centroid
    owner = mesh.triangle_coords()[edge_tris[boundary, 0]].mean(axis=1)
    mid = mesh.vertices[edges[boundary]].mean(axis=1)
    assert np.all(np.einsum("ed,ed->e", normal[boundary], mid - owner) > 0)


@pytest.mark.parametrize(
    "mesh", [make_unit_square(1), make_unit_square(7), make_sector_domain()],
    ids=["square1", "square7", "sector"],
)
def test_topology_matches_brute_force_oracle(mesh):
    _assert_topology_matches_oracle(mesh)


@st.composite
def nvb_refinements(draw):
    """(domain, meshes): 1-5 newest-vertex bisection steps of 1-8 drawn
    elements each, from the 2x2 square or the sector, and every mesh
    they produce."""
    domain = draw(st.sampled_from(["square", "sector"]))
    mesh = make_unit_square(2) if domain == "square" else make_sector_domain()
    meshes = []
    for _ in range(draw(st.integers(1, 5))):
        marked = draw(st.sets(st.integers(0, mesh.num_triangles - 1), min_size=1, max_size=8))
        mesh = refine_nvb(mesh, marked)
        meshes.append(mesh)
    return domain, meshes


@settings(max_examples=25, deadline=None)
@given(nvb_refinements())
def test_topology_matches_oracle_on_nvb_refinements(refinements):
    for mesh in refinements[1]:
        _assert_topology_matches_oracle(mesh)


@settings(max_examples=25, deadline=None)
@given(nvb_refinements(), st.data())
def test_refine_nvb_matches_the_loop_oracle(refinements, data):
    # bit for bit: the same midpoints in the same order, and the same
    # children in the same order
    for mesh in refinements[1]:
        marked = data.draw(st.sets(st.integers(0, mesh.num_triangles - 1), min_size=1))
        refined = refine_nvb(mesh, marked)
        vertices, triangles = refine_nvb_by_loop(mesh, marked)
        assert np.array_equal(refined.vertices, vertices)
        assert np.array_equal(refined.triangles, triangles)


def test_mesh_rejects_edge_shared_by_three_triangles():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]])
    tris = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    with pytest.raises(MeshError, match=r"edge 0 \(vertices 0-1\) shared by 3 triangles"):
        Mesh(verts, tris)


def _brute_force_doerfler(eta, theta):
    eta2 = np.asarray(eta) ** 2
    total = eta2.sum()
    best = None
    for k in range(len(eta) + 1):
        for combo in itertools.combinations(range(len(eta)), k):
            if eta2[list(combo)].sum() >= theta * total - 1e-15:
                return k
    return best


def test_doerfler_spec_example():
    marked = doerfler_mark([0.3, 0.1, 0.4, 0.2], 0.5)
    assert list(marked) == [2]


def test_doerfler_theta_one_marks_all_positive():
    marked = doerfler_mark([0.5, 0.0, 0.25, 1.0], 1.0)
    assert list(marked) == [0, 2, 3]


def test_doerfler_all_zero():
    assert doerfler_mark(np.zeros(5), 0.5).size == 0


def test_doerfler_negative_raises():
    with pytest.raises(MeshError):
        doerfler_mark([0.1, -0.2], 0.5)


@pytest.mark.parametrize(
    "eta, bad", [([1.0, np.nan, 2.0], 1), ([np.nan, np.nan], 0), ([np.inf, 1.0], 0)]
)
def test_doerfler_rejects_non_finite_indicator(eta, bad):
    with pytest.raises(MeshError, match=f"non-finite error indicator .* on triangle {bad}$"):
        doerfler_mark(eta, 0.5)


def test_doerfler_invalid_theta():
    with pytest.raises(MeshError):
        doerfler_mark([0.1, 0.2], 0.0)


def test_doerfler_closes_marked_set_under_near_ties():
    # one element reaches theta, but the second is equal up to rounding
    # and joins it; a real gap leaves it out
    tie = 1.0 - 1e-14
    assert list(doerfler_mark([0.5, 1.0, tie], 0.4)) == [1, 2]
    assert list(doerfler_mark([0.5, tie, 1.0], 0.4)) == [1, 2]
    assert list(doerfler_mark([0.5, 1.0, 1.0 - 1e-8], 0.4)) == [1]


def test_doerfler_minimal_cardinality_vs_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = rng.integers(1, 13)
        eta = rng.random(n)
        theta = float(rng.uniform(0.1, 1.0))
        marked = doerfler_mark(eta, theta)
        assert len(marked) == _brute_force_doerfler(eta, theta)
        assert (eta[marked] ** 2).sum() >= theta * (eta**2).sum() - 1e-12
        # removing the smallest-indicator member violates the threshold
        if len(marked) > 0:
            drop = marked[np.argmin(eta[marked])]
            rest = [i for i in marked if i != drop]
            assert (eta[rest] ** 2).sum() < theta * (eta**2).sum() + 1e-12


def test_mesh_rejects_flipped_triangle():
    with pytest.raises(MeshError):
        Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 2, 1]]))


def test_mesh_rejects_hanging_vertex():
    # triangle (0,1,2) plus two triangles sharing the split edge of (0,1):
    # vertex 4 hangs on the edge (0,1) of the big triangle
    verts = np.array(
        [[0.0, 0.0], [1.0, 0.0], [0.5, 0.5], [0.5, -0.5], [0.5, 0.0]]
    )
    tris = np.array([[0, 1, 2], [0, 4, 3], [4, 1, 3]])
    with pytest.raises(MeshError):
        Mesh(verts, tris)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_mesh_rejects_non_finite_vertex(value):
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    verts[3, 1] = value
    with pytest.raises(MeshError, match="vertex 3 has non-finite"):
        Mesh(verts, np.array([[0, 1, 2], [0, 2, 3]]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("index", [-1, 4])
def test_mesh_rejects_nonexistent_vertex(index):
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(MeshError, match="triangle 1 refers to a nonexistent vertex"):
        Mesh(verts, np.array([[0, 1, 2], [0, 2, index]]))


def test_mesh_rejects_square_with_hole():
    # [0, 3]^2 without [1, 2]^2: eight triangles, Euler characteristic 0
    outer = [(0, 0), (3, 0), (3, 3), (0, 3)]
    inner = [(1, 1), (2, 1), (2, 2), (1, 2)]
    tris = []
    for k in range(4):
        o0, o1, i0, i1 = k, (k + 1) % 4, 4 + k, 4 + (k + 1) % 4
        tris += [(o0, o1, i1), (o0, i1, i0)]
    with pytest.raises(MeshError, match=r"characteristic 0 != 1\); possible causes: .*a hole"):
        Mesh(np.array(outer + inner, dtype=float), np.array(tris))


def test_mesh_rejects_clockwise_triangle():
    verts = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
    with pytest.raises(MeshError, match="triangle 1 is not positively oriented"):
        Mesh(verts, np.array([(0, 1, 2), (0, 3, 2)]))
