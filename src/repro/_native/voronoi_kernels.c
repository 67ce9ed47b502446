/* Compiled kernels for the Delaunay-direct Voronoi engine hot path.
 *
 * Built on demand by repro._native (gcc -O3 -shared) and loaded via
 * ctypes; repro.geometry.voronoi_delaunay falls back to equivalent
 * NumPy code when no compiler is available.  Both paths are covered by
 * the parity tests, so this file must mirror the NumPy semantics
 * exactly — in particular the cyclic-predecessor coincidence rule and
 * the Newell area accumulated over absolute vertex positions.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* Circumcenters of tetrahedra by Cramer's rule on the 3x3 system that
 * equates the center's squared distance to vertex 0 and vertex k.
 * Exactly singular (degenerate sliver) tets get NaN centers; the
 * caller re-solves those rows by least squares.  Returns the number of
 * non-finite centers written. */
int64_t tet_circumcenters(const double *pts, const int64_t *tets,
                          int64_t m, double *out)
{
    int64_t bad = 0;
    for (int64_t t = 0; t < m; t++) {
        const double *a = pts + 3 * tets[4 * t];
        double r[3][3], b[3];
        for (int k = 0; k < 3; k++) {
            const double *p = pts + 3 * tets[4 * t + k + 1];
            double dx = p[0] - a[0], dy = p[1] - a[1], dz = p[2] - a[2];
            r[k][0] = dx; r[k][1] = dy; r[k][2] = dz;
            b[k] = 0.5 * (dx * dx + dy * dy + dz * dz);
        }
        double c23x = r[1][1] * r[2][2] - r[1][2] * r[2][1];
        double c23y = r[1][2] * r[2][0] - r[1][0] * r[2][2];
        double c23z = r[1][0] * r[2][1] - r[1][1] * r[2][0];
        double det = r[0][0] * c23x + r[0][1] * c23y + r[0][2] * c23z;
        double c31x = r[2][1] * r[0][2] - r[2][2] * r[0][1];
        double c31y = r[2][2] * r[0][0] - r[2][0] * r[0][2];
        double c31z = r[2][0] * r[0][1] - r[2][1] * r[0][0];
        double c12x = r[0][1] * r[1][2] - r[0][2] * r[1][1];
        double c12y = r[0][2] * r[1][0] - r[0][0] * r[1][2];
        double c12z = r[0][0] * r[1][1] - r[0][1] * r[1][0];
        double inv = 1.0 / det;
        double x = (b[0] * c23x + b[1] * c31x + b[2] * c12x) * inv;
        double y = (b[0] * c23y + b[1] * c31y + b[2] * c12y) * inv;
        double z = (b[0] * c23z + b[1] * c31z + b[2] * c12z) * inv;
        out[3 * t] = x + a[0];
        out[3 * t + 1] = y + a[1];
        out[3 * t + 2] = z + a[2];
        if (!isfinite(x) || !isfinite(y) || !isfinite(z))
            bad++;
    }
    return bad;
}

/* Angle-order each dual ridge ring, merge coincident circumcenters,
 * and accumulate the Newell area — one fused pass over the rings.
 *
 * Inputs: verts = per-tet circumcenters, pts = sites, sites = (R, 2)
 * site pairs, fl_flat/offsets = CSR of unordered tet ids per ring,
 * eps2 = squared coincidence tolerance.
 *
 * Outputs (caller-allocated): out_flat (>= total entries) receives the
 * compacted ordered tet ids; out_len[r], areas[r], keep[r] per ring.
 * Returns the total number of kept entries.
 *
 * Ring ordering uses a pseudo-angle (monotonic in atan2, no libm
 * call); the in-plane basis is unnormalized (u = axis x helper,
 * v = axis x u) — an anisotropic positive scaling of the two axes,
 * which preserves angular order.  A vertex coincident with its cyclic
 * predecessor *in sorted order* is dropped (the NumPy rule: an
 * all-coincident ring drops every vertex), and rings left with fewer
 * than three vertices are dropped entirely. */
int64_t order_rings(const double *verts, const double *pts,
                    const int64_t *sites, const int64_t *fl_flat,
                    const int64_t *offsets, int64_t R, double eps2,
                    int64_t *out_flat, int64_t *out_len,
                    double *areas, unsigned char *keep)
{
#define STACK_L 64
    double t_s[STACK_L], px_s[STACK_L], py_s[STACK_L], pz_s[STACK_L];
    int idx_s[STACK_L];
    int64_t total = 0;

    for (int64_t rr = 0; rr < R; rr++) {
        int64_t start = offsets[rr];
        int64_t L = offsets[rr + 1] - start;
        double *t = t_s, *px = px_s, *py = py_s, *pz = pz_s;
        int *idx = idx_s;
        double *heap = NULL;
        if (L > STACK_L) {
            heap = malloc((size_t)L * (4 * sizeof(double) + sizeof(int)));
            t = heap;
            px = heap + L;
            py = heap + 2 * L;
            pz = heap + 3 * L;
            idx = (int *)(heap + 4 * L);
        }

        const double *p0 = pts + 3 * sites[2 * rr];
        const double *p1 = pts + 3 * sites[2 * rr + 1];
        double ax = p1[0] - p0[0], ay = p1[1] - p0[1], az = p1[2] - p0[2];
        /* u = axis x (e_y if |ax| dominates else e_x) */
        double ux, uy, uz;
        if (ax * ax > 0.81 * (ax * ax + ay * ay + az * az)) {
            ux = -az; uy = 0.0; uz = ax;     /* axis x e_y */
        } else {
            ux = 0.0; uy = az; uz = -ay;     /* axis x e_x */
        }
        double vx = ay * uz - az * uy;
        double vy = az * ux - ax * uz;
        double vz = ax * uy - ay * ux;

        double cx = 0.0, cy = 0.0, cz = 0.0;
        for (int64_t i = 0; i < L; i++) {
            const double *vv = verts + 3 * fl_flat[start + i];
            px[i] = vv[0]; py[i] = vv[1]; pz[i] = vv[2];
            cx += vv[0]; cy += vv[1]; cz += vv[2];
        }
        cx /= L; cy /= L; cz /= L;

        for (int64_t i = 0; i < L; i++) {
            double rx = px[i] - cx, ry = py[i] - cy, rz = pz[i] - cz;
            double x = rx * ux + ry * uy + rz * uz;
            double y = rx * vx + ry * vy + rz * vz;
            double den = fabs(x) + fabs(y);
            double pa = den > 0.0 ? x / den : 0.0;   /* [-1, 1] */
            t[i] = y >= 0.0 ? 1.0 - pa : pa - 3.0;   /* monotonic in angle */
            idx[i] = (int)i;
        }
        /* insertion sort by pseudo-angle (rings are tiny) */
        for (int64_t i = 1; i < L; i++) {
            int id = idx[i];
            double key = t[id];
            int64_t j = i;
            while (j > 0 && t[idx[j - 1]] > key) {
                idx[j] = idx[j - 1];
                j--;
            }
            idx[j] = id;
        }
        /* drop vertices coincident with their cyclic predecessor */
        int64_t kept = 0;
        int64_t wrote = total;
        double nx = 0.0, ny = 0.0, nz = 0.0;
        double fx = 0.0, fy = 0.0, fz = 0.0;   /* first kept vertex */
        double lx = 0.0, ly = 0.0, lz = 0.0;   /* last kept vertex */
        for (int64_t i = 0; i < L; i++) {
            int cur = idx[i];
            int prv = idx[(i + L - 1) % L];
            double dx = px[cur] - px[prv];
            double dy = py[cur] - py[prv];
            double dz = pz[cur] - pz[prv];
            if (dx * dx + dy * dy + dz * dz <= eps2)
                continue;
            if (kept > 0) {
                nx += ly * pz[cur] - lz * py[cur];
                ny += lz * px[cur] - lx * pz[cur];
                nz += lx * py[cur] - ly * px[cur];
            } else {
                fx = px[cur]; fy = py[cur]; fz = pz[cur];
            }
            lx = px[cur]; ly = py[cur]; lz = pz[cur];
            out_flat[wrote + kept] = fl_flat[start + cur];
            kept++;
        }
        if (kept >= 3) {
            nx += ly * fz - lz * fy;   /* closing edge */
            ny += lz * fx - lx * fz;
            nz += lx * fy - ly * fx;
            areas[rr] = 0.5 * sqrt(nx * nx + ny * ny + nz * nz);
            out_len[rr] = kept;
            keep[rr] = 1;
            total += kept;
        } else {
            areas[rr] = 0.0;
            out_len[rr] = 0;
            keep[rr] = 0;
        }
        if (heap)
            free(heap);
    }
    return total;
#undef STACK_L
}

/* Counting sort of ridge ids by site: fills the cell -> ridge CSR
 * (cursor[] must enter holding the per-cell offsets; it is consumed).
 * Side-0 entries are written before side-1 entries for every cell
 * (the NumPy fallback's stable-sort layout). */
void fill_cell_ridges(const int64_t *sites, int64_t R,
                      int64_t *cursor, int64_t *out)
{
    for (int side = 0; side < 2; side++)
        for (int64_t r = 0; r < R; r++)
            out[cursor[sites[2 * r + side]]++] = r;
}

/* ------------------------------------------------------------------ *
 * 3-D Delaunay triangulation: incremental Bowyer-Watson (Bowyer 1981,
 * Watson 1981) around an infinite vertex, so a tet holding vertex -1 is
 * a hull facet, and a neighbour of -1 on output means "hull face".
 *
 * Predicates are exact: a floating-point filter with Shewchuk's (1997)
 * error bounds, else expansion arithmetic on the raw coordinates.  An
 * exactly cospherical insphere test is decided by Simulation of
 * Simplicity (Edelsbrunner and Muecke 1990) on the lift: |p_i|^2 is
 * raised by eps^f(i), the larger point index dominating.  Only the
 * relative order of indices is read, so a subset listed in the same
 * relative order breaks every tie as the full set does, and the
 * perturbed triangulation is unique whatever the insertion order (the
 * caller's: BRIO rounds in Morton order, duplicates lowest index first).
 * An exact duplicate is not inserted but reported with the copy it
 * repeats.  Reentrant: all state lives in the handle dt_build returns;
 * its arrays are sized once, for the caller's tet capacity. */

#include <string.h>

#define INF (-1)   /* the infinite vertex */
#define DEAD (-2)  /* vertex 0 of a deleted tet */
#define EPS 1.1102230246251565e-16   /* 2^-53 */
#define O3D_BOUND ((7.0 + 56.0 * EPS) * EPS)
#define ISP_BOUND ((16.0 + 224.0 * EPS) * EPS)

/* x + y == a + b and x + y == a * b exactly (Dekker, Knuth) */
static inline void two_sum(double a, double b, double *x, double *y)
{
    double s = a + b, v = s - a;
    *y = (a - (s - v)) + (b - v);
    *x = s;
}

static inline void two_prod(double a, double b, double *x, double *y)
{
    double p = a * b, c, ah, al, bh, bl;
    c = 134217729.0 * a; ah = c - (c - a); al = a - ah;
    c = 134217729.0 * b; bh = c - (c - b); bl = b - bh;
    *y = al * bl - (((p - ah * bh) - al * bh) - ah * bl);
    *x = p;
}

/* Expansions: nonoverlapping components in increasing magnitude, zeros
 * dropped; the sign is the last component's.  h = e + f: */
static int esum(int m, const double *e, int n, const double *f, double *h)
{
    int i = 0, j = 0, k = 0;
    double q, r;
    q = (j == n || (i < m && fabs(e[i]) < fabs(f[j]))) ? e[i++] : f[j++];
    while (i < m || j < n) {
        double g = (j == n || (i < m && fabs(e[i]) < fabs(f[j]))) ? e[i++]
                                                                  : f[j++];
        two_sum(q, g, &q, &r);
        if (r != 0.0)
            h[k++] = r;
    }
    if (q != 0.0 || k == 0)
        h[k++] = q;
    return k;
}

/* h = e * b */
static int escale(int m, const double *e, double b, double *h)
{
    double q, s, r, hi, lo;
    int k = 0;
    two_prod(e[0], b, &q, &r);
    if (r != 0.0)
        h[k++] = r;
    for (int i = 1; i < m; i++) {
        two_prod(e[i], b, &hi, &lo);
        two_sum(q, lo, &s, &r);
        if (r != 0.0)
            h[k++] = r;
        two_sum(hi, s, &q, &r);
        if (r != 0.0)
            h[k++] = r;
    }
    if (q != 0.0 || k == 0)
        h[k++] = q;
    return k;
}

/* det of the m x m matrix with rows (q_i[4 - m], ..., q_i[2], 1),
 * exactly, by expansion along its first column: m = 4 is
 * det[x y z 1] = -orient (at most 96 components).  ws: 256 m doubles */
static int odet(const double *const *q, int m, double *h, double *ws)
{
    if (m == 1) {
        h[0] = 1.0;
        return 1;
    }
    const double *sub[3];
    double *minor = ws, *term = ws + 32, *tmp = ws + 128;
    int n = 0;
    for (int i = 0; i < m; i++) {
        for (int j = 0, k = 0; j < m; j++)
            if (j != i)
                sub[k++] = q[j];
        int k = odet(sub, m - 1, minor, ws + 256);
        double c = q[i][4 - m];
        k = escale(k, minor, i & 1 ? -c : c, term);
        n = i ? esum(n, h, k, term, tmp) : k;
        memcpy(h, i ? tmp : term, n * sizeof(double));
    }
    return n;
}

static inline int esign(int n, const double *h)
{
    return (h[n - 1] > 0.0) - (h[n - 1] < 0.0);
}

/* sign of det[b - a; c - a; d - a]: > 0 when d lies on the side of
 * (b - a) x (c - a) */
static int orient(const double *a, const double *b, const double *c,
                  const double *d)
{
    double bx = b[0] - a[0], by = b[1] - a[1], bz = b[2] - a[2];
    double cx = c[0] - a[0], cy = c[1] - a[1], cz = c[2] - a[2];
    double dx = d[0] - a[0], dy = d[1] - a[1], dz = d[2] - a[2];
    double m1 = cy * dz, m2 = cz * dy, m3 = cz * dx;
    double m4 = cx * dz, m5 = cx * dy, m6 = cy * dx;
    double det = bx * (m1 - m2) + by * (m3 - m4) + bz * (m5 - m6);
    double err = O3D_BOUND * (fabs(bx) * (fabs(m1) + fabs(m2))
                              + fabs(by) * (fabs(m3) + fabs(m4))
                              + fabs(bz) * (fabs(m5) + fabs(m6)));
    if (fabs(det) > err)
        return det > 0.0 ? 1 : -1;
    const double *q[4] = {a, b, c, d};
    double h[96], ws[1024];
    return -esign(odet(q, 4, h, ws), h);
}

/* sign of the lifted det[x y z |p|^2 1] over rows q[0..4], exactly:
 * sum_i (-1)^(i+1) |q_i|^2 det[x y z 1](the other four rows).
 * ws: 15000 doubles */
static int insphere_exact(const double *const *q, double *ws)
{
    double *acc = ws, *tmp = ws + 5760, *term = ws + 11520, *o = ws + 12672;
    double *part = ws + 12768, *l = ws + 13920, *sq = ws + 13928;  /* 16 */
    int n = 0;
    for (int i = 0; i < 5; i++) {
        const double *sub[4];
        for (int j = 0, k = 0; j < 5; j++)
            if (j != i)
                sub[k++] = q[j];
        int no = odet(sub, 4, o, ws + 13944);
        int nl = 1;
        l[0] = 0.0;
        for (int a = 0; a < 3; a++) {
            two_prod(q[i][a], q[i][a], sq + 1, sq);
            nl = esum(nl, l, 2, sq, sq + 2);
            memcpy(l, sq + 2, nl * sizeof(double));
        }
        int nt = 0;
        for (int a = 0; a < nl; a++) {
            int k = escale(no, o, i & 1 ? l[a] : -l[a], part);
            nt = a ? esum(nt, term, k, part, tmp) : k;
            memcpy(term, a ? tmp : part, nt * sizeof(double));
        }
        n = i ? esum(n, acc, nt, term, tmp) : nt;
        memcpy(acc, i ? tmp : term, n * sizeof(double));
    }
    return esign(n, acc);
}

/* sign of the lifted det[x y z |p|^2 1] over rows q[0..4]; with
 * orient(q0..q3) > 0 it is < 0 iff q4 lies inside their sphere */
static int insphere(const double *const *q, double *ws)
{
    const double *e = q[4];
    double ax = q[0][0] - e[0], ay = q[0][1] - e[1], az = q[0][2] - e[2];
    double bx = q[1][0] - e[0], by = q[1][1] - e[1], bz = q[1][2] - e[2];
    double cx = q[2][0] - e[0], cy = q[2][1] - e[1], cz = q[2][2] - e[2];
    double dx = q[3][0] - e[0], dy = q[3][1] - e[1], dz = q[3][2] - e[2];
    double axby = ax * by, bxay = bx * ay, ab = axby - bxay;
    double bxcy = bx * cy, cxby = cx * by, bc = bxcy - cxby;
    double cxdy = cx * dy, dxcy = dx * cy, cd = cxdy - dxcy;
    double dxay = dx * ay, axdy = ax * dy, da = dxay - axdy;
    double axcy = ax * cy, cxay = cx * ay, ac = axcy - cxay;
    double bxdy = bx * dy, dxby = dx * by, bd = bxdy - dxby;
    double al = ax * ax + ay * ay + az * az, bl = bx * bx + by * by + bz * bz;
    double cl = cx * cx + cy * cy + cz * cz, dl = dx * dx + dy * dy + dz * dz;
    double det = (dl * (az * bc - bz * ac + cz * ab)
                  - cl * (dz * ab + az * bd + bz * da))
               + (bl * (cz * da + dz * ac + az * cd)
                  - al * (bz * cd - cz * bd + dz * bc));
    double pab = fabs(axby) + fabs(bxay), pbc = fabs(bxcy) + fabs(cxby);
    double pcd = fabs(cxdy) + fabs(dxcy), pda = fabs(dxay) + fabs(axdy);
    double pac = fabs(axcy) + fabs(cxay), pbd = fabs(bxdy) + fabs(dxby);
    az = fabs(az); bz = fabs(bz); cz = fabs(cz); dz = fabs(dz);
    double err = ISP_BOUND * (dl * (az * pbc + bz * pac + cz * pab)
                              + cl * (dz * pab + az * pbd + bz * pda)
                              + bl * (cz * pda + dz * pac + az * pcd)
                              + al * (bz * pcd + cz * pbd + dz * pbc));
    if (fabs(det) > err)
        return det > 0.0 ? 1 : -1;
    return insphere_exact(q, ws);
}

typedef struct {
    const double *p;
    int32_t *v, *nb;     /* per tet: 4 vertices, the 4 tets opposite them */
    int32_t *mark, *freed, *stack, *cavity;
    int64_t *bnd, *dup;  /* cavity boundary faces 4 tet + slot; (e, rep) */
    int64_t *hkey;       /* edge -> 4 new tet + slot, live at this stamp */
    int32_t *hval, *hstamp;
    int64_t ntet, cap, nfreed, ndup, hcap;
    int32_t stamp, last;
    double *ws;
} DT;

#define PT(d, i) ((d)->p + 3 * (int64_t)(i))
#define V(d, t) ((d)->v + 4 * (int64_t)(t))
#define NB(d, t) ((d)->nb + 4 * (int64_t)(t))

static inline int inf_slot(const int32_t *v)
{
    return v[0] == INF ? 0 : v[1] == INF ? 1 : v[2] == INF ? 2
         : v[3] == INF ? 3 : -1;
}

/* Whether tet t conflicts with point e.  A finite tet does when e is
 * inside its perturbed sphere: on an exact tie the dominant point whose
 * lift coefficient (-1)^i orient(the other four) is not zero decides
 * (e's own is orient(tet) > 0).  An infinite tet does when e lies
 * strictly beyond its hull face, or on its plane and in conflict with
 * the finite tet behind it (inside the face's circumcircle, under the
 * same perturbation: the fourth vertex's coefficient vanishes). */
static int conflict(DT *d, int32_t t, int32_t e)
{
    const int32_t *v = V(d, t);
    const double *q[5];
    int i = inf_slot(v);
    for (int j = 0; j < 4; j++)
        q[j] = j == i ? PT(d, e) : PT(d, v[j]);
    if (i >= 0) {
        int o = orient(q[0], q[1], q[2], q[3]);
        if (o)
            return o > 0;
        v = V(d, NB(d, t)[i]);
        for (int j = 0; j < 4; j++)
            q[j] = PT(d, v[j]);
    }
    q[4] = PT(d, e);
    int s = insphere(q, d->ws);
    int32_t id[5] = {v[0], v[1], v[2], v[3], e};
    for (int used = 0; s == 0;) {
        int i = 0;
        while (used >> i & 1)
            i++;
        for (int j = i + 1; j < 5; j++)
            if (!(used >> j & 1) && id[j] > id[i])
                i = j;
        used |= 1 << i;
        if (i == 4)
            return 0;
        const double *w[4];
        for (int j = 0, k = 0; j < 5; j++)
            if (j != i)
                w[k++] = q[j];
        s = orient(w[0], w[1], w[2], w[3]) * (i & 1 ? -1 : 1);
    }
    return s < 0;
}

/* Visibility walk from the last new tet to one in conflict with e: a
 * finite tet whose closure holds e, or an infinite one whose hull face e
 * lies strictly beyond.  *rep: the vertex e duplicates, else -1.
 * -1 if the walk does not end (it must, in a Delaunay triangulation). */
static int32_t locate(DT *d, int32_t e, int32_t *rep)
{
    const double *p = PT(d, e);
    int32_t t = d->last, prev = -1;
    int i = inf_slot(V(d, t));
    if (i >= 0)
        t = NB(d, t)[i];
    *rep = -1;
    for (int64_t steps = 0; steps <= d->ntet; steps++) {
        const int32_t *v = V(d, t);
        if (inf_slot(v) >= 0)
            return t;
        int k = (int)(steps + e), s = 0;
        for (; s < 4; s++, k++) {
            const double *w[4] = {PT(d, v[0]), PT(d, v[1]), PT(d, v[2]),
                                  PT(d, v[3])};
            w[k & 3] = p;
            if (NB(d, t)[k & 3] != prev && orient(w[0], w[1], w[2], w[3]) < 0)
                break;
        }
        if (s == 4) {
            for (int j = 0; j < 4; j++)
                if (!memcmp(PT(d, v[j]), p, 3 * sizeof(double)))
                    *rep = v[j];
            return t;
        }
        prev = t;
        t = NB(d, t)[k & 3];
    }
    return -1;
}

/* Insert point e: grow the conflict cavity from the located tet, make
 * one new tet per boundary face (recorded in the dead cavity tet's
 * neighbour slot), then link the new tets' faces through e by an edge
 * hash of at least 4 slots per boundary face.  0 done, 3 out of tet
 * slots, -1 out of memory, -2 the walk did not end. */
static int insert(DT *d, int32_t e)
{
    int32_t rep, t = locate(d, e, &rep);
    if (t < 0)
        return -2;
    if (rep >= 0) {
        d->dup[2 * d->ndup] = e;
        d->dup[2 * d->ndup++ + 1] = rep;
        return 0;
    }
    int32_t in = 2 * ++d->stamp, out = in + 1;
    int64_t nstack = 1, ncav = 1, nbnd = 0;
    d->mark[t] = in;
    d->stack[0] = d->cavity[0] = t;
    while (nstack) {
        int32_t c = d->stack[--nstack];
        for (int k = 0; k < 4; k++) {
            int32_t o = NB(d, c)[k];
            if (d->mark[o] == in)
                continue;
            if (d->mark[o] != out) {
                if (conflict(d, o, e)) {
                    d->mark[o] = in;
                    d->stack[nstack++] = d->cavity[ncav++] = o;
                    continue;
                }
                d->mark[o] = out;
            }
            d->bnd[nbnd++] = 4 * (int64_t)c + k;
        }
    }
    if (d->ntet + nbnd - d->nfreed > d->cap)
        return 3;
    for (int64_t b = 0; b < nbnd; b++) {
        int32_t c = (int32_t)(d->bnd[b] >> 2), k = d->bnd[b] & 3;
        int32_t n = d->nfreed ? d->freed[--d->nfreed] : (int32_t)d->ntet++;
        int32_t o = NB(d, c)[k];
        memcpy(V(d, n), V(d, c), 4 * sizeof(int32_t));
        V(d, n)[k] = e;
        NB(d, n)[k] = o;
        NB(d, c)[k] = n;
        for (int j = 0; j < 4; j++)
            if (NB(d, o)[j] == c)
                NB(d, o)[j] = n;
    }
    uint64_t mask = 63;
    while (mask < 4 * (uint64_t)nbnd)
        mask = 2 * mask + 1;
    if ((int64_t)mask >= d->hcap) {   /* a cavity larger than before */
        free(d->hkey); free(d->hval); free(d->hstamp);
        d->hcap = mask + 1;
        d->hkey = malloc(d->hcap * sizeof(int64_t));
        d->hval = malloc(d->hcap * sizeof(int32_t));
        d->hstamp = calloc(d->hcap, sizeof(int32_t));
        if (!d->hkey || !d->hval || !d->hstamp)
            return -1;
    }
    for (int64_t b = 0; b < nbnd; b++) {
        int32_t c = (int32_t)(d->bnd[b] >> 2), k = d->bnd[b] & 3;
        int32_t n = NB(d, c)[k];
        for (int j = 0; j < 4; j++) {
            if (j == k)
                continue;
            /* the face opposite j holds e and the edge (x, y): the new
             * tet across it is the other one holding (x, y) */
            int i = 0;
            while (i == j || i == k)
                i++;
            int64_t x = V(d, n)[i], y = V(d, n)[6 - i - j - k];
            int64_t key = ((x < y ? x : y) + 1) << 32 | ((x < y ? y : x) + 1);
            uint64_t h = (uint64_t)key * 0x9E3779B97F4A7C15ull >> 32;
            for (;; h++) {
                h &= mask;
                if (d->hstamp[h] != d->stamp) {
                    d->hstamp[h] = d->stamp;
                    d->hkey[h] = key;
                    d->hval[h] = 4 * n + j;
                    break;
                }
                if (d->hkey[h] == key) {
                    NB(d, n)[j] = d->hval[h] >> 2;
                    NB(d, d->hval[h] >> 2)[d->hval[h] & 3] = n;
                    break;
                }
            }
        }
        d->last = n;
    }
    for (int64_t i = 0; i < ncav; i++) {
        V(d, d->cavity[i])[0] = DEAD;
        d->freed[d->nfreed++] = d->cavity[i];
    }
    return 0;
}

void dt_free(DT *d)
{
    if (d == NULL)
        return;
    free(d->v); free(d->nb); free(d->mark); free(d->freed); free(d->stack);
    free(d->cavity); free(d->bnd); free(d->dup); free(d->ws); free(d->hkey);
    free(d->hval); free(d->hstamp); free(d);
}

/* Triangulate n points, inserted in the given order, in at most cap tet
 * slots.  sizes[0] = tet slots used, sizes[1] = duplicates, sizes[2] =
 * status: 0 built, 1 refused (no four affinely independent points),
 * 3 out of slots, -1 out of memory, -2 a walk did not end.  The handle,
 * or NULL unless built. */
DT *dt_build(const double *pts, int64_t n, const int64_t *order,
             int64_t cap, int64_t *sizes)
{
    DT *d = calloc(1, sizeof(DT));
    sizes[2] = -1;
    if (d == NULL)
        return NULL;
    d->p = pts;
    d->cap = cap;
    d->v = malloc(4 * cap * sizeof(int32_t));
    d->nb = malloc(4 * cap * sizeof(int32_t));
    d->bnd = malloc(4 * cap * sizeof(int64_t));
    d->mark = calloc(cap, sizeof(int32_t));
    d->freed = malloc(cap * sizeof(int32_t));
    d->stack = malloc(cap * sizeof(int32_t));
    d->cavity = malloc(cap * sizeof(int32_t));
    d->dup = malloc(2 * n * sizeof(int64_t));
    d->ws = malloc(15000 * sizeof(double));
    if (!d->v || !d->nb || !d->bnd || !d->mark || !d->freed || !d->stack
        || !d->cavity || !d->dup || !d->ws) {
        dt_free(d);
        return NULL;
    }
    /* seed: the first point, the next one apart from it, the next one
     * off their line (not coplanar with them and one of three points
     * moved from the first along each axis), the next one off their
     * plane */
    int32_t s[4] = {(int32_t)order[0], -1, -1, -1};
    const double *a = PT(d, s[0]);
    double off[3][3];
    for (int k = 0; k < 9; k++)
        off[k / 3][k % 3] = a[k % 3]
                          + (k / 3 == k % 3 ? 1.0 + fabs(a[k % 3]) : 0.0);
    for (int64_t i = 1; i < n && s[3] < 0; i++) {
        const double *q = PT(d, order[i]);
        if (s[1] < 0) {
            if (memcmp(q, a, 3 * sizeof(double)))
                s[1] = (int32_t)order[i];
        } else if (s[2] < 0) {
            for (int k = 0; k < 3; k++)
                if (orient(a, PT(d, s[1]), q, off[k]))
                    s[2] = (int32_t)order[i];
        } else {
            int o = orient(a, PT(d, s[1]), PT(d, s[2]), q);
            if (o) {
                s[3] = (int32_t)order[i];
                s[0] = o > 0 ? s[0] : s[1];
                s[1] = o > 0 ? s[1] : (int32_t)order[0];
            }
        }
    }
    int status = s[3] < 0 || cap < 5;
    /* the seed tet; per face an infinite tet, two finite slots swapped
     * so that it is positive too; then their neighbours */
    for (int t = 0; t < 5 && !status; t++) {
        int32_t *v = V(d, d->ntet++);
        memcpy(v, s, sizeof s);
        if (t) {
            v[t - 1] = INF;
            v[t & 3] = s[(t + 1) & 3];
            v[(t + 1) & 3] = s[t & 3];
        }
    }
    for (int k = 0; k < 4 && !status; k++) {
        int32_t *nb = NB(d, k + 1), x = (k + 1) & 3, y = (k + 2) & 3;
        NB(d, 0)[k] = k + 1;
        for (int j = 0; j < 4; j++)
            nb[j] = j == k ? 0 : 1 + (j == x ? y : j == y ? x : j);
    }
    for (int64_t i = 0; i < n && !status; i++) {
        int32_t e = (int32_t)order[i];
        if (e != s[0] && e != s[1] && e != s[2] && e != s[3])
            status = insert(d, e);
    }
    sizes[0] = d->ntet;
    sizes[1] = d->ndup;
    sizes[2] = status;
    if (status) {
        dt_free(d);
        return NULL;
    }
    return d;
}

/* Copy out the tet slots: vertices and neighbours (sizes[0], 4), a
 * deleted slot's vertex 0 is -2; duplicate pairs (sizes[1], 2). */
void dt_fetch(const DT *d, int32_t *v, int32_t *nb, int64_t *dup)
{
    memcpy(v, d->v, (size_t)(4 * d->ntet) * sizeof(int32_t));
    memcpy(nb, d->nb, (size_t)(4 * d->ntet) * sizeof(int32_t));
    memcpy(dup, d->dup, (size_t)(2 * d->ndup) * sizeof(int64_t));
}
