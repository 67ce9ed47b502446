/* Compiled kernels for the Delaunay-direct Voronoi engine hot path.
 *
 * Built on demand by repro._native (gcc -O3 -shared) and loaded via
 * ctypes; repro.geometry.voronoi_delaunay has no other engine.  The
 * parity tests hold dt_cells to a NumPy oracle on the same
 * triangulation (tests/voronoi_cells_reference.py), so this file must
 * keep its semantics exactly — in particular the cyclic-predecessor
 * coincidence rule and the Newell area accumulated over absolute
 * vertex positions.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define EPS 1.1102230246251565e-16   /* 2^-53 */

/* The circumcenter of tet t (4 point indices) by Cramer's rule on the
 * 3x3 system that equates the center's squared distance to vertex 0 and
 * vertex k.  0 when it is not finite (an exactly singular sliver).  With
 * err, also a forward error bound of each coordinate (generous in its
 * constants), and 0 when the system is too close to singular for one. */
static int circumcenter(const double *pts, const int64_t *t, double *out,
                        double *err)
{
    const double *a = pts + 3 * t[0];
    double r[3][3], b[3];
    for (int k = 0; k < 3; k++) {
        const double *p = pts + 3 * t[k + 1];
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
    out[0] = x + a[0];
    out[1] = y + a[1];
    out[2] = z + a[2];
    if (err) {   /* terms <= l^4 over det, each rounded a few times */
        double l = 0.0, o = fmax(fmax(fabs(x), fabs(y)), fabs(z));
        for (int k = 0; k < 9; k++)
            l = fmax(l, fabs(r[k / 3][k % 3]));
        *err = 512.0 * EPS * (l * l * l * (l + o) / fabs(det) + o);
        if (!(384.0 * EPS * l * l * l < fabs(det)))
            return 0;
    }
    return isfinite(x) && isfinite(y) && isfinite(z);
}

#define STACK_L 64

/* Angle-order one dual ridge ring, merge coincident circumcenters and
 * take the Newell area.
 *
 * verts = per-tet circumcenters, p0/p1 = the ridge's two sites, ids =
 * the ring's L tet ids, eps2 = squared coincidence tolerance, heap =
 * room for 5 L doubles when L > STACK_L.  Writes the kept, ordered tet
 * ids to out and the area to *area; returns how many were kept (0 when
 * fewer than three remain: the ring is dropped).
 *
 * Ring ordering uses a pseudo-angle (monotonic in atan2, no libm
 * call); the in-plane basis is unnormalized (u = axis x helper,
 * v = axis x u) — an anisotropic positive scaling of the two axes,
 * which preserves angular order.  A vertex coincident with its cyclic
 * predecessor *in sorted order* is dropped (the NumPy rule: an
 * all-coincident ring drops every vertex).  The Newell sum runs over
 * absolute vertex positions, as the NumPy oracle's does. */
static int64_t ring(const double *verts, const double *p0, const double *p1,
                    const int64_t *ids, int64_t L, double eps2, double *heap,
                    int64_t *out, double *area)
{
    double t_s[STACK_L], px_s[STACK_L], py_s[STACK_L], pz_s[STACK_L];
    int idx_s[STACK_L];
    double *t = t_s, *px = px_s, *py = py_s, *pz = pz_s;
    int *idx = idx_s;
    if (L > STACK_L) {
        t = heap;
        px = heap + L;
        py = heap + 2 * L;
        pz = heap + 3 * L;
        idx = (int *)(heap + 4 * L);
    }

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
        const double *vv = verts + 3 * ids[i];
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
    double nx = 0.0, ny = 0.0, nz = 0.0;
    double fx = 0.0, fy = 0.0, fz = 0.0;   /* first kept vertex */
    double lx = 0.0, ly = 0.0, lz = 0.0;   /* last kept vertex */
    for (int64_t i = 0; i < L; i++) {
        int cur = idx[i];
        int prv = idx[i ? i - 1 : L - 1];
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
        out[kept++] = ids[cur];
    }
    if (kept < 3)
        return 0;
    nx += ly * fz - lz * fy;   /* closing edge */
    ny += lz * fx - lx * fz;
    nz += lx * fy - ly * fx;
    *area = 0.5 * sqrt(nx * nx + ny * ny + nz * nz);
    return kept;
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
 * its per-tet arrays start at the caller's tet capacity and double
 * when an insertion needs more. */

#include <string.h>

#define INF (-1)   /* the infinite vertex */
#define DEAD (-2)  /* vertex 0 of a deleted tet */
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

/* The exact routines below run only when a float filter cannot decide
 * (tens of calls per 30 000 points on the benchmark decks): COLD keeps
 * them small and off the hot paths, and ~0.2 s off the cold build. */
#define COLD __attribute__((cold))

/* Expansions: nonoverlapping components in increasing magnitude, zeros
 * dropped; the sign is the last component's.  h = e + f: */
COLD static int esum(int m, const double *e, int n, const double *f,
                     double *h)
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
COLD static int escale(int m, const double *e, double b, double *h)
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
COLD static int odet(const double *const *q, int m, double *h, double *ws)
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
COLD static int insphere_exact(const double *const *q, double *ws)
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
    int64_t n, ntet, cap, nfreed, ndup, hcap;
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

/* Visibility walk from the last new tet to one in conflict with e, in
 * *t: a finite tet whose closure holds e, or an infinite one whose hull
 * face e lies strictly beyond.  If e repeats a vertex of it, the pair is
 * recorded as a duplicate and *t = -1.  0, or -2 if the walk does not
 * end (it must, in a Delaunay triangulation). */
static int locate(DT *d, int32_t e, int32_t *t)
{
    const double *p = PT(d, e);
    int32_t prev = -1;
    int i = inf_slot(V(d, d->last));
    *t = i >= 0 ? NB(d, d->last)[i] : d->last;
    for (int64_t steps = 0; steps <= d->ntet; steps++) {
        const int32_t *v = V(d, *t);
        if (inf_slot(v) >= 0)
            return 0;
        int k = (int)(steps + e), s = 0;
        for (; s < 4; s++, k++) {
            const double *w[4] = {PT(d, v[0]), PT(d, v[1]), PT(d, v[2]),
                                  PT(d, v[3])};
            w[k & 3] = p;
            if (NB(d, *t)[k & 3] != prev && orient(w[0], w[1], w[2], w[3]) < 0)
                break;
        }
        if (s == 4) {
            for (int j = 0; j < 4 && *t >= 0; j++)
                if (!memcmp(PT(d, v[j]), p, 3 * sizeof(double))) {
                    d->dup[2 * d->ndup] = e;
                    d->dup[2 * d->ndup++ + 1] = v[j];
                    *t = -1;
                }
            return 0;
        }
        prev = *t;
        *t = NB(d, *t)[k & 3];
    }
    return -2;
}

/* The conflict cavity of e by breadth-first search from tet t (only the
 * marks change): its tets in cavity[0, *ncav), its boundary faces (4 tet
 * + slot) in bnd[0, *nbnd). */
static void cavity(DT *d, int32_t e, int32_t t, int64_t *ncav, int64_t *nbnd)
{
    int32_t in = 2 * ++d->stamp, out = in + 1;
    int64_t nstack = 1;
    *ncav = 1;
    *nbnd = 0;
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
                    d->stack[nstack++] = d->cavity[(*ncav)++] = o;
                    continue;
                }
                d->mark[o] = out;
            }
            d->bnd[(*nbnd)++] = 4 * (int64_t)c + k;
        }
    }
}

/* Room for at least need tet slots: every per-slot array grows to twice
 * that (new marks zero).  0, or -1 out of memory. */
static int grow(DT *d, int64_t need)
{
    int64_t cap = 2 * need;
#define GROW(a, k) { void *p = realloc(d->a, (k) * cap * sizeof *d->a); \
                     if (p == NULL) { return -1; } d->a = p; }
    GROW(v, 4) GROW(nb, 4) GROW(bnd, 4) GROW(mark, 1) GROW(freed, 1)
    GROW(stack, 1) GROW(cavity, 1)
#undef GROW
    memset(d->mark + d->cap, 0, (cap - d->cap) * sizeof *d->mark);
    d->cap = cap;
    return 0;
}

/* Replace the cavity cavity() left by the tets joining e to its boundary
 * faces: one new tet per face (recorded in the dead cavity tet's
 * neighbour slot), then the new tets' faces through e linked by an edge
 * hash of at least 4 slots per boundary face.  0, or -1 out of memory. */
static int fill(DT *d, int32_t e, int64_t ncav, int64_t nbnd)
{
    if (d->ntet + nbnd - d->nfreed > d->cap
        && grow(d, d->ntet + nbnd - d->nfreed))
        return -1;
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

/* A handle on n points that triangulates the m of them order lists,
 * inserted in that order, starting with cap tet slots.  sizes[0] = tet
 * slots used, sizes[1] = duplicates, sizes[2] = status: 0 built, 1
 * refused (no four affinely independent points), -1 out of memory, -2 a
 * walk did not end.  The handle, or NULL unless built. */
DT *dt_build(const double *pts, int64_t n, const int64_t *order, int64_t m,
             int64_t cap, int64_t *sizes)
{
    DT *d = calloc(1, sizeof(DT));
    sizes[2] = -1;
    if (d == NULL)
        return NULL;
    d->p = pts;
    d->n = n;
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
    for (int64_t i = 1; i < m && s[3] < 0; i++) {
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
    for (int64_t i = 0; i < m && !status; i++) {
        int32_t e = (int32_t)order[i], t;
        int64_t ncav, nbnd;
        if (e == s[0] || e == s[1] || e == s[2] || e == s[3]
            || (status = locate(d, e, &t)) || t < 0)
            continue;
        cavity(d, e, t, &ncav, &nbnd);
        status = fill(d, e, ncav, nbnd);
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

/* Certify the owned sites' stars (owned[n]) against k candidates, points
 * the handle does not hold, in Morton order: locate each from the last
 * one's tet and insert it when its conflict cavity holds a tet with an
 * owned vertex (adding points only shrinks a cell, so one pass is exact).
 * Unless an owned site is on the hull (or a sphere has no error bound),
 * a candidate outside the box of the owned stars' circumspheres
 * conflicts with none and is skipped.  A duplicate of a held point is
 * recorded as one.  sizes = {tet slots, duplicates, status as
 * dt_build's, points inserted, owned sites in their cavities}. */
void dt_certify(DT *d, const unsigned char *owned, const int64_t *cand,
                int64_t k, int64_t *sizes)
{
    double lo[3] = {INFINITY, INFINITY, INFINITY}, c[3], err;
    double hi[3] = {-INFINITY, -INFINITY, -INFINITY};
    int every = 0, status = 0;
    int64_t inserted = 0, repaired = 0;
    unsigned char *seen = calloc(d->n, 1);
    for (int64_t s = 0; s < d->ntet; s++) {
        const int32_t *v = V(d, s);
        int64_t q[4] = {v[0], v[1], v[2], v[3]}, mine = 0;
        for (int j = 0; j < 4 && v[0] != DEAD; j++)
            mine |= v[j] >= 0 && owned[v[j]];
        if (!mine)
            continue;
        if ((every = inf_slot(v) >= 0 || !circumcenter(d->p, q, c, &err)))
            break;
        /* the exact sphere lies within r + 2 |error| of c */
        const double *a = PT(d, q[0]);
        double r = sqrt((a[0] - c[0]) * (a[0] - c[0])
                        + (a[1] - c[1]) * (a[1] - c[1])
                        + (a[2] - c[2]) * (a[2] - c[2]));
        for (int j = 0; j < 3; j++) {
            double pad = (r + 6.0 * err) * (1.0 + 8.0 * EPS)
                       + 4.0 * EPS * (fabs(c[j]) + r);
            lo[j] = fmin(lo[j], c[j] - pad);
            hi[j] = fmax(hi[j], c[j] + pad);
        }
    }
    for (int64_t i = 0; i < k && !status && seen; i++) {
        int32_t e = (int32_t)cand[i], t;
        const double *p = PT(d, e);
        if (!every && (p[0] < lo[0] || p[0] > hi[0] || p[1] < lo[1]
                       || p[1] > hi[1] || p[2] < lo[2] || p[2] > hi[2]))
            continue;
        if ((status = locate(d, e, &t)) || t < 0)
            continue;
        int64_t ncav, nbnd, hit = 0;
        cavity(d, e, t, &ncav, &nbnd);
        for (int64_t m = 0; m < 4 * ncav; m++) {
            int32_t x = V(d, d->cavity[m / 4])[m % 4];
            if (x >= 0 && owned[x]) {
                hit = 1;
                repaired += !seen[x];
                seen[x] = 1;
            }
        }
        if (hit) {
            status = fill(d, e, ncav, nbnd);
            inserted++;
        } else {
            d->last = t;
        }
    }
    sizes[0] = d->ntet;
    sizes[1] = d->ndup;
    sizes[2] = seen ? status : -1;
    sizes[3] = inserted;
    sizes[4] = repaired;
    free(seen);
}

/* Number the live finite tets in slot order (a deleted slot has vertex
 * -2, an infinite tet vertex -1): number[slot], -1 for the others.
 * Returns how many there are. */
static int64_t number_tets(const DT *d, int32_t *number)
{
    int64_t m = 0;
    for (int64_t s = 0; s < d->ntet; s++)
        number[s] = d->v[4 * s] >= 0 && inf_slot(d->v + 4 * s) < 0
                  ? (int32_t)m++ : -1;
    return m;
}

/* Copy out the live finite tets, numbered in slot order: vertices and
 * neighbours (m, 4), -1 across a hull face; one (point, -1,
 * representative) row per duplicate.  Returns m, or -1 out of memory. */
int64_t dt_fetch(const DT *d, int64_t *tets, int64_t *nbrs, int64_t *dup)
{
    int32_t *number = malloc(d->ntet * sizeof(int32_t));
    if (number == NULL)
        return -1;
    int64_t m = number_tets(d, number);
    for (int64_t s = 0; s < d->ntet; s++)
        for (int k = 0; k < 4 && number[s] >= 0; k++) {
            tets[4 * number[s] + k] = d->v[4 * s + k];
            nbrs[4 * number[s] + k] = number[d->nb[4 * s + k]];
        }
    for (int64_t i = 0; i < d->ndup; i++) {
        dup[3 * i] = d->dup[2 * i];
        dup[3 * i + 1] = -1;
        dup[3 * i + 2] = d->dup[2 * i + 1];
    }
    free(number);
    return m;
}

/* ------------------------------------------------------------------ *
 * The Voronoi diagram of a built triangulation: dt_cells and its phases.
 *
 * Compiled at -O1: the loops below are scalar (gathers, scatters and
 * short rings), and -O2 on them bought ~3 % of this pass for ~0.1 s
 * more of a ~0.9 s cold build.  Phases are kept out of line: one large
 * function costs the compiler more than its parts. */
#pragma GCC push_options
#pragma GCC optimize ("O1")
#define PHASE static __attribute__((noinline))

static const int tet_edge[6][2] = {{0, 1}, {0, 2}, {0, 3},
                                   {1, 2}, {1, 3}, {2, 3}};

/* One pass over the live finite tets, renumbered in slot order
 * (number[slot], -1 for the others): tets, nbrs, vertices (unless
 * given), per tet the bit mask of its hull faces, per site flags (1 in
 * a tet, 2 on the hull, 4 next to a vertex outside box) and count[lo +
 * 1] += the edges kept with low end lo.  Returns how many circumcenters
 * are not finite. */
PHASE int64_t tet_pass(const DT *d, const int32_t *number,
                       const unsigned char *owned, const double *box,
                       int given, int64_t *tets, int64_t *nbrs,
                       double *vertices, unsigned char *hull,
                       unsigned char *flags, int64_t *count)
{
    const double *lo = box, *hi = box + 3;
    int64_t bad = 0;
    for (int64_t s = 0, t = 0; s < d->ntet; s++) {
        if (number[s] < 0)
            continue;
        int64_t *tv = tets + 4 * t, q[4];
        unsigned char h = 0;
        for (int k = 0; k < 4; k++) {
            q[k] = tv[k] = d->v[4 * s + k];
            nbrs[4 * t + k] = number[d->nb[4 * s + k]];
            h |= (nbrs[4 * t + k] < 0) << k;
        }
        hull[t] = h;
        if (!given) {
            /* index order: a sorting network, no branches */
#define CSWAP(i, j) { int64_t x = q[i] < q[j] ? q[i] : q[j]; \
                      q[j] = q[i] < q[j] ? q[j] : q[i]; q[i] = x; }
            CSWAP(0, 1) CSWAP(2, 3) CSWAP(0, 2) CSWAP(1, 3) CSWAP(1, 2)
#undef CSWAP
            bad += !circumcenter(d->p, q, vertices + 3 * t, NULL);
        }
        const double *c = vertices + 3 * t;
        unsigned char f = c[0] >= lo[0] && c[0] <= hi[0] && c[1] >= lo[1]
                       && c[1] <= hi[1] && c[2] >= lo[2] && c[2] <= hi[2]
                        ? 1 : 5;
        for (int k = 0; k < 4; k++)
            flags[tv[k]] |= f | (h & ~(1 << k) ? 2 : 0);
        for (int e = 0; e < 6; e++) {
            int64_t a = tv[tet_edge[e][0]], b = tv[tet_edge[e][1]];
            if (owned == NULL || owned[a] || owned[b])
                count[(a < b ? a : b) + 1]++;
        }
        t++;
    }
    return bad;
}

/* The kept edges' incidences (hi << 32 | tet) bucketed by their low
 * end, tets ascending in each: bucket lo is inc[start[lo]:start[lo+1]]
 * (start enters holding the buckets' starts at start[lo + 1]). */
PHASE void bucket(const int64_t *tets, int64_t m, const unsigned char *owned,
                  int64_t *start, uint64_t *inc)
{
    for (int64_t t = 0; t < m; t++) {
        const int64_t *tv = tets + 4 * t;
        for (int e = 0; e < 6; e++) {
            int64_t a = tv[tet_edge[e][0]], b = tv[tet_edge[e][1]];
            if (owned == NULL || owned[a] || owned[b])
                inc[start[(a < b ? a : b) + 1]++] =
                    (uint64_t)(a < b ? b : a) << 32 | (uint64_t)t;
        }
    }
}

/* Group one bucket into its rings: the ng distinct high ends ascending
 * in ghi, ring g's tets (ascending) at ids[at[g]:at[g + 1]].  group[] is
 * scratch per site. */
PHASE int64_t rings_of(const uint64_t *bk, int64_t len, int32_t *group,
                       int64_t *ghi, int64_t *at, int64_t *ids)
{
    int64_t ng = 0;
    for (int64_t i = 0; i < len; i++) {   /* count per high end */
        int64_t b = (int64_t)(bk[i] >> 32);
        if (group[b] >= ng || ghi[group[b]] != b) {
            group[b] = (int32_t)ng;
            ghi[ng] = b;
            at[++ng] = 0;
        }
        at[group[b] + 1]++;
    }
    for (int64_t i = 1; i < ng; i++) {   /* sort the ends */
        int64_t b = ghi[i], c = at[i + 1], j = i;
        for (; j > 0 && ghi[j - 1] > b; j--) {
            ghi[j] = ghi[j - 1];
            at[j + 1] = at[j];
        }
        ghi[j] = b;
        at[j + 1] = c;
    }
    at[0] = 0;
    for (int64_t g = 0; g < ng; g++) {
        group[ghi[g]] = (int32_t)g;
        at[g + 1] += at[g];
    }
    for (int64_t i = len - 1; i >= 0; i--)   /* lay out, keeping order */
        ids[--at[group[bk[i] >> 32] + 1]] = (int64_t)(bk[i] & 0xffffffffu);
    for (int64_t g = 0; g < ng; g++)   /* at[g + 1] started ring g */
        at[g] = at[g + 1];
    at[ng] = len;
    return ng;
}

/* Whether a hull face holds edge (a, b): a face k of a ring tet whose
 * neighbour is -1 and whose opposite vertex is neither end. */
static int open_ring(const int64_t *tets, const unsigned char *hull,
                     const int64_t *ids, int64_t L, int64_t a, int64_t b)
{
    for (int64_t i = 0; i < L; i++) {
        int64_t t = ids[i];
        if (hull[t])
            for (int k = 0; k < 4; k++)
                if (hull[t] >> k & 1 && tets[4 * t + k] != a
                    && tets[4 * t + k] != b)
                    return 1;
    }
    return 0;
}

/* site -> ridges: a counting sort, side-0 entries before side-1 ones */
PHASE void cell_csr(const int64_t *ridge_sites, int64_t R, int64_t n,
                    int64_t *offsets, int64_t *cursor, int64_t *flat)
{
    memset(offsets, 0, (n + 1) * sizeof(int64_t));
    for (int64_t r = 0; r < 2 * R; r++)
        offsets[ridge_sites[r] + 1]++;
    for (int64_t s = 0; s < n; s++)
        offsets[s + 1] += offsets[s];
    memcpy(cursor, offsets, n * sizeof(int64_t));
    for (int side = 0; side < 2; side++)
        for (int64_t r = 0; r < R; r++)
            flat[cursor[ridge_sites[2 * r + side]]++] = r;
}

/* The Voronoi diagram of a built triangulation, in one pass: every
 * array repro.geometry.voronoi_delaunay.DelaunayVoronoi exposes, with
 * the NumPy oracle's numbering, order and summation order.
 *
 * - tets / nbrs (m, 4): the live finite tets renumbered in slot order,
 *   a neighbour of -1 across a hull face;
 * - vertices (m, 3): circumcenters solved from each tet's vertices in
 *   index order (so a tet has the same center bits in any triangulation
 *   listing its points in the same relative order); with given = 1 the
 *   caller's are used instead (after it re-solved the singular ones);
 * - rings: the tets around each Delaunay edge (lo, hi), edges in key
 *   order lo * n + hi and each ring's tets ascending, skipping edges with
 *   no owned endpoint (owned may be NULL: all owned) and hull edges (an
 *   edge of a face whose neighbour is -1); each ring is ordered by ring()
 *   and kept if three vertices remain: ridge_sites (R, 2),
 *   ridge_offsets (R + 1), ridge_flat, ridge_areas (R);
 * - volumes / areas (n): bisector pyramids A * d / 6 and ridge areas
 *   summed per site over side-0 ridges, then side-1 ones, in ridge order;
 * - complete (n): off the hull, every incident circumcenter inside box
 *   (lo[3], hi[3]); a duplicate site (absent from the tets) takes its
 *   representative's hull flag;
 * - cell_offsets (n + 1) / cell_flat (2R): per site its ridges, side-0
 *   entries before side-1 ones, each in ridge order.
 *
 * Outputs are caller-allocated for m <= the slot count, R <= 2m and
 * ring entries <= 6m.  sizes = {m, R, ring entries, rings dropped,
 * sites merged}.  Returns 0, 1 when a circumcenter is not finite (with
 * tets and vertices written: re-solve those rows, call again with
 * given = 1), or -1 out of memory. */
int dt_cells(const DT *d, const unsigned char *owned, const double *box,
             double eps2, int given, int64_t *tets, int64_t *nbrs,
             double *vertices, int64_t *ridge_sites, int64_t *ridge_offsets,
             int64_t *ridge_flat, double *ridge_areas, double *volumes,
             double *areas, unsigned char *complete, int64_t *cell_offsets,
             int64_t *cell_flat, int64_t *sizes)
{
    const double *pts = d->p;
    const int64_t n = d->n;
    int64_t m = 0, R = 0, total = 0, dropped = 0, most = 0;
    int status = -1;
    int32_t *number = malloc(d->ntet * sizeof(int32_t));
    unsigned char *hull = malloc(d->ntet);
    unsigned char *flags = calloc(n, 1);
    int64_t *start = calloc(n + 1, sizeof(int64_t));
    int32_t *group = calloc(n, sizeof(int32_t));
    double *side1 = calloc(2 * n, sizeof(double));
    uint64_t *inc = NULL;
    int64_t *ids = NULL, *ghi = NULL;
    double *ws = NULL;
    if (!number || !hull || !flags || !start || !group || !side1)
        goto out;

    sizes[0] = m = number_tets(d, number);
    if (tet_pass(d, number, owned, box, given, tets, nbrs, vertices, hull,
                 flags, start)) {
        status = 1;
        goto out;
    }
    for (int64_t s = 0; s < n; s++) {
        most = start[s + 1] > most ? start[s + 1] : most;
        start[s + 1] += start[s];
    }
    inc = malloc((start[n] + 1) * sizeof(uint64_t));
    ids = malloc((most + 1) * sizeof(int64_t));
    ghi = malloc(2 * (most + 2) * sizeof(int64_t));
    ws = malloc(5 * (most + 1) * sizeof(double));
    if (!inc || !ids || !ghi || !ws)
        goto out;
    memmove(start + 1, start, n * sizeof(int64_t));
    bucket(tets, m, owned, start, inc);

    double *vol1 = side1, *area1 = side1 + n;
    int64_t *at = ghi + most + 1;
    ridge_offsets[0] = 0;
    memset(volumes, 0, n * sizeof(double));
    memset(areas, 0, n * sizeof(double));
    for (int64_t a = 0; a < n; a++) {
        int64_t ng = rings_of(inc + start[a], start[a + 1] - start[a], group,
                              ghi, at, ids);
        for (int64_t g = 0; g < ng; g++) {
            int64_t b = ghi[g], L = at[g + 1] - at[g];
            if (open_ring(tets, hull, ids + at[g], L, a, b))
                continue;
            double area;
            const double *pa = pts + 3 * a, *pb = pts + 3 * b;
            int64_t kept = ring(vertices, pa, pb, ids + at[g], L, eps2, ws,
                                ridge_flat + total, &area);
            if (kept == 0) {
                dropped++;
                continue;
            }
            double dx = pb[0] - pa[0], dy = pb[1] - pa[1], dz = pb[2] - pa[2];
            double pyramid = area * sqrt(dx * dx + dy * dy + dz * dz) / 6.0;
            volumes[a] += pyramid;
            vol1[b] += pyramid;
            areas[a] += area;
            area1[b] += area;
            ridge_sites[2 * R] = a;
            ridge_sites[2 * R + 1] = b;
            ridge_areas[R] = area;
            total += kept;
            ridge_offsets[++R] = total;
        }
    }
    for (int64_t s = 0; s < n; s++) {
        volumes[s] += vol1[s];
        areas[s] += area1[s];
    }
    cell_csr(ridge_sites, R, n, cell_offsets, start, cell_flat);

    /* complete: in a tet, off the hull, no vertex outside; a duplicate
     * (in no tet) takes its representative's hull flag */
    for (int64_t s = 0; s < n; s++)
        complete[s] = flags[s] == 1;
    for (int64_t i = 0; i < d->ndup; i++) {
        int64_t e = d->dup[2 * i], rep = d->dup[2 * i + 1];
        if (!(flags[e] & 1))
            complete[e] = !(flags[rep] & 2);
    }
    sizes[1] = R;
    sizes[2] = total;
    sizes[3] = dropped;
    sizes[4] = d->ndup;
    status = 0;
out:
    free(number); free(hull); free(flags); free(start); free(group);
    free(side1); free(inc); free(ids); free(ghi); free(ws);
    return status;
}

#pragma GCC pop_options
