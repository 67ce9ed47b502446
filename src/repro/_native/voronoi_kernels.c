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
