/* Compiled backend of angleform._kernels, loaded through ctypes.

   The loop form of _control_np and _integrate_np in _kernels.py, the
   numpy reference; see that module's docstring for the contract. The
   two backends give the same results bit for bit: _control_np sums in
   this file's order. Positions are flat (n, 2) row-major arrays: agent
   i is p[2*i], p[2*i+1]. Expressions are evaluated in source order and
   the build uses -ffp-contract=off, so no multiply-add is fused.

   A control evaluation first makes one pass over the sides of its
   triples, whatever the graph's edges are. The caller lists the k
   unique sides (a, b) and (a, c) of the triples as sides
   (k, 2), each with a fixed orientation (i, j), and codes a triple's
   two sides as code (w, 2), 2 * side + flip, flip = 1 where the triple
   runs the side from j to i. The edge pass writes two records per side
   to gtab (8 * k doubles): (g_x, g_y, l, l) with e = p_i - p_j,
   l = sqrt(e_x * e_x + e_y * e_y) and g = e / l, and then the same
   record with g negated, so a triple reads its bearings at
   gtab + 4 * code. Two sides share a 2-lane vector in the edge pass,
   and the x and y lanes of a triple's terms share one in its loop.
   cost_out gets the full cost and then V_F, the triple sum before the
   leader term, eval_control's second and fourth values. The edge pass
   is the evaluation's one collapse test: when a record it is given is
   under edge_eps, the evaluation fails with u = 0 and both 0.0, as
   _control_np does, and the triple loop does not run.

   It is af_integrate's one test of the graph's edges too. The caller
   appends to sides the m edges no triple side covers
   (_kernels._uncovered), records that no code entry reads, and each
   step's first evaluation passes over all k + m: an uncovered edge
   under edge_eps fails it at the step's start, where the numpy
   reference tests every edge. The three later stages (one loop over
   h/2, h/2 and h, with one STATUS_COINCIDENT exit after it) and the
   final-state evaluation pass over the k sides only. af_integrate
   returns the status and writes n_rec and t_stop: with table and vf,
   the fields of _kernels.Run.

   The reference computes both sides of each triple itself, and yet the
   table changes no result bit. Packed IEEE operations round each lane
   exactly as scalar ones do. p_j - p_i is exactly -(p_i - p_j), and
   -e / l is exactly -(e / l), except that a zero component comes out
   -0.0 where the reference has +0.0. Every term made from such a
   bearing then equals the reference's but for the sign of a zero, and
   no such zero changes a sum: u starts at +0.0, adding either zero to
   a nonzero value leaves it as it is, +0.0 plus or minus either zero
   is +0.0, and an exact cancellation gives +0.0, so no entry of u is
   ever -0.0. The cost adds 0.5 * d * d, which is +0.0 for either zero.

   The caller allocates every array. table, zeroed, gets one row t, p1x,
   p1y, ..., pnx, pny per snapshot. work holds 6 * 2n doubles, the
   current position, the four RK4 stages and the stage position, and
   after them the 8 * (k + m) doubles of the side table. */

#include <math.h>
#include <stdint.h>
#include <string.h>
#ifdef __SSE2__
#include <emmintrin.h>
#endif

enum { STATUS_RAN = 0, STATUS_CONVERGED = 1, STATUS_NONFINITE = 2,
       STATUS_COINCIDENT = 3 };

typedef double v2 __attribute__((vector_size(16)));

static inline v2 load2(const double *p)
{
    v2 v;
    memcpy(&v, p, sizeof v);
    return v;
}

static inline void store2(double *p, v2 v)
{
    memcpy(p, &v, sizeof v);
}

static inline v2 sqrt2(v2 x)
{
#ifdef __SSE2__
    return (v2)_mm_sqrt_pd((__m128d)x);
#else
    return (v2){sqrt(x[0]), sqrt(x[1])};
#endif
}

/* the records of side s from its difference e and length l */
static inline void put_side(double *gtab, int64_t s, v2 e, double l)
{
    v2 lv = {l, l}, g = e / lv;
    store2(gtab + 8 * s, g);
    store2(gtab + 8 * s + 2, lv);
    store2(gtab + 8 * s + 4, -g);
    store2(gtab + 8 * s + 6, lv);
}

/* fills the side table; 0 when a side is under edge_eps */
static int edge_pass(const double *pos, int64_t k, const int64_t *sides,
                     double edge_eps, double *gtab)
{
    int short_side = 0;
    int64_t s = 0;
    for (; s + 1 < k; s += 2) {
        const int64_t *q = sides + 2 * s;
        v2 e0 = load2(pos + 2 * q[0]) - load2(pos + 2 * q[1]);
        v2 e1 = load2(pos + 2 * q[2]) - load2(pos + 2 * q[3]);
        v2 sq0 = e0 * e0, sq1 = e1 * e1;
        v2 xx = {sq0[0], sq1[0]}, yy = {sq0[1], sq1[1]};
        v2 l = sqrt2(xx + yy);
        short_side |= (l[0] < edge_eps) | (l[1] < edge_eps);
        put_side(gtab, s, e0, l[0]);
        put_side(gtab, s + 1, e1, l[1]);
    }
    if (s < k) {
        v2 e = load2(pos + 2 * sides[2 * s]) - load2(pos + 2 * sides[2 * s + 1]);
        double l = sqrt(e[0] * e[0] + e[1] * e[1]);
        short_side |= l < edge_eps;
        put_side(gtab, s, e, l);
    }
    return !short_side;
}

int af_control(int64_t n, const double *pos, int64_t w, const int64_t *tri,
               const int64_t *code, int64_t k, const int64_t *sides,
               const double *cstar, int64_t lead_a, int64_t lead_b,
               double dsx, double dsy, double edge_eps, double *gtab,
               double *u, double *cost_out)
{
    double cost = 0.0;
    for (int64_t i = 0; i < 2 * n; i++)
        u[i] = 0.0;
    cost_out[0] = cost_out[1] = 0.0;
    if (!edge_pass(pos, k, sides, edge_eps, gtab))
        return 0;  /* u and cost_out are still 0.0 */
    for (int64_t t = 0; t < w; t++) {
        const double *ab = gtab + 4 * code[2 * t];
        const double *ac = gtab + 4 * code[2 * t + 1];
        v2 gab = load2(ab), gac = load2(ac);
        v2 dot = gab * gac;
        double cosv = dot[0] + dot[1];
        double d = cosv - cstar[t];
        cost += 0.5 * d * d;
        /* projector identity: P(g_ab) g_ac = g_ac - cos * g_ab */
        v2 cv = {cosv, cosv}, dv = {d, d};
        v2 q1 = (gac - cv * gab) / load2(ab + 2);
        v2 q2 = (gab - cv * gac) / load2(ac + 2);
        double *ua = u + 2 * tri[3 * t], *ub = u + 2 * tri[3 * t + 1];
        double *uc = u + 2 * tri[3 * t + 2];
        store2(ua, load2(ua) - dv * (q1 + q2));
        store2(ub, load2(ub) + dv * q1);
        store2(uc, load2(uc) + dv * q2);
    }
    cost_out[1] = cost;
    if (lead_a >= 0) {
        double ex = dsx - (pos[2 * lead_a] - pos[2 * lead_b]);
        double ey = dsy - (pos[2 * lead_a + 1] - pos[2 * lead_b + 1]);
        u[2 * lead_a] += ex;
        u[2 * lead_a + 1] += ey;
        u[2 * lead_b] -= ex;
        u[2 * lead_b + 1] -= ey;
        cost += 0.5 * (ex * ex + ey * ey);
    }
    cost_out[0] = cost;
    return 1;
}

static int64_t put_row(double *table, int64_t r, double t, const double *pos,
                       int64_t d2)
{
    table[r * (1 + d2)] = t;
    memcpy(table + r * (1 + d2) + 1, pos, d2 * sizeof *pos);
    return r + 1;
}

int af_integrate(int64_t n, const double *pos0, int64_t w, const int64_t *tri,
                 const int64_t *code, int64_t k, const int64_t *sides,
                 const double *cstar, int64_t m, double h, int64_t n_steps,
                 int64_t record_every, int64_t lead_a, int64_t lead_b,
                 double dsx, double dsy, double blowup_limit, double edge_eps,
                 double cost_tol, double grad_tol, double *table, double *vf,
                 double *work, int64_t *n_rec_out, double *t_stop_out)
{
    const int64_t d2 = 2 * n;
    double *pos = work, *k1 = work + d2, *k2 = work + 2 * d2;
    double *k3 = work + 3 * d2, *k4 = work + 4 * d2, *stage = work + 5 * d2;
    double *gtab = work + 6 * d2;
    double cost[2], c_unused[2];
    const double coef[3] = {0.5 * h, 0.5 * h, h};
    int status = STATUS_RAN;
    double t_stop = n_steps * h;

    memcpy(pos, pos0, d2 * sizeof *pos);
    int64_t n_rec = put_row(table, 0, 0.0, pos, d2);
    for (int64_t step = 0; step < n_steps; step++) {
        double t = step * h;
        if (!af_control(n, pos, w, tri, code, k + m, sides, cstar, lead_a,
                        lead_b, dsx, dsy, edge_eps, gtab, k1, cost)) {
            status = STATUS_COINCIDENT;
            t_stop = t;
            break;
        }
        if (step % record_every == 0)  /* this state is the last snapshot */
            vf[n_rec - 1] = cost[1];
        if (cost[0] < cost_tol) {  /* the gradient norm is summed only here */
            double gsq = 0.0;
            for (int64_t i = 0; i < d2; i++)
                gsq += k1[i] * k1[i];
            if (sqrt(gsq) < grad_tol) {
                status = STATUS_CONVERGED;
                t_stop = t;
                break;
            }
        }
        int ok = 1;
        for (int s = 0; s < 3; s++) {
            for (int64_t i = 0; i < d2; i++)
                stage[i] = pos[i] + coef[s] * k1[s * d2 + i];
            ok &= af_control(n, stage, w, tri, code, k, sides, cstar, lead_a,
                             lead_b, dsx, dsy, edge_eps, gtab,
                             k1 + (s + 1) * d2, c_unused);
        }
        if (!ok) {
            status = STATUS_COINCIDENT;
            t_stop = t;
            break;
        }
        for (int64_t i = 0; i < d2; i++)
            pos[i] = pos[i] + (h / 6.0) * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        int bad = 0;
        for (int64_t i = 0; i < d2; i++)
            /* a NaN coordinate also fails this comparison */
            if (!(fabs(pos[i]) <= blowup_limit))
                bad = 1;
        if (bad) {
            status = STATUS_NONFINITE;
            t_stop = (step + 1) * h;
            break;
        }
        if ((step + 1) % record_every == 0)
            n_rec = put_row(table, n_rec, (step + 1) * h, pos, d2);
    }
    if (status == STATUS_RAN || status == STATUS_CONVERGED) {
        if (table[(n_rec - 1) * (1 + d2)] < t_stop)
            n_rec = put_row(table, n_rec, t_stop, pos, d2);
        /* a converged run's last k1 was at its final state */
        if (status == STATUS_RAN)
            af_control(n, pos, w, tri, code, k, sides, cstar, lead_a, lead_b,
                       dsx, dsy, edge_eps, gtab, k1, cost);
        vf[n_rec - 1] = cost[1];
    }
    *n_rec_out = n_rec;
    *t_stop_out = t_stop;
    return status;
}

/* CSV cells, written as Python's repr writes a float.

   af_format_rows writes a (rows, cols) row-major table as CSV text into
   buf, cells split by ',' and each row ended by '\n', and returns the
   bytes written. A cell takes at most 24 bytes
   ("-2.2250738585072014e-308"), so buf must hold rows * (25 * cols + 1).

   The digits are the shortest that read back to the same double, the
   nearest such string when several have that length, as CPython's
   _Py_dg_dtoa gives them in repr's mode 0; Ryu (U. Adams, "Ryu: fast
   float-to-string conversion", PLDI 2018) finds them with one 64 x 128
   bit product per bound. pow5 holds Ryu's multipliers as (668, 2)
   uint64 rows, low word first (_kernels._pow5_table): for q < 342,
   floor(2^(bits(5^q) - 1 + 125) / 5^q) + 1, then for i < 326, 5^i cut
   or padded to 125 bits. The layout is CPython's float_repr: exponent
   form when the decimal point falls at decpt <= -4 or decpt > 16 (the
   value is 0.d1d2... * 10^decpt), with a sign and at least two exponent
   digits; else positional, with ".0" after an integer; "nan" for every
   NaN whatever its sign bit. put_repr turns the digit integer into text
   two digits per division, from the 200-byte table DIGIT_PAIRS. */

typedef unsigned __int128 u128;

enum { POW5_INV_ROWS = 342, POW5_BITS = 125 };

/* ceil(log2(5^e)) (1 for e = 0), floor(log10(2^e)), floor(log10(5^e)),
   exact over the exponents of a double */
static inline int32_t pow5bits(int32_t e) { return ((e * 1217359) >> 19) + 1; }
static inline int32_t log10pow2(int32_t e) { return (e * 78913) >> 18; }
static inline int32_t log10pow5(int32_t e) { return (e * 732923) >> 20; }

static int32_t pow5_factor(uint64_t v)  /* v > 0 */
{
    int32_t count = 0;
    for (; v % 5 == 0; v /= 5)
        count++;
    return count;
}

/* (m * mul) >> j, mul a 128-bit multiplier given low word first */
static inline uint64_t mul_shift(uint64_t m, const uint64_t *mul, int32_t j)
{
    u128 lo = (u128)m * mul[0], hi = (u128)m * mul[1];
    return (uint64_t)(((lo >> 64) + hi) >> (j - 64));
}

/* the shortest digits of the finite nonzero double with fraction bits
   frac and biased exponent expo, as an integer; *e10 gets their power
   of ten. Ryu's d2d, with one digit-removal loop: its common-case loop
   is this one with vm_zeros and vr_zeros both 0, and gives the same. */
static uint64_t shortest(uint64_t frac, uint32_t expo, const uint64_t *pow5,
                         int32_t *e10)
{
    /* two more bits than the mantissa, for the interval's bounds */
    int32_t e2 = (expo ? (int32_t)expo : 1) - 1023 - 52 - 2;
    uint64_t m2 = expo ? (UINT64_C(1) << 52) | frac : frac;
    int even = (m2 & 1) == 0;
    uint64_t mv = 4 * m2;
    uint32_t mm_shift = frac != 0 || expo <= 1;
    uint64_t vr, vp, vm;
    int vm_zeros = 0, vr_zeros = 0;

    if (e2 >= 0) {
        int32_t q = log10pow2(e2) - (e2 > 3);
        int32_t j = -e2 + q + POW5_BITS + pow5bits(q) - 1;
        const uint64_t *mul = pow5 + 2 * q;
        *e10 = q;
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if (q <= 21) {  /* at most one of mv, mp and mm is a multiple of 5 */
            if (mv % 5 == 0)
                vr_zeros = pow5_factor(mv) >= q;
            else if (even)
                vm_zeros = pow5_factor(mv - 1 - mm_shift) >= q;
            else
                vp -= pow5_factor(mv + 2) >= q;
        }
    } else {
        int32_t q = log10pow5(-e2) - (-e2 > 1);
        int32_t i = -e2 - q;
        int32_t j = q - (pow5bits(i) - POW5_BITS);
        const uint64_t *mul = pow5 + 2 * (POW5_INV_ROWS + i);
        *e10 = q + e2;
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if (q <= 1) {  /* mv has two trailing zero bits, mp one */
            vr_zeros = 1;
            if (even)
                vm_zeros = mm_shift == 1;
            else
                vp--;
        } else if (q < 63) {
            vr_zeros = (mv & ((UINT64_C(1) << q) - 1)) == 0;
        }
    }

    /* drop digits while the interval [vm, vp] still holds a shorter one */
    int32_t removed = 0;
    uint32_t last = 0;
    for (; vp / 10 > vm / 10; removed++) {
        vm_zeros &= vm % 10 == 0;
        vr_zeros &= last == 0;
        last = (uint32_t)(vr % 10);
        vr /= 10;
        vp /= 10;
        vm /= 10;
    }
    if (vm_zeros)
        for (; vm % 10 == 0; removed++) {
            vr_zeros &= last == 0;
            last = (uint32_t)(vr % 10);
            vr /= 10;
            vp /= 10;
            vm /= 10;
        }
    if (vr_zeros && last == 5 && vr % 2 == 0)
        last = 4;  /* an exact tie rounds to even */
    *e10 += removed;
    return vr + ((vr == vm && (!even || !vm_zeros)) || last >= 5);
}

/* "00" to "99", the two digits of each value below 100 */
static const char DIGIT_PAIRS[200] =
    "00010203040506070809101112131415161718192021222324"
    "25262728293031323334353637383940414243444546474849"
    "50515253545556575859606162636465666768697071727374"
    "75767778798081828384858687888990919293949596979899";

static char *put_repr(char *p, double x, const uint64_t *pow5)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    uint64_t frac = bits & ((UINT64_C(1) << 52) - 1);
    uint32_t expo = (uint32_t)(bits >> 52) & 0x7ff;
    if (expo == 0x7ff && frac) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    if (bits >> 63)
        *p++ = '-';
    if (expo == 0x7ff || (expo == 0 && frac == 0)) {
        memcpy(p, expo ? "inf" : "0.0", 3);
        return p + 3;
    }

    int32_t e10;
    uint64_t v = shortest(frac, expo, pow5, &e10);  /* 1 to 17 digits */
    char tmp[20];
    int nd = 0;
    for (; v >= 10; v /= 100) {  /* two digits at a time, from the right */
        nd += 2;
        memcpy(tmp + 20 - nd, DIGIT_PAIRS + 2 * (v % 100), 2);
    }
    if (v)  /* an odd digit count leaves the leading digit */
        tmp[19 - nd++] = (char)('0' + v);
    const char *d = tmp + 20 - nd;
    int decpt = nd + e10;

    if (decpt <= -4 || decpt > 16) {
        int e = decpt - 1;
        *p++ = d[0];
        if (nd > 1) {
            *p++ = '.';
            memcpy(p, d + 1, nd - 1);
            p += nd - 1;
        }
        *p++ = 'e';
        *p++ = e < 0 ? '-' : '+';
        e = e < 0 ? -e : e;
        if (e >= 100)
            *p++ = (char)('0' + e / 100);
        *p++ = (char)('0' + e / 10 % 10);
        *p++ = (char)('0' + e % 10);
    } else if (decpt <= 0) {
        *p++ = '0';
        *p++ = '.';
        memset(p, '0', -decpt);
        p += -decpt;
        memcpy(p, d, nd);
        p += nd;
    } else if (decpt >= nd) {
        memcpy(p, d, nd);
        memset(p + nd, '0', decpt - nd);
        p += decpt;
        *p++ = '.';
        *p++ = '0';
    } else {
        memcpy(p, d, decpt);
        p[decpt] = '.';
        memcpy(p + decpt + 1, d + decpt, nd - decpt);
        p += nd + 1;
    }
    return p;
}

int64_t af_format_rows(const double *a, int64_t rows, int64_t cols,
                       const uint64_t *pow5, char *buf)
{
    char *p = buf;
    for (int64_t r = 0; r < rows; r++) {
        for (int64_t c = 0; c < cols; c++) {
            if (c)
                *p++ = ',';
            p = put_repr(p, a[r * cols + c], pow5);
        }
        *p++ = '\n';
    }
    return p - buf;
}
