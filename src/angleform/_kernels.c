/* Compiled backend of angleform._kernels, loaded through ctypes.

   The loop form of _control_np and _integrate_np in _kernels.py, the
   numpy reference it is tested against; see that module's docstring
   for the contract. Positions are flat (n, 2) row-major arrays: agent
   i is p[2*i], p[2*i+1]. Expressions are evaluated in source order and
   the build uses -ffp-contract=off, so no multiply-add is fused.

   The caller allocates every array. work holds 6 * 2n doubles: the
   current position, the four RK4 stages and the stage position. */

#include <math.h>
#include <stdint.h>

enum { STATUS_RAN = 0, STATUS_CONVERGED = 1, STATUS_NONFINITE = 2,
       STATUS_COINCIDENT = 3 };

int af_control(int64_t n, const double *pos, int64_t w, const int64_t *tri,
               const double *cstar, int64_t lead_a, int64_t lead_b,
               double dsx, double dsy, double edge_eps, double *u,
               double *cost_out)
{
    double cost = 0.0;
    for (int64_t i = 0; i < 2 * n; i++)
        u[i] = 0.0;
    *cost_out = 0.0;
    for (int64_t t = 0; t < w; t++) {
        int64_t a = tri[3 * t], b = tri[3 * t + 1], c = tri[3 * t + 2];
        double eabx = pos[2 * a] - pos[2 * b];
        double eaby = pos[2 * a + 1] - pos[2 * b + 1];
        double eacx = pos[2 * a] - pos[2 * c];
        double eacy = pos[2 * a + 1] - pos[2 * c + 1];
        double lab = sqrt(eabx * eabx + eaby * eaby);
        double lac = sqrt(eacx * eacx + eacy * eacy);
        if (lab < edge_eps || lac < edge_eps) {
            *cost_out = cost;
            return 0;
        }
        double gabx = eabx / lab, gaby = eaby / lab;
        double gacx = eacx / lac, gacy = eacy / lac;
        double cosv = gabx * gacx + gaby * gacy;
        double d = cosv - cstar[t];
        cost += 0.5 * d * d;
        /* projector identity: P(g_ab) g_ac = g_ac - cos * g_ab */
        double q1x = (gacx - cosv * gabx) / lab;
        double q1y = (gacy - cosv * gaby) / lab;
        double q2x = (gabx - cosv * gacx) / lac;
        double q2y = (gaby - cosv * gacy) / lac;
        u[2 * a] -= d * (q1x + q2x);
        u[2 * a + 1] -= d * (q1y + q2y);
        u[2 * b] += d * q1x;
        u[2 * b + 1] += d * q1y;
        u[2 * c] += d * q2x;
        u[2 * c + 1] += d * q2y;
    }
    if (lead_a >= 0) {
        double ex = dsx - (pos[2 * lead_a] - pos[2 * lead_b]);
        double ey = dsy - (pos[2 * lead_a + 1] - pos[2 * lead_b + 1]);
        u[2 * lead_a] += ex;
        u[2 * lead_a + 1] += ey;
        u[2 * lead_b] -= ex;
        u[2 * lead_b + 1] -= ey;
        cost += 0.5 * (ex * ex + ey * ey);
    }
    *cost_out = cost;
    return 1;
}

int af_integrate(int64_t n, const double *pos0, int64_t w, const int64_t *tri,
                 const double *cstar, int64_t m, const int64_t *edges,
                 double h, int64_t n_steps, int64_t record_every,
                 int64_t lead_a, int64_t lead_b, double dsx, double dsy,
                 double blowup_limit, double edge_eps, double cost_tol,
                 double grad_tol, double *times, double *traj, double *work,
                 int64_t *n_rec_out, double *t_stop_out)
{
    const int64_t d2 = 2 * n;
    double *pos = work, *k1 = work + d2, *k2 = work + 2 * d2;
    double *k3 = work + 3 * d2, *k4 = work + 4 * d2, *stage = work + 5 * d2;
    double cost, c_unused;
    int64_t n_rec = 1;
    int status = STATUS_RAN;
    double t_stop = n_steps * h;

    for (int64_t i = 0; i < d2; i++) {
        pos[i] = pos0[i];
        traj[i] = pos[i];
    }
    for (int64_t step = 0; step < n_steps; step++) {
        double t = step * h;
        int collapsed = 0;
        for (int64_t r = 0; r < m; r++) {
            double dx = pos[2 * edges[2 * r]] - pos[2 * edges[2 * r + 1]];
            double dy = pos[2 * edges[2 * r] + 1] - pos[2 * edges[2 * r + 1] + 1];
            if (sqrt(dx * dx + dy * dy) < edge_eps)
                collapsed = 1;
        }
        if (collapsed) {
            status = STATUS_COINCIDENT;
            t_stop = t;
            break;
        }
        if (!af_control(n, pos, w, tri, cstar, lead_a, lead_b, dsx, dsy,
                        edge_eps, k1, &cost)) {
            status = STATUS_COINCIDENT;
            t_stop = t;
            break;
        }
        double gsq = 0.0;
        for (int64_t i = 0; i < d2; i++)
            gsq += k1[i] * k1[i];
        if (cost < cost_tol && sqrt(gsq) < grad_tol) {
            status = STATUS_CONVERGED;
            t_stop = t;
            break;
        }
        for (int64_t i = 0; i < d2; i++)
            stage[i] = pos[i] + (0.5 * h) * k1[i];
        int ok2 = af_control(n, stage, w, tri, cstar, lead_a, lead_b, dsx,
                             dsy, edge_eps, k2, &c_unused);
        for (int64_t i = 0; i < d2; i++)
            stage[i] = pos[i] + (0.5 * h) * k2[i];
        int ok3 = af_control(n, stage, w, tri, cstar, lead_a, lead_b, dsx,
                             dsy, edge_eps, k3, &c_unused);
        for (int64_t i = 0; i < d2; i++)
            stage[i] = pos[i] + h * k3[i];
        int ok4 = af_control(n, stage, w, tri, cstar, lead_a, lead_b, dsx,
                             dsy, edge_eps, k4, &c_unused);
        if (!(ok2 && ok3 && ok4)) {
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
        if ((step + 1) % record_every == 0) {
            times[n_rec] = (step + 1) * h;
            for (int64_t i = 0; i < d2; i++)
                traj[n_rec * d2 + i] = pos[i];
            n_rec++;
        }
    }
    if (status == STATUS_RAN || status == STATUS_CONVERGED) {
        double t_end = status == STATUS_CONVERGED ? t_stop : n_steps * h;
        if (times[n_rec - 1] < t_end) {
            times[n_rec] = t_end;
            for (int64_t i = 0; i < d2; i++)
                traj[n_rec * d2 + i] = pos[i];
            n_rec++;
        }
    }
    *n_rec_out = n_rec;
    *t_stop_out = t_stop;
    return status;
}
