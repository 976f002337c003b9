/* Kernel of the radial finite-volume scheme: one stage's ghost padding,
 * minmod limiting, sound speed, local Lax-Friedrichs fluxes, origin and wall
 * closures, flux divergence, pressure and Poisson force terms, vacuum mask
 * and finite check; the Runge-Kutta combination of a step; the CFL wave
 * speed; the largest velocity gradient; and the sums of a diagnostics row.
 *
 * Every expression repeats the numpy operations of the reference kernel in
 * tests/_reference_kernel.py, in the same order, so the results match it
 * bit for bit. That holds only without floating-point contraction: build
 * with -ffp-contract=off and never with -ffast-math. The operations left
 * to numpy are the powers rho**(gamma - 1) and, for a diagnostics row,
 * max(rho, 0)**gamma, since numpy's SIMD `**` differs from `pow` here in
 * the last bit; the caller raises the `power` rows in place between
 * faces() and tendencies(), and the `cell` row before max_speed() and
 * row_sums().
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

/* A grid and model's weights, law and scratch; the one argument every entry
 * but max_slope shares. Mirrored by _kernel.Stage. */
struct stage {
    int64_t n;           /* cells */
    int64_t per_density; /* row 2 of power is a pressure, divided by rho */
    double dr;
    double sound_coef;   /* K*gamma: c = sqrt(sound_coef * rho**(gamma - 1)) */
    double grad_coef;    /* face enthalpy or pressure = grad_coef * row 2 */
    double field_coef;   /* alpha*delta; 0 without a force field */
    double pressure_const;
    const double *face_area, *cell_volume, *shell, *inner_shell;
    const double *center; /* r**(N-1) at the cell centers */
    const double *r;      /* the cell centers */
    double *face;        /* scratch (2, 2, n + 1): rho_l, rho_r, vel_l, vel_r */
    double *power;       /* NULL without pressure, else scratch (3, n + 1):
                            rho_l, rho_r and the face mean, raised by the
                            caller to gamma - 1 (rows 0 and 1 only when
                            gamma = 1, where the pressure is K * mean) */
    double *cell;        /* NULL without pressure, else scratch (n):
                            max(rho, 0) raised by the caller, to gamma - 1
                            for max_speed and to gamma for row_sums */
};

/* np.maximum / np.minimum: NaN propagates and a tie returns b, so
 * np_max(-0.0, 0.0) is +0.0 */
static double np_max(double a, double b) { return (isnan(a) || a > b) ? a : b; }
static double np_min(double a, double b) { return (isnan(a) || a < b) ? a : b; }

/* Half of the minmod slope of two neighbouring differences. Where d0 * d1 > 0
 * neither is NaN, so np.minimum of the magnitudes is a plain comparison. */
static double half_slope(double d0, double d1)
{
    double a = fabs(d0), b = fabs(d1);
    return d0 * d1 > 0.0 ? copysign(a < b ? a : b, d0) * 0.5 : 0.0;
}

/* Limited left and right states of the field q at the n + 1 interfaces.
 *
 * q is extended by two ghosts mirrored at the origin (negated when odd) and
 * two zeros past the wall; interface j lies between extended cells j + 1 and
 * j + 2, whose values e1 and e2 carry along the loop. With clip the states
 * are np.maximum(state, 0.0). */
static void limit(int64_t n, const double *q, int odd, int clip, double *left, double *right)
{
    double e0 = odd ? -q[1] : q[1];
    double e1 = odd ? -q[0] : q[0];
    double e2 = q[0];
    double d1 = e2 - e1;
    double hs = half_slope(e1 - e0, d1);
    for (int64_t j = 0; j <= n; j++) {
        double e3 = j < n - 1 ? q[j + 1] : 0.0;
        double d2 = e3 - e2;
        double hs_next = half_slope(d1, d2);
        double l = e1 + hs, r = e2 - hs_next;
        /* np.maximum(x, 0.0), written so it needs no branch: NaN stays */
        left[j] = clip && l <= 0.0 ? 0.0 : l;
        right[j] = clip && r <= 0.0 ? 0.0 : r;
        e1 = e2;
        e2 = e3;
        d1 = d2;
        hs = hs_next;
    }
}

/* Face states of (rho, vel) into s->face, density clipped at zero; with
 * pressure, also the clipped densities and their mean into s->power. */
void faces(const struct stage *s, const double *rho, const double *vel)
{
    int64_t n = s->n, m = n + 1;
    double *f = s->face;
    limit(n, rho, 0, 1, f, f + m);
    limit(n, vel, 1, 0, f + 2 * m, f + 3 * m);
    if (s->power) {
        memcpy(s->power, f, 2 * m * sizeof(double));
        for (int64_t j = 0; j < m; j++)
            s->power[2 * m + j] = 0.5 * (f[j] + f[m + j]);
    }
}

/* Mass flux rho*V and velocity advection flux V**2/2 at interface j, with
 * the shared dissipation speed max(|V| + c), before any closure. */
static void fluxes(const struct stage *s, int64_t j, double *mass, double *adv)
{
    int64_t m = s->n + 1;
    const double *rho_l = s->face, *rho_r = rho_l + m;
    const double *vel_l = rho_r + m, *vel_r = vel_l + m;
    double a_l = fabs(vel_l[j]), a_r = fabs(vel_r[j]);
    if (s->power) {
        a_l += sqrt(s->sound_coef * s->power[j]);
        a_r += sqrt(s->sound_coef * s->power[m + j]);
    }
    double half_a = 0.5 * np_max(a_l, a_r);
    double f = vel_l[j] * rho_l[j];
    f += vel_r[j] * rho_r[j];
    f *= 0.5;
    *mass = f - half_a * (rho_r[j] - rho_l[j]);
    double g = vel_l[j] * vel_l[j];
    g += vel_r[j] * vel_r[j];
    g *= 0.25;
    *adv = g - half_a * (vel_r[j] - vel_l[j]);
}

/* Fill out = (drho, dvel), shape (2, n), from the face states of faces()
 * and, with pressure, the raised power rows, in one pass over the faces.
 *
 * The mass flux is weighted by face_area and closed (zero) at interface 0
 * and at interfaces >= wall. The force field is (alpha*delta) * C / center
 * with C the running integral of max(rho, 0) * s**(N-1), accumulated in
 * the order of np.cumsum. Each tendency takes its terms in the order of the
 * reference: flux divergence, pressure, force, vacuum mask.
 *
 * Returns -1, or the first non-finite tendency as cell (density) or
 * n + cell (velocity), density scanned first. */
int64_t tendencies(const struct stage *s, int64_t wall, const double *rho, double rho_floor,
                   double *out)
{
    int64_t n = s->n, bad_rho = -1, bad_vel = -1;
    double dr = s->dr;
    const double *base = s->power ? s->power + 2 * (n + 1) : NULL;
    double mass_prev = 0.0, adv_prev = 0.0, grad_prev = 0.0, sum = 0.0;
    for (int64_t j = 0; j <= n; j++) {
        double mass, adv;
        fluxes(s, j, &mass, &adv);
        mass = j > 0 && j < wall ? mass * s->face_area[j] : 0.0;
        double grad = base ? s->grad_coef * base[j] : 0.0;
        if (j > 0) {
            int64_t i = j - 1;
            double drho = -(mass - mass_prev) / s->cell_volume[i];
            double dvel = -(adv - adv_prev) / dr;
            if (base && s->per_density)
                dvel = dvel - (grad - grad_prev) / (dr * (rho[i] > rho_floor ? rho[i] : 1.0));
            else if (base)
                dvel = dvel - (grad - grad_prev) / dr;
            if (s->field_coef != 0.0) {
                /* sum is np.cumsum of max(rho, 0) * shell up to cell i - 1 */
                double q = np_max(rho[i], 0.0);
                double cumulative = sum + q * s->inner_shell[i];
                sum = i ? sum + q * s->shell[i] : q * s->shell[i];
                dvel = dvel + s->field_coef * cumulative / s->center[i];
            }
            dvel = rho[i] > rho_floor ? dvel : 0.0;
            out[i] = drho;
            out[n + i] = dvel;
            if (bad_rho < 0 && !isfinite(drho))
                bad_rho = i;
            if (bad_vel < 0 && !isfinite(dvel))
                bad_vel = i;
        }
        mass_prev = mass;
        adv_prev = adv;
        grad_prev = grad;
    }
    return bad_rho >= 0 ? bad_rho : bad_vel >= 0 ? n + bad_vel : -1;
}

/* faces() then tendencies(), for a stage without pressure. */
int64_t stage(const struct stage *s, int64_t wall, const double *rho, const double *vel,
              double rho_floor, double *out)
{
    faces(s, rho, vel);
    return tendencies(s, wall, rho, rho_floor, out);
}

/* One Runge-Kutta stage in place on the tendencies k_rho, k_vel: k = old +
 * dt*k without mid (NULL), else (mid + dt*k)/2 + old/2; both fields zeroed
 * from cell wall on. Returns np.min of the new density. */
double rk_stage(const struct stage *s, int64_t wall, double dt, const double *rho,
                const double *vel, const double *mid_rho, const double *mid_vel, double *k_rho,
                double *k_vel)
{
    int64_t n = s->n;
    double lowest = 0.0;
    for (int64_t i = 0; i < n; i++) {
        double r = 0.0, v = 0.0;
        if (i < wall && mid_rho) {
            r = (k_rho[i] * dt + mid_rho[i]) * 0.5 + 0.5 * rho[i];
            v = (k_vel[i] * dt + mid_vel[i]) * 0.5 + 0.5 * vel[i];
        } else if (i < wall) {
            r = k_rho[i] * dt + rho[i];
            v = k_vel[i] * dt + vel[i];
        }
        k_rho[i] = r;
        k_vel[i] = v;
        lowest = i ? np_min(lowest, r) : r;
    }
    return lowest;
}

/* np.max of |vel| + sqrt(sound_coef * cell) over the cells, with cell
 * raised to gamma - 1. */
double max_speed(const struct stage *s, const double *vel)
{
    int64_t n = s->n;
    double top = 0.0;
    for (int64_t i = 0; i < n; i++) {
        double speed = fabs(vel[i]);
        if (s->cell)
            speed += sqrt(s->sound_coef * s->cell[i]);
        top = i ? np_max(top, speed) : speed;
    }
    return top;
}

/* np.argmax of |v[i + 2] - v[i]| / width over i < n - 2 (n >= 3): the first
 * maximum, or the first NaN. Writes that slope to *value. */
int64_t max_slope(int64_t n, const double *v, double width, double *value)
{
    int64_t k = 0;
    double top = fabs(v[2] - v[0]) / width;
    for (int64_t i = 1; i < n - 2 && !isnan(top); i++) {
        double slope = fabs(v[i + 2] - v[i]) / width;
        if (isnan(slope) || slope > top) {
            top = slope;
            k = i;
        }
    }
    *value = top;
    return k;
}

/* The four summands of cell i, each product in the operand order of its
 * numpy expression, with w = r**(N-1) and cell raised to gamma: r*V; rho*w;
 * (rho*V**2 [+ 2*(K*cell)])*w; V**2*2*r. */
static void row_terms(const struct stage *s, const double *rho, const double *vel, int64_t i,
                      double t[4])
{
    double v2 = vel[i] * vel[i];
    double e = rho[i] * v2;
    if (s->cell)
        e += 2.0 * (s->pressure_const * s->cell[i]);
    t[0] = s->r[i] * vel[i];
    t[1] = rho[i] * s->center[i];
    t[2] = e * s->center[i];
    t[3] = v2 * 2.0 * s->r[i];
}

/* The four sums over cells lo .. lo + n - 1 in the blocked pairwise order
 * of numpy's float64 add reduction: in order below 8 terms; up to 128 terms
 * eight interleaved accumulators, combined as a balanced tree, then the
 * tail in order; above 128 the two halves, split at n/2 rounded down to a
 * multiple of 8, and their sum. */
static void pairwise(const struct stage *s, const double *rho, const double *vel, int64_t lo,
                     int64_t n, double out[4])
{
    double t[4];
    if (n < 8) {
        /* from -0.0, which leaves the first term as it is */
        for (int k = 0; k < 4; k++)
            out[k] = -0.0;
        for (int64_t i = lo; i < lo + n; i++) {
            row_terms(s, rho, vel, i, t);
            for (int k = 0; k < 4; k++)
                out[k] += t[k];
        }
    } else if (n <= 128) {
        double acc[4][8];
        for (int j = 0; j < 8; j++) {
            row_terms(s, rho, vel, lo + j, t);
            for (int k = 0; k < 4; k++)
                acc[k][j] = t[k];
        }
        int64_t i = 8;
        for (; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++) {
                row_terms(s, rho, vel, lo + i + j, t);
                for (int k = 0; k < 4; k++)
                    acc[k][j] += t[k];
            }
        for (int k = 0; k < 4; k++) {
            const double *a = acc[k];
            out[k] = ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]));
        }
        for (; i < n; i++) {
            row_terms(s, rho, vel, lo + i, t);
            for (int k = 0; k < 4; k++)
                out[k] += t[k];
        }
    } else {
        int64_t half = n / 2;
        half -= half % 8;
        double tail[4];
        pairwise(s, rho, vel, lo, half, out);
        pairwise(s, rho, vel, lo + half, n - half, tail);
        for (int k = 0; k < 4; k++)
            out[k] += tail[k];
    }
}

/* np.sum of each summand of row_terms over the cells into out[4]. An add
 * reduction starts from its identity, so each sum is 0.0 + the pairwise
 * sum: +0.0, not -0.0, when every term is -0.0. */
void row_sums(const struct stage *s, const double *rho, const double *vel, double *out)
{
    pairwise(s, rho, vel, 0, s->n, out);
    for (int k = 0; k < 4; k++)
        out[k] = 0.0 + out[k];
}
