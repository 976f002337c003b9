/* Stage kernel of the radial finite-volume scheme: ghost padding, minmod
 * limiting, local Lax-Friedrichs fluxes, origin and wall closures, the flux
 * divergence, the vacuum mask and the finite check.
 *
 * Every expression repeats the numpy operations of the reference kernel in
 * tests/_reference_kernel.py, in the same order, so the tendencies match it
 * bit for bit. That holds only without floating-point contraction: build
 * with -ffp-contract=off and never with -ffast-math.
 */
#include <math.h>
#include <stdint.h>

/* np.maximum / np.minimum: NaN propagates and a tie returns b, so
 * np_max(-0.0, 0.0) is +0.0 */
static double np_max(double a, double b) { return (isnan(a) || a > b) ? a : b; }
static double np_min(double a, double b) { return (isnan(a) || a < b) ? a : b; }

/* Half of the minmod slope of two neighbouring differences. */
static double half_slope(double d0, double d1)
{
    return d0 * d1 > 0.0 ? copysign(np_min(fabs(d0), fabs(d1)), d0) * 0.5 : 0.0;
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
        left[j] = clip ? np_max(l, 0.0) : l;
        right[j] = clip ? np_max(r, 0.0) : r;
        e1 = e2;
        e2 = e3;
        d1 = d2;
        hs = hs_next;
    }
}

/* Face states out[field][side][interface] of (rho, vel), shape (2, 2, n + 1);
 * density faces are clipped at zero. */
void faces(int64_t n, const double *rho, const double *vel, double *out)
{
    int64_t m = n + 1;
    limit(n, rho, 0, 1, out, out + m);
    limit(n, vel, 1, 0, out + 2 * m, out + 3 * m);
}

/* Mass flux rho*V and velocity advection flux V**2/2 at interface j, with
 * the shared dissipation speed max(|V| + c), before any closure. */
static void fluxes(const double *face, const double *sound, int64_t m, int64_t j,
                   double *mass, double *adv)
{
    const double *rho_l = face, *rho_r = face + m;
    const double *vel_l = face + 2 * m, *vel_r = face + 3 * m;
    double a_l = fabs(vel_l[j]), a_r = fabs(vel_r[j]);
    if (sound) {
        a_l += sound[j];
        a_r += sound[m + j];
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

/* Fill out = (drho, dvel), shape (2, n), from the face states of faces().
 *
 * sound: NULL, or c at the faces, shape (2, n + 1);
 * grad: NULL, or the face enthalpy (per_density = 0) or pressure
 *   (per_density = 1: divided by the cell density where it is above the
 *   floor) whose difference is subtracted from dvel;
 * field: NULL, or the radial force per unit mass at the cells.
 * The mass flux is weighted by face_area and closed (zero) at interface 0
 * and at interfaces >= wall.
 *
 * Returns -1, or the first non-finite tendency as cell (density) or
 * n + cell (velocity), density scanned first. */
int64_t tendencies(
    int64_t n, const double *face, const double *sound, const double *grad,
    int per_density, const double *field, const double *rho, double rho_floor,
    double dr, const double *face_area, const double *cell_volume, int64_t wall,
    double *out)
{
    int64_t m = n + 1;
    double *drho = out, *dvel = out + n;
    double mass, adv, mass_prev = 0.0, adv_prev;
    fluxes(face, sound, m, 0, &mass, &adv_prev);
    for (int64_t j = 1; j < m; j++) {
        fluxes(face, sound, m, j, &mass, &adv);
        mass = j < wall ? mass * face_area[j] : 0.0;
        drho[j - 1] = -(mass - mass_prev) / cell_volume[j - 1];
        dvel[j - 1] = -(adv - adv_prev) / dr;
        mass_prev = mass;
        adv_prev = adv;
    }
    if (grad && per_density)
        for (int64_t i = 0; i < n; i++)
            dvel[i] = dvel[i] - (grad[i + 1] - grad[i]) / (dr * (rho[i] > rho_floor ? rho[i] : 1.0));
    else if (grad)
        for (int64_t i = 0; i < n; i++)
            dvel[i] = dvel[i] - (grad[i + 1] - grad[i]) / dr;
    if (field)
        for (int64_t i = 0; i < n; i++)
            dvel[i] = dvel[i] + field[i];
    for (int64_t i = 0; i < n; i++)
        dvel[i] = rho[i] > rho_floor ? dvel[i] : 0.0;

    for (int64_t i = 0; i < n; i++)
        if (!isfinite(drho[i]))
            return i;
    for (int64_t i = 0; i < n; i++)
        if (!isfinite(dvel[i]))
            return n + i;
    return -1;
}
