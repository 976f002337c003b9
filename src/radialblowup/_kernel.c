/* Kernel of the radial finite-volume scheme: one stage's boundary stencils,
 * minmod limiting, sound speed, local Lax-Friedrichs fluxes, origin and wall
 * closures, flux divergence, pressure and Poisson force terms, vacuum mask
 * and finite check; the Runge-Kutta combinations of a step; what a run
 * reads of a state, its least density, CFL wave speed and largest velocity
 * gradient; the sums of a diagnostics row; and the text of a block of table
 * rows.
 *
 * Every expression repeats the numpy operations of the reference kernel in
 * tests/_reference_kernel.py, in the same order, so the results match it
 * bit for bit. That holds only without floating-point contraction: build
 * with -ffp-contract=off and never with -ffast-math. The one operation left
 * to numpy is the power of the cells, max(rho, 0)**(gamma - 1) for a stage
 * and facts() and max(rho, 0)**gamma for a diagnostics row, since
 * numpy's SIMD `**` differs from `pow` here in the last bit. With pressure
 * (gamma > 1, as ModelConfig requires) the caller raises a `cell` row and
 * passes it to each call that reads it, and finish_step() calls the numpy
 * power it is handed for the rows it makes; dust raises nothing. A stage is
 * the one call tendencies() for every law; a step is tendencies() for the
 * first stage and finish_step() for the rest.
 *
 * The per-face and per-cell work runs in short branch-free loops over
 * restrict pointers, which the compiler vectorizes lane by lane: each lane
 * does the IEEE operations of one cell, so vector and scalar code give the
 * same bits. -fno-trapping-math (both sides of a select may be evaluated)
 * and -fno-math-errno (sqrt is one instruction) let it do so and change no
 * value. The force's running sum and the scan for the first non-finite cell
 * stay scalar; the min, max and argmax reductions of step_facts keep lanes
 * of partial extremes that give the result of the scalar chain exactly. On
 * x86-64 ELF with glibc, CLONED builds each entry and the static functions
 * it calls for every target of CLONE_TARGETS (AVX-512F and AVX2) and for
 * the baseline, and the dynamic loader picks the widest the CPU supports
 * once per process (an ifunc); kernel_target() names it. The targets are plain
 * ISA levels with generic tuning (arch=icelake-server and later prefer
 * 256-bit vectors). AVX-512F has FMA, so -ffp-contract=off matters in its
 * clones as well.
 *
 * Below the numerics, the module's Python binding: stage(), which builds a
 * struct stage and owns it in a capsule, and one METH_FASTCALL function per
 * entry, which opens its call through one checked path, takes the arrays
 * through the buffer protocol and calls the entry with the GIL held.
 */
/* first, as the C API asks: it sets feature macros the C library reads */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* The targets that CLONED builds beside the baseline, widest first, as the
 * loader ranks them. A build may name others with -D'CLONE_TARGETS(X)=...'. */
#ifndef CLONE_TARGETS
#define CLONE_TARGETS(X) X(avx512f) X(avx2)
#endif

#if defined(__x86_64__) && defined(__ELF__) && defined(__GLIBC__)
#define TARGET_NAME(t) #t,
#define CLONED __attribute__((target_clones(CLONE_TARGETS(TARGET_NAME) "default")))
#define RUNS(t) if (__builtin_cpu_supports(#t)) return #t;
#else
#define CLONED
#define RUNS(t)
#endif

/* A grid and model's weights, law and scratch; the one argument every entry
 * but format_rows and kernel_target shares. Built by stage() alone, whose
 * dr lies in (0, DBL_MAX / 2]. */
struct stage {
    int64_t n;           /* cells */
    double dr;
    double sound_coef;   /* K*gamma: c = sqrt(sound_coef * rho**(gamma - 1)) */
    double grad_coef;    /* face enthalpy = grad_coef * face mean */
    double field_coef;   /* alpha*delta; 0 without a force field */
    double pressure_const; /* K > 0: the caller raises the cells */
    double exponent;     /* gamma - 1, the power of the raised cells */
    const double *face_area, *shell, *inner_shell;
    const double *center; /* r**(N-1) at the cell centers */
    const double *r;      /* the cell centers */
    double *work;        /* scratch (2, n + 4), (3, n + 4) with pressure, and
                            never under 24 doubles: the fluxes, the sound
                            speeds and the face means; see WORK */
};

/* Row k of the work scratch. Rows 0 and 1 hold the mass and advection
 * fluxes of a stage. With pressure, row 2 holds the sound speeds of cells
 * -1 .. n up to the fluxes, then the face means. The scratch from row 0 on
 * holds the 24 lanes of step_facts(). No row holds a copy of a cell: a
 * stage reads rho, V and the raised cells where they lie. */
#define WORK(s, k) ((s)->work + (k) * ((s)->n + 4))

/* np.maximum: NaN propagates and a tie returns b, so np_max(-0.0, 0.0) is
 * +0.0 */
static inline double np_max(double a, double b) { return (isnan(a) || a > b) ? a : b; }

/* Four doubles, or a mask of four lanes (vector extensions gcc and clang
 * share), for the reductions the compiler does not vectorize; the baseline
 * clone holds each in two SSE2 registers. Macros rather than functions,
 * because passing these by value changes the ABI between clones. */
typedef double lanes __attribute__((vector_size(32)));
typedef int64_t mask __attribute__((vector_size(32)));
#define ANY(m) (((m)[0] | (m)[1] | (m)[2] | (m)[3]) != 0)
#define ABS(x) ((lanes)((mask)(x) & (mask){INT64_MAX, INT64_MAX, INT64_MAX, INT64_MAX}))
/* Lane by lane, top raised to x where x is larger, or low lowered to x where
 * x is smaller; a NaN x leaves them. Written per lane, each is one maxpd or
 * minpd where x86 has them. */
#define RAISE(top, x)                                                                              \
    for (int q_ = 0; q_ < 4; q_++)                                                                 \
    (top)[q_] = (x)[q_] > (top)[q_] ? (x)[q_] : (top)[q_]
#define LOWER(low, x)                                                                              \
    for (int q_ = 0; q_ < 4; q_++)                                                                 \
    (low)[q_] = (x)[q_] < (low)[q_] ? (x)[q_] : (low)[q_]

/* Half of the minmod slope of two neighbouring differences. Where d0 * d1 > 0
 * neither is NaN, so np.minimum of the magnitudes is a plain comparison. */
static inline double half_slope(double d0, double d1)
{
    double a = fabs(d0), b = fabs(d1);
    return d0 * d1 > 0.0 ? copysign(a < b ? a : b, d0) * 0.5 : 0.0;
}

/* Limited left and right states at a face whose stencil, cells j - 2 .. j + 1
 * of face j, is e[0 .. 3]: between cells j - 1 and j, e[1] and e[2]. */
static inline double left_state(const double *e)
{
    return e[1] + half_slope(e[1] - e[0], e[2] - e[1]);
}

static inline double right_state(const double *e)
{
    return e[2] - half_slope(e[2] - e[1], e[3] - e[2]);
}

/* np.maximum(x, 0.0), written so it needs no branch: NaN stays */
static inline double clip(double x) { return x <= 0.0 ? 0.0 : x; }

/* The boundary rule of a stage, in one place: face j's stencil, cells
 * j - 2 .. j + 1 of the n cells x, into e, with the two ghosts each side
 * that a cell index outside [0, n) names: mirrored evenly at the origin
 * (cell -1 is cell 0, cell -2 is cell 1), negated there if the row is odd
 * (V), and zeros past the wall. The interior faces 2 .. n - 2 read their
 * stencil from x itself; the edge faces, whose stencil reaches a ghost,
 * take it from here. */
static inline void stencil(int64_t n, const double *x, int odd, int64_t j, double e[4])
{
    for (int k = 0; k < 4; k++) {
        int64_t i = j - 2 + k;
        e[k] = i >= n ? 0.0 : i >= 0 ? x[i] : odd ? -x[-1 - i] : x[-1 - i];
    }
}

/* The edge face after face j, of the n + 1 faces: 0, 1, n - 1 and n, or
 * every face when n < 4; n + 1 after the last. */
static inline int64_t next_edge(int64_t n, int64_t j) { return j == 1 && n > 3 ? n - 1 : j + 1; }

/* The face mean 0.5 * (e_l + e_r) of a stencil e, its limited states e_l and
 * e_r clipped at zero. */
static inline double face_mean(const double *e)
{
    return 0.5 * (clip(left_state(e)) + clip(right_state(e)));
}

/* The face means of the n cells x at the n + 1 faces. */
CLONED static void face_means(int64_t n, const double *restrict x, double *restrict mean)
{
    for (int64_t j = 2; j < n - 1; j++)
        mean[j] = face_mean(x + j - 2);
    for (int64_t j = 0; j <= n; j = next_edge(n, j)) {
        double e[4];
        stencil(n, x, 0, j, e);
        mean[j] = face_mean(e);
    }
}

/* The sound speeds sqrt(sound_coef * p) of cells -1 .. n into speed[1 ..
 * n + 2] (cell i at i + 2), from the n raised cells p: the mirror ghost at
 * the origin is cell 0 and the ghost past the wall has density 0, whose
 * power 0**(gamma - 1) is 0. */
CLONED static void sound_speeds(int64_t n, double sound_coef, const double *restrict p,
                                double *restrict speed)
{
    for (int64_t i = 0; i < n; i++)
        speed[i + 2] = sqrt(sound_coef * p[i]);
    speed[n + 2] = 0.0;
    speed[1] = speed[2];
}

/* The mass and advection fluxes of a face from its rho and V stencils er and
 * ev, with the sound speeds c_l and c_r of its two sides added to the
 * dissipation speed max(|V| + c); the mass flux before its face weight.
 * The local Lax-Friedrichs flux of LeVeque, Finite Volume Methods for
 * Hyperbolic Problems (2002), section 12.5: the speed bounds the signal
 * speeds and is no term of the equations. Returned, not stored through
 * pointers: gcc then no longer knows that the caller's restrict rows do
 * not overlap, and leaves its loop scalar. */
struct flux {
    double mass, adv;
};

static inline struct flux flux(const double *er, const double *ev, double c_l, double c_r)
{
    double rl = clip(left_state(er)), rr = clip(right_state(er));
    double vl = left_state(ev), vr = right_state(ev);
    double half_a = 0.5 * np_max(fabs(vl) + c_l, fabs(vr) + c_r);
    double f = vl * rl + vr * rr, g = vl * vl + vr * vr;
    struct flux out = {f * 0.5 - half_a * (rr - rl), g * 0.25 - half_a * (vr - vl)};
    return out;
}

/* The fluxes of the n cells rho and vel at the n + 1 faces into mass and
 * adv, the mass flux weighted by face_area and closed (zero) at face 0 and
 * at faces >= wall. With pressure the sound speeds of face j are those of
 * its two cells j - 1 and j, speed[j + 1] and speed[j + 2]; without, speed
 * is NULL and they are +0.0, which leaves |V| as it is (never -0.0). */
CLONED static void fluxes(int64_t n, int64_t wall, const double *restrict rho,
                          const double *restrict vel, const double *restrict speed,
                          const double *restrict area, double *restrict mass,
                          double *restrict adv)
{
    if (speed) {
        for (int64_t j = 2; j < n - 1; j++) {
            struct flux f = flux(rho + j - 2, vel + j - 2, speed[j + 1], speed[j + 2]);
            mass[j] = f.mass * area[j];
            adv[j] = f.adv;
        }
    } else {
        for (int64_t j = 2; j < n - 1; j++) {
            struct flux f = flux(rho + j - 2, vel + j - 2, 0.0, 0.0);
            mass[j] = f.mass * area[j];
            adv[j] = f.adv;
        }
    }
    for (int64_t j = 0; j <= n; j = next_edge(n, j)) {
        double er[4], ev[4];
        stencil(n, rho, 0, j, er);
        stencil(n, vel, 1, j, ev);
        struct flux f = speed ? flux(er, ev, speed[j + 1], speed[j + 2]) : flux(er, ev, 0.0, 0.0);
        mass[j] = f.mass * area[j];
        adv[j] = f.adv;
    }
    mass[0] = 0.0;
    for (int64_t j = wall; j <= n; j++)
        mass[j] = 0.0;
}

/* Fill out = (drho, dvel), shape (2, n), from the fluxes in work rows 0
 * and 1: flux divergence, pressure, force, vacuum mask, the order of the
 * reference. With pressure, base is the face means of the raised cells in
 * work row 2, and grad_coef times them the face enthalpy.
 *
 * The force field is (alpha*delta) * C / center with C the running
 * integral of max(rho, 0) * s**(N-1), accumulated in the order of
 * np.cumsum, in one scalar pass: a cell's products and division run in the
 * shadow of the sum's add chain. Without a field the term is skipped, not
 * added as +0.0, which would turn a -0.0 tendency into +0.0.
 *
 * Returns -1, or the first non-finite tendency as cell (density) or
 * n + cell (velocity), density scanned first. */
CLONED static int64_t cells(const struct stage *s, const double *restrict rho, double rho_floor,
                            const double *restrict base, double *out)
{
    int64_t n = s->n;
    double dr = s->dr, gc = s->grad_coef, fc = s->field_coef;
    const double *restrict mass = WORK(s, 0), *restrict adv = WORK(s, 1);
    const double *restrict center = s->center;
    double *restrict drho = out, *restrict dvel = out + n;
    for (int64_t i = 0; i < n; i++) {
        drho[i] = -(mass[i + 1] - mass[i]) / (center[i] * dr);
        dvel[i] = -(adv[i + 1] - adv[i]) / dr;
    }
    if (base)
        for (int64_t i = 0; i < n; i++)
            dvel[i] = dvel[i] - (gc * base[i + 1] - gc * base[i]) / dr;
    if (fc != 0.0) {
        /* C: the cells before plus the inner shell, then the whole shell */
        const double *restrict shell = s->shell, *restrict inner_shell = s->inner_shell;
        double q = np_max(rho[0], 0.0);
        double sum = q * shell[0];
        dvel[0] = dvel[0] + fc * (0.0 + q * inner_shell[0]) / center[0];
        for (int64_t i = 1; i < n; i++) {
            q = np_max(rho[i], 0.0);
            double c = sum + q * inner_shell[i];
            sum = sum + q * shell[i];
            dvel[i] = dvel[i] + fc * c / center[i];
        }
    }
    for (int64_t i = 0; i < n; i++)
        dvel[i] = rho[i] > rho_floor ? dvel[i] : 0.0;
    int64_t bad = 0;
    for (int64_t i = 0; i < 2 * n; i++)
        bad |= !(fabs(out[i]) <= DBL_MAX);
    if (!bad)
        return -1;
    for (int64_t i = 0; i < 2 * n; i++)
        if (!isfinite(out[i]))
            return i;
    return -1;
}

/* A stage's tendencies into the (2, n) block out, from the cells rho and
 * vel where they lie; no cell is copied. With pressure cell holds them
 * raised to gamma - 1 (else NULL): the sound speeds of the fluxes come from
 * those cells, and so does the face enthalpy, as their face means
 * (0**(gamma - 1) = 0 past the wall). */
CLONED static int64_t tendencies(const struct stage *s, int64_t wall, const double *rho,
                                 const double *vel, const double *cell, double rho_floor,
                                 double *out)
{
    int64_t n = s->n;
    /* the sound speeds, then the face means */
    double *face = s->pressure_const > 0.0 ? WORK(s, 2) : NULL;
    if (face)
        sound_speeds(n, s->sound_coef, cell, face);
    fluxes(n, wall, rho, vel, face, s->face_area, WORK(s, 0), WORK(s, 1));
    if (face)
        face_means(n, cell, face);
    return cells(s, rho, rho_floor, face, out);
}

/* One Runge-Kutta combination in place on the (2, n) tendencies k: k = old
 * + dt*k in the first stage (mid NULL), else (mid + dt*k)/2 + old/2 with
 * mid the first stage's (2, n) result; both fields zeroed from cell wall on. */
CLONED static void combine(const struct stage *s, int64_t wall, double dt,
                           const double *restrict rho, const double *restrict vel,
                           const double *restrict mid, double *restrict k)
{
    int64_t n = s->n;
    double *restrict k_rho = k, *restrict k_vel = k + n;
    if (mid) {
        const double *restrict mid_rho = mid, *restrict mid_vel = mid + n;
        for (int64_t i = 0; i < wall; i++) {
            k_rho[i] = (k_rho[i] * dt + mid_rho[i]) * 0.5 + 0.5 * rho[i];
            k_vel[i] = (k_vel[i] * dt + mid_vel[i]) * 0.5 + 0.5 * vel[i];
        }
    } else {
        for (int64_t i = 0; i < wall; i++) {
            k_rho[i] = k_rho[i] * dt + rho[i];
            k_vel[i] = k_vel[i] * dt + vel[i];
        }
    }
    for (int64_t i = wall; i < n; i++)
        k_rho[i] = k_vel[i] = 0.0;
}

/* The slope |v[k + 2] - v[k]| / width of the m >= 1 differences k < m, and
 * its k, as np.argmax of the slopes picks it: the first NaN, else the first
 * largest. From d, the largest difference |v[k + 2] - v[k]| that is not
 * NaN, and whether one may be NaN. The width, 2 dr, lies in (0, DBL_MAX]
 * (stage() refuses any other dr), so a slope is NaN where its difference
 * is, and the division rounds monotonically: the largest slope is
 * q = d / width, first at the first difference that gives q. Each such
 * difference exceeds p * width, p the double below q, so it is at least the
 * double below that product rounded: blocks of 32 differences below that
 * bound are passed over without a division. */
CLONED static int64_t first_slope(int64_t m, const double *restrict v, double width, double d,
                                  int nan, double *value)
{
    int64_t i = 0;
    for (; nan && i < m; i++)
        if (isnan(v[i + 2] - v[i])) {
            *value = fabs(v[i + 2] - v[i]) / width;
            return i;
        }
    double q = d / width, least = nextafter(nextafter(q, -INFINITY) * width, -INFINITY);
    for (i = 0; i < m; i++) {
        for (; i % 32 == 0 && i + 32 <= m; i += 32) {
            mask over = {0, 0, 0, 0};
            for (int u = 0; u < 32; u += 4) {
                lanes hi, lo;
                memcpy(&hi, v + i + u + 2, sizeof hi);
                memcpy(&lo, v + i + u, sizeof lo);
                over |= ABS(hi - lo) >= least;
            }
            if (ANY(over))
                break;
        }
        double a = fabs(v[i + 2] - v[i]);
        if (a >= least && a / width == q)
            break;
    }
    *value = q;
    return i;
}

/* What a run reads of a state: its least density, as np.minimum folds it
 * from the first cell (np.min's SIMD blocks may return another zero); its
 * wave speed, np.max of |V| + c: the first NaN, else the largest; and its
 * steepest slope |v[i + 2] - v[i]| / (2 dr) and center cell i + 1, as
 * np.argmax picks them, or (0, 0) below 3 cells. */
struct facts {
    double lowest, speed, slope;
    int64_t cell;
};

/* |V| + sqrt(sc * cell) of cell i, or |V| where cell is NULL (dust) */
static inline double wave(const double *vel, const double *cell, double sc, int64_t i)
{
    return cell ? fabs(vel[i]) + sqrt(sc * cell[i]) : fabs(vel[i]);
}

/* The facts of the n cells rho and vel in one pass: independent chains of
 * lanes, two sets each, whose latencies overlap, carry the least rho, the
 * largest speed and the largest difference of each residue mod 8; a sum
 * turns NaN with any NaN cell (a NaN in vel makes its difference NaN), and
 * each field is then searched again. With the cells raised to gamma - 1 the
 * speed lanes carry |V| + c, and join the sum; dust's carry |V|. step_facts
 * calls this twice, cell NULL in one call, so each law runs a loop of its
 * own. */
static inline __attribute__((always_inline)) struct facts
facts_of(const struct stage *s, const double *restrict rho, const double *restrict vel,
         const double *restrict cell)
{
    int64_t n = s->n, i = 0;
    double sc = s->sound_coef;
    lanes low = {INFINITY, INFINITY, INFINITY, INFINITY}, low2 = low, fast = -low, fast2 = -low,
          top = -low, top2 = -low, sum = {0.0, 0.0, 0.0, 0.0};
    double least = INFINITY, speed = -INFINITY, best = -INFINITY;
    for (; i + 8 <= n - 2; i += 8) {
        lanes r, r2, v, v2, hi, hi2;
        memcpy(&r, rho + i, sizeof r);
        memcpy(&r2, rho + i + 4, sizeof r2);
        memcpy(&v, vel + i, sizeof v);
        memcpy(&v2, vel + i + 4, sizeof v2);
        memcpy(&hi, vel + i + 2, sizeof hi);
        memcpy(&hi2, vel + i + 6, sizeof hi2);
        lanes a = ABS(hi - v), a2 = ABS(hi2 - v2);
        v = ABS(v);
        v2 = ABS(v2);
        if (cell) {
            for (int q = 0; q < 4; q++) {
                v[q] += sqrt(sc * cell[i + q]);
                v2[q] += sqrt(sc * cell[i + 4 + q]);
            }
            sum += v + v2;
        }
        LOWER(low, r);
        LOWER(low2, r2);
        RAISE(fast, v);
        RAISE(fast2, v2);
        RAISE(top, a);
        RAISE(top2, a2);
        sum += (r + r2) + (a + a2);
    }
    /* the lanes, read one by one through the work rows: read so in
     * registers, they make the compiler split each chain into scalars */
    double *lane = WORK(s, 0);
    memcpy(lane, &low, sizeof low);
    memcpy(lane + 4, &low2, sizeof low2);
    memcpy(lane + 8, &fast, sizeof fast);
    memcpy(lane + 12, &fast2, sizeof fast2);
    memcpy(lane + 16, &top, sizeof top);
    memcpy(lane + 20, &top2, sizeof top2);
    int found = ANY(sum != sum);
    for (int q = 0; q < 8; q++) {
        least = lane[q] < least ? lane[q] : least;
        speed = lane[q + 8] > speed ? lane[q + 8] : speed;
        best = lane[q + 16] > best ? lane[q + 16] : best;
    }
    for (int64_t j = i; j < n - 2; j++) {
        double a = fabs(vel[j + 2] - vel[j]);
        found |= isnan(a);
        best = a > best ? a : best;
    }
    for (; i < n; i++) {
        double c = wave(vel, cell, sc, i);
        least = rho[i] < least ? rho[i] : least;
        speed = c > speed ? c : speed;
        found |= isnan(rho[i]) | isnan(c);
    }
    struct facts out = {least, speed, 0.0, 0};
    for (i = 0; found && i < n && !isnan(rho[i]); i++)
        ;
    if (found && i < n)
        out.lowest = rho[i];
    else if (least == 0.0) {
        for (i = n - 1; rho[i] != 0.0; i--)
            ;
        out.lowest = rho[i];
    }
    for (i = 0; found && i < n; i++)
        if (isnan(wave(vel, cell, sc, i))) {
            out.speed = wave(vel, cell, sc, i);
            break;
        }
    if (n > 2)
        out.cell = first_slope(n - 2, vel, 2.0 * s->dr, best, found, &out.slope) + 1;
    return out;
}

/* The facts of a state, from its cells raised to gamma - 1 where the law
 * raises them (K > 0), else with cell NULL. */
CLONED static struct facts step_facts(const struct stage *s, const double *rho, const double *vel,
                                      const double *cell)
{
    return cell ? facts_of(s, rho, vel, cell) : facts_of(s, rho, vel, NULL);
}

/* The sums of up to 128 cells from lo in the blocked pairwise order of
 * numpy's float64 add reduction: in order below 8 terms, from -0.0, which
 * leaves the first term as it is; else eight interleaved accumulators,
 * combined as a balanced tree, then the tail in order. The four summands
 * of a cell, each product in the operand order of its numpy expression,
 * with w = r**(N-1) and cell raised to gamma (NULL for dust): r*V; rho*w;
 * (rho*V**2 [+ 2*(K*cell)])*w; V**2*2*r. */
CLONED static void block_sums(const struct stage *s, const double *restrict rho,
                              const double *restrict vel, const double *restrict cell,
                              int64_t lo, int64_t n, double out[4])
{
    double t[4][128];
    const double *restrict r = s->r + lo, *restrict w = s->center + lo;
    double k = s->pressure_const;
    rho += lo;
    vel += lo;
    cell = cell ? cell + lo : NULL;
    for (int64_t i = 0; i < n; i++) {
        double v2 = vel[i] * vel[i];
        t[0][i] = r[i] * vel[i];
        t[1][i] = rho[i] * w[i];
        t[2][i] = rho[i] * v2;
        t[3][i] = v2 * 2.0 * r[i];
    }
    if (cell)
        for (int64_t i = 0; i < n; i++)
            t[2][i] += 2.0 * (k * cell[i]);
    for (int64_t i = 0; i < n; i++)
        t[2][i] *= w[i];
    for (int q = 0; q < 4; q++) {
        const double *a = t[q];
        if (n < 8) {
            double sum = -0.0;
            for (int64_t i = 0; i < n; i++)
                sum += a[i];
            out[q] = sum;
            continue;
        }
        double acc[8];
        for (int j = 0; j < 8; j++)
            acc[j] = a[j];
        int64_t i = 8;
        for (; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                acc[j] += a[i + j];
        double sum =
            ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
        for (; i < n; i++)
            sum += a[i];
        out[q] = sum;
    }
}

/* The four sums over cells lo .. lo + n - 1 in numpy's pairwise order:
 * block_sums up to 128 terms; above 128 the two halves, split at n/2
 * rounded down to a multiple of 8, and their sum. */
CLONED static void pairwise(const struct stage *s, const double *rho, const double *vel,
                            const double *cell, int64_t lo, int64_t n, double out[4])
{
    if (n <= 128) {
        block_sums(s, rho, vel, cell, lo, n, out);
        return;
    }
    int64_t half = n / 2;
    half -= half % 8;
    double tail[4];
    pairwise(s, rho, vel, cell, lo, half, out);
    pairwise(s, rho, vel, cell, lo + half, n - half, tail);
    for (int q = 0; q < 4; q++)
        out[q] += tail[q];
}

/* np.sum of each summand of block_sums over the cells into out[4]. An add
 * reduction starts from its identity, so each sum is 0.0 + the pairwise
 * sum: +0.0, not -0.0, when every term is -0.0. No order fixes one bit:
 * where NaNs of both signs meet in one add, IEEE 754 leaves open which the
 * result keeps, so a NaN sum's sign may differ from numpy's; the files
 * print both as nan. */
CLONED static void row_sums(const struct stage *s, const double *rho, const double *vel,
                            const double *cell, double *out)
{
    pairwise(s, rho, vel, cell, 0, s->n, out);
    for (int q = 0; q < 4; q++)
        out[q] = 0.0 + out[q];
}

/* The clone the loader chose: the resolver of every CLONED function picks
 * the first target of CLONE_TARGETS the CPU supports, else the baseline. */
CLONED static const char *kernel_target(void)
{
    CLONE_TARGETS(RUNS)
    return "default";
}


/* The Python binding: one METH_FASTCALL function per entry, which takes
 * the entry's arguments in order, the struct stage as the capsule stage()
 * returned and each array as a buffer: a state's rho and vel of shape (n),
 * the cells the caller raised (n), read only where the law raises them, and
 * a (2, n) block; finish_step takes the numpy power too, which it calls.
 * Each goes one way: open_call() checks the argument
 * count and the stage capsule, whose n the arrays take; array() checks each
 * buffer and holds it in the struct call; done() releases what the call
 * holds, on every failure as on success. stage() takes no stage: its first
 * array sets n; format_rows takes a table block alone. Anything else, a
 * read-only output and a wall outside [0, n] raise ValueError before any
 * value is written. The entry then runs with the GIL held, which
 * finish_step lets go only in the power it calls, between two passes of
 * which none reads what another left in the work rows: so a stage's work
 * rows serve one pass at a time, whichever thread makes it. facts,
 * row_sums and format_rows take no out-parameter: they return their
 * results. */

/* One call of an entry: its name, its stage and n, and the buffers it holds. */
struct call {
    const char *entry;
    const struct stage *s;
    Py_ssize_t n;      /* below 0: the first array sets it, to -n or more */
    Py_buffer view[6]; /* the most held: finish_step's four arrays and two
                          raised rows */
    int count;
};

/* A stage capsule's block: the stage, the buffers it reads, its work rows. */
struct owned {
    struct stage s;
    struct call c;
    double work[];
};

#define STAGE "radialblowup.stage"

/* Releases the buffers c holds and returns result. */
static PyObject *done(struct call *c, PyObject *result)
{
    while (c->count > 0)
        PyBuffer_Release(&c->view[--c->count]);
    return result;
}

/* Opens c, the call of entry with nargs of args, which takes want of them:
 * first a stage capsule, whose n the arrays take, when least is 0, else
 * arrays of n >= least cells, n from the first. 0, else -1 with TypeError
 * for another count or ValueError for anything but a capsule of stage(). */
static int open_call(struct call *c, const char *entry, PyObject *const *args, Py_ssize_t nargs,
                     Py_ssize_t want, Py_ssize_t least)
{
    c->entry = entry;
    c->s = NULL;
    c->n = -least;
    c->count = 0;
    if (nargs != want) {
        PyErr_Format(PyExc_TypeError, "%s takes %zd arguments, got %zd", entry, want, nargs);
        return -1;
    }
    if (least)
        return 0;
    if (!PyCapsule_IsValid(args[0], STAGE)) {
        PyErr_Format(PyExc_ValueError, "%s: stage must be a capsule of stage()", entry);
        return -1;
    }
    c->s = &((struct owned *)PyCapsule_GetPointer(args[0], STAGE))->s;
    c->n = c->s->n;
    return 0;
}

/* The most rows and columns of a table block that format_rows takes. */
#define ROWS 1024
#define COLUMNS 8

/* The shapes of array(): the cells (n), the faces (n + 1), a block (2, n),
 * and a table block of 1 to ROWS rows and 1 to COLUMNS columns. */
enum shape { CELLS, FACES, BLOCK, TABLE };

/* The data of obj, a C-contiguous float64 buffer of the call's shape, and
 * writable if asked, which c then holds; else NULL with ValueError. */
static double *array(struct call *c, PyObject *obj, enum shape shape, int writable,
                     const char *name)
{
    Py_buffer *v = &c->view[c->count];
    int ndim = shape >= BLOCK ? 2 : 1;
    Py_ssize_t n = c->n + (shape == FACES);
    char form[64];
    if (PyObject_GetBuffer(obj, v, PyBUF_RECORDS_RO) == 0) {
        if (v->ndim == ndim && v->itemsize == sizeof(double) && v->format
            && strcmp(v->format, "d") == 0 && PyBuffer_IsContiguous(v, 'C')
            && !(writable && v->readonly)
            && (shape == TABLE ? v->shape[0] >= 1 && v->shape[0] <= ROWS && v->shape[1] >= 1
                                     && v->shape[1] <= COLUMNS
                               : (n < 0 || v->shape[ndim - 1] == n)
                                     && (shape != BLOCK || v->shape[0] == 2))) {
            c->count++;
            if (n >= 0 || shape == TABLE)
                return v->buf;
            /* the first array of stage() sets n */
            c->n = v->shape[0];
            if (c->n >= -n)
                return v->buf;
            PyErr_Format(PyExc_ValueError, "%s: %s must have %zd or more cells, got %zd", c->entry,
                         name, -n, c->n);
            return NULL;
        }
        PyBuffer_Release(v);
    } else {
        PyErr_Clear();
    }
    if (shape == TABLE)
        PyOS_snprintf(form, sizeof form, "(1 to %d, 1 to %d)", ROWS, COLUMNS);
    else if (n < 0)
        PyOS_snprintf(form, sizeof form, "(n,)");
    else if (shape == BLOCK)
        PyOS_snprintf(form, sizeof form, "(2, %zd)", n);
    else
        PyOS_snprintf(form, sizeof form, "(%zd,)", n);
    PyErr_Format(PyExc_ValueError, "%s: %s must be a %sC-contiguous float64 array of shape %s",
                 c->entry, name, writable ? "writable " : "", form);
    return NULL;
}

/* The cells the caller raised, obj, into *cell if the law reads them (K > 0),
 * else NULL with obj unread: 0, else -1 with ValueError. */
static int raised_cells(struct call *c, PyObject *obj, const double **cell)
{
    *cell = NULL;
    return c->s->pressure_const > 0.0 && !(*cell = array(c, obj, CELLS, 0, "cell")) ? -1 : 0;
}

/* The float obj into *x: 0, else -1 with an exception set. */
static int number(PyObject *obj, double *x)
{
    *x = PyFloat_AsDouble(obj);
    return *x == -1.0 && PyErr_Occurred() ? -1 : 0;
}

/* A wall index in [0, n], or -1 with an exception set. */
static int64_t wall_of(const struct call *c, PyObject *obj)
{
    long long wall = PyLong_AsLongLong(obj);
    if (wall == -1 && PyErr_Occurred())
        return -1;
    if (wall < 0 || wall > c->n) {
        PyErr_Format(PyExc_ValueError, "%s: wall must be in [0, %lld], got %lld", c->entry,
                     (long long)c->n, wall);
        return -1;
    }
    return wall;
}

static void free_stage(PyObject *capsule)
{
    struct owned *o = PyCapsule_GetPointer(capsule, STAGE);
    done(&o->c, NULL);
    PyMem_Free(o);
}

/* stage(dr, K, gamma, field_coef, r, face_area, shell, inner_shell, center)
 * -> a capsule that owns the struct stage of a grid of n = len(r) cells,
 * n >= 2, its work rows and the buffers it reads: r and the weights of
 * shape (n) and face_area (n + 1). A dr outside (0, DBL_MAX / 2] raises
 * ValueError: the slope width 2 dr must be a positive double. */
static PyObject *py_stage(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    struct call c;
    const double *r, *face_area, *shell, *inner_shell, *center;
    double dr, k, g, fc;
    struct owned *o;
    PyObject *capsule;
    (void)self;
    if (open_call(&c, "stage", args, nargs, 9, 2) < 0 || number(args[0], &dr) < 0
        || number(args[1], &k) < 0 || number(args[2], &g) < 0 || number(args[3], &fc) < 0
        || !(r = array(&c, args[4], CELLS, 0, "r"))
        || !(face_area = array(&c, args[5], FACES, 0, "face_area"))
        || !(shell = array(&c, args[6], CELLS, 0, "shell"))
        || !(inner_shell = array(&c, args[7], CELLS, 0, "inner_shell"))
        || !(center = array(&c, args[8], CELLS, 0, "center")))
        return done(&c, NULL);
    if (!(dr > 0.0 && dr <= DBL_MAX / 2)) {
        PyErr_SetString(PyExc_ValueError, "stage: dr must be in (0, DBL_MAX / 2]");
        return done(&c, NULL);
    }
    Py_ssize_t work = (k > 0.0 ? 3 : 2) * (c.n + 4);
    if (!(o = PyMem_Malloc(sizeof *o + (work > 24 ? work : 24) * sizeof(double))))
        return done(&c, PyErr_NoMemory());
    o->s = (struct stage){
        .n = c.n, .dr = dr, .sound_coef = k * g,
        /* pressure force per unit mass as an exact enthalpy gradient,
         * K*g/(g-1) * d(rho**(g-1))/dr: bounded at the vacuum edge */
        .grad_coef = k * g / (g - 1.0), .field_coef = fc, .pressure_const = k,
        .exponent = g - 1.0,
        .face_area = face_area, .shell = shell, .inner_shell = inner_shell, .center = center,
        .r = r, .work = o->work,
    };
    /* moving a Py_buffer is safe: CPython's and numpy's exporters key
     * nothing on its address */
    o->c = c;
    if (!(capsule = PyCapsule_New(o, STAGE, free_stage))) {
        done(&o->c, NULL);
        PyMem_Free(o);
    }
    return capsule;
}

/* tendencies(stage, wall, rho, vel, cell, rho_floor, out) -> first
 * non-finite index or -1 */
static PyObject *py_tendencies(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    struct call c;
    const double *rho, *vel, *cell;
    double *out, rho_floor;
    int64_t wall;
    (void)self;
    if (open_call(&c, "tendencies", args, nargs, 7, 0) < 0 || number(args[5], &rho_floor) < 0
        || (wall = wall_of(&c, args[1])) < 0 || !(rho = array(&c, args[2], CELLS, 0, "rho"))
        || !(vel = array(&c, args[3], CELLS, 0, "vel")) || raised_cells(&c, args[4], &cell) < 0
        || !(out = array(&c, args[6], BLOCK, 1, "out")))
        return done(&c, NULL);
    return done(&c, PyLong_FromLongLong(tendencies(c.s, wall, rho, vel, cell, rho_floor, out)));
}

/* The facts f as a tuple: (least density, wave speed, (steepest slope,
 * its center cell)) */
static PyObject *facts_value(struct facts f)
{
    return Py_BuildValue("(dd(dL))", f.lowest, f.speed, f.slope, (long long)f.cell);
}

/* The density row of the block obj raised by the numpy power fn, as
 * fn(row, gamma - 1) returns it, held by c; *kept, unless NULL, takes a
 * reference to it. NULL with an exception set if fn fails or returns
 * anything but n cells. */
static const double *raised_row(struct call *c, PyObject *fn, PyObject *obj, PyObject **kept)
{
    PyObject *row = PySequence_GetItem(obj, 0), *raised;
    const double *cell;
    if (!row)
        return NULL;
    raised = PyObject_CallFunction(fn, "Od", row, c->s->exponent);
    Py_DECREF(row);
    if (!raised)
        return NULL;
    cell = array(c, raised, CELLS, 0, "cell");
    if (cell && kept)
        *kept = raised;
    else
        Py_DECREF(raised);
    return cell;
}

/* finish_step(stage, wall, dt, rho, vel, k, rho_floor, out, power) -> (the
 * first non-finite index of the second stage's tendencies or -1, the facts
 * of the new state or None, its raised cells or None): the rest of a step
 * from the state rho, vel after its first stage's tendencies k. The first
 * combination in place on k; the second stage's tendencies of k into out;
 * the second combination in place on out, which then holds the new state;
 * and that state's facts. Nothing is done past a non-finite tendency. Where
 * the law raises its cells (K > 0), power(row, gamma - 1), the
 * numpy power, raises those of k for the second stage and those of out for
 * the facts, and the second is returned. The arguments are checked before
 * a value is written; a failing power, or one that returns anything but n
 * cells, raises after k is written. */
static PyObject *py_finish_step(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    struct call c;
    const double *rho, *vel, *cell = NULL;
    double *k, *out, dt, rho_floor;
    int64_t wall, bad;
    PyObject *raised = Py_None, *facts, *result;
    (void)self;
    if (open_call(&c, "finish_step", args, nargs, 9, 0) < 0 || number(args[2], &dt) < 0
        || number(args[6], &rho_floor) < 0 || (wall = wall_of(&c, args[1])) < 0
        || !(rho = array(&c, args[3], CELLS, 0, "rho"))
        || !(vel = array(&c, args[4], CELLS, 0, "vel"))
        || !(k = array(&c, args[5], BLOCK, 1, "k")) || !(out = array(&c, args[7], BLOCK, 1, "out")))
        return done(&c, NULL);
    combine(c.s, wall, dt, rho, vel, NULL, k);
    if (c.s->pressure_const > 0.0 && !(cell = raised_row(&c, args[8], args[5], NULL)))
        return done(&c, NULL);
    bad = tendencies(c.s, wall, k, k + c.n, cell, rho_floor, out);
    if (bad >= 0)
        return done(&c, Py_BuildValue("(LOO)", (long long)bad, Py_None, Py_None));
    combine(c.s, wall, dt, rho, vel, k, out);
    if (c.s->pressure_const > 0.0 && !(cell = raised_row(&c, args[8], args[7], &raised)))
        return done(&c, NULL);
    facts = facts_value(step_facts(c.s, out, out + c.n, cell));
    result = facts ? Py_BuildValue("(LOO)", -1LL, facts, raised) : NULL;
    Py_XDECREF(facts);
    if (raised != Py_None)
        Py_DECREF(raised);
    return done(&c, result);
}

/* facts(stage, rho, vel, cell) -> the facts of a state */
static PyObject *py_facts(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    struct call c;
    const double *rho, *vel, *cell;
    (void)self;
    if (open_call(&c, "facts", args, nargs, 4, 0) < 0
        || !(rho = array(&c, args[1], CELLS, 0, "rho"))
        || !(vel = array(&c, args[2], CELLS, 0, "vel")) || raised_cells(&c, args[3], &cell) < 0)
        return done(&c, NULL);
    return done(&c, facts_value(step_facts(c.s, rho, vel, cell)));
}

/* row_sums(stage, rho, vel, cell) -> the four sums as a tuple */
static PyObject *py_row_sums(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    struct call c;
    const double *rho, *vel, *cell;
    double out[4];
    (void)self;
    if (open_call(&c, "row_sums", args, nargs, 4, 0) < 0
        || !(rho = array(&c, args[1], CELLS, 0, "rho"))
        || !(vel = array(&c, args[2], CELLS, 0, "vel")) || raised_cells(&c, args[3], &cell) < 0)
        return done(&c, NULL);
    row_sums(c.s, rho, vel, cell, out);
    return done(&c, Py_BuildValue("(dddd)", out[0], out[1], out[2], out[3]));
}

/* Room for one value of format_rows and its separator: the longest text of
 * '%.17g', such as -2.2250738585072014e-308, has 24 characters. */
#define FIELD 32

#ifdef __SIZEOF_INT128__
__extension__ typedef unsigned __int128 u128;

/* 5**q for q = 0 .. 27; 5**27 < 2**63 */
static const uint64_t POW5[28] = {
    1u, 5u, 25u, 125u, 625u, 3125u, 15625u, 78125u, 390625u, 1953125u, 9765625u, 48828125u,
    244140625u, 1220703125u, 6103515625u, 30517578125u, 152587890625u, 762939453125u,
    3814697265625u, 19073486328125u, 95367431640625u, 476837158203125u, 2384185791015625u,
    11920928955078125u, 59604644775390625u, 298023223876953125u, 1490116119384765625u,
    7450580596923828125u,
};

/* The text of '%.17g' % x into out and its length, for a normal x whose
 * decimal exponent k = floor(log10 |x|) lies in [-11, 16]; else 0 with
 * nothing written. With |x| = m * 2**e, m < 2**53, and q = 16 - k in
 * [0, 27], x * 10**q = m * 5**q * 2**(e + q) is exact in 128 bits; its
 * 17 digits d come from a shift that rounds half to even on the exact
 * remainder, as dtoa's correctly rounded result does. k starts from the
 * binary exponent, floor((e + 52) * log10 2) (the right shift of a
 * negative product is arithmetic in gcc and clang), and moves by one when
 * d leaves [10**16, 10**17) before rounding. Rounding never carries d to
 * 10**17: the largest double under each 10**(k + 1) of the range lies more
 * than half a unit of the 17th digit under it. The text takes %g's layout:
 * fixed for k >= -4, else an exponent of two digits with its sign, and no
 * trailing zeros or bare point. */
static size_t seventeen_digits(double x, char *out)
{
    uint64_t bits, m, d;
    int e, k, q, shift, last, lead;
    u128 n;
    char digits[17], *p = out;
    memcpy(&bits, &x, sizeof bits);
    e = (int)(bits >> 52 & 0x7FF);
    if (e == 0 || e == 0x7FF) /* zeros, subnormals, infinities and NaN */
        return 0;
    m = (bits & ((UINT64_C(1) << 52) - 1)) | UINT64_C(1) << 52;
    e -= 1075;
    k = ((e + 52) * 78913) >> 18;
    for (;;) {
        q = 16 - k;
        if (q < 0 || q > 27)
            return 0;
        n = (u128)m * POW5[q];
        shift = -(e + q); /* below 70: n < 2**116 and d > 10**15 */
        d = (uint64_t)(shift > 0 ? n >> shift : n << -shift);
        if (d < UINT64_C(10000000000000000))
            k--;
        else if (d >= UINT64_C(100000000000000000))
            k++;
        else
            break;
    }
    if (shift > 0) {
        u128 rest = n & (((u128)1 << shift) - 1), half = (u128)1 << (shift - 1);
        d += rest > half || (rest == half && (d & 1));
    }
    for (int i = 16; i >= 0; i--, d /= 10)
        digits[i] = (char)('0' + d % 10);
    for (last = 16; last > 0 && digits[last] == '0'; last--)
        ;
    if (bits >> 63)
        *p++ = '-';
    /* the digits before the point: 1 with an exponent, none below 1 */
    lead = k < -4 ? 1 : k + 1;
    if (lead <= 0) { /* "0." and -lead zeros */
        memcpy(p, "0.000", 2 - lead);
        p += 2 - lead;
        memcpy(p, digits, last + 1);
        p += last + 1;
    } else {
        memcpy(p, digits, lead);
        p += lead;
        if (last >= lead) {
            *p++ = '.';
            memcpy(p, digits + lead, last + 1 - lead);
            p += last + 1 - lead;
        }
    }
    if (k < -4) {
        *p++ = 'e';
        *p++ = '-';
        *p++ = (char)('0' + -k / 10);
        *p++ = (char)('0' + -k % 10);
    }
    return p - out;
}
#else
/* no 128-bit type: every value goes to PyOS_double_to_string */
static size_t seventeen_digits(double x, char *out)
{
    (void)x;
    (void)out;
    return 0;
}
#endif

/* format_rows(block) -> bytes: each row of a (rows, k) table block as one
 * line, its values tab-separated, each in the text of '%.17g' % value.
 * seventeen_digits writes the values of decimal exponent -11 to 16; every
 * other value goes through PyOS_double_to_string(x, 'g', 17, 0, NULL), the
 * call that formatting makes, so nan, inf and the sign of a zero come out as
 * Python prints them, and no locale is read. That function allocates each
 * text with PyMem_Malloc, which needs the GIL every entry holds. */
static PyObject *py_format_rows(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    struct call c;
    const double *x;
    PyObject *text;
    char *start, *p;
    Py_ssize_t k, count;
    (void)self;
    if (open_call(&c, "format_rows", args, nargs, 1, 1) < 0
        || !(x = array(&c, args[0], TABLE, 0, "block")))
        return done(&c, NULL);
    k = c.view[0].shape[1];
    count = c.view[0].shape[0] * k;
    if (!(text = PyBytes_FromStringAndSize(NULL, count * FIELD)))
        return done(&c, NULL);
    start = p = PyBytes_AS_STRING(text);
    for (Py_ssize_t i = 0; i < count; i++) {
        size_t length = seventeen_digits(x[i], p);
        if (!length) {
            char *digits = PyOS_double_to_string(x[i], 'g', 17, 0, NULL);
            if (!digits) {
                Py_DECREF(text);
                return done(&c, NULL);
            }
            length = strlen(digits);
            if (length >= FIELD) {
                PyMem_Free(digits);
                Py_DECREF(text);
                PyErr_Format(PyExc_RuntimeError, "format_rows: %zu characters for one value",
                             length);
                return done(&c, NULL);
            }
            memcpy(p, digits, length);
            PyMem_Free(digits);
        }
        p += length;
        *p++ = (i + 1) % k ? '\t' : '\n';
    }
    /* on failure text is NULL with MemoryError set */
    _PyBytes_Resize(&text, p - start);
    return done(&c, text);
}

/* kernel_target() -> the clone's name */
static PyObject *py_kernel_target(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    struct call c;
    (void)self;
    if (open_call(&c, "kernel_target", args, nargs, 0, 1) < 0)
        return NULL;
    return PyUnicode_FromString(kernel_target());
}

#define ENTRY(name, doc) {#name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL, doc}

static PyMethodDef entries[] = {
    ENTRY(stage, "stage(dr, K, gamma, field_coef, r, face_area, shell, inner_shell, center) "
                 "-> stage"),
    ENTRY(tendencies, "tendencies(stage, wall, rho, vel, cell, rho_floor, out) -> int"),
    ENTRY(finish_step, "finish_step(stage, wall, dt, rho, vel, k, rho_floor, out, power) "
                       "-> (int, None or tuple, None or array)"),
    ENTRY(facts, "facts(stage, rho, vel, cell) -> (float, float, (float, int))"),
    ENTRY(row_sums, "row_sums(stage, rho, vel, cell) -> (float, float, float, float)"),
    ENTRY(format_rows, "format_rows(block) -> bytes"),
    ENTRY(kernel_target, "kernel_target() -> str"),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "kernel", "The compiled stage kernel of radialblowup.", 0, entries,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit_kernel(void);

PyMODINIT_FUNC PyInit_kernel(void)
{
    return PyModuleDef_Init(&kernel_module);
}
