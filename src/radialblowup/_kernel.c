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
 * value. The force's running sum and the scans for the first non-finite cell
 * and the first steepest slope stay scalar; the min, max and argmax
 * reductions of the facts keep lanes of partial extremes that give the
 * result of the scalar chain exactly. On x86-64 ELF with glibc, CLONED
 * builds each entry and the static functions it calls for every target of
 * CLONE_TARGETS (AVX-512F and AVX2) and for the baseline, and the dynamic
 * loader picks the widest the CPU supports once per process (an ifunc);
 * kernel_target() names it. The targets are plain ISA levels with generic
 * tuning (arch=icelake-server and later prefer 256-bit vectors). AVX-512F
 * has FMA, so -ffp-contract=off matters in its clones as well.
 *
 * A stage built for two threads splits the passes of each entry that steps
 * a state (tendencies, finish_step, facts) at cell n / 2: the calling
 * thread (part 0) takes the cells below, one helper thread (part 1) the
 * rest. Within a stage each part makes every face and sound speed its
 * cells read, in work slots of its own, so both make face n / 2 and no
 * barrier parts sound_speeds, fluxes, face_means and cells. A spin barrier
 * (meet) sits only where a pass reads what the other part wrote: the
 * stage after the first combination, whose stencils reach two cells
 * across the split; part 1's cells after the force, whose running sum part
 * 0 makes alone, first, into the velocity row; and each part's scan for
 * the first steepest slope after both partial facts, whose extremes it
 * needs. The facts of the parts merge in scan order, part 0 first: the
 * first NaN, the first steepest slope, the last of equal zeros, as one
 * pass folds them. Each cell's arithmetic is the same whichever thread
 * does it, so one thread and two give the same bits. The helper is a
 * pthread started on first use, which never touches Python; the calling
 * thread holds the GIL throughout a split job, and no entry calls Python
 * while the helper works. Idle, the helper spins for IDLE_SPIN_NS, then
 * sleeps on a condition variable. Before a fork the helper is stopped and
 * joined, so parent and child each start their own on next use, and a
 * fork never copies a process of two threads.
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
#include <pthread.h>
#include <sched.h>
#include <stdint.h>
#include <string.h>
#include <time.h>

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
    double *work;        /* scratch (2, n + 8), (3, n + 8) with pressure: the
                            fluxes, the sound speeds and the face means; see
                            WORK */
    double *lanes;       /* the 24 lanes of each part of the facts, part 0's
                            first */
    int threads;         /* 1, or 2 to split each pass (see the header) */
};

/* Row k of the work scratch as part p of a split pass indexes it. Rows 0
 * and 1 hold the mass and advection fluxes of a stage at its faces. With
 * pressure, row 2 holds the sound speeds of cells -1 .. n (cell i at i + 2)
 * up to the fluxes, then the face means. Part 1 indexes each row 4 further
 * on, so the faces and speeds both halves make at the split, and part 0's
 * speeds and part 1's means, never share a slot: part 0 writes none past
 * slot n / 2 + 3, and part 1 none before slot n / 2 + 4. No row holds a
 * copy of a cell: a stage reads rho, V and the raised cells where they
 * lie. */
#define WORK(s, k, p) ((s)->work + (k) * ((s)->n + 8) + 4 * (p))

/* np.maximum: NaN propagates and a tie returns b, so np_max(-0.0, 0.0) is
 * +0.0 */
static inline double np_max(double a, double b) { return (isnan(a) || a > b) ? a : b; }

static inline int64_t at_least(int64_t a, int64_t b) { return a > b ? a : b; }
static inline int64_t at_most(int64_t a, int64_t b) { return a < b ? a : b; }

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

/* What a run reads of a state: its least density, as np.minimum folds it
 * from the first cell (np.min's SIMD blocks may return another zero); its
 * wave speed, np.max of |V| + c: the first NaN, else the largest; and its
 * steepest slope |v[i + 2] - v[i]| / (2 dr) and center cell i + 1, as
 * np.argmax picks them, or (0, 0) below 3 cells. */
struct facts {
    double lowest, speed, slope;
    int64_t cell;
};

/* The facts of one part of the cells before the scans that finish them:
 * the least density and largest speed and difference that are not NaN,
 * and whether a NaN may lie among them. */
struct partial {
    double least, speed, best;
    int found;
};

/* The passes of a job, in the order they run. */
enum { FIRST = 1, STAGE = 2, SECOND = 4, FACTS = 8 };

/* What one part of a job finds, on a cache line of its own. */
struct found {
    int64_t bad[2];   /* the first non-finite density and velocity tendency
                         cell, or -1 */
    struct partial facts;
    int64_t slope[2]; /* the first NaN difference and the first difference
                         of the steepest slope, or -1 */
} __attribute__((aligned(64)));

/* One entry's passes over a state, which the calling thread (part 0) and,
 * with count 2, the helper (part 1) each make on their part of the cells:
 * FIRST combines the state rho, vel and the first stage's tendencies k into
 * the stage's state in k; STAGE makes the tendencies of k (or of rho, vel
 * without k) into out; SECOND combines them into the new state in out; FACTS
 * reads out (or rho, vel without out). Each part writes its own `found`. */
struct job {
    const struct stage *s;
    int passes, count;
    int64_t wall;
    double dt, rho_floor;
    const double *rho, *vel;
    const double *cell; /* the raised cells the job reads, NULL for dust */
    double *k, *out;
    struct found part[2];
};

/* A counter alone on its cache line, which one thread writes. */
struct counter {
    uint64_t value;
} __attribute__((aligned(64)));

/* The helper thread of this process and what it shares with the calling
 * thread: the jobs posted, and the barriers each side has reached, over
 * every job. Only a thread holding `use` posts a job, starts or stops the
 * helper; the fork handlers hold it across a fork. */
static struct {
    struct counter posted, arrived[2];
    int sleeping __attribute__((aligned(64))); /* the helper waits on `wake` */
    struct job *job;
    int stop, running, hooked;
    uint64_t seen; /* the jobs posted before the helper started */
    pthread_t thread;
    pthread_mutex_t use, lock;
    pthread_cond_t wake;
} team = {.use = PTHREAD_MUTEX_INITIALIZER, .lock = PTHREAD_MUTEX_INITIALIZER,
          .wake = PTHREAD_COND_INITIALIZER};

/* How long an idle helper spins for the next job before it sleeps, in
 * nanoseconds: longer than the Python between two kernel calls of a run,
 * so a run never waits for the helper to wake. */
#define IDLE_SPIN_NS 100000
/* The pauses a thread spins at a barrier before it yields its CPU each
 * time it looks, for a peer that shares its CPU or was preempted */
#define MEET_SPINS 256

static inline void relax(void)
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    __asm__ __volatile__("yield");
#endif
}

/* The barrier of the parts of j: part self reaches it, and, if it waits,
 * waits for the other to reach it too. Each side's count of barriers
 * reached is its own counter, so two parts that make the same passes meet
 * at the same count, and a part that passes one without waiting only tells
 * the other that what it wrote before is there. */
static void meet(const struct job *j, int self, int waits)
{
    if (j->count < 2)
        return;
    uint64_t mine = __atomic_load_n(&team.arrived[self].value, __ATOMIC_RELAXED) + 1;
    __atomic_store_n(&team.arrived[self].value, mine, __ATOMIC_RELEASE);
    for (int spins = 0;
         waits && __atomic_load_n(&team.arrived[!self].value, __ATOMIC_ACQUIRE) < mine; spins++) {
        if (spins < MEET_SPINS)
            relax();
        else
            sched_yield();
    }
}

/* Hands j to the helper, waking it if it sleeps: the store of the count
 * and the helper's store of `sleeping`, each before the other's load,
 * leave no wake unseen. */
static void post(struct job *j)
{
    team.job = j;
    __atomic_store_n(&team.posted.value, team.posted.value + 1, __ATOMIC_SEQ_CST);
    if (__atomic_load_n(&team.sleeping, __ATOMIC_SEQ_CST)) {
        pthread_mutex_lock(&team.lock);
        pthread_cond_signal(&team.wake);
        pthread_mutex_unlock(&team.lock);
    }
}

/* The helper's wait for a job after the seen ones: the count posted. */
static uint64_t await_job(uint64_t seen)
{
    uint64_t posted;
    struct timespec start, now;
    clock_gettime(CLOCK_MONOTONIC, &start);
    for (unsigned spins = 1;; spins++) {
        if ((posted = __atomic_load_n(&team.posted.value, __ATOMIC_ACQUIRE)) != seen)
            return posted;
        relax();
        if (spins % 64 == 0) {
            clock_gettime(CLOCK_MONOTONIC, &now);
            if ((now.tv_sec - start.tv_sec) * 1000000000L + (now.tv_nsec - start.tv_nsec)
                > IDLE_SPIN_NS)
                break;
        }
    }
    pthread_mutex_lock(&team.lock);
    __atomic_store_n(&team.sleeping, 1, __ATOMIC_SEQ_CST);
    while ((posted = __atomic_load_n(&team.posted.value, __ATOMIC_SEQ_CST)) == seen)
        pthread_cond_wait(&team.wake, &team.lock);
    __atomic_store_n(&team.sleeping, 0, __ATOMIC_RELAXED);
    pthread_mutex_unlock(&team.lock);
    return posted;
}

CLONED static void part(struct job *j, int self);

/* The helper: part 1 of each job posted, until it is told to stop. */
static void *helper(void *arg)
{
    uint64_t seen = team.seen;
    (void)arg;
    for (;;) {
        seen = await_job(seen);
        if (team.stop)
            return NULL;
        struct job *j = team.job;
        part(j, 1);
        meet(j, 1, 1);
    }
}

/* Stops and joins the helper, if it runs. */
static void stop_helper(void)
{
    if (!team.running)
        return;
    team.stop = 1;
    post(NULL);
    pthread_join(team.thread, NULL);
    team.stop = team.running = 0;
}

/* Around a fork: no job is in flight, and no helper runs, in either process. */
static void before_fork(void)
{
    pthread_mutex_lock(&team.use);
    stop_helper();
}

static void after_fork(void) { pthread_mutex_unlock(&team.use); }

/* 1 once the helper runs, started here on first use in this process; 0 if
 * it cannot start, and the job then runs on one thread. */
static int helper_ready(void)
{
    if (team.running)
        return 1;
    if (!team.hooked) {
        if (pthread_atfork(before_fork, after_fork, after_fork) != 0)
            return 0;
        team.hooked = 1;
    }
    team.seen = team.posted.value;
    if (pthread_create(&team.thread, NULL, helper, NULL) != 0)
        return 0;
    team.running = 1;
    return 1;
}

/* Runs the passes of j on the calling thread and, where its stage splits
 * them, on the helper, and returns once both parts are done. */
static void run_job(struct job *j)
{
    j->count = 1;
    if (j->s->threads < 2) {
        part(j, 0);
        return;
    }
    pthread_mutex_lock(&team.use);
    if (helper_ready()) {
        j->count = 2;
        post(j);
    }
    part(j, 0);
    meet(j, 0, 1);
    pthread_mutex_unlock(&team.use);
}

/* The first non-finite tendency of j's STAGE pass as cell (density) or n +
 * cell (velocity), density first, or -1: the parts' cells ascend. */
static int64_t first_bad(const struct job *j)
{
    for (int field = 0; field < 2; field++)
        for (int p = 0; p < j->count; p++)
            if (j->part[p].bad[field] >= 0)
                return field * j->s->n + j->part[p].bad[field];
    return -1;
}

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

/* The face means of the n cells x at the faces [lo, hi) of the n + 1. */
CLONED static void face_means(int64_t n, const double *restrict x, double *restrict mean,
                              int64_t lo, int64_t hi)
{
    for (int64_t j = at_least(lo, 2); j < at_most(hi, n - 1); j++)
        mean[j] = face_mean(x + j - 2);
    for (int64_t j = 0; j <= n; j = next_edge(n, j)) {
        double e[4];
        if (j < lo || j >= hi)
            continue;
        stencil(n, x, 0, j, e);
        mean[j] = face_mean(e);
    }
}

/* The sound speeds sqrt(sound_coef * p) of the cells [lo, hi) into speed[lo
 * + 2 .. hi + 2) (cell i at i + 2), from the n raised cells p, and the
 * ghosts of the part that holds the end they lie at: the mirror ghost at the
 * origin, speed[1], is cell 0 and the ghost past the wall, speed[n + 2], has
 * density 0, whose power 0**(gamma - 1) is 0. */
CLONED static void sound_speeds(int64_t n, double sound_coef, const double *restrict p,
                                double *restrict speed, int64_t lo, int64_t hi)
{
    for (int64_t i = lo; i < hi; i++)
        speed[i + 2] = sqrt(sound_coef * p[i]);
    if (hi == n)
        speed[n + 2] = 0.0;
    if (lo == 0)
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

/* The fluxes of the n cells rho and vel at the faces [lo, hi) of the n + 1
 * into mass and adv, the mass flux weighted by face_area and closed (zero)
 * at face 0 and at faces >= wall. With pressure the sound speeds of face j
 * are those of its two cells j - 1 and j, speed[j + 1] and speed[j + 2];
 * without, speed is NULL and they are +0.0, which leaves |V| as it is
 * (never -0.0). */
CLONED static void fluxes(int64_t n, int64_t wall, const double *restrict rho,
                          const double *restrict vel, const double *restrict speed,
                          const double *restrict area, double *restrict mass,
                          double *restrict adv, int64_t lo, int64_t hi)
{
    int64_t start = at_least(lo, 2), end = at_most(hi, n - 1);
    if (speed) {
        for (int64_t j = start; j < end; j++) {
            struct flux f = flux(rho + j - 2, vel + j - 2, speed[j + 1], speed[j + 2]);
            mass[j] = f.mass * area[j];
            adv[j] = f.adv;
        }
    } else {
        for (int64_t j = start; j < end; j++) {
            struct flux f = flux(rho + j - 2, vel + j - 2, 0.0, 0.0);
            mass[j] = f.mass * area[j];
            adv[j] = f.adv;
        }
    }
    for (int64_t j = 0; j <= n; j = next_edge(n, j)) {
        double er[4], ev[4];
        if (j < lo || j >= hi)
            continue;
        stencil(n, rho, 0, j, er);
        stencil(n, vel, 1, j, ev);
        struct flux f = speed ? flux(er, ev, speed[j + 1], speed[j + 2]) : flux(er, ev, 0.0, 0.0);
        mass[j] = f.mass * area[j];
        adv[j] = f.adv;
    }
    if (lo == 0)
        mass[0] = 0.0;
    for (int64_t j = at_least(wall, lo); j < hi; j++)
        mass[j] = 0.0;
}

/* The force term (alpha*delta) * C / center of every cell into dvel, with C
 * the running integral of max(rho, 0) * s**(N-1), accumulated in the order
 * of np.cumsum, in one scalar pass: a cell's products and division run in
 * the shadow of the sum's add chain. */
CLONED static void force(const struct stage *s, const double *restrict rho, double *restrict dvel)
{
    const double *restrict shell = s->shell, *restrict inner_shell = s->inner_shell;
    const double *restrict center = s->center;
    double fc = s->field_coef;
    /* C: the cells before plus the inner shell, then the whole shell */
    double q = np_max(rho[0], 0.0);
    double sum = q * shell[0];
    dvel[0] = fc * (0.0 + q * inner_shell[0]) / center[0];
    for (int64_t i = 1; i < s->n; i++) {
        q = np_max(rho[i], 0.0);
        double c = sum + q * inner_shell[i];
        sum = sum + q * shell[i];
        dvel[i] = fc * c / center[i];
    }
}

/* Fill the cells [lo, hi) of out = (drho, dvel), shape (2, n), from the
 * fluxes in part self's work rows 0 and 1: flux divergence, pressure,
 * force, vacuum mask, the order of the reference. With pressure, base is
 * the face means of the raised cells in its work row 2, and grad_coef
 * times them the face enthalpy. With a force field dvel holds the force
 * term (force()), once part 0 has passed its barrier, and the rest of the
 * tendency is added before it; without one the term is skipped, not added
 * as +0.0, which would turn a -0.0 tendency into +0.0.
 *
 * Sets the part's first non-finite density and velocity tendency cells,
 * or -1 each. */
CLONED static void cells(struct job *j, int self, const double *restrict rho,
                         const double *restrict base, int64_t lo, int64_t hi)
{
    const struct stage *s = j->s;
    int64_t n = s->n;
    double dr = s->dr, gc = s->grad_coef, rho_floor = j->rho_floor;
    const double *restrict mass = WORK(s, 0, self), *restrict adv = WORK(s, 1, self);
    const double *restrict center = s->center;
    double *restrict drho = j->out, *restrict dvel = j->out + n;
    for (int64_t i = lo; i < hi; i++)
        drho[i] = -(mass[i + 1] - mass[i]) / (center[i] * dr);
    if (s->field_coef != 0.0) {
        if (self)
            meet(j, self, 1);
        if (base)
            for (int64_t i = lo; i < hi; i++)
                dvel[i] = (-(adv[i + 1] - adv[i]) / dr - (gc * base[i + 1] - gc * base[i]) / dr)
                          + dvel[i];
        else
            for (int64_t i = lo; i < hi; i++)
                dvel[i] = -(adv[i + 1] - adv[i]) / dr + dvel[i];
    } else {
        for (int64_t i = lo; i < hi; i++)
            dvel[i] = -(adv[i + 1] - adv[i]) / dr;
        if (base)
            for (int64_t i = lo; i < hi; i++)
                dvel[i] = dvel[i] - (gc * base[i + 1] - gc * base[i]) / dr;
    }
    for (int64_t i = lo; i < hi; i++)
        dvel[i] = rho[i] > rho_floor ? dvel[i] : 0.0;
    int64_t bad = 0;
    for (int64_t i = lo; i < hi; i++)
        bad |= !(fabs(drho[i]) <= DBL_MAX) | !(fabs(dvel[i]) <= DBL_MAX);
    j->part[self].bad[0] = j->part[self].bad[1] = -1;
    for (int field = 0; bad && field < 2; field++)
        for (int64_t i = lo; i < hi; i++)
            if (!isfinite(j->out[field * n + i])) {
                j->part[self].bad[field] = i;
                break;
            }
}

/* Part self's share, the cells [lo, hi), of a stage's tendencies of the
 * cells rho and vel, where they lie, into j->out; no cell is copied. With
 * pressure j->cell holds them raised to gamma - 1 (else NULL): the sound
 * speeds of the fluxes come from those cells, and so does the face
 * enthalpy, as their face means (0**(gamma - 1) = 0 past the wall). The
 * part makes every face and speed its cells read, in its own rows: faces
 * [lo, hi], and the speeds of cells lo - 1 .. hi; so both parts make face
 * n / 2, and no barrier parts its passes. */
static inline void tendencies(struct job *j, int self, const double *rho, const double *vel,
                              int64_t lo, int64_t hi)
{
    const struct stage *s = j->s;
    int64_t n = s->n;
    /* the sound speeds, then the face means */
    double *face = s->pressure_const > 0.0 ? WORK(s, 2, self) : NULL;
    if (s->field_coef != 0.0 && !self) {
        force(s, rho, j->out + n);
        meet(j, self, 0); /* part 1 adds the force term to its cells */
    }
    if (face)
        sound_speeds(n, s->sound_coef, j->cell, face, at_least(lo - 1, 0), at_most(hi + 1, n));
    fluxes(n, j->wall, rho, vel, face, s->face_area, WORK(s, 0, self), WORK(s, 1, self), lo,
           hi + 1);
    if (face)
        face_means(n, j->cell, face, lo, hi + 1);
    cells(j, self, rho, face, lo, hi);
}

/* One Runge-Kutta combination in place on the cells [lo, hi) of the (2, n)
 * tendencies k: k = old + dt*k in the first stage (mid NULL), else
 * (mid + dt*k)/2 + old/2 with mid the first stage's (2, n) result; both
 * fields zeroed from cell wall on. */
CLONED static void combine(const struct stage *s, int64_t wall, double dt,
                           const double *restrict rho, const double *restrict vel,
                           const double *restrict mid, double *restrict k, int64_t lo, int64_t hi)
{
    int64_t n = s->n, end = at_most(wall, hi);
    double *restrict k_rho = k, *restrict k_vel = k + n;
    if (mid) {
        const double *restrict mid_rho = mid, *restrict mid_vel = mid + n;
        for (int64_t i = lo; i < end; i++) {
            k_rho[i] = (k_rho[i] * dt + mid_rho[i]) * 0.5 + 0.5 * rho[i];
            k_vel[i] = (k_vel[i] * dt + mid_vel[i]) * 0.5 + 0.5 * vel[i];
        }
    } else {
        for (int64_t i = lo; i < end; i++) {
            k_rho[i] = k_rho[i] * dt + rho[i];
            k_vel[i] = k_vel[i] * dt + vel[i];
        }
    }
    for (int64_t i = at_least(wall, lo); i < hi; i++)
        k_rho[i] = k_vel[i] = 0.0;
}

/* Of the differences |v[k + 2] - v[k]| for k in [lo, hi), the first NaN
 * if one may be NaN (nan), into first[0], and the first whose slope, the
 * difference divided by width, is the steepest, into first[1]; -1 where
 * there is none. np.argmax of the slopes picks the first NaN of the parts
 * in order, else their first steepest. The steepest slope is q = d / width,
 * from d, the largest difference that is not NaN: the width, 2 dr, lies in
 * (0, DBL_MAX] (stage() refuses any other dr), so a slope is NaN where its
 * difference is, and the division rounds monotonically. Each difference
 * that gives q exceeds p * width, p the double below q, so it is at least
 * the double below that product rounded: blocks of 32 differences below
 * that bound are passed over without a division. */
CLONED static void first_slope(int64_t lo, int64_t hi, const double *restrict v, double width,
                               double d, int nan, int64_t first[2])
{
    int64_t i = lo;
    for (; nan && i < hi && !isnan(v[i + 2] - v[i]); i++)
        ;
    first[0] = nan && i < hi ? i : -1;
    double q = d / width, least = nextafter(nextafter(q, -INFINITY) * width, -INFINITY);
    for (i = lo; i < hi; i++) {
        for (; i % 32 == 0 && i + 32 <= hi; i += 32) {
            mask over = {0, 0, 0, 0};
            for (int u = 0; u < 32; u += 4) {
                lanes up, down;
                memcpy(&up, v + i + u + 2, sizeof up);
                memcpy(&down, v + i + u, sizeof down);
                over |= ABS(up - down) >= least;
            }
            if (ANY(over))
                break;
        }
        double a = fabs(v[i + 2] - v[i]);
        if (a >= least && a / width == q)
            break;
    }
    first[1] = i < hi ? i : -1;
}

/* |V| + sqrt(sc * cell) of cell i, or |V| where cell is NULL (dust) */
static inline double wave(const double *vel, const double *cell, double sc, int64_t i)
{
    return cell ? fabs(vel[i]) + sqrt(sc * cell[i]) : fabs(vel[i]);
}

/* The partial facts of the cells [lo, hi) of rho and vel and of the
 * differences |vel[k + 2] - vel[k]| for k in [lo, hi) below n - 2, in one
 * pass: independent chains of lanes, two sets each, whose latencies
 * overlap, carry the least rho, the largest speed and the largest
 * difference of each residue mod 8; a sum turns NaN with any NaN cell (a
 * NaN in vel makes its difference NaN). With the cells raised to gamma - 1
 * the speed lanes carry |V| + c, and join the sum; dust's carry |V|. The
 * lanes are read back through lane, 24 doubles. part() calls this twice,
 * cell NULL in one call, so each law runs a loop of its own. */
static inline __attribute__((always_inline)) struct partial
partial_facts(const struct stage *s, const double *restrict rho, const double *restrict vel,
              const double *restrict cell, int64_t lo, int64_t hi, double *lane)
{
    int64_t i = lo, end = at_most(hi, s->n - 2);
    double sc = s->sound_coef;
    lanes low = {INFINITY, INFINITY, INFINITY, INFINITY}, low2 = low, fast = -low, fast2 = -low,
          top = -low, top2 = -low, sum = {0.0, 0.0, 0.0, 0.0};
    struct partial out = {INFINITY, -INFINITY, -INFINITY, 0};
    for (; i + 8 <= end; i += 8) {
        lanes r, r2, v, v2, up, up2;
        memcpy(&r, rho + i, sizeof r);
        memcpy(&r2, rho + i + 4, sizeof r2);
        memcpy(&v, vel + i, sizeof v);
        memcpy(&v2, vel + i + 4, sizeof v2);
        memcpy(&up, vel + i + 2, sizeof up);
        memcpy(&up2, vel + i + 6, sizeof up2);
        lanes a = ABS(up - v), a2 = ABS(up2 - v2);
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
    /* the lanes, read one by one through memory: read so in registers,
     * they make the compiler split each chain into scalars */
    memcpy(lane, &low, sizeof low);
    memcpy(lane + 4, &low2, sizeof low2);
    memcpy(lane + 8, &fast, sizeof fast);
    memcpy(lane + 12, &fast2, sizeof fast2);
    memcpy(lane + 16, &top, sizeof top);
    memcpy(lane + 20, &top2, sizeof top2);
    out.found = ANY(sum != sum);
    for (int q = 0; q < 8; q++) {
        out.least = lane[q] < out.least ? lane[q] : out.least;
        out.speed = lane[q + 8] > out.speed ? lane[q + 8] : out.speed;
        out.best = lane[q + 16] > out.best ? lane[q + 16] : out.best;
    }
    for (int64_t k = i; k < end; k++) {
        double a = fabs(vel[k + 2] - vel[k]);
        out.found |= isnan(a);
        out.best = a > out.best ? a : out.best;
    }
    for (; i < hi; i++) {
        double c = wave(vel, cell, sc, i);
        out.least = rho[i] < out.least ? rho[i] : out.least;
        out.speed = c > out.speed ? c : out.speed;
        out.found |= isnan(rho[i]) | isnan(c);
    }
    return out;
}

/* The partial facts of j's parts folded in order: the extremes that are
 * not NaN, and whether a NaN may lie among them. */
static struct partial merged(const struct job *j)
{
    struct partial all = {INFINITY, -INFINITY, -INFINITY, 0};
    for (int p = 0; p < j->count; p++) {
        const struct partial *part = &j->part[p].facts;
        all.least = part->least < all.least ? part->least : all.least;
        all.speed = part->speed > all.speed ? part->speed : all.speed;
        all.best = part->best > all.best ? part->best : all.best;
        all.found |= part->found;
    }
    return all;
}

/* The facts of the n cells rho and vel, raised to gamma - 1 in cell where
 * the law raises them (K > 0), else with cell NULL, from the partial facts
 * of j's parts and the first slopes each found: the extremes that are not
 * NaN, then, where a NaN may lie, each field searched again for its first,
 * where the least density is a zero, the last zero, and the steepest slope
 * at the first NaN difference of the parts in order, else at their first
 * steepest. */
CLONED static struct facts facts_of(const struct job *j, const double *rho, const double *vel,
                                    const double *cell)
{
    const struct stage *s = j->s;
    int64_t n = s->n, i;
    struct partial all = merged(j);
    double sc = s->sound_coef, least = all.least, width = 2.0 * s->dr;
    int found = all.found;
    struct facts out = {least, all.speed, 0.0, 0};
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
    if (n <= 2)
        return out;
    for (int which = 0; which < 2; which++)
        for (int p = 0; p < j->count; p++)
            if ((i = j->part[p].slope[which]) >= 0) {
                out.cell = i + 1;
                out.slope = which ? all.best / width : fabs(vel[i + 2] - vel[i]) / width;
                return out;
            }
    return out;
}

/* What part self of j's count makes of its passes, on the cells [lo, hi):
 * the lower n / 2 for part 0 of two, the rest for part 1. The stage reads
 * the first combination across the split, after a barrier; no other pass
 * reads what the other part writes in the job. Past a non-finite tendency
 * the passes run on, and the caller drops what they make. */
CLONED static void part(struct job *j, int self)
{
    const struct stage *s = j->s;
    int64_t n = s->n, lo = self ? n / 2 : 0, hi = self || j->count < 2 ? n : n / 2;
    if (j->passes & FIRST) {
        combine(s, j->wall, j->dt, j->rho, j->vel, NULL, j->k, lo, hi);
        if (j->passes & STAGE)
            meet(j, self, 1);
    }
    if (j->passes & STAGE)
        tendencies(j, self, j->k ? j->k : j->rho, j->k ? j->k + n : j->vel, lo, hi);
    if (j->passes & SECOND) {
        combine(s, j->wall, j->dt, j->rho, j->vel, j->k, j->out, lo, hi);
        if (j->passes & FACTS)
            meet(j, self, 1); /* a difference reads two cells on */
    }
    if (j->passes & FACTS) {
        const double *rho = j->out ? j->out : j->rho, *vel = j->out ? j->out + n : j->vel;
        double *lane = s->lanes + 24 * self;
        j->part[self].facts = j->cell ? partial_facts(s, rho, vel, j->cell, lo, hi, lane)
                                      : partial_facts(s, rho, vel, NULL, lo, hi, lane);
        meet(j, self, 1); /* each part reads both partial facts */
        struct partial all = merged(j);
        first_slope(lo, at_most(hi, n - 2), vel, 2.0 * s->dr, all.best, all.found,
                    j->part[self].slope);
    }
}

/* The facts of j's FACTS pass, once its parts are done. */
static struct facts job_facts(const struct job *j)
{
    const double *rho = j->out ? j->out : j->rho, *vel = j->out ? j->out + j->s->n : j->vel;
    return facts_of(j, rho, vel, j->cell);
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
 * finish_step lets go only in the power it calls, between two jobs, the
 * helper idle, of which none reads what another left in the work rows: so
 * a stage's work rows serve one job at a time, whichever thread makes it.
 * facts,
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

#define CAPSULE "radialblowup.stage"

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
    if (!PyCapsule_IsValid(args[0], CAPSULE)) {
        PyErr_Format(PyExc_ValueError, "%s: stage must be a capsule of stage()", entry);
        return -1;
    }
    c->s = &((struct owned *)PyCapsule_GetPointer(args[0], CAPSULE))->s;
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
    struct owned *o = PyCapsule_GetPointer(capsule, CAPSULE);
    done(&o->c, NULL);
    PyMem_Free(o);
}

/* stage(dr, K, gamma, field_coef, r, face_area, shell, inner_shell, center,
 * threads) -> a capsule that owns the struct stage of a grid of n = len(r)
 * cells, n >= 2, its work rows and the buffers it reads: r and the weights
 * of shape (n) and face_area (n + 1); its passes split in two with threads
 * 2, and run on the calling thread with 1. A dr outside (0, DBL_MAX / 2]
 * raises ValueError: the slope width 2 dr must be a positive double; so
 * does a threads other than 1 or 2. */
static PyObject *py_stage(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    struct call c;
    const double *r, *face_area, *shell, *inner_shell, *center;
    double dr, k, g, fc;
    long threads;
    struct owned *o;
    PyObject *capsule;
    (void)self;
    if (open_call(&c, "stage", args, nargs, 10, 2) < 0 || number(args[0], &dr) < 0
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
    threads = PyLong_AsLong(args[9]);
    if (threads == -1 && PyErr_Occurred())
        return done(&c, NULL);
    if (threads != 1 && threads != 2) {
        PyErr_Format(PyExc_ValueError, "stage: threads must be 1 or 2, got %ld", threads);
        return done(&c, NULL);
    }
    Py_ssize_t work = (k > 0.0 ? 3 : 2) * (c.n + 8);
    if (!(o = PyMem_Malloc(sizeof *o + (work + 48) * sizeof(double))))
        return done(&c, PyErr_NoMemory());
    o->s = (struct stage){
        .n = c.n, .dr = dr, .sound_coef = k * g,
        /* pressure force per unit mass as an exact enthalpy gradient,
         * K*g/(g-1) * d(rho**(g-1))/dr: bounded at the vacuum edge */
        .grad_coef = k * g / (g - 1.0), .field_coef = fc, .pressure_const = k,
        .exponent = g - 1.0,
        .face_area = face_area, .shell = shell, .inner_shell = inner_shell, .center = center,
        .r = r, .work = o->work, .lanes = o->work + work, .threads = (int)threads,
    };
    /* moving a Py_buffer is safe: CPython's and numpy's exporters key
     * nothing on its address */
    o->c = c;
    if (!(capsule = PyCapsule_New(o, CAPSULE, free_stage))) {
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
    struct job j = {.s = c.s, .passes = STAGE, .wall = wall, .rho_floor = rho_floor, .rho = rho,
                    .vel = vel, .cell = cell, .out = out};
    run_job(&j);
    return done(&c, PyLong_FromLongLong(first_bad(&j)));
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
 * and that state's facts. Past a non-finite tendency neither facts nor
 * raised cells are returned, and out, which holds what the passes made of
 * it, is not raised. Where the law raises its cells (K > 0), power(row,
 * gamma - 1), the numpy power, raises those of k for the second stage and
 * those of out for the facts, and the second is returned. The arguments are
 * checked before a value is written; a failing power, or one that returns
 * anything but n cells, raises after k is written. */
static PyObject *py_finish_step(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    struct call c;
    const double *rho, *vel;
    double *k, *out, dt, rho_floor;
    int64_t wall, bad;
    int raises;
    PyObject *raised = Py_None, *facts, *result;
    (void)self;
    if (open_call(&c, "finish_step", args, nargs, 9, 0) < 0 || number(args[2], &dt) < 0
        || number(args[6], &rho_floor) < 0 || (wall = wall_of(&c, args[1])) < 0
        || !(rho = array(&c, args[3], CELLS, 0, "rho"))
        || !(vel = array(&c, args[4], CELLS, 0, "vel"))
        || !(k = array(&c, args[5], BLOCK, 1, "k")) || !(out = array(&c, args[7], BLOCK, 1, "out")))
        return done(&c, NULL);
    /* dust is one job; with pressure the power of the cells, a Python
     * call, parts it in three, each run to its end before the call */
    raises = c.s->pressure_const > 0.0;
    struct job j = {.s = c.s, .passes = raises ? FIRST : FIRST | STAGE | SECOND | FACTS,
                    .wall = wall, .dt = dt, .rho_floor = rho_floor, .rho = rho, .vel = vel,
                    .k = k, .out = out};
    run_job(&j);
    if (raises) {
        if (!(j.cell = raised_row(&c, args[8], args[5], NULL)))
            return done(&c, NULL);
        j.passes = STAGE | SECOND;
        run_job(&j);
    }
    bad = first_bad(&j);
    if (bad >= 0)
        return done(&c, Py_BuildValue("(LOO)", (long long)bad, Py_None, Py_None));
    if (raises) {
        if (!(j.cell = raised_row(&c, args[8], args[7], &raised)))
            return done(&c, NULL);
        j.passes = FACTS;
        run_job(&j);
    }
    facts = facts_value(job_facts(&j));
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
    struct job j = {.s = c.s, .passes = FACTS, .rho = rho, .vel = vel, .cell = cell};
    run_job(&j);
    return done(&c, facts_value(job_facts(&j)));
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
    ENTRY(stage, "stage(dr, K, gamma, field_coef, r, face_area, shell, inner_shell, center, "
                 "threads) -> stage"),
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
