/* Coordinate-descent loops of proxqn.subsolver and the passes of the
 * logistic oracle of proxqn.problem in C.
 *
 * Each function repeats its Python reference (CdWorkspace.step, the
 * loops of cd_minimize and exact_solve_oracle, and the numpy/scipy
 * expressions of the logistic oracle) operation for operation, so the
 * results are bit-identical to it.  This holds because:
 *  - every product numpy forms with `@` is formed here by the same BLAS
 *    routine with the same arguments (cd_bind_blas receives numpy's own
 *    ddot and dgemv);
 *  - every sparse product sums each output element from 0.0 in the
 *    order scipy's csr_matvec and csc_matvec do, and expit is
 *    1/(1+exp(-z)) with libm's exp, as scipy's;
 *  - all other arithmetic is plain double arithmetic in the Python
 *    order, built with -ffp-contract=off so no multiply-add is fused.
 *
 * The logistic passes split their output elements over OpenMP threads
 * when built with -fopenmp.  Each element is still formed by one thread
 * in the serial order, so the thread count does not change a bit.
 */
#include <math.h>
#include <stdint.h>
#ifdef _OPENMP
#include <omp.h>
#endif

typedef double (*ddot_fn)(int64_t, const double *, int64_t, const double *,
                          int64_t);
typedef void (*dgemv_fn)(int, int, int64_t, int64_t, double, const double *,
                         int64_t, const double *, int64_t, double, double *,
                         int64_t);
enum { COL_MAJOR = 102, TRANS = 112 };

static ddot_fn ddot;
static dgemv_fn dgemv;

void cd_bind_blas(void *dot, void *gemv)
{
    ddot = (ddot_fn)dot;
    dgemv = (dgemv_fn)gemv;
}

/* The arrays of one CdWorkspace: q and qw are C-contiguous (n, p). */
typedef struct {
    int64_t n, p;
    double eff_delta, lam;
    const double *q, *qw, *diag, *grad_v;
    double *u, *d, *qcache;
    int64_t bad; /* set to the coordinate of a nonpositive diagonal */
} workspace;

/* CdWorkspace.step: stores the move in *z; returns -1 (and sets bad)
 * on a nonpositive diagonal, 0 otherwise. */
static int step(workspace *w, int64_t j, double *z)
{
    double a = w->diag[j];
    if (a <= 0) {
        w->bad = j;
        return -1;
    }
    double b = w->grad_v[j] + w->eff_delta * w->d[j];
    if (w->p > 0)
        b += 0.0 + ddot(w->p, w->qw + j * w->p, 1, w->qcache, 1);
    double uj = w->u[j];
    double x = uj - b / a;
    double thr = w->lam / a;
    if (x > thr)
        x -= thr;
    else if (x < -thr)
        x += thr;
    else
        x = 0.0;
    *z = x - uj;
    if (*z != 0.0) {
        w->u[j] = x;
        w->d[j] += *z;
        for (int64_t k = 0; k < w->p; k++)
            w->qcache[k] += *z * w->q[j * w->p + k];
    }
    return 0;
}

/* The step loop of cd_minimize over idx[0..r); returns the steps taken,
 * or -1 on a nonpositive diagonal. */
int64_t cd_random(workspace *w, const int64_t *idx, int64_t r,
                  double step_eps)
{
    int64_t tiny = 0;
    for (int64_t t = 0; t < r; t++) {
        double z;
        if (step(w, idx[t], &z))
            return -1;
        if (fabs(z) < step_eps) {
            if (++tiny >= w->n)
                return t + 1;
        } else {
            tiny = 0;
        }
    }
    return r;
}

static double sign(double x)
{
    return x > 0 ? 1.0 : x < 0 ? -1.0 : x == 0 ? 0.0 : x;
}

/* np.max over nonnegative values: a nan wins. */
static double max_nan(double acc, double x)
{
    return (isnan(x) || x > acc) ? x : acc;
}

/* The loop of exact_solve_oracle; scratch holds 2n doubles.  Returns
 * the steps taken, -1 on a nonpositive diagonal, or -2 once more than
 * max_steps steps are taken. */
int64_t cd_exact(workspace *w, double tol, int64_t max_steps, double *scratch)
{
    int64_t n = w->n, steps = 0;
    double *g = scratch, *hq = scratch + n;
    for (;;) {
        /* min_norm_subgradient(smooth_gradient(), u, lam), inf-norm */
        for (int64_t i = 0; i < n; i++)
            g[i] = w->grad_v[i] + w->eff_delta * w->d[i];
        if (w->p > 0) {
            /* numpy forms a (1, p) @ (p,) product with ddot */
            if (n == 1)
                hq[0] = 0.0 + ddot(w->p, w->qw, 1, w->qcache, 1);
            else
                dgemv(COL_MAJOR, TRANS, w->p, n, 1.0, w->qw, w->p,
                      w->qcache, 1, 0.0, hq, 1);
            for (int64_t i = 0; i < n; i++)
                g[i] = g[i] + hq[i];
        }
        double norm = 0.0, umax = 0.0;
        for (int64_t i = 0; i < n; i++) {
            double gi = g[i], ui = w->u[i], s;
            if (ui == 0.0) {
                double m = fabs(gi) - w->lam;
                if (!isnan(m) && !(m > 0.0))
                    m = 0.0;
                s = sign(gi) * m;
            } else {
                s = gi + w->lam * sign(ui);
            }
            norm = max_nan(norm, fabs(s));
            umax = max_nan(umax, fabs(ui));
        }
        if (norm <= tol)
            return steps;
        double floor = 1e-16 * (1.0 + umax);
        double biggest = 0.0;
        for (int64_t j = 0; j < n; j++) {
            double z;
            if (step(w, j, &z))
                return -1;
            if (fabs(z) > biggest)
                biggest = fabs(z);
        }
        steps += n;
        if (biggest <= floor)
            return steps;
        if (steps > max_steps)
            return -2;
    }
}

/* Below this many nonzeros in X a logistic pass runs on the calling
 * thread alone: starting the thread team would cost more than it saves. */
#define PARALLEL_NNZ 32768

/* Set in a child made by fork(): the child has none of libgomp's
 * threads, and a parallel region there would wait for them forever. */
static int forked;

void lg_after_fork(void)
{
    forked = 1;
}

/* Threads a parallel logistic pass uses, or 0 when built without OpenMP. */
int lg_threads(void)
{
#ifdef _OPENMP
    return forked ? 1 : omp_get_max_threads();
#else
    return 0;
#endif
}

int64_t lg_parallel_nnz(void)
{
    return PARALLEL_NNZ;
}

/* z = -y * (X w) for X in CSR form with m rows: each row is summed from
 * 0.0 in index order, as scipy's csr_matvec does. */
void lg_margins(int64_t m, const int32_t *indptr, const int32_t *indices,
                const double *data, const double *y, const double *w,
                double *z)
{
#pragma omp parallel for schedule(static) if (!forked && indptr[m] >= PARALLEL_NNZ)
    for (int64_t i = 0; i < m; i++) {
        double s = 0.0;
        for (int32_t k = indptr[i]; k < indptr[i + 1]; k++)
            s += data[k] * w[indices[k]];
        z[i] = -y[i] * s;
    }
}

/* grad = (X' c) / m with the coefficients c = -y * expit(z) stored in
 * coeff, for X' in CSR form with n rows (the features).  Each feature
 * gathers its nonzeros in increasing data-point order, the order in
 * which scipy's csc_matvec scatters them for X' held as CSC.  Features
 * differ widely in their nonzero counts, hence the dynamic schedule. */
void lg_gradient(int64_t m, int64_t n, const int32_t *indptr,
                 const int32_t *indices, const double *data, const double *y,
                 const double *z, double *coeff, double *grad)
{
#pragma omp parallel if (!forked && indptr[n] >= PARALLEL_NNZ)
    {
#pragma omp for schedule(static)
        for (int64_t i = 0; i < m; i++)
            coeff[i] = -y[i] * (1.0 / (1.0 + exp(-z[i])));
#pragma omp for schedule(dynamic, 4)
        for (int64_t j = 0; j < n; j++) {
            double s = 0.0;
            for (int32_t k = indptr[j]; k < indptr[j + 1]; k++)
                s += data[k] * coeff[indices[k]];
            grad[j] = s / (double)m;
        }
    }
}
