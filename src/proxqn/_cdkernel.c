/* Coordinate-descent loops of proxqn.subsolver in C.
 *
 * Each function repeats the Python reference (CdWorkspace.step and the
 * loops of cd_minimize and exact_solve_oracle) operation for operation,
 * so the results are bit-identical to it.  This holds because:
 *  - every product numpy forms with `@` is formed here by the same BLAS
 *    routine with the same arguments (cd_bind_blas receives numpy's own
 *    ddot and dgemv);
 *  - all other arithmetic is plain double arithmetic in the Python
 *    order, built with -ffp-contract=off so no multiply-add is fused.
 */
#include <math.h>
#include <stdint.h>

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
