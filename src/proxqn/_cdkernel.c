/* Coordinate-descent loops of proxqn.subsolver, the stop test of
 * proxqn.optimizers, the compact L-BFGS build of proxqn.hessian and the
 * logistic oracle of proxqn.problem in C.
 *
 * Each function repeats its Python reference (CdWorkspace.step, the
 * loops of cd_minimize and exact_solve_oracle, the subgradient norm of
 * the stop test, hessian._numpy_build, and the numpy/scipy expressions
 * of the logistic oracle) operation for operation, so the results are
 * bit-identical to it.  This holds because:
 *  - every product numpy forms with `@`, np.vdot or np.linalg.inv is
 *    formed here by the same BLAS or LAPACK routine with the same
 *    arguments (cd_bind_blas receives numpy's own ddot, dgemv, dgemm,
 *    dsyrk and dgesv): ddot for a dot product, dsyrk and a mirror for a
 *    matrix times its own transpose, dgemm or dgemv for other products
 *    as numpy's matmul chooses, and dgesv with an identity right-hand
 *    side for an inverse;
 *  - every sparse product sums each output element from 0.0 in the
 *    order scipy's csr_matvec and csc_matvec do;
 *  - the forward pass forms exp(-|z|), its log1p and the loss terms'
 *    sum by calling numpy's own float64 exp, log1p and add loops
 *    (lg_bind_loops receives them from the ufuncs), and the gradient's
 *    coefficients take that e = exp(-|z|), so no pass here calls libm's
 *    exp or log1p;
 *  - the loss is the mean of the loss terms as np.mean forms it: numpy's
 *    add loop in reduce mode over all of them, from 0.0, divided by m;
 *  - all other arithmetic is plain double arithmetic in the Python
 *    order, built with -ffp-contract=off so no multiply-add is fused.
 *
 * Each pass of the logistic oracle is one call, lg_value or lg_grad,
 * which takes a data set's arrays bound once in a dataset struct and one
 * buffer that holds the call's point, gradient and intermediates;
 * value_and_grad is lg_value and then lg_grad on the same buffer.  Each
 * try of compile_compact is one call, cc_build, which takes the pair
 * buffer's two row arrays and fills one fresh block with the middle
 * matrix, -inv of it, the bound test's squared norms and the model's Q,
 * W and QW.  Its middle matrix has the signed zeros that
 * np.block leaves in hessian._numpy_build's: 0.0 in the zero parts of
 * L and L', and -0.0 off the diagonal of -D, which -np.diag negates.
 *
 * The logistic passes split their output elements over OpenMP threads
 * when built with -fopenmp.  Each element is still formed by one thread
 * in the serial order, so the thread count does not change a bit.  The
 * passes also go faster than one add after another, with the same bits:
 *  - they sum four output elements side by side (four rows of X in
 *    the forward pass, four features of X' in the gradient).  Each
 *    element keeps its own accumulator and adds its terms in index
 *    order, so the four chains only overlap in time; the features are
 *    taken in groups of similar length, by nonincreasing nonzero count,
 *    so that the chains of a group run side by side for most of their
 *    length;
 *  - on a binary matrix, whose every stored value is 1.0, they read no
 *    values: 1.0 * x == x bit for bit, NaN and -0.0 included, so the
 *    term x[j] is the term data[k] * x[j].
 */
#include <math.h>
#include <stdint.h>
#include <string.h>
#ifdef _OPENMP
#include <omp.h>
#endif

typedef double (*ddot_fn)(int64_t, const double *, int64_t, const double *,
                          int64_t);
typedef void (*dgemv_fn)(int, int, int64_t, int64_t, double, const double *,
                         int64_t, const double *, int64_t, double, double *,
                         int64_t);
typedef void (*dgemm_fn)(int, int, int, int64_t, int64_t, int64_t, double,
                         const double *, int64_t, const double *, int64_t,
                         double, double *, int64_t);
typedef void (*dsyrk_fn)(int, int, int, int64_t, int64_t, double,
                         const double *, int64_t, double, double *, int64_t);
typedef void (*dgesv_fn)(int64_t *, int64_t *, double *, int64_t *, int64_t *,
                         double *, int64_t *, int64_t *);
enum { ROW_MAJOR = 101, COL_MAJOR = 102, NO_TRANS = 111, TRANS = 112,
       UPPER = 121 };

static ddot_fn ddot;
static dgemv_fn dgemv;
static dgemm_fn dgemm;
static dsyrk_fn dsyrk;
static dgesv_fn dgesv;

void cd_bind_blas(void *dot, void *gemv, void *gemm, void *syrk, void *gesv)
{
    ddot = (ddot_fn)dot;
    dgemv = (dgemv_fn)gemv;
    dgemm = (dgemm_fn)gemm;
    dsyrk = (dsyrk_fn)syrk;
    dgesv = (dgesv_fn)gesv;
}

/* The arrays of one CdWorkspace: q and qw are C-contiguous (n, p), and
 * scratch holds the 2n doubles of cd_exact. */
typedef struct {
    int64_t n, p;
    double eff_delta, lam;
    const double *q, *qw, *diag, *grad_v;
    double *u, *d, *qcache, *scratch;
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

/* The step loop of cd_minimize: exactly r steps, one at each of
 * idx[0..r); returns 0, or -1 on a nonpositive diagonal. */
int cd_random(workspace *w, const int64_t *idx, int64_t r)
{
    for (int64_t t = 0; t < r; t++) {
        double z;
        if (step(w, idx[t], &z))
            return -1;
    }
    return 0;
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

/* max |min_norm_subgradient(g, u, lam)| over the n elements, as np.max
 * forms it over np.abs of that vector: a nan wins.  The stop test of
 * the drivers and the certificate of cd_exact. */
double subgrad_inf(int64_t n, const double *g, const double *u, double lam)
{
    double norm = 0.0;
    for (int64_t i = 0; i < n; i++) {
        double gi = g[i], ui = u[i], s;
        if (ui == 0.0) {
            double m = fabs(gi) - lam;
            if (!isnan(m) && !(m > 0.0))
                m = 0.0;
            s = sign(gi) * m;
        } else {
            s = gi + lam * sign(ui);
        }
        norm = max_nan(norm, fabs(s));
    }
    return norm;
}

/* The loop of exact_solve_oracle.  Returns the steps taken, -1 on a
 * nonpositive diagonal, or -2 once more than max_steps steps are
 * taken. */
int64_t cd_exact(workspace *w, double tol, int64_t max_steps)
{
    int64_t n = w->n, steps = 0;
    double *g = w->scratch, *hq = w->scratch + n;
    for (;;) {
        /* smooth_gradient() */
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
        if (subgrad_inf(n, g, w->u, w->lam) <= tol)
            return steps;
        double umax = 0.0;
        for (int64_t i = 0; i < n; i++)
            umax = max_nan(umax, fabs(w->u[i]));
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

/* The compact L-BFGS build of hessian.compile_compact.  Each product is
 * formed by the routine numpy's matmul, vdot and linalg.inv call for it,
 * with their arguments. */

/* np.vdot(a, b) over count doubles, and a (1, count) @ (count, 1)
 * product: DOUBLE_dot's 0.0 plus ddot. */
static double dot(int64_t count, const double *a, const double *b)
{
    return 0.0 + ddot(count, a, 1, b, 1);
}

/* out (r x r) = a @ b.T for the r rows of n doubles at a and at b, as
 * numpy's matmul forms s_mat.T @ y_mat on views of the rows: ddot for
 * one row, its plain loop for one column, syrk on the upper triangle and
 * a mirror when a is b, and gemm otherwise. */
static void rows_product(int64_t r, int64_t n, const double *a,
                         const double *b, double *out)
{
    if (r == 1) {
        out[0] = dot(n, a, b);
    } else if (n == 1) {
        for (int64_t i = 0; i < r; i++)
            for (int64_t j = 0; j < r; j++)
                out[i * r + j] = 0.0 + a[i] * b[j];
    } else if (a == b) {
        dsyrk(ROW_MAJOR, UPPER, NO_TRANS, r, n, 1.0, a, n, 0.0, out, r);
        for (int64_t i = 0; i < r; i++)
            for (int64_t j = i + 1; j < r; j++)
                out[j * r + i] = out[i * r + j];
    } else {
        dgemm(ROW_MAJOR, NO_TRANS, TRANS, r, r, n, 1.0, a, n, b, n, 0.0, out,
              r);
    }
}

/* w = -inv(a) for the k x k C-order matrix a, as np.linalg.inv forms the
 * inverse: dgesv on a's Fortran-order copy and an identity right-hand
 * side, the solution copied back to C order.  sq gets np.vdot(a, a) and
 * np.vdot of the inverse with itself.  Scratch takes 2k^2 + k doubles.
 * Returns dgesv's info: 0, or the place of an exactly zero pivot, where
 * np.linalg.inv raises LinAlgError (w is then not written). */
static int64_t negated_inverse(int64_t k, const double *a, double *w,
                               double *sq, double *scratch)
{
    double *lu = scratch, *x = scratch + k * k;
    int64_t *ipiv = (int64_t *)(x + k * k);
    for (int64_t i = 0; i < k; i++)
        for (int64_t j = 0; j < k; j++) {
            lu[i * k + j] = a[j * k + i];
            x[i * k + j] = i == j ? 1.0 : 0.0;
        }
    int64_t order = k, nrhs = k, lda = k, ldb = k, info = 0;
    dgesv(&order, &nrhs, lu, &lda, ipiv, x, &ldb, &info);
    if (info)
        return info;
    for (int64_t i = 0; i < k; i++)
        for (int64_t j = 0; j < k; j++)
            w[j * k + i] = x[i * k + j];
    sq[0] = dot(k * k, a, a);
    sq[1] = dot(k * k, w, w);
    for (int64_t t = 0; t < k * k; t++)
        w[t] = -w[t];
    return 0;
}

/* The layout of a cc_build block for m pairs of n entries, k = 2m, which
 * COMPACT_HEAD and Kernel.compact in _cdkernel.py repeat: delta, sq_m
 * and sq_w, then from COMPACT_HEAD on the middle matrix M (k x k),
 * -inv(M) (k x k), its symmetric part (k x k), Q (n x k, in np.hstack's
 * order), QW (n x k) and the diagonal of Q W Q' (n), the others in C
 * order, and 2k^2 + k + 2m^2 doubles of scratch.  k^2 is a multiple of 4
 * and nk of 2, so every part up to the diagonal is as 16-byte aligned as
 * the block, which numpy allocates as it does a fresh array. */
#define COMPACT_HEAD 8

/* compile_compact's build from the m oldest-first pairs that are the
 * rows of n doubles at s and at y: delta = y'y / s'y of the newest pair;
 * S'S and S'Y; M = [[delta S'S, L], [L', -D]] with L the strict lower
 * part of S'Y and D its diagonal, with np.block's signed zeros (0.0 in
 * L and L', -0.0 off the diagonal of -D); W = -inv(M) and the two squared
 * norms of the bound test; Q = [delta S, Y], W's symmetric part
 * 0.5 (W + W'), Q times it and the diagonal of Q W Q', into a block of
 * the layout above.
 * Returns dgesv's info; on a nonzero info only delta and M are
 * written. */
int64_t cc_build(int64_t n, int64_t m, const double *s, const double *y,
                 double *block)
{
    int64_t k = 2 * m;
    double *mid = block + COMPACT_HEAD, *w = mid + k * k, *sym = w + k * k;
    double *q = sym + k * k, *qw = q + n * k, *diag = qw + n * k;
    double *scratch = diag + n, *ss = scratch + 2 * k * k + k;
    double *sty = ss + m * m;
    const double *s_new = s + (m - 1) * n, *y_new = y + (m - 1) * n;
    double delta = dot(n, y_new, y_new) / dot(n, s_new, y_new);
    block[0] = delta;
    rows_product(m, n, s, s, ss);
    rows_product(m, n, s, y, sty);
    for (int64_t i = 0; i < m; i++)
        for (int64_t j = 0; j < m; j++) {
            mid[i * k + j] = delta * ss[i * m + j];
            mid[i * k + m + j] = i > j ? sty[i * m + j] : 0.0;
            mid[(m + i) * k + j] = j > i ? sty[j * m + i] : 0.0;
            mid[(m + i) * k + m + j] = i == j ? -sty[i * m + i] : -0.0;
        }
    int64_t info = negated_inverse(k, mid, w, block + 1, scratch);
    if (info)
        return info;
    /* np.hstack's layout: C order for one pair, where it interleaves
     * delta s and y, and Fortran order (delta S's rows, then Y's) for
     * more, which for n = 1 is C order too. */
    if (m == 1) {
        for (int64_t i = 0; i < n; i++) {
            q[2 * i] = delta * s[i];
            q[2 * i + 1] = y[i];
        }
    } else {
        for (int64_t t = 0; t < m * n; t++) {
            q[t] = delta * s[t];
            q[m * n + t] = y[t];
        }
    }
    for (int64_t i = 0; i < k; i++)
        for (int64_t j = 0; j < k; j++)
            sym[i * k + j] = 0.5 * (w[i * k + j] + w[j * k + i]);
    /* numpy's matmul takes a (1, k) @ (k, k) product to gemv */
    if (n == 1)
        dgemv(ROW_MAJOR, TRANS, k, k, 1.0, sym, k, q, 1, 0.0, qw, 1);
    else if (m == 1)
        dgemm(ROW_MAJOR, NO_TRANS, NO_TRANS, n, k, k, 1.0, q, k, sym, k, 0.0,
              qw, k);
    else
        dgemm(ROW_MAJOR, TRANS, NO_TRANS, n, k, k, 1.0, q, n, sym, k, 0.0,
              qw, k);
    /* np.einsum("ij,ij->i", qw, q) sums each row in order from 0.0 where
     * n > 1 (Q in Fortran order, or two columns); at n = 1 its contiguous
     * loop sums in vector lanes, and the caller calls it. */
    if (n > 1)
        for (int64_t i = 0; i < n; i++) {
            double acc = 0.0;
            for (int64_t j = 0; j < k; j++)
                acc += qw[i * k + j] * (m == 1 ? q[2 * i + j] : q[j * n + i]);
            diag[i] = acc;
        }
    return 0;
}

/* Below this many nonzeros in X a logistic pass runs on the calling
 * thread alone: starting the thread team would cost more than it saves. */
#define PARALLEL_NNZ 32768

/* An OpenMP directive, or nothing in a build without OpenMP. */
#ifdef _OPENMP
#define OMP(...) _Pragma(#__VA_ARGS__)
#else
#define OMP(...)
#endif

/* The sums below are inlined with a constant binary flag, which gives
 * each data kind a loop of its own; a call per group of four rows also
 * cost the valued margins about 8%. */
#define ALWAYS_INLINE static inline __attribute__((always_inline))

/* A numpy ufunc's one-dimensional inner loop (PyUFuncGenericFunction of
 * numpy/ufuncobject.h): args, dimensions and strides of its operands and
 * its innerloopdata. */
typedef void (*ufunc_loop)(char **, const intptr_t *, const intptr_t *,
                           void *);

/* numpy's float64 loops of np.exp, np.log1p and np.add, with their data. */
static ufunc_loop exp_loop, log1p_loop, add_loop;
static void *exp_data, *log1p_data, *add_data;

void lg_bind_loops(void *exp_fn, void *exp_d, void *log1p_fn, void *log1p_d,
                   void *add_fn, void *add_d)
{
    exp_loop = (ufunc_loop)exp_fn;
    exp_data = exp_d;
    log1p_loop = (ufunc_loop)log1p_fn;
    log1p_data = log1p_d;
    add_loop = (ufunc_loop)add_fn;
    add_data = add_d;
}

/* out[0..n) = f(in[0..n)) as numpy calls a float64 loop on contiguous
 * arrays; in == out is an in-place call, as np.exp(e, out=e) makes. */
static void apply_unary(ufunc_loop f, void *data, double *in, double *out,
                        intptr_t n)
{
    char *args[2] = {(char *)in, (char *)out};
    intptr_t steps[2] = {sizeof(double), sizeof(double)};
    f(args, &n, steps, data);
}

/* b[0..n) = a[0..n) + b[0..n) by numpy's add loop, as np.add(a, b, out=b). */
static void apply_add(double *a, double *b, intptr_t n)
{
    char *args[3] = {(char *)a, (char *)b, (char *)b};
    intptr_t steps[3] = {sizeof(double), sizeof(double), sizeof(double)};
    add_loop(args, &n, steps, add_data);
}

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

/* One term of a sparse product; a binary matrix reads no data. */
#define TERM(k) (binary ? x[indices[k]] : data[k] * x[indices[k]])

/* The sum of data[k] * x[indices[k]] over the nonzeros k of CSR row r,
 * from 0.0 in index order. */
ALWAYS_INLINE double sum1(const int32_t *indptr, const int32_t *indices,
                          const double *data, const double *x, int64_t r,
                          int binary)
{
    double s = 0.0;
    for (int32_t k = indptr[r]; k < indptr[r + 1]; k++)
        s += TERM(k);
    return s;
}

/* sum1 of the rows r[0..3] as four chains side by side: up to the
 * shortest row's length each step adds one term to every chain, then
 * each chain adds the rest of its row. */
ALWAYS_INLINE void sum4(const int32_t *indptr, const int32_t *indices,
                        const double *data, const double *x, const int64_t *r,
                        double *s, int binary)
{
    int32_t k0 = indptr[r[0]], e0 = indptr[r[0] + 1];
    int32_t k1 = indptr[r[1]], e1 = indptr[r[1] + 1];
    int32_t k2 = indptr[r[2]], e2 = indptr[r[2] + 1];
    int32_t k3 = indptr[r[3]], e3 = indptr[r[3] + 1];
    int32_t len = e0 - k0;
    if (e1 - k1 < len)
        len = e1 - k1;
    if (e2 - k2 < len)
        len = e2 - k2;
    if (e3 - k3 < len)
        len = e3 - k3;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (int32_t t = 0; t < len; t++) {
        s0 += TERM(k0 + t);
        s1 += TERM(k1 + t);
        s2 += TERM(k2 + t);
        s3 += TERM(k3 + t);
    }
    for (int32_t k = k0 + len; k < e0; k++)
        s0 += TERM(k);
    for (int32_t k = k1 + len; k < e1; k++)
        s1 += TERM(k);
    for (int32_t k = k2 + len; k < e2; k++)
        s2 += TERM(k);
    for (int32_t k = k3 + len; k < e3; k++)
        s3 += TERM(k);
    s[0] = s0;
    s[1] = s1;
    s[2] = s2;
    s[3] = s3;
}

/* s[q] = sum1 of row r[q] for q < count <= 4, with the binary loop when
 * data is NULL. */
ALWAYS_INLINE void sum_rows(const int32_t *indptr, const int32_t *indices,
                            const double *data, const double *x,
                            const int64_t *r, int count, double *s)
{
    if (count == 4) {
        if (data)
            sum4(indptr, indices, data, x, r, s, 0);
        else
            sum4(indptr, indices, data, x, r, s, 1);
        return;
    }
    for (int q = 0; q < count; q++)
        s[q] = data ? sum1(indptr, indices, data, x, r[q], 0)
                    : sum1(indptr, indices, data, x, r[q], 1);
}

/* max(z, 0) as 0 > z ? 0.0 : z, which keeps the NaN of a NaN z as
 * np.maximum does (and -0.0 for -0.0, whose loss term is log(2) either
 * way).  The sign of z is random, so a branch there mispredicts on every
 * other element; 0.0 is all zero bits, so masking z's bits selects
 * without one. */
static inline double max_zero(double z)
{
    uint64_t bits;
    memcpy(&bits, &z, sizeof bits);
    bits &= (uint64_t)(0.0 > z) - 1;
    memcpy(&z, &bits, sizeof bits);
    return z;
}

/* Rows per block of the forward pass.  The blocks start at multiples of
 * BLOCK and the last one runs to m, so it holds BLOCK to 2 * BLOCK - 1 rows
 * (or all m rows when m < BLOCK).  numpy's loops handle a call's elements
 * in vectors from its start and its last few elements apart (its add
 * returns the other operand's NaN where both are NaN there), so with
 * BLOCK a multiple of their vector length every element has the place it
 * has in numpy's one call over the whole array, and gets the same bits. */
#define BLOCK 1024

/* The arrays of one Dataset, bound once: X (m x n) and X' (n x m) in CSR
 * form with 32-bit indices, their data NULL when every stored value is
 * 1.0, the features by nonincreasing nonzero count and the labels. */
typedef struct {
    int64_t m, n;
    const int32_t *x_indptr, *x_indices;
    const double *x_data;
    const int32_t *xt_indptr, *xt_indices;
    const double *xt_data;
    const int64_t *order;
    const double *y;
} dataset;

/* The forward pass of the logistic oracle: the margins z = -y * (X w),
 * e = exp(-|z|) and the loss terms t = max(z, 0) + log1p(e), as
 * margins_reference, exp_neg_abs and softplus form them.  Each row is
 * summed from 0.0 in index order, as scipy's csr_matvec does, four rows
 * at a time.  exp, log1p and the add are numpy's own loops, called on
 * each block in place of np.exp(e, out=e), np.log1p(e) and
 * np.add(max, t, out=t) over the whole array. */
static void forward(const dataset *d, const double *w, double *z, double *e,
                    double *t)
{
    int64_t m = d->m, blocks = m < BLOCK ? 1 : m / BLOCK;
    const int32_t *indptr = d->x_indptr;
    OMP(omp parallel for schedule(static) if (!forked && indptr[m] >= PARALLEL_NNZ))
    for (int64_t b = 0; b < blocks; b++) {
        int64_t lo = b * BLOCK, hi = b == blocks - 1 ? m : lo + BLOCK;
        double max0[2 * BLOCK];
        for (int64_t i = lo; i < hi; i += 4) {
            int64_t r[4] = {i, i + 1, i + 2, i + 3};
            int count = hi - i < 4 ? (int)(hi - i) : 4;
            double s[4];
            sum_rows(indptr, d->x_indices, d->x_data, w, r, count, s);
            for (int q = 0; q < count; q++) {
                double zi = -d->y[i + q] * s[q];
                z[i + q] = zi;
                e[i + q] = -fabs(zi);
                max0[i + q - lo] = max_zero(zi);
            }
        }
        apply_unary(exp_loop, exp_data, e + lo, e + lo, hi - lo);
        apply_unary(log1p_loop, log1p_data, e + lo, t + lo, hi - lo);
        apply_add(max0, t + lo, hi - lo);
    }
}

/* np.mean(t) over the m loss terms: numpy's add loop in reduce mode
 * (strides 0 for the accumulator), called once over all m terms from
 * 0.0 as np.add.reduce calls it on a contiguous array, then divided by
 * m as np.mean divides the sum. */
static double mean(const double *t, int64_t m)
{
    double acc = 0.0;
    char *args[3] = {(char *)&acc, (char *)t, (char *)&acc};
    intptr_t n = m, steps[3] = {0, sizeof(double), 0};
    add_loop(args, &n, steps, add_data);
    return acc / (double)m;
}

/* grad = (X' c) / m with the coefficients c = -y * (s / (1 + e)) stored
 * in coeff, from the margins z and e = exp(-|z|): s is 1 where z >= 0 and
 * e elsewhere, so s / (1 + e) is expit(z) with the exponent kept
 * nonpositive.  The sign of z is random, so s is a select, not a branch.
 * Each feature, a row of X', gathers its nonzeros in increasing
 * data-point order, the order in which scipy's csc_matvec scatters them
 * for X' held as CSC.  The features are taken in the bound order, by
 * nonincreasing nonzero count, so each group of four that is summed side
 * by side has rows of similar length; groups still differ widely, hence
 * the dynamic schedule. */
static void gradient(const dataset *d, const double *z, const double *e,
                     double *coeff, double *grad)
{
    int64_t m = d->m, n = d->n;
    OMP(omp parallel if (!forked && d->xt_indptr[n] >= PARALLEL_NNZ))
    {
        OMP(omp for schedule(static))
        for (int64_t i = 0; i < m; i++) {
            double ei = e[i];
            double s = z[i] >= 0.0 ? 1.0 : ei;
            coeff[i] = -d->y[i] * (s / (1.0 + ei));
        }
        OMP(omp for schedule(dynamic, 1))
        for (int64_t g = 0; g < (n + 3) / 4; g++) {
            const int64_t *r = d->order + 4 * g;
            int count = n - 4 * g < 4 ? (int)(n - 4 * g) : 4;
            double s[4];
            sum_rows(d->xt_indptr, d->xt_indices, d->xt_data, coeff, r, count,
                     s);
            for (int q = 0; q < count; q++)
                grad[r[q]] = s[q] / (double)m;
        }
    }
}

/* Each oracle call works in one buffer of 2n + 3m doubles, fresh from
 * the caller: w[n], which the caller writes, then grad[n], and the
 * margins z[m], e[m] = exp(-|z|) and the loss terms t[m].  The
 * gradient's coefficients take the place of the loss terms, which the
 * mean has consumed. */

/* f(w): the forward pass at the buffer's w and the mean of its loss
 * terms.  z and e stay in the buffer for lg_grad. */
double lg_value(const dataset *d, double *buf)
{
    double *z = buf + 2 * d->n, *e = z + d->m, *t = e + d->m;
    forward(d, buf, z, e, t);
    return mean(t, d->m);
}

/* grad f into the buffer's grad, from the z and e that lg_value left
 * in it. */
void lg_grad(const dataset *d, double *buf)
{
    double *z = buf + 2 * d->n, *e = z + d->m, *coeff = e + d->m;
    gradient(d, z, e, coeff, buf + d->n);
}
