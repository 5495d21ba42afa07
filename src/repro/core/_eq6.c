/* _eq6: the damped fixed-point loop of paper Eq. 6, compiled.
 *
 * fixed_point() runs the iteration of repro.core.service's
 * _fixed_point_numpy -- the numpy loop, which stays the reference and
 * the path taken without a compiler -- with exactly its per-element
 * arithmetic and summation order, so both produce the same bits:
 *
 * - the Pollaczek-Khinchine waiting per channel (service._pk_waiting),
 *   with sigma = max(x - msg, 0) propagating NaN as np.maximum does;
 * - x_new[i] = 0 + lead_i, then each forward edge's contribution
 *   e_p * ((w_term + (x[dst] - base)) + hop_cost) added in edge order,
 *   as np.bincount adds them;
 * - delta, the NaN-propagating max of |x_new - x|: when it is not
 *   finite the undamped x_new is kept and the loop stops, otherwise
 *   x = damping * x_new + (1 - damping) * x.
 *
 * Build with -ffp-contract=off (setup.py does): a fused multiply-add in
 * x*x + sigma*sigma or in the damping step would change the bits.  The
 * one difference left is the sign of a NaN fed in from outside: where
 * two NaNs meet in one operation the hardware keeps one operand's, and
 * the two loops need not order operands alike.  The model feeds in no
 * NaN, and the NaNs the loop makes itself (inf - inf) are all alike.
 *
 * The arrays arrive through the buffer protocol, so the build needs no
 * numpy headers.  Their formats, lengths and edge indices are checked
 * once per call, before the loop, which then runs without the GIL.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

/* np.maximum(a, b) for doubles: a NaN in either operand wins.  Both
 * compares always run (| rather than ||), so the select needs no branch. */
static double
nan_max(double a, double b)
{
    return ((a != a) | (a >= b)) ? a : b;
}

enum { X, LAM, SRC, DST, PROB, DISC, NBUF };

static const char *const buf_names[NBUF] = {
    "x", "lam", "edge_src", "edge_dst", "edge_prob", "edge_discount",
};

/* Take a one-dimensional C-contiguous buffer of float64 (is_index = 0)
 * or int32 (is_index = 1); 0 on success, -1 with an exception set. */
static int
get_array(PyObject *obj, Py_buffer *view, int slot, int is_index)
{
    int flags = PyBUF_ND | PyBUF_FORMAT | (slot == X ? PyBUF_WRITABLE : 0);
    const char *fmt;
    int ok;

    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    fmt = view->format != NULL ? view->format : "B";
    if (is_index)
        ok = view->itemsize == 4 && (strcmp(fmt, "i") == 0 || strcmp(fmt, "l") == 0);
    else
        ok = view->itemsize == 8 && strcmp(fmt, "d") == 0;
    if (view->ndim != 1 || !ok) {
        PyErr_Format(PyExc_TypeError,
                     "%s must be a one-dimensional contiguous %s array",
                     buf_names[slot], is_index ? "int32" : "float64");
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

static PyObject *
eq6_fixed_point(PyObject *self, PyObject *args)
{
    PyObject *objs[NBUF];
    Py_buffer views[NBUF];
    double msg, base, hop_cost, tol, damping;
    Py_ssize_t max_iterations, n, m, i, k, it, iterations = 0;
    int taken = 0, converged = 0;
    double *x, *work = NULL;
    PyObject *result = NULL;

    (void)self;
    if (!PyArg_ParseTuple(args, "OOOOOOddddnd:fixed_point",
                          &objs[X], &objs[LAM], &objs[SRC], &objs[DST],
                          &objs[PROB], &objs[DISC], &msg, &base, &hop_cost,
                          &tol, &max_iterations, &damping))
        return NULL;
    for (; taken < NBUF; taken++)
        if (get_array(objs[taken], &views[taken], taken,
                      taken == SRC || taken == DST) < 0)
            goto done;

    n = views[X].shape[0];
    m = views[SRC].shape[0];
    if (views[LAM].shape[0] != n || views[DST].shape[0] != m
        || views[PROB].shape[0] != m || views[DISC].shape[0] != m) {
        PyErr_Format(PyExc_ValueError,
                     "length mismatch: x and lam must have one entry per "
                     "channel, the four edge arrays one per edge (x %zd, lam "
                     "%zd, edges %zd/%zd/%zd/%zd)", n, views[LAM].shape[0], m,
                     views[DST].shape[0], views[PROB].shape[0],
                     views[DISC].shape[0]);
        goto done;
    }
    {
        const int *src = views[SRC].buf, *dst = views[DST].buf;
        for (k = 0; k < m; k++)
            if (src[k] < 0 || src[k] >= n || dst[k] < 0 || dst[k] >= n) {
                PyErr_Format(PyExc_ValueError,
                             "edge %zd (%d -> %d) is out of range for %zd "
                             "channels", k, src[k], dst[k], n);
                goto done;
            }
    }

    /* x_new, w and each channel's leading term, in one block */
    work = PyMem_Malloc((size_t)(3 * n + 1) * sizeof(double));
    if (work == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    x = views[X].buf;

    Py_BEGIN_ALLOW_THREADS
    {
        const double *lam = views[LAM].buf;
        const int *src = views[SRC].buf, *dst = views[DST].buf;
        const double *prob = views[PROB].buf, *disc = views[DISC].buf;
        double *x_new = work, *w = work + n, *lead = work + 2 * n;
        const double keep = 1.0 - damping;
        const double threshold = tol * (msg > 1.0 ? msg : 1.0);

        /* channels without forward edges anchor at msg, the rest start
         * from base */
        for (i = 0; i < n; i++)
            lead[i] = msg;
        for (k = 0; k < m; k++)
            lead[src[k]] = base;

        for (it = 1; it <= max_iterations; it++) {
            double delta = 0.0;

            iterations = it;
            for (i = 0; i < n; i++) {
                double xi = x[i], li = lam[i];
                double sigma = nan_max(xi - msg, 0.0);
                double second_moment = xi * xi + sigma * sigma;
                double rho = li * xi;
                /* computed for every channel, as numpy does, and then
                 * selected without branches */
                double q = li * second_moment / (2.0 * (1.0 - rho));
                int busy = li > 0.0, unsat = rho < 1.0;

                w[i] = (busy & unsat) ? q : (busy ? INFINITY : 0.0);
                x_new[i] = 0.0 + lead[i];
            }
            for (k = 0; k < m; k++) {
                /* a fully-discounted edge contributes no waiting even
                 * when the downstream queue is saturated (0 * inf) */
                double w_term = disc[k] == 0.0 ? 0.0 : disc[k] * w[dst[k]];
                x_new[src[k]] += prob[k] * ((w_term + (x[dst[k]] - base)) + hop_cost);
            }
            /* damp in the same pass; a diverged step overwrites it */
            for (i = 0; i < n; i++) {
                delta = nan_max(delta, fabs(x_new[i] - x[i]));
                x[i] = damping * x_new[i] + keep * x[i];
            }
            if (!isfinite(delta)) {
                /* a saturated channel propagated inf upstream: diverged */
                memcpy(x, x_new, (size_t)n * sizeof(double));
                break;
            }
            if (delta < threshold) {
                converged = 1;
                break;
            }
        }
    }
    Py_END_ALLOW_THREADS

    result = Py_BuildValue("nO", iterations, converged ? Py_True : Py_False);
done:
    PyMem_Free(work);
    while (taken > 0)
        PyBuffer_Release(&views[--taken]);
    return result;
}

static PyMethodDef eq6_methods[] = {
    {"fixed_point", eq6_fixed_point, METH_VARARGS,
     "fixed_point(x, lam, edge_src, edge_dst, edge_prob, edge_discount, msg, "
     "base, hop_cost, tol, max_iterations, damping) -> (iterations, "
     "converged)\n\nRun the damped Eq. 6 iteration from x, leaving the final "
     "iterate in x; bit-identical to repro.core.service._fixed_point_numpy."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef eq6_module = {
    PyModuleDef_HEAD_INIT,
    "repro.core._eq6",
    "Compiled Eq. 6 fixed-point loop of the analytical model.",
    -1,
    eq6_methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC
PyInit__eq6(void)
{
    return PyModule_Create(&eq6_module);
}
