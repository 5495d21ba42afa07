/* _cstep: compiled dispatch fast path for the wormhole engine.
 *
 * A hand-written CPython extension (no Cython) implementing the fused
 * event loop of repro.sim.wormengine.WormEngine.run_events -- calendar
 * pop/merge with the arrival stream, EV_REQUEST/EV_RELEASE/EV_INJECT
 * dispatch, free-path fast hops, drain chaining and ballistic
 * whole-worm completion -- as native code over the very same Python
 * objects the pure-Python kernels use.
 *
 * Design rules (the reasons this can be bit-identical):
 *
 * 1. SINGLE STORE OF TRUTH.  There is no mirrored C state.  Worm and
 *    EventQueue fields are read and written through their __slots__
 *    member offsets (resolved at configure() time from the live
 *    classes, never hard-coded); channel holders/FIFOs are the flat
 *    lists of repro.sim.state.ChannelState.  Bouncing a run to the
 *    Python kernel therefore needs zero state synchronisation.
 *
 * 2. TRANSCRIPTION, NOT REIMPLEMENTATION.  Every function below is a
 *    line-by-line transcription of its Python counterpart (named in its
 *    comment), including where state is re-read after a Python callout
 *    and where a stale local is deliberately kept (the drain chain's
 *    event-budget local, the fast-forward interference limit).  Keep
 *    them in sync with wormengine.py.
 *
 * 3. PYTHON CALLOUTS FOR EVERYTHING COLD.  Generated arrivals (Poisson,
 *    CBR and ON/OFF timing) are the one hot path that leaves Python:
 *    the native ArrivalStream below draws them from the run's own numpy
 *    Generator (numpy's own distribution functions through the bit
 *    generator's capsule, so the draws are numpy's bits), and the loop
 *    builds and injects each unicast worm and folds its completion into
 *    LatencyStats itself when the run armed it (stock spawn closure,
 *    stock stats tracer).  Multicast and non-stock spawns, trace
 *    replay, EV_CALL payloads, segment refills, overflow heap pushes,
 *    deadlock recovery and the remaining on_clone/on_complete hooks
 *    call back into Python.  The engine's _remaining/_arr_next window
 *    attrs are synced before any callout that can observe them, and
 *    re-read afterwards, at exactly the program points the Python loop
 *    reads its own attributes.
 *
 * 4. BOUNCE WHAT YOU DO NOT MODEL.  Timestamps at or beyond 2^52 (where
 *    C double->int window arithmetic could diverge from Python's
 *    arbitrary-precision ints), calendar spans wider than the 64-bit
 *    occupancy word, non-standard queue classes, or per-hop
 *    acquire/release hooks make run_events return (fired_so_far, True)
 *    at a clean iteration boundary -- the caller finishes the run with
 *    the pure-Python kernel.  inject() returns False to decline and the
 *    caller falls back likewise.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <math.h>
#include <numpy/random/distributions.h>

/* int(t) and window arithmetic are exact below 2^52; past it, bounce. */
#define TIME_MAX 4503599627370496.0
#define COV_MAX (1LL << 52)
#define SEQ_MAX (1LL << 62)

/* ------------------------------------------------------------------ */
/* configuration (configure() fills these)                             */

static int configured = 0;
static PyTypeObject *worm_type = NULL;
static PyTypeObject *queue_type = NULL;
static PyObject *heappush_fn = NULL;
static long ev_request_c = 0, ev_release_c = 1, ev_inject_c = 2;
static Py_ssize_t trim_len = 1024;
static long long fifo_compact = 32;

static PyObject *unicast_klass = NULL; /* WormClass.UNICAST */
static PyTypeObject *stats_type = NULL; /* LatencyStats */

/* Worm __slots__ offsets */
static Py_ssize_t w_uid, w_klass, w_source, w_ctime, w_path, w_H, w_acq,
    w_ptr, w_mlen, w_clones, w_trans, w_blocked, w_done;
/* LatencyStats __slots__ offsets */
static Py_ssize_t ls_n, ls_mean, ls_m2, ls_min, ls_max, ls_samples, ls_keep;
/* run state (repro.sim.network._RunState) __slots__ offsets, resolved
 * by resolve_run_state for the type last used */
static PyTypeObject *rs_type = NULL;
static Py_ssize_t rs_warmup, rs_unicast, rs_completed, rs_generated;
/* EventQueue __slots__ offsets */
static Py_ssize_t q_next, q_run, q_idx, q_cov, q_buckets, q_span, q_mask,
    q_occ, q_overflow, q_seq, q_now;

/* interned names */
static PyObject *s_events, *s_holders, *s_fifos, *s_fifo_heads,
    *s_on_clone, *s_on_complete, *s_on_acquire, *s_on_release,
    *s_arrivals, *s_arr_next, *s_horizon, *s_remaining, *s_active_worms,
    *s_recover, *s_refill, *s_push_record, *s_next_time, *s_fire;

/* ------------------------------------------------------------------ */
/* slot access                                                         */

static inline PyObject *
slot_get(PyObject *o, Py_ssize_t off)
{
    return *(PyObject **)((char *)o + off);
}

/* store v (borrowed in, increfed here), releasing the old value */
static int
slot_set(PyObject *o, Py_ssize_t off, PyObject *v)
{
    PyObject **p = (PyObject **)((char *)o + off);
    PyObject *old = *p;
    Py_INCREF(v);
    *p = v;
    Py_XDECREF(old);
    return 0;
}

/* store v (steals the reference); fails if v is NULL */
static int
slot_set_steal(PyObject *o, Py_ssize_t off, PyObject *v)
{
    PyObject **p, *old;
    if (v == NULL)
        return -1;
    p = (PyObject **)((char *)o + off);
    old = *p;
    *p = v;
    Py_XDECREF(old);
    return 0;
}

static int
slot_get_double(PyObject *o, Py_ssize_t off, double *out)
{
    PyObject *v = slot_get(o, off);
    double d;
    if (v == NULL) {
        PyErr_SetString(PyExc_AttributeError, "unset slot");
        return -1;
    }
    if (PyFloat_CheckExact(v)) {
        *out = PyFloat_AS_DOUBLE(v);
        return 0;
    }
    d = PyFloat_AsDouble(v);
    if (d == -1.0 && PyErr_Occurred())
        return -1;
    *out = d;
    return 0;
}

static int
slot_get_ll(PyObject *o, Py_ssize_t off, long long *out)
{
    PyObject *v = slot_get(o, off);
    long long r;
    if (v == NULL) {
        PyErr_SetString(PyExc_AttributeError, "unset slot");
        return -1;
    }
    r = PyLong_AsLongLong(v);
    if (r == -1 && PyErr_Occurred())
        return -1;
    *out = r;
    return 0;
}

static int
slot_set_ll(PyObject *o, Py_ssize_t off, long long v)
{
    return slot_set_steal(o, off, PyLong_FromLongLong(v));
}

static int
slot_set_double(PyObject *o, Py_ssize_t off, double v)
{
    return slot_set_steal(o, off, PyFloat_FromDouble(v));
}

/* occupancy word: span <= 64 guarantees it fits an unsigned 64-bit */
static int
slot_get_ull(PyObject *o, Py_ssize_t off, unsigned long long *out)
{
    PyObject *v = slot_get(o, off);
    unsigned long long r;
    if (v == NULL) {
        PyErr_SetString(PyExc_AttributeError, "unset slot");
        return -1;
    }
    r = PyLong_AsUnsignedLongLong(v);
    if (r == (unsigned long long)-1 && PyErr_Occurred())
        return -1;
    *out = r;
    return 0;
}

static inline int
ctz64(unsigned long long x)
{
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_ctzll(x);
#else
    int n = 0;
    while (!(x & 1ULL)) {
        x >>= 1;
        n++;
    }
    return n;
#endif
}

/* ------------------------------------------------------------------ */
/* engine attribute helpers                                            */

static int
eng_get_ll(PyObject *engine, PyObject *name, long long *out)
{
    PyObject *v = PyObject_GetAttr(engine, name);
    long long r;
    if (v == NULL)
        return -1;
    r = PyLong_AsLongLong(v);
    Py_DECREF(v);
    if (r == -1 && PyErr_Occurred())
        return -1;
    *out = r;
    return 0;
}

static int
eng_set_ll(PyObject *engine, PyObject *name, long long v)
{
    PyObject *o = PyLong_FromLongLong(v);
    int rc;
    if (o == NULL)
        return -1;
    rc = PyObject_SetAttr(engine, name, o);
    Py_DECREF(o);
    return rc;
}

static int
eng_add_ll(PyObject *engine, PyObject *name, long long delta)
{
    long long v;
    if (eng_get_ll(engine, name, &v))
        return -1;
    return eng_set_ll(engine, name, v + delta);
}

/* ------------------------------------------------------------------ */
/* event records                                                       */

static int
rec_check(PyObject *rec)
{
    if (!PyTuple_CheckExact(rec) || PyTuple_GET_SIZE(rec) != 5) {
        PyErr_SetString(PyExc_RuntimeError,
                        "malformed event record (want a 5-tuple)");
        return -1;
    }
    return 0;
}

static int
rec_time(PyObject *rec, double *out)
{
    double d = PyFloat_AsDouble(PyTuple_GET_ITEM(rec, 0));
    if (d == -1.0 && PyErr_Occurred())
        return -1;
    *out = d;
    return 0;
}

/* (time, seq) ordering -- exactly the tuple-compare contract (seqs are
 * unique, so Python's comparison never reaches the payload) */
static int
rec_cmp(PyObject *a, PyObject *b, int *err)
{
    double ta, tb;
    long long sa, sb;
    if (rec_check(a) || rec_check(b) || rec_time(a, &ta) || rec_time(b, &tb)) {
        *err = 1;
        return 0;
    }
    if (ta < tb)
        return -1;
    if (ta > tb)
        return 1;
    sa = PyLong_AsLongLong(PyTuple_GET_ITEM(a, 1));
    if (sa == -1 && PyErr_Occurred()) {
        *err = 1;
        return 0;
    }
    sb = PyLong_AsLongLong(PyTuple_GET_ITEM(b, 1));
    if (sb == -1 && PyErr_Occurred()) {
        *err = 1;
        return 0;
    }
    return (sa < sb) ? -1 : (sa > sb ? 1 : 0);
}

static PyObject *
mk_rec(double t, long long seq, long code, PyObject *payload, long pos)
{
    PyObject *r = PyTuple_New(5);
    PyObject *o;
    if (r == NULL)
        return NULL;
    o = PyFloat_FromDouble(t);
    if (o == NULL)
        goto fail;
    PyTuple_SET_ITEM(r, 0, o);
    o = PyLong_FromLongLong(seq);
    if (o == NULL)
        goto fail;
    PyTuple_SET_ITEM(r, 1, o);
    o = PyLong_FromLong(code);
    if (o == NULL)
        goto fail;
    PyTuple_SET_ITEM(r, 2, o);
    Py_INCREF(payload);
    PyTuple_SET_ITEM(r, 3, payload);
    o = PyLong_FromLong(pos);
    if (o == NULL)
        goto fail;
    PyTuple_SET_ITEM(r, 4, o);
    return r;
fail:
    Py_DECREF(r);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* native arrivals (repro.sim.arrivals.PoissonArrivalStream and the     */
/* CBRArrivalStream / OnOffArrivalStream of repro.traffic.sources)      */

static Py_ssize_t member_offset(PyTypeObject *tp, const char *name);

/* one source head: the tuple (t, order, src, scale) of the Python heap;
 * src is the node for a unicast source and ~node for a multicast one.
 * An ON/OFF source carries its current ON window [ws, we] along
 * (OnOffArrivalStream._windows[src]). */
typedef struct {
    double t;
    long long order;
    long src;
    double scale;
    double ws, we;
} Head;

/* repro.sim.arrivals.MULTICAST: the destination of a multicast arrival */
#define MULTICAST_DEST (-1L)

/* the gap process: SourceSpec.kind of the run's timing */
enum { PROC_POISSON, PROC_CBR, PROC_ONOFF };

typedef struct {
    PyObject_HEAD
    double next_time;
    int process;             /* PROC_* */
    double jitter;           /* CBR: phase window / period */
    double on_mean, off_mean, duty, alpha; /* ON/OFF */
    int pareto;              /* ON/OFF: Pareto (else exponential) windows */
    bitgen_t *bitgen;        /* the run Generator's bit generator */
    PyObject *bit_generator; /* owns *bitgen */
    PyObject *spawn;         /* spawn(t, node, dest) */
    Head *heads;
    Py_ssize_t nheads;
    long long order;
    long n;
    double *cdf;             /* n CDF rows of n, row-major; NULL: uniform */
    /* native unicast spawn, armed by spawn_unicast(); routes NULL: off */
    PyObject *routes;        /* list of n * n channel tuples or None */
    PyObject *route_fill;    /* fill(node, dest) -> channel tuple */
    PyObject *uids;          /* the run's uid iterator */
    PyObject *msg_len;
    PyObject *spawn_state;   /* run state whose `generated` counts */
    /* run state whose unicast completions fold natively; NULL: off */
    PyObject *stats_state;
} AStream;

static PyTypeObject AStream_Type;

/* heapq's tuple order: orders are unique, so (t, order) decides */
static inline int
head_lt(const Head *a, const Head *b)
{
    if (a->t == b->t)
        return a->order < b->order;
    return a->t < b->t;
}

/* heapq._siftdown */
static void
heap_siftdown(Head *h, Py_ssize_t startpos, Py_ssize_t pos)
{
    Head newitem = h[pos];
    while (pos > startpos) {
        Py_ssize_t parentpos = (pos - 1) >> 1;
        if (head_lt(&newitem, &h[parentpos])) {
            h[pos] = h[parentpos];
            pos = parentpos;
            continue;
        }
        break;
    }
    h[pos] = newitem;
}

/* heapq._siftup */
static void
heap_siftup(Head *h, Py_ssize_t endpos, Py_ssize_t pos)
{
    Py_ssize_t startpos = pos, childpos = 2 * pos + 1;
    Head newitem = h[pos];
    while (childpos < endpos) {
        Py_ssize_t rightpos = childpos + 1;
        if (rightpos < endpos && !head_lt(&h[childpos], &h[rightpos]))
            childpos = rightpos;
        h[pos] = h[childpos];
        pos = childpos;
        childpos = 2 * pos + 1;
    }
    h[pos] = newitem;
    heap_siftdown(h, startpos, pos);
}

/* the destination draw of PoissonArrivalStream._refill: either
 * int(rng.integers(0, n - 1)) and the self-exclusion shift, or
 * min(int(np.searchsorted(cdfs[node], rng.random(), side="right")),
 * n - 1) -- numpy's own draws, numpy's NaN-aware binary search */
static long
as_draw_dest(AStream *s, long node)
{
    long n = s->n, dest;
    if (s->cdf == NULL) {
        uint64_t r;
        /* Generator.integers(0, n - 1): off 0, closed range n - 2,
         * Lemire rejection (use_masked=False) */
        random_bounded_uint64_fill(s->bitgen, 0, (uint64_t)(n - 2), 1, false,
                                   &r);
        dest = (long)r;
        if (dest >= node)
            dest += 1;
        return dest;
    }
    {
        double r = random_standard_uniform(s->bitgen);
        const double *a = s->cdf + (Py_ssize_t)node * n;
        Py_ssize_t lo = 0, hi = n;
        while (lo < hi) {
            Py_ssize_t mid = lo + ((hi - lo) >> 1);
            double v = a[mid];
            /* side="right": step past every v <= r (npy's LT(r, v) is
             * r < v, or v NaN and r not) */
            if (!(r < v || (v != v && r == r)))
                lo = mid + 1;
            else
                hi = mid;
        }
        dest = (long)lo;
        return dest < n - 1 ? dest : n - 1;
    }
}

/* OnOffArrivalStream._duration */
static double
as_duration(AStream *s, double mean)
{
    if (mean <= 0.0)
        return 0.0;
    if (s->pareto) {
        /* Pareto(alpha, xm) with E = xm * alpha / (alpha - 1) = mean */
        double xm = mean * (s->alpha - 1.0) / s->alpha;
        return xm * (1.0 + random_pareto(s->bitgen, s->alpha));
    }
    return random_exponential(s->bitgen, mean);
}

/* OnOffArrivalStream._arrival_after over the head's own window */
static double
as_arrival_after(AStream *s, Head *h, double t)
{
    /* scale is 1/nominal-rate; ON-rate = rate/duty => ON-scale = scale*duty */
    double gap = random_exponential(s->bitgen, h->scale * s->duty);
    double pos = t > h->ws ? t : h->ws;
    while (pos + gap > h->we) {
        /* carry the memoryless residual across the OFF window */
        gap -= h->we - pos;
        h->ws = h->we + as_duration(s, s->off_mean);
        h->we = h->ws + as_duration(s, s->on_mean);
        pos = h->ws;
    }
    return pos + gap;
}

/* the _initial_time of each stream class, for the head h of scale */
static void
as_initial_time(AStream *s, Head *h, double scale)
{
    h->scale = scale;
    if (s->process == PROC_POISSON)
        h->t = random_exponential(s->bitgen, scale);
    else if (s->process == PROC_CBR)
        /* drawn even at jitter 0 */
        h->t = random_standard_uniform(s->bitgen) * (scale * s->jitter);
    else {
        h->ws = random_standard_uniform(s->bitgen) * (s->on_mean + s->off_mean);
        h->we = h->ws + as_duration(s, s->on_mean);
        h->t = as_arrival_after(s, h, -INFINITY);
    }
}

/* Consume the head arrival: its destination draw (unicast), then its
 * source's next time, then heapreplace -- one step of _refill, taken at
 * the moment the arrival fires.  The caller guarantees nheads > 0. */
static void
as_pop(AStream *s, long *node, long *dest)
{
    Head *h = &s->heads[0];
    if (h->src >= 0) {
        *node = h->src;
        *dest = as_draw_dest(s, h->src);
    }
    else {
        *node = ~h->src;
        *dest = MULTICAST_DEST;
    }
    if (s->process == PROC_POISSON) /* the hot path stays first */
        h->t = h->t + random_exponential(s->bitgen, h->scale);
    else if (s->process == PROC_CBR)
        h->t = h->t + h->scale;
    else {
        /* MergedArrivalStream._refill: t + _next_gap(...), whose ON/OFF
         * gap is _arrival_after(...) - t */
        double t = h->t;
        h->t = t + (as_arrival_after(s, h, t) - t);
    }
    h->order = s->order++;
    heap_siftup(s->heads, s->nheads, 0);
    s->next_time = s->heads[0].t;
}

static int
as_traverse(AStream *s, visitproc visit, void *arg)
{
    Py_VISIT(s->bit_generator);
    Py_VISIT(s->spawn);
    Py_VISIT(s->routes);
    Py_VISIT(s->route_fill);
    Py_VISIT(s->uids);
    Py_VISIT(s->msg_len);
    Py_VISIT(s->spawn_state);
    Py_VISIT(s->stats_state);
    return 0;
}

static int
as_clear(AStream *s)
{
    Py_CLEAR(s->bit_generator);
    Py_CLEAR(s->spawn);
    Py_CLEAR(s->routes);
    Py_CLEAR(s->route_fill);
    Py_CLEAR(s->uids);
    Py_CLEAR(s->msg_len);
    Py_CLEAR(s->spawn_state);
    Py_CLEAR(s->stats_state);
    s->bitgen = NULL;
    return 0;
}

static void
as_dealloc(AStream *s)
{
    PyObject_GC_UnTrack(s);
    as_clear(s);
    PyMem_Free(s->heads);
    PyMem_Free(s->cdf);
    Py_TYPE(s)->tp_free((PyObject *)s);
}

/* copy dest_cdfs[0:n] -- n float64 rows of n -- into one C array */
static int
as_load_cdfs(AStream *s, PyObject *cdfs)
{
    PyObject *seq = PySequence_Fast(cdfs, "dest_cdfs must be a sequence");
    Py_ssize_t r, n = s->n;
    if (seq == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(seq) < n) {
        PyErr_Format(PyExc_ValueError, "dest_cdfs needs %zd rows, got %zd",
                     n, PySequence_Fast_GET_SIZE(seq));
        goto fail;
    }
    s->cdf = PyMem_New(double, n * n > 0 ? n * n : 1);
    if (s->cdf == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (r = 0; r < n; r++) {
        Py_buffer v;
        int ok;
        if (PyObject_GetBuffer(PySequence_Fast_GET_ITEM(seq, r), &v,
                               PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
            goto fail;
        ok = v.ndim == 1 && v.shape[0] == n && v.itemsize == sizeof(double) &&
             v.format != NULL && strcmp(v.format, "d") == 0;
        if (ok)
            memcpy(s->cdf + r * n, v.buf, (size_t)n * sizeof(double));
        PyBuffer_Release(&v);
        if (!ok) {
            PyErr_SetString(PyExc_TypeError,
                            "dest_cdfs rows must be float64 arrays of "
                            "num_nodes entries");
            goto fail;
        }
    }
    Py_DECREF(seq);
    return 0;
fail:
    Py_DECREF(seq);
    return -1;
}

/* float(obj) into *out.  The callers keep obj for their messages:
 * the Python constructors print str(value), so an int stays an int */
static int
as_float(PyObject *obj, double *out)
{
    *out = PyFloat_AsDouble(obj);
    return *out == -1.0 && PyErr_Occurred() ? -1 : 0;
}

/* The gap process and its parameters, checked as the Python
 * constructors check them before their first draw: CBRArrivalStream
 * (jitter) and OnOffArrivalStream (on_mean, off_mean, tail, alpha).
 * Parameters of the other processes are ignored, as there. */
static int
as_set_process(AStream *s, const char *process, PyObject *jitter,
               PyObject *on_mean, PyObject *off_mean, PyObject *tail,
               PyObject *alpha)
{
    if (strcmp(process, "poisson") == 0) {
        s->process = PROC_POISSON;
        return 0;
    }
    if (strcmp(process, "cbr") == 0) {
        s->process = PROC_CBR;
        s->jitter = 1.0;
        if (jitter != NULL && as_float(jitter, &s->jitter))
            return -1;
        if (!(0.0 <= s->jitter && s->jitter <= 1.0)) {
            PyErr_Format(PyExc_ValueError,
                         "cbr jitter must be in [0, 1], got %S", jitter);
            return -1;
        }
        return 0;
    }
    if (strcmp(process, "onoff") == 0) {
        static const char *names[] = {"on_mean", "off_mean", "pareto_alpha"};
        PyObject *objs[] = {on_mean, off_mean, alpha};
        double *vals[] = {&s->on_mean, &s->off_mean, &s->alpha};
        int i;
        s->process = PROC_ONOFF;
        if (on_mean == NULL || off_mean == NULL) {
            PyErr_SetString(PyExc_TypeError,
                            "process 'onoff' needs on_mean and off_mean");
            return -1;
        }
        s->alpha = 1.5;
        for (i = 0; i < 3; i++) {
            if (objs[i] == NULL)
                continue;
            if (as_float(objs[i], vals[i]))
                return -1;
            if (!isfinite(*vals[i])) {
                PyErr_Format(PyExc_ValueError, "%s must be finite, got %S",
                             names[i], objs[i]);
                return -1;
            }
        }
        if (s->on_mean <= 0.0) {
            PyErr_Format(PyExc_ValueError, "on_mean must be > 0, got %S",
                         on_mean);
            return -1;
        }
        if (s->off_mean < 0.0) {
            PyErr_Format(PyExc_ValueError, "off_mean must be >= 0, got %S",
                         off_mean);
            return -1;
        }
        if (tail != NULL) { /* tail not in ("exp", "pareto") */
            int is_str = PyUnicode_Check(tail);
            s->pareto =
                is_str && PyUnicode_CompareWithASCIIString(tail, "pareto") == 0;
            if (!s->pareto &&
                !(is_str && PyUnicode_CompareWithASCIIString(tail, "exp") == 0)) {
                PyErr_Format(PyExc_ValueError,
                             "on_tail must be 'exp' or 'pareto', got %R", tail);
                return -1;
            }
        }
        if (s->pareto && s->alpha <= 1.0) {
            PyErr_Format(PyExc_ValueError, "pareto_alpha must be > 1, got %S",
                         alpha);
            return -1;
        }
        s->duty = s->on_mean / (s->on_mean + s->off_mean);
        return 0;
    }
    PyErr_Format(PyExc_ValueError,
                 "process must be 'poisson', 'cbr' or 'onoff', got '%s'",
                 process);
    return -1;
}

/* ArrivalStream(rng, num_nodes, unicast_rate, multicast_rate,
 *               multicast_nodes, dest_cdfs, spawn, *, process="poisson",
 *               jitter=1.0, on_mean, off_mean, tail="exp", alpha=1.5)
 * -- the constructor of PoissonArrivalStream (process "poisson"),
 * CBRArrivalStream ("cbr") or OnOffArrivalStream ("onoff"): one initial
 * time per unicast node in node order, then one per multicast node in
 * the given (sorted) order */
static PyObject *
as_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"rng", "num_nodes", "unicast_rate",
                             "multicast_rate", "multicast_nodes",
                             "dest_cdfs", "spawn", "process", "jitter",
                             "on_mean", "off_mean", "tail", "alpha", NULL};
    PyObject *rng, *mnodes, *cdfs, *spawn, *cap = NULL, *mseq = NULL;
    PyObject *jitter = NULL, *on_mean = NULL, *off_mean = NULL, *tail = NULL,
             *alpha = NULL;
    const char *process = "poisson";
    long n;
    double lam_u, lam_m;
    Py_ssize_t nu, nm, k = 0, i;
    AStream *s;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OlddOOO|$sOOOOO:ArrivalStream",
                                     kwlist, &rng, &n, &lam_u, &lam_m,
                                     &mnodes, &cdfs, &spawn, &process,
                                     &jitter, &on_mean, &off_mean, &tail,
                                     &alpha))
        return NULL;
    if (!PyCallable_Check(spawn)) {
        PyErr_SetString(PyExc_TypeError, "spawn must be callable");
        return NULL;
    }
    if (n < 0) {
        PyErr_SetString(PyExc_ValueError, "num_nodes must be >= 0");
        return NULL;
    }
    mseq = PySequence_Fast(mnodes, "multicast_nodes must be a sequence");
    if (mseq == NULL)
        return NULL;
    s = (AStream *)type->tp_alloc(type, 0);
    if (s == NULL) {
        Py_DECREF(mseq);
        return NULL;
    }
    s->n = n;
    s->next_time = INFINITY;
    Py_INCREF(spawn);
    s->spawn = spawn;
    if (as_set_process(s, process, jitter, on_mean, off_mean, tail, alpha))
        goto fail;
    s->bit_generator = PyObject_GetAttrString(rng, "bit_generator");
    if (s->bit_generator == NULL)
        goto fail;
    cap = PyObject_GetAttrString(s->bit_generator, "capsule");
    if (cap == NULL)
        goto fail;
    s->bitgen = (bitgen_t *)PyCapsule_GetPointer(cap, "BitGenerator");
    Py_DECREF(cap);
    if (s->bitgen == NULL)
        goto fail;
    if (cdfs != Py_None && as_load_cdfs(s, cdfs))
        goto fail;

    nu = lam_u > 0.0 ? (Py_ssize_t)n : 0;
    nm = lam_m > 0.0 ? PySequence_Fast_GET_SIZE(mseq) : 0;
    s->heads = PyMem_New(Head, nu + nm > 0 ? nu + nm : 1);
    if (s->heads == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (i = 0; i < nu; i++, k++) {
        s->heads[k].order = k;
        s->heads[k].src = (long)i;
        as_initial_time(s, &s->heads[k], 1.0 / lam_u);
    }
    for (i = 0; i < nm; i++, k++) {
        long node = PyLong_AsLong(PySequence_Fast_GET_ITEM(mseq, i));
        if (node == -1 && PyErr_Occurred())
            goto fail;
        if (node < 0) { /* ~node must tag it as multicast */
            PyErr_Format(PyExc_ValueError, "negative multicast node %ld",
                         node);
            goto fail;
        }
        s->heads[k].order = k;
        s->heads[k].src = ~node;
        as_initial_time(s, &s->heads[k], 1.0 / lam_m);
    }
    if (nu && n < 2) {
        /* what Generator.integers(0, n - 1) raises */
        PyErr_SetString(PyExc_ValueError, "high <= 0");
        goto fail;
    }
    s->nheads = k;
    s->order = k;
    for (i = k / 2 - 1; i >= 0; i--) /* heapq.heapify */
        heap_siftup(s->heads, k, i);
    if (k)
        s->next_time = s->heads[0].t;
    Py_DECREF(mseq);
    return (PyObject *)s;
fail:
    Py_DECREF(mseq);
    Py_DECREF(s);
    return NULL;
}

/* fire(t) -> next_time: PoissonArrivalStream.fire -- advance first, then
 * spawn(t, node, dest) in Python (the native loop spawns inline) */
static PyObject *
as_fire(AStream *s, PyObject *targ)
{
    long node, dest;
    PyObject *r;
    if (s->nheads == 0 || s->bitgen == NULL) {
        PyErr_SetString(PyExc_IndexError, "fire() on an exhausted stream");
        return NULL;
    }
    as_pop(s, &node, &dest);
    r = PyObject_CallFunction(s->spawn, "Oll", targ, node, dest);
    if (r == NULL)
        return NULL;
    Py_DECREF(r);
    return PyFloat_FromDouble(s->next_time);
}

/* resolve the rs_* offsets for state's type (cached: one compare when
 * the type is the one resolved last); every use of a run state calls it */
static int
resolve_run_state(PyObject *state)
{
    PyTypeObject *tp = Py_TYPE(state);
    Py_ssize_t w, u, c, g;
    if (tp == rs_type)
        return 0;
    if ((w = member_offset(tp, "warmup")) < 0 ||
        (u = member_offset(tp, "unicast")) < 0 ||
        (c = member_offset(tp, "completed")) < 0 ||
        (g = member_offset(tp, "generated")) < 0)
        return -1;
    rs_warmup = w;
    rs_unicast = u;
    rs_completed = c;
    rs_generated = g;
    Py_INCREF(tp);
    Py_XSETREF(rs_type, tp);
    return 0;
}

/* spawn_unicast(routes, route_fill, uids, run_state, message_length):
 * the native loop spawns unicast arrivals itself, exactly as the stock
 * NocSimulator.run closure does */
static PyObject *
as_spawn_unicast(AStream *s, PyObject *args)
{
    PyObject *routes, *fill, *uids, *state, *mlen;
    if (!PyArg_ParseTuple(args, "O!OOOO:spawn_unicast", &PyList_Type,
                          &routes, &fill, &uids, &state, &mlen))
        return NULL;
    if (PyList_GET_SIZE(routes) != (Py_ssize_t)s->n * s->n) {
        PyErr_SetString(PyExc_ValueError, "routes needs num_nodes**2 slots");
        return NULL;
    }
    if (!PyCallable_Check(fill) || !PyIter_Check(uids)) {
        PyErr_SetString(PyExc_TypeError,
                        "route_fill must be callable and uids an iterator");
        return NULL;
    }
    if (resolve_run_state(state))
        return NULL;
    Py_INCREF(routes);
    Py_XSETREF(s->routes, routes);
    Py_INCREF(fill);
    Py_XSETREF(s->route_fill, fill);
    Py_INCREF(uids);
    Py_XSETREF(s->uids, uids);
    Py_INCREF(state);
    Py_XSETREF(s->spawn_state, state);
    Py_INCREF(mlen);
    Py_XSETREF(s->msg_len, mlen);
    Py_RETURN_NONE;
}

/* fold_unicast_stats(run_state): unicast completions inside the native
 * loop update run_state as the stock _StatsTracer.on_complete does */
static PyObject *
as_fold_unicast_stats(AStream *s, PyObject *state)
{
    if (resolve_run_state(state))
        return NULL;
    Py_INCREF(state);
    Py_XSETREF(s->stats_state, state);
    Py_RETURN_NONE;
}

static PyObject *
as_pending(AStream *s, void *closure)
{
    return PyBool_FromLong(s->nheads > 0);
}

static PyMethodDef as_methods[] = {
    {"fire", (PyCFunction)as_fire, METH_O,
     "fire(t) -> next_time\n\nConsume the next arrival and pass it to "
     "spawn(t, node, dest)."},
    {"spawn_unicast", (PyCFunction)as_spawn_unicast, METH_VARARGS,
     "spawn_unicast(routes, route_fill, uids, run_state, message_length)"
     "\n\nSpawn unicast arrivals natively inside the dispatch loop."},
    {"fold_unicast_stats", (PyCFunction)as_fold_unicast_stats, METH_O,
     "fold_unicast_stats(run_state)\n\nFold unicast completions inside "
     "the dispatch loop into run_state's statistics natively."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef as_members[] = {
    {"next_time", T_DOUBLE, offsetof(AStream, next_time), READONLY,
     "time of the next arrival (inf when there is none)"},
    {NULL, 0, 0, 0, NULL},
};

static PyGetSetDef as_getset[] = {
    {"pending", (getter)as_pending, NULL,
     "True while the stream can still produce arrivals", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject AStream_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._cstep.ArrivalStream",
    .tp_basicsize = sizeof(AStream),
    .tp_dealloc = (destructor)as_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Merged per-node Poisson, CBR or ON/OFF arrivals drawn "
              "natively from the run's numpy Generator, bit for bit as "
              "PoissonArrivalStream, CBRArrivalStream and "
              "OnOffArrivalStream.",
    .tp_traverse = (traverseproc)as_traverse,
    .tp_clear = (inquiry)as_clear,
    .tp_methods = as_methods,
    .tp_members = as_members,
    .tp_getset = as_getset,
    .tp_new = as_new,
};

/* ------------------------------------------------------------------ */
/* run context                                                         */

typedef struct {
    PyObject *engine;     /* borrowed (caller holds it) */
    PyObject *events;     /* strong */
    PyObject *holders;    /* strong, list */
    PyObject *fifos;      /* strong, list of lists */
    PyObject *fifo_heads; /* strong, list of ints */
    PyObject *buckets;    /* strong, list (queue ring) */
    PyObject *overflow;   /* strong, list (queue spill heap) */
    PyObject *on_clone;   /* strong or NULL */
    PyObject *on_complete;/* strong or NULL */
    PyObject *arrivals;   /* strong or NULL */
    AStream *as;          /* arrivals when it is a native stream */
    long long span, qmask;
    double arr_next;      /* live mirror of engine._arr_next */
    double horizon;
    long long remaining;  /* live event budget (attr synced at callouts) */
    Py_ssize_t nch;
} Ctx;

static void
ctx_clear(Ctx *c)
{
    Py_CLEAR(c->events);
    Py_CLEAR(c->holders);
    Py_CLEAR(c->fifos);
    Py_CLEAR(c->fifo_heads);
    Py_CLEAR(c->buckets);
    Py_CLEAR(c->overflow);
    Py_CLEAR(c->on_clone);
    Py_CLEAR(c->on_complete);
    Py_CLEAR(c->arrivals);
}

/* returns 0 ok, 1 decline (caller should use the Python kernel), -1 error */
static int
ctx_init(Ctx *c, PyObject *engine)
{
    PyObject *v;
    long long cov, seq;
    memset(c, 0, sizeof(*c));
    c->engine = engine;

    c->events = PyObject_GetAttr(engine, s_events);
    if (c->events == NULL)
        return -1;
    if (Py_TYPE(c->events) != queue_type)
        goto decline;

    if (slot_get_ll(c->events, q_span, &c->span))
        goto decline_clear;
    if (c->span < 1 || c->span > 64)
        goto decline;
    if (slot_get_ll(c->events, q_mask, &c->qmask))
        goto decline_clear;
    if (slot_get_ll(c->events, q_cov, &cov))
        goto decline_clear;
    if (cov < 0 || cov > COV_MAX)
        goto decline;
    if (slot_get_ll(c->events, q_seq, &seq))
        goto decline_clear;
    if (seq < 0 || seq > SEQ_MAX)
        goto decline;

    v = slot_get(c->events, q_buckets);
    if (v == NULL || !PyList_CheckExact(v) ||
        PyList_GET_SIZE(v) != (Py_ssize_t)c->span)
        goto decline;
    Py_INCREF(v);
    c->buckets = v;
    v = slot_get(c->events, q_overflow);
    if (v == NULL || !PyList_CheckExact(v))
        goto decline;
    Py_INCREF(v);
    c->overflow = v;

    c->holders = PyObject_GetAttr(engine, s_holders);
    if (c->holders == NULL)
        goto decline_clear;
    c->fifos = PyObject_GetAttr(engine, s_fifos);
    if (c->fifos == NULL)
        goto decline_clear;
    c->fifo_heads = PyObject_GetAttr(engine, s_fifo_heads);
    if (c->fifo_heads == NULL)
        goto decline_clear;
    if (!PyList_CheckExact(c->holders) || !PyList_CheckExact(c->fifos) ||
        !PyList_CheckExact(c->fifo_heads))
        goto decline;
    c->nch = PyList_GET_SIZE(c->holders);
    if (PyList_GET_SIZE(c->fifos) != c->nch ||
        PyList_GET_SIZE(c->fifo_heads) != c->nch)
        goto decline;

    /* per-hop hooks are not modelled: their owners take the Python kernel */
    v = PyObject_GetAttr(engine, s_on_acquire);
    if (v == NULL)
        goto decline_clear;
    if (v != Py_None) {
        Py_DECREF(v);
        goto decline;
    }
    Py_DECREF(v);
    v = PyObject_GetAttr(engine, s_on_release);
    if (v == NULL)
        goto decline_clear;
    if (v != Py_None) {
        Py_DECREF(v);
        goto decline;
    }
    Py_DECREF(v);

    v = PyObject_GetAttr(engine, s_on_clone);
    if (v == NULL)
        goto decline_clear;
    if (v == Py_None)
        Py_DECREF(v);
    else
        c->on_clone = v;
    v = PyObject_GetAttr(engine, s_on_complete);
    if (v == NULL)
        goto decline_clear;
    if (v == Py_None)
        Py_DECREF(v);
    else
        c->on_complete = v;
    return 0;

decline_clear:
    PyErr_Clear();
decline:
    ctx_clear(c);
    return 1;
}

/* Take a reference to the run's arrival source (None: no arrivals).
 *
 * NATIVE_HEAD: with the native stream the live arrival head is read
 * from the stream itself (c->as->next_time), and the engine's _arr_next
 * attr is not mirrored while the window runs: it only ever serves
 * WormEngine._grant_fast, and every Python path into that refreshes it
 * first (WormEngine.inject from arrivals.next_time, the Python loop at
 * entry and after each fire), and the window's exit restores it. */
static void
ctx_set_arrivals(Ctx *c, PyObject *arrivals)
{
    if (arrivals == Py_None)
        return;
    Py_INCREF(arrivals);
    c->arrivals = arrivals;
    if (Py_TYPE(arrivals) == &AStream_Type)
        c->as = (AStream *)arrivals;
}

/* ------------------------------------------------------------------ */
/* worm helpers                                                        */

static int
worm_get_long(PyObject *w, Py_ssize_t off, long *out)
{
    long long v;
    if (slot_get_ll(w, off, &v))
        return -1;
    *out = (long)v;
    return 0;
}

static int
worm_done(PyObject *w, int *out)
{
    PyObject *v = slot_get(w, w_done);
    int r;
    if (v == NULL) {
        PyErr_SetString(PyExc_AttributeError, "unset slot");
        return -1;
    }
    r = PyObject_IsTrue(v);
    if (r < 0)
        return -1;
    *out = r;
    return 0;
}

static int
path_channel(Ctx *c, PyObject *path, long i, long *out)
{
    long v;
    if (!PyTuple_CheckExact(path)) {
        PyErr_SetString(PyExc_TypeError, "worm path must be a tuple");
        return -1;
    }
    if (i < 0 || i >= PyTuple_GET_SIZE(path)) {
        PyErr_SetString(PyExc_IndexError, "worm path index out of range");
        return -1;
    }
    v = PyLong_AsLong(PyTuple_GET_ITEM(path, i));
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (v < 0 || v >= (long)c->nch) {
        PyErr_SetString(PyExc_IndexError, "channel index out of range");
        return -1;
    }
    *out = v;
    return 0;
}

static int
tuple_contains_long(PyObject *tup, long v, int *err)
{
    Py_ssize_t i, n;
    if (!PyTuple_CheckExact(tup)) {
        PyErr_SetString(PyExc_TypeError, "clone_positions must be a tuple");
        *err = 1;
        return 0;
    }
    n = PyTuple_GET_SIZE(tup);
    for (i = 0; i < n; i++) {
        long w = PyLong_AsLong(PyTuple_GET_ITEM(tup, i));
        if (w == -1 && PyErr_Occurred()) {
            *err = 1;
            return 0;
        }
        if (w == v)
            return 1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* channel state helpers (repro.sim.state.ChannelState)                */

static int
holders_set(Ctx *c, long ch, PyObject *v)
{
    Py_INCREF(v);
    return PyList_SetItem(c->holders, ch, v); /* steals, releases old */
}

static inline int
fifo_nonempty(Ctx *c, long ch)
{
    return PyList_GET_SIZE(PyList_GET_ITEM(c->fifos, ch)) != 0;
}

/* ChannelState.fifo_pop: cursor advance + eager-clear/compaction */
static PyObject *
fifo_pop(Ctx *c, long ch)
{
    PyObject *q = PyList_GET_ITEM(c->fifos, ch);
    PyObject *nh, *worm;
    long long h = PyLong_AsLongLong(PyList_GET_ITEM(c->fifo_heads, ch));
    if (h == -1 && PyErr_Occurred())
        return NULL;
    if (h < 0 || h >= PyList_GET_SIZE(q)) {
        PyErr_SetString(PyExc_RuntimeError, "corrupt fifo cursor");
        return NULL;
    }
    worm = PyList_GET_ITEM(q, h);
    Py_INCREF(worm);
    h += 1;
    if (h == PyList_GET_SIZE(q) || h >= fifo_compact) {
        if (PyList_SetSlice(q, 0, (Py_ssize_t)h, NULL) < 0) {
            Py_DECREF(worm);
            return NULL;
        }
        h = 0;
    }
    nh = PyLong_FromLongLong(h);
    if (nh == NULL || PyList_SetItem(c->fifo_heads, ch, nh) < 0) {
        Py_DECREF(worm);
        return NULL;
    }
    return worm;
}

/* ------------------------------------------------------------------ */
/* calendar queue (EventQueue) natives                                 */

/* bisect.insort by (time, seq) */
static int
run_insort(PyObject *run, PyObject *rec)
{
    Py_ssize_t lo = 0, hi = PyList_GET_SIZE(run);
    int err = 0;
    while (lo < hi) {
        Py_ssize_t mid = (lo + hi) >> 1;
        int cr = rec_cmp(rec, PyList_GET_ITEM(run, mid), &err);
        if (err)
            return -1;
        if (cr < 0)
            hi = mid;
        else
            lo = mid + 1;
    }
    return PyList_Insert(run, lo, rec);
}

/* EventQueue._push_record.  Off-grid magnitudes (t >= 2^52, or a
 * coverage edge past it) delegate to the Python method, which handles
 * any finite float. */
static int
q_push_record(Ctx *c, PyObject *rec)
{
    PyObject *events = c->events;
    PyObject *tobj = PyTuple_GET_ITEM(rec, 0);
    double t, nt;
    long long cov;
    t = PyFloat_AsDouble(tobj);
    if (t == -1.0 && PyErr_Occurred())
        return -1;
    if (!(t < TIME_MAX))
        goto python_push;
    if (slot_get_ll(events, q_cov, &cov)) {
        PyErr_Clear();
        goto python_push;
    }
    if (cov > (1LL << 53))
        goto python_push;

    if (t < (double)cov) {
        PyObject *run = slot_get(events, q_run);
        Py_ssize_t n;
        int err = 0;
        if (run == NULL || !PyList_CheckExact(run)) {
            PyErr_SetString(PyExc_RuntimeError, "corrupt calendar segment");
            return -1;
        }
        n = PyList_GET_SIZE(run);
        if (n == 0 || rec_cmp(rec, PyList_GET_ITEM(run, n - 1), &err) > 0) {
            if (err)
                return -1;
            if (PyList_Append(run, rec))
                return -1;
        }
        else {
            if (err)
                return -1;
            if (run_insort(run, rec))
                return -1;
        }
    }
    else {
        long long win = (long long)t;
        long long d = win - cov;
        if (slot_get_double(events, q_next, &nt))
            return -1;
        if (d < c->span) {
            long long slot = win & c->qmask;
            unsigned long long occ;
            if (PyList_Append(PyList_GET_ITEM(c->buckets, slot), rec))
                return -1;
            if (slot_get_ull(events, q_occ, &occ))
                return -1;
            occ |= 1ULL << slot;
            if (slot_set_steal(events, q_occ,
                               PyLong_FromUnsignedLongLong(occ)))
                return -1;
        }
        else if (nt == INFINITY) {
            /* idle queue: re-anchor the segment at this event */
            PyObject *newrun = PyList_New(1);
            if (newrun == NULL)
                return -1;
            Py_INCREF(rec);
            PyList_SET_ITEM(newrun, 0, rec);
            if (slot_set_steal(events, q_run, newrun))
                return -1;
            if (slot_set_ll(events, q_idx, 0))
                return -1;
            if (slot_set_ll(events, q_cov, win + c->span))
                return -1;
            return slot_set(events, q_next, tobj);
        }
        else {
            PyObject *r = PyObject_CallFunctionObjArgs(heappush_fn,
                                                       c->overflow, rec,
                                                       NULL);
            if (r == NULL)
                return -1;
            Py_DECREF(r);
        }
    }
    if (slot_get_double(events, q_next, &nt))
        return -1;
    if (t < nt)
        return slot_set(events, q_next, tobj);
    return 0;

python_push:
    {
        PyObject *r = PyObject_CallMethodObjArgs(events, s_push_record, rec,
                                                 NULL);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
        return 0;
    }
}

/* EventQueue._refresh_next */
static int
q_refresh_next(Ctx *c)
{
    PyObject *events = c->events;
    unsigned long long occ;
    Py_ssize_t ovn = PyList_GET_SIZE(c->overflow);
    if (slot_get_ull(events, q_occ, &occ))
        return -1;
    if (occ) {
        long long cov, s, nw;
        unsigned long long hi;
        PyObject *bucket, *best, *tobj;
        Py_ssize_t bn, i;
        int err = 0;
        if (slot_get_ll(events, q_cov, &cov))
            return -1;
        s = cov & c->qmask;
        hi = (s < 64) ? (occ >> s) : 0;
        if (hi)
            nw = cov + ctz64(hi);
        else {
            unsigned long long lo = occ & ((s < 64) ? ((1ULL << s) - 1)
                                                    : ~0ULL);
            nw = cov + (c->span - s) + ctz64(lo);
        }
        bucket = PyList_GET_ITEM(c->buckets, nw & c->qmask);
        bn = PyList_GET_SIZE(bucket);
        if (bn == 0) {
            PyErr_SetString(PyExc_RuntimeError,
                            "occupancy bit set on an empty bucket");
            return -1;
        }
        best = PyList_GET_ITEM(bucket, 0);
        for (i = 1; i < bn; i++) {
            PyObject *it = PyList_GET_ITEM(bucket, i);
            if (rec_cmp(it, best, &err) < 0)
                best = it;
            if (err)
                return -1;
        }
        tobj = PyTuple_GET_ITEM(best, 0);
        if (ovn) {
            PyObject *ov0 = PyList_GET_ITEM(c->overflow, 0);
            double bt, ot;
            if (rec_check(ov0) || rec_time(ov0, &ot))
                return -1;
            bt = PyFloat_AsDouble(tobj);
            if (bt == -1.0 && PyErr_Occurred())
                return -1;
            if (ot < bt)
                tobj = PyTuple_GET_ITEM(ov0, 0);
        }
        return slot_set(events, q_next, tobj);
    }
    if (ovn) {
        PyObject *ov0 = PyList_GET_ITEM(c->overflow, 0);
        if (rec_check(ov0))
            return -1;
        return slot_set(events, q_next, PyTuple_GET_ITEM(ov0, 0));
    }
    return slot_set_double(events, q_next, INFINITY);
}

/* ------------------------------------------------------------------ */
/* deadlock walk (repro.sim.deadlock.find_wait_cycle)                  */

/* Returns a new list (cycle), Py_None borrowed semantics avoided: on
 * "no cycle" sets *out = NULL and returns 0. */
static int
cfind_wait_cycle(Ctx *c, PyObject *start, PyObject **out)
{
    PyObject *stack_chain[64];
    long long stack_uid[64];
    PyObject **chain = stack_chain;
    long long *uids = stack_uid;
    Py_ssize_t cap = 64, n = 0, i;
    PyObject *w = start;
    int rc = -1;
    *out = NULL;
    while (w != NULL) {
        long long uid;
        PyObject *blocked;
        long ch;
        if (slot_get_ll(w, w_uid, &uid))
            goto done;
        for (i = 0; i < n; i++) {
            if (uids[i] == uid) {
                /* chain[i:] is the cycle */
                PyObject *cycle = PyList_New(n - i);
                Py_ssize_t j;
                if (cycle == NULL)
                    goto done;
                for (j = i; j < n; j++) {
                    Py_INCREF(chain[j]);
                    PyList_SET_ITEM(cycle, j - i, chain[j]);
                }
                *out = cycle;
                rc = 0;
                goto done;
            }
        }
        if (n == cap) {
            Py_ssize_t ncap = cap * 2;
            PyObject **nc = PyMem_New(PyObject *, ncap);
            long long *nu = PyMem_New(long long, ncap);
            if (nc == NULL || nu == NULL) {
                PyMem_Free(nc);
                PyMem_Free(nu);
                PyErr_NoMemory();
                goto done;
            }
            memcpy(nc, chain, cap * sizeof(PyObject *));
            memcpy(nu, uids, cap * sizeof(long long));
            if (chain != stack_chain) {
                PyMem_Free(chain);
                PyMem_Free(uids);
            }
            chain = nc;
            uids = nu;
            cap = ncap;
        }
        chain[n] = w; /* borrowed; all worms stay alive via holders/fifos */
        uids[n] = uid;
        n++;
        blocked = slot_get(w, w_blocked);
        if (blocked == NULL) {
            PyErr_SetString(PyExc_AttributeError, "unset slot");
            goto done;
        }
        if (blocked == Py_None) {
            rc = 0;
            goto done;
        }
        ch = PyLong_AsLong(blocked);
        if (ch == -1 && PyErr_Occurred())
            goto done;
        if (ch < 0 || ch >= (long)c->nch) {
            PyErr_SetString(PyExc_IndexError, "blocked_on out of range");
            goto done;
        }
        w = PyList_GET_ITEM(c->holders, ch);
        if (w == Py_None)
            w = NULL;
    }
    rc = 0;
done:
    if (chain != stack_chain) {
        PyMem_Free(chain);
        PyMem_Free(uids);
    }
    return rc;
}

/* ------------------------------------------------------------------ */
/* completion statistics (repro.sim.network._StatsTracer)              */

static int
raise_sample_error(const char *fmt, double value)
{
    PyObject *v = PyFloat_FromDouble(value);
    if (v == NULL)
        return -1;
    PyErr_Format(PyExc_ValueError, fmt, v);
    Py_DECREF(v);
    return -1;
}

/* LatencyStats.add: the Welford update, rounding step for step like the
 * Python method (the module is built with -ffp-contract=off, so the m2
 * update is never fused into one multiply-add) */
static int
stats_add(PyObject *st, double value)
{
    long long n;
    double mean, m2, mn, mx, delta;
    PyObject *keep, *samples;
    int k;
    if (!isfinite(value))
        return raise_sample_error("latency sample must be finite, got %R",
                                  value);
    if (value < 0.0)
        return raise_sample_error("latency sample must be >= 0, got %R",
                                  value);
    if (slot_get_ll(st, ls_n, &n) || slot_get_double(st, ls_mean, &mean) ||
        slot_get_double(st, ls_m2, &m2) || slot_get_double(st, ls_min, &mn) ||
        slot_get_double(st, ls_max, &mx))
        return -1;
    n += 1;
    delta = value - mean;
    mean += delta / (double)n;
    m2 += delta * (value - mean);
    if (value < mn) /* min(self._min, value) */
        mn = value;
    if (value > mx) /* max(self._max, value) */
        mx = value;
    if (slot_set_ll(st, ls_n, n) || slot_set_double(st, ls_mean, mean) ||
        slot_set_double(st, ls_m2, m2) || slot_set_double(st, ls_min, mn) ||
        slot_set_double(st, ls_max, mx))
        return -1;
    keep = slot_get(st, ls_keep);
    samples = slot_get(st, ls_samples);
    if (keep == NULL || samples == NULL) {
        PyErr_SetString(PyExc_AttributeError, "unset slot");
        return -1;
    }
    k = PyObject_IsTrue(keep);
    if (k <= 0)
        return k;
    if (!PyList_Check(samples)) {
        PyErr_SetString(PyExc_TypeError, "LatencyStats._samples must be a list");
        return -1;
    }
    {
        PyObject *v = PyFloat_FromDouble(value);
        if (v == NULL)
            return -1;
        k = PyList_Append(samples, v);
        Py_DECREF(v);
        return k;
    }
}

/* tracer.on_complete(worm, t_done, False); a unicast worm folds natively
 * when the run armed it -- _StatsTracer.on_complete transcribed */
static int
ctx_complete(Ctx *c, PyObject *worm, double t_done)
{
    PyObject *ct = slot_get(worm, w_ctime);
    PyObject *state = c->as != NULL ? c->as->stats_state : NULL;
    if (state != NULL && slot_get(worm, w_klass) == unicast_klass &&
        ct != NULL && PyFloat_CheckExact(ct)) {
        PyObject *warmup, *stats;
        double ctime = PyFloat_AS_DOUBLE(ct);
        long long completed;
        int measured;
        if (resolve_run_state(state))
            return -1;
        warmup = slot_get(state, rs_warmup);
        if (warmup == NULL) {
            PyErr_SetString(PyExc_AttributeError, "unset slot");
            return -1;
        }
        if (PyFloat_CheckExact(warmup))
            measured = ctime >= PyFloat_AS_DOUBLE(warmup);
        else if ((measured = PyObject_RichCompareBool(ct, warmup, Py_GE)) < 0)
            return -1;
        if (slot_get_ll(state, rs_completed, &completed) ||
            slot_set_ll(state, rs_completed, completed + 1))
            return -1;
        if (!measured)
            return 0;
        stats = slot_get(state, rs_unicast);
        if (stats == NULL) {
            PyErr_SetString(PyExc_AttributeError, "unset slot");
            return -1;
        }
        if (Py_TYPE(stats) != stats_type) {
            PyErr_SetString(PyExc_TypeError,
                            "run state's unicast stats must be a LatencyStats");
            return -1;
        }
        return stats_add(stats, t_done - ctime);
    }
    {
        PyObject *r = PyObject_CallFunction(c->on_complete, "OdO", worm,
                                            t_done, Py_False);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
        return 0;
    }
}

/* ------------------------------------------------------------------ */
/* engine mechanics                                                    */

static int ctx_grant_fast(Ctx *c, PyObject *worm, long ch, double t);
static int ctx_grant_slow(Ctx *c, PyObject *worm, long ch, double t);
static int ctx_finish_routing(Ctx *c, PyObject *worm, double t);

/* WormEngine._release_position (on_release is None in C mode) */
static int
ctx_release_position(Ctx *c, PyObject *worm, long pos, double t)
{
    PyObject *path, *clones;
    long ch;
    int err = 0;
    clones = slot_get(worm, w_clones);
    if (clones == NULL) {
        PyErr_SetString(PyExc_AttributeError, "unset slot");
        return -1;
    }
    if (c->on_clone != NULL && tuple_contains_long(clones, pos, &err)) {
        PyObject *r = PyObject_CallFunction(c->on_clone, "Old", worm, pos,
                                            t + 1.0);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
    }
    if (err)
        return -1;
    path = slot_get(worm, w_path);
    if (path == NULL) {
        PyErr_SetString(PyExc_AttributeError, "unset slot");
        return -1;
    }
    if (path_channel(c, path, pos - 1, &ch))
        return -1;
    if (PyList_GET_ITEM(c->holders, ch) != worm)
        return 0; /* already released (teleported by deadlock recovery) */
    if (holders_set(c, ch, Py_None))
        return -1;
    if (fifo_nonempty(c, ch)) {
        PyObject *w2 = fifo_pop(c, ch);
        int rc;
        if (w2 == NULL)
            return -1;
        rc = ctx_grant_slow(c, w2, ch, t);
        Py_DECREF(w2);
        return rc;
    }
    return 0;
}

/* WormEngine._finish_routing */
static int
ctx_finish_routing(Ctx *c, PyObject *worm, double t)
{
    long h, m, first;
    long long seq;
    PyObject *rec;
    if (slot_set(worm, w_done, Py_True))
        return -1;
    if (worm_get_long(worm, w_H, &h) || worm_get_long(worm, w_mlen, &m))
        return -1;
    first = (h - m > 0 ? h - m : 0) + 1;
    if (slot_get_ll(c->events, q_seq, &seq))
        return -1;
    if (slot_set_ll(c->events, q_seq, seq + (h - first + 1)))
        return -1;
    rec = mk_rec(t + (double)(m + first - h), seq, ev_release_c, worm, first);
    if (rec == NULL)
        return -1;
    if (q_push_record(c, rec)) {
        Py_DECREF(rec);
        return -1;
    }
    Py_DECREF(rec);
    if (eng_add_ll(c->engine, s_active_worms, -1))
        return -1;
    if (c->on_complete != NULL && ctx_complete(c, worm, t + (double)m))
        return -1;
    return 0;
}

/* WormEngine._grant with fast=False: the wake-up path out of a release */
static int
ctx_grant_slow(Ctx *c, PyObject *worm, long ch, double t)
{
    PyObject *acq, *rec;
    long ptr, k, m, h, pos;
    long long seq;
    if (holders_set(c, ch, worm))
        return -1;
    if (slot_set(worm, w_blocked, Py_None))
        return -1;
    acq = slot_get(worm, w_acq);
    if (acq == NULL || !PyList_CheckExact(acq)) {
        PyErr_SetString(PyExc_TypeError, "acq_times must be a list");
        return -1;
    }
    {
        PyObject *f = PyFloat_FromDouble(t);
        if (f == NULL || PyList_Append(acq, f)) {
            Py_XDECREF(f);
            return -1;
        }
        Py_DECREF(f);
    }
    if (worm_get_long(worm, w_ptr, &ptr))
        return -1;
    k = ptr + 1;
    if (slot_set_steal(worm, w_ptr, PyLong_FromLong(k)))
        return -1;
    if (worm_get_long(worm, w_mlen, &m))
        return -1;
    pos = k - m;
    if (pos >= 1 && ctx_release_position(c, worm, pos, t))
        return -1;
    if (worm_get_long(worm, w_H, &h))
        return -1;
    if (k >= h)
        return ctx_finish_routing(c, worm, t);
    if (slot_get_ll(c->events, q_seq, &seq))
        return -1;
    rec = mk_rec(t + 1.0, seq, ev_request_c, worm, 0);
    if (rec == NULL)
        return -1;
    if (slot_set_ll(c->events, q_seq, seq + 1)) {
        Py_DECREF(rec);
        return -1;
    }
    if (q_push_record(c, rec)) {
        Py_DECREF(rec);
        return -1;
    }
    Py_DECREF(rec);
    return 0;
}

/* WormEngine._ballistic: closed-form replay of the whole remaining
 * hop/drain chain (preconditions proven by ctx_grant_fast) */
static int
ctx_ballistic(Ctx *c, PyObject *worm, double t, long k0, long long total)
{
    PyObject *path, *acq, *clones;
    long h, m, i;
    long long seq;
    double tr;
    path = slot_get(worm, w_path);
    if (path == NULL || !PyTuple_CheckExact(path)) {
        PyErr_SetString(PyExc_TypeError, "worm path must be a tuple");
        return -1;
    }
    Py_INCREF(path);
    if (worm_get_long(worm, w_H, &h))
        goto fail_path;
    if (slot_set(worm, w_blocked, Py_None))
        goto fail_path;
    acq = slot_get(worm, w_acq);
    if (acq == NULL || !PyList_CheckExact(acq)) {
        PyErr_SetString(PyExc_TypeError, "acq_times must be a list");
        goto fail_path;
    }
    Py_INCREF(acq);
    {
        PyObject *f = PyFloat_FromDouble(t);
        if (f == NULL || PyList_Append(acq, f)) {
            Py_XDECREF(f);
            goto fail_acq;
        }
        Py_DECREF(f);
    }
    /* the clock is accumulated one add at a time so every float is
     * bit-identical to the stepped kernel's */
    for (i = 0; i < h - k0 - 1; i++) {
        PyObject *f;
        t += 1.0;
        f = PyFloat_FromDouble(t);
        if (f == NULL || PyList_Append(acq, f)) {
            Py_XDECREF(f);
            goto fail_acq;
        }
        Py_DECREF(f);
    }
    Py_DECREF(acq);
    if (slot_set_steal(worm, w_ptr, PyLong_FromLong(h)))
        goto fail_path;
    if (slot_set(worm, w_done, Py_True))
        goto fail_path;
    if (slot_get_ll(c->events, q_seq, &seq) ||
        slot_set_ll(c->events, q_seq, seq + h))
        goto fail_path;
    if (worm_get_long(worm, w_mlen, &m))
        goto fail_path;
    if (eng_add_ll(c->engine, s_active_worms, -1))
        goto fail_path;
    if (c->on_complete != NULL) {
        if (slot_set_double(c->events, q_now, t) ||
            ctx_complete(c, worm, t + (double)m))
            goto fail_path;
    }
    tr = t + (double)(m + 1 - h);
    clones = slot_get(worm, w_clones);
    if (clones == NULL) {
        PyErr_SetString(PyExc_AttributeError, "unset slot");
        goto fail_path;
    }
    if (c->on_clone != NULL && PyTuple_CheckExact(clones) &&
        PyTuple_GET_SIZE(clones) > 0) {
        long pos = 1;
        for (;;) {
            int err = 0;
            if (tuple_contains_long(clones, pos, &err)) {
                PyObject *r;
                if (slot_set_double(c->events, q_now, tr))
                    goto fail_path;
                r = PyObject_CallFunction(c->on_clone, "Old", worm, pos,
                                          tr + 1.0);
                if (r == NULL)
                    goto fail_path;
                Py_DECREF(r);
            }
            if (err)
                goto fail_path;
            if (pos >= h)
                break;
            pos += 1;
            tr += 1.0;
        }
    }
    else {
        if (!PyTuple_CheckExact(clones)) {
            PyErr_SetString(PyExc_TypeError,
                            "clone_positions must be a tuple");
            goto fail_path;
        }
        for (i = 0; i < h - 1; i++)
            tr += 1.0;
    }
    for (i = 0; i < k0; i++) {
        long ch;
        if (path_channel(c, path, i, &ch))
            goto fail_path;
        if (holders_set(c, ch, Py_None))
            goto fail_path;
    }
    Py_DECREF(path);
    if (slot_set_double(c->events, q_now, tr))
        return -1;
    c->remaining -= total;
    return 0;
fail_acq:
    Py_DECREF(acq);
fail_path:
    Py_DECREF(path);
    return -1;
}

/* WormEngine._grant_fast: grant + free-path fast-forward + the
 * ballistic-completion gate */
static int
ctx_grant_fast(Ctx *c, PyObject *worm, long ch, double t)
{
    PyObject *path, *acq;
    long h, m, k0;
    double horizon = c->horizon, arr_next = c->arr_next, flimit;
    long long remaining = c->remaining;
    int rc = -1;
    path = slot_get(worm, w_path);
    if (path == NULL || !PyTuple_CheckExact(path)) {
        PyErr_SetString(PyExc_TypeError, "worm path must be a tuple");
        return -1;
    }
    Py_INCREF(path);
    acq = slot_get(worm, w_acq);
    if (acq == NULL || !PyList_CheckExact(acq)) {
        PyErr_SetString(PyExc_TypeError, "acq_times must be a list");
        Py_DECREF(path);
        return -1;
    }
    Py_INCREF(acq);
    if (worm_get_long(worm, w_H, &h) || worm_get_long(worm, w_mlen, &m) ||
        worm_get_long(worm, w_ptr, &k0))
        goto done;
    if (h <= m) { /* per-hop hooks are None in C mode by construction */
        long long total = 2LL * h - k0 - 1;
        double t_end = t + (double)(h - k0 + m);
        double qn;
        if (slot_get_double(c->events, q_next, &qn))
            goto done;
        if (remaining >= total && t_end <= horizon && qn > t_end &&
            arr_next > t_end) {
            int free = 1;
            long i;
            for (i = k0; i < h; i++) {
                long chi;
                if (path_channel(c, path, i, &chi))
                    goto done;
                if (PyList_GET_ITEM(c->holders, chi) != Py_None) {
                    free = 0;
                    break;
                }
            }
            if (free) {
                for (i = 0; i < k0; i++) {
                    long chi;
                    if (path_channel(c, path, i, &chi))
                        goto done;
                    if (fifo_nonempty(c, chi)) {
                        free = 0;
                        break;
                    }
                }
            }
            if (free) {
                rc = ctx_ballistic(c, worm, t, k0, total);
                goto done;
            }
        }
    }
    if (slot_get_double(c->events, q_next, &flimit))
        goto done;
    if (arr_next < flimit)
        flimit = arr_next;
    for (;;) {
        long ptr, k, pos;
        double u;
        if (holders_set(c, ch, worm))
            goto done;
        if (slot_set(worm, w_blocked, Py_None))
            goto done;
        {
            PyObject *f = PyFloat_FromDouble(t);
            if (f == NULL || PyList_Append(acq, f)) {
                Py_XDECREF(f);
                goto done;
            }
            Py_DECREF(f);
        }
        if (worm_get_long(worm, w_ptr, &ptr))
            goto done;
        k = ptr + 1;
        if (slot_set_steal(worm, w_ptr, PyLong_FromLong(k)))
            goto done;
        pos = k - m;
        if (pos >= 1) {
            if (ctx_release_position(c, worm, pos, t))
                goto done;
            if (slot_get_double(c->events, q_next, &flimit))
                goto done;
            if (arr_next < flimit)
                flimit = arr_next;
        }
        if (k >= h) {
            c->remaining = remaining;
            rc = ctx_finish_routing(c, worm, t);
            goto done;
        }
        u = t + 1.0;
        if (remaining > 0 && u < flimit && u <= horizon) {
            long nch;
            if (path_channel(c, path, k, &nch))
                goto done;
            if (PyList_GET_ITEM(c->holders, nch) == Py_None) {
                remaining -= 1;
                if (slot_set_double(c->events, q_now, u))
                    goto done;
                t = u;
                ch = nch;
                continue;
            }
        }
        /* fall back to an ordinary scheduled request */
        c->remaining = remaining;
        {
            long long seq;
            PyObject *rec;
            if (slot_get_ll(c->events, q_seq, &seq))
                goto done;
            rec = mk_rec(u, seq, ev_request_c, worm, 0);
            if (rec == NULL)
                goto done;
            if (slot_set_ll(c->events, q_seq, seq + 1) ||
                q_push_record(c, rec)) {
                Py_DECREF(rec);
                goto done;
            }
            Py_DECREF(rec);
        }
        rc = 0;
        goto done;
    }
done:
    Py_DECREF(path);
    Py_DECREF(acq);
    return rc;
}

/* WormEngine._block */
static int
ctx_block(Ctx *c, PyObject *worm, long ch, double t)
{
    PyObject *cycle = NULL;
    if (PyList_Append(PyList_GET_ITEM(c->fifos, ch), worm))
        return -1;
    if (slot_set_steal(worm, w_blocked, PyLong_FromLong(ch)))
        return -1;
    if (cfind_wait_cycle(c, worm, &cycle))
        return -1;
    if (cycle != NULL) {
        PyObject *targ, *r;
        /* sync the live budget so recovery hooks observe what the
         * Python loop's attribute would hold at this point */
        if (eng_set_ll(c->engine, s_remaining, c->remaining)) {
            Py_DECREF(cycle);
            return -1;
        }
        targ = PyFloat_FromDouble(t);
        if (targ == NULL) {
            Py_DECREF(cycle);
            return -1;
        }
        r = PyObject_CallMethodObjArgs(c->engine, s_recover, cycle, targ,
                                       NULL);
        Py_DECREF(targ);
        Py_DECREF(cycle);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
    }
    return 0;
}

/* WormEngine.inject + _request */
static int
ctx_inject(Ctx *c, PyObject *worm, double t, int fast)
{
    int done;
    long ptr, ch;
    PyObject *path;
    if (worm_done(worm, &done))
        return -1;
    if (done)
        return 0;
    if (c->arrivals != NULL) {
        /* refresh the cached arrival head (see WormEngine.inject) */
        PyObject *nt;
        double d;
        if (c->as != NULL) {
            /* NATIVE_HEAD: read from the stream, attr not mirrored */
            c->arr_next = c->as->next_time;
            goto requested;
        }
        nt = PyObject_GetAttr(c->arrivals, s_next_time);
        if (nt == NULL)
            return -1;
        d = PyFloat_AsDouble(nt);
        if (d == -1.0 && PyErr_Occurred()) {
            Py_DECREF(nt);
            return -1;
        }
        if (PyObject_SetAttr(c->engine, s_arr_next, nt)) {
            Py_DECREF(nt);
            return -1;
        }
        Py_DECREF(nt);
        c->arr_next = d;
    }
requested:
    if (eng_add_ll(c->engine, s_active_worms, 1))
        return -1;
    /* _request */
    if (worm_done(worm, &done))
        return -1;
    if (done)
        return 0;
    path = slot_get(worm, w_path);
    if (path == NULL) {
        PyErr_SetString(PyExc_AttributeError, "unset slot");
        return -1;
    }
    if (worm_get_long(worm, w_ptr, &ptr))
        return -1;
    if (path_channel(c, path, ptr, &ch))
        return -1;
    if (PyList_GET_ITEM(c->holders, ch) == Py_None)
        return fast ? ctx_grant_fast(c, worm, ch, t)
                    : ctx_grant_slow(c, worm, ch, t);
    return ctx_block(c, worm, ch, t);
}

/* a fresh Worm(uid, UNICAST, node, t, path, message_length), slot by
 * slot as Worm.__init__ fills them; steals uid and path */
static PyObject *
worm_new_unicast(PyObject *uid, long node, double t, PyObject *path,
                 PyObject *mlen)
{
    PyObject *w = worm_type->tp_alloc(worm_type, 0);
    if (w == NULL) {
        Py_DECREF(uid);
        Py_DECREF(path);
        return NULL;
    }
    if (slot_set_steal(w, w_uid, uid) ||
        slot_set(w, w_klass, unicast_klass) ||
        slot_set_steal(w, w_source, PyLong_FromLong(node)) ||
        slot_set_double(w, w_ctime, t)) {
        Py_DECREF(path);
        goto fail;
    }
    if (slot_set_steal(w, w_path, path) ||
        slot_set_steal(w, w_H, PyLong_FromSsize_t(PyTuple_GET_SIZE(path))) ||
        slot_set_steal(w, w_acq, PyList_New(0)) ||
        slot_set_steal(w, w_ptr, PyLong_FromLong(0)) ||
        slot_set(w, w_mlen, mlen) ||
        slot_set_steal(w, w_clones, PyTuple_New(0)) ||
        slot_set(w, w_trans, Py_None) || slot_set(w, w_blocked, Py_None) ||
        slot_set(w, w_done, Py_False))
        goto fail;
    return w;
fail:
    Py_DECREF(w);
    return NULL;
}

/* the stock NocSimulator.run spawn closure for a unicast arrival:
 * state.generated += 1; Worm(next_uid(), UNICAST, node, t,
 * sim._unicast_channels(node, dest), msg_len); engine.inject(worm, t) */
static int
ctx_spawn_unicast(Ctx *c, double t, long node, long dest)
{
    AStream *s = c->as;
    PyObject *uid, *path, *worm, *routes = s->routes;
    Py_ssize_t idx = (Py_ssize_t)node * s->n + dest;
    long long generated;
    int rc;
    if (resolve_run_state(s->spawn_state) ||
        slot_get_ll(s->spawn_state, rs_generated, &generated) ||
        slot_set_ll(s->spawn_state, rs_generated, generated + 1))
        return -1;
    uid = PyIter_Next(s->uids);
    if (uid == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_RuntimeError, "uid iterator exhausted");
        return -1;
    }
    Py_INCREF(routes); /* the fill below may rebind s->routes */
    if (idx < 0 || idx >= PyList_GET_SIZE(routes)) {
        PyErr_SetString(PyExc_IndexError, "route table too short");
        goto fail;
    }
    path = PyList_GET_ITEM(routes, idx);
    if (path == Py_None) { /* first use of this pair: fill the table */
        path = PyObject_CallFunction(s->route_fill, "ll", node, dest);
        if (path == NULL)
            goto fail;
        if (!PyTuple_CheckExact(path)) {
            PyErr_SetString(PyExc_TypeError,
                            "route_fill must return a tuple of channels");
            Py_DECREF(path);
            goto fail;
        }
        Py_INCREF(path);
        if (PyList_SetItem(routes, idx, path) < 0) {
            Py_DECREF(path);
            goto fail;
        }
    }
    else if (PyTuple_CheckExact(path))
        Py_INCREF(path);
    else {
        PyErr_SetString(PyExc_TypeError, "route table entry is not a tuple");
        goto fail;
    }
    Py_DECREF(routes);
    if (PyTuple_GET_SIZE(path) < 2) { /* Worm.__init__'s check */
        PyErr_SetString(PyExc_ValueError,
                        "a worm path needs at least injection + ejection");
        Py_DECREF(path);
        Py_DECREF(uid);
        return -1;
    }
    worm = worm_new_unicast(uid, node, t, path, s->msg_len);
    if (worm == NULL)
        return -1;
    rc = ctx_inject(c, worm, t, 1);
    Py_DECREF(worm);
    return rc;
fail:
    Py_DECREF(routes);
    Py_DECREF(uid);
    return -1;
}

/* cstep_inject's ctx_init declines a queue whose coverage or sequence
 * counter is past what C models; the inline spawn must decline alike */
static int
ctx_injectable(Ctx *c, int *ok)
{
    long long cov, seq;
    if (slot_get_ll(c->events, q_cov, &cov) ||
        slot_get_ll(c->events, q_seq, &seq)) {
        PyErr_Clear();
        *ok = 0;
        return 0;
    }
    *ok = cov >= 0 && cov <= COV_MAX && seq >= 0 && seq <= SEQ_MAX;
    return 0;
}

/* the inline EV_RELEASE drain chain of WormEngine.run_events */
static int
ctx_drain(Ctx *c, PyObject *worm, long pos, long long seq, double t,
          double arr_t)
{
    PyObject *dpath, *clones;
    long dh;
    double flimit;
    int rc = -1;
    dpath = slot_get(worm, w_path);
    if (dpath == NULL || !PyTuple_CheckExact(dpath)) {
        PyErr_SetString(PyExc_TypeError, "worm path must be a tuple");
        return -1;
    }
    Py_INCREF(dpath);
    clones = slot_get(worm, w_clones);
    if (clones == NULL) {
        PyErr_SetString(PyExc_AttributeError, "unset slot");
        Py_DECREF(dpath);
        return -1;
    }
    Py_INCREF(clones);
    if (worm_get_long(worm, w_H, &dh))
        goto done;
    if (slot_get_double(c->events, q_next, &flimit))
        goto done;
    if (arr_t < flimit)
        flimit = arr_t;
    for (;;) {
        long ch;
        double u;
        int err = 0;
        if (c->on_clone != NULL && tuple_contains_long(clones, pos, &err)) {
            PyObject *r = PyObject_CallFunction(c->on_clone, "Old", worm,
                                                pos, t + 1.0);
            if (r == NULL)
                goto done;
            Py_DECREF(r);
            if (slot_get_double(c->events, q_next, &flimit))
                goto done;
            if (arr_t < flimit)
                flimit = arr_t;
        }
        if (err)
            goto done;
        if (path_channel(c, dpath, pos - 1, &ch))
            goto done;
        if (PyList_GET_ITEM(c->holders, ch) == worm) {
            if (holders_set(c, ch, Py_None))
                goto done;
            if (fifo_nonempty(c, ch)) {
                PyObject *w2 = fifo_pop(c, ch);
                int grc;
                if (w2 == NULL)
                    goto done;
                grc = ctx_grant_slow(c, w2, ch, t);
                Py_DECREF(w2);
                if (grc)
                    goto done;
                if (slot_get_double(c->events, q_next, &flimit))
                    goto done;
                if (arr_t < flimit)
                    flimit = arr_t;
            }
        }
        if (pos >= dh)
            break;
        pos += 1;
        seq += 1;
        u = t + 1.0;
        if (c->remaining > 0 && u < flimit && u <= c->horizon) {
            c->remaining -= 1;
            if (slot_set_double(c->events, q_now, u))
                goto done;
            t = u;
            continue;
        }
        {
            PyObject *rec2 = mk_rec(u, seq, ev_release_c, worm, pos);
            if (rec2 == NULL)
                goto done;
            if (q_push_record(c, rec2)) {
                Py_DECREF(rec2);
                goto done;
            }
            Py_DECREF(rec2);
        }
        break;
    }
    rc = 0;
done:
    Py_DECREF(dpath);
    Py_DECREF(clones);
    return rc;
}

/* ------------------------------------------------------------------ */
/* module entry points                                                 */

static int
check_configured(void)
{
    if (!configured) {
        PyErr_SetString(PyExc_RuntimeError,
                        "_cstep.configure() has not been called");
        return -1;
    }
    return 0;
}

/* run_events(engine, horizon: float, max_events: int | None,
 *            arrivals) -> (fired, bounced) */
static PyObject *
cstep_run_events(PyObject *self, PyObject *args)
{
    PyObject *engine, *max_obj, *arrivals_obj;
    double horizon;
    long long limit;
    Ctx c;
    int rc, bounced = 0;
    PyObject *prev_rem = NULL, *prev_hor = NULL, *prev_arr = NULL,
             *prev_arrn = NULL;
    PyObject *result = NULL;
    double arr_t;

    if (!PyArg_ParseTuple(args, "OdOO:run_events", &engine, &horizon,
                          &max_obj, &arrivals_obj))
        return NULL;
    if (check_configured())
        return NULL;

    if (max_obj == Py_None)
        limit = LLONG_MAX; /* == sys.maxsize (_NO_LIMIT) on 64-bit */
    else {
        limit = PyLong_AsLongLong(max_obj);
        if (limit == -1 && PyErr_Occurred()) {
            PyErr_Clear();
            return Py_BuildValue("(LO)", 0LL, Py_True); /* bounce */
        }
    }

    rc = ctx_init(&c, engine);
    if (rc < 0)
        return NULL;
    if (rc == 1)
        return Py_BuildValue("(LO)", 0LL, Py_True);

    /* window entry: save/replace the engine's fast-forward state
     * exactly as the Python loop's prologue does */
    prev_rem = PyObject_GetAttr(engine, s_remaining);
    prev_hor = PyObject_GetAttr(engine, s_horizon);
    prev_arr = PyObject_GetAttr(engine, s_arrivals);
    prev_arrn = PyObject_GetAttr(engine, s_arr_next);
    if (prev_rem == NULL || prev_hor == NULL || prev_arr == NULL ||
        prev_arrn == NULL)
        goto fail_no_restore;
    if (eng_set_ll(engine, s_remaining, limit))
        goto fail;
    {
        PyObject *h = PyFloat_FromDouble(horizon);
        if (h == NULL || PyObject_SetAttr(engine, s_horizon, h)) {
            Py_XDECREF(h);
            goto fail;
        }
        Py_DECREF(h);
    }
    if (PyObject_SetAttr(engine, s_arrivals, arrivals_obj))
        goto fail;
    if (arrivals_obj != Py_None) {
        PyObject *nt = PyObject_GetAttr(arrivals_obj, s_next_time);
        if (nt == NULL)
            goto fail;
        arr_t = PyFloat_AsDouble(nt);
        Py_DECREF(nt);
        if (arr_t == -1.0 && PyErr_Occurred())
            goto fail;
    }
    else
        arr_t = INFINITY;
    ctx_set_arrivals(&c, arrivals_obj);
    {
        PyObject *a = PyFloat_FromDouble(arr_t);
        if (a == NULL || PyObject_SetAttr(engine, s_arr_next, a)) {
            Py_XDECREF(a);
            goto fail;
        }
        Py_DECREF(a);
    }
    c.remaining = limit;
    c.horizon = horizon;
    c.arr_next = arr_t;

    while (c.remaining > 0) {
        double qnext;
        if (slot_get_double(c.events, q_next, &qnext))
            goto fail;
        if (qnext <= arr_t) {
            long long cov, idx;
            PyObject *run, *rec;
            double time;
            long code;
            if (qnext > horizon)
                break;
            if (!(qnext < TIME_MAX)) { /* overflow timestamps: not modelled */
                bounced = 1;
                break;
            }
            if (slot_get_ll(c.events, q_cov, &cov)) {
                PyErr_Clear();
                bounced = 1;
                break;
            }
            if (cov > COV_MAX) {
                bounced = 1;
                break;
            }
            /* inline calendar pop (EventQueue._pop_record) */
            if (qnext < (double)cov) {
                run = slot_get(c.events, q_run);
                if (run == NULL || !PyList_CheckExact(run)) {
                    PyErr_SetString(PyExc_RuntimeError,
                                    "corrupt calendar segment");
                    goto fail;
                }
                Py_INCREF(run);
                if (slot_get_ll(c.events, q_idx, &idx)) {
                    Py_DECREF(run);
                    goto fail;
                }
                if (idx < 0 || idx >= PyList_GET_SIZE(run)) {
                    Py_DECREF(run);
                    PyErr_SetString(PyExc_RuntimeError,
                                    "calendar cursor out of range");
                    goto fail;
                }
                rec = PyList_GET_ITEM(run, idx);
                Py_INCREF(rec);
                idx += 1;
                if (idx == (long long)trim_len) {
                    if (PyList_SetSlice(run, 0, trim_len, NULL) < 0) {
                        Py_DECREF(rec);
                        Py_DECREF(run);
                        goto fail;
                    }
                    idx = 0;
                }
                if (slot_set_ll(c.events, q_idx, idx)) {
                    Py_DECREF(rec);
                    Py_DECREF(run);
                    goto fail;
                }
            }
            else {
                run = PyObject_CallMethodObjArgs(c.events, s_refill, NULL);
                if (run == NULL)
                    goto fail;
                if (!PyList_CheckExact(run) || PyList_GET_SIZE(run) == 0) {
                    Py_DECREF(run);
                    PyErr_SetString(PyExc_RuntimeError,
                                    "refill returned an empty segment");
                    goto fail;
                }
                rec = PyList_GET_ITEM(run, 0);
                Py_INCREF(rec);
                idx = 1;
                if (slot_set_ll(c.events, q_idx, 1)) {
                    Py_DECREF(rec);
                    Py_DECREF(run);
                    goto fail;
                }
            }
            if (rec_check(rec) || rec_time(rec, &time)) {
                Py_DECREF(rec);
                Py_DECREF(run);
                goto fail;
            }
            if (slot_set(c.events, q_now, PyTuple_GET_ITEM(rec, 0))) {
                Py_DECREF(rec);
                Py_DECREF(run);
                goto fail;
            }
            if (idx < PyList_GET_SIZE(run)) {
                PyObject *nrec = PyList_GET_ITEM(run, idx);
                if (rec_check(nrec) ||
                    slot_set(c.events, q_next, PyTuple_GET_ITEM(nrec, 0))) {
                    Py_DECREF(rec);
                    Py_DECREF(run);
                    goto fail;
                }
            }
            else if (q_refresh_next(&c)) {
                Py_DECREF(rec);
                Py_DECREF(run);
                goto fail;
            }
            Py_DECREF(run);
            c.remaining -= 1;
            code = PyLong_AsLong(PyTuple_GET_ITEM(rec, 2));
            if (code == -1 && PyErr_Occurred()) {
                Py_DECREF(rec);
                goto fail;
            }
            if (code == ev_request_c) {
                PyObject *worm = PyTuple_GET_ITEM(rec, 3);
                int done;
                if (!PyObject_TypeCheck(worm, worm_type)) {
                    PyErr_SetString(PyExc_TypeError,
                                    "EV_REQUEST payload is not a Worm");
                    Py_DECREF(rec);
                    goto fail;
                }
                if (worm_done(worm, &done)) {
                    Py_DECREF(rec);
                    goto fail;
                }
                if (!done) {
                    PyObject *path = slot_get(worm, w_path);
                    long ptr, ch;
                    if (path == NULL || worm_get_long(worm, w_ptr, &ptr) ||
                        path_channel(&c, path, ptr, &ch)) {
                        Py_DECREF(rec);
                        goto fail;
                    }
                    if (PyList_GET_ITEM(c.holders, ch) == Py_None) {
                        if (ctx_grant_fast(&c, worm, ch, time)) {
                            Py_DECREF(rec);
                            goto fail;
                        }
                    }
                    else if (ctx_block(&c, worm, ch, time)) {
                        Py_DECREF(rec);
                        goto fail;
                    }
                }
            }
            else if (code == ev_release_c) {
                PyObject *worm = PyTuple_GET_ITEM(rec, 3);
                long pos;
                long long seq;
                if (!PyObject_TypeCheck(worm, worm_type)) {
                    PyErr_SetString(PyExc_TypeError,
                                    "EV_RELEASE payload is not a Worm");
                    Py_DECREF(rec);
                    goto fail;
                }
                pos = PyLong_AsLong(PyTuple_GET_ITEM(rec, 4));
                if (pos == -1 && PyErr_Occurred()) {
                    Py_DECREF(rec);
                    goto fail;
                }
                seq = PyLong_AsLongLong(PyTuple_GET_ITEM(rec, 1));
                if (seq == -1 && PyErr_Occurred()) {
                    Py_DECREF(rec);
                    goto fail;
                }
                if (ctx_drain(&c, worm, pos, seq, time, arr_t)) {
                    Py_DECREF(rec);
                    goto fail;
                }
            }
            else if (code == ev_inject_c) {
                PyObject *worm = PyTuple_GET_ITEM(rec, 3);
                if (!PyObject_TypeCheck(worm, worm_type)) {
                    PyErr_SetString(PyExc_TypeError,
                                    "EV_INJECT payload is not a Worm");
                    Py_DECREF(rec);
                    goto fail;
                }
                if (ctx_inject(&c, worm, time, 1)) {
                    Py_DECREF(rec);
                    goto fail;
                }
            }
            else { /* EV_CALL: sync the budget, call out, re-read it */
                PyObject *r;
                if (eng_set_ll(engine, s_remaining, c.remaining)) {
                    Py_DECREF(rec);
                    goto fail;
                }
                r = PyObject_CallObject(PyTuple_GET_ITEM(rec, 3), NULL);
                if (r == NULL) {
                    Py_DECREF(rec);
                    goto fail;
                }
                Py_DECREF(r);
                if (eng_get_ll(engine, s_remaining, &c.remaining)) {
                    Py_DECREF(rec);
                    goto fail;
                }
            }
            Py_DECREF(rec);
        }
        else if (arr_t <= horizon) {
            PyObject *targ, *res;
            if (!(arr_t < TIME_MAX)) {
                bounced = 1;
                break;
            }
            if (slot_set_double(c.events, q_now, arr_t))
                goto fail;
            c.remaining -= 1;
            if (c.as != NULL) {
                /* the native stream: PoissonArrivalStream.fire inline --
                 * advance, then spawn (natively for an armed unicast) */
                long node, dest;
                int inline_ok = 0;
                as_pop(c.as, &node, &dest);
                if (dest != MULTICAST_DEST && c.as->routes != NULL &&
                    ctx_injectable(&c, &inline_ok))
                    goto fail;
                if (inline_ok) {
                    if (ctx_spawn_unicast(&c, arr_t, node, dest))
                        goto fail;
                }
                else {
                    if (eng_set_ll(engine, s_remaining, c.remaining))
                        goto fail;
                    res = PyObject_CallFunction(c.as->spawn, "dll", arr_t,
                                                node, dest);
                    if (res == NULL)
                        goto fail;
                    Py_DECREF(res);
                    if (eng_get_ll(engine, s_remaining, &c.remaining))
                        goto fail;
                }
                /* NATIVE_HEAD: the engine's _arr_next attr is left as
                 * it is -- see the note at ctx_set_arrivals */
                arr_t = c.arr_next = c.as->next_time;
                continue;
            }
            if (eng_set_ll(engine, s_remaining, c.remaining))
                goto fail;
            targ = PyFloat_FromDouble(arr_t);
            if (targ == NULL)
                goto fail;
            res = PyObject_CallMethodObjArgs(c.arrivals, s_fire, targ, NULL);
            Py_DECREF(targ);
            if (res == NULL)
                goto fail;
            arr_t = PyFloat_AsDouble(res);
            if (arr_t == -1.0 && PyErr_Occurred()) {
                Py_DECREF(res);
                goto fail;
            }
            if (PyObject_SetAttr(engine, s_arr_next, res)) {
                Py_DECREF(res);
                goto fail;
            }
            Py_DECREF(res);
            c.arr_next = arr_t;
            if (eng_get_ll(engine, s_remaining, &c.remaining))
                goto fail;
        }
        else
            break;
    }

    result = Py_BuildValue("(LO)", limit - c.remaining,
                           bounced ? Py_True : Py_False);
    /* fall through to restore (the Python loop's finally block) */
fail:
    if (prev_rem != NULL) {
        /* restore even on error.  The error in flight is parked while
         * the attrs are set: a type-cache miss inside PyObject_SetAttr
         * would otherwise clear it (_PyType_Lookup treats any pending
         * error as its own), turning it into a SystemError.  A restore
         * failure replaces a result, never an error already raised. */
        PyObject *et, *ev, *etb;
        PyErr_Fetch(&et, &ev, &etb);
        if (PyObject_SetAttr(engine, s_arrivals, prev_arr) ||
            PyObject_SetAttr(engine, s_arr_next, prev_arrn) ||
            PyObject_SetAttr(engine, s_horizon, prev_hor) ||
            PyObject_SetAttr(engine, s_remaining, prev_rem)) {
            Py_CLEAR(result);
            if (et != NULL)
                PyErr_Clear();
        }
        if (et != NULL)
            PyErr_Restore(et, ev, etb);
    }
fail_no_restore:
    Py_XDECREF(prev_rem);
    Py_XDECREF(prev_hor);
    Py_XDECREF(prev_arr);
    Py_XDECREF(prev_arrn);
    ctx_clear(&c);
    return result;
}

/* inject(engine, worm, t: float, fast: bool) -> bool
 * True = handled natively; False = caller must use the Python path. */
static PyObject *
cstep_inject(PyObject *self, PyObject *args)
{
    PyObject *engine, *worm, *arr;
    double t;
    int fast, rc;
    Ctx c;
    if (!PyArg_ParseTuple(args, "OOdp:inject", &engine, &worm, &t, &fast))
        return NULL;
    if (check_configured())
        return NULL;
    if (!(t < TIME_MAX) || !PyObject_TypeCheck(worm, worm_type))
        Py_RETURN_FALSE;
    rc = ctx_init(&c, engine);
    if (rc < 0)
        return NULL;
    if (rc == 1)
        Py_RETURN_FALSE;
    if (eng_get_ll(engine, s_remaining, &c.remaining)) {
        PyErr_Clear();
        ctx_clear(&c);
        Py_RETURN_FALSE;
    }
    {
        PyObject *h = PyObject_GetAttr(engine, s_horizon);
        double d;
        if (h == NULL)
            goto err;
        d = PyFloat_AsDouble(h);
        Py_DECREF(h);
        if (d == -1.0 && PyErr_Occurred())
            goto err;
        c.horizon = d;
    }
    {
        PyObject *a = PyObject_GetAttr(engine, s_arr_next);
        double d;
        if (a == NULL)
            goto err;
        d = PyFloat_AsDouble(a);
        Py_DECREF(a);
        if (d == -1.0 && PyErr_Occurred())
            goto err;
        c.arr_next = d;
    }
    arr = PyObject_GetAttr(engine, s_arrivals);
    if (arr == NULL)
        goto err;
    ctx_set_arrivals(&c, arr);
    Py_DECREF(arr);

    rc = ctx_inject(&c, worm, t, fast);
    if (rc == 0 && eng_set_ll(engine, s_remaining, c.remaining))
        rc = -1;
    ctx_clear(&c);
    if (rc < 0)
        return NULL;
    Py_RETURN_TRUE;
err:
    ctx_clear(&c);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* configure                                                           */

static Py_ssize_t
member_offset(PyTypeObject *tp, const char *name)
{
    PyObject *descr = PyObject_GetAttrString((PyObject *)tp, name);
    Py_ssize_t off;
    if (descr == NULL)
        return -1;
    if (Py_TYPE(descr) != &PyMemberDescr_Type) {
        PyErr_Format(PyExc_TypeError,
                     "%s.%s is not a __slots__ member descriptor",
                     tp->tp_name, name);
        Py_DECREF(descr);
        return -1;
    }
    off = ((PyMemberDescrObject *)descr)->d_member->offset;
    Py_DECREF(descr);
    if (off <= 0) {
        PyErr_Format(PyExc_TypeError, "%s.%s has no storage offset",
                     tp->tp_name, name);
        return -1;
    }
    return off;
}

static PyObject *
cstep_configure(PyObject *self, PyObject *args)
{
    PyObject *wt, *qt, *hp, *uk, *st;
    long evq, evr, evi;
    Py_ssize_t trim;
    long long compact;
    if (!PyArg_ParseTuple(args, "OOOlllnLOO:configure", &wt, &qt, &hp, &evq,
                          &evr, &evi, &trim, &compact, &uk, &st))
        return NULL;
    if (!PyType_Check(wt) || !PyType_Check(qt) || !PyType_Check(st)) {
        PyErr_SetString(PyExc_TypeError,
                        "configure() wants (WormType, QueueType, ..., "
                        "unicast, StatsType)");
        return NULL;
    }
    if (!PyCallable_Check(hp)) {
        PyErr_SetString(PyExc_TypeError, "heappush must be callable");
        return NULL;
    }
    configured = 0;

#define W_OFF(var, name)                                                  \
    do {                                                                  \
        var = member_offset((PyTypeObject *)wt, name);                    \
        if (var < 0)                                                      \
            return NULL;                                                  \
    } while (0)
#define Q_OFF(var, name)                                                  \
    do {                                                                  \
        var = member_offset((PyTypeObject *)qt, name);                    \
        if (var < 0)                                                      \
            return NULL;                                                  \
    } while (0)
#define S_OFF(var, name)                                                  \
    do {                                                                  \
        var = member_offset((PyTypeObject *)st, name);                    \
        if (var < 0)                                                      \
            return NULL;                                                  \
    } while (0)

    W_OFF(w_uid, "uid");
    W_OFF(w_klass, "klass");
    W_OFF(w_source, "source");
    W_OFF(w_ctime, "creation_time");
    W_OFF(w_path, "path");
    W_OFF(w_H, "H");
    W_OFF(w_acq, "acq_times");
    W_OFF(w_ptr, "ptr");
    W_OFF(w_mlen, "message_length");
    W_OFF(w_clones, "clone_positions");
    W_OFF(w_trans, "transaction");
    W_OFF(w_blocked, "blocked_on");
    W_OFF(w_done, "done");
    Q_OFF(q_next, "next_time");
    Q_OFF(q_run, "_run");
    Q_OFF(q_idx, "_idx");
    Q_OFF(q_cov, "_cov");
    Q_OFF(q_buckets, "_buckets");
    Q_OFF(q_span, "_span");
    Q_OFF(q_mask, "_mask");
    Q_OFF(q_occ, "_occ");
    Q_OFF(q_overflow, "_overflow");
    Q_OFF(q_seq, "_seq");
    Q_OFF(q_now, "_now");
    S_OFF(ls_n, "_n");
    S_OFF(ls_mean, "_mean");
    S_OFF(ls_m2, "_m2");
    S_OFF(ls_min, "_min");
    S_OFF(ls_max, "_max");
    S_OFF(ls_samples, "_samples");
    S_OFF(ls_keep, "keep_samples");
#undef W_OFF
#undef Q_OFF
#undef S_OFF

    Py_INCREF(wt);
    Py_XSETREF(worm_type, (PyTypeObject *)wt);
    Py_INCREF(qt);
    Py_XSETREF(queue_type, (PyTypeObject *)qt);
    Py_INCREF(hp);
    Py_XSETREF(heappush_fn, hp);
    Py_INCREF(uk);
    Py_XSETREF(unicast_klass, uk);
    Py_INCREF(st);
    Py_XSETREF(stats_type, (PyTypeObject *)st);
    ev_request_c = evq;
    ev_release_c = evr;
    ev_inject_c = evi;
    trim_len = trim;
    fifo_compact = compact;
    configured = 1;
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */

static PyMethodDef cstep_methods[] = {
    {"configure", cstep_configure, METH_VARARGS,
     "configure(Worm, EventQueue, heappush, EV_REQUEST, EV_RELEASE, "
     "EV_INJECT, trim, fifo_compact, WormClass.UNICAST, LatencyStats)\n\n"
     "Resolve slot offsets against the live classes; must be called "
     "before run_events/inject."},
    {"run_events", cstep_run_events, METH_VARARGS,
     "run_events(engine, horizon, max_events, arrivals) -> (fired, "
     "bounced)\n\nNative fused dispatch loop; bounced=True means the "
     "caller must finish the run with the Python kernel."},
    {"inject", cstep_inject, METH_VARARGS,
     "inject(engine, worm, t, fast) -> handled\n\nNative injection "
     "(grant/fast-forward/ballistic or block); False declines."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef cstep_module = {
    PyModuleDef_HEAD_INIT,
    "repro.sim._cstep",
    "Compiled dispatch fast path for the wormhole engine (see module "
    "source for the bit-exactness design rules).",
    -1,
    cstep_methods,
};

PyMODINIT_FUNC
PyInit__cstep(void)
{
    PyObject *m;
#define INTERN(var, text)                                                 \
    do {                                                                  \
        var = PyUnicode_InternFromString(text);                           \
        if (var == NULL)                                                  \
            return NULL;                                                  \
    } while (0)
    INTERN(s_events, "events");
    INTERN(s_holders, "holders");
    INTERN(s_fifos, "fifos");
    INTERN(s_fifo_heads, "fifo_heads");
    INTERN(s_on_clone, "_on_clone");
    INTERN(s_on_complete, "_on_complete");
    INTERN(s_on_acquire, "_on_acquire");
    INTERN(s_on_release, "_on_release");
    INTERN(s_arrivals, "_arrivals");
    INTERN(s_arr_next, "_arr_next");
    INTERN(s_horizon, "_horizon");
    INTERN(s_remaining, "_remaining");
    INTERN(s_active_worms, "active_worms");
    INTERN(s_recover, "_recover");
    INTERN(s_refill, "_refill");
    INTERN(s_push_record, "_push_record");
    INTERN(s_next_time, "next_time");
    INTERN(s_fire, "fire");
#undef INTERN
    if (PyType_Ready(&AStream_Type) < 0)
        return NULL;
    m = PyModule_Create(&cstep_module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&AStream_Type);
    if (PyModule_AddObject(m, "ArrivalStream", (PyObject *)&AStream_Type) <
        0) {
        Py_DECREF(&AStream_Type);
        Py_DECREF(m);
        return NULL;
    }
    if (PyModule_AddIntConstant(m, "BUILD_ABI", 2) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
