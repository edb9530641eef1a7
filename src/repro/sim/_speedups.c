/* C hot core for repro.sim.engine: the slab event store and run loop.
 *
 * This mirrors the pure-Python slab engine exactly — same (time, seq)
 * total order, same lazy-cancel + compaction policy, same run()/step()/
 * peek() semantics including the drained-clock-advance corner — so a
 * simulation produces bit-identical checksums on either core.  Float
 * arithmetic is IEEE double in both interpreters, sequence numbers are
 * identical, and the heap's internal layout never affects pop order
 * (keys are unique), so determinism survives the port.
 *
 * Layout: a slab of Slot records (time, seq, fn, args, state) indexed
 * by a binary heap of (time, seq, slot) entries.  Handles are slot
 * views carrying the slot's seq for staleness — cancel on a recycled
 * slot is a no-op, exactly like the Python EventHandle.
 *
 * Built on demand by repro.sim._speed (plain `cc -O2 -shared -fPIC`);
 * any build or import failure falls back to the Python engine.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

#define STATE_FREE 0
#define STATE_PENDING 1
#define STATE_CANCELLED 2

/* Mirror the Python engine's compaction policy knobs. */
#define COMPACT_MIN 64
#define COMPACT_RATIO 0.5

typedef struct {
    double time;
    long long seq;     /* staleness key for handles */
    PyObject *fn;      /* owned; NULL unless pending */
    PyObject *args;    /* owned tuple; NULL unless pending */
    char state;
} Slot;

typedef struct {
    double time;
    long long seq;
    Py_ssize_t slot;
} HeapEnt;

typedef struct {
    PyObject_HEAD
    double now;
    long long seq;
    Slot *slab;
    Py_ssize_t slab_cap;
    Py_ssize_t *freelist;
    Py_ssize_t free_n;
    HeapEnt *heap;
    Py_ssize_t heap_n, heap_cap;
    long long cancelled;      /* cancelled entries still parked */
    int running;
    int stopped;
    long long events_executed;
    PyObject *sim_error;      /* SimulationError class (owned) */
} Core;

typedef struct {
    PyObject_HEAD
    Core *core;        /* owned */
    Py_ssize_t slot;
    long long seq;
    double time;       /* snapshot at arm time (stable across slot reuse) */
} CHandle;

static PyTypeObject Core_Type;
static PyTypeObject CHandle_Type;

/* ---- heap primitives (min-heap on (time, seq)) ------------------------ */

static inline int
ent_lt(const HeapEnt *a, const HeapEnt *b)
{
    if (a->time != b->time)
        return a->time < b->time;
    return a->seq < b->seq;
}

static int
heap_reserve(Core *c, Py_ssize_t need)
{
    if (need <= c->heap_cap)
        return 0;
    Py_ssize_t cap = c->heap_cap ? c->heap_cap : 64;
    while (cap < need)
        cap *= 2;
    HeapEnt *h = PyMem_Realloc(c->heap, cap * sizeof(HeapEnt));
    if (!h) {
        PyErr_NoMemory();
        return -1;
    }
    c->heap = h;
    c->heap_cap = cap;
    return 0;
}

static int
heap_push(Core *c, double time, long long seq, Py_ssize_t slot)
{
    if (heap_reserve(c, c->heap_n + 1) < 0)
        return -1;
    HeapEnt *h = c->heap;
    Py_ssize_t i = c->heap_n++;
    while (i > 0) {
        Py_ssize_t parent = (i - 1) >> 1;
        if (h[parent].time < time
            || (h[parent].time == time && h[parent].seq < seq))
            break;
        h[i] = h[parent];
        i = parent;
    }
    h[i].time = time;
    h[i].seq = seq;
    h[i].slot = slot;
    return 0;
}

/* Remove the root; heap must be nonempty. */
static void
heap_pop(Core *c)
{
    HeapEnt *h = c->heap;
    Py_ssize_t n = --c->heap_n;
    if (n == 0)
        return;
    HeapEnt last = h[n];
    Py_ssize_t i = 0;
    for (;;) {
        Py_ssize_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && ent_lt(&h[child + 1], &h[child]))
            child += 1;
        if (!ent_lt(&h[child], &last))
            break;
        h[i] = h[child];
        i = child;
    }
    h[i] = last;
}

static void
heap_heapify(Core *c)
{
    HeapEnt *h = c->heap;
    Py_ssize_t n = c->heap_n;
    for (Py_ssize_t start = (n >> 1) - 1; start >= 0; start--) {
        HeapEnt item = h[start];
        Py_ssize_t i = start;
        for (;;) {
            Py_ssize_t child = 2 * i + 1;
            if (child >= n)
                break;
            if (child + 1 < n && ent_lt(&h[child + 1], &h[child]))
                child += 1;
            if (!ent_lt(&h[child], &item))
                break;
            h[i] = h[child];
            i = child;
        }
        h[i] = item;
    }
}

/* ---- slab primitives -------------------------------------------------- */

static Py_ssize_t
slab_alloc(Core *c)
{
    if (c->free_n > 0)
        return c->freelist[--c->free_n];
    Py_ssize_t cap = c->slab_cap ? c->slab_cap * 2 : 64;
    Slot *s = PyMem_Realloc(c->slab, cap * sizeof(Slot));
    if (!s) {
        PyErr_NoMemory();
        return -1;
    }
    Py_ssize_t *f = PyMem_Realloc(c->freelist, cap * sizeof(Py_ssize_t));
    if (!f) {
        c->slab = s;  /* keep the successful realloc */
        c->slab_cap = cap;
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = c->slab_cap; i < cap; i++) {
        s[i].state = STATE_FREE;
        s[i].fn = NULL;
        s[i].args = NULL;
        s[i].seq = -1;
    }
    /* Park the new slots (except the one we hand out) on the free list,
     * highest index deepest so low slots recycle first (cache-friendly,
     * and matches the Python slab's LIFO free list). */
    Py_ssize_t grabbed = c->slab_cap;
    for (Py_ssize_t i = cap - 1; i > grabbed; i--)
        f[c->free_n++] = i;
    c->slab = s;
    c->freelist = f;
    c->slab_cap = cap;
    return grabbed;
}

static inline void
slot_free(Core *c, Py_ssize_t slot)
{
    Slot *s = &c->slab[slot];
    s->state = STATE_FREE;
    Py_CLEAR(s->fn);
    Py_CLEAR(s->args);
    c->freelist[c->free_n++] = slot;  /* capacity == slab_cap, always fits */
}

static void
core_compact(Core *c)
{
    HeapEnt *h = c->heap;
    Py_ssize_t n = c->heap_n, w = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_ssize_t slot = h[i].slot;
        if (c->slab[slot].state == STATE_PENDING)
            h[w++] = h[i];
        else
            slot_free(c, slot);
    }
    if (w != n) {
        c->heap_n = w;
        heap_heapify(c);
    }
    c->cancelled = 0;
}

/* ---- handle type ------------------------------------------------------ */

static PyObject *
chandle_cancel(CHandle *self, PyObject *Py_UNUSED(ignored))
{
    Core *c = self->core;
    Py_ssize_t slot = self->slot;
    Slot *s = &c->slab[slot];
    if (s->seq == self->seq && s->state == STATE_PENDING) {
        s->state = STATE_CANCELLED;
        Py_CLEAR(s->fn);
        Py_CLEAR(s->args);
        c->cancelled += 1;
        if (c->cancelled >= COMPACT_MIN
            && (double)c->cancelled > COMPACT_RATIO * (double)c->heap_n)
            core_compact(c);
    }
    Py_RETURN_NONE;
}

static PyObject *
chandle_get_cancelled(CHandle *self, void *Py_UNUSED(closure))
{
    Slot *s = &self->core->slab[self->slot];
    /* Pending with our seq => live; anything else (fired, cancelled,
     * recycled) reports True, matching the Python slab handle. */
    if (s->seq == self->seq && s->state == STATE_PENDING)
        Py_RETURN_FALSE;
    Py_RETURN_TRUE;
}

static PyObject *
chandle_get_time(CHandle *self, void *Py_UNUSED(closure))
{
    return PyFloat_FromDouble(self->time);
}

static PyObject *
chandle_repr(CHandle *self)
{
    Slot *s = &self->core->slab[self->slot];
    const char *state =
        (s->seq == self->seq && s->state == STATE_PENDING)
        ? "pending" : "cancelled";
    return PyUnicode_FromFormat("<EventHandle t=%R seq=%lld %s>",
                                PyFloat_FromDouble(self->time),
                                self->seq, state);
}

static void
chandle_dealloc(CHandle *self)
{
    PyObject_GC_UnTrack(self);
    Py_CLEAR(self->core);
    PyObject_GC_Del(self);
}

static int
chandle_traverse(CHandle *self, visitproc visit, void *arg)
{
    Py_VISIT(self->core);
    return 0;
}

static int
chandle_clear(CHandle *self)
{
    Py_CLEAR(self->core);
    return 0;
}

static PyMethodDef chandle_methods[] = {
    {"cancel", (PyCFunction)chandle_cancel, METH_NOARGS,
     "Prevent the callback from firing (idempotent, stale-safe)."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef chandle_getset[] = {
    {"cancelled", (getter)chandle_get_cancelled, NULL,
     "True once the event can no longer fire via this handle.", NULL},
    {"time", (getter)chandle_get_time, NULL,
     "Absolute simulated time this event was armed for.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject CHandle_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._speedups.EventHandle",
    .tp_basicsize = sizeof(CHandle),
    .tp_dealloc = (destructor)chandle_dealloc,
    .tp_repr = (reprfunc)chandle_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)chandle_traverse,
    .tp_clear = (inquiry)chandle_clear,
    .tp_methods = chandle_methods,
    .tp_getset = chandle_getset,
};

/* ---- core scheduling -------------------------------------------------- */

/* Arm fn(*args) at `time`; returns the slot index or -1 on error.
 * Steals nothing; fn/args are increfed here. */
static Py_ssize_t
core_arm(Core *c, double time, PyObject *fn, PyObject *args)
{
    Py_ssize_t slot = slab_alloc(c);
    if (slot < 0)
        return -1;
    long long seq = c->seq++;
    Slot *s = &c->slab[slot];
    s->time = time;
    s->seq = seq;
    Py_INCREF(fn);
    s->fn = fn;
    Py_INCREF(args);
    s->args = args;
    s->state = STATE_PENDING;
    if (heap_push(c, time, seq, slot) < 0) {
        slot_free(c, slot);
        c->seq--;
        return -1;
    }
    return slot;
}

static PyObject *
make_handle(Core *c, Py_ssize_t slot)
{
    CHandle *h = PyObject_GC_New(CHandle, &CHandle_Type);
    if (!h)
        return NULL;
    Py_INCREF(c);
    h->core = c;
    h->slot = slot;
    h->seq = c->slab[slot].seq;
    h->time = c->slab[slot].time;
    PyObject_GC_Track((PyObject *)h);
    return (PyObject *)h;
}

/* Build an args tuple from fastcall tail (may be empty). */
static PyObject *
pack_args(PyObject *const *args, Py_ssize_t n)
{
    PyObject *t = PyTuple_New(n);
    if (!t)
        return NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_INCREF(args[i]);
        PyTuple_SET_ITEM(t, i, args[i]);
    }
    return t;
}

static PyObject *
arm_common(Core *c, double time, PyObject *const *args, Py_ssize_t nargs,
           int want_handle)
{
    PyObject *tup = pack_args(args + 1, nargs - 1);
    if (!tup)
        return NULL;
    Py_ssize_t slot = core_arm(c, time, args[0], tup);
    Py_DECREF(tup);
    if (slot < 0)
        return NULL;
    if (!want_handle)
        Py_RETURN_NONE;
    return make_handle(c, slot);
}

static PyObject *
core_call_at_impl(Core *c, PyObject *const *args, Py_ssize_t nargs,
                  const char *name, int want_handle)
{
    if (nargs < 2) {
        PyErr_Format(PyExc_TypeError,
                     "%s() requires a time and a callable", name);
        return NULL;
    }
    double time = PyFloat_AsDouble(args[0]);
    if (time == -1.0 && PyErr_Occurred())
        return NULL;
    if (time < c->now) {
        PyErr_Format(c->sim_error,
                     "cannot schedule at t=%R (now=%R): time travel",
                     args[0], PyFloat_FromDouble(c->now));
        return NULL;
    }
    if (!isfinite(time)) {
        PyErr_Format(c->sim_error, "non-finite event time %R", args[0]);
        return NULL;
    }
    return arm_common(c, time, args + 1, nargs - 1, want_handle);
}

static PyObject *
core_call_at(Core *c, PyObject *const *args, Py_ssize_t nargs)
{
    return core_call_at_impl(c, args, nargs, "call_at", 1);
}

static PyObject *
core_post_at(Core *c, PyObject *const *args, Py_ssize_t nargs)
{
    return core_call_at_impl(c, args, nargs, "post_at", 0);
}

static PyObject *
core_call_after_impl(Core *c, PyObject *const *args, Py_ssize_t nargs,
                     const char *name, int want_handle)
{
    if (nargs < 2) {
        PyErr_Format(PyExc_TypeError,
                     "%s() requires a delay and a callable", name);
        return NULL;
    }
    double delay = PyFloat_AsDouble(args[0]);
    if (delay == -1.0 && PyErr_Occurred())
        return NULL;
    /* !(delay >= 0) also rejects NaN, matching Python's `not 0.0 <= delay`. */
    if (!(delay >= 0.0) || isinf(delay)) {
        PyErr_Format(c->sim_error, "negative delay %R", args[0]);
        return NULL;
    }
    double time = c->now + delay;
    if (isinf(time)) {
        PyErr_Format(c->sim_error, "non-finite event time %R",
                     PyFloat_FromDouble(time));
        return NULL;
    }
    return arm_common(c, time, args + 1, nargs - 1, want_handle);
}

static PyObject *
core_call_after(Core *c, PyObject *const *args, Py_ssize_t nargs)
{
    return core_call_after_impl(c, args, nargs, "call_after", 1);
}

static PyObject *
core_post_after(Core *c, PyObject *const *args, Py_ssize_t nargs)
{
    return core_call_after_impl(c, args, nargs, "post_after", 0);
}

static PyObject *
core_call_soon(Core *c, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 1) {
        PyErr_SetString(PyExc_TypeError,
                        "call_soon() requires a callable");
        return NULL;
    }
    return arm_common(c, c->now, args, nargs, 1);
}

static PyObject *
core_post_soon(Core *c, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 1) {
        PyErr_SetString(PyExc_TypeError,
                        "post_soon() requires a callable");
        return NULL;
    }
    return arm_common(c, c->now, args, nargs, 0);
}

/* post_many(times, fn, argss): batch-arm pre-validated events.  `times`
 * is a sequence of floats (already validated >= now and finite by the
 * Python wrapper), argss is None (fn()) or a sequence of tuples. */
static PyObject *
core_post_many(Core *c, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "post_many() takes (times, fn, argss)");
        return NULL;
    }
    PyObject *times = PySequence_Fast(args[0], "times must be a sequence");
    if (!times)
        return NULL;
    PyObject *fn = args[1];
    PyObject *argss = args[2];
    Py_ssize_t n = PySequence_Fast_GET_SIZE(times);
    PyObject *empty = PyTuple_New(0);
    if (!empty) {
        Py_DECREF(times);
        return NULL;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        double t = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(times, i));
        if (t == -1.0 && PyErr_Occurred())
            goto fail;
        PyObject *tup;
        if (argss == Py_None) {
            tup = empty;
            Py_INCREF(tup);
        }
        else {
            PyObject *item = PySequence_GetItem(argss, i);
            if (!item)
                goto fail;
            tup = PySequence_Tuple(item);
            Py_DECREF(item);
            if (!tup)
                goto fail;
        }
        Py_ssize_t slot = core_arm(c, t, fn, tup);
        Py_DECREF(tup);
        if (slot < 0)
            goto fail;
    }
    Py_DECREF(empty);
    Py_DECREF(times);
    return PyLong_FromSsize_t(n);
fail:
    Py_DECREF(empty);
    Py_DECREF(times);
    return NULL;
}

/* ---- run loop --------------------------------------------------------- */

/* Reap cancelled entries off the root.  Returns heap_n. */
static inline Py_ssize_t
reap_root(Core *c)
{
    while (c->heap_n > 0) {
        Py_ssize_t slot = c->heap[0].slot;
        if (c->slab[slot].state == STATE_PENDING)
            break;
        heap_pop(c);
        c->cancelled -= 1;
        slot_free(c, slot);
    }
    return c->heap_n;
}

static PyObject *
core_run(Core *c, PyObject *const *args, Py_ssize_t nargs)
{
    /* run(until, max_events_or_None, observer_or_None, sanitizer_or_None) */
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "run() takes (until, max_events, observer, sanitizer)");
        return NULL;
    }
    double until = PyFloat_AsDouble(args[0]);
    if (until == -1.0 && PyErr_Occurred())
        return NULL;
    long long max_events = -1;
    if (args[1] != Py_None) {
        max_events = PyLong_AsLongLong(args[1]);
        if (max_events == -1 && PyErr_Occurred())
            return NULL;
    }
    PyObject *observer = args[2];
    PyObject *sanitizer = args[3];
    if (c->running) {
        PyErr_SetString(c->sim_error, "Engine.run() is not re-entrant");
        return NULL;
    }
    c->running = 1;
    c->stopped = 0;
    long long executed = 0;
    int broke = 0;   /* exited via the until horizon */
    int failed = 0;

    while (!c->stopped && reap_root(c) > 0) {
        double time = c->heap[0].time;
        if (time > until) {
            c->now = until;
            broke = 1;
            break;
        }
        if (max_events >= 0 && executed >= max_events) {
            if (observer != Py_None) {
                PyObject *r = PyObject_CallMethod(
                    observer, "on_stall", "dL", c->now, max_events);
                if (!r) {
                    failed = 1;
                    break;
                }
                Py_DECREF(r);
            }
            PyErr_Format(c->sim_error,
                         "exceeded max_events=%lld (runaway simulation?)",
                         max_events);
            failed = 1;
            break;
        }
        Py_ssize_t slot = c->heap[0].slot;
        heap_pop(c);
        c->now = time;
        c->events_executed += 1;
        executed += 1;
        Slot *s = &c->slab[slot];
        PyObject *fn = s->fn;
        PyObject *fargs = s->args;
        s->fn = NULL;
        s->args = NULL;
        s->state = STATE_FREE;
        c->freelist[c->free_n++] = slot;
        PyObject *res = PyObject_CallObject(fn, fargs);
        Py_DECREF(fn);
        Py_DECREF(fargs);
        if (!res) {
            failed = 1;
            break;
        }
        Py_DECREF(res);
    }
    if (failed) {
        c->running = 0;
        return NULL;
    }
    if (!broke && c->heap_n == 0) {
        /* Drained (or stopped with nothing pending): advance the clock
         * to a finite horizon and fire the quiescence hook — mirrors
         * the heap engine's while-else. */
        if (isfinite(until) && until > c->now)
            c->now = until;
        if (sanitizer != Py_None && !c->stopped) {
            PyObject *r = PyObject_CallMethod(
                sanitizer, "on_engine_drained", "d", c->now);
            if (!r) {
                c->running = 0;
                return NULL;
            }
            Py_DECREF(r);
        }
    }
    c->running = 0;
    return PyFloat_FromDouble(c->now);
}

static PyObject *
core_step(Core *c, PyObject *Py_UNUSED(ignored))
{
    if (reap_root(c) == 0)
        Py_RETURN_FALSE;
    Py_ssize_t slot = c->heap[0].slot;
    double time = c->heap[0].time;
    heap_pop(c);
    c->now = time;
    c->events_executed += 1;
    Slot *s = &c->slab[slot];
    PyObject *fn = s->fn;
    PyObject *fargs = s->args;
    s->fn = NULL;
    s->args = NULL;
    s->state = STATE_FREE;
    c->freelist[c->free_n++] = slot;
    PyObject *res = PyObject_CallObject(fn, fargs);
    Py_DECREF(fn);
    Py_DECREF(fargs);
    if (!res)
        return NULL;
    Py_DECREF(res);
    Py_RETURN_TRUE;
}

static PyObject *
core_peek(Core *c, PyObject *Py_UNUSED(ignored))
{
    if (reap_root(c) == 0)
        return PyFloat_FromDouble(Py_HUGE_VAL);
    return PyFloat_FromDouble(c->heap[0].time);
}

static PyObject *
core_stop(Core *c, PyObject *Py_UNUSED(ignored))
{
    c->stopped = 1;
    Py_RETURN_NONE;
}

static PyObject *
core_set_now(Core *c, PyObject *arg)
{
    /* Validation (monotonicity, no skipped events) is the Python
     * wrapper's job — advance_to is a cold path. */
    double t = PyFloat_AsDouble(arg);
    if (t == -1.0 && PyErr_Occurred())
        return NULL;
    c->now = t;
    Py_RETURN_NONE;
}

/* ---- type plumbing ---------------------------------------------------- */

static PyObject *
core_get_now(Core *c, void *Py_UNUSED(closure))
{
    return PyFloat_FromDouble(c->now);
}

static PyObject *
core_get_pending(Core *c, void *Py_UNUSED(closure))
{
    return PyLong_FromSsize_t(c->heap_n);
}

static PyObject *
core_get_cancelled(Core *c, void *Py_UNUSED(closure))
{
    return PyLong_FromLongLong(c->cancelled);
}

static PyObject *
core_get_executed(Core *c, void *Py_UNUSED(closure))
{
    return PyLong_FromLongLong(c->events_executed);
}

static int
core_set_executed(Core *c, PyObject *value, void *Py_UNUSED(closure))
{
    long long v = PyLong_AsLongLong(value);
    if (v == -1 && PyErr_Occurred())
        return -1;
    c->events_executed = v;
    return 0;
}

static PyObject *
core_get_seq(Core *c, void *Py_UNUSED(closure))
{
    return PyLong_FromLongLong(c->seq);
}

static PyObject *
core_get_stopped(Core *c, void *Py_UNUSED(closure))
{
    return PyBool_FromLong(c->stopped);
}

static PyObject *
core_get_running(Core *c, void *Py_UNUSED(closure))
{
    return PyBool_FromLong(c->running);
}

static PyObject *
core_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *sim_error;
    if (!PyArg_ParseTuple(args, "O", &sim_error))
        return NULL;
    Core *c = (Core *)type->tp_alloc(type, 0);
    if (!c)
        return NULL;
    c->now = 0.0;
    c->seq = 0;
    c->slab = NULL;
    c->slab_cap = 0;
    c->freelist = NULL;
    c->free_n = 0;
    c->heap = NULL;
    c->heap_n = c->heap_cap = 0;
    c->cancelled = 0;
    c->running = 0;
    c->stopped = 0;
    c->events_executed = 0;
    Py_INCREF(sim_error);
    c->sim_error = sim_error;
    return (PyObject *)c;
}

static int
core_traverse(Core *c, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < c->slab_cap; i++) {
        Py_VISIT(c->slab[i].fn);
        Py_VISIT(c->slab[i].args);
    }
    Py_VISIT(c->sim_error);
    return 0;
}

static int
core_clear_slots(Core *c)
{
    for (Py_ssize_t i = 0; i < c->slab_cap; i++) {
        Py_CLEAR(c->slab[i].fn);
        Py_CLEAR(c->slab[i].args);
        c->slab[i].state = STATE_FREE;
    }
    Py_CLEAR(c->sim_error);
    return 0;
}

static void
core_dealloc(Core *c)
{
    PyObject_GC_UnTrack(c);
    core_clear_slots(c);
    PyMem_Free(c->slab);
    PyMem_Free(c->freelist);
    PyMem_Free(c->heap);
    Py_TYPE(c)->tp_free((PyObject *)c);
}

static PyMethodDef core_methods[] = {
    {"call_at", (PyCFunction)core_call_at, METH_FASTCALL, NULL},
    {"call_after", (PyCFunction)core_call_after, METH_FASTCALL, NULL},
    {"call_soon", (PyCFunction)core_call_soon, METH_FASTCALL, NULL},
    {"post_at", (PyCFunction)core_post_at, METH_FASTCALL, NULL},
    {"post_after", (PyCFunction)core_post_after, METH_FASTCALL, NULL},
    {"post_soon", (PyCFunction)core_post_soon, METH_FASTCALL, NULL},
    {"post_many", (PyCFunction)core_post_many, METH_FASTCALL, NULL},
    {"run", (PyCFunction)core_run, METH_FASTCALL, NULL},
    {"step", (PyCFunction)core_step, METH_NOARGS, NULL},
    {"peek", (PyCFunction)core_peek, METH_NOARGS, NULL},
    {"stop", (PyCFunction)core_stop, METH_NOARGS, NULL},
    {"_set_now", (PyCFunction)core_set_now, METH_O, NULL},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef core_getset[] = {
    {"now", (getter)core_get_now, NULL, NULL, NULL},
    {"pending", (getter)core_get_pending, NULL, NULL, NULL},
    {"pending_cancelled", (getter)core_get_cancelled, NULL, NULL, NULL},
    {"events_executed", (getter)core_get_executed,
     (setter)core_set_executed, NULL, NULL},
    {"seq", (getter)core_get_seq, NULL, NULL, NULL},
    {"stopped", (getter)core_get_stopped, NULL, NULL, NULL},
    {"running", (getter)core_get_running, NULL, NULL, NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject Core_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._speedups.EngineCore",
    .tp_basicsize = sizeof(Core),
    .tp_dealloc = (destructor)core_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)core_traverse,
    .tp_clear = (inquiry)core_clear_slots,
    .tp_methods = core_methods,
    .tp_getset = core_getset,
    .tp_new = core_new,
};

static struct PyModuleDef speedups_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._speedups",
    .m_doc = "C slab core for the simulation engine.",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    if (PyType_Ready(&Core_Type) < 0 || PyType_Ready(&CHandle_Type) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&speedups_module);
    if (!m)
        return NULL;
    Py_INCREF(&Core_Type);
    if (PyModule_AddObject(m, "EngineCore", (PyObject *)&Core_Type) < 0) {
        Py_DECREF(&Core_Type);
        Py_DECREF(m);
        return NULL;
    }
    Py_INCREF(&CHandle_Type);
    if (PyModule_AddObject(m, "EventHandle", (PyObject *)&CHandle_Type) < 0) {
        Py_DECREF(&CHandle_Type);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
