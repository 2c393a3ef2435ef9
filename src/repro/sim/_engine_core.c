/* Compiled dispatch core for repro.sim.engine.Simulator.
 *
 * Design: events stay ordinary Python ``Event`` objects (created and
 * recycled by the Python ``Simulator.schedule``); this module owns only
 * the heap array, the counters and the dispatch loop.  That keeps every
 * serialization surface (pickles, snapshot digests, golden state) in
 * Python and bit-identical across backends — a host without a C
 * compiler simply falls back to the pure-python loop.
 *
 * The heap stores {time, serial, event} structs and orders on
 * (time, serial) exactly like the pure backend's (time, serial, event)
 * tuples; serials are unique so the event itself is never compared.
 *
 * Fired/cancelled events whose only remaining reference is the core's
 * own are recycled onto the shared free list (set_free_list) after
 * their fn/args are cleared, mirroring the pure backend's
 * sys.getrefcount gate.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h> /* PyMemberDef layout for slot offsets */

typedef struct {
    double time;
    long long serial;
    PyObject *event; /* strong */
} entry_t;

typedef struct {
    PyObject_HEAD
    double now;
    long long serial_next;
    long long events_processed;
    Py_ssize_t pending;
    Py_ssize_t cancelled;
    int stop_requested;
    entry_t *heap;
    Py_ssize_t heap_len;
    Py_ssize_t heap_cap;
    PyObject *free_list;     /* strong, list or NULL */
    PyObject *current_event; /* strong, event whose callback raised */
} CoreObject;

/* Match HEAP_COMPACT_MIN and NEGATIVE_DELAY_EPSILON in engine.py. */
#define HEAP_COMPACT_MIN 64
#define NEGATIVE_DELAY_EPSILON 1e-9

static PyObject *s_cancelled; /* "_cancelled" */
static PyObject *s_fired;     /* "_fired" */
static PyObject *s_fn;        /* "fn" */
static PyObject *s_args;      /* "args" */

/* The Python Event class and the byte offsets of its __slots__,
 * captured by register_event_type().  Slot storage is a plain
 * PyObject* at a fixed offset, so once registered the hot loop reads
 * and writes event fields with direct memory access instead of
 * attribute lookups. */
static PyTypeObject *event_type;
static Py_ssize_t off_time, off_serial, off_fn, off_args;
static Py_ssize_t off_cancelled, off_fired, off_sim;

#define EV_SLOT(ev, off) (*(PyObject **)((char *)(ev) + (off)))

/* Replace slot contents with an already-owned reference. */
static inline void
ev_set(PyObject *ev, Py_ssize_t off, PyObject *owned)
{
    PyObject *old = EV_SLOT(ev, off);
    EV_SLOT(ev, off) = owned;
    Py_XDECREF(old);
}

static inline int
ev_is_cancelled(PyObject *ev)
{
    PyObject *v = EV_SLOT(ev, off_cancelled);
    if (v == Py_False || v == NULL)
        return 0;
    if (v == Py_True)
        return 1;
    return PyObject_IsTrue(v);
}

/* ------------------------------------------------------------------ */
/* heap primitives                                                     */
/* ------------------------------------------------------------------ */

static inline int
entry_lt(const entry_t *a, const entry_t *b)
{
    if (a->time != b->time)
        return a->time < b->time;
    return a->serial < b->serial;
}

static int
heap_reserve(CoreObject *self, Py_ssize_t need)
{
    Py_ssize_t cap;
    entry_t *grown;
    if (need <= self->heap_cap)
        return 0;
    cap = self->heap_cap ? self->heap_cap : 64;
    while (cap < need)
        cap *= 2;
    grown = (entry_t *)PyMem_Realloc(self->heap, (size_t)cap * sizeof(entry_t));
    if (grown == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    self->heap = grown;
    self->heap_cap = cap;
    return 0;
}

/* Push an entry (steals the event reference on success only). */
static int
heap_push(CoreObject *self, double time, long long serial, PyObject *event)
{
    entry_t *heap;
    Py_ssize_t pos, parent;
    entry_t item;
    if (heap_reserve(self, self->heap_len + 1) < 0)
        return -1;
    heap = self->heap;
    item.time = time;
    item.serial = serial;
    item.event = event;
    pos = self->heap_len++;
    while (pos > 0) {
        parent = (pos - 1) >> 1;
        if (!entry_lt(&item, &heap[parent]))
            break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = item;
    return 0;
}

/* Pop the minimum entry into *out; caller owns out->event. */
static void
heap_pop(CoreObject *self, entry_t *out)
{
    entry_t *heap = self->heap;
    entry_t last;
    Py_ssize_t pos, child, n;
    *out = heap[0];
    n = --self->heap_len;
    if (n == 0)
        return;
    last = heap[n];
    pos = 0;
    for (;;) {
        child = 2 * pos + 1;
        if (child >= n)
            break;
        if (child + 1 < n && entry_lt(&heap[child + 1], &heap[child]))
            child += 1;
        if (!entry_lt(&heap[child], &last))
            break;
        heap[pos] = heap[child];
        pos = child;
    }
    heap[pos] = last;
}

static void
heapify(entry_t *heap, Py_ssize_t n)
{
    Py_ssize_t start;
    for (start = n / 2 - 1; start >= 0; start--) {
        entry_t item = heap[start];
        Py_ssize_t pos = start, child;
        for (;;) {
            child = 2 * pos + 1;
            if (child >= n)
                break;
            if (child + 1 < n && entry_lt(&heap[child + 1], &heap[child]))
                child += 1;
            if (!entry_lt(&heap[child], &item))
                break;
            heap[pos] = heap[child];
            pos = child;
        }
        heap[pos] = item;
    }
}

/* ------------------------------------------------------------------ */
/* event helpers                                                       */
/* ------------------------------------------------------------------ */

/* Consume our reference to a dead (fired or cancelled) event,
 * recycling it onto the free list when nothing else holds it. */
static void
recycle_or_release(CoreObject *self, PyObject *event)
{
    if (self->free_list != NULL && Py_REFCNT(event) == 1) {
        Py_INCREF(Py_None);
        ev_set(event, off_fn, Py_None);
        Py_INCREF(Py_None);
        ev_set(event, off_args, Py_None);
        if (PyList_Append(self->free_list, event) < 0)
            PyErr_Clear();
    }
    Py_DECREF(event);
}

/* Drop cancelled entries from the heap top. */
static void
drop_cancelled_heads(CoreObject *self)
{
    while (self->heap_len > 0 && ev_is_cancelled(self->heap[0].event)) {
        entry_t top;
        heap_pop(self, &top);
        self->cancelled--;
        recycle_or_release(self, top.event);
    }
}

/* Fire one already-popped event (we own entry->event).  Returns 0, or
 * -1 with the exception set and the event parked in current_event. */
static int
fire_event(CoreObject *self, entry_t *entry)
{
    PyObject *event = entry->event;
    PyObject *fn, *args, *result;
    self->now = entry->time;
    Py_INCREF(Py_True);
    ev_set(event, off_fired, Py_True);
    self->pending--;
    self->events_processed++;
    fn = EV_SLOT(event, off_fn);
    args = EV_SLOT(event, off_args);
    Py_INCREF(fn);
    Py_INCREF(args);
    result = PyObject_Call(fn, args, NULL);
    Py_DECREF(fn);
    Py_DECREF(args);
    if (result == NULL) {
        /* Keep the event for Simulator's error report; the exception
         * is already set. */
        Py_XSETREF(self->current_event, event);
        return -1;
    }
    Py_DECREF(result);
    recycle_or_release(self, event);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Core methods                                                        */
/* ------------------------------------------------------------------ */

static PyObject *
Core_push(CoreObject *self, PyObject *const *argv, Py_ssize_t argc)
{
    double time;
    long long serial;
    PyObject *event;
    if (argc != 3) {
        PyErr_SetString(PyExc_TypeError, "push(time, serial, event)");
        return NULL;
    }
    time = PyFloat_AsDouble(argv[0]);
    if (time == -1.0 && PyErr_Occurred())
        return NULL;
    serial = PyLong_AsLongLong(argv[1]);
    if (serial == -1 && PyErr_Occurred())
        return NULL;
    event = argv[2];
    Py_INCREF(event);
    if (heap_push(self, time, serial, event) < 0) {
        Py_DECREF(event);
        return NULL;
    }
    self->pending++;
    Py_RETURN_NONE;
}

/* The scheduling fast path: mint the serial, reuse or allocate an
 * Event, fill its slots directly and push it.  Returns the event. */
static PyObject *
schedule_common(CoreObject *self, double time, PyObject *fn, PyObject *args,
                PyObject *sim)
{
    long long serial;
    PyObject *event;
    PyObject *time_obj, *serial_obj;
    Py_ssize_t nfree;
    serial = self->serial_next++;
    /* Boxed field values before touching the free list / allocator. */
    time_obj = PyFloat_FromDouble(time);
    if (time_obj == NULL)
        return NULL;
    serial_obj = PyLong_FromLongLong(serial);
    if (serial_obj == NULL) {
        Py_DECREF(time_obj);
        return NULL;
    }
    nfree = self->free_list ? PyList_GET_SIZE(self->free_list) : 0;
    if (nfree > 0) {
        event = PyList_GET_ITEM(self->free_list, nfree - 1);
        Py_INCREF(event);
        if (PyList_SetSlice(self->free_list, nfree - 1, nfree, NULL) < 0) {
            Py_DECREF(event);
            Py_DECREF(time_obj);
            Py_DECREF(serial_obj);
            return NULL;
        }
    } else {
        event = event_type->tp_alloc(event_type, 0);
        if (event == NULL) {
            Py_DECREF(time_obj);
            Py_DECREF(serial_obj);
            return NULL;
        }
    }
    /* ev_set consumes a reference; slots may hold stale values from a
     * recycled event (or NULL from a fresh allocation). */
    ev_set(event, off_time, time_obj);
    ev_set(event, off_serial, serial_obj);
    Py_INCREF(fn);
    ev_set(event, off_fn, fn);
    Py_INCREF(args);
    ev_set(event, off_args, args);
    Py_INCREF(Py_False);
    ev_set(event, off_cancelled, Py_False);
    Py_INCREF(Py_False);
    ev_set(event, off_fired, Py_False);
    Py_INCREF(sim);
    ev_set(event, off_sim, sim);
    Py_INCREF(event); /* heap's reference */
    if (heap_push(self, time, serial, event) < 0) {
        Py_DECREF(event); /* heap's */
        Py_DECREF(event); /* caller's */
        return NULL;
    }
    self->pending++;
    return event;
}

/* schedule(delay, fn, args, sim) — delay pre-validated by the caller. */
static PyObject *
Core_schedule(CoreObject *self, PyObject *const *argv, Py_ssize_t argc)
{
    double delay;
    if (argc != 4) {
        PyErr_SetString(PyExc_TypeError, "schedule(delay, fn, args, sim)");
        return NULL;
    }
    delay = PyFloat_AsDouble(argv[0]);
    if (delay == -1.0 && PyErr_Occurred())
        return NULL;
    return schedule_common(self, self->now + delay, argv[1], argv[2], argv[3]);
}

/* Raise repro.errors.SchedulingError with the message the pure
 * backend's Simulator.schedule_abs builds (cold path). */
static void
raise_past_time(PyObject *time_arg, double now)
{
    PyObject *errors = PyImport_ImportModule("repro.errors");
    PyObject *exc_type = NULL, *now_obj = NULL;
    if (errors != NULL)
        exc_type = PyObject_GetAttrString(errors, "SchedulingError");
    if (exc_type != NULL)
        now_obj = PyFloat_FromDouble(now);
    if (now_obj != NULL)
        PyErr_Format(exc_type,
                     "cannot schedule into the past (time=%S, now=%S)",
                     time_arg, now_obj);
    Py_XDECREF(now_obj);
    Py_XDECREF(exc_type);
    Py_XDECREF(errors);
}

/* schedule_abs(time, fn, args, sim) — exact absolute timestamp, no
 * now+delay round trip.  Validates like the pure backend: a time
 * before now raises SchedulingError unless it is within
 * NEGATIVE_DELAY_EPSILON (round-off), which clamps to now. */
static PyObject *
Core_schedule_abs(CoreObject *self, PyObject *const *argv, Py_ssize_t argc)
{
    double time;
    if (argc != 4) {
        PyErr_SetString(PyExc_TypeError, "schedule_abs(time, fn, args, sim)");
        return NULL;
    }
    time = PyFloat_AsDouble(argv[0]);
    if (time == -1.0 && PyErr_Occurred())
        return NULL;
    if (time < self->now) {
        if (time >= self->now - NEGATIVE_DELAY_EPSILON) {
            time = self->now;
        } else {
            raise_past_time(argv[0], self->now);
            return NULL;
        }
    }
    return schedule_common(self, time, argv[1], argv[2], argv[3]);
}

static PyObject *
Core_next_serial(CoreObject *self, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromLongLong(self->serial_next++);
}

static PyObject *
Core_set_serial(CoreObject *self, PyObject *arg)
{
    long long serial = PyLong_AsLongLong(arg);
    if (serial == -1 && PyErr_Occurred())
        return NULL;
    self->serial_next = serial;
    Py_RETURN_NONE;
}

static PyObject *
Core_set_events_processed(CoreObject *self, PyObject *arg)
{
    long long n = PyLong_AsLongLong(arg);
    if (n == -1 && PyErr_Occurred())
        return NULL;
    self->events_processed = n;
    Py_RETURN_NONE;
}

static PyObject *
Core_set_now(CoreObject *self, PyObject *arg)
{
    double now = PyFloat_AsDouble(arg);
    if (now == -1.0 && PyErr_Occurred())
        return NULL;
    self->now = now;
    Py_RETURN_NONE;
}

static PyObject *
Core_set_free_list(CoreObject *self, PyObject *arg)
{
    if (!PyList_Check(arg)) {
        PyErr_SetString(PyExc_TypeError, "free list must be a list");
        return NULL;
    }
    Py_INCREF(arg);
    Py_XSETREF(self->free_list, arg);
    Py_RETURN_NONE;
}

static PyObject *
Core_note_cancelled(CoreObject *self, PyObject *Py_UNUSED(ignored))
{
    self->pending--;
    self->cancelled++;
    if (self->cancelled > HEAP_COMPACT_MIN &&
        self->cancelled * 2 > self->heap_len) {
        /* Compact: keep live entries in array order, re-heapify. */
        entry_t *heap = self->heap;
        Py_ssize_t n = self->heap_len, live = 0, i;
        for (i = 0; i < n; i++) {
            if (ev_is_cancelled(heap[i].event)) {
                recycle_or_release(self, heap[i].event);
            } else {
                heap[live++] = heap[i];
            }
        }
        self->heap_len = live;
        heapify(heap, live);
        self->cancelled = 0;
    }
    Py_RETURN_NONE;
}

static PyObject *
Core_peek_time(CoreObject *self, PyObject *Py_UNUSED(ignored))
{
    drop_cancelled_heads(self);
    if (self->heap_len == 0)
        Py_RETURN_NONE;
    return PyFloat_FromDouble(self->heap[0].time);
}

static PyObject *
Core_step1(CoreObject *self, PyObject *Py_UNUSED(ignored))
{
    entry_t entry;
    drop_cancelled_heads(self);
    if (self->heap_len == 0)
        Py_RETURN_FALSE;
    heap_pop(self, &entry);
    if (fire_event(self, &entry) < 0)
        return NULL;
    Py_RETURN_TRUE;
}

static PyObject *
Core_run(CoreObject *self, PyObject *const *argv, Py_ssize_t argc)
{
    int has_until = 0, has_max = 0, interrupted = 0;
    double until = 0.0;
    long long max_events = 0, fired = 0;
    if (argc != 2) {
        PyErr_SetString(PyExc_TypeError, "run(until, max_events)");
        return NULL;
    }
    if (argv[0] != Py_None) {
        until = PyFloat_AsDouble(argv[0]);
        if (until == -1.0 && PyErr_Occurred())
            return NULL;
        has_until = 1;
    }
    if (argv[1] != Py_None) {
        max_events = PyLong_AsLongLong(argv[1]);
        if (max_events == -1 && PyErr_Occurred())
            return NULL;
        has_max = 1;
    }
    for (;;) {
        entry_t entry;
        if (self->stop_requested || (has_max && fired >= max_events)) {
            interrupted = 1;
            break;
        }
        drop_cancelled_heads(self);
        if (self->heap_len == 0)
            break;
        if (has_until && self->heap[0].time > until)
            break;
        heap_pop(self, &entry);
        if (fire_event(self, &entry) < 0)
            return NULL;
        fired++;
    }
    return Py_BuildValue("(Li)", fired, interrupted);
}

static PyObject *
Core_entries(CoreObject *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *list = PyList_New(self->heap_len);
    Py_ssize_t i;
    if (list == NULL)
        return NULL;
    for (i = 0; i < self->heap_len; i++) {
        PyObject *item = Py_BuildValue(
            "(dLO)", self->heap[i].time, self->heap[i].serial,
            self->heap[i].event);
        if (item == NULL) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, item);
    }
    return list;
}

static PyObject *
Core_reset_heap(CoreObject *self, PyObject *Py_UNUSED(ignored))
{
    Py_ssize_t i, n = self->heap_len;
    self->heap_len = 0;
    self->pending = 0;
    self->cancelled = 0;
    for (i = 0; i < n; i++)
        Py_DECREF(self->heap[i].event);
    Py_RETURN_NONE;
}

static PyObject *
Core_request_stop(CoreObject *self, PyObject *Py_UNUSED(ignored))
{
    self->stop_requested = 1;
    Py_RETURN_NONE;
}

static PyObject *
Core_clear_stop(CoreObject *self, PyObject *Py_UNUSED(ignored))
{
    self->stop_requested = 0;
    Py_RETURN_NONE;
}

static PyObject *
Core_take_current_event(CoreObject *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *event = self->current_event;
    if (event == NULL)
        Py_RETURN_NONE;
    self->current_event = NULL;
    return event; /* transfer our reference */
}

/* ------------------------------------------------------------------ */
/* type plumbing                                                       */
/* ------------------------------------------------------------------ */

static PyObject *
Core_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    double start_time = 0.0;
    CoreObject *self;
    static char *kwlist[] = {"start_time", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|d", kwlist, &start_time))
        return NULL;
    self = (CoreObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->now = start_time;
    self->serial_next = 0;
    self->events_processed = 0;
    self->pending = 0;
    self->cancelled = 0;
    self->stop_requested = 0;
    self->heap = NULL;
    self->heap_len = 0;
    self->heap_cap = 0;
    self->free_list = NULL;
    self->current_event = NULL;
    return (PyObject *)self;
}

static int
Core_traverse(CoreObject *self, visitproc visit, void *arg)
{
    Py_ssize_t i;
    for (i = 0; i < self->heap_len; i++)
        Py_VISIT(self->heap[i].event);
    Py_VISIT(self->free_list);
    Py_VISIT(self->current_event);
    return 0;
}

static int
Core_clear_refs(CoreObject *self)
{
    Py_ssize_t i, n = self->heap_len;
    self->heap_len = 0;
    for (i = 0; i < n; i++)
        Py_CLEAR(self->heap[i].event);
    Py_CLEAR(self->free_list);
    Py_CLEAR(self->current_event);
    return 0;
}

static void
Core_dealloc(CoreObject *self)
{
    PyObject_GC_UnTrack(self);
    Core_clear_refs(self);
    PyMem_Free(self->heap);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static Py_ssize_t
Core_length(CoreObject *self)
{
    return self->heap_len;
}

static PyObject *
Core_iter(CoreObject *self)
{
    PyObject *list = Core_entries(self, NULL);
    PyObject *iter;
    if (list == NULL)
        return NULL;
    iter = PyObject_GetIter(list);
    Py_DECREF(list);
    return iter;
}

static PyObject *
Core_get_now(CoreObject *self, void *closure)
{
    return PyFloat_FromDouble(self->now);
}

static PyObject *
Core_get_pending(CoreObject *self, void *closure)
{
    return PyLong_FromSsize_t(self->pending);
}

static PyObject *
Core_get_cancelled(CoreObject *self, void *closure)
{
    return PyLong_FromSsize_t(self->cancelled);
}

static PyObject *
Core_get_events_processed(CoreObject *self, void *closure)
{
    return PyLong_FromLongLong(self->events_processed);
}

static PyObject *
Core_get_serial_next(CoreObject *self, void *closure)
{
    return PyLong_FromLongLong(self->serial_next);
}

static PyObject *
Core_get_stop_requested(CoreObject *self, void *closure)
{
    return PyBool_FromLong(self->stop_requested);
}

static PyGetSetDef Core_getset[] = {
    {"now", (getter)Core_get_now, NULL, "current simulation time", NULL},
    {"pending", (getter)Core_get_pending, NULL, "live pending events", NULL},
    {"cancelled", (getter)Core_get_cancelled, NULL,
     "lazily-deleted entries still in the heap", NULL},
    {"events_processed", (getter)Core_get_events_processed, NULL,
     "events fired so far", NULL},
    {"serial_next", (getter)Core_get_serial_next, NULL,
     "next schedule serial", NULL},
    {"stop_requested", (getter)Core_get_stop_requested, NULL,
     "cooperative stop flag", NULL},
    {NULL},
};

static PyMethodDef Core_methods[] = {
    {"push", (PyCFunction)(void (*)(void))Core_push, METH_FASTCALL,
     "push(time, serial, event): add a pending event"},
    {"schedule", (PyCFunction)(void (*)(void))Core_schedule, METH_FASTCALL,
     "schedule(delay, fn, args, sim) -> Event (delay pre-validated)"},
    {"schedule_abs", (PyCFunction)(void (*)(void))Core_schedule_abs,
     METH_FASTCALL,
     "schedule_abs(time, fn, args, sim) -> Event (SchedulingError if past)"},
    {"next_serial", (PyCFunction)Core_next_serial, METH_NOARGS,
     "return the next schedule serial and advance the counter"},
    {"set_serial", (PyCFunction)Core_set_serial, METH_O,
     "set the next schedule serial (restore hook)"},
    {"set_events_processed", (PyCFunction)Core_set_events_processed, METH_O,
     "set the fired-event counter (restore hook)"},
    {"set_now", (PyCFunction)Core_set_now, METH_O,
     "advance the clock (end-of-run adjustment)"},
    {"set_free_list", (PyCFunction)Core_set_free_list, METH_O,
     "share the simulator's Event free list"},
    {"note_cancelled", (PyCFunction)Core_note_cancelled, METH_NOARGS,
     "account for a lazily-cancelled entry; compacts when warranted"},
    {"peek_time", (PyCFunction)Core_peek_time, METH_NOARGS,
     "time of the next pending event, or None"},
    {"step1", (PyCFunction)Core_step1, METH_NOARGS,
     "fire the single next pending event; returns whether one fired"},
    {"run", (PyCFunction)(void (*)(void))Core_run, METH_FASTCALL,
     "run(until, max_events) -> (fired, interrupted)"},
    {"entries", (PyCFunction)Core_entries, METH_NOARGS,
     "heap contents as (time, serial, event) tuples, array order"},
    {"reset_heap", (PyCFunction)Core_reset_heap, METH_NOARGS,
     "drop every entry and zero the pending/cancelled counters"},
    {"request_stop", (PyCFunction)Core_request_stop, METH_NOARGS,
     "set the cooperative stop flag"},
    {"clear_stop", (PyCFunction)Core_clear_stop, METH_NOARGS,
     "clear the cooperative stop flag"},
    {"take_current_event", (PyCFunction)Core_take_current_event, METH_NOARGS,
     "pop the event whose callback raised (error reporting)"},
    {NULL},
};

static PySequenceMethods Core_as_sequence = {
    .sq_length = (lenfunc)Core_length,
};

static PyTypeObject CoreType = {
    PyVarObject_HEAD_INIT(NULL, 0).tp_name = "repro.sim._engine_core.Core",
    .tp_basicsize = sizeof(CoreObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "C event-heap + dispatch loop behind Simulator",
    .tp_new = Core_new,
    .tp_dealloc = (destructor)Core_dealloc,
    .tp_traverse = (traverseproc)Core_traverse,
    .tp_clear = (inquiry)Core_clear_refs,
    .tp_methods = Core_methods,
    .tp_getset = Core_getset,
    .tp_as_sequence = &Core_as_sequence,
    .tp_iter = (getiterfunc)Core_iter,
};

/* Capture the Python Event class and its slot offsets.  Must be
 * called (by repro.sim.engine, at import) before any Core is used;
 * raises if the class layout is not the expected __slots__ set. */
static PyObject *
module_register_event_type(PyObject *Py_UNUSED(module), PyObject *arg)
{
    static const char *names[] = {"time",       "serial", "fn",   "args",
                                  "_cancelled", "_fired", "_sim"};
    Py_ssize_t *offsets[] = {&off_time,      &off_serial, &off_fn, &off_args,
                             &off_cancelled, &off_fired,  &off_sim};
    size_t i;
    if (!PyType_Check(arg)) {
        PyErr_SetString(PyExc_TypeError, "expected the Event class");
        return NULL;
    }
    for (i = 0; i < sizeof(names) / sizeof(names[0]); i++) {
        PyObject *descr = PyObject_GetAttrString(arg, names[i]);
        if (descr == NULL)
            return NULL;
        if (Py_TYPE(descr) != &PyMemberDescr_Type) {
            Py_DECREF(descr);
            PyErr_Format(PyExc_TypeError,
                         "Event.%s is not a slot descriptor", names[i]);
            return NULL;
        }
        *offsets[i] = ((PyMemberDescrObject *)descr)->d_member->offset;
        Py_DECREF(descr);
    }
    Py_INCREF(arg);
    Py_XSETREF(event_type, (PyTypeObject *)arg);
    Py_RETURN_NONE;
}

static PyMethodDef module_methods[] = {
    {"register_event_type", module_register_event_type, METH_O,
     "capture the Event class and its slot offsets (engine import hook)"},
    {NULL},
};

static struct PyModuleDef enginecoremodule = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._engine_core",
    .m_doc = "compiled event-dispatch core (optional fast path)",
    .m_size = -1,
    .m_methods = module_methods,
};

PyMODINIT_FUNC
PyInit__engine_core(void)
{
    PyObject *module;
    s_cancelled = PyUnicode_InternFromString("_cancelled");
    s_fired = PyUnicode_InternFromString("_fired");
    s_fn = PyUnicode_InternFromString("fn");
    s_args = PyUnicode_InternFromString("args");
    if (s_cancelled == NULL || s_fired == NULL || s_fn == NULL ||
        s_args == NULL)
        return NULL;
    if (PyType_Ready(&CoreType) < 0)
        return NULL;
    module = PyModule_Create(&enginecoremodule);
    if (module == NULL)
        return NULL;
    Py_INCREF(&CoreType);
    if (PyModule_AddObject(module, "Core", (PyObject *)&CoreType) < 0) {
        Py_DECREF(&CoreType);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
