/* Compiled dispatch core for repro.sim.engine.Simulator.
 *
 * Design: events stay ordinary Python ``Event`` objects; this module
 * owns the heap array, the counters, the dispatch loop and a link hop
 * that works on the Python objects' own state (see "the hop" below).
 * That keeps every serialization surface (pickles, snapshot digests,
 * golden state) in Python and bit-identical across backends — a host
 * without a C compiler simply falls back to the pure-python code.
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

static int hop_event(PyObject *fn, PyObject *args); /* the hop, below */

/* Fire one already-popped event (we own entry->event).  Returns 0, or
 * -1 with the exception set and the event parked in current_event. */
static int
fire_event(CoreObject *self, entry_t *entry)
{
    PyObject *event = entry->event;
    PyObject *fn, *args, *result;
    int rc;
    self->now = entry->time;
    Py_INCREF(Py_True);
    ev_set(event, off_fired, Py_True);
    self->pending--;
    self->events_processed++;
    fn = EV_SLOT(event, off_fn);
    args = EV_SLOT(event, off_args);
    Py_INCREF(fn);
    Py_INCREF(args);
    rc = hop_event(fn, args);
    if (rc > 0) {
        result = PyObject_Call(fn, args, NULL);
        rc = result == NULL ? -1 : 0;
        Py_XDECREF(result);
    }
    Py_DECREF(fn);
    Py_DECREF(args);
    if (rc < 0) {
        /* Keep the event for Simulator's error report; the exception
         * is already set. */
        Py_XSETREF(self->current_event, event);
        return -1;
    }
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
 * backend's Simulator.schedule_abs builds (cold path; time_arg is the
 * caller's object, or NULL for a time computed in C). */
static void
raise_past_time(PyObject *time_arg, double time, double now)
{
    PyObject *errors = PyImport_ImportModule("repro.errors");
    PyObject *exc_type = NULL, *now_obj = NULL, *time_obj = NULL;
    if (errors != NULL)
        exc_type = PyObject_GetAttrString(errors, "SchedulingError");
    if (exc_type != NULL)
        now_obj = PyFloat_FromDouble(now);
    if (now_obj != NULL)
        time_obj = time_arg ? Py_NewRef(time_arg) : PyFloat_FromDouble(time);
    if (time_obj != NULL)
        PyErr_Format(exc_type,
                     "cannot schedule into the past (time=%S, now=%S)",
                     time_obj, now_obj);
    Py_XDECREF(time_obj);
    Py_XDECREF(now_obj);
    Py_XDECREF(exc_type);
    Py_XDECREF(errors);
}

/* Validates like the pure backend's schedule_abs: a time before now
 * raises SchedulingError unless it is within NEGATIVE_DELAY_EPSILON
 * (round-off), which clamps to now. */
static PyObject *
schedule_abs_common(CoreObject *self, double time, PyObject *time_arg,
                    PyObject *fn, PyObject *args, PyObject *sim)
{
    if (time < self->now) {
        if (time < self->now - NEGATIVE_DELAY_EPSILON) {
            raise_past_time(time_arg, time, self->now);
            return NULL;
        }
        time = self->now;
    }
    return schedule_common(self, time, fn, args, sim);
}

/* schedule_abs(time, fn, args, sim) — exact absolute timestamp, no
 * now+delay round trip. */
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
    return schedule_abs_common(self, time, argv[0], argv[1], argv[2], argv[3]);
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
    self = (CoreObject *)type->tp_alloc(type, 0); /* zero-filled */
    if (self == NULL)
        return NULL;
    self->now = start_time;
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

/* now, serial_next and events_processed are also written by Simulator's
 * restore and end-of-run clock advance. */
static PyMemberDef Core_members[] = {
    {"now", T_DOUBLE, offsetof(CoreObject, now), 0, "current simulation time"},
    {"pending", T_PYSSIZET, offsetof(CoreObject, pending), READONLY,
     "live pending events"},
    {"cancelled", T_PYSSIZET, offsetof(CoreObject, cancelled), READONLY,
     "lazily-deleted entries still in the heap"},
    {"events_processed", T_LONGLONG, offsetof(CoreObject, events_processed),
     0, "events fired so far"},
    {"serial_next", T_LONGLONG, offsetof(CoreObject, serial_next), 0,
     "next schedule serial"},
    {"stop_requested", T_INT, offsetof(CoreObject, stop_requested), READONLY,
     "cooperative stop flag"},
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
    .tp_members = Core_members,
    .tp_as_sequence = &Core_as_sequence,
    .tp_iter = (getiterfunc)Core_iter,
};

/* The byte offset of cls.<name>, a __slots__ member. */
static int
slot_offset(PyObject *cls, const char *name, Py_ssize_t *out)
{
    PyObject *descr = PyObject_GetAttrString(cls, name);
    if (descr != NULL && Py_TYPE(descr) != &PyMemberDescr_Type)
        PyErr_Format(PyExc_TypeError, "%s.%s is not a slot descriptor",
                     ((PyTypeObject *)cls)->tp_name, name);
    else if (descr != NULL)
        *out = ((PyMemberDescrObject *)descr)->d_member->offset;
    Py_XDECREF(descr);
    return PyErr_Occurred() ? -1 : 0;
}

/* ------------------------------------------------------------------ */
/* the hop: Link.send/_serve/_deliver, Router.receive, Node.send       */
/* ------------------------------------------------------------------ */

/* Installed by repro.net.node.  The hop runs on the Link, DropTailQueue
 * and Router __dict__ entries the Python methods use, so pickles and
 * digests see one layout on both backends.  A step runs its Python
 * original when it cannot run exactly (a link down, tampered or
 * reordering, a queue not exactly a DropTailQueue, an unbound link.tx
 * channel, an overflow) and while an entry point is not the library's
 * own, so a class-level shim sees every call.  Events stay bound
 * methods: a callback's pickle and digest name its Python function. */

#define HOP_NAMES(X) /* the entry points (ENTRY_TYPE) first */             \
    X(send) X(_serve) X(_deliver) X(receive) X(schedule_abs) X(_sim)       \
    X(_core) X(queue) X(_down) X(tamper) X(_loss) X(_loss_active)          \
    X(should_drop) X(_loss_dropped) X(_items) X(limit) X(enqueues)         \
    X(dequeues) X(enqueue) X(_serve_pending) X(_free_at) X(bandwidth_bps)  \
    X(delay) X(reorder) X(_ch_tx) X(subs) X(emit) X(name) X(_dst) X(size)  \
    X(dst) X(_recycle) X(packets_delivered) X(bytes_delivered) X(routes)   \
    X(packets_received)
#define HOP_ENUM(n) K_##n,
#define HOP_TEXT(n) #n,
enum { HOP_NAMES(HOP_ENUM) N_HOP_NAMES };
static const char *const hop_text[] = {HOP_NAMES(HOP_TEXT)};
static PyObject *hop_str[N_HOP_NAMES];
#define S(n) hop_str[K_##n]
#define GET(d, key) PyDict_GetItemWithError(d, key) /* str keys: no error */

enum { T_LINK, T_ROUTER, T_SIM, T_DROPTAIL, N_HOP_TYPES };
static const int ENTRY_TYPE[] = {T_LINK, T_LINK, T_LINK, T_ROUTER, T_SIM};
#define N_ENTRIES 5
static PyObject *hop_own[N_ENTRIES]; /* the entry points as installed */
#define py_serve hop_own[K__serve]
#define py_deliver hop_own[K__deliver]
static PyTypeObject *hop_type[N_HOP_TYPES], *packet_type;
static unsigned int hop_tag[N_HOP_TYPES];
static int hop_tagged;
static Py_ssize_t off_size, off_dst; /* Packet slots */
static PyObject *py_send, *py_node_send, *py_release, *clean_refs, *one;
static PyObject *deque_append, *deque_popleft, *tx_kwnames, *star;

/* True while every entry point is the library's own.  Looked up again only
 * when a version tag moved: any class write moves one, including the
 * __slotnames__ copyreg caches on a class at its first pickle or
 * state_digest, so a moved tag re-checks and re-arms. */
static int
hop_armed(void)
{
    int i;
    for (i = 0; hop_tagged && i < N_HOP_TYPES; i++)
        hop_tagged = hop_type[i]->tp_version_tag == hop_tag[i];
    if (hop_tagged)
        return 1;
    for (i = 0; i < N_ENTRIES; i++)
        if (_PyType_Lookup(hop_type[ENTRY_TYPE[i]], hop_str[i]) != hop_own[i])
            return 0;
    for (hop_tagged = 1, i = 0; i < N_HOP_TYPES; i++)
        if ((hop_tag[i] = hop_type[i]->tp_version_tag) == 0)
            hop_tagged = 0; /* untagged: look up again next time */
    return 1;
}

/* obj's __dict__ if obj is exactly hop_type[type] and the hop is armed */
static PyObject *
dict_of(PyObject *obj, int type)
{
    PyObject **ptr = NULL;
    if (obj != NULL && Py_TYPE(obj) == hop_type[type] && hop_armed())
        ptr = _PyObject_GetDictPtr(obj);
    return ptr == NULL ? NULL : *ptr;
}

static PyObject *
get(PyObject *d, PyObject *key) /* borrowed; AttributeError if absent */
{
    PyObject *v = GET(d, key);
    if (v == NULL && !PyErr_Occurred())
        PyErr_SetObject(PyExc_AttributeError, key);
    return v;
}

static int
add(PyObject *d, PyObject *key, PyObject *delta) /* d[key] += delta */
{
    PyObject *v = get(d, key), *sum;
    int rc = -1;
    if (v != NULL && (sum = PyNumber_InPlaceAdd(v, delta)) != NULL) {
        rc = PyDict_SetItem(d, key, sum);
        Py_DECREF(sum);
    }
    return rc;
}

static PyObject *
field(PyObject *packet, Py_ssize_t off, PyObject *name) /* new reference */
{
    PyObject *v = Py_TYPE(packet) == packet_type ? EV_SLOT(packet, off) : NULL;
    return v != NULL ? Py_NewRef(v) : PyObject_GetAttr(packet, name);
}

static int
call_py(PyObject *func, PyObject *self, PyObject *arg) /* 0, or -1 */
{
    PyObject *argv[2] = {self, arg};
    PyObject *r = PyObject_Vectorcall(func, argv, arg ? 2 : 1, NULL);
    Py_XDECREF(r);
    return r == NULL ? -1 : 0;
}

static int
call_method(PyObject *obj, PyObject *name, PyObject *arg) /* truth, or -1 */
{
    PyObject *r = obj ? PyObject_CallMethodOneArg(obj, name, arg) : NULL;
    int truth = r == NULL ? -1 : PyObject_IsTrue(r);
    Py_XDECREF(r);
    return truth;
}

/* sim.schedule_abs(time, <link>.<func>[, packet]) */
static int
schedule(PyObject *core, PyObject *sim, PyObject *link, PyObject *func,
         double time, PyObject *packet)
{
    PyObject *fn = PyMethod_New(func, link), *event = NULL;
    PyObject *args = packet ? PyTuple_Pack(1, packet) : PyTuple_New(0);
    if (fn != NULL && args != NULL)
        event = schedule_abs_common((CoreObject *)core, time, NULL, fn, args,
                                    sim);
    Py_XDECREF(fn), Py_XDECREF(args), Py_XDECREF(event);
    return event == NULL ? -1 : 0;
}

/* Link._serve: put the head of the queue into the transmitter, book
 * its arrival and, while packets wait, the next service. */
static int
link_serve(PyObject *link)
{
    PyObject *d = dict_of(link, T_LINK), *queue, *qd = NULL, *items = NULL;
    PyObject *sim = NULL, *ch = NULL, *core = NULL, *head = NULL, *r;
    PyObject *done_obj = NULL;
    double now, free_at, size, delay, done;
    int rc = -1, t;
    if (d != NULL && (queue = GET(d, S(queue))) != NULL &&
        (qd = dict_of(queue, T_DROPTAIL)) != NULL &&
        (items = GET(qd, S(_items))) != NULL &&
        (sim = GET(d, S(_sim))) != NULL && Py_TYPE(sim) == hop_type[T_SIM] &&
        GET(d, S(reorder)) == Py_None && (ch = GET(d, S(_ch_tx))) != NULL &&
        ch != Py_None) /* not via __dict__: materialised, it slows sim.now */
        core = PyObject_GetAttr(sim, S(_core));
    if (core == NULL || Py_TYPE(core) != &CoreType) {
        PyErr_Clear();
        Py_XDECREF(core);
        return call_py(py_serve, link, NULL);
    }
    /* Held across link.tx subscribers, which may rebind what we read. */
    Py_INCREF(d), Py_INCREF(sim), Py_INCREF(items);
    now = ((CoreObject *)core)->now;
    free_at = PyFloat_AsDouble(get(d, S(_free_at)));
    if (PyErr_Occurred())
        goto out;
    if (now < free_at || PyObject_Length(items) == 0) {
        t = now < free_at; /* busy: serve when it frees up; else idle */
        done = free_at;
        goto book;
    }
    if (add(qd, S(dequeues), one) < 0 ||
        (head = PyObject_Vectorcall(deque_popleft, &items, 1, NULL)) == NULL)
        goto out;
    r = field(head, off_size, S(size));
    size = PyFloat_AsDouble(r);
    Py_XDECREF(r);
    /* Exactly ``now + size * 8.0 / bandwidth`` and ``done + delay``:
     * the digests pin every rounding. */
    done = now + size * 8.0 / PyFloat_AsDouble(get(d, S(bandwidth_bps)));
    if (PyErr_Occurred() || (done_obj = PyFloat_FromDouble(done)) == NULL ||
        PyDict_SetItem(d, S(_free_at), done_obj) < 0 ||
        (r = PyObject_GetAttr(ch, S(subs))) == NULL)
        goto out;
    t = PyObject_IsTrue(r);
    Py_DECREF(r);
    if (t > 0) { /* ch.emit(now, self.name, packet=head, done=done) */
        PyObject *argv[5] = {ch, PyFloat_FromDouble(now), get(d, S(name)),
                             head, done_obj};
        r = argv[1] && argv[2]
                ? PyObject_VectorcallMethod(S(emit), argv, 3, tx_kwnames)
                : NULL;
        Py_XDECREF(argv[1]);
        Py_XDECREF(r);
    }
    delay = PyErr_Occurred() ? 0.0 : PyFloat_AsDouble(get(d, S(delay)));
    if (PyErr_Occurred() ||
        schedule(core, sim, link, py_deliver, done + delay, head) < 0)
        goto out;
    t = PyObject_Length(items) > 0;
book: /* _serve_pending = t; while it holds, a service at `done` */
    if (PyDict_SetItem(d, S(_serve_pending), t ? Py_True : Py_False) == 0)
        rc = t ? schedule(core, sim, link, py_serve, done, NULL) : 0;
out:
    Py_XDECREF(head), Py_XDECREF(done_obj), Py_DECREF(items);
    Py_DECREF(core), Py_DECREF(sim), Py_DECREF(d);
    return rc;
}

/* Link.send: loss, then the queue (a DropTailQueue with room takes the
 * packet here), then service unless an event for it is pending. */
static int
link_send(PyObject *link, PyObject *packet)
{
    PyObject *d = dict_of(link, T_LINK), *queue, *qd, *items, *limit;
    int t = 0;
    if (d == NULL || GET(d, S(_down)) != Py_False ||
        GET(d, S(tamper)) != Py_None)
        return call_py(py_send, link, packet);
    Py_INCREF(d);
    if (GET(d, S(_loss_active)) == Py_True &&
        (t = call_method(get(d, S(_loss)), S(should_drop), packet)) > 0)
        t = call_method(link, S(_loss_dropped), packet) < 0 ? -1 : 1;
    if (t == 0) {
        queue = get(d, S(queue));
        qd = dict_of(queue, T_DROPTAIL);
        items = qd == NULL ? NULL : GET(qd, S(_items));
        limit = qd == NULL ? NULL : GET(qd, S(limit));
        if (items != NULL && limit != NULL && PyLong_CheckExact(limit) &&
            PyObject_Length(items) < PyLong_AsSsize_t(limit))
            t = call_py(deque_append, items, packet) < 0 ||
                add(qd, S(enqueues), one) < 0 ? -1 : 1;
        else /* any other queue, or an overflow enqueue drops and reports */
            t = call_method(queue, S(enqueue), packet);
        if (t > 0)
            t = GET(d, S(_serve_pending)) == Py_False ? link_serve(link) : 0;
    }
    Py_DECREF(d);
    return t < 0 ? -1 : 0;
}

/* node.routes.get(packet.dst) or routes.get("*"): a new reference, or
 * NULL (with an exception set only on error). */
static PyObject *
route(PyObject *node, PyObject *packet)
{
    PyObject *routes = PyObject_GetAttr(node, S(routes)), *dst = NULL;
    PyObject *link = NULL;
    if (routes != NULL && PyDict_CheckExact(routes) &&
        (dst = field(packet, off_dst, S(dst))) != NULL &&
        (link = GET(routes, dst)) == NULL && !PyErr_Occurred())
        link = GET(routes, star);
    Py_XINCREF(link);
    Py_XDECREF(dst), Py_XDECREF(routes);
    return link;
}

/* link.send(packet): natively while armed, else through the attribute,
 * where a class-level shim sees it. */
static int
forward(PyObject *link, PyObject *packet)
{
    if (Py_TYPE(link) == hop_type[T_LINK] && hop_armed())
        return link_send(link, packet);
    return call_method(link, S(send), packet) < 0 ? -1 : 0;
}

/* Link._deliver, with Router.receive inlined (a missing route raises
 * from Python).  This C frame holds one reference to the packet fewer
 * than the Python one: clean_refs is Link._DELIVERED_CLEAN_REFS - 1. */
static int
link_deliver(PyObject *link, PyObject *packet)
{
    PyObject *d = dict_of(link, T_LINK), *dst = d ? GET(d, S(_dst)) : NULL;
    PyObject *size, *rd, *next;
    int t;
    if (dst == NULL || dst == Py_None)
        return call_py(py_deliver, link, packet);
    Py_INCREF(d), Py_INCREF(dst);
    size = field(packet, off_size, S(size));
    t = size == NULL || add(d, S(packets_delivered), one) < 0 ||
        add(d, S(bytes_delivered), size) < 0 ? -1 : 0;
    Py_XDECREF(size);
    if (t == 0 && (rd = dict_of(dst, T_ROUTER)) != NULL &&
        (next = route(dst, packet)) != NULL) {
        t = add(rd, S(packets_received), one) < 0 ? -1 : forward(next, packet);
        Py_DECREF(next);
    } else if (t == 0) {
        t = PyErr_Occurred() ? -1 : call_method(dst, S(receive), packet);
    }
    if (t >= 0 && GET(d, S(_recycle)) == Py_True)
        t = call_py(py_release, packet, clean_refs);
    Py_DECREF(dst), Py_DECREF(d);
    return t < 0 ? -1 : 0;
}

static int
hop_event(PyObject *fn, PyObject *args) /* 0 / -1 if a hop ran, else 1 */
{
    PyObject *func = PyMethod_Check(fn) ? PyMethod_GET_FUNCTION(fn) : NULL;
    Py_ssize_t n = PyTuple_CheckExact(args) ? PyTuple_GET_SIZE(args) : -1;
    if (func != NULL && func == py_serve && n == 0)
        return link_serve(PyMethod_GET_SELF(fn));
    if (func != NULL && func == py_deliver && n == 1)
        return link_deliver(PyMethod_GET_SELF(fn), PyTuple_GET_ITEM(args, 0));
    return 1;
}

static PyObject *
hop_link_send(PyObject *link, PyObject *packet)
{
    return link_send(link, packet) < 0 ? NULL : Py_NewRef(Py_None);
}

static PyObject *
hop_node_send(PyObject *node, PyObject *packet)
{
    PyObject *link = hop_armed() ? route(node, packet) : NULL;
    int rc;
    if (link == NULL) /* shimmed, or no route: Node.send raises */
        rc = PyErr_Occurred() ? -1 : call_py(py_node_send, node, packet);
    else
        rc = forward(link, packet);
    Py_XDECREF(link);
    return rc < 0 ? NULL : Py_NewRef(Py_None);
}

static PyMethodDef hop_defs[] = {
    {"send", (PyCFunction)hop_link_send, METH_O,
     "send($self, packet, /)\n--\n\nLink.send, run by the compiled hop."},
    {"send", (PyCFunction)hop_node_send, METH_O,
     "send($self, packet, /)\n--\n\nNode.send, run by the compiled hop."},
};

/* install_hop(Link, Router, Simulator, DropTailQueue, Packet, Node,
 * then Link.send, Link._serve, Link._deliver, Router.receive,
 * Simulator.schedule_abs, Node.send, maybe_release, clean_refs,
 * deque.append, deque.popleft): arm the hop; returns the C descriptors
 * for Link.send and Node.send, which repro.net.node installs. */
static PyObject *
module_install_hop(PyObject *Py_UNUSED(module), PyObject *args)
{
    static PyObject *node_type;
    PyObject **slot[] = {
        (PyObject **)&hop_type[T_LINK], (PyObject **)&hop_type[T_ROUTER],
        (PyObject **)&hop_type[T_SIM], (PyObject **)&hop_type[T_DROPTAIL],
        (PyObject **)&packet_type, &node_type, &py_send, &hop_own[K__serve],
        &hop_own[K__deliver], &hop_own[K_receive], &hop_own[K_schedule_abs],
        &py_node_send, &py_release, &clean_refs, &deque_append, &deque_popleft};
    Py_ssize_t i, n = sizeof(slot) / sizeof(slot[0]);
    if (py_send != NULL || PyTuple_GET_SIZE(args) != n)
        return PyErr_Format(PyExc_TypeError,
                            "install_hop() runs once, with %zd arguments", n);
    for (i = 0; i < n; i++)
        if (i <= 5 && !PyType_Check(PyTuple_GET_ITEM(args, i)))
            return PyErr_Format(PyExc_TypeError,
                                "install_hop() argument %zd is not a class", i);
    for (i = 0; i < n; i++)
        *slot[i] = Py_NewRef(PyTuple_GET_ITEM(args, i));
    for (i = 0; i < N_HOP_NAMES; i++)
        if ((hop_str[i] = PyUnicode_InternFromString(hop_text[i])) == NULL)
            return NULL;
    one = PyLong_FromLong(1);
    star = PyUnicode_InternFromString("*");
    tx_kwnames = Py_BuildValue("(ss)", "packet", "done");
    hop_own[K_send] = PyDescr_NewMethod(hop_type[T_LINK], &hop_defs[0]);
    if (PyErr_Occurred() ||
        slot_offset((PyObject *)packet_type, "size", &off_size) < 0 ||
        slot_offset((PyObject *)packet_type, "dst", &off_dst) < 0)
        return NULL;
    return Py_BuildValue(
        "ON", hop_own[K_send],
        PyDescr_NewMethod((PyTypeObject *)node_type, &hop_defs[1]));
}

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
    for (i = 0; i < sizeof(names) / sizeof(names[0]); i++)
        if (slot_offset(arg, names[i], offsets[i]) < 0)
            return NULL;
    Py_INCREF(arg);
    Py_XSETREF(event_type, (PyTypeObject *)arg);
    Py_RETURN_NONE;
}

static PyMethodDef module_methods[] = {
    {"register_event_type", module_register_event_type, METH_O,
     "capture the Event class and its slot offsets (engine import hook)"},
    {"install_hop", module_install_hop, METH_VARARGS,
     "run Link/DropTailQueue/Router hops in C (repro.net.node import hook)"},
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
