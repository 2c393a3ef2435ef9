/* Compiled dispatch core for repro.sim.engine.Simulator.
 *
 * Design: events stay ordinary Python ``Event`` objects; this module
 * owns the heap array, the counters, the dispatch loop, a link hop
 * that reads and writes the Python objects' own __slots__ at fixed
 * offsets (see "the hop" below) and the trace channels' emit (see
 * "trace records").
 * That keeps every serialization surface (pickles, snapshot digests,
 * golden state) in Python and bit-identical across backends — a host
 * without a C compiler simply falls back to the pure-python code.
 *
 * The heap stores {time, serial, event, link, packet} structs and
 * orders on (time, serial) exactly like the pure backend's (time,
 * serial, event) tuples; serials are unique so the event itself is
 * never compared.  An entry the hop books (a lazy entry: link set,
 * packet NULL for Link._serve) takes its Event from the free list like
 * any other but leaves it unfilled; the loop runs the hop straight from
 * the entry.  entries() and the error path fill the Event with what the
 * eager path writes, after which it is an ordinary entry.
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
    PyObject *event;  /* strong */
    PyObject *link;   /* strong: a lazy entry's Link, else NULL */
    PyObject *packet; /* strong: its Link._deliver packet, else NULL */
} entry_t;

typedef struct {
    PyObject_HEAD
    double now;
    long long serial_next;
    long long events_processed;
    long long hop_events; /* lazy entries fired */
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
 * attribute lookups (the hop does the same with links, queues and
 * routers). */
static PyTypeObject *event_type;
static Py_ssize_t off_time, off_serial, off_fn, off_args;
static Py_ssize_t off_cancelled, off_fired, off_sim;

#define SLOT(obj, off) (*(PyObject **)((char *)(obj) + (off)))

/* Replace slot contents with an already-owned reference. */
static inline void
slot_set(PyObject *obj, Py_ssize_t off, PyObject *owned)
{
    PyObject *old = SLOT(obj, off);
    SLOT(obj, off) = owned;
    Py_XDECREF(old);
}

/* Whether an entry is cancelled; a lazy one never is. */
static inline int
is_cancelled(const entry_t *entry)
{
    PyObject *v = entry->link ? NULL : SLOT(entry->event, off_cancelled);
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

/* Push an entry (steals its references on success only). */
static int
heap_push(CoreObject *self, entry_t item)
{
    entry_t *heap;
    Py_ssize_t pos, parent;
    if (heap_reserve(self, self->heap_len + 1) < 0)
        return -1;
    heap = self->heap;
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

/* Sift item down from pos into heap[0:n]. */
static void
sift_down(entry_t *heap, Py_ssize_t n, Py_ssize_t pos, entry_t item)
{
    Py_ssize_t child;
    while ((child = 2 * pos + 1) < n) {
        if (child + 1 < n && entry_lt(&heap[child + 1], &heap[child]))
            child += 1;
        if (!entry_lt(&heap[child], &item))
            break;
        heap[pos] = heap[child];
        pos = child;
    }
    heap[pos] = item;
}

/* Pop the minimum entry into *out; caller owns its references. */
static void
heap_pop(CoreObject *self, entry_t *out)
{
    *out = self->heap[0];
    if (--self->heap_len > 0)
        sift_down(self->heap, self->heap_len, 0, self->heap[self->heap_len]);
}

static void
heapify(entry_t *heap, Py_ssize_t n)
{
    Py_ssize_t start;
    for (start = n / 2 - 1; start >= 0; start--)
        sift_down(heap, n, start, heap[start]);
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
        slot_set(event, off_fn, Py_None);
        Py_INCREF(Py_None);
        slot_set(event, off_args, Py_None);
        if (PyList_Append(self->free_list, event) < 0)
            PyErr_Clear();
    }
    Py_DECREF(event);
}

/* Drop cancelled entries from the heap top. */
static void
drop_cancelled_heads(CoreObject *self)
{
    while (self->heap_len > 0 && is_cancelled(&self->heap[0])) {
        entry_t top;
        heap_pop(self, &top);
        self->cancelled--;
        recycle_or_release(self, top.event);
    }
}

/* The Event for a new entry: the free list's last, or a new one (a new
 * reference, or NULL with an exception set). */
static PyObject *
take_event(CoreObject *self)
{
    PyObject *list = self->free_list, *event;
    Py_ssize_t n = list != NULL ? PyList_GET_SIZE(list) : 0;
    if (n == 0)
        return event_type->tp_alloc(event_type, 0);
    event = PyList_GET_ITEM(list, n - 1);
    Py_SET_SIZE(list, n - 1); /* the list's reference is now ours */
    return event;
}

/* Write all seven Event fields (values borrowed): 0, or -1.  A recycled
 * event holds stale values, a new one NULLs. */
static int
fill_event(PyObject *event, double time, long long serial, PyObject *fn,
           PyObject *args, PyObject *fired, PyObject *sim)
{
    PyObject *time_obj = PyFloat_FromDouble(time);
    PyObject *serial_obj = time_obj ? PyLong_FromLongLong(serial) : NULL;
    if (serial_obj == NULL) {
        Py_XDECREF(time_obj);
        return -1;
    }
    slot_set(event, off_time, time_obj);
    slot_set(event, off_serial, serial_obj);
    slot_set(event, off_fn, Py_NewRef(fn));
    slot_set(event, off_args, Py_NewRef(args));
    slot_set(event, off_cancelled, Py_NewRef(Py_False));
    slot_set(event, off_fired, Py_NewRef(fired));
    slot_set(event, off_sim, Py_NewRef(sim));
    return 0;
}

static int hop_event(PyObject *fn, PyObject *args); /* the hop, below */
static int hop_entry(entry_t *entry);

/* Fire one already-popped entry (we own its references).  Returns 0, or
 * -1 with the exception set and the event parked in current_event. */
static int
fire_event(CoreObject *self, entry_t *entry)
{
    PyObject *event = entry->event;
    PyObject *fn, *args, *result;
    int rc;
    self->now = entry->time;
    self->pending--;
    self->events_processed++;
    if (entry->link != NULL) {
        self->hop_events++;
        rc = hop_entry(entry);
    } else {
        slot_set(event, off_fired, Py_NewRef(Py_True));
        fn = Py_NewRef(SLOT(event, off_fn));
        args = Py_NewRef(SLOT(event, off_args));
        rc = hop_event(fn, args);
        if (rc > 0) {
            result = PyObject_Call(fn, args, NULL);
            rc = result == NULL ? -1 : 0;
            Py_XDECREF(result);
        }
        Py_DECREF(fn);
        Py_DECREF(args);
    }
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
    if (heap_push(self, (entry_t){time, serial, argv[2], NULL, NULL}) < 0)
        return NULL;
    Py_INCREF(argv[2]);
    self->pending++;
    Py_RETURN_NONE;
}

/* The scheduling fast path: mint the serial, take an Event, fill its
 * slots directly and push it.  Returns the event. */
static PyObject *
schedule_common(CoreObject *self, double time, PyObject *fn, PyObject *args,
                PyObject *sim)
{
    long long serial = self->serial_next++;
    PyObject *event = take_event(self);
    if (event == NULL)
        return NULL;
    if (fill_event(event, time, serial, fn, args, Py_False, sim) == 0 &&
        heap_push(self, (entry_t){time, serial, event, NULL, NULL}) == 0) {
        self->pending++;
        return Py_NewRef(event); /* the heap keeps ours */
    }
    Py_DECREF(event);
    return NULL;
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

/* Validate *time like the pure backend's schedule_abs: a time before now
 * raises repro.errors.SchedulingError with its message (time_arg is the
 * caller's object, or NULL for a time computed in C) unless it is within
 * NEGATIVE_DELAY_EPSILON (round-off), which clamps to now.  0, or -1. */
static int
clamp_time(CoreObject *self, double *time, PyObject *time_arg)
{
    PyObject *errors, *exc_type = NULL, *now_obj = NULL, *time_obj = NULL;
    if (!(*time < self->now - NEGATIVE_DELAY_EPSILON)) {
        if (*time < self->now)
            *time = self->now;
        return 0;
    }
    errors = PyImport_ImportModule("repro.errors");
    if (errors != NULL)
        exc_type = PyObject_GetAttrString(errors, "SchedulingError");
    if (exc_type != NULL)
        now_obj = PyFloat_FromDouble(self->now);
    if (now_obj != NULL)
        time_obj = time_arg ? Py_NewRef(time_arg) : PyFloat_FromDouble(*time);
    if (time_obj != NULL)
        PyErr_Format(exc_type,
                     "cannot schedule into the past (time=%S, now=%S)",
                     time_obj, now_obj);
    Py_XDECREF(time_obj);
    Py_XDECREF(now_obj);
    Py_XDECREF(exc_type);
    Py_XDECREF(errors);
    return -1;
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
    if ((time == -1.0 && PyErr_Occurred()) ||
        clamp_time(self, &time, argv[0]) < 0)
        return NULL;
    return schedule_common(self, time, argv[1], argv[2], argv[3]);
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
            if (is_cancelled(&heap[i])) {
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

static int materialise(entry_t *entry, PyObject *fired); /* the hop, below */

/* Every entry as a (time, serial, event) tuple, lazy ones filled. */
static PyObject *
Core_entries(CoreObject *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *list = PyList_New(self->heap_len);
    Py_ssize_t i;
    if (list == NULL)
        return NULL;
    for (i = 0; i < self->heap_len; i++) {
        PyObject *item = materialise(&self->heap[i], Py_False) < 0 ? NULL
                         : Py_BuildValue("(dLO)", self->heap[i].time,
                                         self->heap[i].serial,
                                         self->heap[i].event);
        if (item == NULL) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, item);
    }
    return list;
}

/* Drop every entry and zero the pending/cancelled counters. */
static void
drop_entries(CoreObject *self)
{
    Py_ssize_t i, n = self->heap_len;
    self->heap_len = self->pending = self->cancelled = 0;
    for (i = 0; i < n; i++) {
        Py_CLEAR(self->heap[i].event);
        Py_CLEAR(self->heap[i].link);
        Py_CLEAR(self->heap[i].packet);
    }
}

static PyObject *
Core_reset_heap(CoreObject *self, PyObject *Py_UNUSED(ignored))
{
    drop_entries(self);
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
    for (i = 0; i < self->heap_len; i++) {
        Py_VISIT(self->heap[i].event);
        Py_VISIT(self->heap[i].link);
        Py_VISIT(self->heap[i].packet);
    }
    Py_VISIT(self->free_list);
    Py_VISIT(self->current_event);
    return 0;
}

static int
Core_clear_refs(CoreObject *self)
{
    drop_entries(self);
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

/* now, serial_next, events_processed and stop_requested are also written
 * by Simulator: restore, end-of-run clock advance, request_stop and run. */
static PyMemberDef Core_members[] = {
    {"now", T_DOUBLE, offsetof(CoreObject, now), 0, "current simulation time"},
    {"pending", T_PYSSIZET, offsetof(CoreObject, pending), READONLY,
     "live pending events"},
    {"cancelled", T_PYSSIZET, offsetof(CoreObject, cancelled), READONLY,
     "lazily-deleted entries still in the heap"},
    {"events_processed", T_LONGLONG, offsetof(CoreObject, events_processed),
     0, "events fired so far"},
    {"hop_events", T_LONGLONG, offsetof(CoreObject, hop_events), READONLY,
     "lazy hop entries fired, each with no Event filled"},
    {"serial_next", T_LONGLONG, offsetof(CoreObject, serial_next), 0,
     "next schedule serial"},
    {"stop_requested", T_INT, offsetof(CoreObject, stop_requested), 0,
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
     "heap contents as (time, serial, event) tuples, array order; fills "
     "the Event of every lazy hop entry"},
    {"reset_heap", (PyCFunction)Core_reset_heap, METH_NOARGS,
     "drop every entry and zero the pending/cancelled counters"},
    {"take_current_event", (PyCFunction)Core_take_current_event, METH_NOARGS,
     "pop the event whose callback raised (error reporting)"},
    {NULL},
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

/* Installed by repro.net.node.  The hop runs on the Link, DropTailQueue,
 * RedQueue and Router __slots__ the Python methods use, at the offsets
 * install_hop captures, so pickles and digests see one layout on both
 * backends.  A step runs its Python original when it cannot run exactly
 * (a link down, tampered or reordering, a queue not exactly a
 * DropTailQueue or a RedQueue, an unbound link.tx channel, an overflow,
 * any RED arrival but an accept below min_th) and while an entry point
 * is not the library's own, so a class-level shim sees every call.
 * What the hop books is a lazy entry (link, packet); once Python sees one
 * its Event holds the bound Link._serve or _deliver the Python method
 * would have booked, so a callback's pickle and digest name its Python
 * function. */

#define HOP_NAMES(X) /* the entry points (ENTRY_NAME) first */             \
    X(send) X(_serve) X(_deliver) X(receive) X(schedule_abs) X(enqueue)    \
    X(dequeue) X(_core) X(should_drop) X(_loss_dropped) X(subs) X(emit)    \
    X(size) X(dst) X(routes)
#define HOP_ENUM(n) K_##n,
#define HOP_TEXT(n) #n,
enum { HOP_NAMES(HOP_ENUM) N_HOP_NAMES };
static const char *const hop_text[] = {HOP_NAMES(HOP_TEXT)};
static PyObject *hop_str[N_HOP_NAMES];
#define S(n) hop_str[K_##n]
#define GET(d, key) PyDict_GetItemWithError(d, key) /* str keys: no error */

enum { T_LINK, T_ROUTER, T_SIM, T_DROPTAIL, T_RED, N_HOP_TYPES };
/* The slots the hop reads and writes: (class, offset variable, name) for
 * a Link, a PacketQueue (read from DropTailQueue), a RedQueue and a Node
 * (read from Router). */
#define HOP_SLOTS(X)                                                        \
    X(T_LINK, L_sim, _sim) X(T_LINK, L_queue, queue) X(T_LINK, L_down, _down) \
    X(T_LINK, L_tamper, tamper) X(T_LINK, L_loss, _loss)                    \
    X(T_LINK, L_loss_active, _loss_active) X(T_LINK, L_dst, _dst)           \
    X(T_LINK, L_serve_pending, _serve_pending) X(T_LINK, L_name, name)      \
    X(T_LINK, L_free_at, _free_at) X(T_LINK, L_bandwidth, bandwidth_bps)    \
    X(T_LINK, L_delay, delay) X(T_LINK, L_reorder, reorder)                 \
    X(T_LINK, L_ch_tx, _ch_tx) X(T_LINK, L_recycle, _recycle)               \
    X(T_LINK, L_delivered, packets_delivered)                               \
    X(T_LINK, L_bytes, bytes_delivered) X(T_DROPTAIL, Q_items, _items)      \
    X(T_DROPTAIL, Q_limit, limit) X(T_DROPTAIL, Q_enqueues, enqueues)       \
    X(T_DROPTAIL, Q_dequeues, dequeues) X(T_RED, R_sim, _sim)               \
    X(T_RED, R_avg, avg) X(T_RED, R_w, _w) X(T_RED, R_min_th, _min_th)      \
    X(T_RED, R_mpt, _mean_pkt_time) X(T_RED, R_idle, _idle_since)           \
    X(T_RED, R_count, _count) X(T_ROUTER, N_routes, routes)                 \
    X(T_ROUTER, N_received, packets_received)
#define SLOT_DECL(type, off, name) static Py_ssize_t off;
#define SLOT_ROW(type, off, name) {type, #name, &off},
HOP_SLOTS(SLOT_DECL)

/* Entry point i is hop_type[ENTRY_TYPE[i]].<ENTRY_NAME[i]>.  Every hop
 * type has one, so re-arming looks something up on each, which is what
 * assigns a type its version tag: a type no lookup ever touched keeps
 * tag 0 and would send every hop through the lookups below. */
static const int ENTRY_TYPE[] = {T_LINK,     T_LINK,     T_LINK,
                                 T_ROUTER,   T_SIM,      T_DROPTAIL,
                                 T_DROPTAIL, T_RED,      T_RED};
static const int ENTRY_NAME[] = {K_send,    K__serve,       K__deliver,
                                 K_receive, K_schedule_abs, K_enqueue,
                                 K_dequeue, K_enqueue,      K_dequeue};
#define N_ENTRIES 9
static PyObject *hop_own[N_ENTRIES]; /* the entry points as installed */
#define py_serve hop_own[K__serve]
#define py_deliver hop_own[K__deliver]
static PyTypeObject *hop_type[N_HOP_TYPES], *packet_type, *host_type;
static PyTypeObject *channel_type; /* set by install_tracing */
static unsigned int hop_tag[N_HOP_TYPES];
static int hop_tagged;
static Py_ssize_t off_size, off_dst, off_subs; /* Packet, TraceChannel */
static PyObject *py_send, *py_node_send, *py_release, *clean_refs, *one;
static PyObject *minus_one, *deque_append, *deque_popleft, *tx_kwnames;
static PyObject *star;

/* True while every entry point is the library's own.  Looked up again only
 * when a version tag moved: any class write moves one (an attribute set
 * on or deleted from a class), so a moved tag re-checks and re-arms. */
static int
hop_armed(void)
{
    int i;
    for (i = 0; hop_tagged && i < N_HOP_TYPES; i++)
        hop_tagged = hop_type[i]->tp_version_tag == hop_tag[i];
    if (hop_tagged)
        return 1;
    for (i = 0; i < N_ENTRIES; i++)
        if (_PyType_Lookup(hop_type[ENTRY_TYPE[i]], hop_str[ENTRY_NAME[i]]) !=
            hop_own[i])
            return 0;
    for (hop_tagged = 1, i = 0; i < N_HOP_TYPES; i++)
        if ((hop_tag[i] = hop_type[i]->tp_version_tag) == 0)
            hop_tagged = 0; /* untagged: look up again next time */
    return 1;
}

/* obj is exactly hop_type[type], whose slots the hop reads, and armed */
static int
is_hop(PyObject *obj, int type)
{
    return obj != NULL && Py_TYPE(obj) == hop_type[type] && hop_armed();
}

static PyObject *
read_slot(PyObject *obj, Py_ssize_t off) /* borrowed; AttributeError if unset */
{
    PyObject *v = SLOT(obj, off);
    if (v == NULL)
        PyErr_Format(PyExc_AttributeError, "unset slot in %s object",
                     Py_TYPE(obj)->tp_name);
    return v;
}

static int
slot_add(PyObject *obj, Py_ssize_t off, PyObject *delta) /* slot += delta */
{
    PyObject *v = read_slot(obj, off);
    PyObject *sum = v == NULL ? NULL : PyNumber_InPlaceAdd(v, delta);
    if (sum != NULL)
        slot_set(obj, off, sum);
    return sum == NULL ? -1 : 0;
}

static int
slot_float(PyObject *obj, Py_ssize_t off, double value) /* slot = value */
{
    PyObject *v = PyFloat_FromDouble(value);
    if (v != NULL)
        slot_set(obj, off, v);
    return v == NULL ? -1 : 0;
}

static PyObject *
field(PyObject *packet, Py_ssize_t off, PyObject *name) /* new reference */
{
    PyObject *v = Py_TYPE(packet) == packet_type ? SLOT(packet, off) : NULL;
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

/* sim.schedule_abs(time, link._deliver, packet), or link._serve for a
 * NULL packet, booked as a lazy entry. */
static int
schedule(PyObject *core, PyObject *link, double time, PyObject *packet)
{
    CoreObject *self = (CoreObject *)core;
    PyObject *event = NULL;
    if (clamp_time(self, &time, NULL) == 0 &&
        (event = take_event(self)) != NULL &&
        heap_push(self, (entry_t){time, self->serial_next, event, link,
                                  packet}) == 0) {
        Py_INCREF(link), Py_XINCREF(packet);
        self->serial_next++, self->pending++;
        return 0;
    }
    Py_XDECREF(event);
    return -1;
}

/* Fill a lazy entry's Event as sim.schedule_abs would have, _fired set to
 * fired, and make it an ordinary entry: 0, or -1. */
static int
materialise(entry_t *entry, PyObject *fired)
{
    PyObject *link = entry->link, *fn, *args, *sim;
    int rc;
    if (link == NULL)
        return 0;
    fn = PyMethod_New(entry->packet ? py_deliver : py_serve, link);
    args = entry->packet ? PyTuple_Pack(1, entry->packet) : PyTuple_New(0);
    sim = SLOT(link, L_sim) != NULL ? SLOT(link, L_sim) : Py_None;
    rc = fn && args ? fill_event(entry->event, entry->time, entry->serial, fn,
                                 args, fired, sim)
                    : -1;
    Py_XDECREF(fn), Py_XDECREF(args);
    if (rc == 0) {
        Py_CLEAR(entry->link);
        Py_CLEAR(entry->packet);
    }
    return rc;
}

/* sim's Core if sim is exactly a Simulator on the compiled core: a new
 * reference, or NULL with no exception set.  Not read via sim's __dict__:
 * materialised, it slows sim.now. */
static PyObject *
core_of(PyObject *sim)
{
    PyObject *core = NULL;
    if (sim != NULL && Py_TYPE(sim) == hop_type[T_SIM])
        core = PyObject_GetAttr(sim, S(_core));
    if (core != NULL && Py_TYPE(core) == &CoreType)
        return core;
    PyErr_Clear();
    Py_XDECREF(core);
    return NULL;
}

/* Whether the hop runs queue, the link's: exactly a DropTailQueue, or
 * exactly a RedQueue (*red set) whose clock is the link's. */
static int
hop_queue(PyObject *queue, PyObject *link, int *red)
{
    *red = queue != NULL && Py_TYPE(queue) == hop_type[T_RED];
    return is_hop(queue, *red ? T_RED : T_DROPTAIL) &&
           (!*red || SLOT(queue, R_sim) == SLOT(link, L_sim));
}

static int
is_float(PyObject *v)
{
    return v != NULL && PyFloat_CheckExact(v);
}

/* RedQueue.enqueue's _update_average and ``_count = -1`` for an arrival
 * at a queue of q < limit packets, when the new average is below min_th
 * (so below the forced threshold, which RedParams.validate puts above
 * it): the rest of the step is the append.  A twin of red.py's
 * _update_average, operation for operation (tests/net/test_red_ewma_twin.py
 * pins it float for float; the build turns FMA contraction off).  It
 * decides before it writes: 0 leaves the whole step to Python with
 * nothing written (the ramp, a forced drop, non-float state), 1 if it
 * ran, -1 on error. */
static int
red_average(PyObject *queue, Py_ssize_t q)
{
    PyObject *avg = SLOT(queue, R_avg), *w = SLOT(queue, R_w);
    PyObject *min_th = SLOT(queue, R_min_th), *mpt = SLOT(queue, R_mpt);
    PyObject *idle = SLOT(queue, R_idle), *core = core_of(SLOT(queue, R_sim));
    double a, b, m, now;
    int rc = 0;
    if (core == NULL || !is_float(avg) || !is_float(w) || !is_float(min_th) ||
        !is_float(mpt) || (idle != Py_None && !is_float(idle)))
        goto out;
    now = ((CoreObject *)core)->now;
    a = PyFloat_AS_DOUBLE(avg);
    b = 1 - PyFloat_AS_DOUBLE(w);
    if (q > 0 || idle == Py_None) {
        a = b * a + PyFloat_AS_DOUBLE(w) * (double)q;
    } else { /* float ** int is libm pow on the converted exponent */
        m = trunc((now - PyFloat_AS_DOUBLE(idle)) / PyFloat_AS_DOUBLE(mpt));
        if (!(m >= 0 && isfinite(m))) /* int() or ** would raise */
            goto out;
        a *= pow(b, m);
        a = b * a;
    }
    if (a < PyFloat_AS_DOUBLE(min_th)) {
        rc = slot_float(queue, R_avg, a) < 0 ||
                     (q == 0 && slot_float(queue, R_idle, now) < 0) ? -1 : 1;
        if (q > 0)
            slot_set(queue, R_idle, Py_NewRef(Py_None));
        slot_set(queue, R_count, Py_NewRef(minus_one));
    }
out:
    Py_XDECREF(core);
    return rc;
}

/* Link._serve: put the head of the queue into the transmitter, book
 * its arrival and, while packets wait, the next service. */
static int
link_serve(PyObject *link)
{
    PyObject *queue = NULL, *items = NULL, *sim = NULL, *ch = NULL;
    PyObject *core = NULL, *head = NULL, *done_obj = NULL, *r;
    double now, free_at, size, delay, done;
    int rc = -1, t, red;
    if (is_hop(link, T_LINK) &&
        hop_queue(queue = SLOT(link, L_queue), link, &red) &&
        (items = SLOT(queue, Q_items)) != NULL &&
        SLOT(link, L_reorder) == Py_None &&
        (ch = SLOT(link, L_ch_tx)) != NULL && ch != Py_None)
        core = core_of(sim = SLOT(link, L_sim));
    if (core == NULL)
        return call_py(py_serve, link, NULL);
    /* Held across link.tx subscribers, which may rebind what we read. */
    Py_INCREF(sim), Py_INCREF(items);
    now = ((CoreObject *)core)->now;
    free_at = PyFloat_AsDouble(SLOT(link, L_free_at));
    if (PyErr_Occurred())
        goto out;
    if (now < free_at || PyObject_Length(items) == 0) {
        t = now < free_at; /* busy: serve when it frees up; else idle */
        if (!t && red) { /* RedQueue.dequeue of an empty queue: Python's */
            rc = call_py(py_serve, link, NULL);
            goto out;
        }
        done = free_at;
        goto book;
    }
    if (slot_add(queue, Q_dequeues, one) < 0 ||
        (head = PyObject_Vectorcall(deque_popleft, &items, 1, NULL)) == NULL ||
        (red && PyObject_Length(items) == 0 && /* RedQueue.dequeue */
         slot_float(queue, R_idle, now) < 0))
        goto out;
    r = field(head, off_size, S(size));
    size = PyFloat_AsDouble(r);
    Py_XDECREF(r);
    /* Exactly ``now + size * 8.0 / bandwidth`` and ``done + delay``:
     * the digests pin every rounding. */
    done = now + size * 8.0 / PyFloat_AsDouble(SLOT(link, L_bandwidth));
    if (PyErr_Occurred() || (done_obj = PyFloat_FromDouble(done)) == NULL)
        goto out;
    slot_set(link, L_free_at, Py_NewRef(done_obj));
    r = Py_TYPE(ch) == channel_type && SLOT(ch, off_subs) != NULL
            ? Py_NewRef(SLOT(ch, off_subs))
            : PyObject_GetAttr(ch, S(subs));
    if ((t = r == NULL ? -1 : PyObject_IsTrue(r)) > 0) {
        /* ch.emit(now, self.name, packet=head, done=done) */
        PyObject *argv[5] = {ch, PyFloat_FromDouble(now),
                             read_slot(link, L_name), head, done_obj};
        Py_XDECREF(r);
        r = argv[1] && argv[2]
                ? PyObject_VectorcallMethod(S(emit), argv, 3, tx_kwnames)
                : NULL;
        Py_XDECREF(argv[1]);
    }
    Py_XDECREF(r);
    delay = PyErr_Occurred() ? 0.0 : PyFloat_AsDouble(SLOT(link, L_delay));
    if (PyErr_Occurred() || schedule(core, link, done + delay, head) < 0)
        goto out;
    t = PyObject_Length(items) > 0;
book: /* _serve_pending = t; while it holds, a service at `done` */
    slot_set(link, L_serve_pending, Py_NewRef(t ? Py_True : Py_False));
    rc = t ? schedule(core, link, done, NULL) : 0;
out:
    Py_XDECREF(head), Py_XDECREF(done_obj), Py_DECREF(items);
    Py_DECREF(core), Py_DECREF(sim);
    return rc;
}

/* Link.send: loss, then the queue (a DropTailQueue with room, or a
 * RedQueue with room that accepts below min_th, takes the packet here),
 * then service unless an event for it is pending. */
static int
link_send(PyObject *link, PyObject *packet)
{
    PyObject *queue, *items, *limit;
    Py_ssize_t q;
    int t = 0, red;
    if (!is_hop(link, T_LINK) || SLOT(link, L_down) != Py_False ||
        SLOT(link, L_tamper) != Py_None)
        return call_py(py_send, link, packet);
    if (SLOT(link, L_loss_active) == Py_True &&
        (t = call_method(read_slot(link, L_loss), S(should_drop), packet)) > 0)
        t = call_method(link, S(_loss_dropped), packet) < 0 ? -1 : 1;
    if (t == 0) {
        queue = read_slot(link, L_queue);
        t = hop_queue(queue, link, &red);
        items = t ? SLOT(queue, Q_items) : NULL;
        limit = t ? SLOT(queue, Q_limit) : NULL;
        q = items == NULL ? -1 : PyObject_Length(items);
        if (q >= 0 && limit != NULL && PyLong_CheckExact(limit) &&
            q < PyLong_AsSsize_t(limit) &&
            (t = red ? red_average(queue, q) : 1) > 0)
            t = call_py(deque_append, items, packet) < 0 ||
                slot_add(queue, Q_enqueues, one) < 0 ? -1 : 1;
        else if (t >= 0) /* the queue's own enqueue decides and reports */
            t = call_method(queue, S(enqueue), packet);
        if (t > 0)
            t = SLOT(link, L_serve_pending) == Py_False ? link_serve(link) : 0;
    }
    return t < 0 ? -1 : 0;
}

/* node.routes.get(packet.dst) or routes.get("*"): a new reference, or
 * NULL (with an exception set only on error).  A Router's or a Host's
 * table is read at its slot. */
static PyObject *
route(PyObject *node, PyObject *packet)
{
    PyObject *routes, *dst = NULL, *link = NULL;
    if (Py_TYPE(node) == hop_type[T_ROUTER] || Py_TYPE(node) == host_type)
        routes = Py_XNewRef(SLOT(node, N_routes));
    else
        routes = PyObject_GetAttr(node, S(routes));
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
    if (is_hop(link, T_LINK))
        return link_send(link, packet);
    return call_method(link, S(send), packet) < 0 ? -1 : 0;
}

/* Link._deliver, with Router.receive inlined (a missing route raises
 * from Python).  This C frame holds one reference to the packet fewer
 * than the Python one: clean_refs is Link._DELIVERED_CLEAN_REFS - 1. */
static int
link_deliver(PyObject *link, PyObject *packet)
{
    PyObject *dst = is_hop(link, T_LINK) ? SLOT(link, L_dst) : NULL;
    PyObject *size, *next;
    int t;
    if (dst == NULL || dst == Py_None)
        return call_py(py_deliver, link, packet);
    Py_INCREF(dst);
    size = field(packet, off_size, S(size));
    t = size == NULL || slot_add(link, L_delivered, one) < 0 ||
        slot_add(link, L_bytes, size) < 0 ? -1 : 0;
    Py_XDECREF(size);
    if (t == 0 && is_hop(dst, T_ROUTER) && (next = route(dst, packet)) != NULL) {
        t = slot_add(dst, N_received, one) < 0 ? -1 : forward(next, packet);
        Py_DECREF(next);
    } else if (t == 0) {
        t = PyErr_Occurred() ? -1 : call_method(dst, S(receive), packet);
    }
    if (t >= 0 && SLOT(link, L_recycle) == Py_True)
        t = call_py(py_release, packet, clean_refs);
    Py_DECREF(dst);
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

/* Run a lazy entry popped from the heap and drop its link and packet; on
 * an error its Event is filled, fired, for Simulator's report. */
static int
hop_entry(entry_t *entry)
{
    PyObject *type, *value, *tb;
    int rc = entry->packet ? link_deliver(entry->link, entry->packet)
                           : link_serve(entry->link);
    if (rc < 0) {
        PyErr_Fetch(&type, &value, &tb);
        if (materialise(entry, Py_True) < 0)
            PyErr_Clear();
        PyErr_Restore(type, value, tb);
    }
    Py_CLEAR(entry->link);
    Py_CLEAR(entry->packet);
    return rc;
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

/* install_hop(Link, Router, Simulator, DropTailQueue, RedQueue, Packet,
 * Node, Host, then the entry points Link.send, Link._serve, Link._deliver,
 * Router.receive, Simulator.schedule_abs, DropTailQueue.enqueue,
 * DropTailQueue.dequeue, RedQueue.enqueue, RedQueue.dequeue, then
 * Node.send, maybe_release, clean_refs, deque.append, deque.popleft): arm
 * the hop; returns the C descriptors for Link.send and Node.send, which
 * repro.net.node installs.  Raises if a class lacks a slot the hop uses. */
static PyObject *
module_install_hop(PyObject *Py_UNUSED(module), PyObject *args)
{
    static PyObject *node_type;
    static const struct { int type; const char *name; Py_ssize_t *off; }
        slots[] = {HOP_SLOTS(SLOT_ROW)};
    PyObject **slot[] = {
        (PyObject **)&hop_type[T_LINK], (PyObject **)&hop_type[T_ROUTER],
        (PyObject **)&hop_type[T_SIM], (PyObject **)&hop_type[T_DROPTAIL],
        (PyObject **)&hop_type[T_RED], (PyObject **)&packet_type, &node_type,
        (PyObject **)&host_type, &py_send, &hop_own[1], &hop_own[2],
        &hop_own[3], &hop_own[4], &hop_own[5], &hop_own[6], &hop_own[7],
        &hop_own[8], &py_node_send, &py_release, &clean_refs, &deque_append,
        &deque_popleft};
    Py_ssize_t i, n = sizeof(slot) / sizeof(slot[0]);
    if (py_send != NULL || PyTuple_GET_SIZE(args) != n)
        return PyErr_Format(PyExc_TypeError,
                            "install_hop() runs once, with %zd arguments", n);
    for (i = 0; i < n; i++)
        if (i <= 7 && !PyType_Check(PyTuple_GET_ITEM(args, i)))
            return PyErr_Format(PyExc_TypeError,
                                "install_hop() argument %zd is not a class", i);
    for (i = 0; i < n; i++)
        *slot[i] = Py_NewRef(PyTuple_GET_ITEM(args, i));
    for (i = 0; i < N_HOP_NAMES; i++)
        if ((hop_str[i] = PyUnicode_InternFromString(hop_text[i])) == NULL)
            return NULL;
    for (i = 0; i < (Py_ssize_t)(sizeof(slots) / sizeof(slots[0])); i++)
        if (slot_offset((PyObject *)hop_type[slots[i].type], slots[i].name,
                        slots[i].off) < 0)
            return NULL;
    one = PyLong_FromLong(1);
    minus_one = PyLong_FromLong(-1);
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

/* ------------------------------------------------------------------ */
/* trace records: TraceChannel.emit                                    */
/* ------------------------------------------------------------------ */

/* Installed by repro.sim.tracing.  The record is built with one tuple
 * allocation and each subscriber is called from here, so a record costs
 * no emit frame and no TraceRecord.__new__ frame, only its subscribers'.
 * A call the Python method would bind differently (other than two
 * positional arguments, or a keyword naming a parameter), a subclass, an
 * unset slot and subscribers that are not a list run the Python
 * original, which binds, iterates or raises. */
static PyTypeObject *record_type;
static PyObject *py_channel_emit;
static Py_ssize_t off_category;

/* Whether a keyword binds one of emit's own parameters. */
static int
binds_parameter(PyObject *kwnames)
{
    static const char *const params[] = {"self", "time", "source"};
    Py_ssize_t i, n = kwnames == NULL ? 0 : PyTuple_GET_SIZE(kwnames);
    size_t j;
    for (i = 0; i < n; i++)
        for (j = 0; j < sizeof(params) / sizeof(params[0]); j++)
            if (PyUnicode_CompareWithASCIIString(PyTuple_GET_ITEM(kwnames, i),
                                                 params[j]) == 0)
                return 1;
    return 0;
}

/* py_channel_emit(self, *args, **kwargs), the arguments as received */
static PyObject *
channel_emit_py(PyObject *self, PyObject *const *args, Py_ssize_t nargs,
                PyObject *kwnames)
{
    Py_ssize_t n = nargs + (kwnames == NULL ? 0 : PyTuple_GET_SIZE(kwnames));
    PyObject **argv = PyMem_Malloc((size_t)(n + 1) * sizeof(PyObject *)), *r;
    if (argv == NULL)
        return PyErr_NoMemory();
    argv[0] = self;
    memcpy(argv + 1, args, (size_t)n * sizeof(PyObject *));
    r = PyObject_Vectorcall(py_channel_emit, argv, nargs + 1, kwnames);
    PyMem_Free(argv);
    return r;
}

/* TraceChannel.emit(self, time, source, **fields): when subs is not
 * empty, TraceRecord(time, self.category, source, fields) to each of
 * subs in order, as ``for fn in subs: fn(record)``. */
static PyObject *
channel_emit(PyObject *self, PyObject *const *args, Py_ssize_t nargs,
             PyObject *kwnames)
{
    PyObject *subs = NULL, *category = NULL, *fields, *record, *fn, *r;
    PyObject *argv[2];
    Py_ssize_t i, n = kwnames == NULL ? 0 : PyTuple_GET_SIZE(kwnames);
    int rc = 0;
    if (Py_TYPE(self) == channel_type && nargs == 2 &&
        !binds_parameter(kwnames)) {
        subs = SLOT(self, off_subs);
        category = SLOT(self, off_category);
    }
    if (subs == NULL || category == NULL || !PyList_CheckExact(subs))
        return channel_emit_py(self, args, nargs, kwnames);
    if (PyList_GET_SIZE(subs) == 0)
        Py_RETURN_NONE;
    /* Held: a subscriber (or a finalizer run by an allocation below) may
     * rebind the channel's slots. */
    Py_INCREF(subs), Py_INCREF(category);
    fields = PyDict_New();
    for (i = 0; fields != NULL && rc == 0 && i < n; i++)
        rc = PyDict_SetItem(fields, PyTuple_GET_ITEM(kwnames, i), args[2 + i]);
    record = fields != NULL && rc == 0 ? record_type->tp_alloc(record_type, 4)
                                       : NULL;
    if (record == NULL) {
        Py_XDECREF(fields), Py_DECREF(category), Py_DECREF(subs);
        return NULL;
    }
    PyTuple_SET_ITEM(record, 0, Py_NewRef(args[0]));
    PyTuple_SET_ITEM(record, 1, category);
    PyTuple_SET_ITEM(record, 2, Py_NewRef(args[1]));
    PyTuple_SET_ITEM(record, 3, fields);
    argv[1] = record;
    for (i = 0; rc == 0 && i < PyList_GET_SIZE(subs); i++) {
        fn = Py_NewRef(PyList_GET_ITEM(subs, i));
        r = PyObject_Vectorcall(fn, argv + 1, 1 | PY_VECTORCALL_ARGUMENTS_OFFSET,
                                NULL);
        rc = r == NULL ? -1 : 0;
        Py_XDECREF(r), Py_DECREF(fn);
    }
    Py_DECREF(subs), Py_DECREF(record);
    return rc < 0 ? NULL : Py_NewRef(Py_None);
}

static PyMethodDef channel_emit_def = {
    "emit", (PyCFunction)(void (*)(void))channel_emit,
    METH_FASTCALL | METH_KEYWORDS,
    "emit($self, time, source, /, **fields)\n--\n\n"
    "TraceChannel.emit, run by the compiled core."};

/* install_tracing(TraceRecord, TraceChannel, TraceChannel.emit): returns
 * the C descriptor for TraceChannel.emit, which repro.sim.tracing
 * installs.  TraceRecord must be a tuple subclass with no other storage
 * (a NamedTuple), which channel_emit fills in place. */
static PyObject *
module_install_tracing(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyTypeObject *record, *channel;
    PyObject *emit;
    if (!PyArg_ParseTuple(args, "O!O!O:install_tracing", &PyType_Type, &record,
                          &PyType_Type, &channel, &emit))
        return NULL;
    if (!PyType_IsSubtype(record, &PyTuple_Type) ||
        record->tp_basicsize != PyTuple_Type.tp_basicsize ||
        record->tp_dictoffset != 0)
        return PyErr_Format(PyExc_TypeError,
                            "install_tracing(): %s is not a plain tuple type",
                            record->tp_name);
    if (slot_offset((PyObject *)channel, "category", &off_category) < 0 ||
        slot_offset((PyObject *)channel, "subs", &off_subs) < 0)
        return NULL;
    Py_XSETREF(record_type, (PyTypeObject *)Py_NewRef(record));
    Py_XSETREF(channel_type, (PyTypeObject *)Py_NewRef(channel));
    Py_XSETREF(py_channel_emit, Py_NewRef(emit));
    return PyDescr_NewMethod(channel, &channel_emit_def);
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
     "run Link/queue/Router hops in C (repro.net.node import hook)"},
    {"install_tracing", module_install_tracing, METH_VARARGS,
     "build and fan out trace records in C (repro.sim.tracing import hook)"},
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
