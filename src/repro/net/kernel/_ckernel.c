/* Compiled kernel: two compiled paths in one CPython extension.
 *
 *  1. The packet engine's enqueue/serialize/dispatch hot path, selected
 *     by REPRO_KERNEL (repro.net.kernel.engine_classes). Most of this file.
 *  2. The factorization walk (random_perfect_matching, near the end): an
 *     exact twin of repro.core.matchings._random_perfect_matching, which
 *     random_factorization runs for every Opera and RotorNet topology
 *     draw. It consumes the generator exactly as the Python walk does, so
 *     topologies are the same whichever walk runs; its section states the
 *     contract. REPRO_KERNEL does not select it.
 *
 * setup.py compiles in CKERNEL_SOURCE_SHA256, the sha256 of this file,
 * exported as SOURCE_SHA256. repro.net.kernel refuses a module whose hash
 * differs from the _ckernel.c beside it (or that has none): REPRO_KERNEL=c
 * raises, anything else falls back to Python with a one-time warning.
 * After editing this file, rebuild: python setup.py build_ext --inplace.
 *
 * Engine design: ONE data layout, TWO method implementations — with one
 * exception, the event heap. Every function reads and writes the
 * existing `__slots__` of the pure-Python engine classes (Simulator /
 * Port / Packet / Host / SwitchNode / PortStats) through member-
 * descriptor offsets captured at init time. The pure-Python engine
 * therefore remains the differential oracle: a REPRO_KERNEL=c run must
 * be bit-identical to =py in every observable.
 *
 * The event heap: a compiled simulator (CKSimulator) keeps an EventHeap,
 * defined below, in its `_heap` slot instead of the oracle's list of
 * (time_ps, seq, callback, args) tuples.
 * It is a binary heap of {int64 time, int64 seq, callback, args} structs
 * and owns the sequence counter, so a push allocates no tuple and no int
 * and a sift step compares two machine words. A native sampling profile
 * of the fig07 Clos cell put 35% of engine time in unboxing the heap
 * tuples' ints (PyLong_AsLongLong) and 11% in the sift itself. Order is
 * the total order on (time, seq) — keys are unique, so any correct heap
 * dispatches exactly as heapq does. What stays shared with the oracle:
 * every other slot (clock, counters, ports, packets), the callbacks and
 * their args tuples. Python code that schedules onto a compiled simulator
 * goes through sim.at / sim.after, never through heapq.
 *
 * Every function guards its fast path with *exact* type checks against
 * the CK* classes registered by kernel/engine.py and delegates anything
 * else — simulators without an EventHeap (a plain Simulator),
 * non-integral line rates, subclasses, test doubles — to the
 * stored pure-Python implementation, so semantics can never diverge on
 * paths the C code does not model.
 *
 * Limits: timestamps, sequence numbers and the other ints the kernel
 * reads must fit in int64 (9.2e18 ps is ~107 days of simulated time);
 * beyond that, and on any int64 overflow of time arithmetic, the kernel
 * raises OverflowError suggesting REPRO_KERNEL=py.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

/* ------------------------------------------------------------------ state */

typedef struct {
    Py_ssize_t now, heap, events_processed;
} SimOffsets;

typedef struct {
    Py_ssize_t sim, resolver, propagation_ps, data_queue_bytes,
        control_queue_bytes, bulk_queue_bytes, trimming, on_undeliverable,
        on_bulk_drop, stats, q_control, q_data, q_bulk, bytes_control,
        bytes_data, bytes_bulk, busy_until, kick_pending, ps_per_byte,
        target, committed_control, deliver, kick_cb, undeliv_cb;
} PortOffsets;

typedef struct {
    Py_ssize_t flow_id, kind, src_host, dst_host, seq, size_bytes, priority,
        slice_stamp, salt, hops, next_rack, relay_to, enqueued_ps, recv_args,
        pooled;
} PacketOffsets;

typedef struct {
    Py_ssize_t record, priority, mtu, n_packets, next_new, rtx, acked,
        pulls_banked, send;
} SourceOffsets;

typedef struct {
    Py_ssize_t sim, record, pacer, stats, source, received, pull_seq, send;
} SinkOffsets;

typedef struct {
    Py_ssize_t sim, interval_ps, tokens, running, tick_cb;
} PacerOffsets;

typedef struct {
    Py_ssize_t sources, sinks, dropped;
} HostOffsets;

typedef struct {
    Py_ssize_t drops;
} SwitchOffsets;

typedef struct {
    Py_ssize_t sent_packets, sent_bytes, trimmed, dropped_control,
        dropped_bulk;
} StatsOffsets;

static SimOffsets S;
static PortOffsets P;
static PacketOffsets K;
static HostOffsets H;
static SwitchOffsets W;
static StatsOffsets ST;
static SourceOffsets NS;
static SinkOffsets NK;
static PacerOffsets PP;

/* Sentinels / enum members / shared objects (all owned references). */
static PyObject *g_lazy;         /* link._LAZY */
static PyObject *g_consumed;     /* node.CONSUMED */
static PyObject *g_prio_control, *g_prio_low, *g_prio_bulk;
static PyObject *g_kind_data, *g_kind_header;
static PyObject *g_kind_ack, *g_kind_nack, *g_kind_pull;
static PyObject *g_ack_val, *g_nack_val, *g_pull_val; /* kind.value ints */
static PyObject *g_src_salt; /* 0x9E3779B9: NdpSource._emit salt constant */
static PyObject *g_zero, *g_one;
static long long g_header_ll; /* HEADER_BYTES as C int */
static PyObject *g_pool;         /* packet._POOL (the module-global list) */
static long g_pool_max;
static long long g_max_hops;
static PyObject *g_header_bytes; /* packet.HEADER_BYTES int object */
static PyObject *g_empty;        /* () */

/* Pure-Python fallbacks (unbound functions). */
static PyObject *g_py_sim_at, *g_py_sim_after, *g_py_sim_run,
    *g_py_past_error,
    *g_py_port_enqueue, *g_py_port_kick,
    *g_py_host_receive, *g_py_acquire, *g_py_src_on_packet,
    *g_py_sink_on_packet, *g_py_emit_pull, *g_py_pacer_tick;

/* Base classes (for offset validity) and exact CK classes (fast path). */
static PyTypeObject *t_sim, *t_port, *t_packet, *t_host, *t_switch;
static PyTypeObject *t_cksim, *t_ckport, *t_ckhost, *t_ckswitch;
static PyTypeObject *t_src, *t_sink, *t_pacer;
static PyTypeObject *t_cksrc, *t_cksink, *t_ckpacer;

/* The PyCFunction behind the exported `enqueue` instancemethod — lets the
 * NDP send path recognise `ckport.enqueue` bound methods and call the C
 * implementation without going through the method object. */
static PyObject *g_cf_enqueue;

/* Interned method-name strings. */
static PyObject *s_receive_cb, *s_receive, *s_popleft, *s_append,
    *s_on_packet, *s_enqueue, *s_add, *s_after, *s_request, *s_emit_pull,
    *s_finished, *s_payload_bytes, *s_delivered, *s_now, *s_flow_id,
    *s_src_host, *s_dst_host, *s_size_bytes, *s_end_ps, *s_retransmissions,
    *s_value;

static int g_ready = 0; /* init() completed */

#define SLOT(o, off) (*(PyObject **)((char *)(o) + (off)))

/* ---------------------------------------------------------------- helpers */

static inline PyObject *
slot_get(PyObject *o, Py_ssize_t off, const char *name)
{
    PyObject *v = SLOT(o, off);
    if (v == NULL)
        PyErr_Format(PyExc_AttributeError, "slot %.100s is unset", name);
    return v;
}

/* Store v (borrowed) into a slot; increfs v, drops the old value. */
static inline void
slot_set(PyObject *o, Py_ssize_t off, PyObject *v)
{
    PyObject *old = SLOT(o, off);
    Py_INCREF(v);
    SLOT(o, off) = v;
    Py_XDECREF(old);
}

/* The one OverflowError the kernel raises for ints beyond int64. */
static void
raise_int64_overflow(void)
{
    PyErr_SetString(PyExc_OverflowError,
                    "ckernel: value exceeds int64 (timestamps, sequence "
                    "numbers and counters must fit in 64 bits); run with "
                    "REPRO_KERNEL=py");
}

/* Python int -> int64 through PyLong_AsLongLongAndOverflow, whose digit
 * loop handles every value; PyLong_AsLongLong round-trips anything
 * >= 2**30 through a byte array. -1 with an exception set on failure. */
static inline int
as_ll(PyObject *v, long long *out)
{
    int overflow;
    long long r = PyLong_AsLongLongAndOverflow(v, &overflow);
    if (overflow) {
        raise_int64_overflow();
        return -1;
    }
    if (r == -1 && PyErr_Occurred())
        return -1;
    *out = r;
    return 0;
}

/* *out = a + b, or the int64 OverflowError. */
static inline int
add_ll(long long a, long long b, long long *out)
{
    if (__builtin_add_overflow(a, b, out)) {
        raise_int64_overflow();
        return -1;
    }
    return 0;
}

/* *out = start + size * per_byte, a serialization's end, or the int64
 * OverflowError. */
static inline int
wire_done(long long start, long long size, long long per_byte,
          long long *out)
{
    long long ser;
    if (__builtin_mul_overflow(size, per_byte, &ser) ||
        __builtin_add_overflow(start, ser, out)) {
        raise_int64_overflow();
        return -1;
    }
    return 0;
}

static inline long long
slot_ll(PyObject *o, Py_ssize_t off, const char *name, int *err)
{
    PyObject *v = SLOT(o, off);
    long long r;
    if (v == NULL) {
        PyErr_Format(PyExc_AttributeError, "slot %.100s is unset", name);
        *err = 1;
        return -1;
    }
    if (as_ll(v, &r) < 0) {
        *err = 1;
        return -1;
    }
    return r;
}

static inline int
slot_set_ll(PyObject *o, Py_ssize_t off, long long v)
{
    PyObject *num = PyLong_FromLongLong(v);
    PyObject *old;
    if (num == NULL)
        return -1;
    old = SLOT(o, off);
    SLOT(o, off) = num;
    Py_XDECREF(old);
    return 0;
}

/* Add `delta` to an int slot (counter bump). */
static inline int
slot_add_ll(PyObject *o, Py_ssize_t off, const char *name, long long delta)
{
    int err = 0;
    long long v = slot_ll(o, off, name, &err);
    if (err || add_ll(v, delta, &v) < 0)
        return -1;
    return slot_set_ll(o, off, v);
}

/* ------------------------------------------------------------- event heap
 *
 * A binary min-heap of events ordered by (time, seq). Sequence numbers
 * are unique, so the order is total and dispatch matches heapq's on the
 * oracle's tuples exactly. Entries own their callback and args.
 *
 * The type is GC-tracked: pending kick, pacer and slice events hold
 * bound methods that lead back to the simulator, so a finished network
 * is a cycle through its heap that only the collector can reclaim.
 */

typedef struct {
    long long time, seq;
    PyObject *cb, *args; /* owned */
} Event;

typedef struct {
    PyObject_HEAD
    Event *ev;
    Py_ssize_t len, cap;
    long long seq; /* last sequence number handed out */
} EventHeap;

static PyTypeObject EventHeap_Type;

static inline int
ev_before(const Event *a, const Event *b)
{
    return a->time < b->time || (a->time == b->time && a->seq < b->seq);
}

/* Push an event; increfs cb and args. */
static int
eh_push(EventHeap *h, long long time, long long seq, PyObject *cb,
        PyObject *args)
{
    Event e;
    Py_ssize_t pos;

    if (h->len == h->cap) {
        Py_ssize_t cap = h->cap ? 2 * h->cap : 64;
        Event *ev;
        if (cap > PY_SSIZE_T_MAX / (Py_ssize_t)sizeof(Event)) {
            PyErr_NoMemory();
            return -1;
        }
        ev = PyMem_Realloc(h->ev, (size_t)cap * sizeof(Event));
        if (ev == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        h->ev = ev;
        h->cap = cap;
    }
    e.time = time;
    e.seq = seq;
    e.cb = cb;
    e.args = args;
    Py_INCREF(cb);
    Py_INCREF(args);
    pos = h->len++;
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (!ev_before(&e, &h->ev[parent]))
            break;
        h->ev[pos] = h->ev[parent];
        pos = parent;
    }
    h->ev[pos] = e;
    return 0;
}

/* Pop the earliest event into *out, whose references pass to the
 * caller. The heap must be non-empty. */
static void
eh_pop(EventHeap *h, Event *out)
{
    Event last;
    Py_ssize_t pos = 0, child = 1, end;

    *out = h->ev[0];
    end = --h->len;
    if (end == 0)
        return;
    last = h->ev[end];
    /* heapq's _siftup: walk the hole down to a leaf along the earlier
     * child, then sift the former last entry up from there. */
    while (child < end) {
        if (child + 1 < end && !ev_before(&h->ev[child], &h->ev[child + 1]))
            child += 1;
        h->ev[pos] = h->ev[child];
        pos = child;
        child = 2 * pos + 1;
    }
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (!ev_before(&last, &h->ev[parent]))
            break;
        h->ev[pos] = h->ev[parent];
        pos = parent;
    }
    h->ev[pos] = last;
}

static PyObject *
eh_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, ":EventHeap", kwlist))
        return NULL;
    return type->tp_alloc(type, 0); /* zeroed and GC-tracked */
}

static int
eh_traverse(EventHeap *h, visitproc visit, void *arg)
{
    Py_ssize_t i;
    for (i = 0; i < h->len; i++) {
        Py_VISIT(h->ev[i].cb);
        Py_VISIT(h->ev[i].args);
    }
    return 0;
}

static int
eh_clear(EventHeap *h)
{
    Event *ev = h->ev;
    Py_ssize_t i, n = h->len;
    /* Detach before releasing: a finalizer may schedule onto the heap. */
    h->ev = NULL;
    h->len = h->cap = 0;
    for (i = 0; i < n; i++) {
        Py_DECREF(ev[i].cb);
        Py_DECREF(ev[i].args);
    }
    PyMem_Free(ev);
    return 0;
}

static void
eh_dealloc(EventHeap *h)
{
    PyObject_GC_UnTrack(h);
    eh_clear(h);
    Py_TYPE(h)->tp_free((PyObject *)h);
}

static Py_ssize_t
eh_length(EventHeap *h)
{
    return h->len;
}

static PySequenceMethods eh_as_sequence = {
    .sq_length = (lenfunc)eh_length,
};

static PyMemberDef eh_members[] = {
    {"seq", T_LONGLONG, offsetof(EventHeap, seq), READONLY,
     "Last sequence number handed out: the scheduler's push count."},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject EventHeap_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.net.kernel._ckernel.EventHeap",
    .tp_basicsize = sizeof(EventHeap),
    .tp_dealloc = (destructor)eh_dealloc,
    .tp_as_sequence = &eh_as_sequence,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Native event heap of a compiled simulator; len() is the "
              "number of pending entries.",
    .tp_traverse = (traverseproc)eh_traverse,
    .tp_clear = (inquiry)eh_clear,
    .tp_members = eh_members,
    .tp_new = eh_new,
};

/* ----------------------------------------------------------- scheduling */

/* raise sim._past_error(time_ps, callback) */
static void
raise_past_error(PyObject *sim, PyObject *t_obj, PyObject *cb)
{
    PyObject *exc =
        PyObject_CallFunctionObjArgs(g_py_past_error, sim, t_obj, cb, NULL);
    if (exc != NULL) {
        PyErr_SetObject((PyObject *)Py_TYPE(exc), exc);
        Py_DECREF(exc);
    }
}

/* The EventHeap of a simulator, or NULL when it has none. */
static inline EventHeap *
sim_heap(PyObject *sim)
{
    PyObject *heap = SLOT(sim, S.heap);
    if (heap == NULL || Py_TYPE(heap) != &EventHeap_Type)
        return NULL;
    return (EventHeap *)heap;
}

/* Fast-path eligibility: a compiled simulator that owns an EventHeap.
 * Anything else (a plain Simulator) takes the Python paths, which
 * schedule onto its list. */
static inline int
sim_fast(PyObject *sim)
{
    return Py_TYPE(sim) == t_cksim && sim_heap(sim) != NULL;
}

/* sim_heap for a simulator that passed sim_fast before Python code ran
 * (a resolver, a handler): RuntimeError if that code swapped the heap. */
static EventHeap *
need_heap(PyObject *sim)
{
    EventHeap *h = sim_heap(sim);
    if (h == NULL)
        PyErr_SetString(PyExc_RuntimeError,
                        "ckernel: simulator lost its event heap");
    return h;
}

/* sim.at(time_ps, callback, *args) on a fast-path simulator whose
 * past-check already passed or holds by construction: push under the
 * next sequence number. `args` is borrowed. */
static int
schedule_heap(PyObject *sim, long long time_ps, PyObject *cb, PyObject *args)
{
    EventHeap *h = need_heap(sim);
    long long seq;
    if (h == NULL || add_ll(h->seq, 1, &seq) < 0 ||
        eh_push(h, time_ps, seq, cb, args) < 0)
        return -1;
    h->seq = seq;
    return 0;
}

/* ------------------------------------------------------- Simulator.at/after */

/* The shared tail of at() and after(): the past check, then push
 * callback(*args[3:]) at `t`. `t_obj` is the time as passed, shown by
 * the past error; NULL builds it from `t`. */
static PyObject *
schedule_call(PyObject *self, long long t, long long now, PyObject *t_obj,
              PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *cb = args[2], *rest;
    Py_ssize_t i;
    int rc;

    if (t < now) {
        PyObject *shown = t_obj;
        if (shown == NULL)
            shown = PyLong_FromLongLong(t);
        else
            Py_INCREF(shown);
        if (shown != NULL) {
            raise_past_error(self, shown, cb);
            Py_DECREF(shown);
        }
        return NULL;
    }
    rest = PyTuple_New(nargs - 3);
    if (rest == NULL)
        return NULL;
    for (i = 3; i < nargs; i++) {
        Py_INCREF(args[i]);
        PyTuple_SET_ITEM(rest, i - 3, args[i]);
    }
    rc = schedule_heap(self, t, cb, rest);
    Py_DECREF(rest);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
c_sim_at(PyObject *Py_UNUSED(mod), PyObject *const *args, Py_ssize_t nargs)
{
    long long t, now;
    int err = 0;

    if (nargs < 3) {
        PyErr_SetString(PyExc_TypeError,
                        "at() requires (self, time_ps, callback, *args)");
        return NULL;
    }
    if (!g_ready || !sim_fast(args[0]))
        return PyObject_Vectorcall(g_py_sim_at, args, nargs, NULL);
    if (as_ll(args[1], &t) < 0)
        return NULL;
    now = slot_ll(args[0], S.now, "now", &err);
    if (err)
        return NULL;
    return schedule_call(args[0], t, now, args[1], args, nargs);
}

static PyObject *
c_sim_after(PyObject *Py_UNUSED(mod), PyObject *const *args, Py_ssize_t nargs)
{
    long long delay, now, t;
    int err = 0;

    if (nargs < 3) {
        PyErr_SetString(PyExc_TypeError,
                        "after() requires (self, delay_ps, callback, *args)");
        return NULL;
    }
    if (!g_ready || !sim_fast(args[0]))
        return PyObject_Vectorcall(g_py_sim_after, args, nargs, NULL);
    if (as_ll(args[1], &delay) < 0)
        return NULL;
    now = slot_ll(args[0], S.now, "now", &err);
    if (err || add_ll(now, delay, &t) < 0)
        return NULL;
    return schedule_call(args[0], t, now, NULL, args, nargs);
}

/* -------------------------------------------------------------------- run */

static PyObject *
c_sim_run(PyObject *Py_UNUSED(mod), PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"", "until_ps", "max_events", NULL};
    PyObject *self, *until_obj = Py_None, *max_obj = Py_None, *ret = NULL;
    EventHeap *h;
    long long processed = 0, until = 0, maxev = 0, now;
    int has_until, has_max, quiet, err = 0;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O|OO:run", kwlist, &self,
                                     &until_obj, &max_obj))
        return NULL;
    if (!g_ready || !sim_fast(self))
        return PyObject_CallFunctionObjArgs(g_py_sim_run, self, until_obj,
                                            max_obj, NULL);
    has_until = until_obj != Py_None;
    has_max = max_obj != Py_None;
    if ((has_until && as_ll(until_obj, &until) < 0) ||
        (has_max && as_ll(max_obj, &maxev) < 0))
        return NULL;
    /* Held for the whole run: callbacks cannot free it under us. */
    h = sim_heap(self);
    Py_INCREF(h);

    while (h->len > 0) {
        Event e;
        PyObject *r;
        if (has_until && h->ev[0].time > until)
            break;
        if (has_max && processed >= maxev)
            break;
        eh_pop(h, &e);
        if (slot_set_ll(self, S.now, e.time) < 0) {
            Py_DECREF(e.cb);
            Py_DECREF(e.args);
            goto done;
        }
        r = PyObject_Call(e.cb, e.args, NULL);
        Py_DECREF(e.cb);
        Py_DECREF(e.args);
        if (r == NULL)
            goto done; /* events_processed not updated — as in Python */
        Py_DECREF(r);
        processed += 1;
    }
    quiet = h->len == 0 || (has_until && h->ev[0].time > until);
    now = slot_ll(self, S.now, "now", &err);
    if (err)
        goto done;
    if (has_until && now < until && quiet && (!has_max || processed < maxev))
        slot_set(self, S.now, until_obj);
    if (slot_add_ll(self, S.events_processed, "events_processed",
                    processed) < 0)
        goto done;
    ret = PyLong_FromLongLong(processed);
done:
    Py_DECREF(h);
    return ret;
}

/* ------------------------------------------------------------------- Port */

/* getattr(target, "receive_cb", None) or target.receive — new ref. */
static PyObject *
get_deliver(PyObject *target)
{
    PyObject *cb = PyObject_GetAttr(target, s_receive_cb);
    int truth;
    if (cb == NULL) {
        if (!PyErr_ExceptionMatches(PyExc_AttributeError))
            return NULL;
        PyErr_Clear();
    }
    else {
        truth = PyObject_IsTrue(cb);
        if (truth < 0) {
            Py_DECREF(cb);
            return NULL;
        }
        if (truth)
            return cb;
        Py_DECREF(cb);
    }
    return PyObject_GetAttr(target, s_receive);
}

/* Lazy committed-control ledger settlement (mirror _expire_committed). */
static int
expire_committed(PyObject *self, PyObject *committed, long long now)
{
    for (;;) {
        Py_ssize_t len = PyObject_Length(committed);
        PyObject *first, *popped;
        long long t0, size;
        int err;
        if (len < 0)
            return -1;
        if (len == 0)
            return 0;
        first = PySequence_GetItem(committed, 0);
        if (first == NULL)
            return -1;
        err = as_ll(PyTuple_GET_ITEM(first, 0), &t0);
        Py_DECREF(first);
        if (err < 0)
            return -1;
        if (t0 > now)
            return 0;
        popped = PyObject_CallMethodNoArgs(committed, s_popleft);
        if (popped == NULL)
            return -1;
        err = as_ll(PyTuple_GET_ITEM(popped, 1), &size);
        Py_DECREF(popped);
        if (err < 0)
            return -1;
        if (slot_add_ll(self, P.bytes_control, "_bytes_control", -size) < 0)
            return -1;
    }
}

/* Resolve the delivery callback for a packet leaving `self` at start_ps.
 * Mirrors the deliver-resolution block shared by enqueue/_transmit.
 * On a dark circuit (*deliver_out left NULL, no error) the caller must
 * schedule the undeliverable event at `done`. Returns -1 on error. */
static int
resolve_deliver(PyObject *self, PyObject *packet, PyObject *start_obj,
                PyObject **deliver_out)
{
    PyObject *deliver = SLOT(self, P.deliver);
    *deliver_out = NULL;
    if (deliver == Py_None) {
        PyObject *resolver = slot_get(self, P.resolver, "resolver");
        PyObject *target;
        if (resolver == NULL)
            return -1;
        target =
            PyObject_CallFunctionObjArgs(resolver, packet, start_obj, NULL);
        if (target == NULL)
            return -1;
        if (target == Py_None) {
            Py_DECREF(target);
            return 0; /* dark circuit */
        }
        deliver = get_deliver(target);
        Py_DECREF(target);
        if (deliver == NULL)
            return -1;
        *deliver_out = deliver; /* new ref */
        return 0;
    }
    if (deliver == g_lazy) {
        PyObject *target = slot_get(self, P.target, "_target");
        if (target == NULL)
            return -1;
        deliver = get_deliver(target);
        if (deliver == NULL)
            return -1;
        slot_set(self, P.deliver, deliver); /* bind once */
        *deliver_out = deliver;             /* new ref */
        return 0;
    }
    Py_INCREF(deliver);
    *deliver_out = deliver;
    return 0;
}

/* Put `packet` on the wire at start_ps (mirror of _transmit); returns
 * the line-free time or -1 on error. Caller guarantees _ps_per_byte > 0
 * and a heap simulator. */
static long long
c_transmit(PyObject *self, PyObject *sim, PyObject *packet, long long start)
{
    int err = 0;
    long long size = slot_ll(packet, K.size_bytes, "size_bytes", &err);
    long long per_byte, done = 0, prop, arrive;
    PyObject *stats, *deliver = NULL, *start_obj;

    if (err)
        return -1;
    per_byte = slot_ll(self, P.ps_per_byte, "_ps_per_byte", &err);
    if (err || wire_done(start, size, per_byte, &done) < 0)
        return -1;
    if (slot_set_ll(self, P.busy_until, done) < 0)
        return -1;
    stats = slot_get(self, P.stats, "stats");
    if (stats == NULL)
        return -1;
    if (slot_add_ll(stats, ST.sent_packets, "sent_packets", 1) < 0 ||
        slot_add_ll(stats, ST.sent_bytes, "sent_bytes", size) < 0)
        return -1;
    start_obj = PyLong_FromLongLong(start);
    if (start_obj == NULL)
        return -1;
    if (resolve_deliver(self, packet, start_obj, &deliver) < 0) {
        Py_DECREF(start_obj);
        return -1;
    }
    Py_DECREF(start_obj);
    if (deliver == NULL) {
        /* Dark circuit: loss observed when the last bit leaves. */
        PyObject *undeliv = slot_get(self, P.undeliv_cb, "_undeliv_cb");
        PyObject *cargs;
        if (undeliv == NULL)
            return -1;
        cargs = PyTuple_Pack(1, packet);
        if (cargs == NULL)
            return -1;
        err = schedule_heap(sim, done, undeliv, cargs);
        Py_DECREF(cargs);
        if (err < 0)
            return -1;
        return done;
    }
    prop = slot_ll(self, P.propagation_ps, "propagation_ps", &err);
    if (err || add_ll(done, prop, &arrive) < 0) {
        Py_DECREF(deliver);
        return -1;
    }
    {
        PyObject *recv_args = slot_get(packet, K.recv_args, "recv_args");
        if (recv_args == NULL) {
            Py_DECREF(deliver);
            return -1;
        }
        err = schedule_heap(sim, arrive, deliver, recv_args);
        Py_DECREF(deliver);
        if (err < 0)
            return -1;
    }
    return done;
}

/* Fast-path eligibility for enqueue/_kick on `self` with its sim. */
static inline int
port_fast(PyObject *self, PyObject **sim_out, int *err)
{
    PyObject *sim;
    if (!g_ready || Py_TYPE(self) != t_ckport)
        return 0;
    sim = SLOT(self, P.sim);
    if (sim == NULL || !sim_fast(sim))
        return 0;
    {
        long long per_byte = slot_ll(self, P.ps_per_byte, "_ps_per_byte", err);
        if (*err)
            return 0;
        if (per_byte == 0)
            return 0; /* non-integral ps/byte: exact big-int division */
    }
    *sim_out = sim;
    return 1;
}

static PyObject *
c_port_enqueue_impl(PyObject *self, PyObject *packet)
{
    PyObject *sim, *priority, *stats;
    long long size, now;
    int err = 0, truth;

    if (err)
        return NULL;
    if (!port_fast(self, &sim, &err) || Py_TYPE(packet) != t_packet) {
        if (err)
            return NULL;
        return PyObject_CallFunctionObjArgs(g_py_port_enqueue, self, packet,
                                            NULL);
    }
    priority = slot_get(packet, K.priority, "priority");
    if (priority == NULL)
        return NULL;
    size = slot_ll(packet, K.size_bytes, "size_bytes", &err);
    if (err)
        return NULL;
    stats = slot_get(self, P.stats, "stats");
    if (stats == NULL)
        return NULL;
    if (priority == g_prio_low && SLOT(packet, K.kind) == g_kind_data) {
        long long qd = slot_ll(self, P.bytes_data, "_bytes_data", &err);
        long long cap = slot_ll(self, P.data_queue_bytes, "data_queue_bytes",
                                &err);
        if (err)
            return NULL;
        if (qd + size > cap) {
            truth = PyObject_IsTrue(SLOT(self, P.trimming));
            if (truth < 0)
                return NULL;
            if (!truth)
                Py_RETURN_FALSE; /* drop-tail */
            /* packet.trim(), inlined: kind is DATA (guarded above). */
            slot_set(packet, K.kind, g_kind_header);
            slot_set(packet, K.size_bytes, g_header_bytes);
            slot_set(packet, K.priority, g_prio_control);
            if (slot_add_ll(stats, ST.trimmed, "trimmed", 1) < 0)
                return NULL;
            priority = g_prio_control;
            size = g_header_ll;
        }
    }
    now = slot_ll(sim, S.now, "now", &err);
    if (err)
        return NULL;
    if (priority == g_prio_control) {
        PyObject *committed =
            slot_get(self, P.committed_control, "_committed_control");
        long long qc, cap;
        Py_ssize_t clen;
        if (committed == NULL)
            return NULL;
        clen = PyObject_Length(committed);
        if (clen < 0)
            return NULL;
        if (clen > 0 && expire_committed(self, committed, now) < 0)
            return NULL;
        qc = slot_ll(self, P.bytes_control, "_bytes_control", &err);
        cap = slot_ll(self, P.control_queue_bytes, "control_queue_bytes",
                      &err);
        if (err)
            return NULL;
        if (qc + size > cap) {
            if (slot_add_ll(stats, ST.dropped_control, "dropped_control",
                            1) < 0)
                return NULL;
            Py_RETURN_FALSE;
        }
    }
    else if (priority == g_prio_bulk) {
        long long qb = slot_ll(self, P.bytes_bulk, "_bytes_bulk", &err);
        long long cap =
            slot_ll(self, P.bulk_queue_bytes, "bulk_queue_bytes", &err);
        if (err)
            return NULL;
        if (qb + size > cap) {
            PyObject *handler;
            if (slot_add_ll(stats, ST.dropped_bulk, "dropped_bulk", 1) < 0)
                return NULL;
            handler = SLOT(self, P.on_bulk_drop);
            if (handler != NULL && handler != Py_None) {
                PyObject *r =
                    PyObject_CallFunctionObjArgs(handler, packet, NULL);
                if (r == NULL)
                    return NULL;
                Py_DECREF(r);
            }
            Py_RETURN_FALSE;
        }
    }
    slot_set(packet, K.enqueued_ps, SLOT(sim, S.now));
    truth = PyObject_IsTrue(SLOT(self, P.kick_pending));
    if (truth < 0)
        return NULL;
    if (!truth) {
        long long busy = slot_ll(self, P.busy_until, "_busy_until", &err);
        if (err)
            return NULL;
        if (busy <= now) {
            /* Idle line, empty queues: transmit immediately (the single
             * hottest path in the engine). */
            long long per_byte =
                slot_ll(self, P.ps_per_byte, "_ps_per_byte", &err);
            long long done = 0, prop, arrive;
            PyObject *deliver = NULL;
            if (err || wire_done(now, size, per_byte, &done) < 0)
                return NULL;
            if (slot_set_ll(self, P.busy_until, done) < 0)
                return NULL;
            if (slot_add_ll(stats, ST.sent_packets, "sent_packets", 1) < 0 ||
                slot_add_ll(stats, ST.sent_bytes, "sent_bytes", size) < 0)
                return NULL;
            if (resolve_deliver(self, packet, SLOT(sim, S.now), &deliver) <
                0)
                return NULL;
            if (deliver == NULL) {
                /* Dark circuit. */
                PyObject *undeliv =
                    slot_get(self, P.undeliv_cb, "_undeliv_cb");
                PyObject *cargs;
                if (undeliv == NULL)
                    return NULL;
                cargs = PyTuple_Pack(1, packet);
                if (cargs == NULL)
                    return NULL;
                err = schedule_heap(sim, done, undeliv, cargs);
                Py_DECREF(cargs);
                if (err < 0)
                    return NULL;
                Py_RETURN_TRUE;
            }
            prop = slot_ll(self, P.propagation_ps, "propagation_ps", &err);
            if (err || add_ll(done, prop, &arrive) < 0) {
                Py_DECREF(deliver);
                return NULL;
            }
            {
                PyObject *recv_args =
                    slot_get(packet, K.recv_args, "recv_args");
                if (recv_args == NULL) {
                    Py_DECREF(deliver);
                    return NULL;
                }
                err = schedule_heap(sim, arrive, deliver, recv_args);
                Py_DECREF(deliver);
                if (err < 0)
                    return NULL;
            }
            Py_RETURN_TRUE;
        }
    }
    /* Busy line (or kick pending): join the queue. */
    {
        PyObject *q, *r;
        Py_ssize_t boff;
        if (priority == g_prio_control) {
            q = slot_get(self, P.q_control, "_q_control");
            boff = P.bytes_control;
        }
        else if (priority == g_prio_low) {
            q = slot_get(self, P.q_data, "_q_data");
            boff = P.bytes_data;
        }
        else {
            q = slot_get(self, P.q_bulk, "_q_bulk");
            boff = P.bytes_bulk;
        }
        if (q == NULL)
            return NULL;
        r = PyObject_CallMethodOneArg(q, s_append, packet);
        if (r == NULL)
            return NULL;
        Py_DECREF(r);
        if (slot_add_ll(self, boff, "_bytes_*", size) < 0)
            return NULL;
    }
    if (!truth) {
        long long busy = slot_ll(self, P.busy_until, "_busy_until", &err);
        PyObject *kick_cb;
        if (err)
            return NULL;
        slot_set(self, P.kick_pending, Py_True);
        kick_cb = slot_get(self, P.kick_cb, "_kick_cb");
        if (kick_cb == NULL)
            return NULL;
        /* sim.at(self._busy_until, self._kick_cb): the past-time guard
         * holds (busy > now here, since the idle branch did not take). */
        if (schedule_heap(sim, busy, kick_cb, g_empty) < 0)
            return NULL;
    }
    Py_RETURN_TRUE;
}

static PyObject *
c_port_enqueue(PyObject *Py_UNUSED(mod), PyObject *const *args,
               Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "enqueue() takes (self, packet)");
        return NULL;
    }
    return c_port_enqueue_impl(args[0], args[1]);
}

static PyObject *
c_port_kick(PyObject *Py_UNUSED(mod), PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *self, *sim, *q, *packet;
    long long start, size;
    int err = 0;
    Py_ssize_t qlen;

    if (nargs != 1) {
        PyErr_SetString(PyExc_TypeError, "_kick() takes (self)");
        return NULL;
    }
    self = args[0];
    if (!port_fast(self, &sim, &err)) {
        if (err)
            return NULL;
        return PyObject_CallFunctionObjArgs(g_py_port_kick, self, NULL);
    }
    slot_set(self, P.kick_pending, Py_False);
    start = slot_ll(sim, S.now, "now", &err);
    if (err)
        return NULL;
    q = slot_get(self, P.q_control, "_q_control");
    if (q == NULL)
        return NULL;
    qlen = PyObject_Length(q);
    if (qlen < 0)
        return NULL;
    if (qlen > 0) {
        /* Commit the whole control queue back-to-back; each delivery is
         * pushed as its packet is committed. */
        PyObject *committed =
            slot_get(self, P.committed_control, "_committed_control");
        int first = 1;
        if (committed == NULL)
            return NULL;
        for (;;) {
            Py_ssize_t left = PyObject_Length(q);
            if (left < 0)
                return NULL;
            if (left == 0)
                break;
            packet = PyObject_CallMethodNoArgs(q, s_popleft);
            if (packet == NULL)
                return NULL;
            size = slot_ll(packet, K.size_bytes, "size_bytes", &err);
            if (err) {
                Py_DECREF(packet);
                return NULL;
            }
            if (first) {
                /* On the wire right now: out of the queue at once. */
                if (slot_add_ll(self, P.bytes_control, "_bytes_control",
                                -size) < 0) {
                    Py_DECREF(packet);
                    return NULL;
                }
                first = 0;
            }
            else {
                /* Committed but not started: bytes stay in the admission
                 * ledger until the wire-entry time. */
                PyObject *start_obj = PyLong_FromLongLong(start);
                PyObject *pair, *r;
                if (start_obj == NULL) {
                    Py_DECREF(packet);
                    return NULL;
                }
                pair = PyTuple_Pack(2, start_obj, SLOT(packet, K.size_bytes));
                Py_DECREF(start_obj);
                if (pair == NULL) {
                    Py_DECREF(packet);
                    return NULL;
                }
                r = PyObject_CallMethodOneArg(committed, s_append, pair);
                Py_DECREF(pair);
                if (r == NULL) {
                    Py_DECREF(packet);
                    return NULL;
                }
                Py_DECREF(r);
            }
            start = c_transmit(self, sim, packet, start);
            Py_DECREF(packet);
            if (start < 0 && PyErr_Occurred())
                return NULL;
        }
    }
    else {
        PyObject *qd = slot_get(self, P.q_data, "_q_data");
        Py_ssize_t dlen;
        if (qd == NULL)
            return NULL;
        dlen = PyObject_Length(qd);
        if (dlen < 0)
            return NULL;
        if (dlen > 0) {
            packet = PyObject_CallMethodNoArgs(qd, s_popleft);
            if (packet == NULL)
                return NULL;
            size = slot_ll(packet, K.size_bytes, "size_bytes", &err);
            if (err ||
                slot_add_ll(self, P.bytes_data, "_bytes_data", -size) < 0) {
                Py_DECREF(packet);
                return NULL;
            }
            start = c_transmit(self, sim, packet, start);
            Py_DECREF(packet);
            if (start < 0 && PyErr_Occurred())
                return NULL;
        }
        else {
            PyObject *qb = slot_get(self, P.q_bulk, "_q_bulk");
            Py_ssize_t blen;
            if (qb == NULL)
                return NULL;
            blen = PyObject_Length(qb);
            if (blen < 0)
                return NULL;
            if (blen == 0)
                Py_RETURN_NONE; /* kick only scheduled with work queued */
            packet = PyObject_CallMethodNoArgs(qb, s_popleft);
            if (packet == NULL)
                return NULL;
            size = slot_ll(packet, K.size_bytes, "size_bytes", &err);
            if (err ||
                slot_add_ll(self, P.bytes_bulk, "_bytes_bulk", -size) < 0) {
                Py_DECREF(packet);
                return NULL;
            }
            start = c_transmit(self, sim, packet, start);
            Py_DECREF(packet);
            if (start < 0 && PyErr_Occurred())
                return NULL;
        }
    }
    /* More work queued: schedule the next kick at the line-free time. */
    {
        Py_ssize_t c = PyObject_Length(slot_get(self, P.q_control,
                                                "_q_control"));
        Py_ssize_t d = PyObject_Length(slot_get(self, P.q_data, "_q_data"));
        Py_ssize_t b = PyObject_Length(slot_get(self, P.q_bulk, "_q_bulk"));
        if (c < 0 || d < 0 || b < 0)
            return NULL;
        if (c > 0 || d > 0 || b > 0) {
            long long busy = slot_ll(self, P.busy_until, "_busy_until", &err);
            PyObject *kick_cb;
            if (err)
                return NULL;
            slot_set(self, P.kick_pending, Py_True);
            kick_cb = slot_get(self, P.kick_cb, "_kick_cb");
            if (kick_cb == NULL)
                return NULL;
            if (schedule_heap(sim, busy, kick_cb, g_empty) < 0)
                return NULL;
        }
    }
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------- Host */

/* packet.release(), inlined: idempotent free-list return. */
static int
release_packet(PyObject *packet)
{
    if (SLOT(packet, K.pooled) == Py_True)
        return 0;
    slot_set(packet, K.pooled, Py_True);
    if (PyList_GET_SIZE(g_pool) < g_pool_max)
        return PyList_Append(g_pool, packet);
    return 0;
}

static PyObject *
c_host_receive(PyObject *Py_UNUSED(mod), PyObject *const *args,
               Py_ssize_t nargs)
{
    PyObject *self, *packet, *kind, *table, *endpoint, *fid;

    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "receive() takes (self, packet)");
        return NULL;
    }
    self = args[0];
    packet = args[1];
    if (!g_ready || Py_TYPE(self) != t_ckhost || Py_TYPE(packet) != t_packet)
        return PyObject_Vectorcall(g_py_host_receive, args, nargs, NULL);
    kind = SLOT(packet, K.kind);
    if (kind == g_kind_data || kind == g_kind_header)
        table = SLOT(self, H.sinks);
    else
        table = SLOT(self, H.sources);
    if (table == NULL || !PyDict_CheckExact(table))
        return PyObject_Vectorcall(g_py_host_receive, args, nargs, NULL);
    fid = slot_get(packet, K.flow_id, "flow_id");
    if (fid == NULL)
        return NULL;
    endpoint = PyDict_GetItemWithError(table, fid);
    if (endpoint == NULL) {
        if (PyErr_Occurred())
            return NULL;
        if (slot_add_ll(self, H.dropped, "dropped", 1) < 0)
            return NULL;
    }
    else {
        PyObject *r = PyObject_CallMethodOneArg(endpoint, s_on_packet, packet);
        if (r == NULL)
            return NULL;
        Py_DECREF(r);
    }
    if (release_packet(packet) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* --------------------------------------------------------------- dispatch */

/* Fused switch delivery: TTL guard, route, egress enqueue. Bound context
 * is (switch, route, py_dispatch); py_dispatch is the pure-Python fused
 * closure, used verbatim for anything off the fast path. */
static PyObject *
c_dispatch(PyObject *ctx, PyObject *packet)
{
    PyObject *sw = PyTuple_GET_ITEM(ctx, 0);
    PyObject *route = PyTuple_GET_ITEM(ctx, 1);
    PyObject *port;
    long long hops;
    int err = 0;

    if (!g_ready || Py_TYPE(sw) != t_ckswitch || Py_TYPE(packet) != t_packet)
        return PyObject_CallOneArg(PyTuple_GET_ITEM(ctx, 2), packet);
    hops = slot_ll(packet, K.hops, "hops", &err);
    if (err)
        return NULL;
    if (hops > g_max_hops) {
        if (slot_add_ll(sw, W.drops, "drops", 1) < 0)
            return NULL;
        if (release_packet(packet) < 0)
            return NULL;
        Py_RETURN_NONE;
    }
    port = PyObject_CallFunctionObjArgs(route, sw, packet, NULL);
    if (port == NULL)
        return NULL;
    if (port == g_consumed) {
        Py_DECREF(port);
        Py_RETURN_NONE;
    }
    if (port == Py_None) {
        Py_DECREF(port);
        if (slot_add_ll(sw, W.drops, "drops", 1) < 0)
            return NULL;
        if (release_packet(packet) < 0)
            return NULL;
        Py_RETURN_NONE;
    }
    if (Py_TYPE(port) == t_ckport) {
        PyObject *r = c_port_enqueue_impl(port, packet);
        Py_DECREF(port);
        if (r == NULL)
            return NULL;
        Py_DECREF(r);
    }
    else {
        PyObject *r = PyObject_CallMethodOneArg(port, s_enqueue, packet);
        Py_DECREF(port);
        if (r == NULL)
            return NULL;
        Py_DECREF(r);
    }
    Py_RETURN_NONE;
}

static PyMethodDef dispatch_def = {
    "dispatch", (PyCFunction)c_dispatch, METH_O,
    "Fused switch delivery (compiled kernel)."};

static PyObject *
c_make_dispatch(PyObject *Py_UNUSED(mod), PyObject *args)
{
    PyObject *sw, *route, *fallback, *ctx, *fn;
    if (!PyArg_ParseTuple(args, "OOO:make_dispatch", &sw, &route, &fallback))
        return NULL;
    ctx = PyTuple_Pack(3, sw, route, fallback);
    if (ctx == NULL)
        return NULL;
    fn = PyCFunction_New(&dispatch_def, ctx);
    Py_DECREF(ctx);
    return fn;
}

/* -------------------------------------------------------------------- NDP
 *
 * The protocol endpoints (NdpSource / NdpSink / PullPacer) are the last
 * pure-Python bodies on the per-packet path: every delivered data packet
 * runs sink.on_packet (ACK acquire + send + stats), most also run
 * source.on_packet (PULL release) and the pacer tick. The functions below
 * transcribe ndp.py exactly, sharing the same deques/sets/records.
 */

/* hash((a, b, c)) & 0x7FFFFFFF, as ndp.py computes packet salts. Built as
 * a real tuple and hashed through the interpreter so the result is
 * bit-identical by construction. Returns a new ref or NULL. */
static PyObject *
salt_hash(PyObject *a, PyObject *b, PyObject *c)
{
    PyObject *tup = PyTuple_Pack(3, a, b, c);
    Py_hash_t h;
    if (tup == NULL)
        return NULL;
    h = PyObject_Hash(tup);
    Py_DECREF(tup);
    if (h == -1 && PyErr_Occurred())
        return NULL;
    return PyLong_FromLongLong(
        (long long)((unsigned long long)h & 0x7FFFFFFFULL));
}

/* packet.acquire(...), inlined for the free-list path. All args borrowed;
 * returns a new Packet ref. Python's pool path re-assigns every field, so
 * the transcription does too (slice_stamp/next_rack/relay_to default to
 * None, hops/enqueued_ps to 0 — the NDP endpoints never pass them). */
static PyObject *
c_acquire(PyObject *fid, PyObject *kind, PyObject *src, PyObject *dst,
          PyObject *seq, PyObject *size_obj, PyObject *prio,
          PyObject *salt_obj)
{
    Py_ssize_t n = PyList_GET_SIZE(g_pool);
    PyObject *packet;

    if (n > 0) {
        packet = PyList_GET_ITEM(g_pool, n - 1);
        Py_INCREF(packet);
        if (PyList_SetSlice(g_pool, n - 1, n, NULL) < 0) {
            Py_DECREF(packet);
            return NULL;
        }
        if (Py_TYPE(packet) != t_packet) {
            /* Foreign object in the pool: put it back and let Python's
             * acquire (which pops the same element) deal with it. */
            int err = PyList_Append(g_pool, packet);
            Py_DECREF(packet);
            if (err < 0)
                return NULL;
        }
        else {
            slot_set(packet, K.pooled, Py_False);
            slot_set(packet, K.flow_id, fid);
            slot_set(packet, K.kind, kind);
            slot_set(packet, K.src_host, src);
            slot_set(packet, K.dst_host, dst);
            slot_set(packet, K.seq, seq);
            slot_set(packet, K.size_bytes, size_obj);
            slot_set(packet, K.priority, prio);
            slot_set(packet, K.slice_stamp, Py_None);
            slot_set(packet, K.salt, salt_obj);
            slot_set(packet, K.hops, g_zero);
            slot_set(packet, K.next_rack, Py_None);
            slot_set(packet, K.relay_to, Py_None);
            slot_set(packet, K.enqueued_ps, g_zero);
            return packet;
        }
    }
    {
        PyObject *args[9] = {fid, kind, src, dst, seq,
                             size_obj, prio, Py_None, salt_obj};
        return PyObject_Vectorcall(g_py_acquire, args, 9, NULL);
    }
}

/* endpoint._send(packet). The bound send callable is Host.send or
 * nic.enqueue; when it is a compiled port's enqueue, skip the method
 * object and call the C implementation directly. */
static int
do_send(PyObject *send, PyObject *packet)
{
    PyObject *r;
    if (PyMethod_Check(send) && PyMethod_GET_FUNCTION(send) == g_cf_enqueue &&
        Py_TYPE(PyMethod_GET_SELF(send)) == t_ckport)
        r = c_port_enqueue_impl(PyMethod_GET_SELF(send), packet);
    else
        r = PyObject_CallOneArg(send, packet);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* NdpSource._emit(seq): acquire a data packet and send it. */
static int
src_emit(PyObject *self, PyObject *seq_obj)
{
    PyObject *record, *fid = NULL, *src = NULL, *dst = NULL, *size_obj = NULL,
             *salt_obj = NULL, *packet = NULL, *send;
    long long mtu, payload, size_ll, seq_ll, remaining, b;
    int err = 0, rc = -1;

    record = slot_get(self, NS.record, "record");
    if (record == NULL)
        return -1;
    fid = PyObject_GetAttr(record, s_flow_id);
    if (fid == NULL)
        return -1;
    mtu = slot_ll(self, NS.mtu, "mtu", &err);
    if (err)
        goto done;
    payload = mtu - g_header_ll;
    {
        PyObject *sz = PyObject_GetAttr(record, s_size_bytes);
        if (sz == NULL)
            goto done;
        err = as_ll(sz, &size_ll);
        Py_DECREF(sz);
        if (err < 0 || as_ll(seq_obj, &seq_ll) < 0)
            goto done;
    }
    remaining = size_ll - seq_ll * payload;
    b = payload < remaining ? payload : remaining;
    if (b < 1)
        b = 1;
    size_obj = PyLong_FromLongLong(g_header_ll + b);
    if (size_obj == NULL)
        goto done;
    salt_obj = salt_hash(fid, seq_obj, g_src_salt);
    if (salt_obj == NULL)
        goto done;
    src = PyObject_GetAttr(record, s_src_host);
    dst = src ? PyObject_GetAttr(record, s_dst_host) : NULL;
    if (dst == NULL)
        goto done;
    {
        PyObject *prio = slot_get(self, NS.priority, "priority");
        if (prio == NULL)
            goto done;
        packet = c_acquire(fid, g_kind_data, src, dst, seq_obj, size_obj,
                           prio, salt_obj);
    }
    if (packet == NULL)
        goto done;
    send = slot_get(self, NS.send, "_send");
    if (send == NULL)
        goto done;
    rc = do_send(send, packet);
done:
    Py_XDECREF(fid);
    Py_XDECREF(src);
    Py_XDECREF(dst);
    Py_XDECREF(size_obj);
    Py_XDECREF(salt_obj);
    Py_XDECREF(packet);
    return rc;
}

/* NdpSource._send_next(): 1 = sent, 0 = nothing to send, -1 = error. */
static int
src_send_next(PyObject *self)
{
    PyObject *rtx = slot_get(self, NS.rtx, "_rtx");
    Py_ssize_t n;
    long long next_new, n_packets;
    int err = 0;

    if (rtx == NULL)
        return -1;
    n = PyObject_Length(rtx);
    if (n < 0)
        return -1;
    if (n > 0) {
        PyObject *seq_obj = PyObject_CallMethodNoArgs(rtx, s_popleft);
        int rc;
        if (seq_obj == NULL)
            return -1;
        rc = src_emit(self, seq_obj);
        Py_DECREF(seq_obj);
        return rc < 0 ? -1 : 1;
    }
    next_new = slot_ll(self, NS.next_new, "_next_new", &err);
    n_packets = slot_ll(self, NS.n_packets, "n_packets", &err);
    if (err)
        return -1;
    if (next_new < n_packets) {
        PyObject *seq_obj = PyLong_FromLongLong(next_new);
        int rc;
        if (seq_obj == NULL)
            return -1;
        rc = src_emit(self, seq_obj);
        Py_DECREF(seq_obj);
        if (rc < 0)
            return -1;
        if (slot_set_ll(self, NS.next_new, next_new + 1) < 0)
            return -1;
        return 1;
    }
    return 0;
}

static PyObject *
c_src_on_packet(PyObject *Py_UNUSED(mod), PyObject *const *args,
                Py_ssize_t nargs)
{
    PyObject *self, *packet, *kind, *seq_obj, *acked;

    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "on_packet() takes (self, packet)");
        return NULL;
    }
    self = args[0];
    packet = args[1];
    if (!g_ready || Py_TYPE(self) != t_cksrc || Py_TYPE(packet) != t_packet)
        return PyObject_Vectorcall(g_py_src_on_packet, args, nargs, NULL);
    kind = SLOT(packet, K.kind);
    seq_obj = slot_get(packet, K.seq, "seq");
    if (seq_obj == NULL)
        return NULL;
    if (kind == g_kind_ack) {
        acked = slot_get(self, NS.acked, "_acked");
        if (acked == NULL)
            return NULL;
        if (PySet_CheckExact(acked)) {
            if (PySet_Add(acked, seq_obj) < 0)
                return NULL;
        }
        else {
            PyObject *r = PyObject_CallMethodOneArg(acked, s_add, seq_obj);
            if (r == NULL)
                return NULL;
            Py_DECREF(r);
        }
    }
    else if (kind == g_kind_nack) {
        int has;
        acked = slot_get(self, NS.acked, "_acked");
        if (acked == NULL)
            return NULL;
        has = PySet_CheckExact(acked) ? PySet_Contains(acked, seq_obj)
                                      : PySequence_Contains(acked, seq_obj);
        if (has < 0)
            return NULL;
        if (!has) {
            PyObject *rtx = slot_get(self, NS.rtx, "_rtx");
            PyObject *record, *retr, *bumped, *r;
            long long banked;
            int err = 0;
            if (rtx == NULL)
                return NULL;
            r = PyObject_CallMethodOneArg(rtx, s_append, seq_obj);
            if (r == NULL)
                return NULL;
            Py_DECREF(r);
            record = slot_get(self, NS.record, "record");
            if (record == NULL)
                return NULL;
            retr = PyObject_GetAttr(record, s_retransmissions);
            if (retr == NULL)
                return NULL;
            bumped = PyNumber_Add(retr, g_one);
            Py_DECREF(retr);
            if (bumped == NULL)
                return NULL;
            err = PyObject_SetAttr(record, s_retransmissions, bumped);
            Py_DECREF(bumped);
            if (err < 0)
                return NULL;
            banked = slot_ll(self, NS.pulls_banked, "_pulls_banked", &err);
            if (err)
                return NULL;
            if (banked > 0) {
                if (slot_set_ll(self, NS.pulls_banked, banked - 1) < 0)
                    return NULL;
                if (src_send_next(self) < 0)
                    return NULL;
            }
        }
    }
    else if (kind == g_kind_pull) {
        int sent = src_send_next(self);
        if (sent < 0)
            return NULL;
        if (!sent &&
            slot_add_ll(self, NS.pulls_banked, "_pulls_banked", 1) < 0)
            return NULL;
    }
    Py_RETURN_NONE;
}

/* NdpSink._control(kind, seq): acquire a control packet (reverse path). */
static PyObject *
sink_control(PyObject *self, PyObject *kind, PyObject *kind_val,
             PyObject *seq_obj)
{
    PyObject *record, *fid = NULL, *src = NULL, *dst = NULL, *salt_obj = NULL,
             *packet = NULL;

    record = slot_get(self, NK.record, "record");
    if (record == NULL)
        return NULL;
    fid = PyObject_GetAttr(record, s_flow_id);
    if (fid == NULL)
        return NULL;
    salt_obj = salt_hash(fid, seq_obj, kind_val);
    if (salt_obj == NULL)
        goto done;
    /* Control flows sink -> source: src/dst swapped vs the record. */
    src = PyObject_GetAttr(record, s_dst_host);
    dst = src ? PyObject_GetAttr(record, s_src_host) : NULL;
    if (dst == NULL)
        goto done;
    packet = c_acquire(fid, kind, src, dst, seq_obj, g_header_bytes,
                       g_prio_control, salt_obj);
done:
    Py_XDECREF(fid);
    Py_XDECREF(src);
    Py_XDECREF(dst);
    Py_XDECREF(salt_obj);
    return packet;
}

/* record.complete, i.e. record.end_ps is not None. -1 on error. */
static int
sink_finished(PyObject *self, Py_ssize_t record_off)
{
    PyObject *record = slot_get(self, record_off, "record");
    PyObject *end;
    int fin;
    if (record == NULL)
        return -1;
    end = PyObject_GetAttr(record, s_end_ps);
    if (end == NULL)
        return -1;
    fin = end != Py_None;
    Py_DECREF(end);
    return fin;
}

/* NdpSink.emit_pull() body (self already validated as fast-path). */
static int
sink_emit_pull_impl(PyObject *self)
{
    long long pull_seq;
    int err = 0, rc;
    PyObject *seq_obj, *packet, *send;

    pull_seq = slot_ll(self, NK.pull_seq, "_pull_seq", &err) + 1;
    if (err)
        return -1;
    if (slot_set_ll(self, NK.pull_seq, pull_seq) < 0)
        return -1;
    seq_obj = PyLong_FromLongLong(pull_seq);
    if (seq_obj == NULL)
        return -1;
    packet = sink_control(self, g_kind_pull, g_pull_val, seq_obj);
    Py_DECREF(seq_obj);
    if (packet == NULL)
        return -1;
    send = slot_get(self, NK.send, "_send");
    if (send == NULL) {
        Py_DECREF(packet);
        return -1;
    }
    rc = do_send(send, packet);
    Py_DECREF(packet);
    return rc;
}

static PyObject *
c_sink_emit_pull(PyObject *Py_UNUSED(mod), PyObject *const *args,
                 Py_ssize_t nargs)
{
    if (nargs != 1) {
        PyErr_SetString(PyExc_TypeError, "emit_pull() takes (self)");
        return NULL;
    }
    if (!g_ready || Py_TYPE(args[0]) != t_cksink)
        return PyObject_Vectorcall(g_py_emit_pull, args, nargs, NULL);
    if (sink_emit_pull_impl(args[0]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* pacer.request(sink), inlined for known pacer layouts. */
static int
pacer_request(PyObject *pacer, PyObject *sink)
{
    if (g_ready &&
        (Py_TYPE(pacer) == t_ckpacer || Py_TYPE(pacer) == t_pacer)) {
        PyObject *tokens = slot_get(pacer, PP.tokens, "_tokens");
        PyObject *r;
        int truth;
        if (tokens == NULL)
            return -1;
        r = PyObject_CallMethodOneArg(tokens, s_append, sink);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
        truth = PyObject_IsTrue(SLOT(pacer, PP.running));
        if (truth < 0)
            return -1;
        if (!truth) {
            PyObject *sim, *tick;
            slot_set(pacer, PP.running, Py_True);
            sim = slot_get(pacer, PP.sim, "sim");
            tick = sim ? slot_get(pacer, PP.tick_cb, "_tick_cb") : NULL;
            if (tick == NULL)
                return -1;
            if (sim_fast(sim)) {
                int err = 0;
                long long now = slot_ll(sim, S.now, "now", &err);
                if (err)
                    return -1;
                return schedule_heap(sim, now, tick, g_empty);
            }
            r = PyObject_CallMethodObjArgs(sim, s_after, g_zero, tick, NULL);
            if (r == NULL)
                return -1;
            Py_DECREF(r);
        }
        return 0;
    }
    {
        PyObject *r = PyObject_CallMethodObjArgs(pacer, s_request, sink, NULL);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
        return 0;
    }
}

static PyObject *
c_sink_on_packet(PyObject *Py_UNUSED(mod), PyObject *const *args,
                 Py_ssize_t nargs)
{
    PyObject *self, *packet, *kind, *seq_obj, *send, *ctl;
    int fin;

    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "on_packet() takes (self, packet)");
        return NULL;
    }
    self = args[0];
    packet = args[1];
    if (!g_ready || Py_TYPE(self) != t_cksink || Py_TYPE(packet) != t_packet)
        return PyObject_Vectorcall(g_py_sink_on_packet, args, nargs, NULL);
    kind = SLOT(packet, K.kind);
    if (kind != g_kind_data && kind != g_kind_header)
        Py_RETURN_NONE;
    seq_obj = slot_get(packet, K.seq, "seq");
    send = seq_obj ? slot_get(self, NK.send, "_send") : NULL;
    if (send == NULL)
        return NULL;
    if (kind == g_kind_data) {
        PyObject *received;
        int has;
        ctl = sink_control(self, g_kind_ack, g_ack_val, seq_obj);
        if (ctl == NULL)
            return NULL;
        if (do_send(send, ctl) < 0) {
            Py_DECREF(ctl);
            return NULL;
        }
        Py_DECREF(ctl);
        received = slot_get(self, NK.received, "_received");
        if (received == NULL)
            return NULL;
        has = PySet_CheckExact(received)
                  ? PySet_Contains(received, seq_obj)
                  : PySequence_Contains(received, seq_obj);
        if (has < 0)
            return NULL;
        if (!has) {
            PyObject *source, *payload_obj, *collector, *record, *fid,
                *now_obj, *sim, *r;
            if (PySet_CheckExact(received)) {
                if (PySet_Add(received, seq_obj) < 0)
                    return NULL;
            }
            else {
                r = PyObject_CallMethodOneArg(received, s_add, seq_obj);
                if (r == NULL)
                    return NULL;
                Py_DECREF(r);
            }
            source = slot_get(self, NK.source, "source");
            if (source == NULL)
                return NULL;
            if (Py_TYPE(source) == t_cksrc || Py_TYPE(source) == t_src) {
                /* source.payload_bytes(seq), inlined. */
                long long mtu, payload, size_ll, seq_ll, remaining, b;
                int err = 0;
                PyObject *srecord = slot_get(source, NS.record, "record");
                PyObject *sz;
                if (srecord == NULL)
                    return NULL;
                mtu = slot_ll(source, NS.mtu, "mtu", &err);
                if (err)
                    return NULL;
                payload = mtu - g_header_ll;
                sz = PyObject_GetAttr(srecord, s_size_bytes);
                if (sz == NULL)
                    return NULL;
                err = as_ll(sz, &size_ll);
                Py_DECREF(sz);
                if (err < 0 || as_ll(seq_obj, &seq_ll) < 0)
                    return NULL;
                remaining = size_ll - seq_ll * payload;
                b = payload < remaining ? payload : remaining;
                if (b < 1)
                    b = 1;
                payload_obj = PyLong_FromLongLong(b);
            }
            else
                payload_obj =
                    PyObject_CallMethodOneArg(source, s_payload_bytes,
                                              seq_obj);
            if (payload_obj == NULL)
                return NULL;
            collector = slot_get(self, NK.stats, "stats");
            record = collector ? slot_get(self, NK.record, "record") : NULL;
            fid = record ? PyObject_GetAttr(record, s_flow_id) : NULL;
            if (fid == NULL) {
                Py_DECREF(payload_obj);
                return NULL;
            }
            sim = slot_get(self, NK.sim, "sim");
            if (sim == NULL) {
                Py_DECREF(payload_obj);
                Py_DECREF(fid);
                return NULL;
            }
            if (Py_TYPE(sim) == t_cksim || Py_TYPE(sim) == t_sim) {
                now_obj = SLOT(sim, S.now);
                Py_XINCREF(now_obj);
            }
            else
                now_obj = PyObject_GetAttr(sim, s_now);
            if (now_obj == NULL) {
                Py_DECREF(payload_obj);
                Py_DECREF(fid);
                return NULL;
            }
            r = PyObject_CallMethodObjArgs(collector, s_delivered, fid,
                                           payload_obj, now_obj, NULL);
            Py_DECREF(payload_obj);
            Py_DECREF(fid);
            Py_DECREF(now_obj);
            if (r == NULL)
                return NULL;
            Py_DECREF(r);
        }
    }
    else {
        /* Trimmed header: NACK so the source requeues the payload. */
        ctl = sink_control(self, g_kind_nack, g_nack_val, seq_obj);
        if (ctl == NULL)
            return NULL;
        if (do_send(send, ctl) < 0) {
            Py_DECREF(ctl);
            return NULL;
        }
        Py_DECREF(ctl);
    }
    fin = sink_finished(self, NK.record);
    if (fin < 0)
        return NULL;
    if (!fin) {
        PyObject *pacer = slot_get(self, NK.pacer, "pacer");
        if (pacer == NULL)
            return NULL;
        if (pacer_request(pacer, self) < 0)
            return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
c_pacer_tick(PyObject *Py_UNUSED(mod), PyObject *const *args,
             Py_ssize_t nargs)
{
    PyObject *self, *tokens;

    if (nargs != 1) {
        PyErr_SetString(PyExc_TypeError, "_tick() takes (self)");
        return NULL;
    }
    self = args[0];
    if (!g_ready || Py_TYPE(self) != t_ckpacer)
        return PyObject_Vectorcall(g_py_pacer_tick, args, nargs, NULL);
    tokens = slot_get(self, PP.tokens, "_tokens");
    if (tokens == NULL)
        return NULL;
    for (;;) {
        Py_ssize_t n = PyObject_Length(tokens);
        PyObject *sink;
        int fin;
        if (n < 0)
            return NULL;
        if (n == 0)
            break;
        sink = PyObject_CallMethodNoArgs(tokens, s_popleft);
        if (sink == NULL)
            return NULL;
        if (Py_TYPE(sink) == t_cksink || Py_TYPE(sink) == t_sink)
            fin = sink_finished(sink, NK.record);
        else {
            PyObject *f = PyObject_GetAttr(sink, s_finished);
            fin = (f == NULL) ? -1 : PyObject_IsTrue(f);
            Py_XDECREF(f);
        }
        if (fin < 0) {
            Py_DECREF(sink);
            return NULL;
        }
        if (fin) {
            Py_DECREF(sink);
            continue; /* completed flows relinquish their tokens */
        }
        if (Py_TYPE(sink) == t_cksink) {
            if (sink_emit_pull_impl(sink) < 0) {
                Py_DECREF(sink);
                return NULL;
            }
        }
        else {
            PyObject *r = PyObject_CallMethodNoArgs(sink, s_emit_pull);
            if (r == NULL) {
                Py_DECREF(sink);
                return NULL;
            }
            Py_DECREF(r);
        }
        Py_DECREF(sink);
        {
            PyObject *sim = slot_get(self, PP.sim, "sim");
            PyObject *tick = sim ? slot_get(self, PP.tick_cb, "_tick_cb")
                                 : NULL;
            int err = 0;
            if (tick == NULL)
                return NULL;
            if (sim_fast(sim)) {
                long long now = slot_ll(sim, S.now, "now", &err);
                long long interval =
                    slot_ll(self, PP.interval_ps, "interval_ps", &err);
                long long next;
                if (err || add_ll(now, interval, &next) < 0 ||
                    schedule_heap(sim, next, tick, g_empty) < 0)
                    return NULL;
            }
            else {
                PyObject *interval_obj = SLOT(self, PP.interval_ps);
                PyObject *r = PyObject_CallMethodObjArgs(
                    sim, s_after, interval_obj, tick, NULL);
                if (r == NULL)
                    return NULL;
                Py_DECREF(r);
            }
        }
        Py_RETURN_NONE;
    }
    slot_set(self, PP.running, Py_False);
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------- init */

static int
get_offset(PyObject *cls, const char *name, Py_ssize_t *out)
{
    PyObject *d = PyObject_GetAttrString(cls, name);
    if (d == NULL)
        return -1;
    if (!PyObject_TypeCheck(d, &PyMemberDescr_Type)) {
        PyErr_Format(PyExc_TypeError,
                     "%.100s.%.100s is not a __slots__ member descriptor",
                     ((PyTypeObject *)cls)->tp_name, name);
        Py_DECREF(d);
        return -1;
    }
    *out = ((PyMemberDescrObject *)d)->d_member->offset;
    Py_DECREF(d);
    return 0;
}

static PyObject *
cfg_get(PyObject *cfg, const char *key)
{
    PyObject *v = PyDict_GetItemString(cfg, key); /* borrowed */
    if (v == NULL)
        PyErr_Format(PyExc_KeyError, "ckernel init: missing key %.100s", key);
    else
        Py_INCREF(v);
    return v;
}

#define CFG_OBJ(var, key)                                                     \
    do {                                                                      \
        Py_XDECREF(var);                                                      \
        var = cfg_get(cfg, key);                                              \
        if (var == NULL)                                                      \
            return NULL;                                                      \
    } while (0)

#define OFF(cls, field, dest)                                                 \
    do {                                                                      \
        if (get_offset(cls, field, &(dest)) < 0)                              \
            return NULL;                                                      \
    } while (0)

static PyObject *
c_init(PyObject *Py_UNUSED(mod), PyObject *cfg)
{
    PyObject *cls, *tmp = NULL;

    if (!PyDict_CheckExact(cfg)) {
        PyErr_SetString(PyExc_TypeError, "init() takes a config dict");
        return NULL;
    }

    /* Simulator offsets */
    CFG_OBJ(tmp, "Simulator");
    cls = tmp;
    Py_XDECREF((PyObject *)t_sim);
    t_sim = (PyTypeObject *)cls;
    Py_INCREF(cls);
    OFF(cls, "now", S.now);
    OFF(cls, "_heap", S.heap);
    OFF(cls, "events_processed", S.events_processed);

    /* Port offsets */
    CFG_OBJ(tmp, "Port");
    cls = tmp;
    Py_XDECREF((PyObject *)t_port);
    t_port = (PyTypeObject *)cls;
    Py_INCREF(cls);
    OFF(cls, "sim", P.sim);
    OFF(cls, "resolver", P.resolver);
    OFF(cls, "propagation_ps", P.propagation_ps);
    OFF(cls, "data_queue_bytes", P.data_queue_bytes);
    OFF(cls, "control_queue_bytes", P.control_queue_bytes);
    OFF(cls, "bulk_queue_bytes", P.bulk_queue_bytes);
    OFF(cls, "trimming", P.trimming);
    OFF(cls, "on_undeliverable", P.on_undeliverable);
    OFF(cls, "on_bulk_drop", P.on_bulk_drop);
    OFF(cls, "stats", P.stats);
    OFF(cls, "_q_control", P.q_control);
    OFF(cls, "_q_data", P.q_data);
    OFF(cls, "_q_bulk", P.q_bulk);
    OFF(cls, "_bytes_control", P.bytes_control);
    OFF(cls, "_bytes_data", P.bytes_data);
    OFF(cls, "_bytes_bulk", P.bytes_bulk);
    OFF(cls, "_busy_until", P.busy_until);
    OFF(cls, "_kick_pending", P.kick_pending);
    OFF(cls, "_ps_per_byte", P.ps_per_byte);
    OFF(cls, "_target", P.target);
    OFF(cls, "_committed_control", P.committed_control);
    OFF(cls, "_deliver", P.deliver);
    OFF(cls, "_kick_cb", P.kick_cb);
    OFF(cls, "_undeliv_cb", P.undeliv_cb);

    /* Packet offsets */
    CFG_OBJ(tmp, "Packet");
    cls = tmp;
    Py_XDECREF((PyObject *)t_packet);
    t_packet = (PyTypeObject *)cls;
    Py_INCREF(cls);
    OFF(cls, "flow_id", K.flow_id);
    OFF(cls, "kind", K.kind);
    OFF(cls, "src_host", K.src_host);
    OFF(cls, "dst_host", K.dst_host);
    OFF(cls, "seq", K.seq);
    OFF(cls, "size_bytes", K.size_bytes);
    OFF(cls, "priority", K.priority);
    OFF(cls, "slice_stamp", K.slice_stamp);
    OFF(cls, "salt", K.salt);
    OFF(cls, "hops", K.hops);
    OFF(cls, "next_rack", K.next_rack);
    OFF(cls, "relay_to", K.relay_to);
    OFF(cls, "enqueued_ps", K.enqueued_ps);
    OFF(cls, "recv_args", K.recv_args);
    OFF(cls, "_pooled", K.pooled);

    /* Host offsets */
    CFG_OBJ(tmp, "Host");
    cls = tmp;
    Py_XDECREF((PyObject *)t_host);
    t_host = (PyTypeObject *)cls;
    Py_INCREF(cls);
    OFF(cls, "sources", H.sources);
    OFF(cls, "sinks", H.sinks);
    OFF(cls, "dropped", H.dropped);

    /* SwitchNode offsets */
    CFG_OBJ(tmp, "SwitchNode");
    cls = tmp;
    Py_XDECREF((PyObject *)t_switch);
    t_switch = (PyTypeObject *)cls;
    Py_INCREF(cls);
    OFF(cls, "drops", W.drops);

    /* PortStats offsets */
    CFG_OBJ(tmp, "PortStats");
    cls = tmp;
    OFF(cls, "sent_packets", ST.sent_packets);
    OFF(cls, "sent_bytes", ST.sent_bytes);
    OFF(cls, "trimmed", ST.trimmed);
    OFF(cls, "dropped_control", ST.dropped_control);
    OFF(cls, "dropped_bulk", ST.dropped_bulk);

    /* NdpSource offsets */
    CFG_OBJ(tmp, "NdpSource");
    cls = tmp;
    Py_XDECREF((PyObject *)t_src);
    t_src = (PyTypeObject *)cls;
    Py_INCREF(cls);
    OFF(cls, "record", NS.record);
    OFF(cls, "priority", NS.priority);
    OFF(cls, "mtu", NS.mtu);
    OFF(cls, "n_packets", NS.n_packets);
    OFF(cls, "_next_new", NS.next_new);
    OFF(cls, "_rtx", NS.rtx);
    OFF(cls, "_acked", NS.acked);
    OFF(cls, "_pulls_banked", NS.pulls_banked);
    OFF(cls, "_send", NS.send);

    /* NdpSink offsets */
    CFG_OBJ(tmp, "NdpSink");
    cls = tmp;
    Py_XDECREF((PyObject *)t_sink);
    t_sink = (PyTypeObject *)cls;
    Py_INCREF(cls);
    OFF(cls, "sim", NK.sim);
    OFF(cls, "record", NK.record);
    OFF(cls, "pacer", NK.pacer);
    OFF(cls, "stats", NK.stats);
    OFF(cls, "source", NK.source);
    OFF(cls, "_received", NK.received);
    OFF(cls, "_pull_seq", NK.pull_seq);
    OFF(cls, "_send", NK.send);

    /* PullPacer offsets */
    CFG_OBJ(tmp, "PullPacer");
    cls = tmp;
    Py_XDECREF((PyObject *)t_pacer);
    t_pacer = (PyTypeObject *)cls;
    Py_INCREF(cls);
    OFF(cls, "sim", PP.sim);
    OFF(cls, "interval_ps", PP.interval_ps);
    OFF(cls, "_tokens", PP.tokens);
    OFF(cls, "_running", PP.running);
    OFF(cls, "_tick_cb", PP.tick_cb);

    CFG_OBJ(g_lazy, "LAZY");
    CFG_OBJ(g_consumed, "CONSUMED");
    CFG_OBJ(g_prio_control, "PRIO_CONTROL");
    CFG_OBJ(g_prio_low, "PRIO_LOW_LATENCY");
    CFG_OBJ(g_prio_bulk, "PRIO_BULK");
    CFG_OBJ(g_kind_data, "KIND_DATA");
    CFG_OBJ(g_kind_header, "KIND_HEADER");
    CFG_OBJ(g_kind_ack, "KIND_ACK");
    CFG_OBJ(g_kind_nack, "KIND_NACK");
    CFG_OBJ(g_kind_pull, "KIND_PULL");
    Py_XDECREF(g_ack_val);
    g_ack_val = PyObject_GetAttr(g_kind_ack, s_value);
    Py_XDECREF(g_nack_val);
    g_nack_val = PyObject_GetAttr(g_kind_nack, s_value);
    Py_XDECREF(g_pull_val);
    g_pull_val = PyObject_GetAttr(g_kind_pull, s_value);
    if (g_ack_val == NULL || g_nack_val == NULL || g_pull_val == NULL)
        return NULL;
    CFG_OBJ(g_pool, "POOL");
    if (!PyList_CheckExact(g_pool)) {
        PyErr_SetString(PyExc_TypeError, "POOL must be the packet free list");
        return NULL;
    }
    CFG_OBJ(tmp, "POOL_MAX");
    g_pool_max = PyLong_AsLong(tmp);
    CFG_OBJ(tmp, "MAX_HOPS");
    if (as_ll(tmp, &g_max_hops) < 0)
        return NULL;
    CFG_OBJ(g_header_bytes, "HEADER_BYTES");
    if (as_ll(g_header_bytes, &g_header_ll) < 0)
        return NULL;
    CFG_OBJ(g_py_sim_at, "py_at");
    CFG_OBJ(g_py_sim_after, "py_after");
    CFG_OBJ(g_py_sim_run, "py_run");
    CFG_OBJ(g_py_past_error, "py_past_error");
    CFG_OBJ(g_py_port_enqueue, "py_enqueue");
    CFG_OBJ(g_py_port_kick, "py_kick");
    CFG_OBJ(g_py_host_receive, "py_receive");
    CFG_OBJ(g_py_acquire, "py_acquire");
    CFG_OBJ(g_py_src_on_packet, "py_src_on_packet");
    CFG_OBJ(g_py_sink_on_packet, "py_sink_on_packet");
    CFG_OBJ(g_py_emit_pull, "py_emit_pull");
    CFG_OBJ(g_py_pacer_tick, "py_pacer_tick");
    Py_CLEAR(tmp);
    if (PyErr_Occurred())
        return NULL;
    g_ready = 1;
    Py_RETURN_NONE;
}

static PyObject *
c_register(PyObject *Py_UNUSED(mod), PyObject *args)
{
    PyObject *cksim, *ckport, *ckhost, *ckswitch, *cksrc, *cksink, *ckpacer;
    if (!PyArg_ParseTuple(args, "OOOOOOO:register", &cksim, &ckport, &ckhost,
                          &ckswitch, &cksrc, &cksink, &ckpacer))
        return NULL;
    Py_XDECREF((PyObject *)t_cksim);
    Py_XDECREF((PyObject *)t_ckport);
    Py_XDECREF((PyObject *)t_ckhost);
    Py_XDECREF((PyObject *)t_ckswitch);
    Py_XDECREF((PyObject *)t_cksrc);
    Py_XDECREF((PyObject *)t_cksink);
    Py_XDECREF((PyObject *)t_ckpacer);
    t_cksim = (PyTypeObject *)cksim;
    t_ckport = (PyTypeObject *)ckport;
    t_ckhost = (PyTypeObject *)ckhost;
    t_ckswitch = (PyTypeObject *)ckswitch;
    t_cksrc = (PyTypeObject *)cksrc;
    t_cksink = (PyTypeObject *)cksink;
    t_ckpacer = (PyTypeObject *)ckpacer;
    Py_INCREF(cksim);
    Py_INCREF(ckport);
    Py_INCREF(ckhost);
    Py_INCREF(ckswitch);
    Py_INCREF(cksrc);
    Py_INCREF(cksink);
    Py_INCREF(ckpacer);
    Py_RETURN_NONE;
}

/* ----------------------------------------------------- factorization walk
 *
 * repro.core.matchings._random_perfect_matching, transcribed exactly: for
 * the same `remaining` and generators in the same state it returns the
 * same list (or None) and leaves the generator in the same state. The
 * Python walk is the oracle (tests/test_compiled_walk.py); the contract:
 *
 *  - The generator is touched only through its own bound `random` and
 *    `getrandbits`, looked up once per call, in the Python walk's order:
 *    first n random() calls for the sort keys, in vertex order 0..n-1;
 *    then every choice(seq) as CPython's _randbelow_with_getrandbits
 *    (len(seq)): k = m.bit_length(), redraw getrandbits(k) until the
 *    draw is below m. No native Mersenne Twister, no getstate().
 *  - Vertices are ordered by (degree, key) with a stable sort.
 *  - Each vertex's neighbours are read once per call, in the set's own
 *    iteration order, which is what tuple(s) and a comprehension over s
 *    see. No set changes during a call.
 *  - The result is the partner list, or None on an empty neighbourhood,
 *    an exhausted walk_limit or a failed final involution check.
 *  - `remaining` must be a list of sets of ints in [0, n), random() must
 *    return a float in [0, 1) and getrandbits(k) an int in [0, 2**k);
 *    anything else raises. Memory is O(sum of degrees). */

typedef struct {
    PyObject *getrandbits;
    Py_ssize_t *nbr;   /* every set's members, in iteration order */
    Py_ssize_t *start; /* vertex v's members are nbr[start[v]:start[v+1]] */
    Py_ssize_t *partner;
    Py_ssize_t *pool;  /* free neighbours of one vertex */
} Walk;

/* rng.choice over m >= 1 items: the index it picks, or -1 on error. */
static Py_ssize_t
walk_randbelow(Walk *w, Py_ssize_t m)
{
    int k = 0;
    long long r;
    PyObject *k_obj;
    for (r = m; r; r >>= 1)
        k++;
    k_obj = PyLong_FromLong(k);
    if (k_obj == NULL)
        return -1;
    do {
        int overflow;
        PyObject *draw = PyObject_CallOneArg(w->getrandbits, k_obj);
        if (draw == NULL) {
            Py_DECREF(k_obj);
            return -1;
        }
        r = PyLong_CheckExact(draw)
                ? PyLong_AsLongLongAndOverflow(draw, &overflow)
                : -1;
        Py_DECREF(draw);
        if (r == -1 && PyErr_Occurred()) {
            Py_DECREF(k_obj);
            return -1;
        }
        if (r < 0 || (r >> k) != 0) {
            PyErr_Format(PyExc_ValueError,
                         "getrandbits(%d) must return an int in [0, 2**%d)",
                         k, k);
            Py_DECREF(k_obj);
            return -1;
        }
    } while (r >= m);
    Py_DECREF(k_obj);
    return (Py_ssize_t)r;
}

/* The free (unpartnered) neighbours of v, in set order, into w->pool. */
static Py_ssize_t
walk_free(Walk *w, Py_ssize_t v)
{
    Py_ssize_t j, nf = 0;
    for (j = w->start[v]; j < w->start[v + 1]; j++)
        if (w->partner[w->nbr[j]] < 0)
            w->pool[nf++] = w->nbr[j];
    return nf;
}

/* Read the sets (a tuple snapshot of `remaining`) into w->start and
 * w->nbr, checking every member. */
static int
walk_read(Walk *w, PyObject *sets, Py_ssize_t n)
{
    Py_ssize_t v, total = 0, pos = 0;
    for (v = 0; v < n; v++) {
        PyObject *s = PyTuple_GET_ITEM(sets, v);
        if (!PyAnySet_CheckExact(s)) {
            PyErr_Format(PyExc_TypeError,
                         "remaining[%zd] must be a set, not %.100s", v,
                         Py_TYPE(s)->tp_name);
            return -1;
        }
        total += PySet_GET_SIZE(s);
    }
    w->nbr = PyMem_New(Py_ssize_t, total > 0 ? total : 1);
    if (w->nbr == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (v = 0; v < n; v++) {
        PyObject *item, *it = PyObject_GetIter(PyTuple_GET_ITEM(sets, v));
        if (it == NULL)
            return -1;
        w->start[v] = pos;
        while ((item = PyIter_Next(it)) != NULL) {
            Py_ssize_t u =
                PyLong_CheckExact(item) ? PyLong_AsSsize_t(item) : -2;
            Py_DECREF(item);
            if (u == -1 && PyErr_Occurred()) {
                Py_DECREF(it);
                return -1;
            }
            if (u < 0 || u >= n || pos >= total) {
                PyErr_Format(u == -2 ? PyExc_TypeError : PyExc_ValueError,
                             "remaining[%zd] must hold ints in [0, %zd)", v,
                             n);
                Py_DECREF(it);
                return -1;
            }
            w->nbr[pos++] = u;
        }
        Py_DECREF(it);
        if (PyErr_Occurred())
            return -1;
    }
    w->start[n] = pos;
    return 0;
}

/* Stable insertion sort of order[0..n) by (degree, key). */
static void
walk_sort(Walk *w, Py_ssize_t *order, const double *key, Py_ssize_t n)
{
    Py_ssize_t i, j;
    for (i = 0; i < n; i++) {
        Py_ssize_t v = i;
        Py_ssize_t dv = w->start[v + 1] - w->start[v];
        for (j = i; j > 0; j--) {
            Py_ssize_t u = order[j - 1];
            Py_ssize_t du = w->start[u + 1] - w->start[u];
            if (du < dv || (du == dv && key[u] <= key[v]))
                break;
            order[j] = u;
        }
        order[j] = v;
    }
}

static PyObject *
c_random_perfect_matching(PyObject *Py_UNUSED(mod), PyObject *const *args,
                          Py_ssize_t nargs)
{
    PyObject *remaining, *rng, *sets = NULL, *random_fn = NULL,
        *result = NULL;
    Py_ssize_t n, v, i, walk_limit = 2000;
    Py_ssize_t *order = NULL;
    double *key = NULL;
    Walk w = {NULL, NULL, NULL, NULL, NULL};

    if (nargs < 2 || nargs > 3) {
        PyErr_SetString(PyExc_TypeError,
                        "random_perfect_matching(remaining, rng, "
                        "walk_limit=2000)");
        return NULL;
    }
    remaining = args[0];
    rng = args[1];
    if (nargs == 3) {
        walk_limit = PyNumber_AsSsize_t(args[2], NULL); /* clamps */
        if (walk_limit == -1 && PyErr_Occurred())
            return NULL;
    }
    if (!PyList_Check(remaining)) {
        PyErr_Format(PyExc_TypeError, "remaining must be a list, not %.100s",
                     Py_TYPE(remaining)->tp_name);
        return NULL;
    }
    sets = PyList_AsTuple(remaining);
    if (sets == NULL)
        return NULL;
    n = PyTuple_GET_SIZE(sets);
    w.start = PyMem_New(Py_ssize_t, n + 1);
    w.partner = PyMem_New(Py_ssize_t, n > 0 ? n : 1);
    w.pool = PyMem_New(Py_ssize_t, n > 0 ? n : 1);
    order = PyMem_New(Py_ssize_t, n > 0 ? n : 1);
    key = PyMem_New(double, n > 0 ? n : 1);
    if (w.start == NULL || w.partner == NULL || w.pool == NULL ||
        order == NULL || key == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (walk_read(&w, sets, n) < 0)
        goto done;
    random_fn = PyObject_GetAttrString(rng, "random");
    if (random_fn == NULL)
        goto done;
    w.getrandbits = PyObject_GetAttrString(rng, "getrandbits");
    if (w.getrandbits == NULL)
        goto done;

    for (v = 0; v < n; v++) {
        PyObject *draw = PyObject_CallNoArgs(random_fn);
        if (draw == NULL)
            goto done;
        key[v] = PyFloat_Check(draw) ? PyFloat_AS_DOUBLE(draw) : -1.0;
        Py_DECREF(draw);
        if (!(key[v] >= 0.0 && key[v] < 1.0)) {
            PyErr_SetString(PyExc_ValueError,
                            "rng.random() must return a float in [0, 1)");
            goto done;
        }
        w.partner[v] = -1;
    }
    walk_sort(&w, order, key, n);

    for (i = 0; i < n; i++) {
        Py_ssize_t nf, cur, step, pick;
        v = order[i];
        if (w.partner[v] >= 0)
            continue;
        nf = walk_free(&w, v);
        if (nf) {
            if ((pick = walk_randbelow(&w, nf)) < 0)
                goto done;
            w.partner[v] = w.pool[pick];
            w.partner[w.pool[pick]] = v;
            continue;
        }
        cur = v;
        for (step = 0; step < walk_limit; step++) {
            Py_ssize_t nb, displaced;
            Py_ssize_t deg = w.start[cur + 1] - w.start[cur];
            if (deg == 0)
                goto none;
            if ((pick = walk_randbelow(&w, deg)) < 0)
                goto done;
            nb = w.nbr[w.start[cur] + pick];
            displaced = w.partner[nb];
            w.partner[cur] = nb;
            w.partner[nb] = cur;
            if (displaced < 0 || displaced == cur)
                break;
            w.partner[displaced] = -1;
            nf = walk_free(&w, displaced);
            if (nf) {
                if ((pick = walk_randbelow(&w, nf)) < 0)
                    goto done;
                w.partner[displaced] = w.pool[pick];
                w.partner[w.pool[pick]] = displaced;
                break;
            }
            cur = displaced;
        }
        if (step >= walk_limit)
            goto none;
    }
    for (v = 0; v < n; v++)
        if (w.partner[v] < 0 || w.partner[v] == v)
            goto none;
    for (v = 0; v < n; v++)
        if (w.partner[w.partner[v]] != v)
            goto none;
    result = PyList_New(n);
    if (result == NULL)
        goto done;
    for (v = 0; v < n; v++) {
        PyObject *p = PyLong_FromSsize_t(w.partner[v]);
        if (p == NULL) {
            Py_CLEAR(result);
            goto done;
        }
        PyList_SET_ITEM(result, v, p);
    }
    goto done;
none:
    Py_INCREF(Py_None);
    result = Py_None;
done:
    Py_XDECREF(sets);
    Py_XDECREF(random_fn);
    Py_XDECREF(w.getrandbits);
    PyMem_Free(w.nbr);
    PyMem_Free(w.start);
    PyMem_Free(w.partner);
    PyMem_Free(w.pool);
    PyMem_Free(order);
    PyMem_Free(key);
    return result;
}

/* ----------------------------------------------------------------- module */

static PyMethodDef module_fns[] = {
    {"init", (PyCFunction)c_init, METH_O,
     "Capture slot offsets, sentinels and Python fallbacks."},
    {"register", (PyCFunction)c_register, METH_VARARGS,
     "Register the CK* classes for exact-type fast paths."},
    {"make_dispatch", (PyCFunction)c_make_dispatch, METH_VARARGS,
     "Build the fused C dispatch callable for a switch."},
    {"random_perfect_matching", (PyCFunction)c_random_perfect_matching,
     METH_FASTCALL,
     "random_perfect_matching(remaining, rng, walk_limit=2000): the exact\n"
     "compiled twin of repro.core.matchings._random_perfect_matching."},
    {NULL, NULL, 0, NULL}};

/* Methods exported as instancemethod descriptors (class-dict rebinding). */
static PyMethodDef m_at = {"at", (PyCFunction)c_sim_at, METH_FASTCALL,
                           "Compiled Simulator.at."};
static PyMethodDef m_after = {"after", (PyCFunction)c_sim_after,
                              METH_FASTCALL, "Compiled Simulator.after."};
static PyMethodDef m_run = {"run", (PyCFunction)c_sim_run,
                            METH_VARARGS | METH_KEYWORDS,
                            "Compiled Simulator.run."};
static PyMethodDef m_enqueue = {"enqueue", (PyCFunction)c_port_enqueue,
                                METH_FASTCALL, "Compiled Port.enqueue."};
static PyMethodDef m_kick = {"_kick", (PyCFunction)c_port_kick, METH_FASTCALL,
                             "Compiled Port._kick."};
static PyMethodDef m_receive = {"receive", (PyCFunction)c_host_receive,
                                METH_FASTCALL, "Compiled Host.receive."};
static PyMethodDef m_src_on_packet = {
    "src_on_packet", (PyCFunction)c_src_on_packet, METH_FASTCALL,
    "Compiled NdpSource.on_packet."};
static PyMethodDef m_sink_on_packet = {
    "sink_on_packet", (PyCFunction)c_sink_on_packet, METH_FASTCALL,
    "Compiled NdpSink.on_packet."};
static PyMethodDef m_sink_emit_pull = {
    "sink_emit_pull", (PyCFunction)c_sink_emit_pull, METH_FASTCALL,
    "Compiled NdpSink.emit_pull."};
static PyMethodDef m_pacer_tick = {"pacer_tick", (PyCFunction)c_pacer_tick,
                                   METH_FASTCALL,
                                   "Compiled PullPacer._tick."};

/* Add def as an instancemethod module attribute; when `keep` is non-NULL
 * the underlying PyCFunction is also stored there (new reference) so hot
 * paths can recognise bound methods of it. */
static int
add_instancemethod(PyObject *m, PyMethodDef *def, PyObject **keep)
{
    PyObject *f = PyCFunction_New(def, NULL);
    PyObject *im;
    if (f == NULL)
        return -1;
    im = PyInstanceMethod_New(f);
    if (im == NULL) {
        Py_DECREF(f);
        return -1;
    }
    if (keep != NULL) {
        Py_XDECREF(*keep);
        *keep = f; /* transfer our ref */
    }
    else
        Py_DECREF(f);
    if (PyModule_AddObject(m, def->ml_name, im) < 0) {
        Py_DECREF(im);
        return -1;
    }
    return 0;
}

static struct PyModuleDef ckernel_module = {
    PyModuleDef_HEAD_INIT,
    "repro.net.kernel._ckernel",
    "Compiled kernel: enqueue/serialize/dispatch in C over the pure-Python\n"
    "engine's __slots__ layout, and the exact factorization walk.\n"
    "See repro.net.kernel.",
    -1,
    module_fns,
};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    PyObject *m;

    if (PyType_Ready(&EventHeap_Type) < 0)
        return NULL;
    m = PyModule_Create(&ckernel_module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&EventHeap_Type);
    if (PyModule_AddObject(m, "EventHeap", (PyObject *)&EventHeap_Type) < 0) {
        Py_DECREF(&EventHeap_Type);
        goto fail;
    }
#ifdef CKERNEL_SOURCE_SHA256
    /* setup.py passes the sha256 of this file; repro.net.kernel refuses a
     * module whose hash differs from the _ckernel.c beside it. */
    if (PyModule_AddStringConstant(m, "SOURCE_SHA256", CKERNEL_SOURCE_SHA256) <
        0)
        goto fail;
#endif
    s_receive_cb = PyUnicode_InternFromString("receive_cb");
    s_receive = PyUnicode_InternFromString("receive");
    s_popleft = PyUnicode_InternFromString("popleft");
    s_append = PyUnicode_InternFromString("append");
    s_on_packet = PyUnicode_InternFromString("on_packet");
    s_enqueue = PyUnicode_InternFromString("enqueue");
    s_add = PyUnicode_InternFromString("add");
    s_after = PyUnicode_InternFromString("after");
    s_request = PyUnicode_InternFromString("request");
    s_emit_pull = PyUnicode_InternFromString("emit_pull");
    s_finished = PyUnicode_InternFromString("finished");
    s_payload_bytes = PyUnicode_InternFromString("payload_bytes");
    s_delivered = PyUnicode_InternFromString("delivered");
    s_now = PyUnicode_InternFromString("now");
    s_flow_id = PyUnicode_InternFromString("flow_id");
    s_src_host = PyUnicode_InternFromString("src_host");
    s_dst_host = PyUnicode_InternFromString("dst_host");
    s_size_bytes = PyUnicode_InternFromString("size_bytes");
    s_end_ps = PyUnicode_InternFromString("end_ps");
    s_retransmissions = PyUnicode_InternFromString("retransmissions");
    s_value = PyUnicode_InternFromString("value");
    if (s_receive_cb == NULL || s_receive == NULL || s_popleft == NULL ||
        s_append == NULL || s_on_packet == NULL || s_enqueue == NULL ||
        s_add == NULL || s_after == NULL || s_request == NULL ||
        s_emit_pull == NULL || s_finished == NULL ||
        s_payload_bytes == NULL || s_delivered == NULL || s_now == NULL ||
        s_flow_id == NULL || s_src_host == NULL || s_dst_host == NULL ||
        s_size_bytes == NULL || s_end_ps == NULL ||
        s_retransmissions == NULL || s_value == NULL)
        goto fail;
    g_empty = PyTuple_New(0);
    g_src_salt = PyLong_FromLongLong(0x9E3779B9LL);
    g_zero = PyLong_FromLong(0);
    g_one = PyLong_FromLong(1);
    if (g_empty == NULL || g_src_salt == NULL || g_zero == NULL ||
        g_one == NULL)
        goto fail;
    if (add_instancemethod(m, &m_at, NULL) < 0 ||
        add_instancemethod(m, &m_after, NULL) < 0 ||
        add_instancemethod(m, &m_run, NULL) < 0 ||
        add_instancemethod(m, &m_enqueue, &g_cf_enqueue) < 0 ||
        add_instancemethod(m, &m_kick, NULL) < 0 ||
        add_instancemethod(m, &m_receive, NULL) < 0 ||
        add_instancemethod(m, &m_src_on_packet, NULL) < 0 ||
        add_instancemethod(m, &m_sink_on_packet, NULL) < 0 ||
        add_instancemethod(m, &m_sink_emit_pull, NULL) < 0 ||
        add_instancemethod(m, &m_pacer_tick, NULL) < 0)
        goto fail;
    return m;
fail:
    Py_DECREF(m);
    return NULL;
}
