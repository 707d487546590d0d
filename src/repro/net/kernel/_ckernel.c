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
 * Engine design: ONE data layout, TWO method implementations — except
 * for the event heap, the queues and the native tails. Every function
 * reads and writes the existing `__slots__` of the pure-Python engine
 * classes (Simulator / Port / Packet / Host / SwitchNode / the NDP
 * endpoints / RotorLB's agent, flows and bulk sink / FlowRecord and
 * StatsCollector) through member-descriptor offsets captured at init
 * time. The
 * pure-Python engine therefore remains the differential oracle: a
 * REPRO_KERNEL=c run must be bit-identical to =py in every observable.
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
 * the simulator's counters, the ports' other slots, the packets, the
 * callbacks and their args tuples. Python code that schedules onto a
 * compiled simulator goes through sim.at / sim.after, never through
 * heapq.
 *
 * The native tails: init() derives SimTail from Simulator and PortTail
 * from Port (see the native-tails section), and CKSimulator and CKPort
 * subclass them. A tail appends int64 fields to the object: the clock of
 * a simulator; the line-free time, the three byte counts, the kick flag
 * and the serializer and queue constants of a port. Getset descriptors
 * named after the base slots they shadow let Python read and write them
 * unchanged, and the kernel reads and writes them directly, so a hop
 * boxes no clock, line-free time or byte count and unboxes no constant.
 *
 * The queues: a compiled port keeps native Fifo rings in its three
 * priority-queue slots, a native Ledger of int64 (start_ps, size) pairs
 * as its committed-control ledger and native int64 PortCounters as its
 * `stats`; a compiled NDP source's retransmit queue and a compiled
 * pacer's PULL tokens are Fifos too (see the native-queues section).
 * kernel/engine.py installs them at construction, the way CKSimulator
 * installs its EventHeap. A queued hop therefore pushes, pops and counts
 * on C structs: no by-name deque call, no ledger tuple, no boxed
 * counter. Each type offers the Python bodies the API they use on the
 * object it replaces, so the Python methods that still run on compiled
 * objects (queued_bytes and busy, from RotorLB's failure path and from
 * telemetry) work on it unchanged.
 *
 * Routing is data: every switch router is a node.RouteTable and every
 * fault-free rotor-port resolver a link.SliceResolver, both plain Python
 * classes whose calls are the oracle. The dispatch and the serializer
 * interpret an exact instance natively (see the dispatch section).
 *
 * RotorLB is compiled too (see its section): a fault-free agent's slice
 * step, its relay intake and the bulk sink run here, and both sinks count
 * deliveries through one twin of StatsCollector.delivered. So no
 * fault-free packet enters a Python frame; what a run still calls in
 * Python is slice-boundary closures, flow starts, drop handlers and
 * anything failure-armed.
 *
 * The contract: the compiled engine is a closed world. A compiled method
 * runs only on what engine_classes("c") builds: the CK* classes
 * registered by kernel/engine.py, exactly, on a CKSimulator and with the
 * native queues, ledger and counters engine.py installs; exact Packet,
 * FlowRecord, StatsCollector and BulkFlow objects; and a line rate that
 * is a whole number of ps per byte (CKPort refuses anything else at
 * construction). Every other object makes the call raise one TypeError
 * naming REPRO_KERNEL=py (outside(), below), before the kernel writes
 * anything for that object; no Python body runs in its place. The exact
 * type checks behind it are also what makes each struct cast and offset
 * read safe. Python code that swaps a native slot while a call is running
 * (a resolver, a drop handler) gets need_native's RuntimeError instead.
 *
 * What the kernel still calls in Python is these seams, and only these:
 *  - the failure seam: a route table's `fallback`, any port resolver that
 *    is not a SliceResolver, and RotorLBAgent.on_slice (g_py_on_slice)
 *    for an agent that is disabled, has a failure view or forced relay;
 *  - the bulk-drop (`on_bulk_drop`), undeliverable (`_undeliv_cb`) and
 *    relay (a route table's `relay`) callbacks;
 *  - packet.acquire (g_py_acquire) when the free list is empty: the one
 *    place a Packet is constructed;
 *  - a table's own Python call, when table_route or slice_resolve cannot
 *    prove a value in range: a malformed table raises the oracle's error;
 *  - the duck-typed calls the Python bodies make the same way: a delivery
 *    target's `receive_cb`, else its `receive`, and `enqueue` on an egress
 *    that is not a compiled port;
 *  - Simulator._past_error (g_py_past_error), which builds the error a
 *    schedule into the past raises.
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
    Py_ssize_t sim, resolver, trimming, on_undeliverable, on_bulk_drop, stats,
        q_control, q_data, q_bulk, target, committed_control, deliver,
        kick_cb, undeliv_cb;
} PortOffsets;

typedef struct {
    Py_ssize_t flow_id, kind, src_host, dst_host, seq, size_bytes, priority,
        slice_stamp, salt, hops, next_rack, relay_to, recv_args, pooled;
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
    Py_ssize_t rack, hosts_per_rack, host_ports, options, bumps, relay, sim,
        slice_ps, fallback;
} RouteTableOffsets;

typedef struct {
    Py_ssize_t slice_ps, peers, dark_from;
} SliceResolverOffsets;

typedef struct {
    Py_ssize_t flow_id, src_host, dst_host, size_bytes, end_ps,
        delivered_bytes, retransmissions;
} RecordOffsets;

typedef struct {
    Py_ssize_t flows, throughput_bin_ps, bins;
} CollectorOffsets;

typedef struct {
    Py_ssize_t hosts_per_rack, uplinks, slice_payload_bytes, relay_cap_bytes,
        enable_vlb, active_by_slice, budget_template, local_flows,
        local_backlog, relay_q, relay_bytes, host_budget, peers,
        vlb_bytes_sent, direct_bytes_sent, disabled, failure_view,
        relay_vlb_dsts;
} AgentOffsets;

typedef struct {
    Py_ssize_t record, payload_per_packet, unsent_bytes, next_seq;
} BulkFlowOffsets;

typedef struct {
    Py_ssize_t sim, record, stats, received;
} BulkSinkOffsets;

static SimOffsets S;
static PortOffsets P;
static PacketOffsets K;
static HostOffsets H;
static SwitchOffsets W;
static SourceOffsets NS;
static SinkOffsets NK;
static PacerOffsets PP;
static RouteTableOffsets RT;
static SliceResolverOffsets SR;
static RecordOffsets R;
static CollectorOffsets SC;
static AgentOffsets LB;
static BulkFlowOffsets BF;
static BulkSinkOffsets BK;

/* Sentinels / enum members / shared objects (all owned references). */
static PyObject *g_lazy;         /* link._LAZY */
static PyObject *g_consumed;     /* node.CONSUMED */
static PyObject *g_prio_control, *g_prio_low, *g_prio_bulk;
static PyObject *g_kind_data, *g_kind_header;
static PyObject *g_kind_ack, *g_kind_nack, *g_kind_pull;
static PyObject *g_ack_val, *g_nack_val, *g_pull_val; /* kind.value ints */
static PyObject *g_src_salt; /* 0x9E3779B9: NdpSource._emit salt constant */
static PyObject *g_zero;
static long long g_header_ll; /* HEADER_BYTES as C int */
static PyObject *g_pool;         /* packet._POOL (the module-global list) */
static long g_pool_max;
static long long g_max_hops;
static PyObject *g_header_bytes; /* packet.HEADER_BYTES int object */
static long long g_mtu_ll;       /* packet.MTU_BYTES */
static PyObject *g_empty;        /* () */
static PyObject *g_minus_one;    /* -1, deque.rotate's round-robin step */
/* collections.deque's append, popleft and rotate, called unbound on the
 * agent's exact deques. */
static PyObject *g_dq_append, *g_dq_popleft, *g_dq_rotate;

/* The Python the kernel calls besides the seams' own objects (see the
 * header): the past-scheduling error, the Packet constructor path and the
 * slice step of a failure-armed agent (unbound functions). */
static PyObject *g_py_past_error, *g_py_acquire, *g_py_on_slice;

/* The exact classes the contract admits: the CK classes registered by
 * kernel/engine.py, the packet, the routing tables (interpreted natively),
 * the flow bookkeeping and RotorLB's flows (read by offset). */
static PyTypeObject *t_packet;
static PyTypeObject *t_cksim, *t_ckport, *t_ckhost, *t_ckswitch;
static PyTypeObject *t_cksrc, *t_cksink, *t_ckpacer;
static PyTypeObject *t_route_table, *t_slice_resolver;
static PyTypeObject *t_record, *t_collector, *t_ckagent, *t_bulkflow,
    *t_ckbulksink, *t_deque;

/* The PyCFunction behind the exported `enqueue` instancemethod — lets the
 * NDP send path recognise `ckport.enqueue` bound methods and call the C
 * implementation without going through the method object. */
static PyObject *g_cf_enqueue;

/* Interned names: the duck-typed delivery and egress calls, and
 * PacketKind's `value`. */
static PyObject *s_receive_cb, *s_receive, *s_enqueue, *s_value;

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

/* The one TypeError the kernel raises for an object outside its contract
 * (see the header): `what` names the object's role, `o` is the object
 * (NULL: an unset slot). Before init() no object is inside the contract,
 * and the error says that instead. Returns -1. Marked cold: its callers
 * are checks on every hop, whose failure paths the compiler then keeps
 * out of the hot code. */
static __attribute__((cold)) int
outside(const char *what, PyObject *o)
{
    if (!g_ready) {
        PyErr_SetString(PyExc_RuntimeError,
                        "ckernel: init() has not run; the compiled engine "
                        "methods work once repro.net.kernel.engine is "
                        "imported");
        return -1;
    }
    PyErr_Format(PyExc_TypeError,
                 "ckernel: %s (%.100s) is outside the compiled kernel's "
                 "contract, which admits only what engine_classes(\"c\") "
                 "builds; run with REPRO_KERNEL=py",
                 what, o == NULL ? "unset" : Py_TYPE(o)->tp_name);
    return -1;
}

/* 0 when `o` is exactly a `type`, else the contract TypeError. */
static inline int
need_type(PyObject *o, PyTypeObject *type, const char *what)
{
    return o != NULL && Py_TYPE(o) == type ? 0 : outside(what, o);
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

/* v as int64 when it is an exact int that fits: 1, else 0. Never sets
 * an exception: a table interpreter hands anything else to the table's own
 * Python call, and RotorLB's entry checks refuse it. */
static inline int
exact_ll(PyObject *v, long long *out)
{
    int overflow;
    if (v == NULL || !PyLong_CheckExact(v))
        return 0;
    *out = PyLong_AsLongLongAndOverflow(v, &overflow);
    return !overflow;
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

/* tp_new of every native type here: no arguments, and an empty, zeroed
 * object (GC-tracked when its type is). */
static PyObject *
native_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    if (PyTuple_GET_SIZE(args) != 0 ||
        (kwds != NULL && PyDict_GET_SIZE(kwds) != 0)) {
        PyErr_Format(PyExc_TypeError, "%.100s() takes no arguments",
                     type->tp_name);
        return NULL;
    }
    return type->tp_alloc(type, 0);
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
    .tp_new = native_new,
};

/* --------------------------------------------------------- native queues
 *
 * kernel/engine.py installs these in existing slots at construction: a
 * compiled port's three priority queues are Fifos, its committed-control
 * ledger a Ledger and its `stats` a PortCounters; a compiled NDP source's
 * retransmit queue and a compiled pacer's PULL tokens are Fifos. Each type
 * offers exactly what the pure-Python bodies use on the deque, deque of
 * (start_ps, size) tuples or PortStats it replaces, so the Python methods
 * that still run on a compiled object run unchanged on it; the kernel
 * itself pushes, pops and counts on the C structs.
 */

/* A ring of object references; cap is 0 or a power of two. */
typedef struct {
    PyObject_HEAD
    PyObject **items; /* owned references */
    Py_ssize_t head, len, cap;
} Fifo;

static PyTypeObject Fifo_Type;

/* Append item (increfed). */
static int
fifo_push(Fifo *q, PyObject *item)
{
    if (q->len == q->cap) {
        Py_ssize_t cap = q->cap ? 2 * q->cap : 8, i;
        PyObject **items = PyMem_New(PyObject *, cap);
        if (items == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        for (i = 0; i < q->len; i++)
            items[i] = q->items[(q->head + i) & (q->cap - 1)];
        PyMem_Free(q->items);
        q->items = items;
        q->head = 0;
        q->cap = cap;
    }
    Py_INCREF(item);
    q->items[(q->head + q->len) & (q->cap - 1)] = item;
    q->len++;
    return 0;
}

/* Pop the oldest item, whose reference passes to the caller. The ring
 * must be non-empty. */
static inline PyObject *
fifo_pop(Fifo *q)
{
    PyObject *item = q->items[q->head];
    q->head = (q->head + 1) & (q->cap - 1);
    q->len--;
    return item;
}

static int
fifo_traverse(Fifo *q, visitproc visit, void *arg)
{
    Py_ssize_t i;
    for (i = 0; i < q->len; i++)
        Py_VISIT(q->items[(q->head + i) & (q->cap - 1)]);
    return 0;
}

static int
fifo_clear(Fifo *q)
{
    PyObject **items = q->items;
    Py_ssize_t i, head = q->head, n = q->len, mask = q->cap - 1;
    /* Detach before releasing: a finalizer may append to the ring. */
    q->items = NULL;
    q->head = q->len = q->cap = 0;
    for (i = 0; i < n; i++)
        Py_DECREF(items[(head + i) & mask]);
    PyMem_Free(items);
    return 0;
}

static void
fifo_dealloc(Fifo *q)
{
    PyObject_GC_UnTrack(q);
    fifo_clear(q);
    Py_TYPE(q)->tp_free((PyObject *)q);
}

static Py_ssize_t
fifo_length(Fifo *q)
{
    return q->len;
}

static PyObject *
fifo_append(Fifo *q, PyObject *item)
{
    if (fifo_push(q, item) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
fifo_popleft(Fifo *q, PyObject *Py_UNUSED(ignored))
{
    if (q->len == 0) {
        PyErr_SetString(PyExc_IndexError, "pop from an empty Fifo");
        return NULL;
    }
    return fifo_pop(q);
}

static PySequenceMethods fifo_as_sequence = {
    .sq_length = (lenfunc)fifo_length,
};

static PyMethodDef fifo_methods[] = {
    {"append", (PyCFunction)fifo_append, METH_O, "Add an item at the back."},
    {"popleft", (PyCFunction)fifo_popleft, METH_NOARGS,
     "Remove and return the front item; IndexError when empty."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject Fifo_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.net.kernel._ckernel.Fifo",
    .tp_basicsize = sizeof(Fifo),
    .tp_dealloc = (destructor)fifo_dealloc,
    .tp_as_sequence = &fifo_as_sequence,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Native FIFO of object references: append, popleft and "
              "len(), as a deque offers them.",
    .tp_traverse = (traverseproc)fifo_traverse,
    .tp_clear = (inquiry)fifo_clear,
    .tp_methods = fifo_methods,
    .tp_new = native_new,
};

/* The committed-control ledger: a ring of int64 (start_ps, size) pairs.
 * It holds no objects, so it is not GC-tracked. */
typedef struct {
    long long start, size;
} Commit;

typedef struct {
    PyObject_HEAD
    Commit *ring;
    Py_ssize_t head, len, cap; /* cap is 0 or a power of two */
} Ledger;

static PyTypeObject Ledger_Type;

static int
ledger_push(Ledger *l, long long start, long long size)
{
    Commit *c;
    if (l->len == l->cap) {
        Py_ssize_t cap = l->cap ? 2 * l->cap : 8, i;
        Commit *ring = PyMem_New(Commit, cap);
        if (ring == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        for (i = 0; i < l->len; i++)
            ring[i] = l->ring[(l->head + i) & (l->cap - 1)];
        PyMem_Free(l->ring);
        l->ring = ring;
        l->head = 0;
        l->cap = cap;
    }
    c = &l->ring[(l->head + l->len) & (l->cap - 1)];
    c->start = start;
    c->size = size;
    l->len++;
    return 0;
}

/* The entry at offset i from the front as a (start_ps, size) tuple. */
static PyObject *
ledger_item(Ledger *l, Py_ssize_t i)
{
    const Commit *c;
    if (i < 0 || i >= l->len) {
        PyErr_SetString(PyExc_IndexError, "Ledger index out of range");
        return NULL;
    }
    c = &l->ring[(l->head + i) & (l->cap - 1)];
    return Py_BuildValue("(LL)", c->start, c->size);
}

static void
ledger_dealloc(Ledger *l)
{
    PyMem_Free(l->ring);
    Py_TYPE(l)->tp_free((PyObject *)l);
}

static Py_ssize_t
ledger_length(Ledger *l)
{
    return l->len;
}

static PyObject *
ledger_append(Ledger *l, PyObject *pair)
{
    long long start, size;
    if (!PyTuple_Check(pair) || PyTuple_GET_SIZE(pair) != 2) {
        PyErr_Format(PyExc_TypeError,
                     "Ledger.append() takes a (start_ps, size) tuple, not "
                     "%.100s",
                     Py_TYPE(pair)->tp_name);
        return NULL;
    }
    if (as_ll(PyTuple_GET_ITEM(pair, 0), &start) < 0 ||
        as_ll(PyTuple_GET_ITEM(pair, 1), &size) < 0 ||
        ledger_push(l, start, size) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
ledger_popleft(Ledger *l, PyObject *Py_UNUSED(ignored))
{
    PyObject *front;
    if (l->len == 0) {
        PyErr_SetString(PyExc_IndexError, "pop from an empty Ledger");
        return NULL;
    }
    front = ledger_item(l, 0);
    if (front != NULL) {
        l->head = (l->head + 1) & (l->cap - 1);
        l->len--;
    }
    return front;
}

static PySequenceMethods ledger_as_sequence = {
    .sq_length = (lenfunc)ledger_length,
    .sq_item = (ssizeargfunc)ledger_item,
};

static PyMethodDef ledger_methods[] = {
    {"append", (PyCFunction)ledger_append, METH_O,
     "Commit a (start_ps, size) pair at the back."},
    {"popleft", (PyCFunction)ledger_popleft, METH_NOARGS,
     "Remove and return the front (start_ps, size) pair; IndexError when "
     "empty."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject Ledger_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.net.kernel._ckernel.Ledger",
    .tp_basicsize = sizeof(Ledger),
    .tp_dealloc = (destructor)ledger_dealloc,
    .tp_as_sequence = &ledger_as_sequence,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Native committed-control ledger of int64 (start_ps, size) "
              "pairs: append, popleft, [i] and len(), as a deque of tuples "
              "offers them.",
    .tp_methods = ledger_methods,
    .tp_new = native_new,
};

/* A port's six counters as int64, under link.PortStats's names. */
typedef struct {
    PyObject_HEAD
    long long sent_packets, sent_bytes, trimmed, dropped_control,
        dropped_bulk, undeliverable;
} PortCounters;

static PyTypeObject PortCounters_Type;

static PyMemberDef pc_members[] = {
    {"sent_packets", T_LONGLONG, offsetof(PortCounters, sent_packets), 0,
     NULL},
    {"sent_bytes", T_LONGLONG, offsetof(PortCounters, sent_bytes), 0, NULL},
    {"trimmed", T_LONGLONG, offsetof(PortCounters, trimmed), 0, NULL},
    {"dropped_control", T_LONGLONG, offsetof(PortCounters, dropped_control),
     0, NULL},
    {"dropped_bulk", T_LONGLONG, offsetof(PortCounters, dropped_bulk), 0,
     NULL},
    {"undeliverable", T_LONGLONG, offsetof(PortCounters, undeliverable), 0,
     NULL},
    {NULL, 0, 0, 0, NULL},
};

/* PortStats.counters(): all six counters as a dict, in member order. */
static PyObject *
pc_counters(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *d = PyDict_New();
    const PyMemberDef *m;
    if (d == NULL)
        return NULL;
    for (m = pc_members; m->name != NULL; m++) {
        PyObject *v =
            PyLong_FromLongLong(*(long long *)((char *)self + m->offset));
        if (v == NULL || PyDict_SetItemString(d, m->name, v) < 0) {
            Py_XDECREF(v);
            Py_DECREF(d);
            return NULL;
        }
        Py_DECREF(v);
    }
    return d;
}

static PyMethodDef pc_methods[] = {
    {"counters", (PyCFunction)pc_counters, METH_NOARGS,
     "All six counters as plain data (telemetry drain / summaries)."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject PortCounters_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.net.kernel._ckernel.PortCounters",
    .tp_basicsize = sizeof(PortCounters),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Native int64 port counters under link.PortStats's names, "
              "with its counters().",
    .tp_members = pc_members,
    .tp_methods = pc_methods,
    .tp_new = native_new,
};

/* The native object in slot `off` of `o`, re-read where it is used: an
 * entry check found it of `type`, and Python code run since (a resolver,
 * a handler) may have replaced it. RuntimeError then, as need_heap. */
static void *
need_native(PyObject *o, Py_ssize_t off, PyTypeObject *type)
{
    PyObject *v = SLOT(o, off);
    if (v == NULL || Py_TYPE(v) != type) {
        PyErr_Format(PyExc_RuntimeError,
                     "ckernel: a %.100s slot was replaced during a call",
                     type->tp_name);
        return NULL;
    }
    return v;
}

/* ---------------------------------------------------------- native tails
 *
 * init() derives SimTail from sim.Simulator and PortTail from link.Port
 * with PyType_FromSpecWithBases; kernel/engine.py's CKSimulator and CKPort
 * subclass them. A tail appends int64 fields after the base's slots, and
 * a getset descriptor named after the slot each field shadows serves
 * Python, so Port.__init__, the py bodies, queued_bytes, busy, RotorLB and
 * sim.now run unchanged; the shadowed slots stay allocated but unset. The
 * tails hold no object references: GC support, traverse and dealloc are
 * the base's. The kernel reads and writes the fields in place.
 */

typedef struct {
    long long now;
} SimTail;

typedef struct {
    long long busy_until, bytes_control, bytes_data, bytes_bulk, ps_per_byte,
        propagation_ps, data_queue_bytes, control_queue_bytes,
        bulk_queue_bytes;
    int kick_pending;
} PortTail;

/* Where each tail starts in an instance: its base's size rounded up to 8. */
static Py_ssize_t g_sim_tail, g_port_tail;
static PyTypeObject *t_simtail, *t_porttail;

#define SIM_TAIL(o) ((SimTail *)((char *)(o) + g_sim_tail))
#define PORT_TAIL(o) ((PortTail *)((char *)(o) + g_port_tail))

/* A getset closure: the tail a field is in, its offset there, its name. */
typedef struct {
    const Py_ssize_t *tail;
    Py_ssize_t offset;
    const char *name;
} TailField;

static inline void *
tail_field(PyObject *o, const TailField *f)
{
    return (char *)o + *f->tail + f->offset;
}

/* A value assigned to a tail field: an int that fits in int64. Anything
 * else fails here, where it is assigned, not at the first hop. */
static int
tail_value(PyObject *v, const TailField *f, long long *out)
{
    if (v == NULL) {
        PyErr_Format(PyExc_TypeError, "cannot delete %.100s", f->name);
        return -1;
    }
    if (!PyLong_Check(v)) {
        PyErr_Format(PyExc_TypeError, "%.100s must be an int, not %.100s",
                     f->name, Py_TYPE(v)->tp_name);
        return -1;
    }
    return as_ll(v, out);
}

static PyObject *
tail_get_ll(PyObject *o, void *closure)
{
    return PyLong_FromLongLong(*(long long *)tail_field(o, closure));
}

static int
tail_set_ll(PyObject *o, PyObject *v, void *closure)
{
    return tail_value(v, closure, (long long *)tail_field(o, closure));
}

static PyObject *
tail_get_flag(PyObject *o, void *closure)
{
    return PyBool_FromLong(*(int *)tail_field(o, closure));
}

static int
tail_set_flag(PyObject *o, PyObject *v, void *closure)
{
    long long x;
    if (tail_value(v, closure, &x) < 0)
        return -1;
    *(int *)tail_field(o, closure) = x != 0;
    return 0;
}

#define TAIL_LL(name, tail, type, field)                                      \
    {name, tail_get_ll, tail_set_ll, NULL,                                    \
     &(TailField){&tail, offsetof(type, field), name}}

static PyGetSetDef sim_tail_getset[] = {
    TAIL_LL("now", g_sim_tail, SimTail, now),
    {NULL, NULL, NULL, NULL, NULL},
};

static PyGetSetDef port_tail_getset[] = {
    TAIL_LL("_busy_until", g_port_tail, PortTail, busy_until),
    TAIL_LL("_bytes_control", g_port_tail, PortTail, bytes_control),
    TAIL_LL("_bytes_data", g_port_tail, PortTail, bytes_data),
    TAIL_LL("_bytes_bulk", g_port_tail, PortTail, bytes_bulk),
    TAIL_LL("_ps_per_byte", g_port_tail, PortTail, ps_per_byte),
    TAIL_LL("propagation_ps", g_port_tail, PortTail, propagation_ps),
    TAIL_LL("data_queue_bytes", g_port_tail, PortTail, data_queue_bytes),
    TAIL_LL("control_queue_bytes", g_port_tail, PortTail,
            control_queue_bytes),
    TAIL_LL("bulk_queue_bytes", g_port_tail, PortTail, bulk_queue_bytes),
    {"_kick_pending", tail_get_flag, tail_set_flag, NULL,
     &(TailField){&g_port_tail, offsetof(PortTail, kick_pending),
                  "_kick_pending"}},
    {NULL, NULL, NULL, NULL, NULL},
};

/* Build the tail type `name` on `base` into *type, with `size` bytes of
 * fields at *tail, after the base's slots, and publish it on the module.
 * A base with a __dict__, a __weakref__ or items would put them where
 * the tail goes, so it is refused. The type is built once: instances made
 * since have their fields where it put them, so a later init() must pass
 * the same base. */
static int
init_tail(PyObject *mod, PyObject *base, const char *name, const char *doc,
          size_t size, PyGetSetDef *getset, Py_ssize_t *tail,
          PyTypeObject **type)
{
    PyTypeObject *b = (PyTypeObject *)base;
    unsigned long extras = 0;

#ifdef Py_TPFLAGS_MANAGED_DICT
    extras |= Py_TPFLAGS_MANAGED_DICT;
#endif
#ifdef Py_TPFLAGS_MANAGED_WEAKREF
    extras |= Py_TPFLAGS_MANAGED_WEAKREF;
#endif
    if (*type != NULL) {
        if ((PyObject *)(*type)->tp_base != base) {
            PyErr_Format(PyExc_RuntimeError,
                         "ckernel init: %.100s is already built on another "
                         "base",
                         name);
            return -1;
        }
    }
    else if (!PyType_Check(base) || b->tp_dictoffset != 0 ||
             b->tp_weaklistoffset != 0 || b->tp_itemsize != 0 ||
             (b->tp_flags & extras)) {
        PyErr_Format(PyExc_TypeError,
                     "ckernel init: %.100s needs a base with __slots__ and "
                     "no __dict__, __weakref__ or items",
                     name);
        return -1;
    }
    else {
        PyType_Slot slots[] = {
            {Py_tp_getset, getset},
            {Py_tp_doc, (void *)doc},
            {0, NULL},
        };
        PyType_Spec spec = {name, 0, 0,
                            Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE, slots};
        PyObject *bases = PyTuple_Pack(1, base);
        if (bases == NULL)
            return -1;
        *tail = (b->tp_basicsize + 7) & ~(Py_ssize_t)7;
        spec.basicsize = (int)(*tail + (Py_ssize_t)size);
        *type = (PyTypeObject *)PyType_FromSpecWithBases(&spec, bases);
        Py_DECREF(bases);
        if (*type == NULL)
            return -1;
    }
    return PyModule_AddObjectRef(mod, strrchr(name, '.') + 1,
                                 (PyObject *)*type);
}

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

/* The contract's simulator: exactly a CKSimulator that owns its
 * EventHeap. 0, or the contract TypeError. */
static inline int
need_sim(PyObject *sim)
{
    if (need_type(sim, t_cksim, "the simulator") < 0)
        return -1;
    return sim_heap(sim) != NULL ? 0
                                 : outside("a simulator's _heap",
                                           SLOT(sim, S.heap));
}

/* sim_heap for a simulator that passed need_sim before Python code ran
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

/* sim.at(time_ps, callback, *args) on a contract simulator whose
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
    long long t;

    if (nargs < 3) {
        PyErr_SetString(PyExc_TypeError,
                        "at() requires (self, time_ps, callback, *args)");
        return NULL;
    }
    if (need_sim(args[0]) < 0 || as_ll(args[1], &t) < 0)
        return NULL;
    return schedule_call(args[0], t, SIM_TAIL(args[0])->now, args[1], args,
                         nargs);
}

static PyObject *
c_sim_after(PyObject *Py_UNUSED(mod), PyObject *const *args, Py_ssize_t nargs)
{
    long long delay, now, t;

    if (nargs < 3) {
        PyErr_SetString(PyExc_TypeError,
                        "after() requires (self, delay_ps, callback, *args)");
        return NULL;
    }
    if (need_sim(args[0]) < 0 || as_ll(args[1], &delay) < 0)
        return NULL;
    now = SIM_TAIL(args[0])->now;
    if (add_ll(now, delay, &t) < 0)
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
    SimTail *clock;
    long long processed = 0, until = 0, maxev = 0;
    int has_until, has_max, quiet;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O|OO:run", kwlist, &self,
                                     &until_obj, &max_obj))
        return NULL;
    if (need_sim(self) < 0)
        return NULL;
    has_until = until_obj != Py_None;
    has_max = max_obj != Py_None;
    if ((has_until && as_ll(until_obj, &until) < 0) ||
        (has_max && as_ll(max_obj, &maxev) < 0))
        return NULL;
    /* Held for the whole run: callbacks cannot free it under us. The
     * clock lives in self, which the caller holds. */
    h = sim_heap(self);
    Py_INCREF(h);
    clock = SIM_TAIL(self);

    while (h->len > 0) {
        Event e;
        PyObject *r;
        if (has_until && h->ev[0].time > until)
            break;
        if (has_max && processed >= maxev)
            break;
        eh_pop(h, &e);
        clock->now = e.time;
        r = PyObject_Call(e.cb, e.args, NULL);
        Py_DECREF(e.cb);
        Py_DECREF(e.args);
        if (r == NULL)
            goto done; /* events_processed not updated — as in Python */
        Py_DECREF(r);
        processed += 1;
    }
    quiet = h->len == 0 || (has_until && h->ev[0].time > until);
    if (has_until && clock->now < until && quiet &&
        (!has_max || processed < maxev))
        clock->now = until;
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

/* *bytes -= size, a byte count leaving a queue, or the int64
 * OverflowError. */
static inline int
sub_bytes(long long *bytes, long long size)
{
    if (__builtin_sub_overflow(*bytes, size, bytes)) {
        raise_int64_overflow();
        return -1;
    }
    return 0;
}

/* Lazy committed-control ledger settlement (mirror of _expire_committed):
 * drop every commitment whose wire entry is at or before `now`, and take
 * their bytes off _bytes_control in one write. */
static int
expire_committed(PortTail *t, Ledger *l, long long now)
{
    long long freed = 0;
    while (l->len > 0 && l->ring[l->head].start <= now) {
        if (add_ll(freed, l->ring[l->head].size, &freed) < 0)
            return -1;
        l->head = (l->head + 1) & (l->cap - 1);
        l->len--;
    }
    return sub_bytes(&t->bytes_control, freed);
}

/* A SliceResolver's far end at `start`, natively (link.py's
 * SliceResolver.__call__): 1 with *target set (borrowed; NULL when the
 * circuit is dark or the slice is an identity assignment), or 0 when some
 * value is not provably in range, so the caller calls the resolver. */
static int
slice_resolve(PyObject *resolver, long long start, PyObject **target)
{
    PyObject *peers = SLOT(resolver, SR.peers);
    PyObject *dark_from = SLOT(resolver, SR.dark_from);
    PyObject *peer;
    long long slice_ps, dark;
    Py_ssize_t cycle, s;

    if (peers == NULL || dark_from == NULL || !PyTuple_CheckExact(peers) ||
        !PyTuple_CheckExact(dark_from))
        return 0;
    cycle = PyTuple_GET_SIZE(peers);
    if (cycle == 0 || PyTuple_GET_SIZE(dark_from) != cycle || start < 0 ||
        !exact_ll(SLOT(resolver, SR.slice_ps), &slice_ps) || slice_ps <= 0)
        return 0;
    s = (Py_ssize_t)((start / slice_ps) % cycle);
    if (!exact_ll(PyTuple_GET_ITEM(dark_from, s), &dark))
        return 0;
    peer = PyTuple_GET_ITEM(peers, s);
    *target = (start % slice_ps >= dark || peer == Py_None) ? NULL : peer;
    return 1;
}

/* Resolve the delivery callback for a packet leaving `self` at start_ps.
 * Mirrors the deliver-resolution block shared by enqueue/_transmit.
 * On a dark circuit (*deliver_out left NULL, no error) the caller must
 * schedule the undeliverable event at `done`. Returns -1 on error. */
static int
resolve_deliver(PyObject *self, PyObject *packet, long long start,
                PyObject **deliver_out)
{
    PyObject *deliver = slot_get(self, P.deliver, "_deliver");
    *deliver_out = NULL;
    if (deliver == NULL)
        return -1;
    if (deliver == Py_None) {
        PyObject *resolver = slot_get(self, P.resolver, "resolver");
        PyObject *target, *start_obj;
        if (resolver == NULL)
            return -1;
        if (Py_TYPE(resolver) == t_slice_resolver &&
            slice_resolve(resolver, start, &target)) {
            if (target == NULL)
                return 0; /* dark circuit */
            Py_INCREF(target); /* borrowed from the table until here */
            deliver = get_deliver(target);
            Py_DECREF(target);
            if (deliver == NULL)
                return -1;
            *deliver_out = deliver; /* new ref */
            return 0;
        }
        /* Any other resolver (a failure-aware closure, a test double) is
         * called, as the Python engine does. */
        start_obj = PyLong_FromLongLong(start);
        if (start_obj == NULL)
            return -1;
        target =
            PyObject_CallFunctionObjArgs(resolver, packet, start_obj, NULL);
        Py_DECREF(start_obj);
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

/* stats.sent_packets += 1; stats.sent_bytes += size */
static int
count_sent(PyObject *self, long long size)
{
    PortCounters *c = need_native(self, P.stats, &PortCounters_Type);
    long long bytes;
    if (c == NULL || add_ll(c->sent_bytes, size, &bytes) < 0)
        return -1;
    c->sent_bytes = bytes;
    c->sent_packets++;
    return 0;
}

/* Put `packet` on the wire at start_ps (mirror of _transmit); returns
 * the line-free time or -1 on error. Caller guarantees _ps_per_byte > 0
 * and a heap simulator. */
static long long
c_transmit(PyObject *self, PyObject *sim, PyObject *packet, long long start)
{
    PortTail *t = PORT_TAIL(self);
    int err = 0;
    long long size = slot_ll(packet, K.size_bytes, "size_bytes", &err);
    long long done = 0, arrive;
    PyObject *deliver = NULL;

    if (err || wire_done(start, size, t->ps_per_byte, &done) < 0)
        return -1;
    t->busy_until = done;
    if (count_sent(self, size) < 0)
        return -1;
    if (resolve_deliver(self, packet, start, &deliver) < 0)
        return -1;
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
    if (add_ll(done, t->propagation_ps, &arrive) < 0) {
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

/* The contract's port, for enqueue, _kick and RotorLB: exactly a CKPort
 * on the contract's simulator, with an integral line rate (a zero
 * _ps_per_byte is the oracle's exact big-int division, which CKPort
 * refuses at construction) and the native queues, ledger and counters
 * that kernel/engine.py installs. 0 with *sim_out set, or the contract
 * TypeError. */
static inline int
need_port(PyObject *self, PyObject **sim_out)
{
    if (need_type(self, t_ckport, "the port") < 0)
        return -1;
    *sim_out = SLOT(self, P.sim);
    if (need_sim(*sim_out) < 0 ||
        need_type(SLOT(self, P.q_control), &Fifo_Type, "a port's _q_control") <
            0 ||
        need_type(SLOT(self, P.q_data), &Fifo_Type, "a port's _q_data") < 0 ||
        need_type(SLOT(self, P.q_bulk), &Fifo_Type, "a port's _q_bulk") < 0 ||
        need_type(SLOT(self, P.committed_control), &Ledger_Type,
                  "a port's _committed_control") < 0 ||
        need_type(SLOT(self, P.stats), &PortCounters_Type,
                  "a port's stats") < 0)
        return -1;
    return PORT_TAIL(self)->ps_per_byte != 0
               ? 0
               : outside("a port whose line rate is not a whole number of "
                         "ps per byte",
                         self);
}

static PyObject *
c_port_enqueue_impl(PyObject *self, PyObject *packet)
{
    PyObject *sim, *priority;
    PortCounters *stats;
    PortTail *t;
    long long size, now, queued;
    int err = 0, kick_pending;

    if (need_port(self, &sim) < 0 ||
        need_type(packet, t_packet, "the packet") < 0)
        return NULL;
    t = PORT_TAIL(self);
    priority = slot_get(packet, K.priority, "priority");
    if (priority == NULL)
        return NULL;
    size = slot_ll(packet, K.size_bytes, "size_bytes", &err);
    if (err)
        return NULL;
    if (priority == g_prio_low && SLOT(packet, K.kind) == g_kind_data) {
        if (add_ll(t->bytes_data, size, &queued) < 0)
            return NULL;
        if (queued > t->data_queue_bytes) {
            PyObject *trimming = slot_get(self, P.trimming, "trimming");
            int truth = trimming == NULL ? -1 : PyObject_IsTrue(trimming);
            if (truth < 0)
                return NULL;
            if (!truth)
                Py_RETURN_FALSE; /* drop-tail */
            stats = need_native(self, P.stats, &PortCounters_Type);
            if (stats == NULL)
                return NULL;
            /* packet.trim(), inlined: kind is DATA (guarded above). */
            slot_set(packet, K.kind, g_kind_header);
            slot_set(packet, K.size_bytes, g_header_bytes);
            slot_set(packet, K.priority, g_prio_control);
            stats->trimmed++;
            priority = g_prio_control;
            size = g_header_ll;
        }
    }
    now = SIM_TAIL(sim)->now;
    if (priority == g_prio_control) {
        Ledger *committed =
            need_native(self, P.committed_control, &Ledger_Type);
        if (committed == NULL ||
            (committed->len > 0 && expire_committed(t, committed, now) < 0) ||
            add_ll(t->bytes_control, size, &queued) < 0)
            return NULL;
        if (queued > t->control_queue_bytes) {
            stats = need_native(self, P.stats, &PortCounters_Type);
            if (stats == NULL)
                return NULL;
            stats->dropped_control++;
            Py_RETURN_FALSE;
        }
    }
    else if (priority == g_prio_bulk) {
        if (add_ll(t->bytes_bulk, size, &queued) < 0)
            return NULL;
        if (queued > t->bulk_queue_bytes) {
            PyObject *handler;
            stats = need_native(self, P.stats, &PortCounters_Type);
            if (stats == NULL)
                return NULL;
            stats->dropped_bulk++;
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
    kick_pending = t->kick_pending;
    if (!kick_pending && t->busy_until <= now) {
        /* Idle line, empty queues: transmit immediately (the single
         * hottest path in the engine). */
        long long done = 0, arrive;
        PyObject *deliver = NULL;
        if (wire_done(now, size, t->ps_per_byte, &done) < 0)
            return NULL;
        t->busy_until = done;
        if (count_sent(self, size) < 0 ||
            resolve_deliver(self, packet, now, &deliver) < 0)
            return NULL;
        if (deliver == NULL) {
            /* Dark circuit. */
            PyObject *undeliv = slot_get(self, P.undeliv_cb, "_undeliv_cb");
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
        if (add_ll(done, t->propagation_ps, &arrive) < 0) {
            Py_DECREF(deliver);
            return NULL;
        }
        {
            PyObject *recv_args = slot_get(packet, K.recv_args, "recv_args");
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
    /* Busy line (or kick pending): join the queue. */
    {
        Py_ssize_t qoff;
        long long *bytes;
        Fifo *q;
        if (priority == g_prio_control) {
            qoff = P.q_control;
            bytes = &t->bytes_control;
        }
        else if (priority == g_prio_low) {
            qoff = P.q_data;
            bytes = &t->bytes_data;
        }
        else {
            qoff = P.q_bulk;
            bytes = &t->bytes_bulk;
        }
        q = need_native(self, qoff, &Fifo_Type);
        if (q == NULL || fifo_push(q, packet) < 0 ||
            add_ll(*bytes, size, bytes) < 0)
            return NULL;
    }
    if (!kick_pending) {
        PyObject *kick_cb;
        t->kick_pending = 1;
        kick_cb = slot_get(self, P.kick_cb, "_kick_cb");
        if (kick_cb == NULL)
            return NULL;
        /* sim.at(self._busy_until, self._kick_cb): the past-time guard
         * holds (busy > now here, since the idle branch did not take). */
        if (schedule_heap(sim, t->busy_until, kick_cb, g_empty) < 0)
            return NULL;
    }
    Py_RETURN_TRUE;
}

/* A METH_FASTCALL method taking (self, arg): impl(self, arg). */
#define SELF_ARG_METHOD(wrapper, impl, usage)                                 \
    static PyObject *wrapper(PyObject *Py_UNUSED(mod), PyObject *const *args, \
                             Py_ssize_t nargs)                                \
    {                                                                         \
        if (nargs != 2) {                                                     \
            PyErr_SetString(PyExc_TypeError, usage);                          \
            return NULL;                                                      \
        }                                                                     \
        return impl(args[0], args[1]);                                        \
    }

SELF_ARG_METHOD(c_port_enqueue, c_port_enqueue_impl,
                "enqueue() takes (self, packet)")

/* port.enqueue(packet), its result dropped: the C implementation on a
 * compiled port; an egress that is not one is duck-typed, as the Python
 * bodies call it. */
static int
port_enqueue(PyObject *port, PyObject *packet)
{
    PyObject *r = Py_TYPE(port) == t_ckport
                      ? c_port_enqueue_impl(port, packet)
                      : PyObject_CallMethodOneArg(port, s_enqueue, packet);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* port.queued_bytes(Priority.BULK) of a contract port: settle the
 * committed-control ledger first as the Python method does, then read the
 * bulk count. */
static int
port_queued_bulk(PyObject *port, long long *out)
{
    PyObject *sim;
    PortTail *t;
    Ledger *l;
    if (need_port(port, &sim) < 0)
        return -1;
    t = PORT_TAIL(port);
    l = (Ledger *)SLOT(port, P.committed_control);
    if (l->len > 0 && expire_committed(t, l, SIM_TAIL(sim)->now) < 0)
        return -1;
    *out = t->bytes_bulk;
    return 0;
}

/* Start the front packet of a data or bulk queue (one per kick): out of
 * the queue and its byte count at once, then on the wire. */
static int
kick_one(PyObject *self, PyObject *sim, Fifo *q, long long *bytes,
         long long start)
{
    PyObject *packet = fifo_pop(q);
    int err = 0;
    long long size = slot_ll(packet, K.size_bytes, "size_bytes", &err);
    if (err || sub_bytes(bytes, size) < 0 ||
        (c_transmit(self, sim, packet, start) < 0 && PyErr_Occurred()))
        err = 1;
    Py_DECREF(packet);
    return err ? -1 : 0;
}

/* Commit the whole control queue back-to-back from `start`; each
 * delivery is pushed as its packet is committed. The queue and ledger
 * are held across the burst, as the Python body holds them in locals. */
static int
kick_control(PyObject *self, PyObject *sim, Fifo *q, long long start)
{
    Ledger *committed = need_native(self, P.committed_control, &Ledger_Type);
    int first = 1, rc = -1;

    if (committed == NULL)
        return -1;
    Py_INCREF(q);
    Py_INCREF(committed);
    while (q->len > 0) {
        PyObject *packet = fifo_pop(q);
        int err = 0;
        long long size = slot_ll(packet, K.size_bytes, "size_bytes", &err);
        if (!err) {
            if (first) {
                /* On the wire right now: out of the queue at once. */
                err = sub_bytes(&PORT_TAIL(self)->bytes_control, size) < 0;
                first = 0;
            }
            else
                /* Committed but not started: bytes stay in the admission
                 * ledger until the wire-entry time. */
                err = ledger_push(committed, start, size) < 0;
        }
        if (!err) {
            start = c_transmit(self, sim, packet, start);
            err = start < 0 && PyErr_Occurred();
        }
        Py_DECREF(packet);
        if (err)
            goto done;
    }
    rc = 0;
done:
    Py_DECREF(committed);
    Py_DECREF(q);
    return rc;
}

static PyObject *
c_port_kick(PyObject *Py_UNUSED(mod), PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *self, *sim;
    PortTail *t;
    Fifo *qc, *qd, *qb;
    long long start;
    int rc;

    if (nargs != 1) {
        PyErr_SetString(PyExc_TypeError, "_kick() takes (self)");
        return NULL;
    }
    self = args[0];
    if (need_port(self, &sim) < 0)
        return NULL;
    t = PORT_TAIL(self);
    t->kick_pending = 0;
    start = SIM_TAIL(sim)->now;
    qc = (Fifo *)SLOT(self, P.q_control);
    qd = (Fifo *)SLOT(self, P.q_data);
    qb = (Fifo *)SLOT(self, P.q_bulk);
    if (qc->len > 0)
        rc = kick_control(self, sim, qc, start);
    else if (qd->len > 0)
        rc = kick_one(self, sim, qd, &t->bytes_data, start);
    else if (qb->len > 0)
        rc = kick_one(self, sim, qb, &t->bytes_bulk, start);
    else
        Py_RETURN_NONE; /* kick only scheduled with work queued */
    if (rc < 0)
        return NULL;
    /* More work queued: schedule the next kick at the line-free time. */
    qc = need_native(self, P.q_control, &Fifo_Type);
    qd = need_native(self, P.q_data, &Fifo_Type);
    qb = need_native(self, P.q_bulk, &Fifo_Type);
    if (qc == NULL || qd == NULL || qb == NULL)
        return NULL;
    if (qc->len > 0 || qd->len > 0 || qb->len > 0) {
        PyObject *kick_cb;
        t->kick_pending = 1;
        kick_cb = slot_get(self, P.kick_cb, "_kick_cb");
        if (kick_cb == NULL)
            return NULL;
        if (schedule_heap(sim, t->busy_until, kick_cb, g_empty) < 0)
            return NULL;
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

static PyObject *src_on_packet(PyObject *self, PyObject *packet);
static PyObject *sink_on_packet(PyObject *self, PyObject *packet);
static PyObject *bulk_sink_on_packet(PyObject *self, PyObject *packet);

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
    if (need_type(self, t_ckhost, "the host") < 0 ||
        need_type(packet, t_packet, "the packet") < 0)
        return NULL;
    kind = SLOT(packet, K.kind);
    if (kind == g_kind_data || kind == g_kind_header)
        table = SLOT(self, H.sinks);
    else
        table = SLOT(self, H.sources);
    if (need_type(table, &PyDict_Type, "a host's endpoint table") < 0)
        return NULL;
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
        /* A compiled endpoint's on_packet (NDP source or sink, RotorLB's
         * bulk sink) is called directly, as do_send calls a compiled
         * port's enqueue; no other endpoint is inside the contract. The
         * dict holds the endpoint only by a borrowed reference here. */
        PyTypeObject *type = Py_TYPE(endpoint);
        PyObject *r;
        if (type != t_cksrc && type != t_cksink && type != t_ckbulksink) {
            outside("a host's endpoint", endpoint);
            return NULL;
        }
        Py_INCREF(endpoint);
        r = type == t_cksrc    ? src_on_packet(endpoint, packet)
            : type == t_cksink ? sink_on_packet(endpoint, packet)
                               : bulk_sink_on_packet(endpoint, packet);
        Py_DECREF(endpoint);
        if (r == NULL)
            return NULL;
        Py_DECREF(r);
    }
    if (release_packet(packet) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* --------------------------------------------------------------- dispatch
 *
 * Every router is a node.RouteTable, and this section is its native
 * interpreter: RouteTable.__call__ line for line, on the same object.
 * A fault-free hop therefore enters no Python frame; bulk relayed to
 * RotorLB reaches a compiled agent's accept_relay through the table's
 * `relay` bound method. While the table's `fallback` is set (failures armed),
 * the fallback closure is called instead, exactly as in Python, so the
 * failure seam stays zero-kernel-code.
 */

/* table_route's egress lookup: row[dst_rack] when row is a tuple of
 * tuples long enough (borrowed), else NULL. */
static inline PyObject *
table_ports(PyObject *row, long long dst_rack)
{
    PyObject *ports;
    if (!PyTuple_CheckExact(row) || dst_rack >= PyTuple_GET_SIZE(row))
        return NULL;
    ports = PyTuple_GET_ITEM(row, dst_rack);
    return PyTuple_CheckExact(ports) ? ports : NULL;
}

/* Route `packet` through a fault-free RouteTable whose TTL check passed
 * at `hops`. 1 with *out a new reference to the egress port, Py_None
 * (drop) or CONSUMED; -1 on error; 0 when some value is not provably in
 * range. Every check precedes the first write, so 0 leaves the packet
 * untouched and the caller runs the Python dispatch instead. */
static int
table_route(PyObject *table, PyObject *packet, long long hops,
            PyObject **out)
{
    PyObject *relay, *options, *bumps, *bump, *ports;
    long long dst_host, hpr, rack, dst_rack, salt, slice_ps, stamp = 0;
    int restamp = 0;

    if (!exact_ll(SLOT(packet, K.dst_host), &dst_host) || dst_host < 0 ||
        !exact_ll(SLOT(table, RT.hosts_per_rack), &hpr) || hpr <= 0 ||
        !exact_ll(SLOT(table, RT.rack), &rack))
        return 0;
    dst_rack = dst_host / hpr;
    if (dst_rack == rack) {
        PyObject *host_ports = SLOT(table, RT.host_ports);
        long long i = dst_host % hpr;
        if (host_ports == NULL || !PyTuple_CheckExact(host_ports) ||
            i >= PyTuple_GET_SIZE(host_ports))
            return 0;
        *out = PyTuple_GET_ITEM(host_ports, i);
        Py_INCREF(*out);
        return 1;
    }
    relay = SLOT(table, RT.relay);
    if (relay == NULL)
        return 0;
    if (relay != Py_None && SLOT(packet, K.priority) == g_prio_bulk &&
        SLOT(packet, K.kind) == g_kind_data) {
        /* Bulk on a foreign rack: RotorLB relay traffic. */
        PyObject *r;
        if (slot_set_ll(packet, K.hops, hops + 1) < 0)
            return -1;
        Py_INCREF(relay); /* the slot's reference may go during the call */
        r = PyObject_CallOneArg(relay, packet);
        Py_DECREF(relay);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
        Py_INCREF(g_consumed);
        *out = g_consumed;
        return 1;
    }
    options = SLOT(table, RT.options);
    bumps = SLOT(table, RT.bumps);
    if (options == NULL || !PyTuple_CheckExact(options) || bumps == NULL ||
        !PyTuple_CheckExact(bumps) || dst_rack >= PyTuple_GET_SIZE(bumps) ||
        !exact_ll(SLOT(packet, K.salt), &salt) || salt < 0 || hops < 0 ||
        salt > LLONG_MAX - hops ||
        !exact_ll(SLOT(table, RT.slice_ps), &slice_ps) || slice_ps < 0)
        return 0;
    bump = PyTuple_GET_ITEM(bumps, dst_rack);
    if (bump != Py_True && bump != Py_False)
        return 0;
    if (slice_ps) {
        /* Stamped (Opera): the first routed hop stamps the slice, and a
         * stamp with no options is re-stamped from the current slice. */
        PyObject *sim = SLOT(table, RT.sim);
        PyObject *stamp_obj = SLOT(packet, K.slice_stamp);
        Py_ssize_t cycle = PyTuple_GET_SIZE(options);
        long long now, current;
        if (cycle == 0 || stamp_obj == NULL)
            return 0;
        /* The clock is in the tail of the contract's simulator. */
        if (need_type(sim, t_cksim, "a route table's simulator") < 0)
            return -1;
        now = SIM_TAIL(sim)->now;
        if (now < 0)
            return 0;
        current = (now / slice_ps) % cycle;
        if (stamp_obj == Py_None) {
            stamp = current;
            restamp = 1;
        }
        else if (!exact_ll(stamp_obj, &stamp) || stamp < 0 || stamp >= cycle)
            return 0;
        ports = table_ports(PyTuple_GET_ITEM(options, stamp), dst_rack);
        if (ports == NULL)
            return 0;
        if (PyTuple_GET_SIZE(ports) == 0) {
            stamp = current;
            restamp = 1;
            ports = table_ports(PyTuple_GET_ITEM(options, stamp), dst_rack);
            if (ports == NULL)
                return 0;
        }
    }
    else {
        ports = table_ports(options, dst_rack);
        if (ports == NULL)
            return 0;
    }
    /* Writes start here. */
    if (restamp && slot_set_ll(packet, K.slice_stamp, stamp) < 0)
        return -1;
    if (PyTuple_GET_SIZE(ports) == 0) {
        Py_INCREF(Py_None);
        *out = Py_None;
        return 1;
    }
    *out = PyTuple_GET_ITEM(ports, (salt + hops) % PyTuple_GET_SIZE(ports));
    if (bump == Py_True && slot_set_ll(packet, K.hops, hops + 1) < 0)
        return -1;
    Py_INCREF(*out);
    return 1;
}

/* Fused switch delivery: TTL guard, route, egress enqueue (node.py's
 * dispatch closure). Bound context is (switch, table), an exact
 * CKSwitchNode and RouteTable (make_dispatch checks both). */
static PyObject *
c_dispatch(PyObject *ctx, PyObject *packet)
{
    PyObject *sw = PyTuple_GET_ITEM(ctx, 0);
    PyObject *table = PyTuple_GET_ITEM(ctx, 1);
    PyObject *fallback, *port;
    long long hops;
    int err = 0;

    if (need_type(packet, t_packet, "the packet") < 0)
        return NULL;
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
    fallback = SLOT(table, RT.fallback);
    if (fallback != NULL && fallback != Py_None) {
        /* Failures armed: the fault-aware Python route decides. */
        Py_INCREF(fallback);
        port = PyObject_CallFunctionObjArgs(fallback, sw, packet, NULL);
        Py_DECREF(fallback);
        if (port == NULL)
            return NULL;
    }
    else {
        int rc = fallback == NULL ? 0 : table_route(table, packet, hops, &port);
        if (rc < 0)
            return NULL;
        if (rc == 0) {
            /* A value not provably in range: the table's own Python call
             * routes (or raises the oracle's error). */
            port = PyObject_CallFunctionObjArgs(table, sw, packet, NULL);
            if (port == NULL)
                return NULL;
        }
    }
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
    err = port_enqueue(port, packet);
    Py_DECREF(port);
    if (err < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef dispatch_def = {
    "dispatch", (PyCFunction)c_dispatch, METH_O,
    "Fused switch delivery (compiled kernel)."};

static PyObject *
c_make_dispatch(PyObject *Py_UNUSED(mod), PyObject *args)
{
    PyObject *sw, *route, *ctx, *fn;
    if (!PyArg_ParseTuple(args, "OO:make_dispatch", &sw, &route) ||
        need_type(sw, t_ckswitch, "the switch") < 0 ||
        need_type(route, t_route_table, "the router") < 0)
        return NULL;
    ctx = PyTuple_Pack(2, sw, route);
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
 * transcribe ndp.py exactly, sharing the same sets and records; a
 * compiled source's retransmit queue and a compiled pacer's tokens are
 * native Fifos, which the Python bodies use as they would a deque.
 */

/* ------------------------------------------------------- flow bookkeeping
 *
 * Both sinks count delivered payload through StatsCollector.delivered;
 * stats_delivered is its twin. The collector and the flow records are
 * slotted, so it reads and writes them by offset, as the NDP endpoints
 * and RotorLB read a record's fields (rec_get): the contract admits only
 * an exact StatsCollector and exact FlowRecords.
 */

/* o.<name> by offset `off` as a new reference, `o` exactly a `type`. */
static PyObject *
exact_field(PyObject *o, PyTypeObject *type, const char *what,
            Py_ssize_t off, const char *name)
{
    PyObject *v;
    if (need_type(o, type, what) < 0 || (v = slot_get(o, off, name)) == NULL)
        return NULL;
    return Py_NewRef(v);
}

/* record.<field> of a flow record, and agent.<field> of a RotorLB peer. */
#define rec_get(record, field)                                                \
    exact_field(record, t_record, "a flow record", R.field, #field)
#define peer_get(agent, field)                                                \
    exact_field(agent, t_ckagent, "a RotorLB peer", LB.field, #field)

/* raise KeyError(key), as d[key] does; returns -1. */
static int
key_error(PyObject *key)
{
    PyObject *args = PyTuple_Pack(1, key);
    if (args != NULL) {
        PyErr_SetObject(PyExc_KeyError, args);
        Py_DECREF(args);
    }
    return -1;
}

/* d[key] (KeyError when missing) or, without `must`, d.get(key, 0), as
 * int64. -1 with an exception on error. */
static int
dict_ll(PyObject *d, PyObject *key, int must, long long *out)
{
    PyObject *v = PyDict_GetItemWithError(d, key);
    if (v != NULL)
        return as_ll(v, out);
    if (PyErr_Occurred())
        return -1;
    if (must)
        return key_error(key);
    *out = 0;
    return 0;
}

/* d[key] = v */
static int
dict_set_ll(PyObject *d, PyObject *key, long long v)
{
    PyObject *num = PyLong_FromLongLong(v);
    int rc;
    if (num == NULL)
        return -1;
    rc = PyDict_SetItem(d, key, num);
    Py_DECREF(num);
    return rc;
}

/* The books a sink counts deliveries in: an exact StatsCollector with
 * exact dicts, the sink's exact FlowRecord and the contract's simulator.
 * 0, or the contract TypeError. */
static int
need_books(PyObject *stats, PyObject *record, PyObject *sim)
{
    if (need_type(stats, t_collector, "a sink's stats") < 0 ||
        need_type(SLOT(stats, SC.flows), &PyDict_Type,
                  "a StatsCollector's flows") < 0 ||
        need_type(SLOT(stats, SC.bins), &PyDict_Type,
                  "a StatsCollector's _bins") < 0 ||
        need_type(record, t_record, "a sink's record") < 0)
        return -1;
    return need_sim(sim);
}

/* stats.delivered(record.flow_id, n, sim.now): count n payload bytes to
 * the flow, its throughput bin and, once complete, its end time. */
static int
stats_delivered(PyObject *stats, PyObject *record, long long n,
                PyObject *sim)
{
    PyObject *fid, *flow, *key = NULL;
    long long now, bin_ps, got, size, binned;
    int err = 0, rc = -1;

    if (need_books(stats, record, sim) < 0 ||
        (fid = slot_get(record, R.flow_id, "flow_id")) == NULL)
        return -1;
    now = SIM_TAIL(sim)->now;
    bin_ps = slot_ll(stats, SC.throughput_bin_ps, "throughput_bin_ps", &err);
    if (err)
        return -1;
    if (bin_ps <= 0 || now < 0)
        return outside("a StatsCollector binning by a non-positive "
                       "throughput_bin_ps or at a negative time",
                       stats);
    flow = PyDict_GetItemWithError(SLOT(stats, SC.flows), fid);
    if (flow == NULL)
        return PyErr_Occurred() ? -1 : key_error(fid);
    if (need_type(flow, t_record, "a flow record") < 0)
        return -1;
    got = slot_ll(flow, R.delivered_bytes, "delivered_bytes", &err);
    size = slot_ll(flow, R.size_bytes, "size_bytes", &err);
    if (err || slot_get(flow, R.end_ps, "end_ps") == NULL)
        return -1;
    /* Writes start here; the record is held across them. */
    Py_INCREF(flow);
    if (add_ll(got, n, &got) == 0 &&
        slot_set_ll(flow, R.delivered_bytes, got) == 0 &&
        (key = PyLong_FromLongLong(now / bin_ps)) != NULL &&
        dict_ll(SLOT(stats, SC.bins), key, 0, &binned) == 0 &&
        add_ll(binned, n, &binned) == 0 &&
        dict_set_ll(SLOT(stats, SC.bins), key, binned) == 0)
        rc = 0;
    Py_XDECREF(key);
    if (rc == 0 && got >= size && SLOT(flow, R.end_ps) == Py_None)
        rc = slot_set_ll(flow, R.end_ps, now);
    Py_DECREF(flow);
    return rc;
}

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
 * the transcription does too (slice_stamp is None and hops 0: no caller
 * passes them). An empty free list calls acquire itself, the one place a
 * Packet is constructed. */
static PyObject *
c_acquire(PyObject *fid, PyObject *kind, PyObject *src, PyObject *dst,
          PyObject *seq, PyObject *size_obj, PyObject *prio,
          PyObject *salt_obj, PyObject *next_rack, PyObject *relay_to)
{
    Py_ssize_t n = PyList_GET_SIZE(g_pool);
    PyObject *packet;

    if (n == 0) {
        PyObject *args[11] = {fid,     kind,     src,       dst,
                              seq,     size_obj, prio,      Py_None,
                              salt_obj, next_rack, relay_to};
        return PyObject_Vectorcall(g_py_acquire, args, 11, NULL);
    }
    packet = PyList_GET_ITEM(g_pool, n - 1);
    if (need_type(packet, t_packet, "an object in the packet free list") < 0)
        return NULL;
    Py_INCREF(packet);
    if (PyList_SetSlice(g_pool, n - 1, n, NULL) < 0) {
        Py_DECREF(packet);
        return NULL;
    }
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
    slot_set(packet, K.next_rack, next_rack);
    slot_set(packet, K.relay_to, relay_to);
    return packet;
}

/* An NDP endpoint's _send inside the contract: a compiled port's bound
 * enqueue (endpoints attach to hosts whose NIC is wired, so never
 * Host.send). 0, or the contract TypeError. */
static int
need_send(PyObject *send)
{
    return send != NULL && PyMethod_Check(send) &&
                   PyMethod_GET_FUNCTION(send) == g_cf_enqueue
               ? 0
               : outside("an NDP endpoint's _send", send);
}

/* endpoint._send(packet), with _send in slot `off`: the C enqueue on the
 * bound port, without the method object (held across the call). */
static int
do_send(PyObject *endpoint, Py_ssize_t off, PyObject *packet)
{
    PyObject *send = SLOT(endpoint, off), *r;
    if (need_send(send) < 0)
        return -1;
    Py_INCREF(send);
    r = c_port_enqueue_impl(PyMethod_GET_SELF(send), packet);
    Py_DECREF(send);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* An NDP endpoint inside the contract: exactly `type`, with an exact
 * FlowRecord in `record_off` and a compiled port's enqueue as the _send in
 * `send_off`. 0, or the contract TypeError. */
static int
need_endpoint(PyObject *self, PyTypeObject *type, const char *what,
              Py_ssize_t record_off, Py_ssize_t send_off)
{
    if (need_type(self, type, what) < 0 ||
        need_type(SLOT(self, record_off), t_record,
                  "an NDP endpoint's record") < 0)
        return -1;
    return need_send(SLOT(self, send_off));
}

/* NdpSource.payload_bytes(seq) of a compiled source, into *out. */
static int
src_payload(PyObject *source, PyObject *seq_obj, long long *out)
{
    PyObject *size_obj;
    long long mtu, size, seq, payload;
    int err = 0;

    if (need_type(source, t_cksrc, "an NDP source") < 0)
        return -1;
    mtu = slot_ll(source, NS.mtu, "mtu", &err);
    if (err || (size_obj = rec_get(SLOT(source, NS.record), size_bytes)) ==
                   NULL)
        return -1;
    err = as_ll(size_obj, &size);
    Py_DECREF(size_obj);
    if (err < 0 || as_ll(seq_obj, &seq) < 0)
        return -1;
    payload = mtu - g_header_ll;
    size -= seq * payload; /* what remains of the flow from seq on */
    *out = payload < size ? payload : size;
    if (*out < 1)
        *out = 1;
    return 0;
}

/* NdpSource._emit(seq): acquire a data packet and send it. */
static int
src_emit(PyObject *self, PyObject *seq_obj)
{
    PyObject *fid, *src = NULL, *dst = NULL, *size_obj = NULL,
                   *salt_obj = NULL, *prio = NULL, *packet = NULL;
    long long payload;
    int rc = -1;

    if (src_payload(self, seq_obj, &payload) < 0 ||
        (fid = rec_get(SLOT(self, NS.record), flow_id)) == NULL)
        return -1;
    size_obj = PyLong_FromLongLong(g_header_ll + payload);
    salt_obj = size_obj ? salt_hash(fid, seq_obj, g_src_salt) : NULL;
    src = salt_obj ? rec_get(SLOT(self, NS.record), src_host) : NULL;
    dst = src ? rec_get(SLOT(self, NS.record), dst_host) : NULL;
    prio = dst ? slot_get(self, NS.priority, "priority") : NULL;
    if (prio != NULL)
        packet = c_acquire(fid, g_kind_data, src, dst, seq_obj, size_obj,
                           prio, salt_obj, Py_None, Py_None);
    if (packet != NULL)
        rc = do_send(self, NS.send, packet);
    Py_DECREF(fid);
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
    Fifo *rtx = need_native(self, NS.rtx, &Fifo_Type);
    long long next_new, n_packets;
    int err = 0;

    if (rtx == NULL)
        return -1;
    if (rtx->len > 0) {
        PyObject *seq_obj = fifo_pop(rtx);
        int rc = src_emit(self, seq_obj);
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

/* NdpSource.on_packet on a compiled source with its native retransmit
 * queue and an exact set of acked sequences. */
static PyObject *
src_on_packet(PyObject *self, PyObject *packet)
{
    PyObject *kind, *seq_obj, *acked;

    if (need_endpoint(self, t_cksrc, "the NDP source", NS.record, NS.send) <
            0 ||
        need_type(SLOT(self, NS.rtx), &Fifo_Type, "an NDP source's _rtx") <
            0 ||
        need_type(SLOT(self, NS.acked), &PySet_Type,
                  "an NDP source's _acked") < 0 ||
        need_type(packet, t_packet, "the packet") < 0)
        return NULL;
    kind = SLOT(packet, K.kind);
    seq_obj = slot_get(packet, K.seq, "seq");
    if (seq_obj == NULL)
        return NULL;
    acked = SLOT(self, NS.acked);
    if (kind == g_kind_ack) {
        if (PySet_Add(acked, seq_obj) < 0)
            return NULL;
    }
    else if (kind == g_kind_nack) {
        int has = PySet_Contains(acked, seq_obj);
        if (has < 0)
            return NULL;
        if (!has) {
            Fifo *rtx = need_native(self, NS.rtx, &Fifo_Type);
            PyObject *record = SLOT(self, NS.record);
            long long banked;
            int err = 0;
            if (rtx == NULL || fifo_push(rtx, seq_obj) < 0 ||
                need_type(record, t_record, "a flow record") < 0 ||
                slot_add_ll(record, R.retransmissions, "retransmissions",
                            1) < 0)
                return NULL;
            /* A banked pull (sent while we had nothing new) releases it. */
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

SELF_ARG_METHOD(c_src_on_packet, src_on_packet,
                "on_packet() takes (self, packet)")

/* self._send(self._control(kind, seq)) of an NDP sink: a control packet
 * back to the source, src/dst swapped against the record. */
static int
sink_send_control(PyObject *self, PyObject *kind, PyObject *kind_val,
                  PyObject *seq_obj)
{
    PyObject *fid, *src = NULL, *dst = NULL, *salt_obj, *packet = NULL;
    int rc = -1;

    if ((fid = rec_get(SLOT(self, NK.record), flow_id)) == NULL)
        return -1;
    salt_obj = salt_hash(fid, seq_obj, kind_val);
    src = salt_obj ? rec_get(SLOT(self, NK.record), dst_host) : NULL;
    dst = src ? rec_get(SLOT(self, NK.record), src_host) : NULL;
    if (dst != NULL)
        packet = c_acquire(fid, kind, src, dst, seq_obj, g_header_bytes,
                           g_prio_control, salt_obj, Py_None, Py_None);
    if (packet != NULL)
        rc = do_send(self, NK.send, packet);
    Py_DECREF(fid);
    Py_XDECREF(src);
    Py_XDECREF(dst);
    Py_XDECREF(salt_obj);
    Py_XDECREF(packet);
    return rc;
}

/* sink.finished, i.e. record.end_ps is not None. -1 on error. */
static int
sink_finished(PyObject *sink)
{
    PyObject *end = rec_get(SLOT(sink, NK.record), end_ps);
    int fin;
    if (end == NULL)
        return -1;
    fin = end != Py_None;
    Py_DECREF(end);
    return fin;
}

/* NdpSink.emit_pull() of a sink need_endpoint admitted. */
static int
sink_emit_pull(PyObject *self)
{
    PyObject *seq_obj;
    long long pull_seq;
    int err = 0, rc;

    pull_seq = slot_ll(self, NK.pull_seq, "_pull_seq", &err) + 1;
    if (err || slot_set_ll(self, NK.pull_seq, pull_seq) < 0 ||
        (seq_obj = PyLong_FromLongLong(pull_seq)) == NULL)
        return -1;
    rc = sink_send_control(self, g_kind_pull, g_pull_val, seq_obj);
    Py_DECREF(seq_obj);
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
    if (need_endpoint(args[0], t_cksink, "the NDP sink", NK.record,
                      NK.send) < 0 ||
        sink_emit_pull(args[0]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* A PULL pacer inside the contract: an exact CKPullPacer with its native
 * tokens, on the contract's simulator. 0, or the contract TypeError. */
static int
need_pacer(PyObject *pacer)
{
    if (need_type(pacer, t_ckpacer, "the PULL pacer") < 0 ||
        need_type(SLOT(pacer, PP.tokens), &Fifo_Type, "a pacer's _tokens") <
            0)
        return -1;
    return need_sim(SLOT(pacer, PP.sim));
}

/* pacer.request(sink), inlined. */
static int
pacer_request(PyObject *pacer, PyObject *sink)
{
    PyObject *running, *sim, *tick;
    int truth;

    if (need_pacer(pacer) < 0 ||
        fifo_push((Fifo *)SLOT(pacer, PP.tokens), sink) < 0 ||
        (running = slot_get(pacer, PP.running, "_running")) == NULL ||
        (truth = PyObject_IsTrue(running)) < 0)
        return -1;
    if (truth)
        return 0;
    slot_set(pacer, PP.running, Py_True);
    sim = SLOT(pacer, PP.sim);
    tick = slot_get(pacer, PP.tick_cb, "_tick_cb");
    if (tick == NULL || need_sim(sim) < 0)
        return -1;
    /* sim.after(0, self._tick_cb) */
    return schedule_heap(sim, SIM_TAIL(sim)->now, tick, g_empty);
}

/* NdpSink.on_packet on a compiled sink: its exact set of received
 * sequences, its source's sizes, its books and its pacer. */
static PyObject *
sink_on_packet(PyObject *self, PyObject *packet)
{
    PyObject *kind, *seq_obj, *source;
    int fin;

    if (need_endpoint(self, t_cksink, "the NDP sink", NK.record, NK.send) <
            0 ||
        need_type(SLOT(self, NK.received), &PySet_Type,
                  "an NDP sink's _received") < 0 ||
        need_type(source = SLOT(self, NK.source), t_cksrc,
                  "an NDP sink's source") < 0 ||
        need_type(SLOT(source, NS.record), t_record, "a flow record") < 0 ||
        need_books(SLOT(self, NK.stats), SLOT(self, NK.record),
                   SLOT(self, NK.sim)) < 0 ||
        need_pacer(SLOT(self, NK.pacer)) < 0 ||
        need_type(packet, t_packet, "the packet") < 0)
        return NULL;
    kind = SLOT(packet, K.kind);
    if (kind != g_kind_data && kind != g_kind_header)
        Py_RETURN_NONE;
    seq_obj = slot_get(packet, K.seq, "seq");
    if (seq_obj == NULL)
        return NULL;
    if (kind == g_kind_data) {
        PyObject *received;
        long long payload;
        int has;
        if (sink_send_control(self, g_kind_ack, g_ack_val, seq_obj) < 0 ||
            (received = need_native(self, NK.received, &PySet_Type)) ==
                NULL ||
            (has = PySet_Contains(received, seq_obj)) < 0)
            return NULL;
        if (!has &&
            (PySet_Add(received, seq_obj) < 0 ||
             src_payload(SLOT(self, NK.source), seq_obj, &payload) < 0 ||
             stats_delivered(SLOT(self, NK.stats), SLOT(self, NK.record),
                             payload, SLOT(self, NK.sim)) < 0))
            return NULL;
    }
    else if (sink_send_control(self, g_kind_nack, g_nack_val, seq_obj) < 0)
        return NULL; /* a trimmed header: NACK, so the source requeues it */
    fin = sink_finished(self);
    if (fin < 0 || (!fin && pacer_request(SLOT(self, NK.pacer), self) < 0))
        return NULL;
    Py_RETURN_NONE;
}

SELF_ARG_METHOD(c_sink_on_packet, sink_on_packet,
                "on_packet() takes (self, packet)")

static PyObject *
c_pacer_tick(PyObject *Py_UNUSED(mod), PyObject *const *args,
             Py_ssize_t nargs)
{
    PyObject *self;

    if (nargs != 1) {
        PyErr_SetString(PyExc_TypeError, "_tick() takes (self)");
        return NULL;
    }
    self = args[0];
    if (need_pacer(self) < 0)
        return NULL;
    for (;;) {
        /* Re-read per token, as `while self._tokens` does. */
        Fifo *tokens = need_native(self, PP.tokens, &Fifo_Type);
        PyObject *sink, *sim, *tick;
        long long interval, next;
        int fin, err = 0;
        if (tokens == NULL)
            return NULL;
        if (tokens->len == 0)
            break;
        /* The front token is checked before it is popped. */
        if (need_endpoint(tokens->items[tokens->head], t_cksink,
                          "a PULL token's sink", NK.record, NK.send) < 0)
            return NULL;
        sink = fifo_pop(tokens);
        fin = sink_finished(sink);
        if (fin == 0 && sink_emit_pull(sink) < 0)
            fin = -1;
        Py_DECREF(sink);
        if (fin < 0)
            return NULL;
        if (fin)
            continue; /* completed flows relinquish their tokens */
        /* self.sim.after(self.interval_ps, self._tick_cb) */
        sim = SLOT(self, PP.sim);
        if ((tick = slot_get(self, PP.tick_cb, "_tick_cb")) == NULL ||
            need_sim(sim) < 0)
            return NULL;
        interval = slot_ll(self, PP.interval_ps, "interval_ps", &err);
        if (err || add_ll(SIM_TAIL(sim)->now, interval, &next) < 0 ||
            schedule_heap(sim, next, tick, g_empty) < 0)
            return NULL;
        Py_RETURN_NONE;
    }
    slot_set(self, PP.running, Py_False);
    Py_RETURN_NONE;
}

/* ---------------------------------------------------------------- RotorLB
 *
 * rotorlb.py's slice step (RotorLBAgent.on_slice with _pull_local_packet
 * and _fill_vlb), relay intake (accept_relay) and bulk sink
 * (BulkSink.on_packet), transcribed on the same slots; CKRotorLBAgent and
 * CKBulkSink rebind them here. The per-destination queues stay
 * collections.deque, driven through deque's own methods.
 *
 * on_slice runs natively for a fault-free agent; a disabled agent, or one
 * with a failure view or forced relay, runs the Python body (the failure
 * seam). Either way the agent's tables must be exact dicts of exact deques
 * and ints, its senders exact BulkFlows of exact FlowRecords, its circuits
 * contract ports and its peers compiled agents; anything else raises the
 * contract TypeError before the first write. A bulk drop while a circuit
 * fills runs a Python handler that may requeue into the very relay queue
 * being drained, so every table entry and queue length is re-read after
 * each enqueue, where the Python body re-reads it; a table Python code
 * replaced mid-call raises RuntimeError, as need_native does.
 */

static int
replaced(const char *what)
{
    PyErr_Format(PyExc_RuntimeError,
                 "ckernel: a RotorLB %s was replaced during a call", what);
    return -1;
}

/* The exact dict in agent slot `off` (borrowed), re-read where the Python
 * body reads the attribute. */
static PyObject *
agent_dict(PyObject *agent, Py_ssize_t off)
{
    PyObject *d = SLOT(agent, off);
    if (d == NULL || !PyDict_CheckExact(d)) {
        replaced("table");
        return NULL;
    }
    return d;
}

/* deque.<method>(dq[, arg]) with the result dropped. */
static int
dq_call(PyObject *method, PyObject *dq, PyObject *arg)
{
    PyObject *args[2] = {dq, arg};
    PyObject *r = PyObject_Vectorcall(method, args, arg ? 2 : 1, NULL);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* packet.size_bytes of a packet RotorLB moves, by offset. */
static int
pkt_size(PyObject *packet, long long *out)
{
    int err = 0;
    if (need_type(packet, t_packet, "a relayed packet") < 0)
        return -1;
    *out = slot_ll(packet, K.size_bytes, "size_bytes", &err);
    return err ? -1 : 0;
}

/* An exact BulkFlow whose record is an exact FlowRecord. */
static inline int
flow_exact(PyObject *flow)
{
    PyObject *record =
        Py_TYPE(flow) == t_bulkflow ? SLOT(flow, BF.record) : NULL;
    return record != NULL && Py_TYPE(record) == t_record &&
           SLOT(record, R.src_host) != NULL;
}

/* flow.record.src_host (borrowed) of a sender on_slice's entry check
 * found exact; only Python code could have queued another since. */
static PyObject *
flow_src(PyObject *flow)
{
    if (!flow_exact(flow)) {
        replaced("sender");
        return NULL;
    }
    return SLOT(SLOT(flow, BF.record), R.src_host);
}

/* One sender's next packet (BulkFlow.make_packet, inlined): a new
 * reference, its payload in *payload. */
static PyObject *
flow_packet(PyObject *flow, PyObject *src, long long unsent,
            PyObject *next_rack, PyObject *relay_to, long long *payload)
{
    PyObject *record = SLOT(flow, BF.record), *seq, *fid = NULL, *dst = NULL,
             *size = NULL, *packet = NULL;
    long long per, seq_ll;
    int err = 0;

    per = slot_ll(flow, BF.payload_per_packet, "payload_per_packet", &err);
    seq = err ? NULL : slot_get(flow, BF.next_seq, "next_seq");
    if (seq == NULL || as_ll(seq, &seq_ll) < 0)
        return NULL;
    Py_INCREF(seq);
    *payload = per < unsent ? per : unsent;
    if (slot_set_ll(flow, BF.unsent_bytes, unsent - *payload) < 0 ||
        slot_set_ll(flow, BF.next_seq, seq_ll + 1) < 0)
        goto done;
    fid = rec_get(record, flow_id);
    dst = fid ? rec_get(record, dst_host) : NULL;
    size = dst ? PyLong_FromLongLong(g_header_ll + *payload) : NULL;
    if (size != NULL)
        packet = c_acquire(fid, g_kind_data, src, dst, seq, size, g_prio_bulk,
                           g_zero, next_rack, relay_to);
done:
    Py_DECREF(seq);
    Py_XDECREF(fid);
    Py_XDECREF(dst);
    Py_XDECREF(size);
    return packet;
}

/* RotorLBAgent._pull_local_packet(dst_rack, next_rack, relay_to): 1 with
 * *out a new packet from the next sender whose host has NIC budget left
 * (round-robin), 0 when there is none, -1 on error. */
static int
agent_pull_local(PyObject *self, PyObject *dst_rack, PyObject *next_rack,
                 PyObject *relay_to, PyObject **out)
{
    PyObject *table, *flows, *flow = NULL, *src, *budgets, *backlog;
    long long unsent, budget, payload, held;
    int rc = -1, err = 0;

    *out = NULL;
    if ((table = agent_dict(self, LB.local_flows)) == NULL)
        return -1;
    flows = PyDict_GetItemWithError(table, dst_rack);
    if (flows == NULL)
        return PyErr_Occurred() ? -1 : 0;
    if (Py_TYPE(flows) != t_deque)
        return replaced("sender queue");
    Py_INCREF(flows);
    while (PyObject_Length(flows) > 0) {
        Py_XSETREF(flow, PySequence_GetItem(flows, 0));
        if (flow == NULL || (src = flow_src(flow)) == NULL)
            goto done;
        unsent = slot_ll(flow, BF.unsent_bytes, "unsent_bytes", &err);
        if (err)
            goto done;
        if (unsent <= 0) {
            if (dq_call(g_dq_popleft, flows, NULL) < 0)
                goto done;
            continue;
        }
        budgets = agent_dict(self, LB.host_budget);
        if (budgets == NULL || dict_ll(budgets, src, 0, &budget) < 0)
            goto done;
        if (budget <= 0) {
            /* This host's NIC is out of budget this slice: try the next
             * sender, unless every sender's host is out too. */
            PyObject *it, *f;
            int all_out = 1;
            if (dq_call(g_dq_rotate, flows, g_minus_one) < 0 ||
                (it = PyObject_GetIter(flows)) == NULL)
                goto done;
            while (all_out && (f = PyIter_Next(it)) != NULL) {
                PyObject *fsrc = flow_src(f);
                err = fsrc == NULL || dict_ll(budgets, fsrc, 0, &budget) < 0;
                all_out = !err && budget <= 0;
                Py_DECREF(f);
            }
            Py_DECREF(it);
            if (err || PyErr_Occurred())
                goto done;
            if (all_out) {
                rc = 0;
                goto done;
            }
            continue;
        }
        *out = flow_packet(flow, src, unsent, next_rack, relay_to, &payload);
        if (*out == NULL)
            goto done;
        budgets = agent_dict(self, LB.host_budget);
        backlog = budgets ? agent_dict(self, LB.local_backlog) : NULL;
        if (backlog == NULL ||
            dict_set_ll(budgets, src, budget - payload) < 0 ||
            dict_ll(backlog, dst_rack, 1, &held) < 0 ||
            dict_set_ll(backlog, dst_rack, held - payload) < 0 ||
            (unsent <= payload
                 ? dq_call(g_dq_popleft, flows, NULL)
                 : dq_call(g_dq_rotate, flows, g_minus_one)) < 0) {
            Py_CLEAR(*out);
            goto done;
        }
        rc = 1;
        goto done;
    }
    rc = 0;
done:
    Py_XDECREF(flow);
    Py_DECREF(flows);
    return rc;
}

/* Phases 1 and 2 on one live circuit (switch, port, peer): relay traffic
 * now one hop from its destination first, then local direct traffic.
 * *budget is what the circuit has left for VLB. */
static int
agent_fill_circuit(PyObject *self, PyObject *circuit, long long *budget)
{
    PyObject *port = PyTuple_GET_ITEM(circuit, 1);
    PyObject *peer = PyTuple_GET_ITEM(circuit, 2);
    PyObject *queues, *queue, *packet, *bytes;
    long long queued, size, held;
    int err = 0, rc = -1;

    *budget = slot_ll(self, LB.slice_payload_bytes, "slice_payload_bytes",
                      &err);
    if (err || port_queued_bulk(port, &queued) < 0 ||
        sub_bytes(budget, queued) < 0 ||
        (queues = agent_dict(self, LB.relay_q)) == NULL)
        return -1;
    queue = PyDict_GetItemWithError(queues, peer);
    if (queue == NULL && PyErr_Occurred())
        return -1;
    if (queue != NULL && Py_TYPE(queue) != t_deque)
        return replaced("relay queue");
    Py_XINCREF(queue);
    while (*budget > 0 && queue != NULL && PyObject_Length(queue) > 0) {
        packet = PyObject_CallOneArg(g_dq_popleft, queue);
        if (packet == NULL)
            goto done;
        bytes = agent_dict(self, LB.relay_bytes);
        err = pkt_size(packet, &size) < 0 || bytes == NULL ||
              dict_ll(bytes, peer, 1, &held) < 0 ||
              dict_set_ll(bytes, peer, held - size) < 0;
        if (!err)
            slot_set(packet, K.next_rack, peer);
        err = err || sub_bytes(budget, size) < 0 ||
              slot_add_ll(self, LB.direct_bytes_sent, "direct_bytes_sent",
                          size) < 0 ||
              port_enqueue(port, packet) < 0;
        Py_DECREF(packet);
        if (err)
            goto done;
    }
    while (*budget > 0) {
        int got = agent_pull_local(self, peer, peer, Py_None, &packet);
        if (got <= 0) {
            if (got < 0)
                goto done;
            break;
        }
        err = pkt_size(packet, &size) < 0 || sub_bytes(budget, size) < 0 ||
              slot_add_ll(self, LB.direct_bytes_sent, "direct_bytes_sent",
                          size) < 0 ||
              port_enqueue(port, packet) < 0;
        Py_DECREF(packet);
        if (err)
            goto done;
    }
    rc = 0;
done:
    Py_XDECREF(queue);
    return rc;
}

/* agent.relay_headroom(dst) of a compiled peer, inlined. */
static int
peer_headroom(PyObject *agent, PyObject *dst, long long *out)
{
    PyObject *bytes;
    long long cap, held;
    int err = 0;
    if (need_type(agent, t_ckagent, "a RotorLB peer") < 0)
        return -1;
    cap = slot_ll(agent, LB.relay_cap_bytes, "relay_cap_bytes", &err);
    bytes = SLOT(agent, LB.relay_bytes);
    if (err ||
        need_type(bytes, &PyDict_Type, "a RotorLB peer's relay_bytes") < 0 ||
        dict_ll(bytes, dst, 0, &held) < 0)
        return -1;
    *out = cap - held;
    return 0;
}

/* The VLB loop of _fill_vlb on one spare circuit through `agent`'s rack:
 * the largest backlog (the first in dict order on ties, as max() picks)
 * that the peer can relay, while budget and its headroom last. 1 when the
 * whole VLB phase is over (no backlog or no packet left), 0 to go on to
 * the next circuit, -1 on error. */
static int
agent_vlb_circuit(PyObject *self, PyObject *agent, PyObject *port,
                  PyObject *peer, long long budget)
{
    while (budget > 0) {
        PyObject *backlog = agent_dict(self, LB.local_backlog), *dsts, *dst,
                 *b_obj, *best = NULL, *packet;
        Py_ssize_t pos = 0;
        long long b, best_b = 0, size;
        int err = 0, got;

        if (backlog == NULL ||
            (dsts = peer_get(agent, relay_vlb_dsts)) ==
                NULL)
            return -1;
        while (!err && PyDict_Next(backlog, &pos, &dst, &b_obj)) {
            int ne, in = 0;
            if (as_ll(b_obj, &b) < 0) {
                err = 1;
                break;
            }
            if (b <= 0 || (best != NULL && b <= best_b))
                continue; /* cannot be the first largest */
            ne = PyObject_RichCompareBool(dst, peer, Py_NE);
            if (ne > 0)
                in = PySequence_Contains(dsts, dst);
            err = ne < 0 || in < 0;
            if (ne > 0 && in == 0) {
                best = dst;
                best_b = b;
            }
        }
        Py_DECREF(dsts);
        if (err)
            return -1;
        if (best == NULL)
            return 1;
        Py_INCREF(best);
        if (peer_headroom(agent, best, &b) < 0) {
            Py_DECREF(best);
            return -1;
        }
        if (b < g_mtu_ll) {
            Py_DECREF(best);
            return 0;
        }
        got = agent_pull_local(self, best, peer, best, &packet);
        Py_DECREF(best);
        if (got <= 0)
            return got < 0 ? -1 : 1;
        err = pkt_size(packet, &size) < 0 || sub_bytes(&budget, size) < 0 ||
              slot_add_ll(self, LB.vlb_bytes_sent, "vlb_bytes_sent", size) <
                  0 ||
              port_enqueue(port, packet) < 0;
        Py_DECREF(packet);
        if (err)
            return -1;
    }
    return 0;
}

/* One circuit with budget left after phases 1 and 2. */
typedef struct {
    PyObject *sw, *peer; /* owned */
    long long budget;
} Spare;

/* Phase 3, _fill_vlb: skewed backlog two hops through connected peers. */
static int
agent_fill_vlb(PyObject *self, Spare *spare, Py_ssize_t n)
{
    PyObject *dsts = SLOT(self, LB.relay_vlb_dsts);
    Py_ssize_t i;
    if (dsts == NULL || !PyFrozenSet_CheckExact(dsts) ||
        PySet_GET_SIZE(dsts) != 0)
        return replaced("forced-relay set");
    for (i = 0; i < n; i++) {
        PyObject *peers = agent_dict(self, LB.peers), *agent, *uplinks,
                 *port, *off;
        int rc;
        if (peers == NULL)
            return -1;
        agent = PyDict_GetItemWithError(peers, spare[i].peer);
        if (agent == NULL && PyErr_Occurred())
            return -1;
        if (agent == NULL)
            continue;
        Py_INCREF(agent);
        off = peer_get(agent, disabled);
        rc = off == NULL ? -1 : PyObject_IsTrue(off);
        Py_XDECREF(off);
        if (rc == 0) {
            uplinks = agent_dict(self, LB.uplinks);
            port = uplinks ? PyDict_GetItemWithError(uplinks, spare[i].sw)
                           : NULL;
            if (port == NULL) {
                if (uplinks != NULL && !PyErr_Occurred())
                    key_error(spare[i].sw);
                rc = -1;
            }
            else {
                Py_INCREF(port);
                rc = agent_vlb_circuit(self, agent, port, spare[i].peer,
                                       spare[i].budget);
                Py_DECREF(port);
            }
        }
        else if (rc > 0)
            rc = 0; /* a disabled peer takes no offer */
        else
            rc = -1;
        Py_DECREF(agent);
        if (rc != 0)
            return rc < 0 ? -1 : 0;
    }
    return 0;
}

/* The first value of dict d that is not exactly a `type` (borrowed), or
 * NULL. */
static PyObject *
odd_value(PyObject *d, PyTypeObject *type)
{
    Py_ssize_t pos = 0;
    PyObject *k, *v;
    while (PyDict_Next(d, &pos, &k, &v))
        if (Py_TYPE(v) != type)
            return v;
    return NULL;
}

/* on_slice's entry check, before any write: 1 with *row this slice's
 * activation row (borrowed) for a fault-free agent, 0 for the failure
 * seam's Python body (a disabled agent, or one with a failure view or
 * forced relay), -1 with the contract TypeError for an agent, table,
 * sender, circuit or peer outside the contract. */
static int
agent_fast(PyObject *self, PyObject *slice_obj, PyObject **row)
{
    static const Py_ssize_t *tables[] = {
        &LB.uplinks,     &LB.budget_template, &LB.local_flows, &LB.local_backlog,
        &LB.relay_q,     &LB.relay_bytes,     &LB.peers,
    };
    Py_ssize_t i, n, pos = 0;
    PyObject *active, *dsts, *disabled, *vlb, *k, *v, *sim;
    long long s;

    if (need_type(self, t_ckagent, "the RotorLB agent") < 0 ||
        need_type(dsts = SLOT(self, LB.relay_vlb_dsts), &PyFrozenSet_Type,
                  "a RotorLB agent's relay_vlb_dsts") < 0)
        return -1;
    disabled = SLOT(self, LB.disabled);
    if (disabled == Py_True || SLOT(self, LB.failure_view) != Py_None ||
        PySet_GET_SIZE(dsts) != 0)
        return 0;
    vlb = SLOT(self, LB.enable_vlb);
    if (disabled != Py_False || (vlb != Py_True && vlb != Py_False) ||
        !exact_ll(SLOT(self, LB.slice_payload_bytes), &s))
        return outside("a RotorLB agent with a non-bool flag or a non-int "
                       "slice_payload_bytes",
                       self);
    for (i = 0; i < (Py_ssize_t)(sizeof(tables) / sizeof(tables[0])); i++)
        if (need_type(SLOT(self, *tables[i]), &PyDict_Type,
                      "a RotorLB agent's table") < 0)
            return -1;
    if ((v = odd_value(SLOT(self, LB.relay_q), t_deque)) != NULL ||
        (v = odd_value(SLOT(self, LB.local_flows), t_deque)) != NULL ||
        (v = odd_value(SLOT(self, LB.local_backlog), &PyLong_Type)) != NULL ||
        (v = odd_value(SLOT(self, LB.relay_bytes), &PyLong_Type)) != NULL ||
        (v = odd_value(SLOT(self, LB.peers), t_ckagent)) != NULL)
        return outside("a value in a RotorLB agent's tables", v);
    while (PyDict_Next(SLOT(self, LB.local_flows), &pos, &k, &v)) {
        PyObject *it = PyObject_GetIter(v), *flow;
        int exact = 1;
        if (it == NULL)
            return -1;
        while (exact && (flow = PyIter_Next(it)) != NULL) {
            if (!(exact = flow_exact(flow)))
                outside("a RotorLB sender", flow);
            Py_DECREF(flow);
        }
        Py_DECREF(it);
        if (!exact || PyErr_Occurred())
            return -1;
    }
    active = SLOT(self, LB.active_by_slice);
    if (need_type(active, &PyList_Type, "a RotorLB agent's active_by_slice") <
        0)
        return -1;
    if ((n = PyList_GET_SIZE(active)) == 0 || !exact_ll(slice_obj, &s))
        return outside("a slice index into active_by_slice", slice_obj);
    *row = PyList_GET_ITEM(active, (Py_ssize_t)(((s % n) + n) % n));
    if (need_type(*row, &PyList_Type, "an activation row") < 0)
        return -1;
    for (i = 0; i < PyList_GET_SIZE(*row); i++) {
        PyObject *circuit = PyList_GET_ITEM(*row, i);
        if (!PyTuple_CheckExact(circuit) || PyTuple_GET_SIZE(circuit) != 3)
            return outside("a circuit that is not a (switch, port, peer) "
                           "tuple",
                           circuit);
        if (need_port(PyTuple_GET_ITEM(circuit, 1), &sim) < 0)
            return -1;
    }
    return 1;
}

/* RotorLBAgent.on_slice(slice_index): fill this slice's circuits, relay
 * then local per circuit, then VLB over the circuits with budget left. */
static PyObject *
agent_on_slice(PyObject *self, PyObject *slice_obj)
{
    PyObject *row = NULL, *budgets, *vlb;
    Spare *spare = NULL;
    Py_ssize_t i, n = 0, cap = 0;
    int rc = agent_fast(self, slice_obj, &row);

    if (rc < 0)
        return NULL;
    if (rc == 0) {
        PyObject *args[2] = {self, slice_obj};
        return PyObject_Vectorcall(g_py_on_slice, args, 2, NULL);
    }
    Py_INCREF(row);
    rc = -1;
    budgets = PyDict_Copy(SLOT(self, LB.budget_template));
    if (budgets == NULL)
        goto done;
    slot_set(self, LB.host_budget, budgets);
    Py_DECREF(budgets);
    for (i = 0; i < PyList_GET_SIZE(row); i++) {
        PyObject *circuit = PyList_GET_ITEM(row, i);
        long long budget;
        int err;
        if (!PyTuple_CheckExact(circuit) || PyTuple_GET_SIZE(circuit) != 3) {
            replaced("activation row");
            goto done;
        }
        Py_INCREF(circuit);
        err = agent_fill_circuit(self, circuit, &budget) < 0;
        if (!err && budget > 0) {
            if (n == cap) {
                Spare *grown = PyMem_Realloc(spare, 2 * (cap + 4) * sizeof(Spare));
                if (grown == NULL) {
                    PyErr_NoMemory();
                    err = 1;
                }
                else {
                    spare = grown;
                    cap = 2 * (cap + 4);
                }
            }
            if (!err) {
                spare[n].sw = Py_NewRef(PyTuple_GET_ITEM(circuit, 0));
                spare[n].peer = Py_NewRef(PyTuple_GET_ITEM(circuit, 2));
                spare[n++].budget = budget;
            }
        }
        Py_DECREF(circuit);
        if (err)
            goto done;
    }
    vlb = slot_get(self, LB.enable_vlb, "enable_vlb");
    rc = vlb == NULL ? -1 : PyObject_IsTrue(vlb);
    if (rc > 0)
        rc = agent_fill_vlb(self, spare, n);
done:
    for (i = 0; i < n; i++) {
        Py_DECREF(spare[i].sw);
        Py_DECREF(spare[i].peer);
    }
    PyMem_Free(spare);
    Py_DECREF(row);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* RotorLBAgent.accept_relay: queue a relayed (or mis-slotted) bulk packet
 * for its destination rack. */
static PyObject *
agent_accept_relay(PyObject *self, PyObject *packet)
{
    PyObject *queues, *bytes, *rack, *queue = NULL;
    long long dst, hpr, size, held;
    int err;

    if (need_type(self, t_ckagent, "the RotorLB agent") < 0 ||
        need_type(packet, t_packet, "the packet") < 0 ||
        need_type(queues = SLOT(self, LB.relay_q), &PyDict_Type,
                  "a RotorLB agent's relay_q") < 0 ||
        need_type(bytes = SLOT(self, LB.relay_bytes), &PyDict_Type,
                  "a RotorLB agent's relay_bytes") < 0)
        return NULL;
    if (!exact_ll(SLOT(packet, K.dst_host), &dst) || dst < 0 ||
        !exact_ll(SLOT(packet, K.size_bytes), &size) ||
        !exact_ll(SLOT(self, LB.hosts_per_rack), &hpr) || hpr <= 0) {
        outside("a relay whose dst_host, size_bytes or hosts_per_rack is "
                "not a non-negative int (hosts_per_rack: positive)",
                packet);
        return NULL;
    }
    if ((rack = PyLong_FromLongLong(dst / hpr)) == NULL)
        return NULL;
    queue = PyDict_GetItemWithError(queues, rack);
    if ((queue == NULL && PyErr_Occurred()) ||
        (queue != NULL &&
         need_type(queue, t_deque, "a RotorLB relay queue") < 0)) {
        Py_DECREF(rack);
        return NULL;
    }
    /* Writes start here. */
    slot_set(packet, K.relay_to, Py_None);
    slot_set(packet, K.next_rack, Py_None);
    if (queue != NULL)
        Py_INCREF(queue);
    else if ((queue = PyObject_CallNoArgs((PyObject *)t_deque)) != NULL &&
             PyDict_SetItem(queues, rack, queue) < 0)
        Py_CLEAR(queue);
    err = queue == NULL || dq_call(g_dq_append, queue, packet) < 0 ||
          dict_ll(bytes, rack, 0, &held) < 0 || add_ll(held, size, &held) < 0 ||
          dict_set_ll(bytes, rack, held) < 0;
    Py_XDECREF(queue);
    Py_DECREF(rack);
    if (err)
        return NULL;
    Py_RETURN_NONE;
}

/* BulkSink.on_packet: count each DATA sequence's payload once. */
static PyObject *
bulk_sink_on_packet(PyObject *self, PyObject *packet)
{
    PyObject *received, *seq;
    long long size;
    int has, err = 0;

    if (need_type(self, t_ckbulksink, "the bulk sink") < 0 ||
        need_type(SLOT(self, BK.received), &PySet_Type,
                  "a bulk sink's _received") < 0 ||
        need_books(SLOT(self, BK.stats), SLOT(self, BK.record),
                   SLOT(self, BK.sim)) < 0 ||
        need_type(packet, t_packet, "the packet") < 0)
        return NULL;
    if (SLOT(packet, K.kind) != g_kind_data)
        Py_RETURN_NONE;
    received = SLOT(self, BK.received);
    if ((seq = slot_get(packet, K.seq, "seq")) == NULL ||
        (has = PySet_Contains(received, seq)) < 0)
        return NULL;
    if (has)
        Py_RETURN_NONE;
    if (PySet_Add(received, seq) < 0)
        return NULL;
    size = slot_ll(packet, K.size_bytes, "size_bytes", &err);
    if (err || stats_delivered(SLOT(self, BK.stats), SLOT(self, BK.record),
                               size - g_header_ll, SLOT(self, BK.sim)) < 0)
        return NULL;
    Py_RETURN_NONE;
}

SELF_ARG_METHOD(c_agent_on_slice, agent_on_slice,
                "on_slice() takes (self, slice_index)")
SELF_ARG_METHOD(c_agent_accept_relay, agent_accept_relay,
                "accept_relay() takes (self, packet)")
SELF_ARG_METHOD(c_bulk_sink_on_packet, bulk_sink_on_packet,
                "on_packet() takes (self, packet)")

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

/* The class under `key` into `cls` (held by tmp) for the OFF lines that
 * follow. */
#define CFG_CLASS(key)                                                        \
    do {                                                                      \
        CFG_OBJ(tmp, key);                                                    \
        if (!PyType_Check(tmp)) {                                             \
            PyErr_Format(PyExc_TypeError, "ckernel init: %s is not a class",  \
                         key);                                                \
            return NULL;                                                      \
        }                                                                     \
        cls = tmp;                                                            \
    } while (0)

/* CFG_CLASS, and the class into the exact-type slot `var` (owned). */
#define CFG_TYPE(var, key)                                                    \
    do {                                                                      \
        CFG_CLASS(key);                                                       \
        Py_XSETREF(var, (PyTypeObject *)Py_NewRef(cls));                      \
    } while (0)

static PyObject *
c_init(PyObject *mod, PyObject *cfg)
{
    PyObject *cls, *tmp = NULL;

    if (!PyDict_CheckExact(cfg)) {
        PyErr_SetString(PyExc_TypeError, "init() takes a config dict");
        return NULL;
    }

    CFG_CLASS("Simulator");
    OFF(cls, "now", S.now);
    OFF(cls, "_heap", S.heap);
    OFF(cls, "events_processed", S.events_processed);
    if (init_tail(mod, cls, "repro.net.kernel._ckernel.SimTail",
                  "Simulator with its clock as an int64 field: the base of "
                  "CKSimulator.",
                  sizeof(SimTail), sim_tail_getset, &g_sim_tail,
                  &t_simtail) < 0)
        return NULL;

    CFG_CLASS("Port");
    OFF(cls, "sim", P.sim);
    OFF(cls, "resolver", P.resolver);
    OFF(cls, "trimming", P.trimming);
    OFF(cls, "on_undeliverable", P.on_undeliverable);
    OFF(cls, "on_bulk_drop", P.on_bulk_drop);
    OFF(cls, "stats", P.stats);
    OFF(cls, "_q_control", P.q_control);
    OFF(cls, "_q_data", P.q_data);
    OFF(cls, "_q_bulk", P.q_bulk);
    OFF(cls, "_target", P.target);
    OFF(cls, "_committed_control", P.committed_control);
    OFF(cls, "_deliver", P.deliver);
    OFF(cls, "_kick_cb", P.kick_cb);
    OFF(cls, "_undeliv_cb", P.undeliv_cb);
    if (init_tail(mod, cls, "repro.net.kernel._ckernel.PortTail",
                  "Port with its line-free time, byte counts, kick flag and "
                  "serializer and queue constants as int64 fields: the base "
                  "of CKPort.",
                  sizeof(PortTail), port_tail_getset, &g_port_tail,
                  &t_porttail) < 0)
        return NULL;

    CFG_TYPE(t_packet, "Packet");
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
    OFF(cls, "recv_args", K.recv_args);
    OFF(cls, "_pooled", K.pooled);

    CFG_CLASS("Host");
    OFF(cls, "sources", H.sources);
    OFF(cls, "sinks", H.sinks);
    OFF(cls, "dropped", H.dropped);

    CFG_CLASS("SwitchNode");
    OFF(cls, "drops", W.drops);

    /* The routing tables: an exact instance is interpreted natively. */
    CFG_TYPE(t_route_table, "RouteTable");
    OFF(cls, "rack", RT.rack);
    OFF(cls, "hosts_per_rack", RT.hosts_per_rack);
    OFF(cls, "host_ports", RT.host_ports);
    OFF(cls, "options", RT.options);
    OFF(cls, "bumps", RT.bumps);
    OFF(cls, "relay", RT.relay);
    OFF(cls, "sim", RT.sim);
    OFF(cls, "slice_ps", RT.slice_ps);
    OFF(cls, "fallback", RT.fallback);

    CFG_TYPE(t_slice_resolver, "SliceResolver");
    OFF(cls, "slice_ps", SR.slice_ps);
    OFF(cls, "peers", SR.peers);
    OFF(cls, "dark_from", SR.dark_from);

    CFG_CLASS("NdpSource");
    OFF(cls, "record", NS.record);
    OFF(cls, "priority", NS.priority);
    OFF(cls, "mtu", NS.mtu);
    OFF(cls, "n_packets", NS.n_packets);
    OFF(cls, "_next_new", NS.next_new);
    OFF(cls, "_rtx", NS.rtx);
    OFF(cls, "_acked", NS.acked);
    OFF(cls, "_pulls_banked", NS.pulls_banked);
    OFF(cls, "_send", NS.send);

    CFG_CLASS("NdpSink");
    OFF(cls, "sim", NK.sim);
    OFF(cls, "record", NK.record);
    OFF(cls, "pacer", NK.pacer);
    OFF(cls, "stats", NK.stats);
    OFF(cls, "source", NK.source);
    OFF(cls, "_received", NK.received);
    OFF(cls, "_pull_seq", NK.pull_seq);
    OFF(cls, "_send", NK.send);

    CFG_CLASS("PullPacer");
    OFF(cls, "sim", PP.sim);
    OFF(cls, "interval_ps", PP.interval_ps);
    OFF(cls, "_tokens", PP.tokens);
    OFF(cls, "_running", PP.running);
    OFF(cls, "_tick_cb", PP.tick_cb);

    /* Flow bookkeeping: an exact instance is read by offset. */
    CFG_TYPE(t_record, "FlowRecord");
    OFF(cls, "flow_id", R.flow_id);
    OFF(cls, "src_host", R.src_host);
    OFF(cls, "dst_host", R.dst_host);
    OFF(cls, "size_bytes", R.size_bytes);
    OFF(cls, "end_ps", R.end_ps);
    OFF(cls, "delivered_bytes", R.delivered_bytes);
    OFF(cls, "retransmissions", R.retransmissions);

    CFG_TYPE(t_collector, "StatsCollector");
    OFF(cls, "flows", SC.flows);
    OFF(cls, "throughput_bin_ps", SC.throughput_bin_ps);
    OFF(cls, "_bins", SC.bins);

    /* RotorLB. */
    CFG_CLASS("RotorLBAgent");
    OFF(cls, "hosts_per_rack", LB.hosts_per_rack);
    OFF(cls, "uplinks", LB.uplinks);
    OFF(cls, "slice_payload_bytes", LB.slice_payload_bytes);
    OFF(cls, "relay_cap_bytes", LB.relay_cap_bytes);
    OFF(cls, "enable_vlb", LB.enable_vlb);
    OFF(cls, "active_by_slice", LB.active_by_slice);
    OFF(cls, "_budget_template", LB.budget_template);
    OFF(cls, "local_flows", LB.local_flows);
    OFF(cls, "local_backlog", LB.local_backlog);
    OFF(cls, "relay_q", LB.relay_q);
    OFF(cls, "relay_bytes", LB.relay_bytes);
    OFF(cls, "_host_budget", LB.host_budget);
    OFF(cls, "peers", LB.peers);
    OFF(cls, "vlb_bytes_sent", LB.vlb_bytes_sent);
    OFF(cls, "direct_bytes_sent", LB.direct_bytes_sent);
    OFF(cls, "disabled", LB.disabled);
    OFF(cls, "failure_view", LB.failure_view);
    OFF(cls, "relay_vlb_dsts", LB.relay_vlb_dsts);

    CFG_TYPE(t_bulkflow, "BulkFlow");
    OFF(cls, "record", BF.record);
    OFF(cls, "payload_per_packet", BF.payload_per_packet);
    OFF(cls, "unsent_bytes", BF.unsent_bytes);
    OFF(cls, "next_seq", BF.next_seq);

    CFG_CLASS("BulkSink");
    OFF(cls, "sim", BK.sim);
    OFF(cls, "record", BK.record);
    OFF(cls, "stats", BK.stats);
    OFF(cls, "_received", BK.received);

    CFG_TYPE(t_deque, "deque");
    Py_XSETREF(g_dq_append, PyObject_GetAttrString(cls, "append"));
    Py_XSETREF(g_dq_popleft, PyObject_GetAttrString(cls, "popleft"));
    Py_XSETREF(g_dq_rotate, PyObject_GetAttrString(cls, "rotate"));
    if (g_dq_append == NULL || g_dq_popleft == NULL || g_dq_rotate == NULL)
        return NULL;

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
    Py_XSETREF(g_ack_val, PyObject_GetAttr(g_kind_ack, s_value));
    Py_XSETREF(g_nack_val, PyObject_GetAttr(g_kind_nack, s_value));
    Py_XSETREF(g_pull_val, PyObject_GetAttr(g_kind_pull, s_value));
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
    CFG_OBJ(tmp, "MTU_BYTES");
    if (as_ll(tmp, &g_mtu_ll) < 0)
        return NULL;
    CFG_OBJ(g_header_bytes, "HEADER_BYTES");
    if (as_ll(g_header_bytes, &g_header_ll) < 0)
        return NULL;
    CFG_OBJ(g_py_past_error, "py_past_error");
    CFG_OBJ(g_py_acquire, "py_acquire");
    CFG_OBJ(g_py_on_slice, "py_on_slice");
    Py_CLEAR(tmp);
    if (PyErr_Occurred())
        return NULL;
    g_ready = 1;
    Py_RETURN_NONE;
}

/* The exact CK classes of the contract, in register()'s argument
 * order. */
static PyTypeObject **const registered[] = {
    &t_cksim,  &t_ckport,  &t_ckhost,  &t_ckswitch,  &t_cksrc,
    &t_cksink, &t_ckpacer, &t_ckagent, &t_ckbulksink,
};

static PyObject *
c_register(PyObject *Py_UNUSED(mod), PyObject *args)
{
    Py_ssize_t i, n = sizeof(registered) / sizeof(registered[0]);
    if (!g_ready) {
        PyErr_SetString(PyExc_RuntimeError,
                        "register: call init() first");
        return NULL;
    }
    if (PyTuple_GET_SIZE(args) != n) {
        PyErr_Format(PyExc_TypeError, "register() takes the %zd CK classes",
                     n);
        return NULL;
    }
    for (i = 0; i < n; i++)
        if (!PyType_Check(PyTuple_GET_ITEM(args, i))) {
            PyErr_SetString(PyExc_TypeError, "register() takes classes");
            return NULL;
        }
    /* The kernel finds the clock and port fields in the tails. */
    if (!PyType_IsSubtype((PyTypeObject *)PyTuple_GET_ITEM(args, 0),
                          t_simtail) ||
        !PyType_IsSubtype((PyTypeObject *)PyTuple_GET_ITEM(args, 1),
                          t_porttail)) {
        PyErr_SetString(PyExc_TypeError,
                        "register: the simulator and port classes must "
                        "subclass _ckernel.SimTail and _ckernel.PortTail");
        return NULL;
    }
    for (i = 0; i < n; i++)
        Py_XSETREF(*registered[i],
                   (PyTypeObject *)Py_NewRef(PyTuple_GET_ITEM(args, i)));
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
     "Capture slot offsets, sentinels and the Python seams."},
    {"register", (PyCFunction)c_register, METH_VARARGS,
     "Register the CK* classes: the contract's exact types."},
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
static PyMethodDef m_agent_on_slice = {
    "agent_on_slice", (PyCFunction)c_agent_on_slice, METH_FASTCALL,
    "Compiled RotorLBAgent.on_slice."};
static PyMethodDef m_agent_accept_relay = {
    "agent_accept_relay", (PyCFunction)c_agent_accept_relay, METH_FASTCALL,
    "Compiled RotorLBAgent.accept_relay."};
static PyMethodDef m_bulk_sink_on_packet = {
    "bulk_sink_on_packet", (PyCFunction)c_bulk_sink_on_packet, METH_FASTCALL,
    "Compiled BulkSink.on_packet."};

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

/* Interned attribute and method names. */
static const struct {
    PyObject **var;
    const char *name;
} interned[] = {
    {&s_receive_cb, "receive_cb"},
    {&s_receive, "receive"},
    {&s_enqueue, "enqueue"},
    {&s_value, "value"},
};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    PyObject *m;
    size_t i;

    if (PyType_Ready(&EventHeap_Type) < 0 || PyType_Ready(&Fifo_Type) < 0 ||
        PyType_Ready(&Ledger_Type) < 0 || PyType_Ready(&PortCounters_Type) < 0)
        return NULL;
    m = PyModule_Create(&ckernel_module);
    if (m == NULL)
        return NULL;
    if (PyModule_AddType(m, &EventHeap_Type) < 0 ||
        PyModule_AddType(m, &Fifo_Type) < 0 ||
        PyModule_AddType(m, &Ledger_Type) < 0 ||
        PyModule_AddType(m, &PortCounters_Type) < 0)
        goto fail;
#ifdef CKERNEL_SOURCE_SHA256
    /* setup.py passes the sha256 of this file; repro.net.kernel refuses a
     * module whose hash differs from the _ckernel.c beside it. */
    if (PyModule_AddStringConstant(m, "SOURCE_SHA256", CKERNEL_SOURCE_SHA256) <
        0)
        goto fail;
#endif
    for (i = 0; i < sizeof(interned) / sizeof(interned[0]); i++) {
        *interned[i].var = PyUnicode_InternFromString(interned[i].name);
        if (*interned[i].var == NULL)
            goto fail;
    }
    g_empty = PyTuple_New(0);
    g_src_salt = PyLong_FromLongLong(0x9E3779B9LL);
    g_zero = PyLong_FromLong(0);
    g_minus_one = PyLong_FromLong(-1);
    if (g_empty == NULL || g_src_salt == NULL || g_zero == NULL ||
        g_minus_one == NULL)
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
        add_instancemethod(m, &m_pacer_tick, NULL) < 0 ||
        add_instancemethod(m, &m_agent_on_slice, NULL) < 0 ||
        add_instancemethod(m, &m_agent_accept_relay, NULL) < 0 ||
        add_instancemethod(m, &m_bulk_sink_on_packet, NULL) < 0)
        goto fail;
    return m;
fail:
    Py_DECREF(m);
    return NULL;
}
