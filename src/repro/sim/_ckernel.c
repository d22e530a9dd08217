/* The C drain loop: Simulator.run's hot path when this module is built.
 *
 * One entry point: drain(sim, until, exclusive) — the loop of
 * repro/sim/kernel.py rewritten as C against the same data structure.
 * The heap stays sim._heap, a Python list of plain list entries
 * ([time, priority, seq, callback, args]: built by the list display in
 * Simulator.schedule / schedule_at, documented in repro/sim/events.py),
 * so scheduling from callbacks (which runs the ordinary Python
 * schedule()) interleaves freely with the C pops, and the Python
 * loop sees an identical heap.
 *
 * Semantics are held bit-identical to the reference loop: the
 * dispatch-digest goldens and the fused-vs-naive hypothesis suite run
 * on both.  Specifically:
 *
 *  - (time, priority, seq) total order via list comparison.  The
 *    comparison never reaches the callback in slot 3 because seq
 *    values are distinct, so no user __lt__ can run inside the sift.
 *  - The inclusive horizon dispatches events at exactly `until`; the
 *    exclusive horizon (the space-parallel barrier window) leaves
 *    them queued.  Same form as the Python loop: the first live
 *    event past the horizon is pushed back.
 *  - An entry whose callback slot is None is stale and skipped; a
 *    dispatched entry has its callback slot set to None and sim.now
 *    set to its time before the callback runs, exactly like the
 *    reference loop.  sim._dispatched accumulates in a C local and is
 *    written back on every exit path (the reference loop's `finally`),
 *    including when a callback raises.
 *
 * The three Simulator slots are reached through member-descriptor
 * offsets resolved once at first use (Simulator is a __slots__ class),
 * so the per-event cost is a pointer load, not an attribute lookup.
 * Offsets come from the descriptors themselves, so subclasses with
 * extra slots keep working — their inherited slots sit at the base
 * offsets.
 *
 * Built on demand: `make ckernel` (REPRO_BUILD_CKERNEL=1 python
 * setup.py build_ext --inplace).  repro/sim/kernel.py imports this
 * module if it is there and runs the reference loop if it is not.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

/* A slot of a __slots__ instance at a known byte offset. */
#define SLOT(op, off) (*(PyObject **)((char *)(op) + (off)))

static int bindings_ready = 0;
static Py_ssize_t off_now, off_dispatched, off_heap; /* Simulator */

/* Heap entry layout (built in repro/sim/kernel.py's schedule). */
enum { EV_TIME, EV_PRIORITY, EV_SEQ, EV_CALLBACK, EV_ARGS, EV_SIZE };

/* Byte offset of a T_OBJECT_EX slot, found via its member descriptor
 * on the type (inherited descriptors report the defining class's
 * offset, which is where the slot lives in subclass instances too). */
static Py_ssize_t
member_offset(PyTypeObject *tp, const char *name)
{
    PyObject *descr = PyObject_GetAttrString((PyObject *)tp, name);
    if (descr == NULL)
        return -1;
    if (!PyObject_TypeCheck(descr, &PyMemberDescr_Type)) {
        PyErr_Format(PyExc_TypeError,
                     "%s.%s is not a slot member descriptor",
                     tp->tp_name, name);
        Py_DECREF(descr);
        return -1;
    }
    PyMemberDef *member = ((PyMemberDescrObject *)descr)->d_member;
    Py_ssize_t offset = member->offset;
    int kind = member->type;
    Py_DECREF(descr);
    if (kind != T_OBJECT_EX && kind != T_OBJECT) {
        PyErr_Format(PyExc_TypeError,
                     "%s.%s is not an object slot", tp->tp_name, name);
        return -1;
    }
    return offset;
}

static int
ensure_bindings(PyObject *sim)
{
    if (bindings_ready)
        return 0;
    if ((off_now = member_offset(Py_TYPE(sim), "now")) < 0
        || (off_dispatched = member_offset(Py_TYPE(sim),
                                         "_dispatched")) < 0
        || (off_heap = member_offset(Py_TYPE(sim), "_heap")) < 0)
        return -1;
    bindings_ready = 1;
    return 0;
}

/* ------------------------------------------------------------------
 * Binary-heap primitives over a list of comparison-safe entries.
 * Mirrors heapq's algorithms (including the sift-to-leaf pop trick,
 * which halves the comparisons per level); comparisons only ever
 * touch floats and ints, so no user code can run (and thus nothing
 * mutates the list) inside a sift.
 * ------------------------------------------------------------------ */

/* entry_a < entry_b, with list-comparison semantics: time, then
 * priority, then seq (always distinct, so slot 3 is never compared).
 * The fast path compares unboxed doubles/longs; anything unusual —
 * int-typed times, priorities outside C long, the perturbation
 * differ's tuple in the seq slot — falls back to the generic
 * comparison, which implements the identical order.  Returns 1/0, or
 * -1 with an exception set. */
static int
entry_lt(PyObject *a, PyObject *b)
{
    PyObject *xa, *xb;
    int overflow_a, overflow_b;
    long va, vb;
    if (!PyList_Check(a) || !PyList_Check(b)
        || PyList_GET_SIZE(a) <= EV_SEQ || PyList_GET_SIZE(b) <= EV_SEQ)
        goto generic;
    xa = PyList_GET_ITEM(a, EV_TIME);
    xb = PyList_GET_ITEM(b, EV_TIME);
    if (!PyFloat_CheckExact(xa) || !PyFloat_CheckExact(xb))
        goto generic;
    {
        double ta = PyFloat_AS_DOUBLE(xa);
        double tb = PyFloat_AS_DOUBLE(xb);
        /* NaN compares unequal to itself in both formulations, and
         * the < below is then false — same verdict as list order. */
        if (ta != tb)
            return ta < tb;
    }
    xa = PyList_GET_ITEM(a, EV_PRIORITY);
    xb = PyList_GET_ITEM(b, EV_PRIORITY);
    if (!PyLong_CheckExact(xa) || !PyLong_CheckExact(xb))
        goto generic;
    va = PyLong_AsLongAndOverflow(xa, &overflow_a);
    vb = PyLong_AsLongAndOverflow(xb, &overflow_b);
    if (overflow_a || overflow_b)
        goto generic;
    if (va != vb)
        return va < vb;
    xa = PyList_GET_ITEM(a, EV_SEQ);
    xb = PyList_GET_ITEM(b, EV_SEQ);
    if (!PyLong_CheckExact(xa) || !PyLong_CheckExact(xb))
        goto generic;
    va = PyLong_AsLongAndOverflow(xa, &overflow_a);
    vb = PyLong_AsLongAndOverflow(xb, &overflow_b);
    if (overflow_a || overflow_b)
        goto generic;
    return va < vb;
generic:
    return PyObject_RichCompareBool(a, b, Py_LT);
}

/* Bubble the item at `pos` toward the root. */
static int
sift_toward_root(PyObject *heap, Py_ssize_t pos)
{
    PyObject *item = PyList_GET_ITEM(heap, pos);
    PyObject *old;
    Py_INCREF(item); /* conceptual hole at pos */
    while (pos > 0) {
        Py_ssize_t parentpos = (pos - 1) >> 1;
        PyObject *parent = PyList_GET_ITEM(heap, parentpos);
        int cmp = entry_lt(item, parent);
        if (cmp < 0)
            goto restore_fail;
        if (cmp == 0)
            break;
        Py_INCREF(parent);
        old = PyList_GET_ITEM(heap, pos);
        PyList_SET_ITEM(heap, pos, parent);
        Py_DECREF(old);
        pos = parentpos;
    }
    old = PyList_GET_ITEM(heap, pos);
    PyList_SET_ITEM(heap, pos, item);
    Py_DECREF(old);
    return 0;
restore_fail:
    /* Leave the list refcount-consistent; order no longer matters
     * because the comparison error is about to propagate. */
    old = PyList_GET_ITEM(heap, pos);
    PyList_SET_ITEM(heap, pos, item);
    Py_DECREF(old);
    return -1;
}

/* Sift the item at the root down to its place: walk the smaller-child
 * chain all the way to a leaf (one comparison per level), then bubble
 * the displaced item back up — heapq's _siftup strategy. */
static int
sift_toward_leaves(PyObject *heap)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    Py_ssize_t limit = n >> 1; /* nodes with at least one child */
    Py_ssize_t pos = 0;
    PyObject *item = PyList_GET_ITEM(heap, pos);
    PyObject *old;
    Py_INCREF(item); /* conceptual hole at pos */
    while (pos < limit) {
        Py_ssize_t child = 2 * pos + 1;
        PyObject *small;
        if (child + 1 < n) {
            int cmp = entry_lt(PyList_GET_ITEM(heap, child + 1),
                               PyList_GET_ITEM(heap, child));
            if (cmp < 0)
                goto restore_fail;
            if (cmp)
                child += 1;
        }
        small = PyList_GET_ITEM(heap, child);
        Py_INCREF(small);
        old = PyList_GET_ITEM(heap, pos);
        PyList_SET_ITEM(heap, pos, small);
        Py_DECREF(old);
        pos = child;
    }
    old = PyList_GET_ITEM(heap, pos);
    PyList_SET_ITEM(heap, pos, item);
    Py_DECREF(old);
    return sift_toward_root(heap, pos);
restore_fail:
    old = PyList_GET_ITEM(heap, pos);
    PyList_SET_ITEM(heap, pos, item);
    Py_DECREF(old);
    return -1;
}

static int
heap_push(PyObject *heap, PyObject *entry)
{
    if (PyList_Append(heap, entry) < 0)
        return -1;
    return sift_toward_root(heap, PyList_GET_SIZE(heap) - 1);
}

/* Pop the smallest entry.  Caller guarantees the heap is non-empty;
 * returns a new reference, or NULL on (comparison) error. */
static PyObject *
heap_pop(PyObject *heap)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    PyObject *last = PyList_GET_ITEM(heap, n - 1);
    PyObject *smallest, *old;
    Py_INCREF(last);
    if (PyList_SetSlice(heap, n - 1, n, NULL) < 0) {
        Py_DECREF(last);
        return NULL;
    }
    if (PyList_GET_SIZE(heap) == 0)
        return last;
    smallest = PyList_GET_ITEM(heap, 0);
    Py_INCREF(smallest);
    old = PyList_GET_ITEM(heap, 0);
    PyList_SET_ITEM(heap, 0, last); /* transfers our ref to the list */
    Py_DECREF(old);                 /* old == smallest; we still own 1 */
    if (sift_toward_leaves(heap) < 0) {
        Py_DECREF(smallest);
        return NULL;
    }
    return smallest;
}

/* sim._dispatched += n, preserving any in-flight exception (this is
 * the C analogue of the reference loop's `finally` writeback). */
static int
writeback_dispatched(PyObject *sim, Py_ssize_t n)
{
    PyObject *exc_type, *exc_value, *exc_tb;
    PyObject *old, *fresh;
    long value;
    int status = 0;
    PyErr_Fetch(&exc_type, &exc_value, &exc_tb);
    old = SLOT(sim, off_dispatched);
    value = PyLong_AsLong(old);
    if (value == -1 && PyErr_Occurred()) {
        PyErr_Clear();
        status = -1;
    }
    else {
        fresh = PyLong_FromLong(value + (long)n);
        if (fresh == NULL) {
            PyErr_Clear();
            status = -1;
        }
        else {
            SLOT(sim, off_dispatched) = fresh;
            Py_XDECREF(old);
        }
    }
    PyErr_Restore(exc_type, exc_value, exc_tb);
    return status;
}

/* ------------------------------------------------------------------
 * drain(sim, until, exclusive) -> now
 * ------------------------------------------------------------------ */

static PyObject *
drain(PyObject *module, PyObject *call_args)
{
    PyObject *sim, *until_obj, *heap, *result;
    int exclusive, has_until, status = 0;
    double until = 0.0;
    Py_ssize_t dispatched = 0;

    (void)module;
    if (!PyArg_ParseTuple(call_args, "OOp:drain",
                          &sim, &until_obj, &exclusive))
        return NULL;
    if (ensure_bindings(sim) < 0)
        return NULL;
    has_until = (until_obj != Py_None);
    if (has_until) {
        double now;
        until = PyFloat_AsDouble(until_obj);
        if (until == -1.0 && PyErr_Occurred())
            return NULL;
        now = PyFloat_AsDouble(SLOT(sim, off_now));
        if (now == -1.0 && PyErr_Occurred())
            return NULL;
        if (exclusive ? (until <= now) : (until < now)) {
            result = SLOT(sim, off_now);
            Py_INCREF(result);
            return result;
        }
    }
    /* The heap keeps its identity for the simulator's whole lifetime
     * (clear() empties it in place), so borrowing it across callbacks
     * is safe — same argument as the Python loop's hot local. */
    heap = SLOT(sim, off_heap);
    if (heap == NULL || !PyList_CheckExact(heap)) {
        PyErr_SetString(PyExc_TypeError,
                        "Simulator._heap is not a plain list");
        return NULL;
    }

    while (PyList_GET_SIZE(heap) > 0) {
        PyObject *entry = heap_pop(heap);
        PyObject *time_obj, *callback, *cb_args, *old, *res;
        if (entry == NULL) {
            status = -1;
            break;
        }
        /* A handle is a list its holder could have resized; nothing
         * below may index past what is there. */
        if (!PyList_Check(entry) || PyList_GET_SIZE(entry) != EV_SIZE
            || !PyTuple_Check(PyList_GET_ITEM(entry, EV_ARGS))) {
            Py_DECREF(entry);
            PyErr_SetString(PyExc_TypeError,
                            "heap entry is not [time, priority, seq, "
                            "callback, args tuple]");
            status = -1;
            break;
        }
        callback = PyList_GET_ITEM(entry, EV_CALLBACK);
        if (callback == Py_None) {
            /* Stale entry from cancel(): consume. */
            Py_DECREF(entry);
            continue;
        }
        time_obj = PyList_GET_ITEM(entry, EV_TIME);
        if (has_until) {
            double t = PyFloat_AsDouble(time_obj);
            if (t == -1.0 && PyErr_Occurred()) {
                Py_DECREF(entry);
                status = -1;
                break;
            }
            if (t >= until && (exclusive || t > until)) {
                /* First live event past the horizon: push back and
                 * stop — the reference loop's pop-then-undo. */
                if (heap_push(heap, entry) < 0)
                    status = -1;
                Py_DECREF(entry);
                break;
            }
        }
        /* Dispatch.  Bookkeeping before the callback, exactly like
         * the reference loop: clock, count, stale-marking (which
         * hands us the entry's reference to the callback). */
        Py_INCREF(time_obj);
        old = SLOT(sim, off_now);
        SLOT(sim, off_now) = time_obj;
        Py_XDECREF(old);
        dispatched += 1;
        Py_INCREF(Py_None);
        PyList_SET_ITEM(entry, EV_CALLBACK, Py_None);
        cb_args = PyList_GET_ITEM(entry, EV_ARGS);
        Py_INCREF(cb_args);
        Py_DECREF(entry);
        res = PyObject_Call(callback, cb_args, NULL);
        Py_DECREF(callback);
        Py_DECREF(cb_args);
        if (res == NULL) {
            status = -1;
            break;
        }
        Py_DECREF(res);
    }

    if (status == 0 && has_until) {
        double now = PyFloat_AsDouble(SLOT(sim, off_now));
        if (now == -1.0 && PyErr_Occurred())
            status = -1;
        else if (now < until) {
            /* Advance the clock to the horizon, assigning the caller's
             * object verbatim — reference semantics. */
            PyObject *old = SLOT(sim, off_now);
            Py_INCREF(until_obj);
            SLOT(sim, off_now) = until_obj;
            Py_XDECREF(old);
        }
    }
    if (writeback_dispatched(sim, dispatched) < 0 && status == 0) {
        PyErr_SetString(PyExc_TypeError,
                        "Simulator._dispatched is not an int");
        status = -1;
    }
    if (status < 0)
        return NULL;
    result = SLOT(sim, off_now);
    Py_INCREF(result);
    return result;
}

PyDoc_STRVAR(drain_doc,
"drain(sim, until, exclusive) -> float\n\
\n\
Dispatch pending events in (time, priority, seq) order up to the\n\
horizon; the C form of Simulator.run's Python loop.  Returns the\n\
clock when the loop stopped.  Internal: call Simulator.run() instead.");

static PyMethodDef ckernel_methods[] = {
    {"drain", drain, METH_VARARGS, drain_doc},
    {NULL, NULL, 0, NULL},
};

PyDoc_STRVAR(ckernel_doc,
"C drain loop behind repro.sim.kernel.Simulator.run (internal).");

static struct PyModuleDef ckernel_module = {
    PyModuleDef_HEAD_INIT,
    "repro.sim._ckernel",
    ckernel_doc,
    -1,
    ckernel_methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    return PyModule_Create(&ckernel_module);
}
