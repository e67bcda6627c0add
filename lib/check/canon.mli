(** Canonical renderings of runtime values and store objects, used by the
    differential oracles to compare {e store effects} across engines.

    Two runs agree on the store when their canonical dumps are equal
    strings.  The rendering is chosen so that everything the paper's
    semantics calls observable is included — object kinds, slot contents,
    relation rows and indexed fields, byte arrays — while artefacts of the
    execution substrate (cached closures, compiled code, derived optimizer
    attributes, the PTML bytes of function objects) are excluded: those
    legitimately differ between the tree evaluator, the abstract machine
    and optimized code. *)

open Tml_vm

(** [render_obj_full obj] — one line, e.g. [array[1 2 3]] or
    [relation r rows[<oid 4> <oid 5>] indexes[0 2]]; function objects
    render with their persisted payload (name, PTML digest, R-value
    bindings, derived attributes): what the codec oracles must see
    compared.  One object alone: a paged index's root renders its
    directory of leaves. *)
val render_obj_full : Value.obj -> string

(** [dump_heap heap] — every materialized object, one line per object in
    allocation order, function objects skipped.  OIDs (both the per-line
    labels and references inside objects) are renumbered over the included
    objects, so engines that allocate auxiliary function objects (the
    reflective optimizer) still dump equal.  An index renders its keys
    and positions, not its layout: a paged index's leaves are not listed
    on their own, and its root renders every key they hold. *)
val dump_heap : Value.Heap.heap -> string

(** [dump_heap_all heap] — like {!dump_heap} but {e includes} function
    objects (name and PTML bytes, not caches): the store round-trip oracle
    needs them compared, the cross-engine oracle must not. *)
val dump_heap_all : Value.Heap.heap -> string

(** [dump_reachable ctx roots] — the objects reachable from [roots]
    (following array/vector/tuple slots, relation rows and triggers),
    rendered in discovery order with stable local numbering, function
    objects skipped.  Dereferences through the heap, so backing-store
    objects fault in. *)
val dump_reachable : Runtime.ctx -> Value.t list -> string
