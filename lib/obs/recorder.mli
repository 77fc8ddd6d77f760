(** Cross-layer observability recorder: virtual-time spans with
    parent/child nesting, named monotonic counters, and log-bucketed
    latency histograms ({!Histogram}).

    One recorder is threaded through a whole simulated stack (Cricket
    client shim, ONC RPC client/server, network channel, TCP stack, GPU
    simulator); every instrumented layer holds a reference and emits
    events against it. Timestamps come from the recorder's clock hook —
    the benchmarks install the simulation engine's virtual clock, so
    spans decompose exactly the virtual time the measurements report.

    {b Cost contract.} Recording is off by default. Every event entry
    point ({!span_begin}, {!span_end}, {!span_event}, {!incr}, {!observe})
    checks [enabled] first and returns immediately when off — at most one
    branch per event. Instrumentation sites that would need to {e compute}
    an argument (build a name, format a string) must guard on {!enabled}
    themselves so the disabled path stays free of allocation. {!null} is a
    shared recorder that can never be enabled, for use as a default. *)

type t

type span
(** Handle for an open span. {!null_span} (also returned by {!span_begin}
    when recording is off) is inert: ending it is a no-op. *)

type span_info = {
  id : int;  (** dense, in begin order *)
  parent : int;  (** enclosing span's id, or -1 for a root span *)
  name : string;
  layer : string;  (** e.g. "shim", "rpc", "net", "dispatch", "gpu" *)
  start_ns : int64;
  stop_ns : int64;
}

val null_span : span

val create : ?clock:(unit -> int64) -> ?max_spans:int -> unit -> t
(** [clock] returns the current time in ns (default: constant 0 until
    {!set_clock}). [max_spans] bounds retained spans (default 1_000_000);
    beyond it spans are counted in {!dropped_spans} and still feed the
    per-layer histograms, but are not retained. *)

val null : t
(** A shared recorder that is permanently disabled: {!set_enabled} on it
    is a no-op. The default for every layer's [set_obs]. *)

val set_clock : t -> (unit -> int64) -> unit
val enabled : t -> bool
val set_enabled : t -> bool -> unit

(** {1 Spans} *)

val span_begin : t -> ?layer:string -> string -> span
(** Open a span starting now. Its parent is the innermost span currently
    open on this recorder. [layer] defaults to ["misc"]. *)

val span_end : t -> span -> unit
(** Close a span: stamps its stop time, records its duration in the
    histogram named ["span/" ^ layer], and pops it from the nesting
    stack. Closing out of order is tolerated (the span is removed from
    wherever it sits in the stack). *)

val with_span : t -> ?layer:string -> string -> (unit -> 'a) -> 'a
(** [with_span t name f] wraps [f] in a span, closing it on exceptions
    too. *)

val span_event :
  ?layer:string -> ?parent:span -> t -> name:string -> start_ns:int64 ->
  stop_ns:int64 -> unit
(** Record an already-closed span with explicit timestamps — e.g. GPU
    stream commands whose completion lies in the virtual future. Default
    parent: none (root); pass [parent] to attach it explicitly. Feeds the
    layer histogram like {!span_end}. *)

(** {1 Counters} *)

val incr : t -> ?by:int -> string -> unit
val counter : t -> string -> int
(** 0 for a counter never incremented. *)

val counters : t -> (string * int) list
(** Sorted by name. *)

(** {2 Per-tenant labels}

    Multi-tenant layers emit one counter per (name, tenant) pair under a
    canonical rendering, so producers and report code agree on the key
    without a registry. *)

val tenant_label : string -> tenant:string -> string
(** [tenant_label "tenancy.served" ~tenant:"uk3"] is
    ["tenancy.served{tenant=uk3}"]. *)

val tenant_of_label : string -> (string * string) option
(** Inverse of {!tenant_label}: [(name, tenant)] when the label carries a
    tenant, [None] otherwise. *)

val counters_prefixed : t -> prefix:string -> (string * int) list
(** Counters whose name starts with [prefix], sorted by name — e.g. all
    per-tenant instances of one logical counter. *)

(** {1 Histograms} *)

val observe : t -> string -> int64 -> unit
(** Record a value (ns) into the named histogram, creating it on first
    use. *)

val histogram : t -> string -> Histogram.t option
(** {1 Inspection} *)

val spans : t -> span_info list
(** Closed spans, in begin order. Open spans are not included. *)

val span_count : t -> int
(** Closed spans retained. *)

val dropped_spans : t -> int

val layer_total_ns : t -> string -> int64
(** Sum of closed-span durations in a layer. Layers are instrumented so
    that same-layer spans never nest, hence the plain sum is the layer's
    wall (virtual) time. *)

val reset : t -> unit
(** Drop all spans, counters and histograms; keep clock and enabled
    flag. *)
