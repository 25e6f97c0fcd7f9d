(** Discrete-event simulation engine.

    Time is counted in CPU cycles and held as a native [int] (2{^62}
    cycles, about 116 years at 1.26 GHz), so advancing the clock and
    reading it allocate nothing.  Components schedule thunks at absolute
    or relative times; [run_until] advances the clock to each event in
    order and executes it.  The machine simulator interleaves instruction
    execution with event dispatch by consulting the next event time.

    The [int64] functions are the long-standing public boundary: they
    convert at the call.  An [int64] time at or beyond {!no_event} is
    refused with [Invalid_argument], never wrapped.  The [_int] functions
    are the same operations on native cycles, for the hot paths. *)

type t

(** [create ()] is an engine with the clock at cycle 0. *)
val create : unit -> t

(** [now engine] is the current simulation time in cycles. *)
val now : t -> int64

(** [now_int engine] is [now engine] as a native int. *)
val now_int : t -> int

(** [no_event] is [max_int]: what {!next_event_int} reads when nothing is
    scheduled, and the first cycle the clock cannot reach. *)
val no_event : int

(** [cycles_of_time fn time] is [time] as native cycles.
    @raise Invalid_argument naming [fn] when [time >= no_event]. *)
val cycles_of_time : string -> int64 -> int

(** [horizon_of_time time] is [time] as native cycles, clamped to
    {!no_event} ("never") when it is out of range.  Only for times that
    merely bound a loop. *)
val horizon_of_time : int64 -> int

(** [advance engine cycles] moves the clock forward by [cycles] without
    dispatching events (used by the CPU to account instruction time).
    @raise Invalid_argument if [cycles] is negative. *)
val advance : t -> int -> unit

(** [at engine ~time f] schedules [f] to run when the clock reaches [time].
    Scheduling in the past clamps to the current time.
    @raise Invalid_argument if [time] is out of range. *)
val at : t -> time:int64 -> (unit -> unit) -> Event_queue.handle

(** [at_int engine ~time f] is {!at} on the native clock (see
    {!now_int}); [time] must be below {!no_event}. *)
val at_int : t -> time:int -> (unit -> unit) -> Event_queue.handle

(** [after engine ~delay f] schedules [f] at [now + delay].
    @raise Invalid_argument if [now + delay] is out of range. *)
val after : t -> delay:int64 -> (unit -> unit) -> Event_queue.handle

(** [cancel engine handle] cancels a scheduled thunk; false if already run. *)
val cancel : t -> Event_queue.handle -> bool

(** [next_event_time engine] is the timestamp of the next pending event. *)
val next_event_time : t -> int64 option

(** [next_event_int engine] is the next pending event's time, or
    {!no_event} when nothing is scheduled. *)
val next_event_int : t -> int

(** [wake_generation engine] increments every time something is scheduled.
    A batched run loop captures it before entering a tight stepping loop and
    re-checks it each iteration: any change means the event horizon it
    computed may be stale (e.g. a port write scheduled an earlier event),
    so the batch must fall back to the dispatcher. *)
val wake_generation : t -> int

(** [dispatch_due engine] runs every event whose time is [<= now], in order.
    Returns the number of events dispatched. *)
val dispatch_due : t -> int

(** [run_until engine ~time] dispatches events in time order, advancing the
    clock to each, until the queue holds nothing at or before [time]; the
    clock finishes at exactly [time] (or stays put if already past it).
    @raise Invalid_argument if [time] is out of range. *)
val run_until : t -> time:int64 -> unit

(** [run_until_int engine ~time] is {!run_until} on native cycles. *)
val run_until_int : t -> time:int -> unit

(** [run_until_idle ?max_events engine] dispatches until the queue is empty
    or [max_events] (default 10_000_000) have run; returns events run. *)
val run_until_idle : ?max_events:int -> t -> int

(** [pending engine] is the number of scheduled events. *)
val pending : t -> int
