(** Priority queue of timestamped events.

    The queue orders events by [(time, sequence)]: events scheduled for the
    same time fire in insertion order, which keeps simulations deterministic.
    Times are native [int] counts (the simulator uses CPU cycles); reading
    the earliest time and popping an event allocate nothing. *)

type 'a t

(** [create ()] is an empty queue. *)
val create : unit -> 'a t

(** [is_empty q] is true when no event is pending. *)
val is_empty : 'a t -> bool

(** [length q] is the number of pending events. *)
val length : 'a t -> int

(** Handle to a scheduled event, usable for cancellation. *)
type handle

(** [no_event] is [max_int], what {!next_time} reads on an empty queue.
    No event can be scheduled at or after it. *)
val no_event : int

(** [add q ~time payload] schedules [payload] at [time] and returns a handle.
    [time] may be in the past relative to previously popped events; ordering
    is the caller's concern.
    @raise Invalid_argument if [time >= no_event]. *)
val add : 'a t -> time:int -> 'a -> handle

(** [cancel q h] removes the event behind [h]; returns [false] when the event
    already fired or was cancelled before. *)
val cancel : 'a t -> handle -> bool

(** [next_time q] is the timestamp of the earliest pending event, or
    {!no_event} when none is pending. *)
val next_time : 'a t -> int

(** [pop q] removes the earliest pending event and returns its payload
    (its time is the {!next_time} read just before).
    @raise Invalid_argument when the queue is empty. *)
val pop : 'a t -> 'a

(** [clear q] drops every pending event. *)
val clear : 'a t -> unit
