(** Always-on flight recorder: a fixed-size ring of recent structured
    events — traps, IRQ deliveries, I/O and DMA activity, protocol
    frames, watchdog/chaos verdicts — fed by the machine and the
    monitor.

    Events are typed when recorded and rendered only when read: a slot
    keeps the cycle (a native int), the kind and a small {!detail}
    value, and a recorded event costs three array stores (no
    allocation, no formatting, no I/O).  Text
    is produced only by {!entries} and {!dump} — on crash/wedge into the
    crash bundle, or over the debug link via [qR].  When the ring wraps,
    the oldest entries are overwritten and counted in {!dropped}: the
    ring always holds the {e last} [capacity] events before the dump,
    which is exactly the "last millisecond before it died" view. *)

(** What an event says, kept unrendered until read. *)
type detail =
  | Event of Vmm_replay.Event.payload
      (** a record/replay tap; renders as {!Vmm_replay.Event.pp_payload} *)
  | Reflect of { vector : int; pc : int; depth : int }
      (** a trap reflected into the guest; renders as
          [vector=V pc=0xPC depth=D] *)
  | Io of { port : int; pc : int }
      (** an emulated port access; renders as [port=0xP pc=0xPC] *)
  | Text of string  (** a rare, already-rendered note *)

(** A retained event as read back, with its detail rendered. *)
type entry = {
  cycle : int;  (** engine time the event was recorded *)
  kind : string;  (** dot-separated source, e.g. [irq.deliver] *)
  detail : string;
}

type t

val default_capacity : int

(** [create ()] — an empty ring of [capacity] entries (default 512). *)
val create : ?capacity:int -> unit -> t

val capacity : t -> int

(** [note t ~cycle ~kind detail] records one event, overwriting the
    oldest when full. *)
val note : t -> cycle:int -> kind:string -> detail -> unit

(** [total t] — events ever recorded. *)
val total : t -> int

(** [retained t] — events currently in the ring. *)
val retained : t -> int

(** [dropped t] — events overwritten by wrap ([total - retained]). *)
val dropped : t -> int

(** [entries t] — retained entries, oldest first, rendered. *)
val entries : t -> entry list

val clear : t -> unit

(** [dump t] — self-describing text (the [qR] payload): a
    [flight total=… retained=… dropped=… capacity=…] header, then one
    [@cycle kind: detail] line per entry, oldest first. *)
val dump : t -> string
