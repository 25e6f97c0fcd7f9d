(** Experiment harness: runs the HiTactix data-transfer workload on each of
    the paper's three systems and measures what Fig 3.1 plots — CPU load as
    a function of transfer rate — plus the throughput actually achieved on
    the wire. *)

type system =
  | Bare_metal  (** "real hardware" in Fig 3.1 *)
  | Lightweight_vmm  (** the paper's monitor *)
  | Hosted_full_vmm  (** the VMware Workstation 4 stand-in *)

val system_name : system -> string
val all_systems : system list

type measurement = {
  system : system;
  requested_mbps : float;
  achieved_mbps : float;  (** wire bytes (headers included) over the window *)
  cpu_load : float;  (** busy fraction over the measurement window *)
  duration_s : float;
  frames : int;  (** frames on the wire during the window *)
  counters : Vmm_guest.Kernel.counters;  (** guest's own view, cumulative *)
  busy_cycles : int64;  (** busy cycles inside the window *)
  elapsed_cycles : int64;
  breakdown : (string * int64) list;
      (** per-category busy cycles over the window (guest, mon_*, irq,
          stub — see docs/OBSERVABILITY.md); sums to [busy_cycles] *)
  irq_latency_p50 : float;  (** raise-to-ack delivery latency, cycles *)
  irq_latency_p99 : float;
      (** measured on the guest-facing interrupt controller (virtual PIC
          under a monitor, physical PIC on bare metal) *)
}

(** Live handles for callers that want system-specific statistics. *)
type context =
  | Ctx_bare of Vmm_hw.Machine.t
  | Ctx_lw of Core.Monitor.t
  | Ctx_full of Vmm_baseline.Full_vmm.t

val machine_of : context -> Vmm_hw.Machine.t

(** [prepare ?costs ?mem_size ?jit system ~config] builds a machine
    ([jit] as in {!Vmm_hw.Machine.create}), installs the system and boots
    the guest kernel. *)
val prepare :
  ?costs:Vmm_hw.Costs.t ->
  ?mem_size:int ->
  ?jit:bool ->
  system ->
  config:Vmm_guest.Kernel.config ->
  context * Vmm_hw.Asm.program

(** [measure ctx program ~config ~warmup_s ~duration_s] runs the prepared
    system and measures over [duration_s] after discarding [warmup_s]. *)
val measure :
  context ->
  Vmm_hw.Asm.program ->
  config:Vmm_guest.Kernel.config ->
  warmup_s:float ->
  duration_s:float ->
  measurement

(** [run ?costs ?mem_size system ~rate_mbps ~duration_s] — prepare +
    measure with the paper's default workload shape at [rate_mbps]. *)
val run :
  ?costs:Vmm_hw.Costs.t ->
  ?mem_size:int ->
  ?jit:bool ->
  ?warmup_s:float ->
  system ->
  rate_mbps:float ->
  duration_s:float ->
  measurement * context

(** [max_sustainable_rate ?costs system ~lo ~hi ~steps] — bisection for the
    highest rate the system still delivers (achieved >= 95% of requested
    with CPU load < 99%); used for the paper's 5.4x / 26% headline. *)
val max_sustainable_rate :
  ?costs:Vmm_hw.Costs.t ->
  ?jit:bool ->
  ?duration_s:float ->
  system ->
  lo:float ->
  hi:float ->
  steps:int ->
  float
