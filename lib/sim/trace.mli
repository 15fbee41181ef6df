(** Structured run traces: timestamped, per-node, {e typed} events.

    This is the one event stream of a run: the network, transport, protocol
    core, service and harness all record into it, and every consumer (the
    CLI's [--trace]/[--trace-out], the invariant monitor, the fuzz oracle)
    reads it back. A trace records only the {!Kind}s its creator asked for;
    an emit site tests {!wants} before building an event, so a kind nobody
    records costs one branch and no allocation. Events carry their data
    unformatted; rendering to text happens only in {!pp} and {!to_jsonl}. *)

(** The kind of an event: what a trace filters and masks on. *)
module Kind : sig
  type t =
    | Send | Deliver | Drop | Propose | Ia_invoke | Ia_reject | Ia_skip
    | I_accept | Anchor_set | Mb_accept | Mb_broadcaster | Broadcast
    | Agree_return | Ig3_failure | Scramble | Reform | Delay_surge | Duplicate
    | Retransmit | Dup_suppress | Retries_exhausted | Service_admit
    | Service_shed | Service_queue | Service_mode | Session_evict | Eig_decide
    | Tps_return

  (** Every kind, in declaration order. *)
  val all : t list

  (** The stable tag the kind is filtered and exported under. *)
  val name : t -> string
end

(** Local times ([tau], [tau_g]) are readings of the recording node's clock;
    the entry's [time] is the simulator's real time. *)
type event =
  | Send of { src : int; dst : int; msg : string }
  | Deliver of { src : int; dst : int; msg : string }
  | Drop of { src : int; dst : int; msg : string; reason : string }
  | Propose of { g : int; v : string }
  | Ia_invoke of { g : int; v : string }
  | Ia_reject of { g : int; v : string }  (** block K1 freshness rejection *)
  | Ia_skip of { g : int; reason : string }  (** block N4 refused to anchor *)
  | I_accept of { g : int; v : string; tau_g : float; tau : float }
      (** the agreement instance took an I-accept and anchored on [tau_g]
          (not recorded once the instance has returned) *)
  | Anchor_set of { g : int; tau_g : float }  (** msgd-broadcast anchored *)
  | Mb_accept of { g : int; p : int; v : string; k : int; tau : float; tau_g : float }
      (** msgd-broadcast accepted [(p, v, k)] under its anchor [tau_g] *)
  | Mb_broadcaster of { g : int; p : int; total : int; tau : float }
      (** [p] first identified as a broadcaster (block Y, [TPS-4]) *)
  | Broadcast of { g : int; v : string; k : int; tau : float }
      (** this node broadcast [(self, v, k)] while deciding (R3/S3) *)
  | Agree_return of { g : int; decided : string option; tau_g : float }
      (** [decided = None] is an abort *)
  | Ig3_failure of { g : int }
  | Scramble of { garbage : int }
  | Reform of { node : int }
      (** a Byzantine node rejoined the correct protocol from arbitrary
          state *)
  | Delay_surge of { factor : float }
      (** delivery delays scaled by [factor]; [0.0] marks the restore *)
  | Duplicate of { src : int; dst : int; msg : string }
      (** network-level duplication fault: a second copy of a sent message *)
  | Retransmit of { src : int; dst : int; msg : string; attempt : int }
      (** transport resending an unacked frame; [attempt] is 1-based *)
  | Dup_suppress of { src : int; dst : int; seq : int }
      (** transport receive-side dedup dropped an already-seen frame *)
  | Retries_exhausted of { src : int; dst : int; msg : string; seq : int }
      (** transport gave up on an unacked frame after the retry cap *)
  | Service_admit of { g : int; live : int }
      (** service admission controller let a proposal through *)
  | Service_shed of { g : int; reason : string }
      (** service admission controller turned a proposal away *)
  | Service_queue of { g : int; depth : int }
      (** proposal parked in the bounded pending queue; [depth] after *)
  | Service_mode of { degraded : bool; live : int }
      (** overload detector flipped the service mode *)
  | Session_evict of { g : int }
      (** a full session table dropped G's live session to make room *)
  | Eig_decide of { v : string }  (** the EIG baseline decided [v] *)
  | Tps_return of { decided : string option; phase : int }
      (** the TPS baseline returned ([None] is an abort) in [phase] *)

val kind : event -> Kind.t

(** [Kind.name (kind e)]. *)
val kind_of_event : event -> string

(** Render an event's detail text. *)
val detail_of_event : event -> string

(** Structural equality. *)
val equal_event : event -> event -> bool

type entry = {
  time : float;  (** simulator real time *)
  node : int;  (** -1 for system/network events *)
  event : event;
}

val entry_kind : entry -> string
val entry_detail : entry -> string
val equal_entry : entry -> entry -> bool

type t

(** [create ?enabled ?kinds ()] builds a trace recording exactly [kinds];
    without [kinds] it records every kind when [enabled] (the default) and
    none otherwise. *)
val create : ?enabled:bool -> ?kinds:Kind.t list -> unit -> t

(** Whether the trace records kind [k]. Emit sites test it before building
    an event, so an unrecorded kind allocates nothing. *)
val wants : t -> Kind.t -> bool

(** Append an event if the trace records its kind. *)
val record : t -> time:float -> node:int -> event -> unit
val clear : t -> unit

(** Number of entries recorded since the last [clear]. *)
val count : t -> int

(** Entries in chronological order. *)
val to_list : t -> entry list

(** Chronological entries matching the given node and/or kind. *)
val filter : ?node:int -> ?kind:string -> t -> entry list

val pp_entry : Format.formatter -> entry -> unit
val pp : Format.formatter -> t -> unit

(** One JSON object per line ({i time}, {i node}, {i kind}, plus the event's
    fields), chronological. *)
val to_jsonl : t -> string

exception Import_error of string

(** Parse {!to_jsonl} output back into entries; raises {!Import_error} on
    malformed input or an unknown kind. *)
val entries_of_jsonl : string -> entry list
