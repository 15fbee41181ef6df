(** Byzantine behaviour framework.

    A behaviour owns one node id and is installed instead of a correct
    protocol node. It gets raw network access — it may send any payload at
    any time, but only under its own authenticated identity (paper §2). *)

open Ssba_core.Types

type env = {
  self : node_id;
  params : Ssba_core.Params.t;
  engine : Ssba_sim.Engine.t;
  rng : Ssba_sim.Rng.t;
  link : message Ssba_net.Link.t;
      (** the same sending surface correct nodes use (network or transport) *)
  clock : Ssba_sim.Clock.t;
}

type t

(** [make ~name install] wraps an installation function, which registers the
    network handler for [env.self] and may schedule autonomous activity. *)
val make : name:string -> (env -> unit) -> t

val name : t -> string
val install : t -> env -> unit

(** {2 Helpers for writing strategies} *)

val send : env -> dst:node_id -> message -> unit
val send_to : env -> dsts:node_id list -> message -> unit

(** Send to every node, including self. *)
val send_all : env -> message -> unit

(** Schedule at an absolute engine time / after a real delay. *)
val at : env -> time:float -> (unit -> unit) -> unit

val after : env -> delay:float -> (unit -> unit) -> unit

(** Repeat forever with the given period (first firing after one period). *)
val every : env -> period:float -> (unit -> unit) -> unit

(** Install the network handler for [env.self]. *)
val on_message : env -> (message Ssba_net.Msg.t -> unit) -> unit

(** A random plausible protocol message drawn over [values] (for fuzzers). *)
val random_message : env -> values:value list -> message
