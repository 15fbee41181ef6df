(** The [msgd-broadcast] primitive (paper Figure 3, §5): a message-driven
    Reliable Broadcast whose round deadlines, anchored at the local estimate
    [tau_g] of the General's initiation, are upper bounds only — the
    primitive advances at actual network speed. Satisfies [TPS-1]–[TPS-4]
    once the system is stable and [n > 3f]. *)

open Types

type t

val create : ctx:ctx -> g:general -> t

(** Callback fired when a triplet [(p, v, k)] is accepted. *)
val set_on_accept : t -> (p:node_id -> v:value -> k:int -> unit) -> unit

(** Block V: broadcast [(self, v, k)] to all nodes. *)
val broadcast : t -> v:value -> k:int -> unit

(** Define the anchor [tau_g] (on I-accept) and replay logged messages. *)
val set_anchor : t -> float -> unit

val anchor : t -> float option

(** Handle an init/echo/init'/echo' arrival. Messages are logged even before
    the anchor exists; conditions are evaluated once it does. Round tags
    outside [1, f+1] are dropped. *)
val handle_message :
  t -> sender:node_id -> kind:mb_kind -> p:node_id -> v:value -> k:int -> unit

(** Nodes the Y-block identified as broadcasters ([TPS-4]). *)
val broadcaster_count : t -> int

val broadcasters : t -> node_id list

(** Figure 3's cleanup: decay anything older than [(2f+3) * Phi]. *)
val cleanup : t -> unit

(** Full per-agreement reset (3d after the agreement returns). *)
val reset : t -> unit

(** Indistinguishable from a freshly created instance (no trips, no
    broadcasters, no anchor) — eligible for session garbage collection. *)
val quiescent : t -> bool

(** Append a canonical state fingerprint (sorted trip keys, exact float
    text) — the model checker's visited-set encoding. *)
val fingerprint : Buffer.t -> t -> unit

(** Transient-fault injection. *)
val scramble : Ssba_sim.Rng.t -> values:value list -> t -> unit
