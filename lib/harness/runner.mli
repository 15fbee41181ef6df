(** Scenario interpreter: build the simulation, apply the event schedule, run
    to the horizon, and package everything the metrics and property layers
    need. A run is a pure function of its scenario (including the seed). *)

open Ssba_core.Types

(** What became of a scheduled proposal, evaluated at its [at] time.
    [No_general] means the target General is Byzantine or has no correct
    node, so no protocol code ran at all. *)
type proposal_outcome =
  | Accepted
  | Refused of Ssba_core.Node.propose_error
  | No_general

type result = {
  scenario : Scenario.t;
  returns : return_info list;  (** correct-node returns, in rt order *)
  correct : node_id list;
      (** ids running the correct protocol by the end of the run — the
          scenario's correct cast plus every node a [Reform] event rejoined *)
  clocks : Ssba_sim.Clock.t array;  (** per node id, Byzantine slots included *)
  nodes : (node_id * Ssba_core.Node.t) list;
      (** the correct protocol nodes, reformed rejoiners last *)
  proposal_results : (Scenario.proposal * proposal_outcome) list;
      (** in chronological ([at]) order *)
  engine_stats : Ssba_sim.Engine.stats;
  messages_sent : int;
  messages_delivered : int;
  messages_dropped : int;
  messages_duplicated : int;  (** fault-injected second copies *)
  messages_in_flight : int;  (** scheduled but undelivered at the horizon *)
  messages_by_kind : (string * int) list;
      (** frame kinds when the scenario runs a transport (acks included) *)
  transport_retransmits : int;  (** 0 when no transport runs *)
  transport_dup_suppressed : int;
  transport_expired : int;
  transport_retries_exhausted : int;
      (** frames the transport abandoned at the retry cap — previously a
          silent give-up *)
  metrics : Ssba_sim.Metrics.t;
      (** the engine's registry: [net.*], [engine.*], [node<i>.*] *)
  trace : Ssba_sim.Trace.t;  (** holds the kinds [scenario.record] names *)
}

(** Hook handed to a scenario driver (e.g. the {!Ssba_service} loop) before
    the engine runs: generate proposals at runtime (recorded in
    [proposal_results] like scheduled ones, [at] = engine time of the call)
    and observe every correct-node return, reformed rejoiners included. *)
type driver = {
  drv_engine : Ssba_sim.Engine.t;
  drv_params : Ssba_core.Params.t;
  drv_propose : g:int -> v:value -> proposal_outcome;
      (** [g] is a logical General id: node [g mod n], channel [g / n] *)
  drv_live : unit -> (node_id * Ssba_core.Node.t) list;
  drv_on_return : (return_info -> unit) -> unit;
}

(** Run a scenario to its horizon. [on_driver], if given, receives the
    {!driver} hook after setup and before the engine runs. *)
val run : ?on_driver:(driver -> unit) -> Scenario.t -> result

(** Same run, paced against the wall clock at [speed] virtual seconds per
    wall second (live-demo mode); results are identical to {!run}. *)
val run_paced : ?speed:float -> Scenario.t -> result
