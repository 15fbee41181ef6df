(** Serializable scenario descriptions — the fuzzer's unit of work.

    {!Ssba_harness.Scenario.t} embeds closures (delay policies, Byzantine
    behaviours), so it cannot be saved or shrunk. A spec is the fully-data
    mirror: protocol size, an enumerable delay model, a
    {!Ssba_adversary.Catalog} cast, proposals and environment events. It
    compiles to a scenario with {!to_scenario}, round-trips through JSON
    ({!to_json}/{!of_json}, lossless including float bits), and therefore
    replays byte-for-byte: running the same spec twice yields the same
    {!Ssba_harness.Checks.result_digest}. *)

open Ssba_core.Types

(** Enumerable subset of {!Ssba_net.Delay} (the closure-based policies are
    not serializable and are never generated — except [Scripted], which the
    model checker writes to pin an explored delivery schedule). *)
type delay =
  | Fixed of float
  | Uniform of { lo : float; hi : float }
  | Bimodal of { fast : float; slow : float; slow_prob : float }
  | Edge of { atoms : float list }
      (** boundary sampling: every hop picks uniformly among [atoms], chosen
          so short chains of hops land exactly on the protocol's comparison
          boundaries (4d, 5d, the 3d skew deadline); interior models never
          hit a [<=] boundary exactly *)
  | Scripted of {
      default : float;
      links : ((node_id * node_id) * float list) list;
          (** per (src, dst): the delay of that link's k-th send, in send
              order; [default] once exhausted and for unlisted links *)
    }

type t = {
  name : string;
  seed : int;  (** drives every random choice of the compiled scenario *)
  n : int;
  f : int;  (** [Params.default ~f n] supplies the remaining constants *)
  delay : delay;
  clocks : Ssba_harness.Scenario.clocks;
  cast : (node_id * Ssba_adversary.Catalog.t) list;  (** sorted by node id *)
  proposals : Ssba_harness.Scenario.proposal list;
  events : Ssba_harness.Scenario.event list;  (** sorted by time *)
  transport : Ssba_transport.Transport.config option;
      (** when set, the compiled scenario runs the reliable transport and
          {!params} builds the timeout cascade at
          {!Ssba_core.Params.delta_eff} for the worst persistent loss and
          reordering the event schedule installs *)
  horizon : float;
  session_capacity : int option;
      (** override the nodes' session-table capacity ([None] keeps the
          {!Ssba_core.Node} default); serialized only when set *)
  blackout : bool;
      (** the re-initiation blackout knob (default [true]); serialized only
          when [false] — older replay files keep loading unchanged *)
  r_slack : Ssba_core.Params.r_slack;
      (** block R gate variant threaded into {!params}; serialized only when
          it differs from {!Ssba_core.Params.default_r_slack} *)
  service : Ssba_service.Workload.t option;
      (** the overload tier: run the recurrent-agreement service loop. The
          compiled scenario gets the workload's channel fan-out,
          admission-controlled proposals and a trace, and {!Oracle} adds the
          service checks (bounded queue, shed-only-under-pressure, eventual
          drain). Serialized only when set *)
}

(** The protocol constants the compiled scenario runs under:
    [Params.default ~f n], with [delta] replaced by the effective bound when
    the spec carries a transport (see the [transport] field). *)
val params : t -> Ssba_core.Params.t

(** Worst persistent-loss probability the event schedule installs; [0.0] if
    none. *)
val max_loss : t -> float

(** Worst reordering extra delay the event schedule installs; [0.0]. *)
val max_reorder_extra : t -> float

(** Whether an event invalidates the paper's guarantees until [Delta_stb]
    later. Heals never do; persistent link faults ([Loss]/[Duplicate]/
    [Reorder]) do exactly when the spec runs no transport — masking them is
    the transport's contract, and {!Oracle} holds it to that. *)
val disruptive : t -> Ssba_harness.Scenario.event -> bool

(** Compile to a runnable scenario that records no trace kinds
    ({!Oracle.run} adds the ones it judges). *)
val to_scenario : t -> Ssba_harness.Scenario.t

(** The real time at which an event fires. *)
val event_time : Ssba_harness.Scenario.event -> float

(** Largest node id the spec mentions anywhere (cast, proposals, events,
    strategy targets); [-1] if none. Node-count shrinking checks this. *)
val max_referenced_id : t -> int

(** Structural sanity: [n > 3f], cast within the fault budget and node
    range, events sorted and inside the horizon, proposals in range. *)
val validate : t -> (unit, string) result

val to_json : t -> Ssba_sim.Json.t
val of_json : Ssba_sim.Json.t -> (t, string) result

(** Save/load one spec as pretty-stable JSON text (the replay file format). *)
val save : string -> t -> unit

val load : string -> (t, string) result

val pp : Format.formatter -> t -> unit
