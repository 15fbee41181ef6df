(* Scenario descriptions.

   A scenario is a declarative recipe for one simulation: the protocol
   constants, clock and delay models, which node ids run the correct protocol
   and which run a Byzantine behaviour, the proposals correct Generals make,
   and a schedule of environment events (crashes, recoveries, transient-fault
   scrambles, network faults). The runner interprets it deterministically
   from the seed. *)

open Ssba_core.Types

type role = Correct | Byzantine of Ssba_adversary.Behavior.t

type event =
  | Crash of { node : node_id; at : float }  (* mute a node's sends *)
  | Recover of { node : node_id; at : float }
  | Scramble of { at : float; values : value list; net_garbage : int }
      (* corrupt all correct-node state (and transport state when a transport
         runs) + inject forged in-flight garbage *)
  | Drop_prob of { at : float; p : float }
      (* transient loss (incoherence); lifted by Heal / Heal_drop *)
  | Partition of { at : float; blocked : node_id list * node_id list }
      (* block messages between the two groups *)
  | Heal of { at : float }
      (* heal-all (back-compat): lift the partition and the transient drop.
         Persistent link faults (Loss/Duplicate/Reorder) are unaffected. *)
  | Heal_partition of { at : float }  (* lift only the partition *)
  | Heal_drop of { at : float }  (* lift only the transient drop *)
  | Loss of { at : float; p : float }
      (* persistent link loss: composes with Drop_prob, survives Heal; only
         another Loss event changes it *)
  | Duplicate of { at : float; p : float }  (* persistent duplication *)
  | Reorder of { at : float; prob : float; extra : float }
      (* persistent reordering: with prob, stretch a delivery by up to extra *)
  | Delay_surge of { at : float; factor : float }
      (* deliveries temporarily exceed delta (factor > 1 violates §2 Def. 2);
         lifted by Delay_restore *)
  | Delay_restore of { at : float }  (* reinstall the scenario's base delay *)
  | Reform of { node : node_id; at : float }
      (* a Byzantine node starts running the correct protocol from arbitrary
         state — the classic self-stabilizing rejoin. No-op on a node that is
         already correct (or already reformed). *)

type proposal = { g : node_id; v : value; at : float }
(* [g] is a *logical* General id: with [channels] > 1 it ranges over
   [0, n * channels) and node [g mod n] initiates on channel [g / n]. *)

type clocks =
  | Perfect
  | Drifting of { rho : float; max_offset : float }

type t = {
  name : string;
  params : Ssba_core.Params.t;
  seed : int;
  delay : Ssba_net.Delay.t;
  clocks : clocks;
  roles : (node_id * role) list;  (* unlisted ids default to Correct *)
  proposals : proposal list;
  events : event list;
  horizon : float;  (* stop the engine at this real time *)
  channels : int;
      (* concurrent-invocation channels per General (paper footnote 9);
         logical General ids range over [0, n * channels) *)
  record : Ssba_sim.Trace.Kind.t list;  (* the trace kinds the run records *)
  transport : Ssba_transport.Transport.config option;
      (* run all protocol traffic through the reliable transport; params
         should then be built at Params.delta_eff for the worst persistent
         loss the event schedule installs *)
  session_capacity : int option;
      (* override the nodes' session-table capacity (default: the Node
         default, max 8 (n * channels)); tiny values force eviction under
         session floods — the model checker's split-hunt configuration *)
  blackout : bool;
      (* the Initiator-Accept re-initiation blackout knob (default true);
         false only in weakened-checker sensitivity runs *)
  admission : bool;
      (* admission-controlled proposals (default false): a full session
         table refuses a General's own proposal instead of evicting — the
         service-mode backstop behind the watermark-based shedding *)
}

let role_of t id =
  match List.assoc_opt id t.roles with Some r -> r | None -> Correct

let correct_ids t =
  List.filter
    (fun id -> match role_of t id with Correct -> true | Byzantine _ -> false)
    (List.init t.params.Ssba_core.Params.n (fun i -> i))

let byzantine_ids t =
  List.filter
    (fun id -> match role_of t id with Correct -> false | Byzantine _ -> true)
    (List.init t.params.Ssba_core.Params.n (fun i -> i))

let event_time = function
  | Crash { at; _ } | Recover { at; _ } | Scramble { at; _ }
  | Drop_prob { at; _ } | Partition { at; _ } | Heal { at }
  | Heal_partition { at } | Heal_drop { at } | Loss { at; _ }
  | Duplicate { at; _ } | Reorder { at; _ } | Delay_surge { at; _ }
  | Delay_restore { at } | Reform { at; _ } ->
      at

(* Events after which the paper's guarantees need a fresh Delta_stb before
   they apply again. Heals and Delay_restore only restore service; persistent
   link faults (Loss/Duplicate/Reorder) are disruptive exactly when nothing
   masks them — pass [masked_link_faults] true when the scenario runs the
   reliable transport, whose contract is to re-establish the bounded-delay
   channel under those faults. *)
let disruptive_event ~masked_link_faults = function
  | Heal _ | Heal_partition _ | Heal_drop _ | Delay_restore _ -> false
  | Loss _ | Duplicate _ | Reorder _ -> not masked_link_faults
  | Crash _ | Recover _ | Scramble _ | Drop_prob _ | Partition _
  | Delay_surge _ | Reform _ ->
      true

let disruptive t = disruptive_event ~masked_link_faults:(t.transport <> None)

(* Byzantine ids the event schedule reforms: they run the correct protocol
   (from arbitrary state) from their Reform time on. *)
let reformed_ids t =
  List.sort_uniq compare
    (List.filter_map
       (function
         | Reform { node; _ }
           when (match role_of t node with
                | Correct -> false
                | Byzantine _ -> true) ->
             Some node
         | _ -> None)
       t.events)

(* A sensible default: random delays within the bound, small drift. *)
let default ?(name = "scenario") ?(seed = 1) ?(horizon = 5.0) ?(record = []) ?delay
    ?(clocks = Drifting { rho = 1e-4; max_offset = 0.1 }) ?(roles = [])
    ?(proposals = []) ?(events = []) ?transport ?(channels = 1)
    ?session_capacity ?(blackout = true) ?(admission = false) params =
  let delay =
    match delay with
    | Some d -> d
    | None ->
        Ssba_net.Delay.uniform ~lo:(0.05 *. params.Ssba_core.Params.delta)
          ~hi:params.Ssba_core.Params.delta
  in
  {
    name;
    params;
    seed;
    delay;
    clocks;
    roles;
    proposals;
    events;
    horizon;
    channels;
    record;
    transport;
    session_capacity;
    blackout;
    admission;
  }
