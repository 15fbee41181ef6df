(* Serializable scenario descriptions.

   The JSON codec is hand-rolled over Ssba_sim.Json like the trace/metrics
   exporters: every float goes through Json.Num (lossless %.17g rendering),
   so spec -> JSON -> spec is structural identity and a replay file
   reproduces the original run digest exactly. *)

open Ssba_core.Types
module J = Ssba_sim.Json
module S = Ssba_harness.Scenario
module C = Ssba_adversary.Catalog
module P = Ssba_core.Params
module T = Ssba_transport.Transport
module W = Ssba_service.Workload

type delay =
  | Fixed of float
  | Uniform of { lo : float; hi : float }
  | Bimodal of { fast : float; slow : float; slow_prob : float }
  | Edge of { atoms : float list }
      (* boundary sampling: every hop picks uniformly among a small set of
         atoms chosen so that short chains of hops land exactly on the
         protocol's comparison boundaries (4d, 5d, the 3d skew deadline, the
         tau_g - d purge horizon). Interior draws never hit a [<=] boundary
         exactly; this model exists to hammer them. *)
  | Scripted of {
      default : float;
      links : ((node_id * node_id) * float list) list;
          (* per (src, dst): the delay of that link's k-th send, in send
             order; [default] once the list is exhausted (and for unlisted
             links). The model checker's counterexample export — correct
             nodes' send order is deterministic, so indexing by send count
             reproduces the explored schedule exactly. *)
    }

type t = {
  name : string;
  seed : int;
  n : int;
  f : int;
  delay : delay;
  clocks : S.clocks;
  cast : (node_id * C.t) list;
  proposals : S.proposal list;
  events : S.event list;
  transport : T.config option;
  horizon : float;
  session_capacity : int option;
      (* override Node's session-table capacity (None = the Node default) *)
  blackout : bool;  (* the re-initiation blackout knob (default true) *)
  r_slack : P.r_slack;  (* block R gate variant (default [P.default_r_slack]) *)
  service : W.t option;
      (* run the recurrent-agreement service loop (overload tier): the
         compiled scenario gets the workload's channels, admission control
         and a trace, and the oracle adds the service checks *)
}

let max_loss t =
  List.fold_left
    (fun acc -> function S.Loss { p; _ } -> Float.max acc p | _ -> acc)
    0.0 t.events

let max_reorder_extra t =
  List.fold_left
    (fun acc -> function S.Reorder { extra; _ } -> Float.max acc extra | _ -> acc)
    0.0 t.events

(* With a transport in the loop, the paper's timeout cascade must be built at
   the effective delay bound: the base link delta, stretched by the worst
   reordering extra the schedule installs, pushed through delta_eff for the
   worst persistent loss rate. Without transport, the plain cascade. *)
let params t =
  match t.transport with
  | None -> P.default ~f:t.f ~r_slack:t.r_slack t.n
  | Some c ->
      let base = P.default ~f:t.f t.n in
      let delta =
        P.delta_eff
          ~delta:(base.P.delta +. max_reorder_extra t)
          ~p:(max_loss t) ~rto:c.T.rto ~retries:c.T.retries
      in
      P.default ~f:t.f ~delta ~r_slack:t.r_slack t.n

let compile_delay = function
  | Fixed x -> Ssba_net.Delay.fixed x
  | Uniform { lo; hi } -> Ssba_net.Delay.uniform ~lo ~hi
  | Bimodal { fast; slow; slow_prob } -> Ssba_net.Delay.bimodal ~fast ~slow ~slow_prob
  | Edge { atoms } ->
      let arr = Array.of_list atoms in
      Ssba_net.Delay.custom (fun ~rng ~src:_ ~dst:_ ~now:_ ->
          arr.(Ssba_sim.Rng.int rng (Array.length arr)))
  | Scripted { default; links } ->
      (* Stateful per-link send counters: the k-th send on (src, dst) gets
         the k-th scripted delay. Compile once per run — [to_scenario] is
         called per execution, so the counters start fresh each time. *)
      let scripts = Hashtbl.create 16 in
      List.iter (fun (key, ds) -> Hashtbl.replace scripts key (Array.of_list ds)) links;
      let counters = Hashtbl.create 16 in
      Ssba_net.Delay.custom (fun ~rng:_ ~src ~dst ~now:_ ->
          match Hashtbl.find_opt scripts (src, dst) with
          | None -> default
          | Some arr ->
              let k = Option.value ~default:0 (Hashtbl.find_opt counters (src, dst)) in
              Hashtbl.replace counters (src, dst) (k + 1);
              if k < Array.length arr then arr.(k) else default)

let to_scenario t =
  let params = params t in
  let d = params.P.d in
  (* Service specs need the workload's channel fan-out and
     admission-controlled proposals (the At_capacity backstop behind
     watermark shedding). *)
  let channels = match t.service with None -> 1 | Some w -> w.W.channels in
  S.default ~name:t.name ~seed:t.seed ~horizon:t.horizon
    ~admission:(t.service <> None) ~channels ~delay:(compile_delay t.delay)
    ~clocks:t.clocks
    ~roles:
      (List.map (fun (id, c) -> (id, S.Byzantine (C.to_behavior ~d c))) t.cast)
    ~proposals:t.proposals ~events:t.events ?transport:t.transport
    ?session_capacity:t.session_capacity ~blackout:t.blackout params

let event_time = S.event_time

let event_nodes = function
  | S.Crash { node; _ } | S.Recover { node; _ } | S.Reform { node; _ } ->
      [ node ]
  | S.Partition { blocked = ga, gb; _ } -> ga @ gb
  | S.Scramble _ | S.Drop_prob _ | S.Heal _ | S.Heal_partition _
  | S.Heal_drop _ | S.Loss _ | S.Duplicate _ | S.Reorder _ | S.Delay_surge _
  | S.Delay_restore _ ->
      []

(* Events after which the paper's guarantees need a fresh [Delta_stb] before
   they apply again — {!Ssba_harness.Scenario.disruptive_event}, with link
   faults masked exactly when the spec carries a transport. *)
let disruptive t e =
  S.disruptive_event ~masked_link_faults:(t.transport <> None) e

let catalog_nodes = function
  | C.Partial_general { targets; _ } -> targets
  | C.Scripted { steps } -> List.filter_map (fun (_, dst, _) -> dst) steps
  | C.Silent | C.Spam _ | C.Mimic _ | C.Two_faced_general _
  | C.Stagger_general _ | C.Equivocator _ | C.Flip_flop _ | C.Gate_edge _ ->
      []

let delay_nodes = function
  | Scripted { links; _ } -> List.concat_map (fun ((s, d), _) -> [ s; d ]) links
  | Fixed _ | Uniform _ | Bimodal _ | Edge _ -> []

let max_referenced_id t =
  let ids =
    List.concat_map (fun (id, c) -> id :: catalog_nodes c) t.cast
    @ List.map (fun (p : S.proposal) -> p.S.g) t.proposals
    @ List.concat_map event_nodes t.events
    @ delay_nodes t.delay
  in
  List.fold_left max (-1) ids

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if t.n <= 3 * t.f then err "n=%d <= 3f=%d" t.n (3 * t.f)
  else if List.length t.cast > t.f then
    err "cast of %d exceeds fault budget f=%d" (List.length t.cast) t.f
  else if
    List.exists (fun (id, _) -> id < 0 || id >= t.n) t.cast
    || List.length (List.sort_uniq compare (List.map fst t.cast))
       <> List.length t.cast
  then err "cast ids out of range or duplicated"
  else if max_referenced_id t >= t.n then
    err "node id %d referenced but n=%d" (max_referenced_id t) t.n
  else if
    List.exists
      (fun (p : S.proposal) -> p.S.at < 0.0 || p.S.at > t.horizon)
      t.proposals
  then err "proposal outside [0, horizon]"
  else if
    List.exists (fun e -> event_time e < 0.0 || event_time e > t.horizon) t.events
  then err "event outside [0, horizon]"
  else
    let rec sorted = function
      | a :: (b :: _ as tl) -> event_time a <= event_time b && sorted tl
      | [] | [ _ ] -> true
    in
    if not (sorted t.events) then err "events not sorted by time"
    else if t.horizon <= 0.0 then err "non-positive horizon"
    else if
      match t.delay with
      | Edge { atoms } -> atoms = [] || List.exists (fun x -> x < 0.0) atoms
      | Fixed _ | Uniform _ | Bimodal _ | Scripted _ -> false
    then err "edge delay model needs a non-empty list of non-negative atoms"
    else if
      match t.session_capacity with Some c -> c < 1 | None -> false
    then err "session_capacity must be >= 1"
    else if
      List.exists
        (function
          | S.Drop_prob { p; _ } | S.Loss { p; _ } | S.Duplicate { p; _ } ->
              p < 0.0 || p > 1.0
          | S.Reorder { prob; extra; _ } ->
              prob < 0.0 || prob > 1.0 || extra < 0.0
          | S.Delay_surge { factor; _ } -> factor <= 0.0
          | _ -> false)
        t.events
    then err "event probability outside [0, 1] (or bad reorder/surge knob)"
    else
      match t.transport with
      | Some c when c.T.rto <= 0.0 || c.T.retries < 0 || c.T.window <= 0 || c.T.dedup <= 0
        ->
          err "nonsensical transport config"
      | Some _ | None -> (
          match t.service with
          | None -> Ok ()
          | Some w -> (
              match W.validate w with
              | Error e -> err "service: %s" e
              | Ok () ->
                  if w.W.stop_at > t.horizon then
                    err "service stop_at %g beyond horizon %g" w.W.stop_at
                      t.horizon
                  else Ok ()))

(* ---------- JSON codec ---------- *)

exception Decode of string

let fail fmt = Printf.ksprintf (fun s -> raise (Decode s)) fmt
let num x = J.Num x
let int x = J.Num (float_of_int x)
let str s = J.Str s

let get_field name j =
  match J.member name j with Some v -> v | None -> fail "missing field %S" name

let get_float name j =
  match J.to_float_opt (get_field name j) with
  | Some x -> x
  | None -> fail "field %S: expected number" name

let get_int name j =
  match J.to_int_opt (get_field name j) with
  | Some x -> x
  | None -> fail "field %S: expected integer" name

let get_str name j =
  match J.to_string_opt (get_field name j) with
  | Some s -> s
  | None -> fail "field %S: expected string" name

let get_list name j =
  match get_field name j with
  | J.Arr l -> l
  | _ -> fail "field %S: expected array" name

let str_list name j =
  List.map
    (fun v ->
      match J.to_string_opt v with
      | Some s -> s
      | None -> fail "field %S: expected strings" name)
    (get_list name j)

let int_list name j =
  List.map
    (fun v ->
      match J.to_int_opt v with
      | Some i -> i
      | None -> fail "field %S: expected integers" name)
    (get_list name j)

let delay_to_json = function
  | Fixed x -> J.Obj [ ("model", str "fixed"); ("delay", num x) ]
  | Uniform { lo; hi } ->
      J.Obj [ ("model", str "uniform"); ("lo", num lo); ("hi", num hi) ]
  | Bimodal { fast; slow; slow_prob } ->
      J.Obj
        [
          ("model", str "bimodal");
          ("fast", num fast);
          ("slow", num slow);
          ("slow_prob", num slow_prob);
        ]
  | Edge { atoms } ->
      J.Obj [ ("model", str "edge"); ("atoms", J.Arr (List.map num atoms)) ]
  | Scripted { default; links } ->
      J.Obj
        [
          ("model", str "scripted");
          ("default", num default);
          ( "links",
            J.Arr
              (List.map
                 (fun ((src, dst), ds) ->
                   J.Obj
                     [
                       ("src", int src);
                       ("dst", int dst);
                       ("delays", J.Arr (List.map num ds));
                     ])
                 links) );
        ]

let float_list name j =
  List.map
    (fun v ->
      match J.to_float_opt v with
      | Some x -> x
      | None -> fail "field %S: expected numbers" name)
    (get_list name j)

let delay_of_json j =
  match get_str "model" j with
  | "fixed" -> Fixed (get_float "delay" j)
  | "uniform" -> Uniform { lo = get_float "lo" j; hi = get_float "hi" j }
  | "bimodal" ->
      Bimodal
        {
          fast = get_float "fast" j;
          slow = get_float "slow" j;
          slow_prob = get_float "slow_prob" j;
        }
  | "edge" -> Edge { atoms = float_list "atoms" j }
  | "scripted" ->
      Scripted
        {
          default = get_float "default" j;
          links =
            List.map
              (fun lj ->
                ((get_int "src" lj, get_int "dst" lj), float_list "delays" lj))
              (get_list "links" j);
        }
  | m -> fail "unknown delay model %S" m

let clocks_to_json = function
  | S.Perfect -> J.Obj [ ("model", str "perfect") ]
  | S.Drifting { rho; max_offset } ->
      J.Obj
        [ ("model", str "drifting"); ("rho", num rho); ("max_offset", num max_offset) ]

let clocks_of_json j =
  match get_str "model" j with
  | "perfect" -> S.Perfect
  | "drifting" ->
      S.Drifting { rho = get_float "rho" j; max_offset = get_float "max_offset" j }
  | m -> fail "unknown clock model %S" m

(* Protocol-message codec, for the Scripted strategy's transcript steps. *)

let ia_kind_to_string = function
  | Support -> "support"
  | Approve -> "approve"
  | Ready -> "ready"

let ia_kind_of_string = function
  | "support" -> Support
  | "approve" -> Approve
  | "ready" -> Ready
  | s -> fail "unknown ia kind %S" s

let mb_kind_to_string = function
  | Init -> "init"
  | Echo -> "echo"
  | Init2 -> "init2"
  | Echo2 -> "echo2"

let mb_kind_of_string = function
  | "init" -> Init
  | "echo" -> Echo
  | "init2" -> Init2
  | "echo2" -> Echo2
  | s -> fail "unknown mb kind %S" s

let message_to_json = function
  | Initiator { g; v } ->
      J.Obj [ ("msg", str "initiator"); ("g", int g); ("v", str v) ]
  | Ia { kind; g; v } ->
      J.Obj
        [
          ("msg", str "ia");
          ("kind", str (ia_kind_to_string kind));
          ("g", int g);
          ("v", str v);
        ]
  | Mb { kind; p; g; v; k } ->
      J.Obj
        [
          ("msg", str "mb");
          ("kind", str (mb_kind_to_string kind));
          ("p", int p);
          ("g", int g);
          ("v", str v);
          ("k", int k);
        ]

let message_of_json j =
  match get_str "msg" j with
  | "initiator" -> Initiator { g = get_int "g" j; v = get_str "v" j }
  | "ia" ->
      Ia
        {
          kind = ia_kind_of_string (get_str "kind" j);
          g = get_int "g" j;
          v = get_str "v" j;
        }
  | "mb" ->
      Mb
        {
          kind = mb_kind_of_string (get_str "kind" j);
          p = get_int "p" j;
          g = get_int "g" j;
          v = get_str "v" j;
          k = get_int "k" j;
        }
  | m -> fail "unknown message class %S" m

let step_to_json (at, dst, msg) =
  J.Obj
    ([ ("at", num at) ]
    @ (match dst with None -> [] | Some d -> [ ("dst", int d) ])
    @ [ ("msg", message_to_json msg) ])

let step_of_json j =
  ( get_float "at" j,
    (match J.member "dst" j with
    | None -> None
    | Some d -> (
        match J.to_int_opt d with
        | Some i -> Some i
        | None -> fail "field \"dst\": expected integer")),
    message_of_json (get_field "msg" j) )

let strategy_to_json = function
  | C.Silent -> J.Obj [ ("strategy", str "silent") ]
  | C.Spam { period_d; values } ->
      J.Obj
        [
          ("strategy", str "spam");
          ("period_d", num period_d);
          ("values", J.Arr (List.map str values));
        ]
  | C.Mimic { delay_d } ->
      J.Obj [ ("strategy", str "mimic"); ("delay_d", num delay_d) ]
  | C.Two_faced_general { v1; v2; at } ->
      J.Obj
        [ ("strategy", str "two-faced"); ("v1", str v1); ("v2", str v2); ("at", num at) ]
  | C.Stagger_general { v; at; gap_d } ->
      J.Obj
        [ ("strategy", str "stagger"); ("v", str v); ("at", num at); ("gap_d", num gap_d) ]
  | C.Partial_general { v; at; targets } ->
      J.Obj
        [
          ("strategy", str "partial");
          ("v", str v);
          ("at", num at);
          ("targets", J.Arr (List.map int targets));
        ]
  | C.Equivocator { v1; v2 } ->
      J.Obj [ ("strategy", str "equivocator"); ("v1", str v1); ("v2", str v2) ]
  | C.Flip_flop { period_d; values } ->
      J.Obj
        [
          ("strategy", str "flip-flop");
          ("period_d", num period_d);
          ("values", J.Arr (List.map str values));
        ]
  | C.Gate_edge { v; at } ->
      J.Obj [ ("strategy", str "gate-edge"); ("v", str v); ("at", num at) ]
  | C.Scripted { steps } ->
      J.Obj
        [ ("strategy", str "scripted"); ("steps", J.Arr (List.map step_to_json steps)) ]

let strategy_of_json j =
  match get_str "strategy" j with
  | "silent" -> C.Silent
  | "spam" ->
      C.Spam { period_d = get_float "period_d" j; values = str_list "values" j }
  | "mimic" -> C.Mimic { delay_d = get_float "delay_d" j }
  | "two-faced" ->
      C.Two_faced_general
        { v1 = get_str "v1" j; v2 = get_str "v2" j; at = get_float "at" j }
  | "stagger" ->
      C.Stagger_general
        { v = get_str "v" j; at = get_float "at" j; gap_d = get_float "gap_d" j }
  | "partial" ->
      C.Partial_general
        { v = get_str "v" j; at = get_float "at" j; targets = int_list "targets" j }
  | "equivocator" -> C.Equivocator { v1 = get_str "v1" j; v2 = get_str "v2" j }
  | "flip-flop" ->
      C.Flip_flop { period_d = get_float "period_d" j; values = str_list "values" j }
  | "gate-edge" -> C.Gate_edge { v = get_str "v" j; at = get_float "at" j }
  | "scripted" -> C.Scripted { steps = List.map step_of_json (get_list "steps" j) }
  | s -> fail "unknown strategy %S" s

let event_to_json = function
  | S.Crash { node; at } ->
      J.Obj [ ("event", str "crash"); ("node", int node); ("at", num at) ]
  | S.Recover { node; at } ->
      J.Obj [ ("event", str "recover"); ("node", int node); ("at", num at) ]
  | S.Scramble { at; values; net_garbage } ->
      J.Obj
        [
          ("event", str "scramble");
          ("at", num at);
          ("values", J.Arr (List.map str values));
          ("net_garbage", int net_garbage);
        ]
  | S.Drop_prob { at; p } ->
      J.Obj [ ("event", str "drop"); ("at", num at); ("p", num p) ]
  | S.Partition { at; blocked = ga, gb } ->
      J.Obj
        [
          ("event", str "partition");
          ("at", num at);
          ("group_a", J.Arr (List.map int ga));
          ("group_b", J.Arr (List.map int gb));
        ]
  | S.Heal { at } -> J.Obj [ ("event", str "heal"); ("at", num at) ]
  | S.Heal_partition { at } ->
      J.Obj [ ("event", str "heal-partition"); ("at", num at) ]
  | S.Heal_drop { at } -> J.Obj [ ("event", str "heal-drop"); ("at", num at) ]
  | S.Loss { at; p } -> J.Obj [ ("event", str "loss"); ("at", num at); ("p", num p) ]
  | S.Duplicate { at; p } ->
      J.Obj [ ("event", str "duplicate"); ("at", num at); ("p", num p) ]
  | S.Reorder { at; prob; extra } ->
      J.Obj
        [
          ("event", str "reorder");
          ("at", num at);
          ("prob", num prob);
          ("extra", num extra);
        ]
  | S.Delay_surge { at; factor } ->
      J.Obj [ ("event", str "delay-surge"); ("at", num at); ("factor", num factor) ]
  | S.Delay_restore { at } ->
      J.Obj [ ("event", str "delay-restore"); ("at", num at) ]
  | S.Reform { node; at } ->
      J.Obj [ ("event", str "reform"); ("node", int node); ("at", num at) ]

let event_of_json j =
  match get_str "event" j with
  | "crash" -> S.Crash { node = get_int "node" j; at = get_float "at" j }
  | "recover" -> S.Recover { node = get_int "node" j; at = get_float "at" j }
  | "scramble" ->
      S.Scramble
        {
          at = get_float "at" j;
          values = str_list "values" j;
          net_garbage = get_int "net_garbage" j;
        }
  | "drop" -> S.Drop_prob { at = get_float "at" j; p = get_float "p" j }
  | "partition" ->
      S.Partition
        {
          at = get_float "at" j;
          blocked = (int_list "group_a" j, int_list "group_b" j);
        }
  | "heal" -> S.Heal { at = get_float "at" j }
  | "heal-partition" -> S.Heal_partition { at = get_float "at" j }
  | "heal-drop" -> S.Heal_drop { at = get_float "at" j }
  | "loss" -> S.Loss { at = get_float "at" j; p = get_float "p" j }
  | "duplicate" -> S.Duplicate { at = get_float "at" j; p = get_float "p" j }
  | "reorder" ->
      S.Reorder
        {
          at = get_float "at" j;
          prob = get_float "prob" j;
          extra = get_float "extra" j;
        }
  | "delay-surge" ->
      S.Delay_surge { at = get_float "at" j; factor = get_float "factor" j }
  | "delay-restore" -> S.Delay_restore { at = get_float "at" j }
  | "reform" -> S.Reform { node = get_int "node" j; at = get_float "at" j }
  | e -> fail "unknown event %S" e

let transport_to_json (c : T.config) =
  J.Obj
    [
      ("rto", num c.T.rto);
      ("retries", int c.T.retries);
      ("window", int c.T.window);
      ("dedup", int c.T.dedup);
    ]

let transport_of_json j =
  {
    T.rto = get_float "rto" j;
    retries = get_int "retries" j;
    window = get_int "window" j;
    dedup = get_int "dedup" j;
  }

let proposal_to_json (p : S.proposal) =
  J.Obj [ ("g", int p.S.g); ("v", str p.S.v); ("at", num p.S.at) ]

let proposal_of_json j =
  { S.g = get_int "g" j; v = get_str "v" j; at = get_float "at" j }

let to_json t =
  J.Obj
    ([
       ("name", str t.name);
      ("seed", int t.seed);
      ("n", int t.n);
      ("f", int t.f);
      ("delay", delay_to_json t.delay);
      ("clocks", clocks_to_json t.clocks);
      ( "cast",
        J.Arr
          (List.map
             (fun (id, c) ->
               match strategy_to_json c with
               | J.Obj fields -> J.Obj (("node", int id) :: fields)
               | _ -> assert false)
             t.cast) );
      ("proposals", J.Arr (List.map proposal_to_json t.proposals));
      ("events", J.Arr (List.map event_to_json t.events));
      ("horizon", num t.horizon);
    ]
    (* optional fields are omitted at their defaults, so older replay files
       keep loading and default-valued specs serialize unchanged (the corpus
       digests depend on this) *)
    @ (match t.transport with
      | None -> []
      | Some c -> [ ("transport", transport_to_json c) ])
    @ (match t.session_capacity with
      | None -> []
      | Some c -> [ ("session_capacity", int c) ])
    @ (match t.blackout with true -> [] | false -> [ ("blackout", J.Bool false) ])
    @ (match t.r_slack = P.default_r_slack with
      | true -> []
      | false -> [ ("r_slack", str (P.r_slack_to_string t.r_slack)) ])
    @
    match t.service with
    | None -> []
    | Some w -> [ ("service", W.to_json w) ])

let of_json j =
  try
    Ok
      {
        name = get_str "name" j;
        seed = get_int "seed" j;
        n = get_int "n" j;
        f = get_int "f" j;
        delay = delay_of_json (get_field "delay" j);
        clocks = clocks_of_json (get_field "clocks" j);
        cast =
          List.map
            (fun cj -> (get_int "node" cj, strategy_of_json cj))
            (get_list "cast" j);
        proposals = List.map proposal_of_json (get_list "proposals" j);
        events = List.map event_of_json (get_list "events" j);
        transport = Option.map transport_of_json (J.member "transport" j);
        horizon = get_float "horizon" j;
        session_capacity =
          (match J.member "session_capacity" j with
          | None -> None
          | Some c -> (
              match J.to_int_opt c with
              | Some i -> Some i
              | None -> fail "field \"session_capacity\": expected integer"));
        blackout =
          (match J.member "blackout" j with
          | None -> true
          | Some (J.Bool b) -> b
          | Some _ -> fail "field \"blackout\": expected boolean");
        r_slack =
          (match J.member "r_slack" j with
          | None -> P.default_r_slack
          | Some s -> (
              match Option.bind (J.to_string_opt s) P.r_slack_of_string with
              | Some r -> r
              | None -> fail "field \"r_slack\": expected legacy|widen|general"));
        service =
          (match J.member "service" j with
          | None -> None
          | Some sj -> (
              match W.of_json sj with
              | Ok w -> Some w
              | Error e -> fail "field \"service\": %s" e));
      }
  with Decode msg -> Error msg

let save path t =
  let oc = open_out path in
  output_string oc (J.to_string (to_json t));
  output_char oc '\n';
  close_out oc

let load path =
  match
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    s
  with
  | exception Sys_error e -> Error e
  | s -> (
      match J.of_string (String.trim s) with
      | exception J.Parse_error e -> Error e
      | j -> of_json j)

let pp ppf t =
  Fmt.pf ppf
    "@[<v>%s: n=%d f=%d seed=%d horizon=%g%s%s@ cast: %a@ %d proposals, %d events@]"
    t.name t.n t.f t.seed t.horizon
    (match t.transport with
    | None -> ""
    | Some c -> Printf.sprintf " transport(rto=%g,retries=%d)" c.T.rto c.T.retries)
    (match t.service with
    | None -> ""
    | Some w -> Fmt.str " service[%a]" W.pp w)
    Fmt.(list ~sep:comma (pair ~sep:(any ":") int C.pp))
    t.cast (List.length t.proposals) (List.length t.events)
