(* Bounded exhaustive checker over the real protocol core.

   The checker never simulates an abstraction: every run builds a fresh world
   out of the production pieces — Engine, Network, Node — and replaces only
   the randomness. All delivery delays and Byzantine menu selections are
   *choices*, resolved by a cursor over an explicit choice vector; the
   explorer enumerates choice-vector prefixes breadth-first, so the first
   counterexample it reports is minimal in branching depth.

   Stateless re-execution: a state is never snapshotted. To expand a prefix
   the checker re-runs the world from time 0, consuming the prefix and then
   defaulting every further choice to option 0, which simultaneously
   completes the run to the horizon (so it can be judged) and discovers the
   next choice point (so it can be branched). A full choice assignment is
   judged exactly once — at the shortest prefix that determines it, i.e. the
   prefix with no trailing default choices.

   The visited set holds a canonical fingerprint of the whole world at each
   first-beyond-prefix choice point: every Node's protocol state
   (Node.fingerprint), the engine clock, the undelivered message set and the
   pending decision. Reaching a fingerprinted state again prunes the entire
   subtree — the default continuation from an identical state is identical.

   Partial-order reduction (por): (a) deliveries to Byzantine nodes never
   branch — the scripts are time-triggered and input-oblivious, so those
   deliveries commute with every other event; (b) the in-flight set is
   fingerprinted in canonical sorted order, merging runs that performed
   commuting deliveries in different orders. With por off, Byzantine-bound
   deliveries branch like any other matched send and the in-flight set keeps
   raw insertion order. Soundness caveats are spelled out in DESIGN.md §10. *)

open Ssba_core.Types
module Params = Ssba_core.Params
module Node = Ssba_core.Node
module Engine = Ssba_sim.Engine
module Clock = Ssba_sim.Clock
module Rng = Ssba_sim.Rng
module Delay = Ssba_net.Delay
module Network = Ssba_net.Network
module Link = Ssba_net.Link
module Msg = Ssba_net.Msg
module Scenario = Ssba_harness.Scenario
module Runner = Ssba_harness.Runner
module Checks = Ssba_harness.Checks
module Invariants = Ssba_harness.Invariants
module Spec = Ssba_fuzz.Spec
module Catalog = Ssba_adversary.Catalog
module Strategies = Ssba_adversary.Strategies

type choice = { c_label : string; c_options : int; c_picked : int }

type run = {
  prefix : int array;
  choices : choice list;  (* fresh choice points, in execution order *)
  fingerprints : string list;  (* world fingerprint at each fresh choice *)
  next : (string * int * string) option;
      (* fingerprint, option count and label of the first choice point beyond
         the prefix; [None] when the run branched nowhere new *)
  pruned : bool;  (* aborted: the first free choice's state was visited *)
  violations : string list;  (* pairwise-agreement oracle + invariant monitor *)
  splits : string list;  (* split decisions (see [split_decisions]) *)
  returns : return_info list;
  sends : ((node_id * node_id) * float) list;  (* every send's delay, in order *)
  transcript : (node_id * (float * node_id option * message) list) list;
  events : int;
}

let string_of_message m = Fmt.str "%a" pp_message m

(* ----- one run ---------------------------------------------------------- *)

(* Two correct nodes deciding different values for the same General with
   anchors within 4d: exactly the IA-4a split the re-initiation blackout
   exists to prevent. Kept separate from the oracle verdicts because the
   scarcity configs also strand correct sessions through eviction, which
   trips the relay oracle with or without the blackout. Clocks are perfect in
   checker worlds, so local anchors compare directly as real times. *)
let split_decisions (params : Params.t) returns =
  let d = params.Params.d in
  let decided =
    List.filter_map
      (fun r -> match r.outcome with Decided v -> Some (r, v) | Aborted -> None)
      returns
  in
  let pairs = ref [] in
  List.iteri
    (fun i (a, va) ->
      List.iteri
        (fun j (b, vb) ->
          if
            i < j && a.g = b.g && (not (String.equal va vb))
            && Float.abs (a.tau_g -. b.tau_g) <= 4.0 *. d
          then
            pairs :=
              Fmt.str
                "split G=%d: node %d decided %S (anchor %.2fd) vs node %d \
                 decided %S (anchor %.2fd)"
                a.g a.node va (a.tau_g /. d) b.node vb (b.tau_g /. d)
              :: !pairs)
        decided)
    decided;
  List.rev !pairs

(* [judge = false] skips the oracles (used for runs whose outcome is judged
   at a shorter prefix); everything else is identical. *)
let execute (cfg : Config.t) ~por ~visited ~judge prefix =
  let params = cfg.Config.params in
  let n = params.Params.n in
  let engine =
    Engine.create
      ~trace:(Ssba_sim.Trace.create ~kinds:(if judge then Invariants.kinds else []) ())
      ()
  in
  (* The network runs fault-free; its RNG streams are drawn but never decide
     anything (the delay override below bypasses the drawn delay). *)
  let net =
    Network.create ~engine ~n ~delay:(Delay.fixed cfg.Config.default_delay)
      ~rng:(Rng.create 1) ~kind_of:kind_of_message ()
  in
  let nodes : (node_id * Node.t) list ref = ref [] in
  let in_flight : (float * node_id * node_id * message) list ref = ref [] in
  let pos = ref 0 in
  let groups : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let choices = ref [] in
  let fps = ref [] in
  let next = ref None in
  let pruned = ref false in
  let world_fingerprint pending =
    let buf = Buffer.create 2048 in
    Printf.bprintf buf "t=%h;" (Engine.now engine);
    List.iter (fun (_, node) -> Node.fingerprint buf node) !nodes;
    let entries = if por then List.sort compare !in_flight else !in_flight in
    List.iter
      (fun (at, src, dst, m) ->
        Printf.bprintf buf "m[%h,%d>%d,%s]" at src dst (string_of_message m))
      entries;
    Buffer.add_string buf pending;
    Digest.to_hex (Digest.string (Buffer.contents buf))
  in
  let choose ~label ?group n_options =
    if n_options <= 1 then 0
    else
      match
        match group with Some key -> Hashtbl.find_opt groups key | None -> None
      with
      | Some k -> k  (* the class already drew its choice this run *)
      | None ->
          let fp = world_fingerprint (Fmt.str "?%s/%d" label n_options) in
          fps := fp :: !fps;
          let pick =
            if !pos < Array.length prefix then prefix.(!pos)
            else begin
              (if !next = None then begin
                 next := Some (fp, n_options, label);
                 if Hashtbl.mem visited fp then begin
                   (* identical world, identical default continuation: the
                      subtree (and this run's tail) is redundant *)
                   pruned := true;
                   Engine.stop engine
                 end
               end);
              0
            end
          in
          incr pos;
          (match group with Some key -> Hashtbl.add groups key pick | None -> ());
          choices := { c_label = label; c_options = n_options; c_picked = pick } :: !choices;
          pick
  in
  let sends = ref [] in
  Network.set_delay_override net
    (Some
       (fun (m : message Msg.t) ->
         let src = m.Msg.src and dst = m.Msg.dst and payload = m.Msg.payload in
         let delay =
           match
             if por && Config.is_byz cfg dst then None
             else cfg.Config.branch ~src ~dst payload
           with
           | None -> cfg.Config.default_delay
           | Some key ->
               let lattice = Config.lattice_for cfg key in
               let k =
                 choose ~label:("d:" ^ key) ~group:key (Array.length lattice)
               in
               lattice.(k)
         in
         in_flight := !in_flight @ [ (Engine.now engine +. delay, src, dst, payload) ];
         sends := ((src, dst), delay) :: !sends;
         Some delay))
    ;
  (* Deliveries leave the tracked set through a wrapping handler; equality on
     the scheduled time is exact because the engine replays the very float it
     computed at send time. *)
  let base = Network.link net in
  let untrack ~src ~dst =
    let now = Engine.now engine in
    let rec remove = function
      | [] -> []
      | (at, s, d, _) :: rest when s = src && d = dst && at = now -> rest
      | e :: rest -> e :: remove rest
    in
    in_flight := remove !in_flight
  in
  let link =
    {
      base with
      Link.set_handler =
        (fun id h ->
          base.Link.set_handler id (fun m ->
              untrack ~src:m.Msg.src ~dst:m.Msg.dst;
              h m));
    }
  in
  (* World construction mirrors Runner.run_with: correct nodes in id order,
     then the Byzantine schedules, then the proposals — the engine breaks
     time ties by scheduling order, and counterexample replay through the
     Runner depends on reproducing it. *)
  let returns = ref [] in
  for id = 0 to n - 1 do
    if not (Config.is_byz cfg id) then begin
      let node =
        Node.create_on ?session_capacity:cfg.Config.session_capacity
          ~blackout:cfg.Config.blackout ~id ~params ~clock:Clock.perfect ~engine
          ~link ()
      in
      Node.subscribe node (fun r -> returns := r :: !returns);
      nodes := (id, node) :: !nodes
    end
  done;
  nodes := List.rev !nodes;
  let transcript =
    List.map (fun (b : Config.byz) -> (b.Config.byz_id, ref [])) cfg.Config.byz
  in
  List.iter
    (fun (b : Config.byz) ->
      let id = b.Config.byz_id in
      link.Link.set_handler id (fun _ -> ());
      let log = List.assoc id transcript in
      List.iter
        (fun (st : Config.script_step) ->
          if st.Config.options <> [] then
            Engine.schedule engine ~at:st.Config.step_at (fun () ->
                let k =
                  choose
                    ~label:(Fmt.str "byz%d:%s" id st.Config.step_label)
                    (List.length st.Config.options)
                in
                List.iter
                  (fun (dst, m) ->
                    log := (st.Config.step_at, dst, m) :: !log;
                    match dst with
                    | Some dst -> link.Link.send ~src:id ~dst m
                    | None -> link.Link.broadcast ~src:id m)
                  (List.nth st.Config.options k)))
        b.Config.steps)
    cfg.Config.byz;
  let proposal_results = ref [] in
  List.iter
    (fun (p : Scenario.proposal) ->
      Engine.schedule engine ~at:p.Scenario.at (fun () ->
          let outcome =
            match List.assoc_opt p.Scenario.g !nodes with
            | None -> Runner.No_general
            | Some node -> (
                match Node.propose node p.Scenario.v with
                | Ok () -> Runner.Accepted
                | Error e -> Runner.Refused e)
          in
          proposal_results := (p, outcome) :: !proposal_results))
    cfg.Config.proposals;
  let stats = Engine.run ~until:cfg.Config.horizon engine in
  let violations, splits =
    if !pruned || not judge then ([], [])
    else begin
      let scenario =
        {
          Scenario.name = cfg.Config.name;
          params;
          seed = 0;
          delay = Delay.fixed cfg.Config.default_delay;
          clocks = Scenario.Perfect;
          roles =
            List.map
              (fun id -> (id, Scenario.Byzantine Strategies.silent))
              (Config.byz_ids cfg);
          proposals = cfg.Config.proposals;
          events = [];
          horizon = cfg.Config.horizon;
          channels = 1;
          record = Invariants.kinds;
          transport = None;
          session_capacity = cfg.Config.session_capacity;
          blackout = cfg.Config.blackout;
          admission = false;
        }
      in
      let result =
        {
          Runner.scenario;
          returns =
            List.sort (fun a b -> compare a.rt_ret b.rt_ret) !returns;
          correct = Config.correct_ids cfg;
          clocks = Array.init n (fun _ -> Clock.perfect);
          nodes = !nodes;
          proposal_results = List.rev !proposal_results;
          engine_stats = stats;
          messages_sent = Network.messages_sent net;
          messages_delivered = Network.messages_delivered net;
          messages_dropped = Network.messages_dropped net;
          messages_duplicated = Network.messages_duplicated net;
          messages_in_flight = Network.messages_in_flight net;
          messages_by_kind = Network.sent_by_kind net;
          transport_retransmits = 0;
          transport_dup_suppressed = 0;
          transport_expired = 0;
          transport_retries_exhausted = 0;
          metrics = Engine.metrics engine;
          trace = Engine.trace engine;
        }
      in
      ( Checks.pairwise_agreement ~settle:0.0 result @ Invariants.check result,
        split_decisions params !returns )
    end
  in
  {
    prefix;
    choices = List.rev !choices;
    fingerprints = List.rev !fps;
    next = !next;
    pruned = !pruned;
    violations;
    splits;
    returns = List.sort (fun a b -> compare a.rt_ret b.rt_ret) !returns;
    sends = List.rev !sends;
    transcript = List.map (fun (id, log) -> (id, List.rev !log)) transcript;
    events = stats.Engine.events_processed;
  }

let run_vector cfg ~por prefix =
  execute cfg ~por ~visited:(Hashtbl.create 1) ~judge:true prefix

(* ----- exploration ------------------------------------------------------ *)

type report = {
  config_name : string;
  por : bool;
  depth : int;
  explored : int;  (* runs executed (internal prefixes, leaves and pruned) *)
  judged : int;  (* complete choice assignments judged by the oracles *)
  pruned : int;  (* subtrees cut by the visited set *)
  frontier : int;  (* choice points left unexpanded by the depth bound *)
  deepest : int;  (* longest prefix reached *)
  violations : (string * int array) list;
      (* distinct oracle violations with a minimal-depth prefix exhibiting
         each (breadth-first order makes the first witness minimal) *)
  splits : (string * int array) list;
  counterexample : run option;  (* first (minimal) run with a split decision *)
  truncated : bool;  (* stopped by max_runs, not exhaustion *)
}

(* The breadth-first worklist loop, seeded with an arbitrary set of root
   prefixes and an (optionally pre-populated) visited set — the serial
   explorer seeds it with the empty prefix; the parallel explorer runs one
   loop per root-choice subtree. *)
let explore_bfs ~max_runs (cfg : Config.t) ~por ~depth ~visited roots =
  let q = Queue.create () in
  List.iter (fun p -> Queue.add p q) roots;
  let explored = ref 0
  and judged = ref 0
  and pruned = ref 0
  and frontier = ref 0
  and deepest = ref 0 in
  let violations = ref [] and splits = ref [] in
  let counterexample = ref None in
  let truncated = ref false in
  let record store found prefix =
    List.iter
      (fun s -> if not (List.mem_assoc s !store) then store := (s, prefix) :: !store)
      found
  in
  while (not (Queue.is_empty q)) && not !truncated do
    if !explored >= max_runs then truncated := true
    else begin
      let prefix = Queue.pop q in
      let len = Array.length prefix in
      let judge = len = 0 || prefix.(len - 1) <> 0 in
      let r = execute cfg ~por ~visited ~judge prefix in
      incr explored;
      if len > !deepest then deepest := len;
      if r.pruned then incr pruned
      else begin
        if judge then begin
          incr judged;
          record violations r.violations prefix;
          record splits r.splits prefix;
          if !counterexample = None && r.splits <> [] then counterexample := Some r
        end;
        match r.next with
        | None -> ()
        | Some (fp, options, _) ->
            Hashtbl.replace visited fp ();
            if len >= depth then incr frontier
            else
              for i = 0 to options - 1 do
                Queue.add (Array.append prefix [| i |]) q
              done
      end
    end
  done;
  {
    config_name = cfg.Config.name;
    por;
    depth;
    explored = !explored;
    judged = !judged;
    pruned = !pruned;
    frontier = !frontier;
    deepest = !deepest;
    violations = List.rev !violations;
    splits = List.rev !splits;
    counterexample = !counterexample;
    truncated = !truncated;
  }

(* (length, then lexicographic) order on choice prefixes — exactly the order
   breadth-first search discovers them in, so the minimum over any set of
   witnesses for the same verdict is the one serial BFS would report first. *)
let prefix_order a b =
  let c = Int.compare (Array.length a) (Array.length b) in
  if c <> 0 then c else Stdlib.compare a b

(* Fold one shard's (verdict, witness) list into the accumulated one:
   verdict-set union, keeping per verdict the minimal witness under
   [prefix_order]. First-appearance order of verdicts is preserved, and
   shards are folded in root-option order, so the merged report is a pure
   function of the config — independent of domain scheduling. *)
let merge_witnesses base found =
  List.fold_left
    (fun acc (label, p) ->
      match List.assoc_opt label acc with
      | None -> acc @ [ (label, p) ]
      | Some q when prefix_order p q < 0 ->
          List.map (fun (l, w) -> if l = label then (l, p) else (l, w)) acc
      | Some _ -> acc)
    base found

let explore ?(max_runs = 200_000) ?(jobs = 1) (cfg : Config.t) ~por ~depth =
  if jobs <= 1 || depth < 1 then
    explore_bfs ~max_runs cfg ~por ~depth ~visited:(Hashtbl.create 4096)
      [ [||] ]
  else begin
    (* Run the empty prefix once to judge the all-defaults world and discover
       the first branching point; its options become the shards. *)
    let root = execute cfg ~por ~visited:(Hashtbl.create 16) ~judge:true [||] in
    match root.next with
    | None ->
        (* the whole choice space is the single root run *)
        explore_bfs ~max_runs cfg ~por ~depth ~visited:(Hashtbl.create 16)
          [ [||] ]
    | Some (root_fp, options, _) ->
        (* One BFS per root option, each with its own visited set (seeded
           with the root fingerprint, as serial exploration would). Workers
           pull shard indices from an atomic counter and write reports into
           their own slot; the merge below reads slots in index order, so the
           result does not depend on which domain ran which shard. Per-shard
           visited sets forfeit cross-subtree pruning: counts (explored,
           pruned, frontier) can differ from a serial run, but under
           exhaustion the verdict SET cannot — a pruned subtree's default
           continuation is byte-identical to the continuation from the
           already-visited state, so its verdicts are duplicates. *)
        let results : report option array = Array.make options None in
        let next_shard = Atomic.make 0 in
        let worker () =
          let continue = ref true in
          while !continue do
            let s = Atomic.fetch_and_add next_shard 1 in
            if s >= options then continue := false
            else begin
              let visited = Hashtbl.create 4096 in
              Hashtbl.replace visited root_fp ();
              results.(s) <-
                Some
                  (explore_bfs ~max_runs cfg ~por ~depth ~visited [ [| s |] ])
            end
          done
        in
        let helpers =
          List.init (min jobs options - 1) (fun _ -> Domain.spawn worker)
        in
        worker ();
        List.iter Domain.join helpers;
        let shards = Array.to_list results |> List.filter_map Fun.id in
        let sum f = List.fold_left (fun acc r -> acc + f r) 0 shards in
        let violations =
          List.fold_left merge_witnesses
            (List.map (fun v -> (v, [||])) root.violations)
            (List.map (fun r -> r.violations) shards)
        in
        let splits =
          List.fold_left merge_witnesses
            (List.map (fun v -> (v, [||])) root.splits)
            (List.map (fun r -> r.splits) shards)
        in
        let counterexample =
          let candidates =
            (if root.splits <> [] then [ root ] else [])
            @ List.filter_map (fun r -> r.counterexample) shards
          in
          match candidates with
          | [] -> None
          | c :: cs ->
              Some
                (List.fold_left
                   (fun best r ->
                     if prefix_order r.prefix best.prefix < 0 then r else best)
                   c cs)
        in
        {
          config_name = cfg.Config.name;
          por;
          depth;
          explored = 1 + sum (fun r -> r.explored);
          judged = 1 + sum (fun r -> r.judged);
          pruned = sum (fun r -> r.pruned);
          frontier = sum (fun r -> r.frontier);
          deepest =
            List.fold_left (fun acc r -> max acc r.deepest) 0 shards;
          violations;
          splits;
          counterexample;
          truncated = List.exists (fun r -> r.truncated) shards;
        }
  end

let pp_prefix ppf p =
  Fmt.pf ppf "[%a]" Fmt.(array ~sep:(Fmt.any ";") int) p

let pp_report ppf r =
  Fmt.pf ppf
    "%s por=%b depth=%d: explored=%d judged=%d pruned=%d frontier=%d \
     deepest=%d%s@."
    r.config_name r.por r.depth r.explored r.judged r.pruned r.frontier
    r.deepest
    (if r.truncated then " TRUNCATED" else "");
  Fmt.pf ppf "  oracle violations: %d distinct@." (List.length r.violations);
  List.iter
    (fun (v, p) -> Fmt.pf ppf "    %a %s@." pp_prefix p v)
    r.violations;
  Fmt.pf ppf "  split decisions: %d distinct@." (List.length r.splits);
  List.iter (fun (v, p) -> Fmt.pf ppf "    %a %s@." pp_prefix p v) r.splits

(* ----- counterexample export ------------------------------------------- *)

(* Pin an explored run as a fuzz Spec: the Byzantine side becomes a
   [Catalog.Scripted] transcript, the delivery schedule a [Spec.Scripted]
   delay (k-th send on each link gets the delay the checker chose). Replaying
   the spec through the Runner re-executes the same world — the engine breaks
   ties identically, correct-node code is shared, and the scripted strategy
   is input-oblivious — so `ssba_fuzz --replay` reproduces the violation. *)
let spec_of_run (cfg : Config.t) (r : run) ~name =
  let links =
    let tbl = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun (link, delay) ->
        match Hashtbl.find_opt tbl link with
        | Some ds -> ds := delay :: !ds
        | None ->
            Hashtbl.add tbl link (ref [ delay ]);
            order := link :: !order)
      r.sends;
    List.rev_map (fun link -> (link, List.rev !(Hashtbl.find tbl link))) !order
  in
  {
    Spec.name;
    seed = 0;
    n = cfg.Config.params.Params.n;
    f = cfg.Config.params.Params.f;
    delay = Spec.Scripted { default = cfg.Config.default_delay; links };
    clocks = Scenario.Perfect;
    cast =
      List.map
        (fun (id, steps) -> (id, Catalog.Scripted { steps }))
        r.transcript;
    proposals = cfg.Config.proposals;
    events = [];
    transport = None;
    horizon = cfg.Config.horizon;
    session_capacity = cfg.Config.session_capacity;
    blackout = cfg.Config.blackout;
    r_slack = cfg.Config.params.Params.r_slack;
    service = None;
  }

(* ----- E14: states explored, POR reduction, verdicts -------------------- *)

let e14 ?(depth = 24) () =
  Fmt.pr "E14 — Exhaustive small-model checking (n=4, f=1)@.@.";
  Fmt.pr "%-22s %-5s %9s %8s %8s %9s %6s %7s@." "config" "por" "explored"
    "judged" "pruned" "frontier" "viol" "splits";
  let row cfg ~por ~depth =
    let r = explore cfg ~por ~depth in
    Fmt.pr "%-22s %-5b %9d %8d %8d %9d %6d %7d@." r.config_name por r.explored
      r.judged r.pruned r.frontier
      (List.length r.violations)
      (List.length r.splits);
    r
  in
  let on = row (Config.smoke ()) ~por:true ~depth in
  let off = row (Config.smoke ()) ~por:false ~depth in
  let s_on = row (Config.split ~blackout:true ()) ~por:true ~depth in
  let s_off = row (Config.split ~blackout:false ()) ~por:true ~depth in
  Fmt.pr "@.POR reduction factor (smoke): %.2fx (%d -> %d states)@."
    (float_of_int off.explored /. float_of_int on.explored)
    off.explored on.explored;
  Fmt.pr "smoke verdict: %s@."
    (if on.violations = [] && off.violations = [] then
       "zero oracle violations over the full choice space"
     else "VIOLATIONS FOUND");
  Fmt.pr
    "split sensitivity: blackout on -> %d split decisions; blackout off -> %d \
     (checker rediscovers the IA-4 split the guard prevents)@."
    (List.length s_on.splits)
    (List.length s_off.splits);
  match s_off.counterexample with
  | None -> ()
  | Some r ->
      Fmt.pr "minimal split counterexample at choice prefix %a@." pp_prefix
        r.prefix
