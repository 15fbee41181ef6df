(* ssba benchmark program: one closed-loop workload per process.

     bench.exe --workload agree-n61 --seed 42 --seconds 35 --trace 0
     bench.exe --workload fuzz-overload --seed 42 --setup-only

   Every layer is measured from outside, by timing and counting calls into
   the libraries' public functions; nothing under lib/ is instrumented.

   --trace 0 runs the workload's operation in a closed loop (the next
   operation starts when the previous one returns) for --seconds and reports
   the end-to-end metrics. --trace 1 splits the time into an untraced phase
   and a traced phase over the same inputs and reports the per-layer
   metrics, the exact counts and the tracing overhead between the phases.

   The process sets the workload up (fuzz-overload generates its spec mix,
   mc-smoke builds its config), prints "#ready" just before the first timed
   operation (run.py measures set-up time up to that line), then
   human-readable lines, and as its last line "RESULT <json>". *)

module H = Ssba_harness
module F = Ssba_fuzz
module Svc = Ssba_service.Service
module Mc = Ssba_mc.Mc
module Mc_config = Ssba_mc.Config
module Engine = Ssba_sim.Engine
module Rng = Ssba_sim.Rng
module Trace = Ssba_sim.Trace
module Json = Ssba_sim.Json
module Network = Ssba_net.Network
module Link = Ssba_net.Link
module Node = Ssba_core.Node
module Params = Ssba_core.Params
module Ty = Ssba_core.Types

external now_ns : unit -> (int[@untagged])
  = "perfbench_now_ns_byte" "perfbench_now_ns"
[@@noalloc]

let ms_of_ns ns = float_of_int ns /. 1e6
let fdiv a b = if b = 0.0 then 0.0 else a /. b
let idiv a b = fdiv (float_of_int a) (float_of_int b)

(* ----- statistics ---------------------------------------------------------- *)

(* Nearest-rank percentile of an ascending array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* The highest percentile with at least ten samples beyond it:
   (level, value, samples beyond), or [None] below 20 samples. *)
let tail sorted =
  let n = Array.length sorted in
  List.find_map
    (fun p ->
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
      if n - rank >= 10 then Some (p, percentile sorted p, n - rank) else None)
    [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

(* ----- GC attribution through Runtime_events ------------------------------ *)

(* Outermost GC spans are pauses of the (single) mutator; major-slice time is
   summed separately because it is the part an allocation diet moves. *)
module Gc_events = struct
  type acc = {
    mutable slice_ns : int;
    mutable slices : int;
    mutable pause_max_ns : int;
    mutable pauses : int;
    mutable lost : int;
    mutable depth : int;
    mutable pause_start : int;
    mutable slice_start : int;
  }

  let acc =
    {
      slice_ns = 0;
      slices = 0;
      pause_max_ns = 0;
      pauses = 0;
      lost = 0;
      depth = 0;
      pause_start = 0;
      slice_start = 0;
    }

  let is_pause (p : Runtime_events.runtime_phase) =
    match p with
    | EV_MINOR | EV_MAJOR_SLICE | EV_STW_LEADER | EV_STW_HANDLER
    | EV_EXPLICIT_GC_MINOR | EV_EXPLICIT_GC_MAJOR | EV_EXPLICIT_GC_FULL_MAJOR
    | EV_EXPLICIT_GC_COMPACT | EV_EXPLICIT_GC_MAJOR_SLICE ->
        true
    | _ -> false

  let ts t = Int64.to_int (Runtime_events.Timestamp.to_int64 t)

  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun _ t phase ->
        let t = ts t in
        if phase = EV_MAJOR_SLICE then acc.slice_start <- t;
        if is_pause phase then begin
          if acc.depth = 0 then acc.pause_start <- t;
          acc.depth <- acc.depth + 1
        end)
      ~runtime_end:(fun _ t phase ->
        let t = ts t in
        if phase = EV_MAJOR_SLICE then begin
          acc.slice_ns <- acc.slice_ns + (t - acc.slice_start);
          acc.slices <- acc.slices + 1
        end;
        if is_pause phase && acc.depth > 0 then begin
          acc.depth <- acc.depth - 1;
          if acc.depth = 0 then begin
            acc.pauses <- acc.pauses + 1;
            acc.pause_max_ns <- max acc.pause_max_ns (t - acc.pause_start)
          end
        end)
      ~lost_events:(fun _ n ->
        acc.lost <- acc.lost + n;
        acc.depth <- 0)
      ()

  let cursor = ref None
  let polling = ref false

  (* Also polled from a GC alarm (end of every major cycle), so a long
     operation such as an Mc.explore pass cannot overrun the ring between
     two polls; the flag keeps the alarm from re-entering a poll. *)
  let poll () =
    match !cursor with
    | Some c when not !polling ->
        polling := true;
        Fun.protect
          ~finally:(fun () -> polling := false)
          (fun () -> ignore (Runtime_events.read_poll c callbacks None : int))
    | Some _ | None -> ()

  let start () =
    Runtime_events.start ();
    cursor := Some (Runtime_events.create_cursor None);
    ignore (Gc.create_alarm poll : Gc.alarm)
end

(* ----- report -------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value = { name; value; unit_; note }

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun m ->
      Printf.printf "  %-36s %16.6g %-11s %s\n" m.name m.value m.unit_ m.note)
    ms

(* ----- closed loop ------------------------------------------------------------ *)

(* What one timed span (one call of a workload's operation function)
   produced. A span completes [units] operations: one agreement, the
   service jobs of one scenario, or the explored runs of one model-checker
   pass. *)
type step = {
  units : int;
  ok : bool;
      (** the span's outputs passed the workload's check; a traced span also
          checks that its instrumented run reproduced the library's run *)
  events : int;  (** engine events; 0 where the engine is not visible *)
  sent : int;  (** network sends *)
  trace_entries : int;
  words : float;  (** minor words allocated inside the span *)
}

type phase = { steps : step array; durs : int array; wall_ns : int }

(* Peak major heap (Gc.quick_stat top_heap_words) when the process's first
   loop completed its first pass over the input mix: the memory one pass
   needs. Later passes add only the GC's history, which varies run to run. *)
let first_pass_heap_mb = ref None

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* Closed loop: span [i + 1] starts when span [i] returns. [op i] runs the
   timed part and returns the bookkeeping, which runs outside the span. The
   loop stops at the first multiple of [cycle] spans reached after
   [seconds], so every run covers its input mix in whole passes. *)
let run_loop ~cycle ~seconds ~max_spans op =
  let steps = ref [] and durs = ref [] in
  let t0 = now_ns () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  let i = ref 0 in
  while
    !i < max_spans && (!i = 0 || !i mod cycle <> 0 || now_ns () < deadline)
  do
    let a = now_ns () in
    let after = op !i in
    durs := (now_ns () - a) :: !durs;
    steps := after () :: !steps;
    incr i;
    if !i = cycle && !first_pass_heap_mb = None then
      first_pass_heap_mb := Some (heap_mb ())
  done;
  {
    steps = Array.of_list (List.rev !steps);
    durs = Array.of_list (List.rev !durs);
    wall_ns = now_ns () - t0;
  }

let sum_units p = Array.fold_left (fun acc s -> acc + s.units) 0 p

(* A failed span counts as at least one failed operation, so a failure that
   completes nothing (a stalled scenario decides no service job) still
   shows. *)
let failed_units s = if s.ok then 0 else max 1 s.units

let attempted p =
  Array.fold_left (fun acc s -> acc + max s.units (failed_units s)) 0 p.steps

let failed p = Array.fold_left (fun acc s -> acc + failed_units s) 0 p.steps

(* Per-operation times: each span's time over the operations it completed. *)
let op_ms p =
  sorted_of_list
    (List.filter_map
       (fun (s, d) ->
         if s.units = 0 then None else Some (ms_of_ns d /. float_of_int s.units))
       (List.combine (Array.to_list p.steps) (Array.to_list p.durs)))

let wall_s p = float_of_int p.wall_ns /. 1e9

(* The end-to-end metrics every workload reports, plus the printed extras
   (engine throughput where the engine is visible, failure share). *)
let e2e_metrics ~unit_name p =
  let times = op_ms p in
  let events = Array.fold_left (fun acc s -> acc + s.events) 0 p.steps in
  [
    metric "ops_per_s" "1/s" (float_of_int (attempted p) /. wall_s p)
      ~note:(Printf.sprintf "(%d %s)" (attempted p) unit_name);
    metric "op_ms_p50" "ms" (percentile times 50.0)
      ~note:
        (if Array.length p.steps = attempted p then
           Printf.sprintf "(median of %d)" (Array.length times)
         else
           Printf.sprintf "(median over %d spans of each span's ms per op)"
             (Array.length times));
    metric "peak_heap_mb" "MB"
      (Option.value ~default:(heap_mb ()) !first_pass_heap_mb)
      ~note:"(top heap after the first pass)";
  ]
  @ (if events = 0 then []
     else [ metric "sim_events_per_s" "1/s" (float_of_int events /. wall_s p) ])
  @ [ metric "fail_frac" "ratio" (idiv (failed p) (attempted p)) ]

(* The highest percentile with at least ten samples beyond it. *)
let tail_note p =
  let times = op_ms p in
  let what =
    if Array.length p.steps = attempted p then "op_ms_tail"
    else "op_ms_tail (per-span means)"
  in
  match tail times with
  | Some (lvl, v, beyond) ->
      Printf.sprintf "%s p%g = %.4g ms (%d samples beyond, n=%d)" what lvl v
        beyond (Array.length times)
  | None ->
      Printf.sprintf "%s n/a (n=%d < 20 samples)" what (Array.length times)

(* Exact counts over the first [spans] untraced spans: deterministic for a
   seed, a compiler and a build, so they repeat bit for bit. *)
let exact_metrics ~spans p =
  let first = Array.sub p.steps 0 (min spans (Array.length p.steps)) in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 first in
  let ops = float_of_int (sum_units first) in
  let events = sum (fun s -> s.events) in
  let words = Array.fold_left (fun acc s -> acc +. s.words) 0.0 first in
  let note = Printf.sprintf "(exact, first %d spans)" (Array.length first) in
  metric "gc.minor_words_per_op" "words/op" (fdiv words ops) ~note
  ::
  (if events = 0 then []
   else
     [
       metric "sim.engine.events_per_op" "count/op"
         (fdiv (float_of_int events) ops)
         ~note;
       metric "net.sent_per_op" "count/op"
         (fdiv (float_of_int (sum (fun s -> s.sent))) ops)
         ~note;
       metric "sim.trace.entries_per_op" "count/op"
         (fdiv (float_of_int (sum (fun s -> s.trace_entries))) ops)
         ~note;
       metric "gc.minor_words_per_event" "words/event"
         (fdiv words (float_of_int events))
         ~note;
     ])

(* GC metrics of a traced phase: Gc.quick_stat deltas plus Runtime_events. *)
let gc_phase_metrics ~major0 p =
  Gc_events.poll ();
  let g = Gc_events.acc in
  let ops = attempted p in
  let majors = (Gc.quick_stat ()).Gc.major_collections - major0 in
  [
    metric "gc.major_collections_per_op" "count/op" (idiv majors ops);
    metric "gc.major_slice_ms_per_op" "ms/op"
      (fdiv (ms_of_ns g.Gc_events.slice_ns) (float_of_int ops))
      ~note:(Printf.sprintf "(%d slices)" g.Gc_events.slices);
    metric "gc.pause_ms_max" "ms" (ms_of_ns g.Gc_events.pause_max_ns)
      ~note:
        (Printf.sprintf "(%d pauses, %d events lost)" g.Gc_events.pauses
           g.Gc_events.lost);
  ]

(* Untraced against traced throughput over the spans both phases ran: the
   same inputs both ways. *)
let overhead_metrics (a : phase) (b : phase) =
  let m = min (Array.length a.durs) (Array.length b.durs) in
  let rate p =
    let units = sum_units (Array.sub p.steps 0 m) in
    let ns = Array.fold_left ( + ) 0 (Array.sub p.durs 0 m) in
    idiv units ns *. 1e9
  in
  let ua = rate a and tb = rate b in
  [
    metric "trace.ops_per_s_untraced" "1/s" ua
      ~note:(Printf.sprintf "(same %d spans both ways)" m);
    metric "trace.ops_per_s_traced" "1/s" tb;
    metric "trace.overhead" "ratio" (fdiv ua tb)
      ~note:"(untraced / traced, whole traced span)";
  ]

(* ----- agree-n61: the E11 agreement at n = 61 ----------------------------- *)

let agree_n = 61
let agree_t0 = 0.05
let agree_v = "m"

(* E11's workload (Experiments.e11_workload): one correct-General proposal at
   t0, horizon t0 + 2 Delta_agr, default delays and drifting clocks. *)
let agree_scenario seed =
  let params = Params.default agree_n in
  H.Scenario.default ~name:"e11" ~seed
    ~proposals:[ { H.Scenario.g = 0; v = agree_v; at = agree_t0 } ]
    ~horizon:(agree_t0 +. (2.0 *. params.Params.delta_agr))
    params

(* Operation i's scenario seed: a pure function of (bench seed, i). *)
let op_seed ~seed i = Rng.bits (F.Campaign.rng_of_iteration ~seed i)

(* Correct iff every one of the n correct nodes decided the proposed value
   and nothing else returned. *)
let agree_ok (returns : Ty.return_info list) =
  let good (r : Ty.return_info) =
    r.Ty.g = 0 && match r.Ty.outcome with Ty.Decided v -> v = agree_v | _ -> false
  in
  List.for_all good returns
  && List.length (List.sort_uniq compare (List.map (fun r -> r.Ty.node) returns))
     = agree_n

let agree_latencies_d ~d (returns : Ty.return_info list) =
  List.map (fun (r : Ty.return_info) -> (r.Ty.rt_ret -. agree_t0) /. d) returns

(* Timing-wrapped link: send/broadcast spans, and delivery-handler spans
   minus the sends nested inside them. All fields are ints or flat floats, so
   the wrappers allocate nothing per call. *)
type link_acc = {
  mutable handler_ns : int;
  mutable handler_calls : int;
  mutable send_ns : int;
  mutable send_calls : int;
  mutable nested_send_ns : int;
  mutable in_handler : int;
}

type link_words = { mutable handler_w : float; mutable nested_send_w : float }

let new_link_acc () =
  {
    handler_ns = 0;
    handler_calls = 0;
    send_ns = 0;
    send_calls = 0;
    nested_send_ns = 0;
    in_handler = 0;
  }

let new_link_words () = { handler_w = 0.0; nested_send_w = 0.0 }

let add_link_acc (into, into_w) (a, w) =
  into.handler_ns <- into.handler_ns + a.handler_ns;
  into.handler_calls <- into.handler_calls + a.handler_calls;
  into.send_ns <- into.send_ns + a.send_ns;
  into.send_calls <- into.send_calls + a.send_calls;
  into.nested_send_ns <- into.nested_send_ns + a.nested_send_ns;
  into_w.handler_w <- into_w.handler_w +. w.handler_w;
  into_w.nested_send_w <- into_w.nested_send_w +. w.nested_send_w

let timed_link (a : link_acc) (w : link_words) (l : 'a Link.t) : 'a Link.t =
  let sent dt w0 =
    a.send_ns <- a.send_ns + dt;
    a.send_calls <- a.send_calls + 1;
    if a.in_handler > 0 then begin
      a.nested_send_ns <- a.nested_send_ns + dt;
      w.nested_send_w <- w.nested_send_w +. (Gc.minor_words () -. w0)
    end
  in
  {
    l with
    Link.send =
      (fun ~src ~dst m ->
        let w0 = Gc.minor_words () in
        let t0 = now_ns () in
        l.Link.send ~src ~dst m;
        sent (now_ns () - t0) w0);
    broadcast =
      (fun ~src m ->
        let w0 = Gc.minor_words () in
        let t0 = now_ns () in
        l.Link.broadcast ~src m;
        sent (now_ns () - t0) w0);
    set_handler =
      (fun id h ->
        l.Link.set_handler id (fun m ->
            let w0 = Gc.minor_words () in
            let t0 = now_ns () in
            a.in_handler <- a.in_handler + 1;
            h m;
            a.in_handler <- a.in_handler - 1;
            a.handler_ns <- a.handler_ns + (now_ns () - t0);
            a.handler_calls <- a.handler_calls + 1;
            w.handler_w <- w.handler_w +. (Gc.minor_words () -. w0)));
  }

type wired = {
  w_stats : Engine.stats;
  w_sent : int;
  w_delivered : int;
  w_pool_slots : int;
  w_returns : Ty.return_info list;
  w_run_ns : int;
}

(* The traced world: Runner.run's construction for a transport-free,
   fault-free, all-correct scenario, rebuilt from public constructors with
   Runner's RNG splits (network stream first, clock stream second) so the
   run is the same event for event; the caller checks it against
   Runner.run. *)
let wired_run acc words (sc : H.Scenario.t) =
  let params = sc.H.Scenario.params in
  let n = params.Params.n in
  let root = Rng.create sc.H.Scenario.seed in
  let net_rng = Rng.split root in
  let clock_rng = Rng.split root in
  let engine = Engine.create ~trace:(Trace.create ~enabled:false ()) () in
  let net =
    Network.create ~engine ~n ~delay:sc.H.Scenario.delay ~rng:net_rng
      ~kind_of:Ty.kind_of_message ()
  in
  let link = timed_link acc words (Network.link net) in
  let clocks =
    Array.init n (fun _ ->
        match sc.H.Scenario.clocks with
        | H.Scenario.Perfect -> Ssba_sim.Clock.perfect
        | H.Scenario.Drifting { rho; max_offset } ->
            Ssba_sim.Clock.random clock_rng ~rho ~max_offset)
  in
  let returns = ref [] in
  let nodes =
    List.init n (fun id ->
        let node =
          Node.create_on ~channels:sc.H.Scenario.channels
            ?session_capacity:sc.H.Scenario.session_capacity
            ~blackout:sc.H.Scenario.blackout ~admission:sc.H.Scenario.admission
            ~id ~params ~clock:clocks.(id) ~engine ~link ()
        in
        Node.subscribe node (fun r -> returns := r :: !returns);
        node)
  in
  List.iter
    (fun (p : H.Scenario.proposal) ->
      Engine.schedule engine ~at:p.H.Scenario.at (fun () ->
          ignore
            (Node.propose ~channel:(p.H.Scenario.g / n)
               (List.nth nodes (p.H.Scenario.g mod n))
               p.H.Scenario.v)))
    sc.H.Scenario.proposals;
  let t0 = now_ns () in
  let stats = Engine.run ~until:sc.H.Scenario.horizon engine in
  let run_ns = now_ns () - t0 in
  {
    w_stats = stats;
    w_sent = Network.messages_sent net;
    w_delivered = Network.messages_delivered net;
    w_pool_slots = Network.pool_slots_allocated net;
    w_returns =
      List.sort (fun a b -> compare a.Ty.rt_ret b.Ty.rt_ret) !returns;
    w_run_ns = run_ns;
  }

(* ----- fuzz-overload ----------------------------------------------------------- *)

(* The input mix: the 50 specs of the overload tier's CI campaign
   (ssba_fuzz --seed 42 --runs 50 --overload, the @fuzz rule), generated once
   at set-up and cycled in order. Operation i re-seeds spec (i mod 50) from
   (--seed, i): the seed field drives every random choice of the compiled
   run (delays, clocks, adversaries, service arrivals) and is an independent
   draw in Gen.spec, so a re-seeded spec is one the generator could have
   drawn. A fixed mix of shapes keeps the per-run cost mix the same for
   every seed; campaign-seeded scenarios differ in size by an order of
   magnitude. *)
let fuzz_campaign_seed = 42
let fuzz_campaign_runs = 50

(* The overload tier's config capped exactly as ssba_fuzz caps it at its
   defaults (--max-n 10 --max-disruptions 2): the tier keeps its own
   smaller cluster and disruption caps. *)
let fuzz_gen =
  let base = F.Gen.overload_config in
  {
    base with
    F.Gen.max_n = min 10 base.F.Gen.max_n;
    max_disruptions = min 2 base.F.Gen.max_disruptions;
    r_slack = Params.default_r_slack;
    edge_delays = true;
  }

(* Decision latency of every correct node for every accepted service job,
   from the attempt's proposal time, in units of d. *)
let service_latencies_d (res : H.Runner.result) ~d =
  let first = Hashtbl.create 256 in
  List.iter
    (fun (r : Ty.return_info) ->
      match r.Ty.outcome with
      | Ty.Decided v when Svc.is_service_value v ->
          if not (Hashtbl.mem first (v, r.Ty.node)) then
            Hashtbl.add first (v, r.Ty.node) r.Ty.rt_ret
      | _ -> ())
    res.H.Runner.returns;
  List.concat_map
    (fun ((p : H.Scenario.proposal), outcome) ->
      match outcome with
      | H.Runner.Accepted when Svc.is_service_value p.H.Scenario.v ->
          List.filter_map
            (fun node ->
              Option.map
                (fun rt -> (rt -. p.H.Scenario.at) /. d)
                (Hashtbl.find_opt first (p.H.Scenario.v, node)))
            res.H.Runner.correct
      | _ -> [])
    res.H.Runner.proposal_results

let acks (res : H.Runner.result) =
  Option.value ~default:0 (List.assoc_opt "ack" res.H.Runner.messages_by_kind)

(* Service jobs some correct node decided: the workload's operations. *)
let decided_jobs (res : H.Runner.result) =
  List.length
    (List.sort_uniq compare
       (List.filter_map
          (fun (r : Ty.return_info) ->
            match r.Ty.outcome with
            | Ty.Decided v when Svc.is_service_value v -> Some v
            | _ -> None)
          res.H.Runner.returns))

(* ----- workloads --------------------------------------------------------------- *)

(* One workload: its operation function untraced and traced (both over the
   same input sequence), the extras its untraced run prints, and the
   per-layer metrics its traced run yields. *)
type workload = {
  unit_name : string;  (** what one operation is, for the printout *)
  cycle : int;  (** spans in one pass over the input mix *)
  untraced : int -> unit -> step;
  traced : int -> unit -> step;
  extras : unit -> metric list;  (** untraced, workload-specific *)
  layers : phase -> metric list * string list;  (** from the traced phase *)
  info : unit -> string list;
}

(* agree-n61 *)
let agree ~seed =
  let d = (Params.default agree_n).Params.d in
  let lat = ref [] in
  let results = Hashtbl.create 16 in
  let untraced i =
    let sc = agree_scenario (op_seed ~seed i) in
    let w0 = Gc.minor_words () in
    let res = H.Runner.run sc in
    let words = Gc.minor_words () -. w0 in
    fun () ->
      let events = res.H.Runner.engine_stats.Engine.events_processed in
      lat := agree_latencies_d ~d res.H.Runner.returns @ !lat;
      Hashtbl.replace results i
        (events, res.H.Runner.messages_sent, res.H.Runner.returns);
      {
        units = 1;
        ok = agree_ok res.H.Runner.returns;
        events;
        sent = res.H.Runner.messages_sent;
        trace_entries = Trace.count res.H.Runner.trace;
        words;
      }
  in
  let acc = new_link_acc () and words = new_link_words () in
  let run_ns = ref 0 and run_events = ref 0 in
  let delivered = ref 0 and slots = ref 0 in
  let mismatched = ref [] in
  let traced i =
    let sc = agree_scenario (op_seed ~seed i) in
    (* a scratch accumulator per op, folded in only if the op reproduces *)
    let a = new_link_acc () and w = new_link_words () in
    let r = wired_run a w sc in
    fun () ->
      let events, sent, returns = Hashtbl.find results i in
      let reproduced =
        events = r.w_stats.Engine.events_processed
        && sent = r.w_sent && returns = r.w_returns
      in
      if reproduced then begin
        run_ns := !run_ns + r.w_run_ns;
        run_events := !run_events + events;
        delivered := !delivered + r.w_delivered;
        slots := max !slots r.w_pool_slots;
        add_link_acc (acc, words) (a, w)
      end
      else mismatched := sc.H.Scenario.seed :: !mismatched;
      {
        units = 1;
        ok = reproduced;
        events = r.w_stats.Engine.events_processed;
        sent = r.w_sent;
        trace_entries = 0;
        words = 0.0;
      }
  in
  let layers pb =
    let spans = Array.length pb.steps in
    let ok_spans = spans - List.length !mismatched in
    let split =
      if ok_spans = 0 then []
      else
        [
          metric "sim.engine.self_ns_per_event" "ns/event"
            (idiv
               (!run_ns - acc.handler_ns - (acc.send_ns - acc.nested_send_ns))
               !run_events)
            ~note:
              "(Engine.run minus handler and top-level send spans: queue, \
               delivery dispatch, node timers)";
          metric "net.send.ns_per_call" "ns/call"
            (idiv acc.send_ns acc.send_calls)
            ~note:(Printf.sprintf "(%d calls)" acc.send_calls);
          metric "net.delivered_per_op" "count/op" (idiv !delivered ok_spans);
          metric "net.pool.slots" "count" (float_of_int !slots)
            ~note:"(largest world)";
          metric "core.deliver.self_ns_per_msg" "ns/msg"
            (idiv (acc.handler_ns - acc.nested_send_ns) acc.handler_calls)
            ~note:(Printf.sprintf "(%d deliveries)" acc.handler_calls);
          metric "core.deliver.alloc_words_per_msg" "words/msg"
            (fdiv
               (words.handler_w -. words.nested_send_w)
               (float_of_int acc.handler_calls));
        ]
    in
    ( split
      @ [
          metric "trace.fidelity_ok" "bool"
            (if !mismatched = [] then 1.0 else 0.0)
            ~note:
              (Printf.sprintf "(%d/%d traced worlds reproduce Runner.run)"
                 ok_spans spans);
        ],
      List.map
        (Printf.sprintf
           "FAILURE: traced world for scenario seed %d diverged from \
            Runner.run; it is left out of the core/net/engine split")
        !mismatched )
  in
  let extras () =
    let lat = sorted_of_list !lat in
    [
      metric "decide_latency_d_p99" "d" (percentile lat 99.0)
        ~note:(Printf.sprintf "(%d decisions)" (Array.length lat));
    ]
  in
  {
    unit_name = "agreements";
    cycle = 1;
    untraced;
    traced;
    extras;
    layers;
    info = (fun () -> []);
  }

(* fuzz-overload: one span judges one spec of the mix; an operation is one
   decided service job (a session). Jobs per scenario follow the seed's
   arrival draws, and the work per job is steady where the work per
   scenario is not. *)
let fuzz ~seed =
  let g0 = now_ns () in
  let shapes =
    Array.init fuzz_campaign_runs
      (F.Campaign.spec_of_iteration ~seed:fuzz_campaign_seed ~gen:fuzz_gen)
  in
  let gen_ns = now_ns () - g0 in
  let spec_of i =
    {
      shapes.(i mod fuzz_campaign_runs) with
      F.Spec.seed = op_seed ~seed i land 0x3FFFFFFF;
    }
  in
  let lat = ref [] in
  let failures = ref [] and digests = ref [] in
  let untraced i =
    let spec = spec_of i in
    let w0 = Gc.minor_words () in
    let res, report = F.Oracle.run spec in
    let words = Gc.minor_words () -. w0 in
    fun () ->
      let params = F.Spec.params spec in
      digests := report.F.Oracle.digest :: !digests;
      if F.Oracle.failed report then failures := (i, report) :: !failures;
      lat := service_latencies_d res ~d:params.Params.d @ !lat;
      {
        units = decided_jobs res;
        ok = not (F.Oracle.failed report);
        events = res.H.Runner.engine_stats.Engine.events_processed;
        sent = res.H.Runner.messages_sent;
        trace_entries = Trace.count res.H.Runner.trace;
        words;
      }
  in
  let spec_ns = ref 0 and run_ns = ref 0 in
  let digest_ns = ref 0 and oracle_ns = ref 0 and run_words = ref 0.0 in
  let peak_live = ref 0 and evicted = ref 0 and rejected = ref 0 in
  let retrans = ref 0 and ackn = ref 0 and dups = ref 0 in
  let propose_ns = ref 0 and propose_calls = ref 0 in
  let ret_ns = ref 0 and ret_calls = ref 0 in
  let arrivals = ref 0 and decided = ref 0 and shed = ref 0 in
  let mismatched = ref [] in
  let wrap_driver (drv : H.Runner.driver) =
    {
      drv with
      H.Runner.drv_propose =
        (fun ~g ~v ->
          let t0 = now_ns () in
          let r = drv.H.Runner.drv_propose ~g ~v in
          propose_ns := !propose_ns + (now_ns () - t0);
          incr propose_calls;
          r);
      drv_on_return =
        (fun cb ->
          drv.H.Runner.drv_on_return (fun r ->
              let t0 = now_ns () in
              cb r;
              ret_ns := !ret_ns + (now_ns () - t0);
              incr ret_calls));
    }
  in
  (* The layer split needs spans Oracle.run does not expose, so a traced
     span runs the spec's pieces itself (to_scenario, Runner.run with the
     service attached through a timing-wrapped driver exactly as Oracle.run
     attaches it, result_digest) and Oracle.run on the same spec; the two
     digests must agree. The second of the two runs finds a warmer heap and
     less pending GC work, so the order alternates from span to span. *)
  let traced i =
    let spec = spec_of i in
    let oracle () =
      let a = now_ns () in
      let _, report = F.Oracle.run spec in
      (report, now_ns () - a)
    in
    let report_first = if i mod 2 = 1 then Some (oracle ()) else None in
    let t2 = now_ns () in
    let sc = F.Spec.to_scenario spec in
    let t3 = now_ns () in
    let svc = ref None in
    let on_driver =
      Option.map
        (fun w drv ->
          svc := Some (Svc.attach ~seed:spec.F.Spec.seed w (wrap_driver drv)))
        spec.F.Spec.service
    in
    let w0 = Gc.minor_words () in
    let res = H.Runner.run ?on_driver sc in
    let words = Gc.minor_words () -. w0 in
    let t4 = now_ns () in
    let digest = H.Checks.result_digest res in
    let t5 = now_ns () in
    let report, judged_ns =
      match report_first with Some r -> r | None -> oracle ()
    in
    fun () ->
      spec_ns := !spec_ns + (t3 - t2);
      run_ns := !run_ns + (t4 - t3);
      digest_ns := !digest_ns + (t5 - t4);
      oracle_ns := !oracle_ns + judged_ns;
      run_words := !run_words +. words;
      let reproduced = digest = report.F.Oracle.digest in
      if not reproduced then mismatched := i :: !mismatched;
      List.iter
        (fun (_, node) ->
          let s = Node.session_stats node in
          peak_live := max !peak_live s.Ssba_core.Session_table.peak_live;
          evicted := !evicted + s.Ssba_core.Session_table.evicted;
          rejected :=
            !rejected + s.Ssba_core.Session_table.rejected_at_capacity)
        res.H.Runner.nodes;
      retrans := !retrans + res.H.Runner.transport_retransmits;
      ackn := !ackn + acks res;
      dups := !dups + res.H.Runner.transport_dup_suppressed;
      (match !svc with
      | Some s ->
          let r = Svc.report s in
          arrivals := !arrivals + r.Svc.arrivals;
          decided := !decided + r.Svc.decided;
          shed := !shed + r.Svc.shed
      | None -> ());
      {
        units = decided_jobs res;
        ok = reproduced && not (F.Oracle.failed report);
        events = res.H.Runner.engine_stats.Engine.events_processed;
        sent = res.H.Runner.messages_sent;
        trace_entries = Trace.count res.H.Runner.trace;
        words;
      }
  in
  let layers pb =
    let ops = attempted pb and spans = Array.length pb.steps in
    let per_op v = idiv v ops in
    let judge_ns = !oracle_ns - !spec_ns - !run_ns in
    ( [
        metric "core.sessions.peak_live" "count" (float_of_int !peak_live)
          ~note:"(worst node, worst scenario)";
        metric "core.sessions.evicted" "count/op" (per_op !evicted);
        metric "core.sessions.rejected_at_capacity" "count/op"
          (per_op !rejected);
        metric "transport.retransmits_per_op" "count/op" (per_op !retrans);
        metric "transport.acks_per_op" "count/op" (per_op !ackn);
        metric "transport.dup_suppressed_per_op" "count/op" (per_op !dups);
        metric "service.propose.ns_per_call" "ns/call"
          (idiv !propose_ns !propose_calls)
          ~note:(Printf.sprintf "(%d calls)" !propose_calls);
        metric "service.on_return.ns_per_call" "ns/call"
          (idiv !ret_ns !ret_calls)
          ~note:(Printf.sprintf "(%d calls)" !ret_calls);
        metric "service.decided_per_arrival" "ratio" (idiv !decided !arrivals)
          ~note:(Printf.sprintf "(%d arrivals)" !arrivals);
        metric "service.shed_per_arrival" "ratio" (idiv !shed !arrivals);
        metric "harness.runner.ms_per_op" "ms/op" (per_op !run_ns /. 1e6);
        metric "harness.runner.alloc_words_per_event" "words/event"
          (fdiv !run_words
             (float_of_int
                (Array.fold_left (fun acc s -> acc + s.events) 0 pb.steps)));
        metric "harness.digest.ms_per_op" "ms/op" (per_op !digest_ns /. 1e6);
        metric "fuzz.gen.ms_per_spec" "ms/spec"
          (idiv gen_ns fuzz_campaign_runs /. 1e6)
          ~note:"(Campaign.spec_of_iteration at set-up)";
        metric "fuzz.spec.ms_per_op" "ms/op" (per_op !spec_ns /. 1e6);
        metric "fuzz.oracle.judge_ms_per_op" "ms/op" (per_op judge_ns /. 1e6)
          ~note:"(Oracle.run minus Spec.to_scenario and Runner.run)";
        metric "fuzz.oracle.judge_share" "ratio"
          (idiv judge_ns (!run_ns + judge_ns))
          ~note:"(judge / (run + judge))";
        metric "trace.fidelity_ok" "bool"
          (if !mismatched = [] then 1.0 else 0.0)
          ~note:
            (Printf.sprintf "(%d/%d instrumented runs match Oracle.run)"
               (spans - List.length !mismatched)
               spans);
      ],
      List.map
        (Printf.sprintf
           "FAILURE: the instrumented run of scenario %d does not reproduce \
            Oracle.run's result digest")
        (List.rev !mismatched) )
  in
  let extras () =
    let lat = sorted_of_list !lat in
    if lat = [||] then []
    else
      [
        metric "decide_latency_d_p99" "d" (percentile lat 99.0)
          ~note:(Printf.sprintf "(%d service decisions)" (Array.length lat));
      ]
  in
  let info () =
    Printf.sprintf "digest over %d scenarios (Campaign.digest_of_digests): %s"
      (List.length !digests)
      (F.Campaign.digest_of_digests (Array.of_list (List.rev !digests)))
    :: List.concat_map
         (fun (i, (r : F.Oracle.report)) ->
           List.map
             (fun f ->
               Fmt.str "FAILURE at scenario %d: %a" i F.Oracle.pp_failure f)
             r.F.Oracle.failures)
         (List.rev !failures)
  in
  {
    unit_name = "decided service jobs";
    cycle = fuzz_campaign_runs;
    untraced;
    traced;
    extras;
    layers;
    info;
  }

(* mc-smoke: one span = one pass of Mc.explore on Config.smoke under both
   POR modes, judged like the ssba_mc --smoke gate; an operation is one
   explored run. The config is built once at set-up; it has no random
   input, so the seed is unused. *)
let mc ~seed:_ =
  let depth = 24 in
  let cfg = Mc_config.smoke () in
  let passes = ref [] in
  let verdict ((on : Mc.report), (off : Mc.report)) =
    (not on.Mc.truncated) && (not off.Mc.truncated)
    && on.Mc.violations = [] && off.Mc.violations = [] && on.Mc.splits = []
    && off.Mc.splits = [] && off.Mc.explored > on.Mc.explored
  in
  let pass _ =
    let w0 = Gc.minor_words () in
    let on = Mc.explore cfg ~por:true ~depth in
    let off = Mc.explore cfg ~por:false ~depth in
    let words = Gc.minor_words () -. w0 in
    fun () ->
      passes := (on, off) :: !passes;
      {
        units = on.Mc.explored + off.Mc.explored;
        ok = verdict (on, off);
        events = 0;
        sent = 0;
        trace_entries = 0;
        words;
      }
  in
  let first () = List.nth !passes (List.length !passes - 1) in
  let layers _ =
    let on, off = first () in
    let explored = on.Mc.explored + off.Mc.explored in
    ( [
        metric "mc.explored" "count" (float_of_int explored)
          ~note:"(exact, one pass, both POR modes)";
        metric "mc.judged_per_explored" "ratio"
          (idiv (on.Mc.judged + off.Mc.judged) explored);
        metric "mc.pruned_per_explored" "ratio"
          (idiv (on.Mc.pruned + off.Mc.pruned) explored);
        metric "mc.por_factor" "ratio" (idiv off.Mc.explored on.Mc.explored);
        metric "trace.fidelity_ok" "bool" 1.0 ~note:"(nothing rewired)";
      ],
      [] )
  in
  let info () =
    let on, off = first () in
    [
      Printf.sprintf
        "smoke pass: %d runs with POR, %d without, POR factor %.2fx, %s"
        on.Mc.explored off.Mc.explored
        (idiv off.Mc.explored on.Mc.explored)
        (if verdict (on, off) then "no violations, no splits"
         else "GATE FAILED");
    ]
  in
  {
    unit_name = "explored runs";
    cycle = 1;
    untraced = pass;
    traced = pass;
    extras = (fun () -> []);
    layers;
    info;
  }

(* ----- measurement ------------------------------------------------------------- *)

(* --trace 0: the untraced loop for [seconds]. --trace 1: the untraced loop
   for half the time (its first pass gives the exact counts), then the
   traced loop over the same inputs for the other half. Returns the phases
   run, the metrics to show and the lines to print. *)
let measure w ~seconds ~trace =
  let pa =
    run_loop ~cycle:w.cycle
      ~seconds:(if trace then seconds /. 2.0 else seconds)
      ~max_spans:max_int w.untraced
  in
  let e2e = e2e_metrics ~unit_name:w.unit_name pa @ w.extras () in
  if not trace then ([ pa ], e2e, tail_note pa :: w.info ())
  else begin
    Gc_events.start ();
    let major0 = (Gc.quick_stat ()).Gc.major_collections in
    let traced i =
      let after = w.traced i in
      fun () ->
        Gc_events.poll ();
        after ()
    in
    let pb =
      run_loop ~cycle:w.cycle ~seconds:(seconds /. 2.0)
        ~max_spans:(Array.length pa.steps) traced
    in
    let layers, notes = w.layers pb in
    let carried =
      List.filter
        (fun m ->
          List.mem m.name
            [ "sim_events_per_s"; "decide_latency_d_p99"; "fail_frac" ])
        e2e
    in
    ( [ pa; pb ],
      exact_metrics ~spans:w.cycle pa
      @ layers
      @ gc_phase_metrics ~major0 pb
      @ overhead_metrics pa pb
      @ carried,
      (tail_note pa :: w.info ()) @ notes )
  end

(* ----- command line --------------------------------------------------------- *)

let workloads = [ ("agree-n61", agree); ("fuzz-overload", fuzz); ("mc-smoke", mc) ]

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10.0 in
  let trace = ref 0 and setup_only = ref false in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME agree-n61, fuzz-overload or mc-smoke" );
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed loop");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--setup-only", Arg.Set setup_only, " exit once set up");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  match List.assoc_opt !workload workloads with
  | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  | Some _ when !trace <> 0 && !trace <> 1 ->
      prerr_endline "--trace takes 0 or 1";
      exit 2
  | Some make ->
      let w = make ~seed:!seed in
      print_endline "#ready";
      if !setup_only then exit 0;
      let trace = !trace = 1 in
      let phases, shown, info = measure w ~seconds:!seconds ~trace in
      print_metrics
        (Printf.sprintf "%s seed %d, %s run" !workload !seed
           (if trace then "traced (per-layer)" else "untraced (end-to-end)"))
        shown;
      List.iter (Printf.printf "  %s\n") info;
      (* Every span of both phases counts: a traced span that fails to
         reproduce the library's run fails the run too. *)
      let total f = List.fold_left (fun acc p -> acc + f p) 0 phases in
      let attempted = total attempted and failed = total failed in
      let correct = failed = 0 && attempted > 0 in
      let json =
        Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int attempted));
            ("failed", Json.Num (float_of_int failed));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun m ->
                     ( m.name,
                       Json.Obj
                         [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]
                     ))
                   shown) );
          ]
      in
      Printf.printf "RESULT %s\n%!" (Json.to_string json);
      exit (if correct then 0 else 1)
