(* Tests for the bounded-delay authenticated network. *)

open Helpers
module Engine = Ssba_sim.Engine
module Rng = Ssba_sim.Rng
module Net = Ssba_net.Network
module Delay = Ssba_net.Delay
module Msg = Ssba_net.Msg

let mk ?(n = 3) ?(delay = Delay.fixed 0.1) () =
  let engine = Engine.create () in
  let net = Net.create ~engine ~n ~delay ~rng:(Rng.create 1) () in
  (engine, net)

let test_delivery_timing () =
  let engine, net = mk () in
  let arrived = ref None in
  Net.set_handler net 1 (fun m ->
      arrived := Some (Engine.now engine, m.Msg.src, m.Msg.payload));
  Engine.schedule engine ~at:1.0 (fun () -> Net.send net ~src:0 ~dst:1 "hi");
  ignore (Engine.run engine);
  match !arrived with
  | Some (t, src, payload) ->
      check_float "delivered after the fixed delay" 1.1 t;
      check_int "authentic src" 0 src;
      check_str "payload" "hi" payload
  | None -> Alcotest.fail "message not delivered"

(* Regression: a message reaching a handler-less destination used to vanish
   from the accounting (neither delivered nor dropped). It must count as a
   drop so conservation holds. *)
let test_no_handler_counts_as_drop () =
  let engine, net = mk () in
  Net.send net ~src:0 ~dst:2 "x";
  check_int "in flight until delivery" 1 (Net.messages_in_flight net);
  ignore (Engine.run engine);
  check_int "sent counted" 1 (Net.messages_sent net);
  check_int "nothing delivered" 0 (Net.messages_delivered net);
  check_int "counted as dropped" 1 (Net.messages_dropped net);
  check_int "nothing left in flight" 0 (Net.messages_in_flight net)

let test_broadcast_includes_self () =
  let engine, net = mk () in
  let got = ref [] in
  for i = 0 to 2 do
    Net.set_handler net i (fun m -> got := (i, m.Msg.payload) :: !got)
  done;
  Net.broadcast net ~src:1 "b";
  ignore (Engine.run engine);
  check_int "all three nodes got it (self included)" 3 (List.length !got)

let test_uniform_delay_within_bounds () =
  let engine, net = mk ~delay:(Delay.uniform ~lo:0.01 ~hi:0.05) () in
  let times = ref [] in
  Net.set_handler net 1 (fun _ -> times := Engine.now engine :: !times);
  for _ = 1 to 100 do
    Net.send net ~src:0 ~dst:1 "m"
  done;
  ignore (Engine.run engine);
  List.iter
    (fun t -> check_bool "within [lo, hi]" true (t >= 0.01 && t <= 0.05))
    !times;
  check_int "all delivered" 100 (List.length !times)

let test_mute () =
  let engine, net = mk () in
  let got = ref 0 in
  Net.set_handler net 1 (fun _ -> incr got);
  Net.set_muted net 0 true;
  Net.send net ~src:0 ~dst:1 "dropped";
  Net.send net ~src:2 ~dst:1 "passes";
  ignore (Engine.run engine);
  check_int "muted sender dropped" 1 !got;
  check_bool "is_muted" true (Net.is_muted net 0);
  Net.set_muted net 0 false;
  Net.send net ~src:0 ~dst:1 "back";
  ignore (Engine.run engine);
  check_int "unmuted delivers" 2 !got;
  check_int "drops counted" 1 (Net.messages_dropped net)

let test_partition () =
  let engine, net = mk () in
  let got = ref [] in
  for i = 0 to 2 do
    Net.set_handler net i (fun m -> got := (m.Msg.src, i) :: !got)
  done;
  Net.set_partition net
    (Some (fun ~src ~dst -> (src = 0 && dst = 1) || (src = 1 && dst = 0)));
  Net.send net ~src:0 ~dst:1 "blocked";
  Net.send net ~src:0 ~dst:2 "ok";
  ignore (Engine.run engine);
  check_bool "0->1 blocked, 0->2 passes" true (!got = [ (0, 2) ]);
  Net.set_partition net None;
  Net.send net ~src:0 ~dst:1 "healed";
  ignore (Engine.run engine);
  check_int "healed" 2 (List.length !got)

let test_drop_prob () =
  let engine, net = mk () in
  let got = ref 0 in
  Net.set_handler net 1 (fun _ -> incr got);
  Net.set_drop_prob net 1.0;
  for _ = 1 to 20 do
    Net.send net ~src:0 ~dst:1 "x"
  done;
  ignore (Engine.run engine);
  check_int "all dropped at p=1" 0 !got;
  Net.set_drop_prob net 0.0;
  Net.send net ~src:0 ~dst:1 "y";
  ignore (Engine.run engine);
  check_int "delivered at p=0" 1 !got

let test_forged () =
  let engine, net = mk () in
  let seen = ref None in
  Net.set_handler net 1 (fun m -> seen := Some m);
  Net.inject_forged net ~claimed_src:2 ~dst:1 ~delay:0.5 "fake";
  (* Regression: forged injections used to be delivered without ever being
     counted as sent, leaving delivered > sent. *)
  check_int "forged counts as sent" 1 (Net.messages_sent net);
  check_int "forged is in flight" 1 (Net.messages_in_flight net);
  ignore (Engine.run engine);
  check_int "forged delivered" 1 (Net.messages_delivered net);
  check_int "nothing left in flight" 0 (Net.messages_in_flight net);
  match !seen with
  | Some m ->
      check_int "claimed src" 2 m.Msg.src;
      check_bool "marked forged" true m.Msg.forged
  | None -> Alcotest.fail "forged message not delivered"

let test_sends_never_forged () =
  let engine, net = mk () in
  let seen = ref None in
  Net.set_handler net 1 (fun m -> seen := Some m);
  Net.send net ~src:0 ~dst:1 "real";
  ignore (Engine.run engine);
  match !seen with
  | Some m -> check_bool "regular sends are not forged" false m.Msg.forged
  | None -> Alcotest.fail "not delivered"

let test_delay_override () =
  let engine, net = mk () in
  let at = ref 0.0 in
  Net.set_handler net 1 (fun _ -> at := Engine.now engine);
  Net.set_delay_override net
    (Some (fun m -> if m.Msg.src = 0 then Some 0.7 else None));
  Net.send net ~src:0 ~dst:1 "slow";
  ignore (Engine.run engine);
  check_float "override applied" 0.7 !at;
  Net.send net ~src:2 ~dst:1 "normal";
  ignore (Engine.run engine);
  check_float "non-matching messages keep the policy delay" 0.8 !at

let test_kind_stats () =
  let engine = Engine.create () in
  let net =
    Net.create ~engine ~n:2 ~delay:(Delay.fixed 0.01) ~rng:(Rng.create 1)
      ~kind_of:(fun s -> s) ()
  in
  Net.send net ~src:0 ~dst:1 "a";
  Net.send net ~src:0 ~dst:1 "a";
  Net.send net ~src:0 ~dst:1 "b";
  check_bool "per-kind counts" true (Net.sent_by_kind net = [ ("a", 2); ("b", 1) ]);
  Net.reset_counters net;
  check_int "counters reset" 0 (Net.messages_sent net);
  check_bool "kind table reset" true (Net.sent_by_kind net = [])

let test_bad_destination () =
  let _, net = mk () in
  Alcotest.check_raises "destination out of range"
    (Invalid_argument "Network.send: bad destination") (fun () ->
      Net.send net ~src:0 ~dst:7 "x")

(* The network feeds the engine's shared metrics registry. *)
let test_metrics_registry_feed () =
  let engine = Engine.create () in
  let net =
    Net.create ~engine ~n:2 ~delay:(Delay.fixed 0.01) ~rng:(Rng.create 1)
      ~kind_of:(fun s -> s) ()
  in
  Net.set_handler net 1 (fun _ -> ());
  Net.send net ~src:0 ~dst:1 "echo";
  let m = Engine.metrics engine in
  let module M = Ssba_sim.Metrics in
  check_bool "net.sent" true (M.find_counter m "net.sent" = Some 1);
  check_bool "net.sent.echo" true (M.find_counter m "net.sent.echo" = Some 1);
  check_bool "net.in_flight up" true (M.find_gauge m "net.in_flight" = Some 1.0);
  ignore (Engine.run engine);
  check_bool "net.delivered" true (M.find_counter m "net.delivered" = Some 1);
  check_bool "net.in_flight down" true (M.find_gauge m "net.in_flight" = Some 0.0)

(* With tracing enabled, every send/deliver/drop leaves a typed event. *)
let test_trace_events () =
  let tr = Ssba_sim.Trace.create ~enabled:true () in
  let engine = Engine.create ~trace:tr () in
  let net =
    Net.create ~engine ~n:2 ~delay:(Delay.fixed 0.01) ~rng:(Rng.create 1)
      ~kind_of:(fun s -> s) ()
  in
  Net.set_handler net 1 (fun _ -> ());
  Net.send net ~src:0 ~dst:1 "echo";
  Net.send net ~src:1 ~dst:0 "init";  (* no handler on 0: dropped on arrival *)
  ignore (Engine.run engine);
  check_int "send events" 2 (List.length (Ssba_sim.Trace.filter ~kind:"send" tr));
  check_int "deliver events" 1
    (List.length (Ssba_sim.Trace.filter ~kind:"deliver" tr));
  check_int "drop events" 1 (List.length (Ssba_sim.Trace.filter ~kind:"drop" tr))

(* The zero-allocation contract (DESIGN §6): a kind the trace does not
   record costs nothing on the send/deliver path. 10k sends and their
   deliveries allocate exactly as much under a trace recording every other
   kind as under one recording nothing — and measurably more once send and
   deliver are recorded, so the measurement can see a difference. *)
let test_untraced_kinds_allocate_nothing () =
  let module Tr = Ssba_sim.Trace in
  let words tr =
    let engine = Engine.create ~trace:tr () in
    let net =
      Net.create ~engine ~n:2 ~delay:(Delay.fixed 0.01) ~rng:(Rng.create 1)
        ~kind_of:(fun s -> s) ()
    in
    Net.set_handler net 1 (fun _ -> ());
    let w0 = Gc.minor_words () in
    for _ = 1 to 10_000 do
      Net.send net ~src:0 ~dst:1 "echo"
    done;
    ignore (Engine.run engine);
    Gc.minor_words () -. w0
  in
  let others =
    Tr.create
      ~kinds:(List.filter (fun k -> k <> Tr.Kind.Send && k <> Tr.Kind.Deliver) Tr.Kind.all)
      ()
  in
  let off = words (Tr.create ~enabled:false ()) in
  check_float "no extra minor words" off (words others);
  check_int "nothing recorded" 0 (Tr.count others);
  check_bool "recording send/deliver does allocate" true
    (words (Tr.create ()) > off +. 10_000.0)

let test_duplicate () =
  let engine, net = mk () in
  let got = ref 0 in
  Net.set_handler net 1 (fun _ -> incr got);
  Net.set_dup_prob net 1.0;
  for _ = 1 to 10 do
    Net.send net ~src:0 ~dst:1 "x"
  done;
  ignore (Engine.run engine);
  check_int "every message delivered twice at dup=1" 20 !got;
  check_int "duplicates counted" 10 (Net.messages_duplicated net);
  check_int "conservation: attempts all accounted"
    (Net.messages_sent net + Net.messages_duplicated net)
    (Net.messages_delivered net + Net.messages_dropped net
   + Net.messages_in_flight net)

let test_reorder () =
  let engine, net = mk () in
  (* fixed 0.1 delay; reordering stretches a delivery by up to 0.5 more *)
  let times = ref [] in
  Net.set_handler net 1 (fun _ -> times := Engine.now engine :: !times);
  Net.set_reorder net (Some { Net.prob = 1.0; extra = 0.5 });
  for _ = 1 to 20 do
    Net.send net ~src:0 ~dst:1 "x"
  done;
  ignore (Engine.run engine);
  check_int "all delivered" 20 (List.length !times);
  check_int "all stretched" 20 (Net.messages_reordered net);
  List.iter
    (fun t -> check_bool "within [0.1, 0.6]" true (t >= 0.1 && t <= 0.6 +. 1e-9))
    !times;
  check_bool "some delivery actually stretched" true
    (List.exists (fun t -> t > 0.1 +. 1e-9) !times)

(* Satellite regression: each fault concern draws from its own RNG stream,
   and every send draws from all of them unconditionally — so toggling one
   fault must not shift another concern's samples. *)
let test_rng_streams_independent () =
  let deliveries ~drop ~dup =
    let engine, net = mk ~n:2 ~delay:(Delay.uniform ~lo:0.01 ~hi:0.09) () in
    if drop then Net.set_drop_prob net 0.5;
    if dup then Net.set_dup_prob net 0.5;
    let times = ref [] in
    Net.set_handler net 1 (fun m ->
        times := (m.Msg.payload, Engine.now engine) :: !times);
    for i = 1 to 50 do
      Net.send net ~src:0 ~dst:1 (string_of_int i)
    done;
    ignore (Engine.run engine);
    !times
  in
  let plain = deliveries ~drop:false ~dup:false in
  (* Loss removes deliveries but must not shift the delays of survivors. *)
  let lossy = deliveries ~drop:true ~dup:false in
  check_bool "loss thinned the deliveries" true
    (List.length lossy < List.length plain);
  List.iter
    (fun (p, t) ->
      check_bool
        (Printf.sprintf "survivor %s keeps its delay" p)
        true
        (List.exists (fun (p', t') -> p = p' && Float.abs (t -. t') < 1e-12) plain))
    lossy;
  (* Duplication adds copies but every primary keeps its original delay. *)
  let duped = deliveries ~drop:false ~dup:true in
  List.iter
    (fun (p, t) ->
      check_bool
        (Printf.sprintf "primary %s still arrives on time" p)
        true
        (List.exists (fun (p', t') -> p = p' && Float.abs (t -. t') < 1e-12) duped))
    plain

(* Conservation property: under an arbitrary mix of sends, broadcasts,
   forged injections, mutes, partitions, loss, duplication and reordering,
   and at ANY point of the drain (including mid-flight),
   attempts = sent + duplicated = delivered + dropped + in_flight. *)
let prop_conservation =
  let invariant net =
    Net.messages_sent net + Net.messages_duplicated net
    = Net.messages_delivered net + Net.messages_dropped net
      + Net.messages_in_flight net
  in
  QCheck.Test.make ~name:"sent = delivered + dropped + in_flight" ~count:100
    QCheck.(pair small_int (small_list int))
    (fun (seed, ops) ->
      let n = 4 in
      let engine = Engine.create () in
      let net =
        Net.create ~engine ~n
          ~delay:(Delay.uniform ~lo:0.01 ~hi:0.09)
          ~rng:(Rng.create (1 + abs seed))
          ()
      in
      (* node 3 keeps no handler, so some deliveries become drops *)
      for i = 0 to 2 do
        Net.set_handler net i (fun _ -> ())
      done;
      List.iteri
        (fun i op ->
          let op = abs op in
          match op mod 8 with
          | 0 -> Net.send net ~src:(i mod n) ~dst:(op mod n) "m"
          | 1 ->
              Net.inject_forged net ~claimed_src:(op mod n) ~dst:(i mod n)
                ~delay:0.05 "forged"
          | 2 -> Net.set_muted net (op mod n) (op land 1 = 0)
          | 3 -> Net.set_drop_prob net (if op land 1 = 0 then 0.5 else 0.0)
          | 4 ->
              Net.set_partition net
                (if op land 1 = 0 then
                   Some (fun ~src ~dst -> src = 0 && dst = 1)
                 else None)
          | 5 -> Net.set_dup_prob net (if op land 1 = 0 then 0.5 else 0.0)
          | 6 ->
              Net.set_reorder net
                (if op land 1 = 0 then Some { Net.prob = 0.5; extra = 0.2 }
                 else None)
          | _ -> Net.broadcast net ~src:(i mod n) "b")
        ops;
      let mid = invariant net in
      ignore (Engine.run ~until:0.04 engine);
      let partial = invariant net in
      ignore (Engine.run engine);
      mid && partial && invariant net && Net.messages_in_flight net = 0)

let suite =
  [
    case "delivery timing + authentication" test_delivery_timing;
    case "no handler counts as drop" test_no_handler_counts_as_drop;
    case "broadcast includes self" test_broadcast_includes_self;
    case "uniform delay bounds" test_uniform_delay_within_bounds;
    case "mute (crash)" test_mute;
    case "partition" test_partition;
    case "drop probability" test_drop_prob;
    case "forged injection" test_forged;
    case "sends never forged" test_sends_never_forged;
    case "delay override" test_delay_override;
    case "per-kind statistics" test_kind_stats;
    case "bad destination" test_bad_destination;
    case "metrics registry feed" test_metrics_registry_feed;
    case "trace events" test_trace_events;
    case "untraced kinds allocate nothing" test_untraced_kinds_allocate_nothing;
    case "duplicate injection" test_duplicate;
    case "reorder injection" test_reorder;
    case "per-concern rng streams" test_rng_streams_independent;
    Helpers.qcheck prop_conservation;
  ]
