(* Tests for the primitive-level invariant monitor (IA-*/TPS-* properties
   checked from the protocol kinds of a run's trace). *)

open Helpers
open Ssba_core
module H = Ssba_harness
module Tr = Ssba_sim.Trace

let run ?(n = 7) ?(seed = 41) ?(roles = []) ?(proposals = []) ?(horizon = 1.0) () =
  let params = Params.default n in
  let sc =
    H.Scenario.default ~name:"inv" ~seed ~roles ~proposals ~horizon
      ~record:H.Invariants.kinds params
  in
  H.Runner.run sc

let count_kind (res : H.Runner.result) k =
  List.length
    (List.filter (fun (e : Tr.entry) -> Tr.kind e.Tr.event = k) (Tr.to_list res.H.Runner.trace))

(* [res] with its trace replaced by [entries], in that order: how the
   sensitivity tests below splice forged events into a real run. *)
let with_entries (res : H.Runner.result) entries =
  let tr = Tr.create ~kinds:H.Invariants.kinds () in
  List.iter (fun (e : Tr.entry) -> Tr.record tr ~time:e.Tr.time ~node:e.Tr.node e.Tr.event) entries;
  { res with H.Runner.trace = tr }

let test_observations_recorded () =
  let res = run ~proposals:[ { H.Scenario.g = 0; v = "m"; at = 0.05 } ] () in
  check_int "one I-accept per node" 7 (count_kind res Tr.Kind.I_accept);
  check_int "one decision broadcast per node" 7 (count_kind res Tr.Kind.Broadcast);
  check_int "only the monitor's kinds" (Tr.count res.H.Runner.trace)
    (List.fold_left (fun acc k -> acc + count_kind res k) 0 H.Invariants.kinds)

let test_observations_off_by_default () =
  let params = Params.default 7 in
  let sc =
    H.Scenario.default ~name:"inv" ~seed:41
      ~proposals:[ { H.Scenario.g = 0; v = "m"; at = 0.05 } ]
      ~horizon:1.0 params
  in
  let res = H.Runner.run sc in
  check_int "no trace entries unless requested" 0 (Tr.count res.H.Runner.trace)

let test_ia1_correct_general () =
  let res = run ~proposals:[ { H.Scenario.g = 0; v = "m"; at = 0.05 } ] () in
  match H.Invariants.check_ia_1 res ~g:0 ~t0:0.05 with
  | [] -> ()
  | vs -> Alcotest.failf "IA-1 violations: %s" (String.concat "; " vs)

let test_ia_tps_clean_run () =
  let res = run ~proposals:[ { H.Scenario.g = 0; v = "m"; at = 0.05 } ] () in
  match H.Invariants.check res with
  | [] -> ()
  | vs -> Alcotest.failf "violations: %s" (String.concat "; " vs)

let test_invariants_under_attacks () =
  let params = Params.default 7 in
  let d = params.Params.d in
  let module S = Ssba_adversary.Strategies in
  List.iter
    (fun (name, roles, proposals) ->
      let res = run ~seed:42 ~roles ~proposals ~horizon:2.0 () in
      match H.Invariants.check res with
      | [] -> ()
      | vs -> Alcotest.failf "%s: %s" name (String.concat "; " vs))
    [
      ( "two-faced",
        [ (0, H.Scenario.Byzantine (S.two_faced_general ~v1:"a" ~v2:"b" ~at:0.05)) ],
        [] );
      ( "partial",
        [
          ( 0,
            H.Scenario.Byzantine
              (S.partial_general ~v:"a" ~at:0.05 ~targets:[ 1; 2; 3; 4; 5 ]) );
        ],
        [] );
      ( "equivocators",
        [
          (5, H.Scenario.Byzantine (S.equivocator ~v1:"a" ~v2:"b"));
          (6, H.Scenario.Byzantine (S.mimic ~delay:(2.0 *. d)));
        ],
        [ { H.Scenario.g = 0; v = "m"; at = 0.05 } ] );
    ]

let test_invariants_recurrent () =
  let params = Params.default 7 in
  let res =
    run
      ~proposals:
        [
          { H.Scenario.g = 0; v = "a"; at = 0.05 };
          { H.Scenario.g = 0; v = "b"; at = 0.05 +. (2.0 *. params.Params.delta_0) };
          { H.Scenario.g = 1; v = "c"; at = 0.06 };
        ]
      ~horizon:2.0 ()
  in
  match H.Invariants.check res with
  | [] -> ()
  | vs -> Alcotest.failf "violations: %s" (String.concat "; " vs)

let test_monitor_detects_forged_divergence () =
  (* splice a fake I-accept with a conflicting value into the trace and
     confirm IA-4 trips — guards against the monitor silently passing
     everything *)
  let res = run ~proposals:[ { H.Scenario.g = 0; v = "m"; at = 0.05 } ] () in
  let entries = Tr.to_list res.H.Runner.trace in
  let sample =
    List.find
      (fun (e : Tr.entry) -> match e.Tr.event with Tr.I_accept _ -> true | _ -> false)
      entries
  in
  let forged =
    match sample.Tr.event with
    | Tr.I_accept ia ->
        {
          sample with
          Tr.node = (sample.Tr.node + 1) mod 7;
          event = Tr.I_accept { ia with v = "other" };
        }
    | _ -> assert false
  in
  let res' = with_entries res (forged :: entries) in
  check_bool "forged divergent I-accept detected" true
    (H.Invariants.check_ia_3_4 res' <> [])

let test_monitor_detects_unforgeability_break () =
  (* a fabricated mb-accept claiming a correct node that never broadcast *)
  let res = run ~proposals:[ { H.Scenario.g = 0; v = "m"; at = 0.05 } ] () in
  let fake =
    {
      Tr.time = 0.06;
      node = 2;
      event = Tr.Mb_accept { g = 0; p = 3; v = "never-sent"; k = 1; tau = 0.1; tau_g = 0.09 };
    }
  in
  let res' = with_entries res (fake :: Tr.to_list res.H.Runner.trace) in
  check_bool "TPS-2 forgery detected" true
    (List.exists
       (fun s -> String.length s >= 5 && String.sub s 0 5 = "TPS-2")
       (H.Invariants.check res'))

let trips prefix vs =
  List.exists
    (fun s ->
      String.length s >= String.length prefix
      && String.sub s 0 (String.length prefix) = prefix)
    vs

(* Perfect clocks so forged local anchors are also the real-time anchors the
   monitors cluster on. *)
let run_perfect () =
  let params = Params.default 7 in
  let sc =
    H.Scenario.default ~name:"inv" ~seed:41 ~clocks:H.Scenario.Perfect
      ~proposals:[ { H.Scenario.g = 0; v = "m"; at = 0.05 } ]
      ~horizon:1.0 ~record:H.Invariants.kinds params
  in
  (params, H.Runner.run sc)

let test_monitor_session_keying_sensitivity () =
  (* The session-keyed IA monitor must judge each (G, tau_g) session
     independently: conflated sessions must trip, and a weakened monitor
     that chains nearby anchors transitively or excuses one session with
     another's accepts would pass exactly these shapes. *)
  let params, res = run_perfect () in
  let d = params.Params.d in
  let session ~anchor ~v =
    List.map
      (fun node ->
        {
          Tr.time = anchor +. d;
          node;
          event = Tr.I_accept { g = 5; v; tau_g = anchor; tau = anchor +. d };
        })
      (List.init 7 Fun.id)
  in
  let with_obs obs = with_entries res (Tr.to_list res.H.Runner.trace @ obs) in
  (* cross-session conflation: anchors 3d apart are ONE session; two values
     inside it are a uniqueness violation, not two excusable executions *)
  let conflated =
    with_obs (session ~anchor:0.3 ~v:"a" @ session ~anchor:(0.3 +. (3.0 *. d)) ~v:"b")
  in
  check_bool "same-session divergence trips IA-4" true
    (trips "IA-4" (H.Invariants.check_ia_3_4 conflated));
  (* forbidden zone: same value re-anchored 10d apart is two sessions, and
     exactly what IA-4b outlaws *)
  let forbidden =
    with_obs (session ~anchor:0.3 ~v:"a" @ session ~anchor:(0.3 +. (10.0 *. d)) ~v:"a")
  in
  check_bool "forbidden-zone re-accept trips IA-4b" true
    (trips "IA-4b" (H.Invariants.check_ia_3_4 forbidden));
  (* legal distinct sessions: past the separation window nothing may trip —
     a monitor that conflates them would see a spurious violation here *)
  let legal_gap = (2.0 *. params.Params.delta_rmv /. d) +. 10.0 in
  let legal =
    with_obs
      (session ~anchor:0.3 ~v:"a" @ session ~anchor:(0.3 +. (legal_gap *. d)) ~v:"a")
  in
  (match H.Invariants.check_ia_3_4 legal with
  | [] -> ()
  | vs -> Alcotest.failf "legal distinct sessions flagged: %s" (String.concat "; " vs))

let test_checks_relay_judged_per_session () =
  (* Same sensitivity at the returns level: a node's decision in a *later*
     session of the same General must not excuse its absence from an earlier
     one (the General-keyed monitor's blind spot that hid the IA-4 gap). *)
  let params, res = run_perfect () in
  let d = params.Params.d in
  let ret ~node ~anchor ~v =
    {
      Types.node;
      g = 5;
      outcome = Types.Decided v;
      tau_g = anchor;
      tau_ret = anchor +. (20.0 *. d);
      rt_ret = anchor +. (20.0 *. d);
    }
  in
  let session ~anchor ~v ~nodes = List.map (fun n -> ret ~node:n ~anchor ~v) nodes in
  let all = List.init 7 Fun.id in
  let with_returns rs =
    { res with H.Runner.returns = res.H.Runner.returns @ rs }
  in
  (* complete sessions: nothing to flag *)
  let clean =
    with_returns
      (session ~anchor:0.3 ~v:"a" ~nodes:all
      @ session ~anchor:(0.3 +. (100.0 *. d)) ~v:"b" ~nodes:all)
  in
  (match H.Checks.pairwise_agreement clean with
  | [] -> ()
  | vs -> Alcotest.failf "complete sessions flagged: %s" (String.concat "; " vs));
  (* node 6 absent from session 1, present in session 2: must trip *)
  let split =
    with_returns
      (session ~anchor:0.3 ~v:"a" ~nodes:[ 0; 1; 2; 3; 4; 5 ]
      @ session ~anchor:(0.3 +. (100.0 *. d)) ~v:"b" ~nodes:all)
  in
  check_bool "cross-session excusal rejected" true
    (H.Checks.pairwise_agreement split <> [])

(* qcheck: invariants hold across random clean and adversarial scenarios. *)
let prop_invariants_random =
  QCheck.Test.make ~name:"IA/TPS invariants across random scenarios" ~count:25
    QCheck.(pair (int_range 0 1000) (int_range 0 3))
    (fun (seed, cast) ->
      let params = Params.default 7 in
      let d = params.Params.d in
      let module S = Ssba_adversary.Strategies in
      let roles =
        match cast with
        | 0 -> []
        | 1 -> [ (6, H.Scenario.Byzantine (S.spam ~period:(5.0 *. d) ~values:[ "a" ])) ]
        | 2 -> [ (6, H.Scenario.Byzantine (S.equivocator ~v1:"a" ~v2:"b")) ]
        | _ ->
            [ (0, H.Scenario.Byzantine (S.two_faced_general ~v1:"a" ~v2:"b" ~at:0.05)) ]
      in
      let proposals =
        if cast = 3 then [] else [ { H.Scenario.g = 0; v = "m"; at = 0.05 } ]
      in
      let res = run ~seed ~roles ~proposals ~horizon:1.5 () in
      H.Invariants.check res = [])

let suite =
  [
    case "observations recorded" test_observations_recorded;
    case "observations off by default" test_observations_off_by_default;
    case "IA-1 under a correct General" test_ia1_correct_general;
    case "IA/TPS on a clean run" test_ia_tps_clean_run;
    case "IA/TPS under attacks" test_invariants_under_attacks;
    case "IA/TPS under recurrent agreements" test_invariants_recurrent;
    case "monitor detects divergence" test_monitor_detects_forged_divergence;
    case "monitor detects TPS-2 forgery" test_monitor_detects_unforgeability_break;
    case "session keying sensitivity" test_monitor_session_keying_sensitivity;
    case "relay judged per session" test_checks_relay_judged_per_session;
    Helpers.qcheck prop_invariants_random;
  ]
