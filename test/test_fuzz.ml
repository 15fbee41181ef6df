(* Fuzzer tests: generator validity properties (over the QCheck arbitraries
   in Helpers.Q), JSON replay round-trips, result-digest reproduction, the
   bounded smoke campaign that wires fuzzing into tier-1, and the
   end-to-end check that a deliberately weakened deadline oracle is caught
   and shrunk to a minimal scenario. *)

open Helpers
module F = Ssba_fuzz
module S = Ssba_harness.Scenario
module C = Ssba_adversary.Catalog

(* --- generator validity properties --- *)

let prop_specs_validate =
  QCheck.Test.make ~name:"generated specs validate" ~count:60
    (Q.arb_spec ())
    (fun spec ->
      match F.Spec.validate spec with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_reportf "invalid spec: %s" e)

let prop_cast_respects_resilience =
  QCheck.Test.make ~name:"casts respect f < n/3" ~count:60
    (Q.arb_spec ())
    (fun spec ->
      3 * spec.F.Spec.f < spec.F.Spec.n
      && List.length spec.F.Spec.cast <= spec.F.Spec.f)

let prop_events_sorted_in_horizon =
  QCheck.Test.make ~name:"events sorted and in-horizon" ~count:60
    (Q.arb_spec ())
    (fun spec ->
      let ts = List.map F.Spec.event_time spec.F.Spec.events in
      List.sort compare ts = ts
      && List.for_all (fun t -> t >= 0.0 && t <= spec.F.Spec.horizon) ts)

let prop_json_roundtrip =
  QCheck.Test.make ~name:"spec JSON round-trip is identity" ~count:60
    (Q.arb_spec ())
    (fun spec ->
      let j = Ssba_sim.Json.to_string (F.Spec.to_json spec) in
      match F.Spec.of_json (Ssba_sim.Json.of_string j) with
      | Ok spec' -> spec' = spec
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

let prop_event_roundtrip =
  QCheck.Test.make ~name:"event JSON round-trip is identity" ~count:100
    (Q.arb_event ~n:7 ~horizon:2.0)
    (fun e ->
      let spec =
        {
          F.Spec.name = "event";
          seed = 0;
          n = 7;
          f = 2;
          delay = F.Spec.Fixed 0.001;
          clocks = S.Perfect;
          cast = [];
          proposals = [];
          events = [ e ];
          transport = None;
          horizon = 2.0;
          session_capacity = None;
          blackout = true;
          r_slack = Ssba_core.Params.default_r_slack;
          service = None;
        }
      in
      match F.Spec.of_json (F.Spec.to_json spec) with
      | Ok spec' -> spec'.F.Spec.events = [ e ]
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

let prop_strategy_simplifies_to_silent =
  QCheck.Test.make ~name:"strategy shrinking terminates at silent" ~count:100
    (Q.arb_strategy ~n:7)
    (fun c ->
      let rec descend c steps =
        if steps > 10 then false
        else
          match C.simplify c with [] -> c = C.Silent | c' :: _ -> descend c' (steps + 1)
      in
      descend c 0)

(* --- catalog/behaviour consistency --- *)

let test_catalog_names () =
  let rng = Ssba_sim.Rng.create 7 in
  for _ = 1 to 50 do
    let c =
      C.generate rng ~values:[ "a"; "b" ] ~at_lo:0.0 ~at_hi:1.0 ~n:7
    in
    check_str "catalog name matches instantiated behaviour" (C.name c)
      (Ssba_adversary.Behavior.name (C.to_behavior ~d:0.0011 c))
  done

(* --- replay: files and digests --- *)

let test_replay_file_roundtrip () =
  let spec =
    F.Campaign.spec_of_iteration ~seed:42 ~gen:F.Gen.default_config 3
  in
  let path = Filename.temp_file "ssba-fuzz" ".json" in
  F.Spec.save path spec;
  (match F.Spec.load path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok spec' ->
      check_bool "spec -> file -> spec is identity" true (spec' = spec);
      let _, r1 = F.Oracle.run spec in
      let _, r2 = F.Oracle.run spec' in
      check_str "replayed run reproduces the result digest" r1.F.Oracle.digest
        r2.F.Oracle.digest);
  Sys.remove path

let test_run_digest_deterministic () =
  let spec =
    F.Campaign.spec_of_iteration ~seed:11 ~gen:F.Gen.default_config 0
  in
  let r1 = Ssba_harness.Runner.run (F.Spec.to_scenario spec) in
  let r2 = Ssba_harness.Runner.run (F.Spec.to_scenario spec) in
  check_str "two runs of one spec share a digest"
    (Ssba_harness.Checks.result_digest r1)
    (Ssba_harness.Checks.result_digest r2)

(* --- the bounded smoke campaign (tier-1's fuzzing exposure) --- *)

let smoke_config =
  {
    F.Campaign.default_config with
    F.Campaign.seed = 42;
    runs = 50;
    shrink = false;
  }

let test_smoke_campaign () =
  let s = F.Campaign.run smoke_config in
  check_int "all 50 scenarios executed" 50 s.F.Campaign.executed;
  List.iter
    (fun (fc : F.Campaign.failure_case) ->
      List.iter
        (fun f ->
          Fmt.epr "iteration %d: %a@." fc.F.Campaign.index F.Oracle.pp_failure f)
        fc.F.Campaign.report.F.Oracle.failures)
    s.F.Campaign.failed;
  check_int "no oracle failures over the smoke corpus" 0
    (List.length s.F.Campaign.failed);
  (* Determinism regression pin: the corpus digest fingerprints every run's
     observable results bit for bit. An engine or protocol change that
     alters event order, RNG draws or outcomes moves it; a pure performance
     change must not. Re-pinned for the widen default gate and the
     edge-sampling delay model; the pre-fix corpus is still pinned below in
     [test_legacy_corpora_unchanged]. *)
  check_str "corpus digest pinned" "82e9bf5f0d962392d14ee51bb606a029"
    s.F.Campaign.corpus_digest

(* The churn tier: 50 continuous-churn scenarios. Beyond "no failures", the
   per-interval oracle must actually have *measured* stabilization on these —
   a corpus whose recovery windows all went unprobed would pass vacuously. *)
let test_churn_campaign () =
  let s =
    F.Campaign.run { smoke_config with F.Campaign.gen = F.Gen.chaos_config }
  in
  check_int "all 50 churn scenarios executed" 50 s.F.Campaign.executed;
  List.iter
    (fun (fc : F.Campaign.failure_case) ->
      List.iter
        (fun f ->
          Fmt.epr "iteration %d: %a@." fc.F.Campaign.index F.Oracle.pp_failure f)
        fc.F.Campaign.report.F.Oracle.failures)
    s.F.Campaign.failed;
  check_int "no oracle failures over the churn corpus" 0
    (List.length s.F.Campaign.failed);
  check_str "churn corpus digest pinned" "d35f52319e01b619745bb3534b627482"
    s.F.Campaign.corpus_digest;
  (* re-judge a sample and check each disruption's recovery was measured and
     within the paper's bound *)
  List.iter
    (fun i ->
      let spec =
        F.Campaign.spec_of_iteration ~seed:42 ~gen:F.Gen.chaos_config i
      in
      let stb = (F.Spec.params spec).Ssba_core.Params.delta_stb in
      let res, report = F.Oracle.run spec in
      check_bool "sampled churn spec passes" true (not (F.Oracle.failed report));
      let measured =
        List.filter_map
          (fun (r : Ssba_harness.Checks.episode_report) ->
            r.Ssba_harness.Checks.recovery_time)
          (Ssba_harness.Checks.recovery_report res)
      in
      check_bool "at least one recovery measured" true (measured <> []);
      List.iter
        (fun rt ->
          check_bool "measured recovery within Delta_stb" true (rt <= stb))
        measured)
    [ 0; 1; 2; 3; 4 ]

(* A genuine find from the churn tier, now pinned in its *fixed* state:
   iteration 133 of the seed-2027 churn batch has a flip-flop General whose
   forged initiations land < 1d apart with different values. Before the
   session-keyed core, old-session msgd-broadcast stragglers survived the
   reset, the next session's anchor replayed them, and one correct node
   I-accepted "gamma" while the rest I-accepted "beta" — an [IA-4]
   Uniqueness violation. The anchor-scoped purge in [Msgd_broadcast] plus
   the re-initiation blackout in [Separation] close the gap; the chaos
   events stay stripped so the run is one coherent interval and nothing is
   excused by incoherence. If this test regresses, the IA-4 fix broke. *)
let test_known_ia4_gap_fixed () =
  let spec =
    F.Campaign.spec_of_iteration ~seed:2027 ~gen:F.Gen.chaos_config 133
  in
  let spec = { spec with F.Spec.events = [] } in
  let _, report = F.Oracle.run spec in
  List.iter (fun f -> Fmt.epr "%a@." F.Oracle.pp_failure f) report.F.Oracle.failures;
  check_bool "the 2027/133 repro passes every oracle" false
    (F.Oracle.failed report)

(* The block-R knife-edge, now pinned in its *fixed* state: iteration 173 of
   the seed-7404 batch (chaos generator capped at 2 Byzantine casts,
   edge-delay sampling off so the pre-fix generator stream reproduces the
   exact scenario, events stripped so the run is one coherent interval). The
   flip-flop General's interference leaves G=0's late proposal exactly on
   the fast-path acceptance boundary: under the legacy 4d gate node 0
   decided in round 0 while nodes 2 and 3 missed the window by a fraction of
   d and aborted — a genuine mixed decide/abort episode. The widen default
   accepts up to 5d, covered by [IA-1D]'s slack, so the same timings now
   land every correct node on the fast path. Both faces are pinned: the
   default gate passes every oracle (including Timeliness-1a — the old skew
   metric once read abort return times as decision timestamps here), and the
   same spec re-run under `--r-slack legacy` still reproduces the stranded
   abort, so the sentinel survives as the regression witness for the fix. *)
let test_knife_edge_fixed () =
  let spec =
    F.Campaign.spec_of_iteration ~seed:7404
      ~gen:
        { F.Gen.chaos_config with F.Gen.max_cast = 2; F.Gen.edge_delays = false }
      173
  in
  let spec = { spec with F.Spec.events = [] } in
  check_bool "the rebuilt spec carries the default gate" true
    (spec.F.Spec.r_slack = Ssba_core.Params.default_r_slack);
  let res, report = F.Oracle.run spec in
  List.iter
    (fun f -> Fmt.epr "%a@." F.Oracle.pp_failure f)
    report.F.Oracle.failures;
  check_bool "the 7404/173 repro passes every oracle under the default gate"
    false
    (F.Oracle.failed report);
  let knife =
    List.filter
      (fun (r : Ssba_core.Types.return_info) ->
        r.Ssba_core.Types.g = 0 && r.Ssba_core.Types.tau_g > 1.0)
      res.Ssba_harness.Runner.returns
  in
  let outcome_of id =
    List.find_map
      (fun (r : Ssba_core.Types.return_info) ->
        if r.Ssba_core.Types.node = id then Some r.Ssba_core.Types.outcome
        else None)
      knife
  in
  List.iter
    (fun id ->
      check_bool
        (Printf.sprintf "node %d decided the fast-path value" id)
        true
        (outcome_of id = Some (Ssba_core.Types.Decided "p1-crash-wave-b")))
    [ 0; 2; 3 ];
  (* the legacy sentinel: the same timings under the 4d gate still strand
     nodes 2 and 3 — if this half shifts, the knife scenario itself moved *)
  let legacy = { spec with F.Spec.r_slack = Ssba_core.Params.Legacy } in
  let lres, lreport = F.Oracle.run legacy in
  let by_oracle name =
    List.filter (fun f -> f.F.Oracle.oracle = name) lreport.F.Oracle.failures
  in
  check_int "legacy gate: two agreement failures (nodes 2 and 3)" 2
    (List.length (by_oracle "agreement"));
  check_int "legacy gate: one validity failure" 1
    (List.length (by_oracle "validity"));
  check_int "legacy gate: aborts carry no decision timestamp" 0
    (List.length (by_oracle "timeliness-1a"));
  check_int "legacy gate: nothing else fired" 3
    (List.length lreport.F.Oracle.failures);
  let laborted id =
    List.exists
      (fun (r : Ssba_core.Types.return_info) ->
        r.Ssba_core.Types.node = id
        && r.Ssba_core.Types.g = 0
        && r.Ssba_core.Types.tau_g > 1.0
        && r.Ssba_core.Types.outcome = Ssba_core.Types.Aborted)
      lres.Ssba_harness.Runner.returns
  in
  check_bool "legacy gate: node 2 aborted" true (laborted 2);
  check_bool "legacy gate: node 3 aborted" true (laborted 3)

(* The pre-fix corpora are frozen: the legacy gate plus the pre-edge
   generator streams must keep reproducing the exact digests PR 7 pinned.
   This is what makes `--r-slack legacy --edge-delays off` a faithful
   time machine (and what proves the new default's digest movement comes
   from the gate and the sampler, not an accidental stream change). *)
let test_legacy_corpora_unchanged () =
  let legacy gen =
    { gen with F.Gen.r_slack = Ssba_core.Params.Legacy; F.Gen.edge_delays = false }
  in
  let digest gen =
    (F.Campaign.run { smoke_config with F.Campaign.gen = legacy gen })
      .F.Campaign.corpus_digest
  in
  check_str "legacy clean corpus digest unchanged"
    "325df1195a3428bdaf97dbd83eadcb7e"
    (digest F.Gen.default_config);
  check_str "legacy churn corpus digest unchanged"
    "673e388e3b70db55e12440417f9d56d8"
    (digest F.Gen.chaos_config)

(* Weakened-gate sensitivity: a churn campaign run under `--r-slack legacy`
   with the boundary-sampling delay model (the edge atoms plus the gate-edge
   adversary, both on by default) must rediscover the stranded-abort class
   the widen default closes. This keeps the fix honest from the fuzz side
   the same way the mc knife config does from the exhaustive side: the
   oracles still have teeth against the legacy gate, and the edge sampler
   demonstrably reaches the boundary. The decisive knob is then isolated by
   flipping ONLY r_slack on the failing spec — it must pass. *)
let test_legacy_gate_caught_by_edge_sampling () =
  let s =
    F.Campaign.run
      {
        smoke_config with
        F.Campaign.seed = 4;
        gen =
          { F.Gen.chaos_config with F.Gen.r_slack = Ssba_core.Params.Legacy };
      }
  in
  match s.F.Campaign.failed with
  | [] -> Alcotest.fail "legacy gate survived the boundary-sampling campaign"
  | fc :: _ ->
      check_bool "the catch is a stranded-abort agreement violation" true
        (List.exists
           (fun (f : F.Oracle.failure) -> f.F.Oracle.oracle = "agreement")
           fc.F.Campaign.report.F.Oracle.failures);
      let fixed =
        { fc.F.Campaign.spec with F.Spec.r_slack = Ssba_core.Params.default_r_slack }
      in
      let _, r = F.Oracle.run fixed in
      check_bool "the same spec under the default gate passes every oracle"
        false (F.Oracle.failed r)

(* The shrinker offers (exactly) one gate reduction: a non-default r_slack
   proposes the default, the default proposes nothing. On a gate-caused
   failure the candidate is tried and rejected (the failure vanishes), so
   minimized gate repros keep their legacy marker. *)
let test_shrink_offers_r_slack_reduction () =
  let spec =
    F.Campaign.spec_of_iteration ~seed:42 ~gen:F.Gen.default_config 0
  in
  let legacy = { spec with F.Spec.r_slack = Ssba_core.Params.Legacy } in
  check_bool "legacy spec offers a reduction to the default gate" true
    (List.exists
       (fun (c : F.Spec.t) ->
         c.F.Spec.r_slack = Ssba_core.Params.default_r_slack
         && { c with F.Spec.r_slack = legacy.F.Spec.r_slack } = legacy)
       (F.Shrink.candidates legacy));
  check_bool "default spec offers no r_slack candidate" true
    (List.for_all
       (fun (c : F.Spec.t) ->
         c.F.Spec.r_slack = Ssba_core.Params.default_r_slack)
       (F.Shrink.candidates spec))

(* The overload tier: 50 recurrent-service scenarios under open-loop arrival
   pressure over a lossy transport. Beyond "no failures", the corpus must
   actually have exercised the admission machinery — a tier whose scenarios
   all idle below the watermark would pass the shed/drain oracles
   vacuously. *)
let test_overload_campaign () =
  let s =
    F.Campaign.run { smoke_config with F.Campaign.gen = F.Gen.overload_config }
  in
  check_int "all 50 overload scenarios executed" 50 s.F.Campaign.executed;
  List.iter
    (fun (fc : F.Campaign.failure_case) ->
      List.iter
        (fun f ->
          Fmt.epr "iteration %d: %a@." fc.F.Campaign.index F.Oracle.pp_failure f)
        fc.F.Campaign.report.F.Oracle.failures)
    s.F.Campaign.failed;
  check_int "no oracle failures over the overload corpus" 0
    (List.length s.F.Campaign.failed);
  check_str "overload corpus digest pinned" "053d3772010522e3c6d76414574f9698"
    s.F.Campaign.corpus_digest;
  (* re-judge a sample: every spec admits traffic, and across the sample the
     controller demonstrably shed under pressure at least once *)
  let shed_total = ref 0 in
  List.iter
    (fun i ->
      let spec =
        F.Campaign.spec_of_iteration ~seed:42 ~gen:F.Gen.overload_config i
      in
      let res, report = F.Oracle.run spec in
      check_bool "sampled overload spec passes" true (not (F.Oracle.failed report));
      let counter name =
        Option.value ~default:0
          (Ssba_sim.Metrics.find_counter res.Ssba_harness.Runner.metrics name)
      in
      check_bool "sampled overload spec admitted sessions" true
        (counter "service.admitted" > 0);
      shed_total := !shed_total + counter "service.shed")
    [ 0; 1; 2; 3; 4 ];
  check_bool "the sample exercised load shedding" true (!shed_total > 0)

(* The shrinker's service reductions, pinned in both directions: a service
   spec offers dropping the workload outright and flattening bursty arrivals
   to Poisson; a service-free spec offers no service candidate at all. *)
let test_shrink_offers_service_reductions () =
  let module W = Ssba_service.Workload in
  let svc_spec =
    (* overload iterations are all service specs by construction *)
    F.Campaign.spec_of_iteration ~seed:42 ~gen:F.Gen.overload_config 5
  in
  (match svc_spec.F.Spec.service with
  | None -> Alcotest.fail "overload iteration 5 lost its workload"
  | Some w ->
      check_bool "service spec offers the drop-service reduction" true
        (List.exists
           (fun (c : F.Spec.t) -> c.F.Spec.service = None)
           (F.Shrink.candidates svc_spec));
      (match w.W.arrivals with
      | W.Bursty _ ->
          check_bool "bursty workload offers the flatten-to-Poisson reduction"
            true
            (List.exists
               (fun (c : F.Spec.t) ->
                 match c.F.Spec.service with
                 | Some w' -> (
                     match w'.W.arrivals with W.Poisson _ -> true | _ -> false)
                 | None -> false)
               (F.Shrink.candidates svc_spec))
      | W.Poisson _ -> ());
      (* a service spec must not offer the bare transport strip: workload
         times are drawn at the transport-inflated d, and the candidate's
         per-d bookkeeping under the old horizon explodes *)
      check_bool "service spec keeps its transport" true
        (List.for_all
           (fun (c : F.Spec.t) ->
             c.F.Spec.service = None || c.F.Spec.transport <> None)
           (F.Shrink.candidates svc_spec)));
  let plain =
    F.Campaign.spec_of_iteration ~seed:42 ~gen:F.Gen.default_config 0
  in
  check_bool "service-free spec offers no service candidate" true
    (List.for_all
       (fun (c : F.Spec.t) -> c.F.Spec.service = None)
       (F.Shrink.candidates plain))

(* Drain-monitor sensitivity: the no-drain oracle must actually be able to
   fire. Starve the watermarks (degrade on the second concurrent session,
   recover only at zero), run once to observe a real degrade-entry edge,
   then truncate a second run one [d] past that edge: exits need a >= 4d
   session-GC drain, so the episode is provably still open at the new
   horizon and the oracle must flag it — on both the trace walk and the
   driver's own episode bookkeeping. *)
let test_service_drain_sensitivity () =
  let module W = Ssba_service.Workload in
  let module Tr = Ssba_sim.Trace in
  let spec =
    F.Campaign.spec_of_iteration ~seed:42 ~gen:F.Gen.overload_config 0
  in
  match spec.F.Spec.service with
  | None -> Alcotest.fail "overload iteration 0 lost its workload"
  | Some w ->
      let starve w = { w with W.high_watermark = 0.02; low_watermark = 0.01 } in
      let starved0 = { spec with F.Spec.service = Some (starve w) } in
      let res0, _ = F.Oracle.run starved0 in
      let t_edge =
        List.fold_left
          (fun acc (e : Tr.entry) ->
            match e.Tr.event with
            | Tr.Service_mode { degraded = true; _ } -> Float.max acc e.Tr.time
            | _ -> acc)
          0.0
          (Tr.to_list res0.Ssba_harness.Runner.trace)
      in
      check_bool "starved watermarks do trigger degraded mode" true
        (t_edge > 0.0);
      let cut = t_edge +. (F.Spec.params spec).Ssba_core.Params.d in
      let starved =
        {
          starved0 with
          F.Spec.horizon = cut;
          service = Some { (starve w) with W.stop_at = Float.min w.W.stop_at cut };
        }
      in
      (match F.Spec.validate starved with
      | Ok () -> ()
      | Error e -> Alcotest.failf "starved spec invalid: %s" e);
      let _, report = F.Oracle.run starved in
      check_bool "starved service spec fails" true (F.Oracle.failed report);
      check_bool "and the drain oracle is what fires" true
        (List.exists
           (fun (f : F.Oracle.failure) ->
             String.equal f.F.Oracle.oracle "service-drain")
           report.F.Oracle.failures)

(* Oracle.run records only what it judges. A service spec's trace holds the
   four service kinds and no per-message or protocol entries; a calm
   service-free spec's holds exactly the invariant monitor's kinds. *)
let test_oracle_retains_judged_kinds () =
  let module Tr = Ssba_sim.Trace in
  let retained spec =
    let res, _ = F.Oracle.run spec in
    Tr.to_list res.Ssba_harness.Runner.trace
  in
  let kinds entries = List.sort_uniq compare (List.map Tr.entry_kind entries) in
  let svc =
    retained (F.Campaign.spec_of_iteration ~seed:42 ~gen:F.Gen.overload_config 0)
  in
  check_bool "the service spec retains entries" true (svc <> []);
  List.iter
    (fun k ->
      check_bool (k ^ " is a service kind") true
        (List.mem k [ "service-mode"; "service-queue"; "service-shed"; "session-evict" ]))
    (kinds svc);
  List.iter
    (fun k ->
      check_int (k ^ " entries") 0
        (List.length (List.filter (fun e -> Tr.entry_kind e = k) svc)))
    [ "send"; "deliver"; "retransmit"; "mb-accept"; "mb-broadcaster" ];
  let rec calm i =
    let spec = F.Campaign.spec_of_iteration ~seed:42 ~gen:F.Gen.default_config i in
    if spec.F.Spec.events = [] && spec.F.Spec.service = None then spec else calm (i + 1)
  in
  check_bool "a calm spec retains exactly the monitor's kinds" true
    (kinds (retained (calm 0))
    = List.sort compare (List.map Tr.Kind.name Ssba_harness.Invariants.kinds))

let test_campaign_deterministic () =
  let s1 = F.Campaign.run { smoke_config with F.Campaign.runs = 15 } in
  let s2 = F.Campaign.run { smoke_config with F.Campaign.runs = 15 } in
  check_str "identical campaigns share a corpus digest"
    s1.F.Campaign.corpus_digest s2.F.Campaign.corpus_digest

(* --- the fuzzer catches and minimizes a real violation --- *)

(* Weaken the Timeliness-1a deadline to 2% of the paper's 3d bound: every
   multi-node decision now "violates" it, which proves the
   generate -> judge -> shrink pipeline end to end. The shrunk scenario must
   be small: the acceptance bar is <= 6 nodes and <= 3 events. *)
let test_injected_violation_caught_and_shrunk () =
  let config =
    {
      F.Campaign.default_config with
      F.Campaign.seed = 4242;
      runs = 25;
      oracle =
        { F.Oracle.default_config with F.Oracle.skew_deadline_scale = 0.02 };
      shrink = true;
    }
  in
  let s = F.Campaign.run config in
  match s.F.Campaign.failed with
  | [] -> Alcotest.fail "weakened deadline oracle caught nothing"
  | fc :: _ -> (
      check_bool "failure is the injected deadline" true
        (List.exists
           (fun (f : F.Oracle.failure) -> f.F.Oracle.oracle = "timeliness-1a")
           fc.F.Campaign.report.F.Oracle.failures);
      (* the failing spec replays from its file byte-for-byte *)
      let path = Filename.temp_file "ssba-fuzz-fail" ".json" in
      F.Spec.save path fc.F.Campaign.spec;
      (match F.Spec.load path with
      | Error e -> Alcotest.failf "reload failed: %s" e
      | Ok spec' ->
          let _, r = F.Oracle.run ~config:config.F.Campaign.oracle spec' in
          check_str "saved failing scenario reproduces its digest"
            fc.F.Campaign.report.F.Oracle.digest r.F.Oracle.digest;
          check_bool "saved failing scenario still fails" true (F.Oracle.failed r));
      Sys.remove path;
      match fc.F.Campaign.shrunk with
      | None -> Alcotest.fail "no shrink result"
      | Some (spec, report, stats) ->
          check_bool "shrunk scenario still fails" true (F.Oracle.failed report);
          check_bool
            (Printf.sprintf "shrunk to <= 6 nodes (got %d)" spec.F.Spec.n)
            true (spec.F.Spec.n <= 6);
          check_bool
            (Printf.sprintf "shrunk to <= 3 events (got %d)"
               (List.length spec.F.Spec.events))
            true
            (List.length spec.F.Spec.events <= 3);
          check_bool "shrinker did some work" true (stats.F.Shrink.attempts > 0))

let suite =
  [
    qcheck prop_specs_validate;
    qcheck prop_cast_respects_resilience;
    qcheck prop_events_sorted_in_horizon;
    qcheck prop_json_roundtrip;
    qcheck prop_event_roundtrip;
    qcheck prop_strategy_simplifies_to_silent;
    case "catalog names match behaviours" test_catalog_names;
    case "replay file round-trips and reproduces the digest" test_replay_file_roundtrip;
    case "run digest is deterministic" test_run_digest_deterministic;
    slow_case "smoke campaign: 50 scenarios, seed 42, no failures" test_smoke_campaign;
    slow_case "churn campaign: 50 chaos scenarios, recovery measured and bounded"
      test_churn_campaign;
    case "campaign corpus digest is deterministic" test_campaign_deterministic;
    case "IA-4 gap fixed: the 2027/133 repro passes" test_known_ia4_gap_fixed;
    case "block-R knife-edge fixed: the 7404/173 repro passes" test_knife_edge_fixed;
    slow_case "legacy corpora unchanged under --r-slack legacy"
      test_legacy_corpora_unchanged;
    slow_case "legacy gate caught by the edge-sampling churn tier"
      test_legacy_gate_caught_by_edge_sampling;
    case "shrinker offers the r_slack-to-default reduction"
      test_shrink_offers_r_slack_reduction;
    slow_case "injected deadline violation is caught and shrunk"
      test_injected_violation_caught_and_shrunk;
    slow_case "overload campaign: 50 service scenarios, shed/drain proven"
      test_overload_campaign;
    case "shrinker offers the service reductions"
      test_shrink_offers_service_reductions;
    slow_case "drain oracle fires on a starved service spec"
      test_service_drain_sensitivity;
    case "oracle retains only the kinds it judges" test_oracle_retains_judged_kinds;
  ]
