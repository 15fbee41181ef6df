(* Primitive-level invariant monitor.

   The agreement-level oracles in Checks validate what the user sees; this
   module validates the *primitives'* contracts directly from the four
   protocol kinds of the run's trace ([kinds]; record them through
   [Scenario.record]):

   [IA-1] (Correctness, correct General known to have initiated at t0):
     1A  every correct node I-accepts within 4d of t0;
     1B  the I-accepts are within 2d of each other;
     1C  the anchors rt(tau_g) are within d of each other;
     1D  t0 - d <= rt(tau_g) <= rt(tau_accept) <= t0 + 4d per node.
   [IA-3] (Relay): if any correct node I-accepts (with a live anchor), every
     correct node I-accepts within 2d, with anchors within 6d.
   [IA-4] (Uniqueness): two I-accepts for the same General satisfy
     (4a) different values  => anchors > 4d apart;
     (4b) same value        => anchors <= 6d apart or > 2*Delta_rmv - 3d.
   [TPS-2] (Unforgeability): an accepted (p, v, k) with correct p implies p
     actually broadcast (v, k).
   [TPS-3] (Relay): an accept of (p, v, k) at local phase r implies every
     correct node accepts it by local phase r + 2.
   [TPS-4] (Detection): an accept of (p, v, k) implies every correct node
     holds p as a broadcaster by phase 2k + 2; and p in a correct node's
     broadcasters with correct p implies p broadcast something.

   Violations are returned as strings; an empty list means all monitored
   invariants hold. All real-time comparisons convert local anchors through
   the run's clocks, exactly like the paper's rt(.) notation. *)

open Ssba_core.Types
module Tr = Ssba_sim.Trace

let kinds = Tr.Kind.[ I_accept; Mb_accept; Mb_broadcaster; Broadcast ]

type iaccept = { node : node_id; v : value; rt_anchor : float; rt_accept : float }

let tol = 1e-9

let rt_of (res : Runner.result) ~id tau =
  Ssba_sim.Clock.real_time_of_reading res.Runner.clocks.(id) tau

let iaccepts (res : Runner.result) entries ~g =
  List.filter_map
    (fun (e : Tr.entry) ->
      match e.Tr.event with
      | Tr.I_accept { g = g'; v; tau_g; tau = _ } when g' = g ->
          Some
            {
              node = e.Tr.node;
              v;
              rt_anchor = rt_of res ~id:e.Tr.node tau_g;
              rt_accept = e.Tr.time;
            }
      | _ -> None)
    entries

let generals entries =
  List.sort_uniq compare
    (List.filter_map
       (fun (e : Tr.entry) ->
         match e.Tr.event with
         | Tr.I_accept { g; _ }
         | Tr.Mb_accept { g; _ }
         | Tr.Mb_broadcaster { g; _ }
         | Tr.Broadcast { g; _ } ->
             Some g
         | _ -> None)
       entries)

(* Cluster I-accepts for one General into (G, tau_g) sessions: a session is
   keyed by its root anchor — the earliest rt(tau_g) — and an accept belongs
   to it iff its own anchor is within 6d of that root ([IA-3]'s anchor-skew
   bound). The membership test is deliberately *non-transitive*: chaining
   consecutive accepts (a <= 6d from its predecessor) would let a long smear
   of anchors weld genuinely distinct sessions into one cluster, and a
   monitor that conflates sessions both misattributes [IA-3A] coverage and
   waters down the [IA-4] uniqueness judgement. Each session is judged
   independently against the session key, exactly like the protocol core
   keys its state. *)
let cluster_iaccepts ~d accepts =
  let sorted = List.sort (fun a b -> compare a.rt_anchor b.rt_anchor) accepts in
  let rec go root cur acc = function
    | [] -> List.rev (match cur with [] -> acc | _ -> List.rev cur :: acc)
    | a :: tl -> (
        match cur with
        | [] -> go a.rt_anchor [ a ] acc tl
        | _ when a.rt_anchor -. root <= (6.0 *. d) +. tol -> go root (a :: cur) acc tl
        | _ -> go a.rt_anchor [ a ] (List.rev cur :: acc) tl)
  in
  go nan [] [] sorted

let check_ia_1 (res : Runner.result) ~g ~t0 =
  let params = (res.Runner.scenario).Scenario.params in
  let d = params.Ssba_core.Params.d in
  let violations = ref [] in
  let complain fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let accs =
    List.filter
      (fun a -> a.rt_accept >= t0 -. tol && a.rt_accept <= t0 +. (8.0 *. d))
      (iaccepts res (Tr.to_list res.Runner.trace) ~g)
  in
  let correct = res.Runner.correct in
  if List.length accs < List.length correct then
    complain "IA-1A: only %d/%d correct nodes I-accepted within 4d of t0"
      (List.length accs) (List.length correct);
  List.iter
    (fun a ->
      if a.rt_accept -. t0 > (4.0 *. d) +. tol then
        complain "IA-1A: node %d I-accepted %.2fd after t0" a.node
          ((a.rt_accept -. t0) /. d);
      (* 1D *)
      if a.rt_anchor < t0 -. d -. tol then
        complain "IA-1D: node %d anchored %.2fd before t0" a.node
          ((t0 -. a.rt_anchor) /. d);
      if a.rt_anchor > a.rt_accept +. tol then
        complain "IA-1D: node %d anchor after accept" a.node)
    accs;
  (match accs with
  | [] -> ()
  | _ ->
      let ts = List.map (fun a -> a.rt_accept) accs in
      let span = Metrics.maximum ts -. Metrics.minimum ts in
      if span > (2.0 *. d) +. tol then
        complain "IA-1B: accepts %.2fd apart (bound 2d)" (span /. d);
      let anchors = List.map (fun a -> a.rt_anchor) accs in
      let aspan = Metrics.maximum anchors -. Metrics.minimum anchors in
      if aspan > d +. tol then
        complain "IA-1C: anchors %.2fd apart (bound 1d)" (aspan /. d));
  List.rev !violations

let check_ia_3_4 (res : Runner.result) =
  let params = (res.Runner.scenario).Scenario.params in
  let d = params.Ssba_core.Params.d in
  let drmv = params.Ssba_core.Params.delta_rmv in
  let violations = ref [] in
  let complain fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let settle = params.Ssba_core.Params.delta_agr in
  let cutoff = (res.Runner.scenario).Scenario.horizon -. settle in
  let entries = Tr.to_list res.Runner.trace in
  List.iter
    (fun g ->
      let accs = iaccepts res entries ~g in
      (* IA-3: every execution cluster must cover all correct nodes, with
         accepts within 2d. Skip clusters too close to the horizon. *)
      List.iter
        (fun cluster ->
          let latest = Metrics.maximum (List.map (fun a -> a.rt_accept) cluster) in
          if latest <= cutoff then begin
            let nodes = List.sort_uniq compare (List.map (fun a -> a.node) cluster) in
            if List.length nodes < List.length res.Runner.correct then
              complain
                "IA-3A: G=%d execution at rt=%.4f reached only %d/%d correct nodes"
                g latest (List.length nodes)
                (List.length res.Runner.correct);
            let ts = List.map (fun a -> a.rt_accept) cluster in
            if Metrics.maximum ts -. Metrics.minimum ts > (2.0 *. d) +. tol then
              complain "IA-3A: G=%d accepts %.2fd apart (bound 2d)" g
                ((Metrics.maximum ts -. Metrics.minimum ts) /. d);
            (* within one execution all values must agree (IA-4 collapse) *)
            match List.sort_uniq compare (List.map (fun a -> a.v) cluster) with
            | [] | [ _ ] -> ()
            | vs ->
                complain "IA-4: G=%d one execution accepted several values: %s" g
                  (String.concat ", " vs)
          end)
        (cluster_iaccepts ~d accs);
      (* IA-4 across executions: pairwise anchor separations *)
      List.iter
        (fun a1 ->
          List.iter
            (fun a2 ->
              if a1.node < a2.node || (a1.node = a2.node && a1.rt_anchor < a2.rt_anchor)
              then begin
                let gap = Float.abs (a1.rt_anchor -. a2.rt_anchor) in
                if (not (String.equal a1.v a2.v)) && gap <= (4.0 *. d) +. tol then
                  complain
                    "IA-4a: G=%d values %S/%S anchored %.2fd apart (need > 4d)" g
                    a1.v a2.v (gap /. d);
                if
                  String.equal a1.v a2.v
                  && gap > (6.0 *. d) +. tol
                  && gap <= (2.0 *. drmv) -. (3.0 *. d) +. tol
                then
                  complain
                    "IA-4b: G=%d value %S anchored %.2fd apart (forbidden zone)" g
                    a1.v (gap /. d)
              end)
            accs)
        accs)
    (generals entries);
  List.rev !violations

let check_tps (res : Runner.result) =
  let params = (res.Runner.scenario).Scenario.params in
  let d = params.Ssba_core.Params.d in
  let phi = params.Ssba_core.Params.phi in
  let violations = ref [] in
  let complain fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let settle = params.Ssba_core.Params.delta_agr in
  let cutoff = (res.Runner.scenario).Scenario.horizon -. settle in
  (* The TPS relay/detection obligations bind nodes still running the
     primitive. A node that already returned from G's instance (e.g. through
     block R's fast path) before the execution's traffic reached it has
     terminated that invocation and owes nothing — demanding its accept is
     exactly the kind of over-strict oracle a fuzzer flushes out. *)
  let returned_before ~g ~node ~by =
    List.exists
      (fun (r : return_info) ->
        r.node = node && r.g = g && r.rt_ret <= by +. tol
        && by -. r.rt_ret <= params.Ssba_core.Params.delta_agr)
      res.Runner.returns
  in
  let unexcused ~g ~by present =
    List.filter
      (fun q -> not (List.mem q present) && not (returned_before ~g ~node:q ~by))
      res.Runner.correct
  in
  (* own broadcasts per (node, g): (v, k) list; accepts and broadcaster
     detections grouped by (g, p, v, k) / (g, p), accepts carrying the
     contemporaneous anchor for phase arithmetic *)
  let broadcasts = Hashtbl.create 16 in
  let accepts = Hashtbl.create 16 in
  let detections = Hashtbl.create 16 in
  let push tbl key x =
    Hashtbl.replace tbl key (x :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
  in
  List.iter
    (fun (e : Tr.entry) ->
      match e.Tr.event with
      | Tr.Broadcast { g; v; k; _ } -> push broadcasts (e.Tr.node, g) (v, k)
      | Tr.Mb_accept { g; p; v; k; tau; tau_g } ->
          push accepts (g, p, v, k) (e.Tr.node, tau, tau_g, e.Tr.time)
      | Tr.Mb_broadcaster { g; p; _ } -> push detections (g, p) (e.Tr.node, e.Tr.time)
      | _ -> ())
    (Tr.to_list res.Runner.trace);
  (* TPS-2: accepted (p, v, k) with correct p => p broadcast (v, k) *)
  Hashtbl.iter
    (fun (g, p, v, k) _ ->
      if List.mem p res.Runner.correct then
        let own = Option.value ~default:[] (Hashtbl.find_opt broadcasts (p, g)) in
        if not (List.mem (v, k) own) then
          complain "TPS-2: G=%d accepted (%d, %S, %d) but correct %d never broadcast it"
            g p v k p)
    accepts;
  (* A Byzantine General may drive recurrent executions; accepts for the same
     triplet then recur. Cluster them into executions by real-time proximity
     (executions are Delta_v or Delta_0-expiry apart, far beyond Dagr). *)
  let clusters accs =
    let sorted =
      List.sort (fun (_, _, _, a) (_, _, _, b) -> compare a b) accs
    in
    let gap = params.Ssba_core.Params.delta_agr in
    let rec go cur acc = function
      | [] -> List.rev (match cur with [] -> acc | _ -> List.rev cur :: acc)
      | x :: tl -> (
          match cur with
          | [] -> go [ x ] acc tl
          | (_, _, _, prev) :: _ ->
              let _, _, _, rt = x in
              if rt -. prev > gap then go [ x ] (List.rev cur :: acc) tl
              else go (x :: cur) acc tl)
    in
    go [] [] sorted
  in
  (* TPS-3: within one execution, every correct node accepts, within two
     phases of each other (phases measured against each node's own anchor). *)
  Hashtbl.iter
    (fun (g, p, v, k) accs ->
      List.iter
        (fun cluster ->
          let rts = List.map (fun (_, _, _, rt) -> rt) cluster in
          if Metrics.maximum rts <= cutoff then begin
            let nodes =
              List.sort_uniq compare (List.map (fun (nd, _, _, _) -> nd) cluster)
            in
            (match unexcused ~g ~by:(Metrics.minimum rts) nodes with
            | [] -> ()
            | missing ->
                complain
                  "TPS-3: G=%d (%d, %S, %d) accepted at %d/%d correct nodes \
                   (missing, not returned: %s)"
                  g p v k (List.length nodes)
                  (List.length res.Runner.correct)
                  (String.concat "," (List.map string_of_int missing)));
            let phases = List.map (fun (_, tau, tg, _) -> (tau -. tg) /. phi) cluster in
            if Metrics.maximum phases -. Metrics.minimum phases > 2.0 +. 1e-6 then
              complain "TPS-3: G=%d (%d, %S, %d) accepted %0.2f phases apart" g p v k
                (Metrics.maximum phases -. Metrics.minimum phases)
          end)
        (clusters accs))
    accepts;
  (* TPS-4 second part: a correct node in broadcasters must have broadcast *)
  Hashtbl.iter
    (fun (g, p) _ ->
      if List.mem p res.Runner.correct then
        let own = Option.value ~default:[] (Hashtbl.find_opt broadcasts (p, g)) in
        if own = [] then
          complain "TPS-4: G=%d correct node %d detected as broadcaster without broadcasting"
            g p)
    detections;
  (* TPS-4 first part: per execution, an accepted (p, v, k) implies p is
     detected as a broadcaster at every correct node within ~Dagr. *)
  Hashtbl.iter
    (fun (g, p, v, k) accs ->
      ignore v;
      ignore k;
      List.iter
        (fun cluster ->
          let rts = List.map (fun (_, _, _, rt) -> rt) cluster in
          let hi = Metrics.maximum rts and lo = Metrics.minimum rts in
          if hi <= cutoff then begin
            let window_lo = lo -. params.Ssba_core.Params.delta_agr in
            let window_hi = hi +. params.Ssba_core.Params.delta_agr in
            let det =
              Option.value ~default:[] (Hashtbl.find_opt detections (g, p))
              |> List.filter (fun (_, rt) -> rt >= window_lo && rt <= window_hi)
              |> List.map fst |> List.sort_uniq compare
            in
            match unexcused ~g ~by:hi det with
            | [] -> ()
            | missing ->
                complain
                  "TPS-4: G=%d broadcaster %d detected at only %d/%d correct \
                   nodes (missing, not returned: %s)"
                  g p (List.length det)
                  (List.length res.Runner.correct)
                  (String.concat "," (List.map string_of_int missing))
          end)
        (clusters accs))
    accepts;
  ignore d;
  List.rev !violations

(* All monitored invariants at once (IA-1 needs the initiation time, so it is
   separate: {!check_ia_1}). *)
let check (res : Runner.result) = check_ia_3_4 res @ check_tps res
