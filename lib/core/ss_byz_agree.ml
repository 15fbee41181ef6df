(* The ss-Byz-Agree protocol (paper Figure 1, §3).

   One instance runs per (node, General), composing Initiator-Accept and
   msgd-broadcast. Block structure, transcribed from the figure:

     Q  — the General sends (Initiator, G, m); receivers invoke
          Initiator-Accept.
     R  — on I-accept <G, m', tau_g> with tau - tau_g <= 4d: broadcast
          (self, <G,m'>, 1) and decide m' (the fast path).
     S  — by tau <= tau_g + (2r+1) Phi, having accepted r distinct messages
          (p_i, <G,m''>, i), i = 1..r, with p_i distinct and != G: broadcast
          (self, <G,m''>, r+1) and decide m''.
     T  — past tau_g + (2r+1) Phi with fewer than r-1 known broadcasters:
          abort (return bot).
     U  — past tau_g + (2f+1) Phi: abort.
     cleanup — erase anything older than (2f+1) Phi + 3d; 3d after returning,
          reset Initiator-Accept, tau_g and msgd-broadcast.

   Block S's "r distinct messages" requires a system of distinct
   representatives between rounds 1..r and accepted broadcasters; a correct
   node broadcasts at most once, but a Byzantine node may appear in several
   rounds, so we run a small augmenting-path matching rather than a greedy
   pick.

   Stale-timer safety: every scheduled closure captures the instance epoch
   and is ignored if the instance was reset in between. The periodic cleanup
   additionally repairs states only a transient fault can produce (anchor in
   the future, Running without an anchor, Returned without a pending
   reset). *)

open Types
module Trace = Ssba_sim.Trace

type state =
  | Idle
  | Running
  | Returned of outcome * float  (* outcome, local return time *)

type t = {
  g : general;
  ctx : ctx;
  ia : Initiator_accept.t;
  mb : Msgd_broadcast.t;
  mutable tau_g : float option;
  mutable own_iaccept : value option;
  accepts : (int, (node_id * value * float) list) Hashtbl.t;
      (* round k -> accepted (p, value, local accept time) *)
  mutable st : state;
  mutable epoch : int;
  mutable on_return : outcome -> tau_g:float -> tau_ret:float -> unit;
  mutable on_anchor : float -> unit;
}

let now t = t.ctx.local_time ()
let prm t = t.ctx.params
let state t = t.st
let anchor t = t.tau_g
let general t = t.g
let initiator_accept t = t.ia
let msgd_broadcast t = t.mb

let set_on_return t f = t.on_return <- f
let set_on_anchor t f = t.on_anchor <- f

(* ----- block S matching ----------------------------------------------- *)

(* Try to match every round 1..r to a distinct broadcaster of value [v]
   (classic augmenting paths; r <= f, so this is tiny). *)
let matches_rounds t ~v ~r =
  let candidates i =
    match Hashtbl.find_opt t.accepts i with
    | None -> []
    | Some l ->
        List.filter_map
          (fun (p, v', _) -> if String.equal v v' then Some p else None)
          l
  in
  let matched : (node_id, int) Hashtbl.t = Hashtbl.create 8 in
  let rec augment i visited =
    List.exists
      (fun p ->
        if List.mem p !visited then false
        else begin
          visited := p :: !visited;
          match Hashtbl.find_opt matched p with
          | None ->
              Hashtbl.replace matched p i;
              true
          | Some j ->
              if augment j visited then begin
                Hashtbl.replace matched p i;
                true
              end
              else false
        end)
      (candidates i)
  in
  let ok = ref true in
  for i = 1 to r do
    if !ok then ok := augment i (ref [])
  done;
  !ok

let candidate_values t ~r =
  let vs = Hashtbl.create 4 in
  for i = 1 to r do
    match Hashtbl.find_opt t.accepts i with
    | None -> ()
    | Some l -> List.iter (fun (_, v, _) -> Hashtbl.replace vs v ()) l
  done;
  Hashtbl.fold (fun v () acc -> v :: acc) vs [] |> List.sort compare

(* ----- return machinery ------------------------------------------------ *)

let full_reset t =
  Initiator_accept.reset t.ia;
  Msgd_broadcast.reset t.mb;
  Hashtbl.reset t.accepts;
  t.tau_g <- None;
  t.own_iaccept <- None;
  t.st <- Idle;
  t.epoch <- t.epoch + 1

let do_return t outcome =
  match t.tau_g with
  | None -> ()  (* unreachable in correct operation *)
  | Some tau_g ->
      let tau = now t in
      t.st <- Returned (outcome, tau);
      if Trace.wants t.ctx.trace Trace.Kind.Agree_return then
        t.ctx.record
          (Trace.Agree_return
             {
               g = t.g;
               decided = (match outcome with Decided v -> Some v | Aborted -> None);
               tau_g;
             });
      t.on_return outcome ~tau_g ~tau_ret:tau;
      (* Cleanup rule: 3d after returning, reset Initiator-Accept, tau_g and
         msgd-broadcast. Until then the node keeps relaying in the
         primitives. *)
      let epoch = t.epoch in
      t.ctx.after_local
        (3.0 *. (prm t).Params.d)
        (fun () -> if t.epoch = epoch then full_reset t)

let decide t v ~round =
  if Trace.wants t.ctx.trace Trace.Kind.Broadcast then
    t.ctx.record (Trace.Broadcast { g = t.g; v; k = round + 1; tau = now t });
  Msgd_broadcast.broadcast t.mb ~v ~k:(round + 1);
  do_return t (Decided v)

(* ----- blocks R, S, T, U ------------------------------------------------ *)

let try_block_s t =
  match (t.st, t.tau_g) with
  | Running, Some tg ->
      let tau = now t in
      let phi = (prm t).Params.phi in
      let f = (prm t).Params.f in
      let rec try_r r =
        if r > f then ()
        else if tau > tg +. (float_of_int ((2 * r) + 1) *. phi) then try_r (r + 1)
        else begin
          let vs = candidate_values t ~r in
          match List.find_opt (fun v -> matches_rounds t ~v ~r) vs with
          | Some v -> decide t v ~round:r
          | None -> try_r (r + 1)
        end
      in
      try_r 1
  | (Idle | Running | Returned _), _ -> ()

(* Block T boundary check at tau_g + (2r+1) Phi, and block U at r = f. *)
let boundary_check t ~r =
  match (t.st, t.tau_g) with
  | Running, Some _ ->
      if r >= (prm t).Params.f then do_return t Aborted (* U *)
      else if Msgd_broadcast.broadcaster_count t.mb < r - 1 then
        do_return t Aborted (* T *)
  | (Idle | Running | Returned _), _ -> ()

let schedule_boundaries t ~tau_g =
  let epoch = t.epoch in
  let phi = (prm t).Params.phi in
  let tau = now t in
  (* The T/U conditions require tau to be strictly past the boundary; a tiny
     nudge keeps a block-S decision scheduled exactly at the boundary legal. *)
  let eps = 1e-9 *. phi in
  for r = 2 to (prm t).Params.f do
    let target = tau_g +. (float_of_int ((2 * r) + 1) *. phi) +. eps in
    if target > tau then
      t.ctx.after_local (target -. tau) (fun () ->
          if t.epoch = epoch then boundary_check t ~r)
  done;
  (* Block U's unconditional deadline. *)
  let target = tau_g +. (prm t).Params.delta_agr +. eps in
  let delay = Float.max 0.0 (target -. tau) in
  t.ctx.after_local delay (fun () ->
      if t.epoch = epoch then boundary_check t ~r:(prm t).Params.f)

(* On I-accept from the Initiator-Accept primitive: anchor the rounds and run
   block R (or fall through to S/T/U). *)
let handle_iaccept t v ~tau_g =
  match t.st with
  | Returned _ -> ()
  | Idle | Running ->
      let tau = now t in
      if Trace.wants t.ctx.trace Trace.Kind.I_accept then
        t.ctx.record (Trace.I_accept { g = t.g; v; tau_g; tau });
      t.on_anchor tau_g;
      t.tau_g <- Some tau_g;
      t.own_iaccept <- Some v;
      t.st <- Running;
      Msgd_broadcast.set_anchor t.mb tau_g;
      if tau -. tau_g > (prm t).Params.delta_agr then
        (* Timeliness 1(d): an anchor this old cannot lead to a timely
           decision; abort right away. *)
        do_return t Aborted
      else if tau -. tau_g <= Params.r_gate (prm t) then decide t v ~round:0
        (* block R; the gate is 4d or 5d depending on [Params.r_slack] *)
      else begin
        schedule_boundaries t ~tau_g;
        try_block_s t
      end

let handle_mb_accept t ~p ~v ~k =
  (* block S excludes the General; [t.g] may be a logical (channelled) id,
     so compare against the physical node behind it *)
  let general = t.g mod (prm t).Params.n in
  let record () =
    let cur = Option.value ~default:[] (Hashtbl.find_opt t.accepts k) in
    if not (List.exists (fun (p', v', _) -> p' = p && String.equal v v') cur)
    then Hashtbl.replace t.accepts k ((p, v, now t) :: cur);
    try_block_s t
  in
  if p <> general then record ()
  else if
    (* [Count_general] relaxation: a node that already I-accepted m may
       count the General's own round-1 broadcast of m as the r = 1 proof —
       the I-accept corroborates the value, so this broadcast is no longer
       the General's unsupported word. Other rounds stay excluded. *)
    (prm t).Params.r_slack = Params.Count_general
    && k = 1
    && (match t.own_iaccept with Some v' -> String.equal v v' | None -> false)
  then record ()

(* Block Q1: a node invokes the protocol upon the General's message. *)
let invoke t ~v =
  match t.st with
  | Returned _ -> ()  (* stopped; participates in primitives only *)
  | Idle | Running -> Initiator_accept.handle_initiator t.ia v

let create ?blackout ?guard ~ctx ~g () =
  let ia = Initiator_accept.create ?blackout ?guard ~ctx ~g () in
  let mb = Msgd_broadcast.create ~ctx ~g in
  let t =
    {
      g;
      ctx;
      ia;
      mb;
      tau_g = None;
      own_iaccept = None;
      accepts = Hashtbl.create 8;
      st = Idle;
      epoch = 0;
      on_return = (fun _ ~tau_g:_ ~tau_ret:_ -> ());
      on_anchor = (fun _ -> ());
    }
  in
  Initiator_accept.set_on_accept ia (fun v ~tau_g -> handle_iaccept t v ~tau_g);
  Msgd_broadcast.set_on_accept mb (fun ~p ~v ~k -> handle_mb_accept t ~p ~v ~k);
  t

(* Message dispatch from the node glue. [t.g] may be a logical (channelled)
   General id; the Initiator is authenticated against the physical node
   behind it. *)
let handle_message t ~sender (msg : message) =
  match msg with
  | Initiator { v; _ } ->
      if sender = t.g mod (prm t).Params.n then invoke t ~v
  | Ia { kind; v; _ } -> Initiator_accept.handle_message t.ia ~kind ~sender ~v
  | Mb { kind; p; v; k; _ } ->
      Msgd_broadcast.handle_message t.mb ~sender ~kind ~p ~v ~k

(* Periodic cleanup (every d), including the self-stabilization repairs. *)
let cleanup t =
  Initiator_accept.cleanup t.ia;
  Msgd_broadcast.cleanup t.mb;
  let tau = now t in
  let pm = prm t in
  let horizon = tau -. (pm.Params.delta_agr +. (3.0 *. pm.Params.d)) in
  (* Erase accepted broadcasts older than (2f+1) Phi + 3d. Rebuild a list
     only when it actually has doomed entries — on most ticks none do, and
     the filter-copy per round tag per tick was pure allocation churn. *)
  Hashtbl.iter
    (fun k l ->
      if List.exists (fun (_, _, at) -> at > tau || at < horizon) l then
        Hashtbl.replace t.accepts k
          (List.filter (fun (_, _, at) -> at <= tau && at >= horizon) l))
    t.accepts;
  (* Transient-fault repairs; unreachable in correct operation. *)
  (match t.tau_g with
  | Some tg when tg > tau -> full_reset t
  | Some _ | None -> ());
  (match (t.st, t.tau_g) with
  | Running, None -> full_reset t
  | Running, Some tg when tau -. tg > pm.Params.delta_agr +. pm.Params.d ->
      (* The U deadline passed but its timer was lost to a fault. *)
      do_return t Aborted
  | Returned (_, tr), _ when tau -. tr > 4.0 *. pm.Params.d || tr > tau ->
      full_reset t
  | (Idle | Running | Returned _), _ -> ())

(* Indistinguishable from a freshly created instance — nothing running,
   nothing logged in either primitive — and hence eligible for session
   garbage collection (the separation guard persists independently). *)
let quiescent t =
  t.st = Idle
  && t.tau_g = None
  && t.own_iaccept = None
  && Hashtbl.length t.accepts = 0
  && Initiator_accept.quiescent t.ia
  && Msgd_broadcast.quiescent t.mb

(* Canonical state fingerprint for the model checker's visited set: the
   instance's own fields plus both primitives. The [epoch] counter is
   deliberately excluded — it only invalidates already-scheduled timers, and
   the checker's state abstraction treats pending timers as reconstructible
   from protocol state (stale ones no-op by construction). The guard is
   fingerprinted by the node. *)
let fingerprint buf t =
  let fopt buf = function
    | None -> Buffer.add_string buf "-"
    | Some x -> Printf.bprintf buf "%h" x
  in
  Printf.bprintf buf "ag{g=%d;tg=%a;own=%s;" t.g fopt t.tau_g
    (match t.own_iaccept with None -> "-" | Some v -> v);
  (match t.st with
  | Idle -> Buffer.add_string buf "st=I;"
  | Running -> Buffer.add_string buf "st=R;"
  | Returned (Decided v, at) -> Printf.bprintf buf "st=D:%s@%h;" v at
  | Returned (Aborted, at) -> Printf.bprintf buf "st=A@%h;" at);
  let rounds =
    List.sort
      (fun (a, _) (b, _) -> compare a b)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.accepts [])
  in
  List.iter
    (fun (k, l) ->
      Printf.bprintf buf "k%d=" k;
      List.iter
        (fun (p, v, at) -> Printf.bprintf buf "%d/%s@%h," p v at)
        (List.sort compare l);
      Buffer.add_char buf ';')
    rounds;
  Initiator_accept.fingerprint buf t.ia;
  Msgd_broadcast.fingerprint buf t.mb;
  Buffer.add_char buf '}'

(* Transient-fault injection: corrupt this instance and both primitives. *)
let scramble rng ~values t =
  Initiator_accept.scramble rng ~values t.ia;
  Msgd_broadcast.scramble rng ~values t.mb;
  let tau = now t in
  let pm = prm t in
  let span = 2.0 *. pm.Params.delta_rmv in
  let rtime () = tau +. Ssba_sim.Rng.float_in_range rng ~lo:(-.span) ~hi:pm.Params.delta_agr in
  Hashtbl.reset t.accepts;
  for k = 1 to pm.Params.f do
    if Ssba_sim.Rng.bool rng then
      Hashtbl.replace t.accepts k
        [ (Ssba_sim.Rng.int rng pm.Params.n, Ssba_sim.Rng.pick_list rng values, rtime ()) ]
  done;
  (match Ssba_sim.Rng.int rng 3 with
  | 0 -> begin
      t.st <- Idle;
      t.tau_g <- None
    end
  | 1 -> begin
      t.st <- Running;
      t.tau_g <- Some (rtime ());
      t.own_iaccept <- Some (Ssba_sim.Rng.pick_list rng values)
    end
  | _ -> begin
      t.st <-
        Returned
          ((if Ssba_sim.Rng.bool rng then Decided (Ssba_sim.Rng.pick_list rng values)
            else Aborted),
           rtime ());
      t.tau_g <- Some (rtime ())
    end);
  t.epoch <- t.epoch + 1
