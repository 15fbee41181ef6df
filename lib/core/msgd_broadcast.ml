(* The msgd-broadcast primitive (paper Figure 3, §5).

   A message-driven Reliable Broadcast in the style of Toueg, Perry &
   Srikanth's authenticated-broadcast simulation. One instance runs per
   (node, agreement instance); within it, state is kept per broadcast triplet
   (p, m, k) — broadcaster, value, round tag.

   The crucial difference from the original synchronous primitive: round
   deadlines [tau_g + (2k + c) * Phi] are upper bounds only. Conditions are
   re-evaluated on every arrival, so when the network is fast the primitive
   completes in a few d rather than a few Phi (experiment E3 measures this).

   Blocks, transcribed from the figure (executed only once the anchor tau_g
   is defined; messages are logged regardless and re-evaluated when the
   anchor appears):
     V  — the broadcaster p sends (init, p, m, k) to all;
     W  — by tau_g + 2k*Phi: init received from p itself => send echo;
     X  — by tau_g + (2k+1)*Phi: n-2f echoes => send init'; n-f => accept;
     Y  — by tau_g + (2k+2)*Phi: n-2f init' => p joins broadcasters;
          n-f init' => send echo';
     Z  — untimed: n-2f echo' => relay echo'; n-f echo' => accept (once);
     cleanup — decay anything older than (2f+3)*Phi. *)

open Types
module Trace = Ssba_sim.Trace

type trip = {
  mutable init_from_p : float option;  (* arrival of (init,...) actually from p *)
  echo : Recv_log.t;
  init2 : Recv_log.t;
  echo2 : Recv_log.t;
  mutable sent_echo : bool;
  mutable sent_init2 : bool;
  mutable sent_echo2 : bool;
  mutable accepted_at : float option;
  mutable last_activity : float;
}

type t = {
  g : general;
  ctx : ctx;
  trips : (node_id * value * int, trip) Hashtbl.t;
  broadcasters : Recv_log.t;  (* node -> local time added; same decay rules *)
  mutable tau_g : float option;
  mutable on_accept : p:node_id -> v:value -> k:int -> unit;
  (* One-entry lookup cache: during an agreement almost every message hits
     the same (p, v, k) triplet, so caching the last key dodges the tuple
     allocation and polymorphic hash per arrival. Invalidated wherever trips
     are removed. *)
  mutable cached : ((node_id * value * int) * trip) option;
}

let create ~ctx ~g =
  {
    g;
    ctx;
    trips = Hashtbl.create 8;
    broadcasters = Recv_log.create ();
    tau_g = None;
    on_accept = (fun ~p:_ ~v:_ ~k:_ -> ());
    cached = None;
  }

let set_on_accept t f = t.on_accept <- f

let now t = t.ctx.local_time ()
let prm t = t.ctx.params

let trip_of t key =
  match Hashtbl.find_opt t.trips key with
  | Some tr -> tr
  | None ->
      let tr =
        {
          init_from_p = None;
          echo = Recv_log.create ();
          init2 = Recv_log.create ();
          echo2 = Recv_log.create ();
          sent_echo = false;
          sent_init2 = false;
          sent_echo2 = false;
          accepted_at = None;
          last_activity = now t;
        }
      in
      Hashtbl.replace t.trips key tr;
      tr

(* Cached variant for the arrival path: [p]/[v]/[k] arrive unpacked, so a
   cache hit allocates neither the key tuple nor an option. *)
let trip_of_parts t ~p ~v ~k =
  match t.cached with
  | Some (((cp, cv, ck) as key), tr)
    when cp = p && ck = k && (cv == v || String.equal cv v) ->
      (key, tr)
  | Some _ | None ->
      let key = (p, v, k) in
      let tr = trip_of t key in
      t.cached <- Some (key, tr);
      (key, tr)

let broadcaster_count t = Recv_log.count t.broadcasters
let broadcasters t = Recv_log.senders t.broadcasters

let send t kind ~p ~v ~k = t.ctx.send_all (Mb { kind; p; g = t.g; v; k })

let do_accept t ~tau ~tau_g (p, v, k) tr =
  tr.accepted_at <- Some tau;
  if Trace.wants t.ctx.trace Trace.Kind.Mb_accept then
    t.ctx.record (Trace.Mb_accept { g = t.g; p; v; k; tau; tau_g });
  t.on_accept ~p ~v ~k

(* Evaluate blocks W–Z for one triplet; no-op until the anchor is known.
   [tau] is the caller's local time — threaded in so the arrival path reads
   the clock exactly once. *)
let eval t ~tau ((p, v, k) as key) tr =
  match t.tau_g with
  | None -> ()
  | Some tg ->
      let pm = prm t in
      let phi = pm.Params.phi in
      let n_f = Params.quorum pm in
      let n_2f = Params.weak_quorum pm in
      (* Deadlines tau_g + (2k + c) * Phi for c = 0, 1, 2. Each keeps the
         exact arithmetic shape [tg +. (float (2k + c) *. phi)] — the
         comparisons below sit on digest-pinned boundaries. *)
      let k2 = 2 * k in
      let deadline0 = tg +. (float_of_int k2 *. phi) in
      let deadline1 = tg +. (float_of_int (k2 + 1) *. phi) in
      let deadline2 = tg +. (float_of_int (k2 + 2) *. phi) in
      (* W *)
      if tau <= deadline0 && tr.init_from_p <> None && not tr.sent_echo then begin
        tr.sent_echo <- true;
        send t Echo ~p ~v ~k
      end;
      (* X *)
      if tau <= deadline1 then begin
        if Recv_log.count tr.echo >= n_2f && not tr.sent_init2 then begin
          tr.sent_init2 <- true;
          send t Init2 ~p ~v ~k
        end;
        if Recv_log.count tr.echo >= n_f && tr.accepted_at = None then
          do_accept t ~tau ~tau_g:tg key tr
      end;
      (* Y *)
      if tau <= deadline2 then begin
        if Recv_log.count tr.init2 >= n_2f && not (Recv_log.mem t.broadcasters ~sender:p)
        then begin
          Recv_log.note t.broadcasters ~sender:p ~at:tau;
          if Trace.wants t.ctx.trace Trace.Kind.Mb_broadcaster then
            t.ctx.record
              (Trace.Mb_broadcaster { g = t.g; p; total = broadcaster_count t; tau })
        end;
        if Recv_log.count tr.init2 >= n_f && not tr.sent_echo2 then begin
          tr.sent_echo2 <- true;
          send t Echo2 ~p ~v ~k
        end
      end;
      (* Z *)
      if Recv_log.count tr.echo2 >= n_2f && not tr.sent_echo2 then begin
        tr.sent_echo2 <- true;
        send t Echo2 ~p ~v ~k
      end;
      if Recv_log.count tr.echo2 >= n_f && tr.accepted_at = None then
        do_accept t ~tau ~tau_g:tg key tr

(* Block V: this node broadcasts (p = self). *)
let broadcast t ~v ~k = send t Init ~p:t.ctx.self ~v ~k

(* Anchor management: set on I-accept, then replay all logged triplets.

   The anchor is the session key: everything logged before [tau_g - d]
   belongs to an earlier (G, tau_g') session and is purged before the
   replay. Messages of *this* session cannot arrive earlier than the
   fastest accept (>= tau_g + 3d even under maximal anchor skew), while
   stragglers of the previous session — whose tail can outlive the
   3d-post-return reset and repopulate trips while no anchor is defined —
   are at least 2d older than any anchor a fresh initiation can establish
   (block K's last(G) guard separates initiations by 7d; the old session's
   last correct sends happen within ~4d of its accept). Without the purge,
   the untimed block Z counts those stragglers under the new anchor and
   re-accepts the previous session's value: the [IA-4]/agreement split the
   2027/133 churn repro pinned. *)
let set_anchor t tau_g =
  t.tau_g <- Some tau_g;
  let horizon = tau_g -. (prm t).Params.d in
  let doomed = ref [] in
  Hashtbl.iter
    (fun key tr ->
      Recv_log.decay tr.echo ~horizon;
      Recv_log.decay tr.init2 ~horizon;
      Recv_log.decay tr.echo2 ~horizon;
      (match tr.init_from_p with
      | Some at when at < horizon -> tr.init_from_p <- None
      | Some _ | None -> ());
      (match tr.accepted_at with
      | Some at when at < horizon -> tr.accepted_at <- None
      | Some _ | None -> ());
      if
        Recv_log.is_empty tr.echo && Recv_log.is_empty tr.init2
        && Recv_log.is_empty tr.echo2
        && tr.init_from_p = None && tr.accepted_at = None
      then doomed := key :: !doomed)
    t.trips;
  List.iter (Hashtbl.remove t.trips) !doomed;
  t.cached <- None;
  Recv_log.decay t.broadcasters ~horizon;
  if Trace.wants t.ctx.trace Trace.Kind.Anchor_set then
    t.ctx.record (Trace.Anchor_set { g = t.g; tau_g });
  let tau = now t in
  Hashtbl.iter (fun key tr -> eval t ~tau key tr) t.trips

let anchor t = t.tau_g

let handle_message t ~sender ~kind ~p ~v ~k =
  (* Round tags outside [1, f+1] cannot be used by any correct node (blocks R
     and S only broadcast with k in that range); drop them so Byzantine spam
     cannot inflate memory. *)
  if k >= 1 && k <= (prm t).Params.f + 1 then begin
    let tau = now t in
    let key, tr = trip_of_parts t ~p ~v ~k in
    tr.last_activity <- tau;
    (match kind with
    | Init -> if sender = p && tr.init_from_p = None then tr.init_from_p <- Some tau
    | Echo -> Recv_log.note tr.echo ~sender ~at:tau
    | Init2 -> Recv_log.note tr.init2 ~sender ~at:tau
    | Echo2 -> Recv_log.note tr.echo2 ~sender ~at:tau);
    eval t ~tau key tr
  end

(* Figure 3's cleanup: decay anything older than (2f+3) * Phi. *)
let cleanup t =
  let tau = now t in
  let pm = prm t in
  let horizon = tau -. (float_of_int ((2 * pm.Params.f) + 3) *. pm.Params.phi) in
  let doomed = ref [] in
  Hashtbl.iter
    (fun key tr ->
      Recv_log.sanitize tr.echo ~now:tau;
      Recv_log.sanitize tr.init2 ~now:tau;
      Recv_log.sanitize tr.echo2 ~now:tau;
      Recv_log.decay tr.echo ~horizon;
      Recv_log.decay tr.init2 ~horizon;
      Recv_log.decay tr.echo2 ~horizon;
      (match tr.init_from_p with
      | Some at when at > tau || at < horizon -> tr.init_from_p <- None
      | Some _ | None -> ());
      (match tr.accepted_at with
      | Some at when at > tau -> tr.accepted_at <- None
      | Some _ | None -> ());
      if
        tr.last_activity < horizon || tr.last_activity > tau
      then doomed := key :: !doomed)
    t.trips;
  List.iter (Hashtbl.remove t.trips) !doomed;
  t.cached <- None;
  Recv_log.sanitize t.broadcasters ~now:tau;
  Recv_log.decay t.broadcasters ~horizon;
  match t.tau_g with
  | Some tg when tg > tau -> t.tau_g <- None  (* corrupt future anchor *)
  | Some _ | None -> ()

let reset t =
  Hashtbl.reset t.trips;
  t.cached <- None;
  Recv_log.clear t.broadcasters;
  t.tau_g <- None

(* Indistinguishable from a freshly created instance: eligible for session
   garbage collection. *)
let quiescent t =
  Hashtbl.length t.trips = 0
  && Recv_log.is_empty t.broadcasters
  && t.tau_g = None

(* Canonical state fingerprint for the model checker's visited set: trips in
   sorted key order, receive logs in their canonical entry order, floats
   printed exactly. *)
let fingerprint buf t =
  let fopt buf = function
    | None -> Buffer.add_string buf "-"
    | Some x -> Printf.bprintf buf "%h" x
  in
  let log l =
    Recv_log.iter_entries l (fun ~sender ~at ->
        Printf.bprintf buf "%d@%h," sender at)
  in
  Printf.bprintf buf "mb{g=%d;tg=%a;" t.g fopt t.tau_g;
  Buffer.add_string buf "bc=";
  log t.broadcasters;
  Buffer.add_char buf ';';
  let trips =
    List.sort
      (fun (a, _) (b, _) -> compare a b)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.trips [])
  in
  List.iter
    (fun ((p, v, k), tr) ->
      Printf.bprintf buf "t:%d/%s/%d=ip%a|e" p v k fopt tr.init_from_p;
      log tr.echo;
      Buffer.add_string buf "|i2";
      log tr.init2;
      Buffer.add_string buf "|e2";
      log tr.echo2;
      Printf.bprintf buf "|%b%b%b|a%a|la%h;" tr.sent_echo tr.sent_init2
        tr.sent_echo2 fopt tr.accepted_at tr.last_activity)
    trips;
  Buffer.add_char buf '}'

(* Transient-fault injection. *)
let scramble rng ~values t =
  let tau = now t in
  let pm = prm t in
  let n = pm.Params.n in
  let span = 3.0 *. float_of_int ((2 * pm.Params.f) + 3) *. pm.Params.phi in
  let rtime () = tau +. Ssba_sim.Rng.float_in_range rng ~lo:(-.span) ~hi:pm.Params.phi in
  let ntrips = Ssba_sim.Rng.int rng 6 in
  for _ = 1 to ntrips do
    let p = Ssba_sim.Rng.int rng n in
    let v = Ssba_sim.Rng.pick_list rng values in
    let k = 1 + Ssba_sim.Rng.int rng (pm.Params.f + 1) in
    let tr = trip_of t (p, v, k) in
    if Ssba_sim.Rng.bool rng then tr.init_from_p <- Some (rtime ());
    for _ = 1 to Ssba_sim.Rng.int rng (n + 1) do
      Recv_log.corrupt tr.echo ~sender:(Ssba_sim.Rng.int rng n) ~at:(rtime ())
    done;
    for _ = 1 to Ssba_sim.Rng.int rng (n + 1) do
      Recv_log.corrupt tr.init2 ~sender:(Ssba_sim.Rng.int rng n) ~at:(rtime ())
    done;
    for _ = 1 to Ssba_sim.Rng.int rng (n + 1) do
      Recv_log.corrupt tr.echo2 ~sender:(Ssba_sim.Rng.int rng n) ~at:(rtime ())
    done;
    tr.sent_echo <- Ssba_sim.Rng.bool rng;
    tr.sent_init2 <- Ssba_sim.Rng.bool rng;
    tr.sent_echo2 <- Ssba_sim.Rng.bool rng;
    if Ssba_sim.Rng.bool rng then tr.accepted_at <- Some (rtime ())
  done;
  for _ = 1 to Ssba_sim.Rng.int rng (pm.Params.f + 1) do
    Recv_log.corrupt t.broadcasters ~sender:(Ssba_sim.Rng.int rng n) ~at:(rtime ())
  done;
  if Ssba_sim.Rng.bool rng then t.tau_g <- Some (rtime ())
