(* Second baseline: Exponential Information Gathering (EIG) Byzantine
   agreement with oral messages — the classic f+1-round algorithm in the
   lineage of Pease, Shostak & Lamport (the paper's [13], where the Byzantine
   agreement problem originates).

   Like the TPS'87 baseline it is synchronous and time-driven (lock-step
   rounds of length Phi anchored at a common t_start), and additionally pays
   an exponential message bill: each node's EIG tree holds one value per path
   of distinct node ids rooted at the General, up to depth f+1 — Theta(n^f)
   tree entries, relayed wholesale every round. It exists here to complete
   the comparison triangle of experiment E3b:

     ss-Byz-Agree   message-driven, self-stabilizing, O(d) fast path
     TPS'87         time-driven, 2 Phi fast path, polynomial messages
     EIG            time-driven, always (f+1) Phi, exponential messages

   Protocol (boundaries b counted from t_start, rounds of length Phi):
     t_start        the General sends Value(v) to all;
     boundary b, 1 <= b <= f: every node relays all tree entries with paths
       of length b that do not contain itself; a receiver stores the value
       of path p under p ++ [sender];
     boundary f+1: resolve the tree bottom-up — a leaf resolves to its
       stored value; an inner path resolves to the strict majority of its
       children's resolutions (the default value on a tie or absence) — and
       decide resolve([G]).

   EIG runs over its own payload type on a private network instance; nothing
   here touches the self-stabilizing stack. *)

open Ssba_core.Types
module Params = Ssba_core.Params
module Engine = Ssba_sim.Engine
module Clock = Ssba_sim.Clock
module Network = Ssba_net.Network

type payload =
  | Value of value  (* the General's round-0 value *)
  | Relay of (node_id list * value) list  (* (path, stored value) batch *)

let default_value = "<bot>"

type t = {
  id : node_id;
  params : Params.t;
  engine : Engine.t;
  clock : Clock.t;
  net : payload Network.t;
  g : general;
  t_start : float;
  tree : (node_id list, value) Hashtbl.t;  (* path (root first) -> value *)
  mutable decided : value option;
  mutable on_decide : value -> tau:float -> unit;
}

let local_time t = Clock.read t.clock ~now:(Engine.now t.engine)
let decided t = t.decided
let set_on_decide t f = t.on_decide <- f
let tree_size t = Hashtbl.length t.tree

(* Relay every stored path of length [len] that does not contain us. *)
let relay t ~len =
  let batch =
    Hashtbl.fold
      (fun path v acc ->
        if List.length path = len && not (List.mem t.id path) then (path, v) :: acc
        else acc)
      t.tree []
  in
  if batch <> [] then Network.broadcast t.net ~src:t.id (Relay batch)

(* Bottom-up resolution with strict majority over the children. *)
let rec resolve t ~path ~depth =
  if depth >= t.params.Params.f + 1 then
    Option.value ~default:default_value (Hashtbl.find_opt t.tree path)
  else begin
    let children =
      List.init t.params.Params.n (fun q -> q)
      |> List.filter (fun q -> not (List.mem q path))
      |> List.map (fun q -> resolve t ~path:(path @ [ q ]) ~depth:(depth + 1))
    in
    let counts = Hashtbl.create 4 in
    List.iter
      (fun v ->
        Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v)))
      children;
    let best =
      Hashtbl.fold
        (fun v c acc ->
          match acc with
          | Some (_, c') when c' >= c -> acc
          | _ -> Some (v, c))
        counts None
    in
    match best with
    | Some (v, c) when 2 * c > List.length children -> v
    | Some _ | None -> default_value
  end

let boundary t b =
  if b <= t.params.Params.f then relay t ~len:b
  else if t.decided = None then begin
    let v = resolve t ~path:[ t.g ] ~depth:1 in
    t.decided <- Some v;
    Engine.record t.engine ~node:t.id
      (Ssba_sim.Trace.Eig_decide { v });
    t.on_decide v ~tau:(local_time t)
  end

let create ~id ~params ~clock ~engine ~net ~g ~t_start =
  let t =
    {
      id;
      params;
      engine;
      clock;
      net;
      g;
      t_start;
      tree = Hashtbl.create 64;
      decided = None;
      on_decide = (fun _ ~tau:_ -> ());
    }
  in
  Network.set_handler net id (fun env ->
      let sender = env.Ssba_net.Msg.src in
      match env.Ssba_net.Msg.payload with
      | Value v -> if sender = t.g then Hashtbl.replace t.tree [ t.g ] v
      | Relay batch ->
          List.iter
            (fun (path, v) ->
              (* Oral-messages discipline: the sender may only append itself;
                 reject paths it occurs in, over-long paths and forged roots. *)
              let len = List.length path in
              if
                len >= 1 && len <= t.params.Params.f
                && (not (List.mem sender path))
                && List.hd path = t.g
                && List.length (List.sort_uniq compare path) = len
              then Hashtbl.replace t.tree (path @ [ sender ]) v)
            batch);
  let phi = params.Params.phi in
  let tau_now = local_time t in
  for b = 1 to params.Params.f + 1 do
    let target = t_start +. (float_of_int b *. phi) in
    if target > tau_now then
      Engine.schedule_after engine
        ~delay:(Clock.real_of_local_duration clock (target -. tau_now))
        (fun () -> boundary t b)
  done;
  t

let propose t v =
  if t.id <> t.g then invalid_arg "Eig_agree.propose: not the General";
  Hashtbl.replace t.tree [ t.g ] v;
  Network.broadcast t.net ~src:t.id (Value v)
