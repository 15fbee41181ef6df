(* Structured run traces: the one event stream of a run.

   Components record typed events (real-time, node, event); tests, the CLI,
   the invariant monitor and the fuzz oracle filter, pretty-print, export
   and judge them. A trace records only the kinds its creator asked for: the
   mask is one int, and emit sites test [wants] before building an event, so
   a kind nobody records costs one branch and no allocation.

   Events carry their data *unformatted* — ints, floats and the strings that
   already exist (values, message-kind literals). Rendering to text happens
   only in [pp]/[to_jsonl]. *)

module Kind = struct
  type t =
    | Send | Deliver | Drop | Propose | Ia_invoke | Ia_reject | Ia_skip
    | I_accept | Anchor_set | Mb_accept | Mb_broadcaster | Broadcast
    | Agree_return | Ig3_failure | Scramble | Reform | Delay_surge | Duplicate
    | Retransmit | Dup_suppress | Retries_exhausted | Service_admit
    | Service_shed | Service_queue | Service_mode | Session_evict | Eig_decide
    | Tps_return

  let all =
    [
      Send; Deliver; Drop; Propose; Ia_invoke; Ia_reject; Ia_skip; I_accept;
      Anchor_set; Mb_accept; Mb_broadcaster; Broadcast; Agree_return;
      Ig3_failure; Scramble; Reform; Delay_surge; Duplicate; Retransmit;
      Dup_suppress; Retries_exhausted; Service_admit; Service_shed;
      Service_queue; Service_mode; Session_evict; Eig_decide; Tps_return;
    ]

  (* Declaration order. The compiler turns this match into the identity on
     the constructor's immediate, and inlining it into [wants] leaves a
     constant mask test at every emit site. *)
  let[@inline] index = function
    | Send -> 0 | Deliver -> 1 | Drop -> 2 | Propose -> 3 | Ia_invoke -> 4
    | Ia_reject -> 5 | Ia_skip -> 6 | I_accept -> 7 | Anchor_set -> 8
    | Mb_accept -> 9 | Mb_broadcaster -> 10 | Broadcast -> 11
    | Agree_return -> 12 | Ig3_failure -> 13 | Scramble -> 14 | Reform -> 15
    | Delay_surge -> 16 | Duplicate -> 17 | Retransmit -> 18
    | Dup_suppress -> 19 | Retries_exhausted -> 20 | Service_admit -> 21
    | Service_shed -> 22 | Service_queue -> 23 | Service_mode -> 24
    | Session_evict -> 25 | Eig_decide -> 26 | Tps_return -> 27

  let names =
    [|
      "send"; "deliver"; "drop"; "propose"; "ia-invoke"; "ia-k1-reject";
      "ia-n4-skip"; "i-accept"; "anchor-set"; "mb-accept"; "mb-broadcaster";
      "broadcast"; "agree-return"; "ig3-failure"; "scramble"; "reform";
      "delay-surge"; "duplicate"; "retransmit"; "dup-suppress";
      "retries-exhausted"; "service-admit"; "service-shed"; "service-queue";
      "service-mode"; "session-evict"; "eig-decide"; "tps-return";
    |]

  let name k = names.(index k)
end

type event =
  | Send of { src : int; dst : int; msg : string }
  | Deliver of { src : int; dst : int; msg : string }
  | Drop of { src : int; dst : int; msg : string; reason : string }
  | Propose of { g : int; v : string }
  | Ia_invoke of { g : int; v : string }
  | Ia_reject of { g : int; v : string }
  | Ia_skip of { g : int; reason : string }
  | I_accept of { g : int; v : string; tau_g : float; tau : float }
  | Anchor_set of { g : int; tau_g : float }
  | Mb_accept of { g : int; p : int; v : string; k : int; tau : float; tau_g : float }
  | Mb_broadcaster of { g : int; p : int; total : int; tau : float }
  | Broadcast of { g : int; v : string; k : int; tau : float }
  | Agree_return of { g : int; decided : string option; tau_g : float }
  | Ig3_failure of { g : int }
  | Scramble of { garbage : int }
  | Reform of { node : int }
      (* a Byzantine node rejoined the correct protocol from arbitrary state *)
  | Delay_surge of { factor : float }
      (* delivery delays scaled by [factor]; 0.0 marks the restore *)
  | Duplicate of { src : int; dst : int; msg : string }
      (* network-level duplication fault: a second copy of a sent message *)
  | Retransmit of { src : int; dst : int; msg : string; attempt : int }
      (* transport resending an unacked frame; [attempt] is 1-based *)
  | Dup_suppress of { src : int; dst : int; seq : int }
      (* transport receive-side dedup dropped an already-seen frame *)
  | Retries_exhausted of { src : int; dst : int; msg : string; seq : int }
      (* transport gave up on an unacked frame after the retry cap *)
  | Service_admit of { g : int; live : int }
      (* service admission controller let a proposal through *)
  | Service_shed of { g : int; reason : string }
      (* service admission controller turned a proposal away *)
  | Service_queue of { g : int; depth : int }
      (* proposal parked in the bounded pending queue; [depth] after *)
  | Service_mode of { degraded : bool; live : int }
      (* overload detector flipped the service mode *)
  | Session_evict of { g : int }
      (* a full session table dropped G's live session to make room *)
  | Eig_decide of { v : string }
  | Tps_return of { decided : string option; phase : int }

let kind : event -> Kind.t = function
  | Send _ -> Send | Deliver _ -> Deliver | Drop _ -> Drop | Propose _ -> Propose
  | Ia_invoke _ -> Ia_invoke | Ia_reject _ -> Ia_reject | Ia_skip _ -> Ia_skip
  | I_accept _ -> I_accept | Anchor_set _ -> Anchor_set | Mb_accept _ -> Mb_accept
  | Mb_broadcaster _ -> Mb_broadcaster | Broadcast _ -> Broadcast
  | Agree_return _ -> Agree_return | Ig3_failure _ -> Ig3_failure
  | Scramble _ -> Scramble | Reform _ -> Reform | Delay_surge _ -> Delay_surge
  | Duplicate _ -> Duplicate | Retransmit _ -> Retransmit
  | Dup_suppress _ -> Dup_suppress | Retries_exhausted _ -> Retries_exhausted
  | Service_admit _ -> Service_admit | Service_shed _ -> Service_shed
  | Service_queue _ -> Service_queue | Service_mode _ -> Service_mode
  | Session_evict _ -> Session_evict | Eig_decide _ -> Eig_decide
  | Tps_return _ -> Tps_return

let kind_of_event e = Kind.name (kind e)

(* The only place event data is turned into text. *)
let detail_of_event = function
  | Send { src; dst; msg } | Deliver { src; dst; msg } ->
      Printf.sprintf "%s %d->%d" msg src dst
  | Drop { src; dst; msg; reason } ->
      Printf.sprintf "%s %d->%d (%s)" msg src dst reason
  | Propose { g; v } | Ia_invoke { g; v } | Ia_reject { g; v } ->
      Printf.sprintf "G=%d v=%S" g v
  | Ia_skip { g; reason } -> Printf.sprintf "G=%d %s" g reason
  | I_accept { g; v; tau_g; tau } ->
      Printf.sprintf "G=%d v=%S tauG=%.6f tau=%.6f" g v tau_g tau
  | Anchor_set { g; tau_g } -> Printf.sprintf "G=%d tauG=%.6f" g tau_g
  | Mb_accept { g; p; v; k; tau; tau_g } ->
      Printf.sprintf "G=%d p=%d v=%S k=%d tauG=%.6f tau=%.6f" g p v k tau_g tau
  | Mb_broadcaster { g; p; total; tau } ->
      Printf.sprintf "G=%d p=%d (total %d) tau=%.6f" g p total tau
  | Broadcast { g; v; k; tau } -> Printf.sprintf "G=%d v=%S k=%d tau=%.6f" g v k tau
  | Agree_return { g; decided = Some v; tau_g } ->
      Printf.sprintf "G=%d decided %S tauG=%.6f" g v tau_g
  | Agree_return { g; decided = None; tau_g } ->
      Printf.sprintf "G=%d aborted tauG=%.6f" g tau_g
  | Ig3_failure { g } -> Printf.sprintf "logical G=%d quiet for Dreset" g
  | Scramble { garbage } -> Printf.sprintf "%d garbage messages" garbage
  | Reform { node } -> Printf.sprintf "node %d rejoins the correct protocol" node
  | Delay_surge { factor } ->
      if factor = 0.0 then "base delay restored"
      else Printf.sprintf "delays scaled by %g" factor
  | Duplicate { src; dst; msg } -> Printf.sprintf "%s %d->%d (dup)" msg src dst
  | Retransmit { src; dst; msg; attempt } ->
      Printf.sprintf "%s %d->%d (attempt %d)" msg src dst attempt
  | Dup_suppress { src; dst; seq } ->
      Printf.sprintf "%d->%d seq=%d" src dst seq
  | Retries_exhausted { src; dst; msg; seq } ->
      Printf.sprintf "%s %d->%d seq=%d (gave up)" msg src dst seq
  | Service_admit { g; live } -> Printf.sprintf "G=%d live=%d" g live
  | Service_shed { g; reason } -> Printf.sprintf "G=%d (%s)" g reason
  | Service_queue { g; depth } -> Printf.sprintf "G=%d depth=%d" g depth
  | Service_mode { degraded; live } ->
      Printf.sprintf "%s live=%d" (if degraded then "degraded" else "normal") live
  | Session_evict { g } -> Printf.sprintf "G=%d" g
  | Eig_decide { v } -> Printf.sprintf "decided %S" v
  | Tps_return { decided = Some v; phase } ->
      Printf.sprintf "decided %S at phase %d" v phase
  | Tps_return { decided = None; phase } -> Printf.sprintf "aborted at phase %d" phase

let equal_event (a : event) b = a = b

type entry = { time : float; node : int; event : event }

let entry_kind e = kind_of_event e.event
let entry_detail e = detail_of_event e.event

let equal_entry a b =
  Float.equal a.time b.time && a.node = b.node && equal_event a.event b.event

type t = { mutable entries : entry list; mask : int; mutable count : int }

let[@inline] bit k = 1 lsl Kind.index k

let create ?(enabled = true) ?kinds () =
  let kinds = match kinds with Some ks -> ks | None -> if enabled then Kind.all else [] in
  { entries = []; mask = List.fold_left (fun m k -> m lor bit k) 0 kinds; count = 0 }

let[@inline] wants t k = t.mask land bit k <> 0

let record t ~time ~node event =
  if wants t (kind event) then begin
    t.entries <- { time; node; event } :: t.entries;
    t.count <- t.count + 1
  end

let clear t =
  t.entries <- [];
  t.count <- 0

let count t = t.count

(* Entries in chronological order. *)
let to_list t = List.rev t.entries

let filter ?node ?kind t =
  let keep e =
    (match node with None -> true | Some n -> e.node = n)
    && match kind with None -> true | Some k -> String.equal (entry_kind e) k
  in
  List.filter keep (to_list t)

let pp_entry ppf e =
  let detail = entry_detail e in
  if e.node < 0 then Fmt.pf ppf "[%10.6f]  <sys>  %-12s %s" e.time (entry_kind e) detail
  else Fmt.pf ppf "[%10.6f]  n%-4d  %-12s %s" e.time e.node (entry_kind e) detail

let pp ppf t =
  List.iter (fun e -> Fmt.pf ppf "%a@." pp_entry e) (to_list t)

(* ----- JSONL export / import ------------------------------------------- *)

let i x = Json.Num (float_of_int x)
let json_of_decided = function Some v -> Json.Str v | None -> Json.Null

let fields_of_event = function
  | Send { src; dst; msg } | Deliver { src; dst; msg } ->
      [ ("src", i src); ("dst", i dst); ("msg", Json.Str msg) ]
  | Drop { src; dst; msg; reason } ->
      [ ("src", i src); ("dst", i dst); ("msg", Json.Str msg); ("reason", Json.Str reason) ]
  | Propose { g; v } | Ia_invoke { g; v } | Ia_reject { g; v } ->
      [ ("g", i g); ("v", Json.Str v) ]
  | Ia_skip { g; reason } -> [ ("g", i g); ("reason", Json.Str reason) ]
  | I_accept { g; v; tau_g; tau } ->
      [ ("g", i g); ("v", Json.Str v); ("tau_g", Json.Num tau_g); ("tau", Json.Num tau) ]
  | Anchor_set { g; tau_g } -> [ ("g", i g); ("tau_g", Json.Num tau_g) ]
  | Mb_accept { g; p; v; k; tau; tau_g } ->
      [
        ("g", i g); ("p", i p); ("v", Json.Str v); ("k", i k);
        ("tau", Json.Num tau); ("tau_g", Json.Num tau_g);
      ]
  | Mb_broadcaster { g; p; total; tau } ->
      [ ("g", i g); ("p", i p); ("total", i total); ("tau", Json.Num tau) ]
  | Broadcast { g; v; k; tau } ->
      [ ("g", i g); ("v", Json.Str v); ("k", i k); ("tau", Json.Num tau) ]
  | Agree_return { g; decided; tau_g } ->
      [ ("g", i g); ("decided", json_of_decided decided); ("tau_g", Json.Num tau_g) ]
  | Ig3_failure { g } -> [ ("g", i g) ]
  | Scramble { garbage } -> [ ("garbage", i garbage) ]
  | Reform { node } -> [ ("reformed", i node) ]
  | Delay_surge { factor } -> [ ("factor", Json.Num factor) ]
  | Duplicate { src; dst; msg } ->
      [ ("src", i src); ("dst", i dst); ("msg", Json.Str msg) ]
  | Retransmit { src; dst; msg; attempt } ->
      [ ("src", i src); ("dst", i dst); ("msg", Json.Str msg); ("attempt", i attempt) ]
  | Dup_suppress { src; dst; seq } ->
      [ ("src", i src); ("dst", i dst); ("seq", i seq) ]
  | Retries_exhausted { src; dst; msg; seq } ->
      [ ("src", i src); ("dst", i dst); ("msg", Json.Str msg); ("seq", i seq) ]
  | Service_admit { g; live } -> [ ("g", i g); ("live", i live) ]
  | Service_shed { g; reason } -> [ ("g", i g); ("reason", Json.Str reason) ]
  | Service_queue { g; depth } -> [ ("g", i g); ("depth", i depth) ]
  | Service_mode { degraded; live } ->
      [ ("degraded", Json.Bool degraded); ("live", i live) ]
  | Session_evict { g } -> [ ("g", i g) ]
  | Eig_decide { v } -> [ ("v", Json.Str v) ]
  | Tps_return { decided; phase } ->
      [ ("decided", json_of_decided decided); ("phase", i phase) ]

let json_of_entry e =
  Json.Obj
    (("time", Json.Num e.time)
    :: ("node", i e.node)
    :: ("kind", Json.Str (entry_kind e))
    :: fields_of_event e.event)

exception Import_error of string

let event_of_json ~kind j =
  let get name = Json.member name j in
  let req to_x name =
    match Option.bind (get name) to_x with
    | Some x -> x
    | None -> raise (Import_error (Printf.sprintf "missing/bad field %S for %S" name kind))
  in
  let gi = req Json.to_int_opt in
  let gs = req Json.to_string_opt in
  let gf = req Json.to_float_opt in
  let decided () =
    match get "decided" with
    | Some (Json.Str v) -> Some v
    | Some Json.Null | None -> None
    | Some _ -> raise (Import_error "bad decided field")
  in
  match kind with
  | "send" -> Send { src = gi "src"; dst = gi "dst"; msg = gs "msg" }
  | "deliver" -> Deliver { src = gi "src"; dst = gi "dst"; msg = gs "msg" }
  | "drop" ->
      Drop { src = gi "src"; dst = gi "dst"; msg = gs "msg"; reason = gs "reason" }
  | "propose" -> Propose { g = gi "g"; v = gs "v" }
  | "ia-invoke" -> Ia_invoke { g = gi "g"; v = gs "v" }
  | "ia-k1-reject" -> Ia_reject { g = gi "g"; v = gs "v" }
  | "ia-n4-skip" -> Ia_skip { g = gi "g"; reason = gs "reason" }
  | "i-accept" -> I_accept { g = gi "g"; v = gs "v"; tau_g = gf "tau_g"; tau = gf "tau" }
  | "anchor-set" -> Anchor_set { g = gi "g"; tau_g = gf "tau_g" }
  | "mb-accept" ->
      Mb_accept
        { g = gi "g"; p = gi "p"; v = gs "v"; k = gi "k"; tau = gf "tau"; tau_g = gf "tau_g" }
  | "mb-broadcaster" ->
      Mb_broadcaster { g = gi "g"; p = gi "p"; total = gi "total"; tau = gf "tau" }
  | "broadcast" -> Broadcast { g = gi "g"; v = gs "v"; k = gi "k"; tau = gf "tau" }
  | "agree-return" -> Agree_return { g = gi "g"; decided = decided (); tau_g = gf "tau_g" }
  | "ig3-failure" -> Ig3_failure { g = gi "g" }
  | "scramble" -> Scramble { garbage = gi "garbage" }
  | "reform" -> Reform { node = gi "reformed" }
  | "delay-surge" -> Delay_surge { factor = gf "factor" }
  | "duplicate" -> Duplicate { src = gi "src"; dst = gi "dst"; msg = gs "msg" }
  | "retransmit" ->
      Retransmit
        { src = gi "src"; dst = gi "dst"; msg = gs "msg"; attempt = gi "attempt" }
  | "dup-suppress" ->
      Dup_suppress { src = gi "src"; dst = gi "dst"; seq = gi "seq" }
  | "retries-exhausted" ->
      Retries_exhausted
        { src = gi "src"; dst = gi "dst"; msg = gs "msg"; seq = gi "seq" }
  | "service-admit" -> Service_admit { g = gi "g"; live = gi "live" }
  | "service-shed" -> Service_shed { g = gi "g"; reason = gs "reason" }
  | "service-queue" -> Service_queue { g = gi "g"; depth = gi "depth" }
  | "service-mode" ->
      Service_mode
        {
          degraded =
            (match Json.member "degraded" j with
            | Some (Json.Bool b) -> b
            | _ -> raise (Import_error "bad degraded field"));
          live = gi "live";
        }
  | "session-evict" -> Session_evict { g = gi "g" }
  | "eig-decide" -> Eig_decide { v = gs "v" }
  | "tps-return" -> Tps_return { decided = decided (); phase = gi "phase" }
  | kind -> raise (Import_error (Printf.sprintf "unknown kind %S" kind))

let entry_of_json j =
  let req to_x name =
    match Option.bind (Json.member name j) to_x with
    | Some x -> x
    | None -> raise (Import_error (Printf.sprintf "missing/bad entry field %S" name))
  in
  let kind = req Json.to_string_opt "kind" in
  {
    time = req Json.to_float_opt "time";
    node = req Json.to_int_opt "node";
    event = event_of_json ~kind j;
  }

(* One JSON object per line, chronological. *)
let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Json.to_buffer buf (json_of_entry e);
      Buffer.add_char buf '\n')
    (to_list t);
  Buffer.contents buf

let entries_of_jsonl s =
  String.split_on_char '\n' s
  |> List.filter (fun line -> String.trim line <> "")
  |> List.map (fun line ->
         match Json.of_string line with
         | j -> entry_of_json j
         | exception Json.Parse_error msg -> raise (Import_error msg))
