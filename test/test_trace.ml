(* Tests for structured traces: typed events, lazy rendering, JSONL export
   and re-import. *)

open Helpers
module Trace = Ssba_sim.Trace
module Json = Ssba_sim.Json

(* A cheap distinct event per (kind) for the bookkeeping tests. *)
let ev_a = Trace.Propose { g = 0; v = "a" }
let ev_b = Trace.Ig3_failure { g = 1 }

let test_chronological () =
  let t = Trace.create () in
  Trace.record t ~time:1.0 ~node:0 ev_a;
  Trace.record t ~time:2.0 ~node:1 ev_b;
  let kinds = List.map Trace.entry_kind (Trace.to_list t) in
  check_bool "chronological order" true (kinds = [ "propose"; "ig3-failure" ])

let test_filter_by_node () =
  let t = Trace.create () in
  Trace.record t ~time:1.0 ~node:0 ev_a;
  Trace.record t ~time:2.0 ~node:1 ev_a;
  Trace.record t ~time:3.0 ~node:0 ev_b;
  check_int "node filter" 2 (List.length (Trace.filter ~node:0 t));
  check_int "kind filter" 2 (List.length (Trace.filter ~kind:"propose" t));
  check_int "combined filter" 1
    (List.length (Trace.filter ~node:0 ~kind:"propose" t))

let test_kind_mask () =
  let off = Trace.create ~enabled:false () in
  Trace.record off ~time:1.0 ~node:0 ev_a;
  check_int "disabled drops" 0 (Trace.count off);
  let on = Trace.create ~enabled:true () in
  Trace.record on ~time:1.0 ~node:0 ev_a;
  Trace.record on ~time:2.0 ~node:0 ev_b;
  check_int "enabled records every kind" 2 (Trace.count on);
  let some = Trace.create ~kinds:[ Trace.Kind.Propose ] () in
  check_bool "wants a listed kind" true (Trace.wants some Trace.Kind.Propose);
  check_bool "not an unlisted one" false (Trace.wants some Trace.Kind.Ig3_failure);
  Trace.record some ~time:1.0 ~node:0 ev_a;
  Trace.record some ~time:2.0 ~node:0 ev_b;
  check_bool "records only the listed kind" true
    (List.map Trace.entry_kind (Trace.to_list some) = [ "propose" ]);
  check_bool "kinds override enabled" false
    (Trace.wants (Trace.create ~enabled:true ~kinds:[] ()) Trace.Kind.Propose)

let test_clear () =
  let t = Trace.create () in
  Trace.record t ~time:1.0 ~node:0 ev_a;
  Trace.clear t;
  check_int "cleared" 0 (Trace.count t);
  check_bool "empty list" true (Trace.to_list t = [])

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_pp () =
  let t = Trace.create () in
  Trace.record t ~time:1.5 ~node:2 (Trace.Eig_decide { v = "hello" });
  Trace.record t ~time:2.0 ~node:(-1) (Trace.Scramble { garbage = 7 });
  let s = Fmt.str "%a" Trace.pp t in
  check_bool "mentions node" true (contains ~needle:"n2" s);
  check_bool "mentions kind" true (contains ~needle:"eig-decide" s);
  check_bool "renders detail" true (contains ~needle:"hello" s);
  check_bool "system entries tagged" true (contains ~needle:"<sys>" s)

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* The zero-allocation contract: recording never renders. A kind outside
   the mask allocates nothing at all, and a recorded one allocates only its
   entry and list cell (7 words) — formatting the detail string would cost
   several times that. *)
let test_lazy_rendering () =
  let ev = Trace.I_accept { g = 1; v = "m"; tau_g = 0.5; tau = 0.75 } in
  let record_1000 t () =
    for _ = 1 to 1000 do
      Trace.record t ~time:0.0 ~node:0 ev
    done
  in
  check_float "disabled trace allocates nothing" 0.0
    (minor_words (record_1000 (Trace.create ~enabled:false ())));
  check_float "unlisted kind allocates nothing" 0.0
    (minor_words (record_1000 (Trace.create ~kinds:[ Trace.Kind.Send ] ())));
  let on = Trace.create () in
  check_bool "recording allocates only the entry" true
    (minor_words (record_1000 on) <= 7.0 *. 1000.0);
  check_int "all recorded" 1000 (Trace.count on)

let sample_events =
  [
    Trace.Send { src = 0; dst = 3; msg = "echo" };
    Trace.Deliver { src = 0; dst = 3; msg = "echo" };
    Trace.Drop { src = 2; dst = 5; msg = "init'"; reason = "partition" };
    Trace.Propose { g = 1; v = "m" };
    Trace.Ia_invoke { g = 1; v = "m" };
    Trace.Ia_reject { g = 1; v = "stale" };
    Trace.Ia_skip { g = 4; reason = "no live recording time" };
    Trace.I_accept { g = 1; v = "m"; tau_g = 0.12345; tau = 0.2 };
    Trace.Anchor_set { g = 1; tau_g = 0.12345 };
    Trace.Mb_accept { g = 1; p = 2; v = "m"; k = 1; tau = 0.25; tau_g = 0.12345 };
    Trace.Mb_broadcaster { g = 1; p = 2; total = 5; tau = 0.3 };
    Trace.Broadcast { g = 1; v = "m"; k = 1; tau = 0.2 };
    Trace.Agree_return { g = 1; decided = Some "m"; tau_g = 0.12345 };
    Trace.Agree_return { g = 2; decided = None; tau_g = 1.5 };
    Trace.Ig3_failure { g = 3 };
    Trace.Scramble { garbage = 150 };
    Trace.Reform { node = 4 };
    Trace.Delay_surge { factor = 2.5 };
    Trace.Duplicate { src = 1; dst = 2; msg = "echo" };
    Trace.Retransmit { src = 1; dst = 2; msg = "echo"; attempt = 2 };
    Trace.Dup_suppress { src = 1; dst = 2; seq = 17 };
    Trace.Retries_exhausted { src = 1; dst = 2; msg = "echo"; seq = 18 };
    Trace.Service_admit { g = 3; live = 2 };
    Trace.Service_shed { g = 3; reason = "watermark" };
    Trace.Service_queue { g = 3; depth = 1 };
    Trace.Service_mode { degraded = true; live = 4 };
    Trace.Session_evict { g = 5 };
    Trace.Eig_decide { v = "m" };
    Trace.Tps_return { decided = Some "m"; phase = 3 };
    Trace.Tps_return { decided = None; phase = 4 };
  ]

let test_samples_cover_every_kind () =
  List.iter
    (fun k ->
      if not (List.exists (fun ev -> Trace.kind ev = k) sample_events) then
        Alcotest.failf "no sample event of kind %s" (Trace.Kind.name k))
    Trace.Kind.all

(* Round trip: typed events -> JSONL -> parse -> structurally equal. *)
let test_jsonl_round_trip () =
  let t = Trace.create () in
  List.iteri
    (fun i ev -> Trace.record t ~time:(0.25 *. float_of_int i) ~node:(i mod 4) ev)
    sample_events;
  let original = Trace.to_list t in
  let jsonl = Trace.to_jsonl t in
  let parsed = Trace.entries_of_jsonl jsonl in
  check_int "entry count survives" (List.length original) (List.length parsed);
  List.iter2
    (fun a b ->
      if not (Trace.equal_entry a b) then
        Alcotest.failf "round trip mismatch: %a vs %a" Trace.pp_entry a
          Trace.pp_entry b)
    original parsed

let test_jsonl_is_parseable_json () =
  let t = Trace.create () in
  List.iter (fun ev -> Trace.record t ~time:1.0 ~node:0 ev) sample_events;
  let lines =
    String.split_on_char '\n' (Trace.to_jsonl t)
    |> List.filter (fun l -> l <> "")
  in
  check_int "one line per entry" (Trace.count t) (List.length lines);
  List.iter
    (fun line ->
      let j = Json.of_string line in
      check_bool "time field" true (Json.member "time" j <> None);
      check_bool "node field" true (Json.member "node" j <> None);
      check_bool "kind field" true
        (match Json.member "kind" j with
        | Some (Json.Str _) -> true
        | _ -> false))
    lines

let test_import_rejects_garbage () =
  let bad () = ignore (Trace.entries_of_jsonl "{\"not\": \"a trace\"}") in
  (match bad () with
  | () -> Alcotest.fail "expected Import_error"
  | exception Trace.Import_error _ -> ());
  match Trace.entries_of_jsonl "" with
  | [] -> ()
  | _ -> Alcotest.fail "empty input should parse to no entries"

let test_unknown_kind_rejected () =
  let line = {|{"time":1.0,"node":2,"kind":"from-the-future","detail":"payload"}|} in
  match Trace.entries_of_jsonl line with
  | _ -> Alcotest.fail "expected Import_error"
  | exception Trace.Import_error _ -> ()

let test_equal_event () =
  check_bool "equal" true
    (Trace.equal_event
       (Trace.Send { src = 0; dst = 1; msg = "echo" })
       (Trace.Send { src = 0; dst = 1; msg = "echo" }));
  check_bool "different payload" false
    (Trace.equal_event
       (Trace.Send { src = 0; dst = 1; msg = "echo" })
       (Trace.Send { src = 0; dst = 2; msg = "echo" }));
  check_bool "different constructors" false
    (Trace.equal_event (Trace.Ig3_failure { g = 0 }) (Trace.Scramble { garbage = 0 }))

let suite =
  [
    case "chronological" test_chronological;
    case "filters" test_filter_by_node;
    case "per-kind mask" test_kind_mask;
    case "clear" test_clear;
    case "pretty printing" test_pp;
    case "lazy rendering" test_lazy_rendering;
    case "samples cover every kind" test_samples_cover_every_kind;
    case "jsonl round trip" test_jsonl_round_trip;
    case "jsonl parses as json" test_jsonl_is_parseable_json;
    case "import rejects garbage" test_import_rejects_garbage;
    case "unknown kind rejected" test_unknown_kind_rejected;
    case "event equality" test_equal_event;
  ]
