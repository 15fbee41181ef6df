(* Tests for the engine's monomorphic event queue.

   The queue is the engine's determinism keystone: events pop in ascending
   (at, seq) order, so two events at the same virtual time run in schedule
   (FIFO) order. The model test drives a random push/pop/clear sequence
   against a sorted-list reference and checks both the pop order and the
   closures' execution order. *)

open Helpers
module Q = Ssba_sim.Event_queue

let test_empty () =
  let q = Q.create () in
  check_bool "is_empty" true (Q.is_empty q);
  check_int "size" 0 (Q.size q);
  (match Q.min_at q with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "min_at on empty must raise");
  match Q.pop_run q with
  | exception Invalid_argument _ -> ()
  | (_ : unit -> unit) -> Alcotest.fail "pop_run on empty must raise"

let drain q =
  let acc = ref [] in
  while not (Q.is_empty q) do
    let at = Q.min_at q in
    (Q.pop_run q) ();
    acc := at :: !acc
  done;
  List.rev !acc

let test_pop_ascending () =
  let q = Q.create () in
  List.iteri
    (fun seq at -> Q.push q ~at ~seq (fun () -> ()))
    [ 3.0; 1.0; 2.0; 0.5; 1.0 ];
  check_bool "ascending at" true (drain q = [ 0.5; 1.0; 1.0; 2.0; 3.0 ])

let test_fifo_for_equal_at () =
  let q = Q.create () in
  let order = ref [] in
  for seq = 0 to 9 do
    Q.push q ~at:1.0 ~seq (fun () -> order := seq :: !order)
  done;
  ignore (drain q);
  check_bool "equal-at events run in push (seq) order" true
    (List.rev !order = List.init 10 Fun.id)

let test_growth () =
  let q = Q.create ~capacity:1 () in
  for seq = 1000 downto 1 do
    Q.push q ~at:(float_of_int seq) ~seq (fun () -> ())
  done;
  check_int "size after growth" 1000 (Q.size q);
  check_float "min correct" 1.0 (Q.min_at q)

let test_clear_and_reuse () =
  let q = Q.create () in
  let fired = ref false in
  Q.push q ~at:1.0 ~seq:0 (fun () -> fired := true);
  Q.push q ~at:2.0 ~seq:1 (fun () -> fired := true);
  Q.clear q;
  check_bool "cleared" true (Q.is_empty q);
  Q.push q ~at:5.0 ~seq:2 (fun () -> ());
  check_float "usable after clear" 5.0 (Q.min_at q);
  (Q.pop_run q) ();
  check_bool "cleared closures never run" false !fired

(* --- model test: random ops vs a sorted-list reference --- *)

type op = Push of float | Pop | Clear

let gen_ops =
  QCheck.Gen.(
    list
      (frequency
         [
           (* a small grid of times forces plenty of equal-at ties *)
           (5, map (fun i -> Push (float_of_int i /. 4.0)) (int_bound 8));
           (3, return Pop);
           (1, return Clear);
         ]))

let print_ops ops =
  String.concat ";"
    (List.map
       (function
         | Push at -> Printf.sprintf "push %.2f" at
         | Pop -> "pop"
         | Clear -> "clear")
       ops)

let arb_ops = QCheck.make ~print:print_ops gen_ops

(* (at, seq) lexicographic, the queue's documented order. *)
let cmp (a1, s1) (a2, s2) =
  if a1 < a2 then -1 else if a1 > a2 then 1 else Stdlib.Int.compare s1 s2

let prop_model =
  QCheck.Test.make ~name:"event queue matches sorted-list model" ~count:500
    arb_ops (fun ops ->
      let q = Q.create ~capacity:1 () in
      let seq = ref 0 in
      let model = ref [] in
      (* sorted by cmp *)
      let ran = ref [] in
      let expect = ref [] in
      let step op =
        match op with
        | Push at ->
            let s = !seq in
            incr seq;
            Q.push q ~at ~seq:s (fun () -> ran := s :: !ran);
            model := List.merge cmp [ (at, s) ] !model;
            true
        | Pop -> (
            match !model with
            | [] -> Q.is_empty q
            | (at, s) :: rest ->
                model := rest;
                expect := s :: !expect;
                Q.min_at q = at
                &&
                ((Q.pop_run q) ();
                 true))
        | Clear ->
            Q.clear q;
            model := [];
            true
      in
      List.for_all step ops
      && Q.size q = List.length !model
      &&
      ((* drain what's left and compare the full execution order *)
       List.iter
         (fun (_, s) ->
           expect := s :: !expect;
           (Q.pop_run q) ())
         !model;
       !ran = !expect && Q.is_empty q))

let suite =
  [
    case "empty queue" test_empty;
    case "pop ascending" test_pop_ascending;
    case "FIFO for equal at" test_fifo_for_equal_at;
    case "growth" test_growth;
    case "clear and reuse" test_clear_and_reuse;
    Helpers.qcheck prop_model;
  ]

(* --- the binary min-heap properties, held against the queue ---

   The queue is the engine's only heap. These cases check the heap-level
   contract the engine leans on beyond pop order: peeking does not remove,
   pushes and pops interleave, grown capacity survives clear and drain, and
   [size] counts pending sub-events while [entries] counts heap slots. *)

let test_peek () =
  let q = Q.create () in
  List.iteri (fun seq at -> Q.push q ~at ~seq (fun () -> ())) [ 3.0; 1.0; 2.0 ];
  check_float "min_at = min" 1.0 (Q.min_at q);
  check_int "min_at does not remove" 3 (Q.size q);
  check_float "min_at is stable" 1.0 (Q.min_at q)

let test_interleaved () =
  let q = Q.create () in
  let ran = ref [] in
  let push at seq = Q.push q ~at ~seq (fun () -> ran := at :: !ran) in
  let pop () =
    (Q.pop_run q) ();
    List.hd !ran
  in
  push 10.0 0;
  push 5.0 1;
  check_float "pop 5" 5.0 (pop ());
  push 1.0 2;
  push 7.0 3;
  check_float "pop 1" 1.0 (pop ());
  check_float "pop 7" 7.0 (pop ());
  check_float "pop 10" 10.0 (pop ());
  check_bool "empty again" true (Q.is_empty q)

let test_capacity_survives_clear () =
  let q = Q.create ~capacity:2 () in
  for seq = 1 to 500 do
    Q.push q ~at:(float_of_int seq) ~seq (fun () -> ())
  done;
  let grown = Q.capacity q in
  check_bool "grew past the hint" true (grown >= 500);
  Q.clear q;
  check_int "capacity kept across clear" grown (Q.capacity q);
  Q.push q ~at:1.0 ~seq:501 (fun () -> ());
  check_int "next push reuses the kept capacity" grown (Q.capacity q)

let test_capacity_survives_drain () =
  let q = Q.create ~capacity:2 () in
  for seq = 1 to 500 do
    Q.push q ~at:(float_of_int seq) ~seq (fun () -> ())
  done;
  let grown = Q.capacity q in
  while not (Q.is_empty q) do
    Q.pop_invoke q
  done;
  check_int "capacity kept across drain-to-empty" grown (Q.capacity q)

(* Equal times pop in seq order even when a fan-out batch's sub-events sit
   between plain entries at the same time. *)
let test_tie_break_with_seq () =
  let q = Q.create () in
  let ran = ref [] in
  let plain at seq = Q.push q ~at ~seq (fun () -> ran := (at, seq) :: !ran) in
  let b = Q.make_batch ~capacity:2 () in
  b.Q.b_ats.(0) <- 1.0;
  b.Q.b_seqs.(0) <- 1;
  b.Q.b_ats.(1) <- 1.0;
  b.Q.b_seqs.(1) <- 3;
  b.Q.b_count <- 2;
  b.Q.b_next <- 0;
  b.Q.b_fire <- (fun j -> ran := (b.Q.b_ats.(j), b.Q.b_seqs.(j)) :: !ran);
  plain 1.0 4;
  Q.push_batch q b;
  plain 1.0 0;
  plain 0.5 5;
  plain 1.0 2;
  while not (Q.is_empty q) do
    Q.pop_invoke q
  done;
  check_bool "order" true
    (List.rev !ran = [ (0.5, 5); (1.0, 0); (1.0, 1); (1.0, 2); (1.0, 3); (1.0, 4) ])

(* Each odd element pushes a fan-out batch of up to four sub-events, each
   even one a plain event: [size] counts sub-events, [entries] heap slots,
   and draining fires every sub-event exactly once. *)
let prop_size =
  QCheck.Test.make ~name:"heap size tracks pushes" ~count:300
    QCheck.(list small_int)
    (fun l ->
      let q = Q.create ~capacity:1 () in
      let seq = ref 0 in
      let fired = ref 0 in
      let next_seq () =
        let s = !seq in
        incr seq;
        s
      in
      let subs x = if x land 1 = 0 then 1 else (x mod 4) + 1 in
      List.iter
        (fun x ->
          let at = float_of_int (x mod 7) in
          if x land 1 = 0 then
            Q.push q ~at ~seq:(next_seq ()) (fun () -> incr fired)
          else begin
            let n = subs x in
            let b = Q.make_batch ~capacity:n () in
            for i = 0 to n - 1 do
              b.Q.b_ats.(i) <- at +. float_of_int i;
              b.Q.b_seqs.(i) <- next_seq ()
            done;
            b.Q.b_count <- n;
            b.Q.b_fire <- (fun _ -> incr fired);
            Q.push_batch q b
          end)
        l;
      let total = List.fold_left (fun acc x -> acc + subs x) 0 l in
      let sized = Q.size q = total && Q.entries q = List.length l in
      while not (Q.is_empty q) do
        Q.pop_invoke q
      done;
      sized && !fired = total && Q.entries q = 0)

let heap_suite =
  [
    case "peek" test_peek;
    case "interleaved" test_interleaved;
    case "capacity survives clear" test_capacity_survives_clear;
    case "capacity survives drain" test_capacity_survives_drain;
    case "tie-break with seq" test_tie_break_with_seq;
    Helpers.qcheck prop_size;
  ]
