(* Reliable transport over a persistently faulty link.

   The paper's channel model (§2, Def. 2) gives every message between correct
   nodes a delivery bound delta once the network is coherent. This layer
   recovers that abstraction on top of a link that stays lossy (and
   duplicating, and reordering) forever, in the style of the self-stabilizing
   reliable-broadcast constructions of Duvignau, Raynal & Schiller
   (arXiv:2201.12880): per-ordered-pair sequence numbers, ack-driven
   retransmission with exponential backoff and a retry cap, and a bounded
   receive-side dedup cache.

   Every piece of state is a fixed-size array — next-seq counters, in-flight
   window rings, dedup rings — so a state scramble (the incoherent-period
   fault model) corrupts values but never capacity, and the corruption washes
   out as real traffic overwrites the rings:

   - a corrupted next_seq just starts a fresh seq range; the receiver's dedup
     check is seq-exact, so unseen seqs flow through;
   - a corrupted dedup slot wrongly suppresses at most the one future frame
     whose seq lands on that value before traffic overwrites the slot — the
     same effect as one lost message during the incoherent period, which the
     protocol already masks;
   - a corrupted pending slot retransmits garbage seqs for at most
     [retries] backoff steps and then expires.

   Accounting: all transport traffic (data, retransmissions, acks) goes
   through [Network.send], so the network's conservation identity
   [attempts = delivered + dropped + in_flight] keeps holding verbatim.
   The transport adds its own counters: [transport.retransmits],
   [transport.dup_suppressed], [transport.expired], [transport.evicted],
   [transport.acks]. *)

module Rng = Ssba_sim.Rng
module Engine = Ssba_sim.Engine
module Trace = Ssba_sim.Trace
module Metrics = Ssba_sim.Metrics
module Msg = Ssba_net.Msg
module Link = Ssba_net.Link
module Network = Ssba_net.Network

type 'a frame = Data of { seq : int; payload : 'a } | Ack of { seq : int }

let kind_of payload_kind = function
  | Data { payload; _ } -> payload_kind payload
  | Ack _ -> "ack"

type config = {
  rto : float;  (* first retransmission timeout; doubles each attempt *)
  retries : int;  (* max retransmissions per frame before giving up *)
  window : int;  (* per-ordered-pair in-flight entries (ring capacity) *)
  dedup : int;  (* per-ordered-pair receive dedup ring capacity *)
}

let config ?(retries = 12) ?(window = 64) ?(dedup = 256) ~rto () =
  if rto <= 0.0 then invalid_arg "Transport.config: rto must be positive";
  if retries < 0 then invalid_arg "Transport.config: retries must be >= 0";
  if window <= 0 then invalid_arg "Transport.config: window must be positive";
  if dedup <= 0 then invalid_arg "Transport.config: dedup must be positive";
  { rto; retries; window; dedup }

type 'a entry = { seq : int; payload : 'a; mutable attempt : int }

type 'a t = {
  engine : Engine.t;
  net : 'a frame Network.t;
  cfg : config;
  n : int;
  payload_kind : ('a -> string) option;  (* trace labels for Retransmit *)
  next_seq : int array array;  (* [src].[dst] *)
  pending : 'a entry option array array array;  (* [src].[dst].[seq mod window] *)
  seen : int array array array;  (* [dst].[src].[seq mod dedup]; -1 = empty *)
  handlers : ('a Msg.t -> unit) option array;  (* payload handlers, per node *)
  c_retransmits : Metrics.counter;
  c_dup_suppressed : Metrics.counter;
  c_expired : Metrics.counter;
  c_evicted : Metrics.counter;
  c_acks : Metrics.counter;
  c_retries_exhausted : Metrics.counter;
}

let retransmits t = Metrics.value t.c_retransmits
let dup_suppressed t = Metrics.value t.c_dup_suppressed
let expired t = Metrics.value t.c_expired
let evicted t = Metrics.value t.c_evicted
let acks t = Metrics.value t.c_acks
let retries_exhausted t = Metrics.value t.c_retries_exhausted
let config_of t = t.cfg

let payload_trace_msg t payload =
  match t.payload_kind with None -> "?" | Some f -> f payload

let retransmit_deadline cfg attempt =
  (* attempt = 0 is the original send; retransmission k fires at
     rto * 2^k past attempt k's send, i.e. backoff doubles per retry. *)
  cfg.rto *. ldexp 1.0 attempt

(* Retransmission timer for [e] on pair (src, dst). The slot is checked by
   physical equality: if the entry was acked, evicted, or replaced since the
   timer was armed, the timer is a no-op. *)
let rec arm_timer t ~src ~dst (e : 'a entry) ~delay =
  Engine.schedule_after t.engine ~delay (fun () ->
      let slot = (e.seq land max_int) mod t.cfg.window in
      match t.pending.(src).(dst).(slot) with
      | Some e' when e' == e ->
          if e.attempt >= t.cfg.retries then begin
            t.pending.(src).(dst).(slot) <- None;
            Metrics.incr t.c_expired;
            (* retry-cap exhaustion was previously silent: the frame's
               reliability is abandoned here, so say so. [c_expired] keeps
               its digest-visible meaning; this counter and the trace event
               are observability-only. *)
            Metrics.incr t.c_retries_exhausted;
            if Trace.wants (Engine.trace t.engine) Trace.Kind.Retries_exhausted then
              Engine.record t.engine ~node:src
                (Trace.Retries_exhausted
                   {
                     src;
                     dst;
                     msg = payload_trace_msg t e.payload;
                     seq = e.seq;
                   })
          end
          else begin
            e.attempt <- e.attempt + 1;
            Metrics.incr t.c_retransmits;
            if Trace.wants (Engine.trace t.engine) Trace.Kind.Retransmit then
              Engine.record t.engine ~node:src
                (Trace.Retransmit
                   {
                     src;
                     dst;
                     msg = payload_trace_msg t e.payload;
                     attempt = e.attempt;
                   });
            Network.send t.net ~src ~dst (Data { seq = e.seq; payload = e.payload });
            arm_timer t ~src ~dst e ~delay:(retransmit_deadline t.cfg e.attempt)
          end
      | _ -> ())

let send t ~src ~dst payload =
  let seq = t.next_seq.(src).(dst) in
  t.next_seq.(src).(dst) <- seq + 1;
  let slot = (seq land max_int) mod t.cfg.window in
  (match t.pending.(src).(dst).(slot) with
  | Some _ ->
      (* window overrun: the ring slot is reclaimed and the old frame's
         reliability is abandoned (it may still be in flight) *)
      Metrics.incr t.c_evicted
  | None -> ());
  let e = { seq; payload; attempt = 0 } in
  t.pending.(src).(dst).(slot) <- Some e;
  Network.send t.net ~src ~dst (Data { seq; payload });
  arm_timer t ~src ~dst e ~delay:t.cfg.rto

let broadcast t ~src payload =
  for dst = 0 to t.n - 1 do
    send t ~src ~dst payload
  done

(* Frame arrival at [node] (installed once per node on the underlying
   network). Acks clear the matching pending entry; data frames are acked
   unconditionally — even suppressed duplicates, because the duplicate means
   the previous ack was lost — then deduped and handed to the payload
   handler with the envelope (and its forged flag) preserved. *)
let on_frame t node (m : 'a frame Msg.t) =
  let peer = m.Msg.src in
  match m.Msg.payload with
  | Ack { seq } ->
      let slot = (seq land max_int) mod t.cfg.window in
      (match t.pending.(node).(peer).(slot) with
      | Some e when e.seq = seq -> t.pending.(node).(peer).(slot) <- None
      | _ -> ())
  | Data { seq; payload } ->
      Metrics.incr t.c_acks;
      Network.send t.net ~src:node ~dst:peer (Ack { seq });
      let ring = t.seen.(node).(peer) in
      let slot = (seq land max_int) mod t.cfg.dedup in
      if ring.(slot) = seq then begin
        Metrics.incr t.c_dup_suppressed;
        if Trace.wants (Engine.trace t.engine) Trace.Kind.Dup_suppress then
          Engine.record t.engine ~node
            (Trace.Dup_suppress { src = peer; dst = node; seq })
      end
      else begin
        ring.(slot) <- seq;
        match t.handlers.(node) with
        | Some h -> h (Msg.with_payload m payload)
        | None -> ()
      end

let create ?kind_of:payload_kind ~engine ~net ~config:cfg () =
  let n = Network.size net in
  let metrics = Engine.metrics engine in
  let t =
    {
      engine;
      net;
      cfg;
      n;
      payload_kind;
      next_seq = Array.make_matrix n n 0;
      pending = Array.init n (fun _ -> Array.init n (fun _ -> Array.make cfg.window None));
      seen = Array.init n (fun _ -> Array.init n (fun _ -> Array.make cfg.dedup (-1)));
      handlers = Array.make n None;
      c_retransmits = Metrics.counter metrics "transport.retransmits";
      c_dup_suppressed = Metrics.counter metrics "transport.dup_suppressed";
      c_expired = Metrics.counter metrics "transport.expired";
      c_evicted = Metrics.counter metrics "transport.evicted";
      c_acks = Metrics.counter metrics "transport.acks";
      c_retries_exhausted = Metrics.counter metrics "transport.retries_exhausted";
    }
  in
  for node = 0 to n - 1 do
    Network.set_handler net node (fun m -> on_frame t node m)
  done;
  t

let link t =
  {
    Link.n = t.n;
    send = (fun ~src ~dst payload -> send t ~src ~dst payload);
    broadcast = (fun ~src payload -> broadcast t ~src payload);
    set_handler = (fun node h -> t.handlers.(node) <- Some h);
    clear_handler = (fun node -> t.handlers.(node) <- None);
  }

(* Arbitrary-state corruption of the transport's own state (the transient
   fault model of Corollary 5): every counter, ring slot and pending entry
   may be overwritten with garbage *within its type* — capacities are part
   of the code, not the state, so they are not scrambled. Deterministic in
   [rng]. *)
let scramble t ~rng =
  let garbage_seq () = Rng.int rng 1_000_000 in
  for src = 0 to t.n - 1 do
    for dst = 0 to t.n - 1 do
      t.next_seq.(src).(dst) <- garbage_seq ();
      let ring = t.seen.(dst).(src) in
      for k = 0 to Array.length ring - 1 do
        if Rng.bool rng then ring.(k) <- garbage_seq ()
      done;
      let slots = t.pending.(src).(dst) in
      for k = 0 to Array.length slots - 1 do
        match slots.(k) with
        | None -> ()
        | Some e ->
            if Rng.bool rng then slots.(k) <- None
            else begin
              (* corrupt the retry budget; the seq is immutable in the entry,
                 but re-slotting it under a new timer chain is equivalent to a
                 corrupted in-flight record *)
              e.attempt <- Rng.int rng (t.cfg.retries + 1)
            end
      done
    done
  done
