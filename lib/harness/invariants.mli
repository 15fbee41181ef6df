(** Primitive-level invariant monitor: validates the paper's §4/§5 property
    statements event-by-event from a run's trace (record {!kinds} through
    [Scenario.record]).

    Monitored: [IA-1] (A–D, given the correct General's initiation time),
    [IA-3] (relay: one I-accept drags all correct nodes along within 2d,
    anchors within 6d), [IA-4] (uniqueness/separation of anchors), [TPS-2]
    (unforgeability of accepted broadcasts), [TPS-3] (accept relay within two
    phases) and [TPS-4] (broadcaster detection). All real-time comparisons
    convert local anchors through the run's clocks, like the paper's rt(.)
    notation. *)

open Ssba_core.Types

(** The trace kinds the monitor reads: I-accepts, msgd-broadcast accepts,
    broadcaster detections and the nodes' own decision broadcasts. *)
val kinds : Ssba_sim.Trace.Kind.t list

(** Check [IA-1A]–[IA-1D] for one General known to have initiated (correctly)
    at real time [t0]. Returns violation descriptions; empty means the
    properties hold. *)
val check_ia_1 : Runner.result -> g:general -> t0:float -> string list

(** Check [IA-3] and [IA-4] across every observed General. *)
val check_ia_3_4 : Runner.result -> string list

(** Check [TPS-2], [TPS-3] and [TPS-4]. *)
val check_tps : Runner.result -> string list

(** {!check_ia_3_4} plus {!check_tps} ([IA-1] needs the initiation time and
    is checked separately). *)
val check : Runner.result -> string list
