(* Byzantine behaviour framework.

   A behaviour owns one node id and is installed instead of (or alongside) a
   correct protocol node. It gets raw access to the network — it may send any
   payload at any time, but only under its own authenticated identity
   (paper §2: sender identity cannot be tampered with once the network is
   correct). Installation registers the network handler for the node and may
   schedule autonomous activity on the engine. *)

open Ssba_core.Types

type env = {
  self : node_id;
  params : Ssba_core.Params.t;
  engine : Ssba_sim.Engine.t;
  rng : Ssba_sim.Rng.t;
  link : message Ssba_net.Link.t;
      (* the same sending surface correct nodes use: the raw network, or the
         reliable transport when the scenario runs over a faulty link *)
  clock : Ssba_sim.Clock.t;
}

type t = { name : string; install : env -> unit }

let make ~name install = { name; install }
let name t = t.name
let install t env = t.install env

(* Helpers shared by concrete strategies. *)

let send env ~dst payload = Ssba_net.Link.send env.link ~src:env.self ~dst payload

let send_to env ~dsts payload = List.iter (fun dst -> send env ~dst payload) dsts

let send_all env payload = Ssba_net.Link.broadcast env.link ~src:env.self payload

let at env ~time f = Ssba_sim.Engine.schedule env.engine ~at:time f

let after env ~delay f = Ssba_sim.Engine.schedule_after env.engine ~delay f

let every env ~period f =
  let rec tick () =
    f ();
    Ssba_sim.Engine.schedule_after env.engine ~delay:period tick
  in
  Ssba_sim.Engine.schedule_after env.engine ~delay:period tick

let on_message env f = Ssba_net.Link.set_handler env.link env.self f

(* Random plausible protocol message, for fuzzing/spam strategies. *)
let random_message env ~values =
  let rng = env.rng in
  let n = env.params.Ssba_core.Params.n in
  let f = env.params.Ssba_core.Params.f in
  let g = Ssba_sim.Rng.int rng n in
  let v = Ssba_sim.Rng.pick_list rng values in
  match Ssba_sim.Rng.int rng 9 with
  | 0 -> Initiator { g; v }
  | 1 -> Ia { kind = Support; g; v }
  | 2 -> Ia { kind = Approve; g; v }
  | 3 -> Ia { kind = Ready; g; v }
  | c ->
      let kind = match c with 4 -> Init | 5 -> Echo | 6 -> Init2 | _ -> Echo2 in
      let p = Ssba_sim.Rng.int rng n in
      let k = 1 + Ssba_sim.Rng.int rng (max 1 (f + 1)) in
      Mb { kind; p; g; v; k }
