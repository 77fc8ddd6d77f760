module Engine = Simnet.Engine
module Time = Simnet.Time
module Fault = Simnet.Fault

type t = {
  engine : Engine.t;
  link : Simnet.Link.t;
  fault : Fault.t option;
  mutable delivered : int;
  (* last scheduled delivery per direction: the wire is FIFO, so a short
     segment must not overtake a long one sent before it *)
  mutable last_delivery_ab : Time.t;
  mutable last_delivery_ba : Time.t;
}

(* Fixed fake addresses for the pseudo-header; direction-dependent. *)
let ip_a = 0x0a000001l
let ip_b = 0x0a000002l

let connect ~engine ~link ?fault a b =
  let t =
    { engine; link; fault; delivered = 0;
      last_delivery_ab = Time.zero; last_delivery_ba = Time.zero }
  in
  let wire ~src_ip ~dst_ip peer seg =
    let decision =
      match t.fault with
      | None -> Fault.Pass
      | Some f -> Fault.decide ~now:(Engine.now t.engine) f
    in
    match decision with
    | Fault.Drop -> ()
    | (Fault.Pass | Fault.Duplicate | Fault.Corrupt | Fault.Delay _) as d ->
        let bytes = Segment.encode ~src_ip ~dst_ip seg in
        (match d with
        | Fault.Corrupt ->
            (* flip a payload/header bit; checksum verification must reject *)
            let i = Bytes.length bytes / 2 in
            Bytes.set bytes i
              (Char.chr (Char.code (Bytes.get bytes i) lxor 0x40))
        | _ -> ());
        let extra = match d with Fault.Delay x -> x | _ -> Time.zero in
        let delay =
          Time.add extra
            (Time.add
               (Time.ns t.link.Simnet.Link.latency_ns)
               (Time.of_float_ns
                  (Simnet.Link.serialize_ns t.link
                     ~payload:(Bytes.length bytes) ~packets:1)))
        in
        let deliver () =
          (* FIFO per direction: never deliver before an earlier segment *)
          let earliest = Time.add (Engine.now t.engine) delay in
          let arrival =
            if Int32.equal src_ip ip_a then begin
              let a =
                if Time.compare earliest t.last_delivery_ab > 0 then earliest
                else Time.add t.last_delivery_ab (Time.ns 1)
              in
              t.last_delivery_ab <- a;
              a
            end
            else begin
              let a =
                if Time.compare earliest t.last_delivery_ba > 0 then earliest
                else Time.add t.last_delivery_ba (Time.ns 1)
              in
              t.last_delivery_ba <- a;
              a
            end
          in
          Engine.schedule_at t.engine arrival (fun () ->
              match Segment.decode ~src_ip ~dst_ip bytes with
              | Ok seg ->
                  t.delivered <- t.delivered + 1;
                  Endpoint.on_segment peer seg
              | Error _ -> (* dropped by checksum verification *) ())
        in
        deliver ();
        (match d with Fault.Duplicate -> deliver () | _ -> ())
  in
  Endpoint.set_tx a (fun seg -> wire ~src_ip:ip_a ~dst_ip:ip_b b seg);
  Endpoint.set_tx b (fun seg -> wire ~src_ip:ip_b ~dst_ip:ip_a a seg);
  t

let delivered t = t.delivered
let fault_stats t = Option.map Fault.stats t.fault
