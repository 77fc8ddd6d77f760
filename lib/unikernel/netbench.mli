(** Executable-stack bandwidth ablation (Figure 7 on the real stack).

    An iperf-style bulk upload from a guest configuration to the
    bare-metal GPU node over {!Tcpstack.Endpoint} + {!Tcpstack.Netdev},
    with offload feature bits negotiated from the configuration's host
    profile. Complements the {!Simnet.Netcost} closed form: same profile
    numbers, but segmentation, ACK clocking, congestion control and
    offload effects emerge from the stack. Used by [bench/figures.ml] and
    [benchctl offloads]. *)

type result = {
  name : string;
  offloads : Simnet.Offload.t;  (** negotiated, post dependency clamps *)
  bytes : int;
  elapsed : Simnet.Time.t;
      (** handshake completion to last byte delivered (virtual) *)
  bandwidth_mib_s : float;
  netdev : Tcpstack.Netdev.stats;
  client : Tcpstack.Endpoint.stats;
}

val upload :
  ?server:Simnet.Hostprofile.t ->
  ?link:Simnet.Link.t ->
  ?device:Simnet.Offload.t ->
  ?fault:Simnet.Fault.t ->
  name:string ->
  profile:Simnet.Hostprofile.t ->
  bytes:int ->
  unit ->
  result
(** One bulk upload on a fresh engine. Raises [Failure] if the transfer
    stalls (event queue dry before delivery). *)

val ablation :
  ?server:Simnet.Hostprofile.t ->
  ?link:Simnet.Link.t ->
  ?device:Simnet.Offload.t ->
  bytes:int ->
  unit ->
  result list
(** {!upload} for native and every hypervisor-hosted configuration in
    {!Config.all}. *)

val relative : baseline:result -> result list -> (result * float) list
(** Pair each result with its bandwidth as a fraction of [baseline]'s. *)

val pp_result : Format.formatter -> result -> unit
