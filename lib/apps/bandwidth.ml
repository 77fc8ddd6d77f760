type direction = Host_to_device | Device_to_host

let direction_to_string = function
  | Host_to_device -> "host-to-device"
  | Device_to_host -> "device-to-host"

type result = {
  direction : direction;
  bytes : int;
  elapsed : Simnet.Time.t;
  mib_per_s : float;
}

let measure ?(total_bytes = 512 lsl 20) ?(chunk_bytes = 64 lsl 20) direction
    (env : Unikernel.Runner.env) =
  let client = env.Unikernel.Runner.client in
  let engine = env.Unikernel.Runner.engine in
  let chunk_bytes = min chunk_bytes total_bytes in
  let chunks = (total_bytes + chunk_bytes - 1) / chunk_bytes in
  let d_buf = Cricket.Client.malloc client chunk_bytes in
  let payload = Bytes.make chunk_bytes '\x5a' in
  (* warm-up transfer, as bandwidthTest does *)
  Cricket.Client.memcpy_h2d client ~dst:d_buf
    (Bytes.sub payload 0 (min chunk_bytes (1 lsl 20)));
  Cricket.Client.device_synchronize client;
  let t0 = Simnet.Engine.now engine in
  (match direction with
  | Host_to_device ->
      for _ = 1 to chunks do
        Cricket.Client.memcpy_h2d client ~dst:d_buf payload
      done
  | Device_to_host ->
      for _ = 1 to chunks do
        ignore (Cricket.Client.memcpy_d2h client ~src:d_buf ~len:chunk_bytes)
      done);
  Cricket.Client.device_synchronize client;
  let elapsed = Simnet.Time.sub (Simnet.Engine.now engine) t0 in
  Cricket.Client.free client d_buf;
  let bytes = chunks * chunk_bytes in
  {
    direction;
    bytes;
    elapsed;
    mib_per_s =
      Float.of_int bytes /. 1048576.0 /. Simnet.Time.to_float_s elapsed;
  }

let run env =
  let client = env.Unikernel.Runner.client in
  let pattern = Workload.xorshift_bytes ~seed:7 (1 lsl 20) in
  let d = Cricket.Client.malloc client (Bytes.length pattern) in
  Cricket.Client.memcpy_h2d client ~dst:d pattern;
  let back =
    Cricket.Client.memcpy_d2h client ~src:d ~len:(Bytes.length pattern)
  in
  if not (Bytes.equal pattern back) then
    failwith "bandwidthTest: data corrupted in transit";
  Cricket.Client.free client d;
  let h2d = measure Host_to_device env in
  let d2h = measure Device_to_host env in
  (h2d, d2h)
