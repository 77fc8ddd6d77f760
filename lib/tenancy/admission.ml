type reject_reason = Over_quota | Overloaded | Lease_expired

let reject_to_string = function
  | Over_quota -> "over-quota"
  | Overloaded -> "overloaded"
  | Lease_expired -> "lease-expired"

exception Rejected of reject_reason

let () =
  Printexc.register_printer (function
    | Rejected r -> Some ("Tenancy.Admission.Rejected " ^ reject_to_string r)
    | _ -> None)

type config = {
  per_tenant_window : int;
  global_window : int;
  high_water : int;
}

let default = { per_tenant_window = 4; global_window = 4096; high_water = 2048 }

let unlimited =
  { per_tenant_window = max_int; global_window = max_int; high_water = max_int }

type stats = {
  admitted : int;
  rejected_quota : int;
  rejected_overload : int;
  shed : int;
}

type t = {
  config : config;
  per_tenant : int array;
  mutable total : int;
  mutable admitted : int;
  mutable rejected_quota : int;
  mutable rejected_overload : int;
  mutable shed : int;
}

let create ?(config = default) ~n_tenants () =
  if n_tenants < 1 then invalid_arg "Admission.create: n_tenants";
  if config.per_tenant_window < 1 || config.global_window < 1 then
    invalid_arg "Admission.create: windows must be positive";
  if config.high_water > config.global_window then
    invalid_arg "Admission.create: high_water > global_window";
  {
    config;
    per_tenant = Array.make n_tenants 0;
    total = 0;
    admitted = 0;
    rejected_quota = 0;
    rejected_overload = 0;
    shed = 0;
  }

let offer t ~tenant =
  let c = t.config in
  if t.total >= c.global_window then begin
    t.rejected_overload <- t.rejected_overload + 1;
    Error Overloaded
  end
  else if t.total >= c.high_water && t.per_tenant.(tenant) > 0 then begin
    t.rejected_overload <- t.rejected_overload + 1;
    t.shed <- t.shed + 1;
    Error Overloaded
  end
  else if t.per_tenant.(tenant) >= c.per_tenant_window then begin
    t.rejected_quota <- t.rejected_quota + 1;
    Error Over_quota
  end
  else begin
    t.per_tenant.(tenant) <- t.per_tenant.(tenant) + 1;
    t.total <- t.total + 1;
    t.admitted <- t.admitted + 1;
    Ok ()
  end

let complete t ~tenant =
  if t.per_tenant.(tenant) <= 0 then
    invalid_arg "Admission.complete: tenant has nothing in flight";
  t.per_tenant.(tenant) <- t.per_tenant.(tenant) - 1;
  t.total <- t.total - 1

let stats t =
  {
    admitted = t.admitted;
    rejected_quota = t.rejected_quota;
    rejected_overload = t.rejected_overload;
    shed = t.shed;
  }
