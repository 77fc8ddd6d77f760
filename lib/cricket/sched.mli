(** GPU-sharing scheduling policies.

    The paper's closing argument: mapping whole GPUs to single unikernels
    is wasteful, so Cricket manages shared access "through configurable
    schedulers". The one scheduler that serves shared GPUs is
    [Tenancy.Core], whose [Tenancy.Dispatch] implements these policies;
    the type lives here so that every layer above [Cricket] names the
    same three. *)

type policy =
  | Fifo  (** one arrival-order queue across all tenants *)
  | Round_robin  (** deficit round robin across tenants *)
  | Priority  (** strict priority classes, round robin within a class *)

val policy_to_string : policy -> string
