type policy = Fifo | Round_robin | Priority

let policy_to_string = function
  | Fifo -> "fifo"
  | Round_robin -> "round-robin"
  | Priority -> "priority"
