type t = {
  name : string;
  num_inputs : int;
  num_outputs : int;
  num_gates : int;
  num_dff : int;
  num_nets : int;
  num_pins : int;
  depth : int;
  max_fanin : int;
  max_fanout : int;
}

let compute c =
  let num = Circuit.num_nodes c in
  let nets = ref 0 and pins = ref 0 and max_fi = ref 0 and max_fo = ref 0 in
  for i = 0 to num - 1 do
    let nd = Circuit.node c i in
    let fo = Array.length c.Circuit.fanouts.(i) in
    let fi = Array.length nd.Circuit.fanins in
    if fo > 0 || Circuit.is_output c i then incr nets;
    (* A net's pins: its driver plus each reader; chip-level I/O pins are
       counted once each, matching how IOBs consume pins after mapping. *)
    pins := !pins + fi;
    max_fi := max !max_fi fi;
    max_fo := max !max_fo fo
  done;
  pins := !pins + Array.length c.Circuit.inputs + Array.length c.Circuit.outputs;
  {
    name = c.Circuit.name;
    num_inputs = Array.length c.Circuit.inputs;
    num_outputs = Array.length c.Circuit.outputs;
    num_gates = Circuit.num_gates c;
    num_dff = Circuit.num_dff c;
    num_nets = !nets;
    num_pins = !pins;
    depth = Circuit.depth c;
    max_fanin = !max_fi;
    max_fanout = !max_fo;
  }

let pp fmt s =
  Format.fprintf fmt
    "@[<v>circuit %s@,  inputs  %d@,  outputs %d@,  gates   %d (%d DFF)@,\
    \  nets    %d@,  pins    %d@,  depth   %d@,  max fanin %d, max fanout %d@]"
    s.name s.num_inputs s.num_outputs s.num_gates s.num_dff s.num_nets
    s.num_pins s.depth s.max_fanin s.max_fanout
