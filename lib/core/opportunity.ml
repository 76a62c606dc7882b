type row = {
  benchmark : string;
  seq_vect : float;
  seq_nonvect : float;
  vec_vect : float;
  vec_nonvect : float;
  max_speedup : float;
}

let analyze ~(seq : Report.t) ~(vec : Report.t) ~width =
  let total = float_of_int (max 1 seq.Report.scalar_ops) in
  let kernel = float_of_int seq.Report.kernel_ops in
  let seq_vect = kernel /. total in
  let seq_nonvect = 1.0 -. seq_vect in
  let vec_vect = kernel /. float_of_int width /. total in
  let vec_nonvect = float_of_int vec.Report.scalar_ops /. total in
  let denom = vec_vect +. vec_nonvect in
  {
    benchmark = seq.Report.benchmark;
    seq_vect;
    seq_nonvect;
    vec_vect;
    vec_nonvect;
    max_speedup = (if denom <= 0.0 then 0.0 else 1.0 /. denom);
  }
