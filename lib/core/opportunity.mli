(** Amdahl opportunity analysis (paper §6.4, Table 3).

    From the measured sequential and vectorized runs:
    - the sequential instruction stream splits into kernel (vectorizable)
      and task-management (not) instructions;
    - a modeled perfect vectorization shrinks the kernel side by the
      vector width while keeping the transformed code's measured scalar
      side;
    - the ratio bounds the achievable speedup. *)

type row = {
  benchmark : string;
  seq_vect : float;  (** vectorizable fraction of the sequential run *)
  seq_nonvect : float;
  vec_vect : float;  (** kernel fraction after perfect width-x shrink *)
  vec_nonvect : float;  (** measured scalar fraction of the transformed run *)
  max_speedup : float;
}

val analyze : seq:Report.t -> vec:Report.t -> width:int -> row
(** [seq] must be a {!Seq_exec} report (its [kernel_ops]/[scalar_ops]
    carry the split); [vec] a vectorized {!Engine} report. *)
