(** Schedule quality metrics.

    The paper's figures plot the speedup over the fastest processor's
    sequential time (§5.2); this module computes that ratio along with the
    supporting quantities the analysis discusses (communication counts,
    load balance, idle time). *)

type t = {
  makespan : float;
  sequential_time : float;
      (** total weight executed on the fastest processor *)
  speedup : float;  (** sequential_time / makespan *)
  speedup_bound : float;
      (** the platform's perfect-balance bound (7.6 on the paper platform) *)
  efficiency : float;  (** speedup / speedup_bound *)
  n_comm_events : int;
  total_comm_time : float;
  n_phases : int;  (** BSP comm phases (0 outside the BSP regime) *)
  total_phase_time : float;  (** sum of phase durations *)
  n_duplicates : int;  (** duplicate task copies (0 on single-copy schedules) *)
  total_dup_time : float;  (** execution time spent on duplicate copies *)
  total_busy_time : float;
      (** sum over processors of task execution time, duplicates included *)
  mean_utilization : float;
      (** total_busy_time / (p * makespan) *)
  proc_loads : float array;
      (** per-processor total execution time *)
  max_load_imbalance : float;
      (** max over processors of |load - balanced share| / makespan *)
}

val compute : Schedule.t -> t
val pp : Format.formatter -> t -> unit
