(** Small statistics helpers over float arrays/lists. *)

val mean : float array -> float
(** 0 on empty input. *)

val percentile : float array -> float -> float
(** [percentile a p] with [p] in [\[0,100\]], nearest-rank on a sorted copy.
    0 on empty input. *)

val coefficient_of_variation : float array -> float
(** stddev / mean; 0 when the mean is 0. Burstiness measure used for the
    application-gateway traces (Fig 7). *)

val jain_fairness : float array -> float
(** Jain's fairness index: (Σx)² / (n·Σx²); 1.0 = perfectly fair. Used by the
    fair-sharing experiment (Fig 9). *)
