(** Aligned text tables and CSV output for experiment harnesses. *)

type align = Left | Right

val render : ?align:align -> header:string list -> string list list -> string
(** Render rows under a header with column alignment and a rule line.
    Rows shorter than the header are padded with empty cells. *)

val print : ?align:align -> header:string list -> string list list -> unit

val csv : header:string list -> string list list -> string
(** RFC-4180-ish CSV (quotes fields containing commas/quotes/newlines). *)

val fmt_g : float -> string
(** Compact float rendering used across harness output (%.4g). *)
