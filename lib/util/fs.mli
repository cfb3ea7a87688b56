(** The two file-system operations the on-disk artifacts share: the
    characterization store's records and the [--metrics] snapshot. *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents; an existing one is fine. *)

val write_atomic : string -> (out_channel -> unit) -> unit
(** [write_atomic path f] writes through [f] into a temp file next to
    [path], then renames it onto [path]: a reader (or a kill mid-write)
    sees the old file or the complete new one, never a torn one.  The temp
    name [<path>.tmp.<pid>.<domain>.<n>] is unique per process, domain and
    call, so concurrent writers never share one.  On an exception the temp
    file is removed and the exception re-raised. *)
