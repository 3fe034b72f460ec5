(** [mkdir_p dir] creates [dir] and any missing parents (mode 0o755); an
    existing directory is left as it is. Raises [Unix.Unix_error] when a
    component cannot be created. *)
val mkdir_p : string -> unit
