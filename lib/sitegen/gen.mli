(** Site generation: realize a {!Profile.t} as a complete page.

    Large benign HTML-race counts are realized with one Ford-style polling
    pattern (n+1 races per instance); small counts use individual guarded
    lookups. Gomez instances carry the profile's harmful-dispatch count as
    their image count. Every pattern instance gets a unique index so
    instances cannot interact. *)

type site = {
  profile : Profile.t;
  page : string;  (** serialized HTML *)
  resources : (string * string) list;
}

(** [generate profile] builds the page and its external resources. *)
val generate : Profile.t -> site
