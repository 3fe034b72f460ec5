module Html = Wr_html.Html

type site = { profile : Profile.t; page : string; resources : (string * string) list }

let generate (p : Profile.t) =
  let idx = ref 0 in
  let fragments = ref [] in
  let emit (frag : Patterns.t) = fragments := frag :: !fragments in
  let next () =
    incr idx;
    !idx
  in
  let repeat n f = for _ = 1 to n do emit (f ~idx:(next ())) done in
  let chrome, chrome_resources = Patterns.boilerplate ~name:p.Profile.name in
  (* HTML races: harmful ones are unguarded lookups; a large benign count
     becomes one Ford-style polling block, small counts individual guarded
     lookups. *)
  repeat p.Profile.html_harmful Patterns.html_unguarded;
  (if p.Profile.html_benign >= 4 then
     emit (Patterns.html_polling ~idx:(next ()) ~n:(p.Profile.html_benign - 1))
   else repeat p.Profile.html_benign Patterns.html_guarded);
  repeat p.Profile.func_harmful (Patterns.function_hover ~guarded:false);
  repeat p.Profile.func_benign (Patterns.function_hover ~guarded:true);
  repeat p.Profile.var_harmful Patterns.form_hint;
  repeat p.Profile.var_benign Patterns.form_two_writers;
  repeat p.Profile.var_checked Patterns.form_checked;
  if p.Profile.disp_harmful > 0 then
    emit (Patterns.gomez ~idx:(next ()) ~n:p.Profile.disp_harmful);
  repeat p.Profile.disp_benign Patterns.late_load_listener;
  if p.Profile.bulk_var > 0 then
    emit (Patterns.bulk_variable ~idx:(next ()) ~n:p.Profile.bulk_var);
  if p.Profile.bulk_disp > 0 then
    emit (Patterns.bulk_dispatch ~idx:(next ()) ~n:p.Profile.bulk_disp);
  repeat p.Profile.ajax Patterns.ajax_shared;
  let fragments = List.rev !fragments in
  (* Race-free filler scaled to the site's race volume, so page weight is
     realistic for the perf numbers without touching the planted counts. *)
  let volume =
    60 + (2 * Profile.total (Profile.expected_raw p)) + String.length p.Profile.name
  in
  let decoy_nodes, decoy_resources = Patterns.decoy ~idx:(next ()) ~n:volume in
  let nodes =
    chrome
    @ List.concat_map (fun (f : Patterns.t) -> f.Patterns.nodes) fragments
    @ decoy_nodes
  in
  let resources =
    chrome_resources
    @ List.concat_map (fun (f : Patterns.t) -> f.Patterns.resources) fragments
    @ decoy_resources
  in
  { profile = p; page = Html.to_string nodes; resources }
